"""Autonomous System number utilities.

AS numbers in this library are plain ``int`` objects (type-aliased to
:data:`ASN` for readability in signatures).  The helpers here validate and
parse them; 4-byte AS numbers are supported in the ``asdot`` notation used by
operators (e.g. ``"65536"`` or ``"1.0"``).
"""

from __future__ import annotations

from repro.exceptions import ASPathError

#: Type alias used across the library for readability of signatures.
ASN = int

#: Largest 2-byte AS number.
MAX_ASN16 = 0xFFFF

#: Largest 4-byte AS number.
MAX_ASN32 = 0xFFFFFFFF


def parse_asn(text: str | int) -> ASN:
    """Parse an AS number from ``asplain`` or ``asdot`` notation.

    ``asplain`` is a plain decimal integer ("7018"); ``asdot`` is the
    dotted form used for 4-byte AS numbers ("1.10" == 65546).

    Raises:
        ASPathError: if the value is not a valid AS number.
    """
    if isinstance(text, int):
        value = text
    else:
        text = text.strip()
        if "." in text:
            high_text, _, low_text = text.partition(".")
            try:
                high = int(high_text)
                low = int(low_text)
            except ValueError as exc:
                raise ASPathError(f"invalid asdot AS number: {text!r}") from exc
            if not (0 <= high <= MAX_ASN16 and 0 <= low <= MAX_ASN16):
                raise ASPathError(f"asdot components out of range: {text!r}")
            value = (high << 16) | low
        else:
            try:
                value = int(text)
            except ValueError as exc:
                raise ASPathError(f"invalid AS number: {text!r}") from exc
    if not (0 <= value <= MAX_ASN32):
        raise ASPathError(f"AS number out of range: {value}")
    return value
