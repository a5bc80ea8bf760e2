"""RPSL aut-num objects and a synthetic IRR database.

Section 4.1 of the paper complements the Looking-Glass-based LOCAL_PREF
inference with policies registered in the Internet Routing Registry, written
in the Routing Policy Specification Language (RPSL)::

    aut-num: AS1
    import: from AS2 action pref = 1; accept ANY

RPSL ``pref`` is *opposite* to LOCAL_PREF: smaller values are more preferred
(the paper's footnote 2).  This module provides:

* :class:`PolicyLine` / :class:`AutNumObject` — a parsed aut-num object with
  its import/export attributes,
* :class:`IrrDatabase` — a collection of aut-num objects with last-update
  dates, a text serialisation, and a generator that registers the simulated
  ASes' import policies with configurable incompleteness and staleness
  (matching the paper's observation that IRR data is partly missing or
  out of date).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import DataFormatError
from repro.net.asn import ASN
from repro.simulation.policies import PolicyAssignment
from repro.topology.generator import SyntheticInternet
from repro.topology.graph import Relationship

#: RPSL pref values are derived from LOCAL_PREF with this pivot:
#: ``pref = PREF_PIVOT - local_pref`` (smaller pref == more preferred, so a
#: higher LOCAL_PREF maps to a smaller pref).
PREF_PIVOT = 1000


def local_pref_to_rpsl_pref(local_pref: int) -> int:
    """Map a LOCAL_PREF value onto an RPSL ``pref`` value."""
    return PREF_PIVOT - local_pref


def rpsl_pref_to_local_pref(pref: int) -> int:
    """Map an RPSL ``pref`` value back onto a LOCAL_PREF value."""
    return PREF_PIVOT - pref


@dataclass(frozen=True)
class PolicyLine:
    """One ``import:`` or ``export:`` attribute of an aut-num object.

    Attributes:
        direction: ``"import"`` or ``"export"``.
        peer_as: the neighbor AS the line refers to.
        pref: the RPSL preference for import lines (``None`` when absent).
        filter_text: the accept/announce filter (``"ANY"``, ``"AS-FOO"``, ...).
    """

    direction: str
    peer_as: ASN
    pref: int | None = None
    filter_text: str = "ANY"

    def render(self) -> str:
        """Render the attribute value in RPSL syntax."""
        if self.direction == "import":
            action = f" action pref = {self.pref};" if self.pref is not None else ""
            return f"from AS{self.peer_as}{action} accept {self.filter_text}"
        return f"to AS{self.peer_as} announce {self.filter_text}"


_IMPORT_RE = re.compile(
    r"from\s+AS(?P<asn>\d+)(?:\s+action\s+pref\s*=\s*(?P<pref>\d+)\s*;)?\s+accept\s+(?P<filter>.+)",
    re.IGNORECASE,
)
_EXPORT_RE = re.compile(
    r"to\s+AS(?P<asn>\d+)\s+announce\s+(?P<filter>.+)", re.IGNORECASE
)


@dataclass
class AutNumObject:
    """One aut-num object.

    Attributes:
        asn: the AS the object describes.
        as_name: the ``as-name:`` attribute.
        imports: the ``import:`` lines.
        exports: the ``export:`` lines.
        last_updated: the ``changed:`` date in ``YYYYMMDD`` form.
        source: the registry the object came from.
    """

    asn: ASN
    as_name: str = ""
    imports: list[PolicyLine] = field(default_factory=list)
    exports: list[PolicyLine] = field(default_factory=list)
    last_updated: str = "20021101"
    source: str = "RADB"

    def neighbors(self) -> set[ASN]:
        """Every AS mentioned in import or export lines."""
        return {line.peer_as for line in self.imports + self.exports}

    def render(self) -> str:
        """Render the object in RPSL text form."""
        lines = [f"aut-num: AS{self.asn}"]
        if self.as_name:
            lines.append(f"as-name: {self.as_name}")
        for line in self.imports:
            lines.append(f"import: {line.render()}")
        for line in self.exports:
            lines.append(f"export: {line.render()}")
        lines.append(f"changed: noc@as{self.asn}.example {self.last_updated}")
        lines.append(f"source: {self.source}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "AutNumObject":
        """Parse one aut-num object from RPSL text."""
        obj: AutNumObject | None = None
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith(("%", "#")):
                continue
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "aut-num":
                if not value.upper().startswith("AS"):
                    raise DataFormatError(f"bad aut-num value: {value!r}")
                obj = cls(asn=int(value[2:]))
            elif obj is None:
                raise DataFormatError(f"attribute before aut-num: {line!r}")
            elif key == "as-name":
                obj.as_name = value
            elif key == "import":
                match = _IMPORT_RE.match(value)
                if not match:
                    raise DataFormatError(f"unparsable import line: {value!r}")
                obj.imports.append(
                    PolicyLine(
                        direction="import",
                        peer_as=int(match.group("asn")),
                        pref=int(match.group("pref")) if match.group("pref") else None,
                        filter_text=match.group("filter").strip(),
                    )
                )
            elif key == "export":
                match = _EXPORT_RE.match(value)
                if not match:
                    raise DataFormatError(f"unparsable export line: {value!r}")
                obj.exports.append(
                    PolicyLine(
                        direction="export",
                        peer_as=int(match.group("asn")),
                        filter_text=match.group("filter").strip(),
                    )
                )
            elif key == "changed":
                parts = value.split()
                if parts and parts[-1].isdigit():
                    obj.last_updated = parts[-1]
            elif key == "source":
                obj.source = value
            # Other attributes (descr, admin-c, ...) are ignored.
        if obj is None:
            raise DataFormatError("no aut-num attribute found")
        return obj


@dataclass
class IrrDatabase:
    """A collection of aut-num objects, indexable by AS number."""

    objects: dict[ASN, AutNumObject] = field(default_factory=dict)

    def add(self, obj: AutNumObject) -> None:
        """Register (or replace) an object."""
        self.objects[obj.asn] = obj

    def get(self, asn: ASN) -> AutNumObject | None:
        """Return the object for an AS, if registered."""
        return self.objects.get(asn)

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[AutNumObject]:
        return iter(self.objects.values())

    def ases(self) -> list[ASN]:
        """Every registered AS, sorted."""
        return sorted(self.objects)

    def updated_during(self, year: str) -> list[AutNumObject]:
        """Objects whose last update falls in the given year (paper Section 4.1)."""
        return [obj for obj in self.objects.values() if obj.last_updated.startswith(year)]

    # -- serialisation ----------------------------------------------------------

    def render(self) -> str:
        """Render the whole database as concatenated RPSL objects."""
        return "\n".join(self.objects[asn].render() for asn in sorted(self.objects))

    @classmethod
    def parse(cls, text: str) -> "IrrDatabase":
        """Parse a concatenation of aut-num objects (blank-line separated)."""
        database = cls()
        chunk: list[str] = []
        for line in text.splitlines():
            if line.strip():
                chunk.append(line)
                continue
            if chunk:
                database.add(AutNumObject.parse("\n".join(chunk)))
                chunk = []
        if chunk:
            database.add(AutNumObject.parse("\n".join(chunk)))
        return database

    # -- synthesis from a simulation ------------------------------------------------

    @classmethod
    def from_assignment(
        cls,
        internet: SyntheticInternet,
        assignment: PolicyAssignment,
        registration_probability: float = 0.7,
        stale_probability: float = 0.15,
        seed: int = 1125,
        current_year: str = "2002",
    ) -> "IrrDatabase":
        """Build a synthetic IRR from the simulated Internet's policies.

        Each AS registers with probability ``registration_probability``; a
        registered object is *stale* with probability ``stale_probability``,
        in which case its ``changed:`` date predates ``current_year`` and its
        import prefs describe a default (typical) policy rather than the one
        actually deployed — reproducing the incompleteness and staleness the
        paper works around by filtering on the update date.
        """
        rng = random.Random(seed)
        database = cls()
        graph = internet.graph
        for asn in sorted(graph.ases()):
            if rng.random() > registration_probability:
                continue
            policy = assignment.policy_for(asn)
            stale = rng.random() < stale_probability
            obj = AutNumObject(
                asn=asn,
                as_name=f"AS{asn}-NET",
                last_updated=(
                    f"{int(current_year) - rng.randint(1, 3)}"
                    f"{rng.randint(1, 12):02d}{rng.randint(1, 28):02d}"
                    if stale
                    else f"{current_year}{rng.randint(1, 11):02d}{rng.randint(1, 28):02d}"
                ),
            )
            for neighbor in sorted(graph.neighbors(asn)):
                relationship = graph.relationship(asn, neighbor)
                if stale:
                    local_pref = policy.local_pref.value_for(relationship)
                else:
                    local_pref = policy.import_local_pref(
                        neighbor, relationship, prefix=_ANY_PREFIX
                    )
                obj.imports.append(
                    PolicyLine(
                        direction="import",
                        peer_as=neighbor,
                        pref=local_pref_to_rpsl_pref(local_pref),
                        filter_text="ANY"
                        if relationship in (Relationship.PROVIDER, Relationship.PEER)
                        else f"AS{neighbor}",
                    )
                )
                obj.exports.append(
                    PolicyLine(
                        direction="export",
                        peer_as=neighbor,
                        filter_text=f"AS{asn}"
                        if relationship in (Relationship.PROVIDER, Relationship.PEER)
                        else "ANY",
                    )
                )
            database.add(obj)
        return database


#: Placeholder prefix used when asking a policy for its neighbor-level
#: LOCAL_PREF (per-prefix overrides are irrelevant for IRR registration).
from repro.net.prefix import Prefix as _Prefix

_ANY_PREFIX = _Prefix.parse("192.0.2.0/24")
