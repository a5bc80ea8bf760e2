"""Cisco-style ``show ip bgp`` text output: formatter and parser.

Looking Glass servers expose routing state as IOS command output.  The
pipeline downloads whole tables in the *table* form: one line per
candidate route, ``*>`` marking the best route.

The formatter renders a :class:`~repro.bgp.rib.LocRib` into that shape and
the parser reads it back into :class:`~repro.bgp.route.Route` objects, so
the Looking Glass leg of the pipeline also crosses a real serialisation
boundary.
"""

from __future__ import annotations

import re

from repro.bgp.attributes import Origin
from repro.bgp.rib import LocRib
from repro.bgp.route import Route, RouteSource
from repro.exceptions import DataFormatError
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

_ORIGIN_CODES = {Origin.IGP: "i", Origin.EGP: "e", Origin.INCOMPLETE: "?"}
_CODES_TO_ORIGIN = {code: origin for origin, code in _ORIGIN_CODES.items()}

_TABLE_HEADER = (
    "   Network            Next Hop AS       Metric LocPrf Path"
)


# ---------------------------------------------------------------------------
# Table form
# ---------------------------------------------------------------------------


def format_show_ip_bgp_table(table: LocRib) -> str:
    """Render a whole table in the ``show ip bgp`` listing format."""
    lines = [
        f"BGP table version is 1, local router ID is 0.0.0.{table.owner % 256}",
        "Status codes: * valid, > best, i - internal",
        "",
        _TABLE_HEADER,
    ]
    for entry in table.entries():
        for route in entry.routes:
            marker = "*>" if route is entry.best else "* "
            path_text = str(route.as_path) if not route.is_local else ""
            origin_code = _ORIGIN_CODES[route.origin]
            lines.append(
                f"{marker} {str(route.prefix):<18} {route.next_hop_as:<10} "
                f"{route.med:>8} {route.local_pref:>6} {path_text} {origin_code}".rstrip()
            )
    return "\n".join(lines) + "\n"


_TABLE_LINE = re.compile(
    r"^(?P<marker>\*>|\* )\s+(?P<prefix>\S+)\s+(?P<next_hop>\d+)\s+"
    r"(?P<med>\d+)\s+(?P<local_pref>\d+)\s*(?P<path>[\d ]*?)\s*(?P<origin>[ie?])$"
)


def parse_show_ip_bgp_table(text: str, view_as: ASN) -> LocRib:
    """Parse the table listing back into a :class:`LocRib` owned by ``view_as``."""
    table = LocRib(owner=view_as)
    best_markers: dict[Prefix, Route] = {}
    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        if not line or not (line.startswith("*>") or line.startswith("* ")):
            continue
        match = _TABLE_LINE.match(line)
        if match is None:
            raise DataFormatError(f"unparsable show ip bgp line: {line!r}")
        prefix = Prefix.parse(match.group("prefix"))
        path_text = match.group("path").strip()
        as_path = ASPath.parse(path_text) if path_text else ASPath.origin_only(view_as)
        route = Route(
            prefix=prefix,
            as_path=as_path,
            local_pref=int(match.group("local_pref")),
            med=int(match.group("med")),
            origin=_CODES_TO_ORIGIN[match.group("origin")],
            source=RouteSource.LOCAL if not path_text else RouteSource.EBGP,
            learned_from=int(match.group("next_hop")),
        )
        table.add_route(route)
        if match.group("marker") == "*>":
            best_markers[prefix] = route
    # The parsed table re-runs best selection; when attributes tie the dump's
    # best marker is authoritative, so re-add the marked route last (the
    # incumbent-wins rule keeps it selected on complete ties).
    for prefix, route in best_markers.items():
        entry = table.entry(prefix)
        if entry is not None and entry.best is not route:
            entry.best = table.decision.select_best([route] + entry.alternatives())
    return table
