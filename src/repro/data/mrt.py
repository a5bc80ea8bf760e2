"""A binary MRT-style RIB dump format.

Oregon RouteViews publishes routing tables as MRT ``TABLE_DUMP`` files.  The
offline substitute keeps the same shape — a stream of length-prefixed binary
records, one per (prefix, peer) pair, each carrying the peer AS, the AS path,
LOCAL_PREF, MED, origin and communities — so that the analysis pipeline
exercises a real serialisation boundary: tables produced by the simulator are
written to disk and read back before any inference runs on them.

The format (all integers big-endian):

==========  =====  ====================================================
field       bytes  meaning
==========  =====  ====================================================
magic       4      ``b"RPRM"``
version     2      format version (1)
record ...         repeated records until end of stream
==========  =====  ====================================================

Each record::

    record_length   u32   total bytes that follow in this record
    view_as         u32   the AS whose table this row belongs to
    peer_as         u32   the neighbor the route was learned from
    prefix          u32   network address
    prefix_len      u8
    origin          u8    0=IGP 1=EGP 2=INCOMPLETE
    local_pref      u32
    med             u32
    flags           u8    bit0: route is the best route, bit1: local route
    path_len        u16   number of ASes in the AS path
    path            u32 × path_len
    community_len   u16   number of communities
    communities     u32 × community_len (asn<<16 | value)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

from repro.bgp.attributes import Community, CommunitySet, Origin
from repro.bgp.rib import LocRib
from repro.bgp.route import Route, RouteSource
from repro.exceptions import DataFormatError
from repro.net.asn import ASN
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

MAGIC = b"RPRM"
VERSION = 1

_HEADER = struct.Struct(">4sH")
_RECORD_FIXED = struct.Struct(">IIIBBIIBH")

_FLAG_BEST = 0x01
_FLAG_LOCAL = 0x02


@dataclass
class RibEntryRecord:
    """One decoded MRT-style record.

    Attributes:
        view_as: the AS whose table the record belongs to.
        route: the decoded route.
        is_best: whether the route was the view AS's best route.
    """

    view_as: ASN
    route: Route
    is_best: bool = False


class MrtWriter:
    """Encodes routing tables into the binary dump format."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._wrote_header = False

    def write_table(self, table: LocRib) -> int:
        """Write every candidate route of a Loc-RIB; returns the record count."""
        count = 0
        for entry in table.entries():
            for route in entry.routes:
                self.write_route(table.owner, route, is_best=route is entry.best)
                count += 1
        return count

    def write_route(self, view_as: ASN, route: Route, is_best: bool = False) -> None:
        """Write one record."""
        if not self._wrote_header:
            self._stream.write(_HEADER.pack(MAGIC, VERSION))
            self._wrote_header = True
        path = route.as_path.asns
        communities = [c.to_int() for c in route.communities.communities]
        flags = (_FLAG_BEST if is_best else 0) | (_FLAG_LOCAL if route.is_local else 0)
        body = _RECORD_FIXED.pack(
            view_as,
            route.next_hop_as,
            route.prefix.network,
            route.prefix.length,
            int(route.origin),
            route.local_pref,
            route.med,
            flags,
            len(path),
        )
        body += struct.pack(f">{len(path)}I", *path) if path else b""
        body += struct.pack(">H", len(communities))
        if communities:
            body += struct.pack(f">{len(communities)}I", *communities)
        self._stream.write(struct.pack(">I", len(body)))
        self._stream.write(body)


class MrtReader:
    """Decodes the binary dump format back into routes."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._read_header = False

    def _ensure_header(self) -> None:
        if self._read_header:
            return
        header = self._stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataFormatError("truncated MRT dump: missing header")
        magic, version = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataFormatError(f"bad MRT magic: {magic!r}")
        if version != VERSION:
            raise DataFormatError(f"unsupported MRT version: {version}")
        self._read_header = True

    def records(self) -> Iterator[RibEntryRecord]:
        """Yield every record in the stream."""
        self._ensure_header()
        while True:
            length_bytes = self._stream.read(4)
            if not length_bytes:
                return
            if len(length_bytes) < 4:
                raise DataFormatError("truncated MRT dump: incomplete record length")
            (length,) = struct.unpack(">I", length_bytes)
            body = self._stream.read(length)
            if len(body) < length:
                raise DataFormatError("truncated MRT dump: incomplete record body")
            yield self._decode_record(body)

    def read_tables(self) -> dict[ASN, LocRib]:
        """Rebuild per-AS routing tables from the stream."""
        tables: dict[ASN, LocRib] = {}
        for record in self.records():
            table = tables.setdefault(record.view_as, LocRib(owner=record.view_as))
            table.add_route(record.route)
        return tables

    @staticmethod
    def _decode_record(body: bytes) -> RibEntryRecord:
        try:
            (
                view_as,
                peer_as,
                network,
                prefix_len,
                origin_value,
                local_pref,
                med,
                flags,
                path_len,
            ) = _RECORD_FIXED.unpack_from(body, 0)
            offset = _RECORD_FIXED.size
            path = struct.unpack_from(f">{path_len}I", body, offset) if path_len else ()
            offset += 4 * path_len
            (community_len,) = struct.unpack_from(">H", body, offset)
            offset += 2
            community_values = (
                struct.unpack_from(f">{community_len}I", body, offset)
                if community_len
                else ()
            )
        except struct.error as exc:
            raise DataFormatError(f"malformed MRT record: {exc}") from exc
        communities = CommunitySet(Community.from_int(value) for value in community_values)
        is_local = bool(flags & _FLAG_LOCAL)
        route = Route(
            prefix=Prefix(network, prefix_len),
            as_path=ASPath(path),
            local_pref=local_pref,
            origin=Origin(origin_value),
            med=med,
            communities=communities,
            source=RouteSource.LOCAL if is_local else RouteSource.EBGP,
            learned_from=peer_as,
        )
        return RibEntryRecord(
            view_as=view_as, route=route, is_best=bool(flags & _FLAG_BEST)
        )
