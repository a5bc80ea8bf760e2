"""Tests for the binary MRT-style dump format."""

import io

import pytest

from repro.bgp.attributes import CommunitySet, Origin
from repro.bgp.rib import LocRib
from repro.bgp.route import Route, RouteSource, originate
from repro.data.mrt import MrtReader, MrtWriter
from repro.exceptions import DataFormatError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix


def dump_tables(tables):
    """Serialise several tables into one in-memory dump."""
    buffer = io.BytesIO()
    writer = MrtWriter(buffer)
    for table in tables:
        writer.write_table(table)
    return buffer.getvalue()


def load_tables(data):
    """Parse an in-memory dump back into per-AS tables."""
    return MrtReader(io.BytesIO(data)).read_tables()


def sample_table(owner=7018):
    table = LocRib(owner=owner)
    table.add_route(
        Route(
            prefix=Prefix.parse("12.10.0.0/19"),
            as_path=ASPath.parse("1239 701 6280"),
            local_pref=90,
            med=5,
            origin=Origin.INCOMPLETE,
            communities=CommunitySet(["7018:1000", "7018:5000"]),
        )
    )
    table.add_route(
        Route(
            prefix=Prefix.parse("12.10.0.0/19"),
            as_path=ASPath.parse("852 6280"),
            local_pref=110,
        )
    )
    table.add_route(originate(Prefix.parse("12.0.0.0/12"), origin_as=owner))
    return table


class TestRoundtrip:
    def test_tables_roundtrip(self):
        table = sample_table()
        data = dump_tables([table])
        restored = load_tables(data)
        assert set(restored) == {7018}
        restored_table = restored[7018]
        assert len(restored_table) == len(table)
        prefix = Prefix.parse("12.10.0.0/19")
        assert {str(r.as_path) for r in restored_table.all_routes(prefix)} == {
            "1239 701 6280",
            "852 6280",
        }

    def test_attributes_preserved(self):
        data = dump_tables([sample_table()])
        restored = load_tables(data)[7018]
        prefix = Prefix.parse("12.10.0.0/19")
        routes = {r.next_hop_as: r for r in restored.all_routes(prefix)}
        assert routes[1239].local_pref == 90
        assert routes[1239].med == 5
        assert routes[1239].origin is Origin.INCOMPLETE
        assert routes[1239].communities.has("7018:1000")
        assert routes[852].local_pref == 110

    def test_best_route_flag_recomputed(self):
        data = dump_tables([sample_table()])
        restored = load_tables(data)[7018]
        best = restored.best_route(Prefix.parse("12.10.0.0/19"))
        assert best.next_hop_as == 852

    def test_local_route_preserved(self):
        data = dump_tables([sample_table()])
        restored = load_tables(data)[7018]
        local = restored.best_route(Prefix.parse("12.0.0.0/12"))
        assert local.source is RouteSource.LOCAL
        assert local.origin_as == 7018

    def test_multiple_tables(self):
        data = dump_tables([sample_table(7018), sample_table(1239)])
        restored = load_tables(data)
        assert set(restored) == {7018, 1239}

    def test_record_iteration_reports_best_flag(self):
        buffer = io.BytesIO(dump_tables([sample_table()]))
        records = list(MrtReader(buffer).records())
        assert len(records) == 3
        assert sum(1 for r in records if r.is_best) == 2  # one best per prefix

    def test_empty_table_writes_nothing(self):
        buffer = io.BytesIO()
        count = MrtWriter(buffer).write_table(LocRib(owner=1))
        assert count == 0
        assert buffer.getvalue() == b""


class TestErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(DataFormatError):
            list(MrtReader(io.BytesIO(b"XXXX\x00\x01")).records())

    def test_truncated_header_rejected(self):
        with pytest.raises(DataFormatError):
            list(MrtReader(io.BytesIO(b"RP")).records())

    def test_bad_version_rejected(self):
        with pytest.raises(DataFormatError):
            list(MrtReader(io.BytesIO(b"RPRM\x00\x09")).records())

    def test_truncated_record_rejected(self):
        data = dump_tables([sample_table()])
        with pytest.raises(DataFormatError):
            list(MrtReader(io.BytesIO(data[:-3])).records())

    def test_truncated_length_rejected(self):
        data = dump_tables([sample_table()])
        # Cut in the middle of a record-length field: header(6) + 2 bytes.
        with pytest.raises(DataFormatError):
            list(MrtReader(io.BytesIO(data[:8])).records())
