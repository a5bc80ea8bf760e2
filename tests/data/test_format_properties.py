"""Property-based round-trip tests for the on-disk formats (hypothesis)."""

import io

from helpers import import_pref
from hypothesis import given, settings, strategies as st
from strategies import format_routes as routes

from repro.bgp.rib import LocRib
from repro.data.mrt import MrtReader, MrtWriter
from repro.data.rpsl import AutNumObject, PolicyLine
from repro.data.show_ip_bgp import format_show_ip_bgp_table, parse_show_ip_bgp_table


@settings(max_examples=40, deadline=None)
@given(st.lists(routes(), min_size=1, max_size=15))
def test_mrt_roundtrip_preserves_routes(route_list):
    table = LocRib(owner=65000)
    for route in route_list:
        table.add_route(route)
    buffer = io.BytesIO()
    MrtWriter(buffer).write_table(table)
    buffer.seek(0)
    restored = MrtReader(buffer).read_tables()[65000]
    assert len(restored) == len(table)
    for entry in table.entries():
        restored_routes = {
            (r.next_hop_as, r.as_path, r.local_pref, r.med, r.origin, r.communities)
            for r in restored.all_routes(entry.prefix)
        }
        original_routes = {
            (r.next_hop_as, r.as_path, r.local_pref, r.med, r.origin, r.communities)
            for r in entry.routes
        }
        assert restored_routes == original_routes


@settings(max_examples=40, deadline=None)
@given(st.lists(routes(), min_size=1, max_size=10))
def test_show_ip_bgp_table_roundtrip_preserves_key_attributes(route_list):
    table = LocRib(owner=65000)
    for route in route_list:
        table.add_route(route)
    text = format_show_ip_bgp_table(table)
    restored = parse_show_ip_bgp_table(text, view_as=65000)
    assert len(restored) == len(table)
    for entry in table.entries():
        original = {(r.next_hop_as, r.as_path, r.local_pref, r.med) for r in entry.routes}
        parsed = {
            (r.next_hop_as, r.as_path, r.local_pref, r.med)
            for r in restored.all_routes(entry.prefix)
        }
        assert parsed == original


@settings(max_examples=60, deadline=None)
@given(
    asn=st.integers(min_value=1, max_value=65000),
    lines=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=65000),
            st.integers(min_value=0, max_value=999),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda item: item[0],
    ),
)
def test_rpsl_autnum_roundtrip(asn, lines):
    obj = AutNumObject(asn=asn, as_name=f"AS{asn}-NET")
    for peer, pref in lines:
        obj.imports.append(PolicyLine("import", peer_as=peer, pref=pref))
        obj.exports.append(PolicyLine("export", peer_as=peer, filter_text=f"AS{asn}"))
    parsed = AutNumObject.parse(obj.render())
    assert parsed.asn == asn
    assert parsed.neighbors() == {peer for peer, _ in lines}
    for peer, pref in lines:
        assert import_pref(parsed, peer) == pref
