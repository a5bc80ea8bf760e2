"""Property-based tests for the prefix algebra (hypothesis)."""

from hypothesis import given, strategies as st
from strategies import prefixes

from repro.net.prefix import IPV4_MAX, Prefix, format_ipv4, parse_ipv4


@given(st.integers(min_value=0, max_value=IPV4_MAX))
def test_ipv4_parse_format_roundtrip(value):
    assert parse_ipv4(format_ipv4(value)) == value


@given(prefixes())
def test_prefix_string_roundtrip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(prefixes())
def test_prefix_contains_itself(prefix):
    assert prefix.contains(prefix)


@given(prefixes(max_length=31))
def test_subnets_partition_parent(prefix):
    children = list(prefix.subnets())
    assert len(children) == 2
    assert children[0] != children[1]
    assert sum(child.size for child in children) == prefix.size
    for child in children:
        assert prefix.contains(child)
        assert child.length == prefix.length + 1


@given(prefixes(), prefixes())
def test_containment_is_antisymmetric_up_to_equality(a, b):
    if a.contains(b) and b.contains(a):
        assert a == b
