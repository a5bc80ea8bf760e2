"""Property-based tests for the radix trie (hypothesis)."""

from hypothesis import given, settings, strategies as st
from strategies import prefixes

from repro.net.trie import PrefixTrie


prefix_lists = st.lists(prefixes(), max_size=60)


@given(prefix_lists)
def test_trie_matches_dict_semantics(prefix_list):
    trie = PrefixTrie()
    reference = {}
    for index, prefix in enumerate(prefix_list):
        trie.insert(prefix, index)
        reference[prefix] = index
    assert len(trie) == len(reference)
    for prefix, value in reference.items():
        assert trie[prefix] == value
    assert dict(trie.items()) == reference


@given(prefix_lists, prefixes())
def test_longest_match_agrees_with_bruteforce(prefix_list, query):
    """``covering`` yields shortest first, so its last pair is the longest match."""
    trie = PrefixTrie()
    for index, prefix in enumerate(prefix_list):
        trie.insert(prefix, index)
    candidates = [p for p in set(prefix_list) if p.contains(query)]
    matches = [p for p, _ in trie.covering(query)]
    assert matches == sorted(candidates, key=lambda p: p.length)
    if candidates:
        assert matches[-1].length == max(p.length for p in candidates)
        assert matches[-1].contains(query)


@given(prefix_lists, prefixes())
def test_covering_and_covered_agree_with_bruteforce(prefix_list, query):
    trie = PrefixTrie()
    for index, prefix in enumerate(prefix_list):
        trie.insert(prefix, index)
    unique = set(prefix_list)
    covering = {p for p, _ in trie.covering(query)}
    covered = {p for p, _ in trie.covered(query)}
    assert covering == {p for p in unique if p.contains(query)}
    assert covered == {p for p in unique if query.contains(p)}


@settings(max_examples=50)
@given(st.lists(prefixes(), min_size=1, max_size=40))
def test_remove_restores_previous_state(prefix_list):
    trie = PrefixTrie()
    for index, prefix in enumerate(prefix_list):
        trie.insert(prefix, index)
    unique = list(dict.fromkeys(prefix_list))
    removed = unique[len(unique) // 2]
    trie.remove(removed)
    assert removed not in trie
    assert len(trie) == len(unique) - 1
    for prefix in unique:
        if prefix != removed:
            assert prefix in trie
