"""Addressing substrate: IPv4 prefixes, AS numbers, AS paths and a radix trie.

This subpackage contains the low-level data types every other layer of the
library builds on:

* :class:`~repro.net.prefix.Prefix` — an immutable IPv4 prefix with the
  containment and splitting operations the prefix-splitting and
  prefix-aggregation analyses of the paper need (Section 5.1.5).
* :class:`~repro.net.aspath.ASPath` — the AS_PATH attribute, with loop
  detection and prepending.
* :class:`~repro.net.trie.PrefixTrie` — a binary radix trie providing
  exact lookup and covered/covering-prefix searches.
* :class:`~repro.net.allocator.AddressAllocator` — non-overlapping address
  space for the synthetic Internet, including provider-assigned
  sub-allocations (needed to reproduce the aggregation case of Table 9).
"""

from repro.net.asn import ASN, parse_asn
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.net.allocator import AddressAllocator

__all__ = [
    "ASN",
    "ASPath",
    "AddressAllocator",
    "Prefix",
    "PrefixTrie",
    "parse_asn",
]
