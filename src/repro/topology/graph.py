"""The annotated AS graph (paper Section 2.1) and customer-path search.

An annotated AS graph is ``G = (V, E)`` where the nodes are ASes and each
edge is labelled *provider-to-customer* or *peer-to-peer*.  On top of the raw
graph this module provides the primitives the paper's algorithms need:

* neighbor classification (customers / peers / providers of an AS),
* the *customer cone* — every AS reachable by walking provider→customer
  edges downward,
* :meth:`AnnotatedASGraph.find_customer_path` — the modified depth-first
  search of the Fig. 4 algorithm (Phase 2), which only follows
  provider-to-customer edges so every discovered path is a valid customer
  path under the export rules of Section 2.2.2, and
* valley-free path validation, used both by the propagation engine and by
  the verification step of Section 5.1.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.exceptions import TopologyError
from repro.net.asn import ASN
from repro.net.aspath import ASPath


class Relationship(enum.Enum):
    """The relationship of a neighbor *from the perspective of a given AS*."""

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    SIBLING = "sibling"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Edge:
    """One annotated edge: ``provider`` is the upstream end for transit edges.

    For peer-to-peer (and sibling) edges the two ends are interchangeable;
    ``provider``/``customer`` then just record the insertion order.
    """

    provider: ASN
    customer: ASN
    relationship: Relationship

    def other(self, asn: ASN) -> ASN:
        """Return the AS at the other end of the edge."""
        if asn == self.provider:
            return self.customer
        if asn == self.customer:
            return self.provider
        raise TopologyError(f"AS{asn} is not an endpoint of {self}")


class AnnotatedASGraph:
    """An AS-level graph whose edges carry business relationships."""

    def __init__(self) -> None:
        self._neighbors: dict[ASN, dict[ASN, Relationship]] = {}

    # -- construction -------------------------------------------------------

    def add_as(self, asn: ASN) -> None:
        """Add an AS with no links (idempotent)."""
        self._neighbors.setdefault(asn, {})

    def add_provider_customer(self, provider: ASN, customer: ASN) -> None:
        """Add (or overwrite) a provider-to-customer edge."""
        if provider == customer:
            raise TopologyError(f"AS{provider} cannot be its own provider")
        self._set(provider, customer, Relationship.CUSTOMER)
        self._set(customer, provider, Relationship.PROVIDER)

    def add_peer_peer(self, left: ASN, right: ASN) -> None:
        """Add (or overwrite) a peer-to-peer edge."""
        if left == right:
            raise TopologyError(f"AS{left} cannot peer with itself")
        self._set(left, right, Relationship.PEER)
        self._set(right, left, Relationship.PEER)

    def add_sibling(self, left: ASN, right: ASN) -> None:
        """Add (or overwrite) a sibling-to-sibling edge."""
        if left == right:
            raise TopologyError(f"AS{left} cannot be its own sibling")
        self._set(left, right, Relationship.SIBLING)
        self._set(right, left, Relationship.SIBLING)

    def _set(self, asn: ASN, neighbor: ASN, relationship: Relationship) -> None:
        self._neighbors.setdefault(asn, {})[neighbor] = relationship
        self._neighbors.setdefault(neighbor, {})

    # -- basic queries ----------------------------------------------------------

    def ases(self) -> list[ASN]:
        """Every AS in the graph."""
        return list(self._neighbors)

    def __contains__(self, asn: object) -> bool:
        return asn in self._neighbors

    def __len__(self) -> int:
        return len(self._neighbors)

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._neighbors.values()) // 2

    def degree(self, asn: ASN) -> int:
        """Number of neighbors of an AS."""
        return len(self._neighbors.get(asn, {}))

    def neighbors(self, asn: ASN) -> list[ASN]:
        """Every neighbor of an AS."""
        return list(self._neighbors.get(asn, {}))

    def neighbor_items(self, asn: ASN) -> Iterator[tuple[ASN, Relationship]]:
        """Iterate ``(neighbor, relationship)`` pairs of an AS in one pass.

        The single-pass form is what bulk consumers (the propagation engines'
        neighbor classification, the fast-path topology compiler) want:
        one dictionary walk instead of one scan per relationship kind.
        """
        return iter(self._neighbors.get(asn, {}).items())

    def relationship(self, asn: ASN, neighbor: ASN) -> Relationship | None:
        """The relationship of ``neighbor`` from ``asn``'s point of view, if linked."""
        return self._neighbors.get(asn, {}).get(neighbor)

    def customers_of(self, asn: ASN) -> list[ASN]:
        """Direct customers of an AS."""
        return self._by_relationship(asn, Relationship.CUSTOMER)

    def providers_of(self, asn: ASN) -> list[ASN]:
        """Direct providers of an AS."""
        return self._by_relationship(asn, Relationship.PROVIDER)

    def peers_of(self, asn: ASN) -> list[ASN]:
        """Peers of an AS."""
        return self._by_relationship(asn, Relationship.PEER)

    def _by_relationship(self, asn: ASN, relationship: Relationship) -> list[ASN]:
        return [
            neighbor
            for neighbor, rel in self._neighbors.get(asn, {}).items()
            if rel is relationship
        ]

    def is_multihomed(self, asn: ASN) -> bool:
        """``True`` if the AS has more than one provider (paper Section 5.1.5)."""
        return len(self.providers_of(asn)) > 1

    def is_stub(self, asn: ASN) -> bool:
        """``True`` if the AS has no customers."""
        return not self.customers_of(asn)

    def edges(self) -> Iterator[Edge]:
        """Iterate over every edge once, with transit edges oriented provider→customer."""
        seen: set[frozenset[ASN]] = set()
        for asn, neighbors in self._neighbors.items():
            for neighbor, relationship in neighbors.items():
                key = frozenset((asn, neighbor))
                if key in seen:
                    continue
                seen.add(key)
                if relationship is Relationship.CUSTOMER:
                    yield Edge(asn, neighbor, Relationship.CUSTOMER)
                elif relationship is Relationship.PROVIDER:
                    yield Edge(neighbor, asn, Relationship.CUSTOMER)
                else:
                    yield Edge(asn, neighbor, relationship)

    # -- customer cone and customer paths (paper Fig. 4, Phase 2) ------------------

    def customer_cone(self, asn: ASN) -> set[ASN]:
        """Every direct or indirect customer of an AS (the AS itself excluded)."""
        if asn not in self._neighbors:
            raise TopologyError(f"AS{asn} is not in the graph")
        cone: set[ASN] = set()
        stack = list(self.customers_of(asn))
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(
                customer for customer in self.customers_of(current) if customer not in cone
            )
        return cone

    def find_customer_path(self, provider: ASN, customer: ASN) -> list[ASN] | None:
        """Return one customer path from ``provider`` down to ``customer``.

        The path follows only provider-to-customer edges (so every
        consecutive pair obeys the export rules of Section 2.2.2) and is
        found with a depth-first search.  Returns ``None`` when the target is
        not in the provider's customer cone.
        """
        if provider not in self._neighbors or customer not in self._neighbors:
            return None
        stack: list[tuple[ASN, list[ASN]]] = [(provider, [provider])]
        visited: set[ASN] = set()
        while stack:
            current, path = stack.pop()
            if current == customer:
                return path
            if current in visited:
                continue
            visited.add(current)
            for next_customer in self.customers_of(current):
                if next_customer not in visited:
                    stack.append((next_customer, path + [next_customer]))
        return None

    # -- path validation ---------------------------------------------------------

    def is_valley_free(self, path: Sequence[ASN] | ASPath) -> bool:
        """Check the Gao valley-free property of an AS path.

        Walking from the first AS (nearest the receiver) toward the origin, a
        valid path consists of zero or more customer→provider (uphill) steps,
        at most one peer-peer step, then zero or more provider→customer
        (downhill) steps.  Sibling steps are transparent.  Paths containing
        ASes or edges missing from the graph are rejected.
        """
        asns = list(path.deduplicate()) if isinstance(path, ASPath) else list(path)
        if len(asns) <= 1:
            return True
        # Walk from the origin toward the receiver so "uphill" comes first.
        ordered = list(reversed(asns))
        phase = "up"
        for left, right in zip(ordered, ordered[1:]):
            relationship = self.relationship(left, right)
            if relationship is None:
                return False
            if relationship is Relationship.SIBLING:
                continue
            if relationship is Relationship.PROVIDER:
                # left -> its provider: uphill step.
                if phase != "up":
                    return False
            elif relationship is Relationship.PEER:
                if phase != "up":
                    return False
                phase = "down"
            else:  # CUSTOMER: downhill step.
                phase = "down"
        return True

    # -- conversion ---------------------------------------------------------------

    def adjacency_rows(self) -> list[tuple[ASN, tuple[tuple[ASN, Relationship], ...]]]:
        """Dump the adjacency structure in exact iteration order.

        Returns one ``(asn, ((neighbor, relationship), ...))`` row per AS,
        preserving the insertion order of both the AS map and each
        neighbor map.  :meth:`from_adjacency_rows` rebuilds a graph whose
        iteration orders (``ases()``, ``neighbor_items()``, ...) are
        identical to this one's — the property the storage codecs rely on
        so that artifacts loaded from disk behave exactly like freshly
        generated ones.
        """
        return [
            (asn, tuple(neighbors.items()))
            for asn, neighbors in self._neighbors.items()
        ]

    @classmethod
    def from_adjacency_rows(
        cls, rows: Iterable[tuple[ASN, Iterable[tuple[ASN, Relationship]]]]
    ) -> "AnnotatedASGraph":
        """Rebuild a graph from :meth:`adjacency_rows` output, order included."""
        graph = cls()
        neighbors = graph._neighbors
        for asn, row in rows:
            neighbors[asn] = dict(row)
        return graph

    @classmethod
    def from_edges(
        cls,
        provider_customer: Iterable[tuple[ASN, ASN]] = (),
        peer_peer: Iterable[tuple[ASN, ASN]] = (),
        sibling: Iterable[tuple[ASN, ASN]] = (),
    ) -> "AnnotatedASGraph":
        """Build a graph from edge lists (convenient in tests and examples)."""
        graph = cls()
        for provider, customer in provider_customer:
            graph.add_provider_customer(provider, customer)
        for left, right in peer_peer:
            graph.add_peer_peer(left, right)
        for left, right in sibling:
            graph.add_sibling(left, right)
        return graph

    def __repr__(self) -> str:
        return f"AnnotatedASGraph(ases={len(self)}, edges={self.edge_count()})"
