"""Export-policy inference: selectively announced (SA) prefixes.

This is the paper's Fig. 4 algorithm (Section 5.1.1) and the prevalence
measurements built on it (Section 5.1.2, Tables 5 and 6).

From the viewpoint of a provider ``u``:

1. *Phase 2* — decide whether the origin AS ``o`` of a prefix is a (direct or
   indirect) customer of ``u`` by expanding provider→customer edges from
   ``u`` (the annotated graph's customer cone).
2. *Phase 3* — for each prefix originated by such a customer, look at ``u``'s
   best route: if its next-hop AS ``w`` is *not* a customer of ``u`` (i.e.
   the best route is a peer or provider route), the prefix is a **SA prefix**
   with respect to ``u``.

The analyzer works off a provider's routing table (Loc-RIB best routes — the
paper argues best routes suffice given typical LOCAL_PREF) and an annotated
AS graph, which may be ground truth or inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.exceptions import InferenceError
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.topology.graph import AnnotatedASGraph, Relationship


@dataclass
class SAPrefix:
    """One selectively announced prefix, as observed at a provider.

    Attributes:
        prefix: the prefix.
        origin_as: the customer AS that originates it.
        next_hop_as: the neighbor the provider's best route points at.
        next_hop_relationship: the provider's relationship with that neighbor.
        best_route: the provider's best route.
        customer_path: one provider→customer path from the provider down to
            the origin AS (evidence that a customer path exists in the graph).
    """

    prefix: Prefix
    origin_as: ASN
    next_hop_as: ASN
    next_hop_relationship: Relationship | None
    best_route: Route
    customer_path: list[ASN] = field(default_factory=list)


@dataclass
class SAPrefixReport:
    """The outcome of the Fig. 4 algorithm for one provider.

    Attributes:
        provider: the provider AS ``u``.
        customer_prefix_count: prefixes in the provider's table originated by
            its (direct or indirect) customers.
        sa_prefixes: those reached via a non-customer next hop.
        customer_route_prefix_count: customer-originated prefixes reached via
            a customer route (the complement of the SA prefixes).
        missing_prefix_count: prefixes originated by customers (according to
            the ground-truth prefix ownership, when supplied) that do not
            appear in the provider's table at all — possible with scoped
            announcements.
    """

    provider: ASN
    customer_prefix_count: int = 0
    sa_prefixes: list[SAPrefix] = field(default_factory=list)
    customer_route_prefix_count: int = 0
    missing_prefix_count: int = 0

    @property
    def sa_prefix_count(self) -> int:
        """Number of SA prefixes."""
        return len(self.sa_prefixes)

    @property
    def percent_sa(self) -> float:
        """Percentage of customer-originated prefixes that are SA prefixes."""
        if self.customer_prefix_count == 0:
            return 0.0
        return 100.0 * self.sa_prefix_count / self.customer_prefix_count

    def sa_prefix_set(self) -> set[Prefix]:
        """The SA prefixes as a set."""
        return {item.prefix for item in self.sa_prefixes}

    def origins_with_sa_prefixes(self) -> set[ASN]:
        """Every origin AS contributing at least one SA prefix."""
        return {item.origin_as for item in self.sa_prefixes}


@dataclass
class CustomerSAReport:
    """Table 6 style row: one customer's prefixes across several providers.

    Attributes:
        customer: the origin AS.
        prefix_count: prefixes it originates (as seen in the tables).
        sa_prefix_count: how many of them are SA prefixes for at least one of
            the studied providers.
    """

    customer: ASN
    prefix_count: int = 0
    sa_prefix_count: int = 0

    @property
    def percent_sa(self) -> float:
        """Percentage of the customer's prefixes that are SA somewhere."""
        if self.prefix_count == 0:
            return 0.0
        return 100.0 * self.sa_prefix_count / self.prefix_count


class ExportPolicyAnalyzer:
    """Runs the Fig. 4 SA-prefix inference against provider routing tables.

    Customer cones and customer paths are deterministic functions of the
    relationship graph, so they are memoised per analyzer instance: one
    analyzer reused across many tables (e.g. the persistence study's
    snapshots) pays each cone/path search once.  The graph must therefore
    not be mutated between calls — build a fresh analyzer if it changes.
    """

    def __init__(self, relationships: AnnotatedASGraph) -> None:
        self.relationships = relationships
        self._cones: dict[ASN, set[ASN]] = {}
        self._customer_paths: dict[tuple[ASN, ASN], tuple[ASN, ...] | None] = {}

    # -- memoised graph walks -----------------------------------------------------

    def customer_cone(self, provider: ASN) -> set[ASN]:
        """The provider's customer cone, computed once per analyzer."""
        cone = self._cones.get(provider)
        if cone is None:
            cone = self._cones[provider] = self.relationships.customer_cone(provider)
        return cone

    def customer_path(self, provider: ASN, origin: ASN) -> list[ASN]:
        """One provider→customer path down to ``origin`` (``[]`` if none).

        Returns a fresh list per call, so callers may keep or modify it.
        """
        key = (provider, origin)
        if key not in self._customer_paths:
            path = self.relationships.find_customer_path(provider, origin)
            self._customer_paths[key] = tuple(path) if path is not None else None
        cached = self._customer_paths[key]
        return list(cached) if cached else []

    # -- the Fig. 4 algorithm ------------------------------------------------------

    def find_sa_prefixes(
        self,
        provider: ASN,
        table: LocRib,
        known_customer_prefixes: dict[ASN, list[Prefix]] | None = None,
    ) -> SAPrefixReport:
        """Classify every customer-originated prefix in a provider's table.

        Args:
            provider: the provider AS ``u`` whose viewpoint is analysed.
            table: the provider's routing table (best routes are used).
            known_customer_prefixes: optional ground-truth prefix ownership;
                when given, customer prefixes absent from the table are
                counted in ``missing_prefix_count``.
        """
        if provider not in self.relationships:
            raise InferenceError(f"AS{provider} is not in the relationship graph")
        report = SAPrefixReport(provider=provider)
        cone = self.customer_cone(provider)
        seen_prefixes: set[Prefix] = set()
        for route in table.best_routes():
            if route.is_local:
                continue
            origin = route.origin_as
            if origin not in cone:
                continue
            report.customer_prefix_count += 1
            seen_prefixes.add(route.prefix)
            next_hop = route.next_hop_as
            relationship = self.relationships.relationship(provider, next_hop)
            if relationship is Relationship.CUSTOMER:
                report.customer_route_prefix_count += 1
                continue
            report.sa_prefixes.append(
                SAPrefix(
                    prefix=route.prefix,
                    origin_as=origin,
                    next_hop_as=next_hop,
                    next_hop_relationship=relationship,
                    best_route=route,
                    customer_path=self.customer_path(provider, origin),
                )
            )
        if known_customer_prefixes:
            for origin, prefixes in known_customer_prefixes.items():
                if origin not in cone:
                    continue
                for prefix in prefixes:
                    if prefix not in seen_prefixes and table.best_route(prefix) is None:
                        report.missing_prefix_count += 1
        return report

    def analyze_providers(
        self,
        tables: dict[ASN, LocRib],
        known_customer_prefixes: dict[ASN, list[Prefix]] | None = None,
    ) -> dict[ASN, SAPrefixReport]:
        """Table 5: run the algorithm for several providers."""
        return {
            provider: self.find_sa_prefixes(provider, table, known_customer_prefixes)
            for provider, table in tables.items()
        }

    # -- the customer viewpoint (Table 6) -------------------------------------------

    def analyze_customers(
        self,
        reports: dict[ASN, SAPrefixReport],
        tables: dict[ASN, LocRib],
        min_prefixes: int = 3,
    ) -> list[CustomerSAReport]:
        """Table 6: customers that have *all* the studied providers upstream.

        A customer qualifies when it lies in the customer cone of every
        studied provider and originates at least ``min_prefixes`` prefixes;
        its SA count is the number of its prefixes that are SA for at least
        one of the providers.
        """
        providers = sorted(reports)
        if not providers:
            return []
        cones = [self.customer_cone(provider) for provider in providers]
        shared_customers = set.intersection(*cones) if cones else set()

        # Prefixes originated by each customer, as visible from any table.
        originated: dict[ASN, set[Prefix]] = {}
        for table in tables.values():
            for route in table.best_routes():
                if route.is_local:
                    continue
                originated.setdefault(route.origin_as, set()).add(route.prefix)

        sa_by_prefix: dict[Prefix, set[ASN]] = {}
        for provider, report in reports.items():
            for item in report.sa_prefixes:
                sa_by_prefix.setdefault(item.prefix, set()).add(provider)

        results: list[CustomerSAReport] = []
        for customer in sorted(shared_customers):
            prefixes = originated.get(customer, set())
            if len(prefixes) < min_prefixes:
                continue
            sa_count = sum(1 for prefix in prefixes if prefix in sa_by_prefix)
            results.append(
                CustomerSAReport(
                    customer=customer,
                    prefix_count=len(prefixes),
                    sa_prefix_count=sa_count,
                )
            )
        results.sort(key=lambda row: row.sa_prefix_count, reverse=True)
        return results
