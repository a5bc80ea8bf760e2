"""Persistence of SA prefixes over time (paper Section 5.1.4, Figs. 6 and 7).

Given a chronological sequence of timeline snapshots (daily over a month, or
2-hourly over a day), the analysis tracks, for one provider:

* the number of prefixes and of SA prefixes in each snapshot (Fig. 6), and
* per prefix, its *uptime* (number of snapshots in which it appears) and its
  *SA uptime* (number of snapshots in which it is an SA prefix); prefixes
  whose SA uptime is lower than their uptime have shifted from SA to non-SA
  at some point (Fig. 7).

A snapshot has no measurement index, so each one is classified on its own
columnar RIB: the analysis engine's Fig. 4 rule
(:func:`~repro.analysis.engine.sa_rows`) labels the provider's best rows
in place.  Only announcements churn between snapshots, so the provider's
customer cone is computed once per timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.analysis.engine import sa_rows
from repro.net.asn import ASN
from repro.net.prefix import Prefix
from repro.topology.graph import AnnotatedASGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.timeline import Snapshot


@dataclass
class PersistenceSeries:
    """Fig. 6 style series for one provider.

    Attributes:
        provider: the provider analysed.
        snapshot_indices: the snapshot numbers.
        all_prefix_counts: prefixes in the provider's table per snapshot.
        sa_prefix_counts: SA prefixes per snapshot.
    """

    provider: ASN
    snapshot_indices: list[int] = field(default_factory=list)
    all_prefix_counts: list[int] = field(default_factory=list)
    sa_prefix_counts: list[int] = field(default_factory=list)

    def as_rows(self) -> list[tuple[int, int, int]]:
        """(snapshot, all prefixes, SA prefixes) rows."""
        return list(
            zip(self.snapshot_indices, self.all_prefix_counts, self.sa_prefix_counts)
        )


@dataclass
class UptimeDistribution:
    """Fig. 7 style distribution for one provider.

    Attributes:
        provider: the provider analysed.
        snapshot_count: number of snapshots examined.
        uptime: per prefix, the number of snapshots it appears in.
        sa_uptime: per prefix, the number of snapshots it is an SA prefix in.
    """

    provider: ASN
    snapshot_count: int = 0
    uptime: dict[Prefix, int] = field(default_factory=dict)
    sa_uptime: dict[Prefix, int] = field(default_factory=dict)

    def ever_sa_prefixes(self) -> set[Prefix]:
        """Prefixes that were an SA prefix in at least one snapshot."""
        return {prefix for prefix, count in self.sa_uptime.items() if count > 0}

    def remaining_sa_prefixes(self) -> set[Prefix]:
        """Prefixes that were SA in *every* snapshot they appeared in."""
        return {
            prefix
            for prefix in self.ever_sa_prefixes()
            if self.sa_uptime[prefix] == self.uptime.get(prefix, 0)
        }

    def shifting_prefixes(self) -> set[Prefix]:
        """Prefixes that shifted from SA to non-SA during the period."""
        return self.ever_sa_prefixes() - self.remaining_sa_prefixes()

    def histogram(self) -> list[tuple[int, int, int]]:
        """Fig. 7 histogram rows: (uptime, remaining-as-SA count, shifting count)."""
        remaining = self.remaining_sa_prefixes()
        shifting = self.shifting_prefixes()
        rows: list[tuple[int, int, int]] = []
        for uptime_value in range(1, self.snapshot_count + 1):
            remaining_count = sum(
                1 for prefix in remaining if self.uptime.get(prefix) == uptime_value
            )
            shifting_count = sum(
                1 for prefix in shifting if self.uptime.get(prefix) == uptime_value
            )
            rows.append((uptime_value, remaining_count, shifting_count))
        return rows

    @property
    def percent_shifting(self) -> float:
        """Fraction of ever-SA prefixes that shifted to non-SA at some point."""
        ever = self.ever_sa_prefixes()
        if not ever:
            return 0.0
        return 100.0 * len(self.shifting_prefixes()) / len(ever)


def _classified(
    snapshots: list["Snapshot"], provider: ASN, relationships: AnnotatedASGraph
) -> Iterator[tuple["Snapshot", list[Prefix], set[Prefix]]]:
    """Per snapshot: the provider's table prefixes and its SA prefixes."""
    cone: set[ASN] | None = None
    for snapshot in snapshots:
        rib = snapshot.result.rib
        prefixes = [rib.prefixes[rib.entry_prefix[entry]] for entry in rib.entries(provider)]
        if cone is None:
            cone = relationships.customer_cone(provider)
        _, rows = sa_rows(rib, provider, relationships, cone)
        sa_prefixes = {rib.prefixes[rib.entry_prefix[entry]] for entry, _, _ in rows}
        yield snapshot, prefixes, sa_prefixes


def persistence_series(
    snapshots: list["Snapshot"], provider: ASN, relationships: AnnotatedASGraph
) -> PersistenceSeries:
    """Fig. 6: per-snapshot prefix and SA-prefix counts for one provider."""
    series = PersistenceSeries(provider=provider)
    for snapshot, prefixes, sa_prefixes in _classified(snapshots, provider, relationships):
        series.snapshot_indices.append(snapshot.index)
        series.all_prefix_counts.append(len(prefixes))
        series.sa_prefix_counts.append(len(sa_prefixes))
    return series


def uptime_distribution(
    snapshots: list["Snapshot"], provider: ASN, relationships: AnnotatedASGraph
) -> UptimeDistribution:
    """Fig. 7: uptime and SA-uptime of every prefix seen at the provider."""
    distribution = UptimeDistribution(provider=provider, snapshot_count=len(snapshots))
    for _, prefixes, sa_prefixes in _classified(snapshots, provider, relationships):
        for prefix in prefixes:
            distribution.uptime[prefix] = distribution.uptime.get(prefix, 0) + 1
            if prefix in sa_prefixes:
                distribution.sa_uptime[prefix] = distribution.sa_uptime.get(prefix, 0) + 1
    return distribution
