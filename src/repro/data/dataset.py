"""The flat study dataset (paper Section 3, Table 1), assembled from the stages.

The paper's dataset is: the Oregon RouteViews table (56 peer ASes, AS paths
only), BGP tables from 15 ASes' Looking Glass servers (LOCAL_PREF and
communities visible, 3 of them Tier-1s), and the IRR database.  A
:class:`StudyDataset` is the offline substitute: one synthetic Internet, one
policy assignment, one propagation run observed at the collector's vantage
ASes and at the Looking Glass ASes, plus a synthetic IRR.

The dataset is assembled from the staged :class:`~repro.session.study.Study`
pipeline.  No stage and no experiment reads it: experiments read the
study's stages through a :class:`~repro.session.stages.StageView`, and the
analysis stage builds its measurement index from the stages.  The
:mod:`repro.core` oracles, ``repro fuzz``, the archive export and the
examples read it.  Build one through the session API::

    from repro.session import get_scenario
    dataset = get_scenario("standard").study().dataset()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.rpsl import IrrDatabase
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.simulation.collector import CollectorTable, LookingGlass, RouteViewsCollector
from repro.simulation.policies import PolicyAssignment
from repro.simulation.propagation import SimulationResult
from repro.topology.generator import SyntheticInternet

@dataclass
class ASInfo:
    """Table 1 style metadata about one AS in the dataset."""

    asn: ASN
    name: str
    degree: int
    location: str
    tier: int
    is_looking_glass: bool = False
    is_vantage: bool = False


@dataclass(eq=False)  # identity semantics: hashable + usable as a weak cache key
class StudyDataset:
    """The flat study dataset: every stage artifact in one object.

    Attributes:
        internet: the synthetic Internet (topology, tiers, prefixes).
        assignment: the per-AS policies (the ground truth itself).
        result: the propagation result observed at vantage + Looking Glass ASes.
        looking_glasses: Looking Glass views keyed by AS.
        irr: the synthetic IRR database.
        vantage_ases: ASes peering with the collector.
        looking_glass_ases: ASes with a Looking Glass.
        as_info: Table 1 style metadata per AS in the dataset inventory.
    """

    internet: SyntheticInternet
    assignment: PolicyAssignment
    result: SimulationResult
    looking_glasses: dict[ASN, LookingGlass]
    irr: IrrDatabase
    vantage_ases: list[ASN]
    looking_glass_ases: list[ASN]
    as_info: dict[ASN, ASInfo] = field(default_factory=dict)
    _collector: CollectorTable | None = field(default=None, repr=False, init=False)

    # -- convenience used by the oracles and the examples ---------------------

    @property
    def tier1_ases(self) -> list[ASN]:
        """The Tier-1 clique of the synthetic Internet."""
        return self.internet.tier1

    @property
    def ground_truth_graph(self):
        """The ground-truth annotated AS graph."""
        return self.internet.graph

    @property
    def collector(self) -> CollectorTable:
        """The RouteViews-style collector table, built on first access.

        Production analysis reads the collector rows from the RIB through
        the measurement index and never builds this table; it is the object
        form the :mod:`repro.core` oracles and the examples read.
        """
        if self._collector is None:
            self._collector = RouteViewsCollector(self.vantage_ases).collect(self.result)
        return self._collector

    def looking_glass_of(self, asn: ASN) -> LookingGlass:
        """Return the Looking Glass view of an AS.

        Raises:
            SimulationError: if the AS has no Looking Glass in this dataset.
        """
        glass = self.looking_glasses.get(asn)
        if glass is None:
            raise SimulationError(f"AS{asn} has no Looking Glass in this dataset")
        return glass
