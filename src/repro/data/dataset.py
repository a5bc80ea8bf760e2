"""The flat study dataset (paper Section 3, Table 1) — a view over the stages.

The paper's dataset is: the Oregon RouteViews table (56 peer ASes, AS paths
only), BGP tables from 15 ASes' Looking Glass servers (LOCAL_PREF and
communities visible, 3 of them Tier-1s), and the IRR database.  A
:class:`StudyDataset` is the offline substitute: one synthetic Internet, one
policy assignment, one propagation run observed at the collector's vantage
ASes and at the Looking Glass ASes, plus a synthetic IRR.

The dataset is assembled from the staged :class:`~repro.session.study.Study`
pipeline; this module keeps the flat view.  Build one through the session
API::

    from repro.session import get_scenario
    dataset = get_scenario("standard").study().dataset()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.rpsl import IrrDatabase
from repro.exceptions import SimulationError
from repro.net.asn import ASN
from repro.simulation.collector import CollectorTable, LookingGlass
from repro.simulation.policies import PolicyAssignment
from repro.simulation.propagation import SimulationResult
from repro.topology.generator import SyntheticInternet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.engine import AnalysisEngine
    from repro.session.stages import AnalysisParameters


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
    """The complete dataset every experiment consumes (flat compatibility view).

    Attributes:
        internet: the synthetic Internet (topology, tiers, prefixes).
        assignment: the per-AS policies (with ground truth).
        result: the propagation result observed at vantage + Looking Glass ASes.
        collector: the RouteViews-style collector table.
        looking_glasses: Looking Glass views keyed by AS.
        irr: the synthetic IRR database.
        vantage_ases: ASes peering with the collector.
        looking_glass_ases: ASes with a Looking Glass.
        as_info: Table 1 style metadata per AS in the dataset inventory.
    """

    internet: SyntheticInternet
    assignment: PolicyAssignment
    result: SimulationResult
    collector: CollectorTable
    looking_glasses: dict[ASN, LookingGlass]
    irr: IrrDatabase
    vantage_ases: list[ASN]
    looking_glass_ases: list[ASN]
    as_info: dict[ASN, ASInfo] = field(default_factory=dict)
    #: Analysis-stage knobs the engine is built with (``None`` means the
    #: session defaults); set by the session layer's dataset assembly.
    analysis_parameters: "AnalysisParameters | None" = None
    _analysis_engine: "AnalysisEngine | None" = field(
        default=None, repr=False, init=False
    )

    # -- convenience used across experiments -----------------------------------

    @property
    def tier1_ases(self) -> list[ASN]:
        """The Tier-1 clique of the synthetic Internet."""
        return self.internet.tier1

    @property
    def ground_truth_graph(self):
        """The ground-truth annotated AS graph."""
        return self.internet.graph

    def looking_glass_of(self, asn: ASN) -> LookingGlass:
        """Return the Looking Glass view of an AS.

        Raises:
            SimulationError: if the AS has no Looking Glass in this dataset.
        """
        glass = self.looking_glasses.get(asn)
        if glass is None:
            raise SimulationError(f"AS{asn} has no Looking Glass in this dataset")
        return glass

    def providers_under_study(self, count: int = 3) -> list[ASN]:
        """The largest Tier-1 ASes (by degree), mirroring AS1/AS3549/AS7018."""
        return sorted(
            self.tier1_ases,
            key=lambda asn: self.ground_truth_graph.degree(asn),
            reverse=True,
        )[:count]

    @property
    def analysis(self) -> "AnalysisEngine":
        """The analyzer engine, mirroring ``StageView.analysis`` (ungated)."""
        return self.analysis_engine()

    def analysis_engine(self) -> "AnalysisEngine":
        """The one-pass analyzer engine over this dataset's measurement index.

        Built lazily on first use and memoised on the dataset, so the index
        is compiled once.  The session layer's ``ANALYSIS`` stage routes
        through this memo, so a :class:`~repro.session.study.Study` and a
        bare dataset share the same engine.
        """
        if self._analysis_engine is None:
            from repro.analysis.engine import AnalysisEngine
            from repro.analysis.index import MeasurementIndex

            self._analysis_engine = AnalysisEngine(
                MeasurementIndex.from_dataset(self), self.analysis_parameters
            )
        return self._analysis_engine
