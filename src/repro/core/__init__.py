"""The paper's contribution: inference and characterization of routing policies.

Each module maps onto a section of the paper:

* :mod:`repro.core.import_policy` — Section 4.1: typical vs. atypical
  LOCAL_PREF assignment, from Looking Glass tables (Table 2) and from the
  IRR (Table 3).
* :mod:`repro.core.consistency` — Section 4.2: how consistently LOCAL_PREF
  is keyed on the next-hop AS (Fig. 2).
* :mod:`repro.core.export_policy` — Section 5.1.1–5.1.2: the SA-prefix
  inference algorithm (Fig. 4) and its prevalence (Tables 5 and 6).
* :mod:`repro.core.verification` — Sections 4.3 and 5.1.3: verifying
  inferred relationships and SA prefixes (Tables 4 and 7).
* :mod:`repro.core.causes` — Section 5.1.5: multihoming, prefix splitting,
  prefix aggregation and selective announcing (Tables 8 and 9, Case 3).
* :mod:`repro.core.peer_export` — Section 5.2: export policies toward peers
  (Table 10).
* :mod:`repro.core.community` — Appendix: community-semantics inference and
  community-based relationship verification (Fig. 9, Table 11).
* :mod:`repro.core.atoms` — the policy-atom extension discussed at the end
  of Section 5.1.5 (reference [21]).
"""

from repro.core.import_policy import (
    ImportPolicyAnalyzer,
    IrrTypicalityResult,
    TypicalityResult,
)
from repro.core.consistency import ConsistencyAnalyzer, ConsistencyResult
from repro.core.export_policy import ExportPolicyAnalyzer, SAPrefixReport
from repro.core.verification import SAVerificationResult, Verifier
from repro.core.causes import CauseAnalyzer, CauseBreakdown, HomingBreakdown
from repro.core.peer_export import PeerExportAnalyzer, PeerExportReport
from repro.core.community import CommunityAnalyzer, CommunitySemantics
from repro.core.atoms import PolicyAtom, PolicyAtomAnalyzer

__all__ = [
    "CauseAnalyzer",
    "CauseBreakdown",
    "CommunityAnalyzer",
    "CommunitySemantics",
    "ConsistencyAnalyzer",
    "ConsistencyResult",
    "ExportPolicyAnalyzer",
    "HomingBreakdown",
    "ImportPolicyAnalyzer",
    "IrrTypicalityResult",
    "PeerExportAnalyzer",
    "PeerExportReport",
    "PolicyAtom",
    "PolicyAtomAnalyzer",
    "SAPrefixReport",
    "SAVerificationResult",
    "TypicalityResult",
    "Verifier",
]
