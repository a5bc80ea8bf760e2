"""The fast propagation core: compiled topology + interned flat-graph engine.

The legacy :class:`~repro.simulation.propagation.PropagationEngine` resolves
policies, relationships and export rules per message, reallocating a
:class:`~repro.bgp.route.Route` dataclass per edge.  This subpackage splits
that work into two phases:

* :mod:`repro.simulation.fastpath.compile` — compile the annotated AS graph
  plus the policy assignment into a :class:`CompiledTopology` of dense
  integer AS ids, flat CSR-style adjacency arrays, per-edge import decisions
  (LOCAL_PREF, community tag) and pre-sorted per-relationship export target
  tuples.
* :mod:`repro.simulation.fastpath.engine` — the
  :class:`FastPropagationEngine`, which replays the exact message schedule of
  the legacy engine over the compiled arrays with interned AS paths and
  community sets and an O(1) challenge-the-incumbent best-route update, one
  prefix after another in the calling process.

The fast engine is a drop-in replacement: for the same inputs it produces a
:class:`~repro.simulation.propagation.SimulationResult` with identical
observed tables, message counts and truncated prefixes (asserted by
``tests/simulation/test_fastpath_equivalence.py`` across every registered
scenario).
"""

from repro.simulation.fastpath.compile import CompiledTopology, compile_topology
from repro.simulation.fastpath.engine import FastPropagationEngine

__all__ = [
    "CompiledTopology",
    "FastPropagationEngine",
    "compile_topology",
]
