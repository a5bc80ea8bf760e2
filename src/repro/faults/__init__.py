"""Deterministic fault injection and the chaos harness (``repro chaos``).

The package has three parts:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultRule`, a
  seeded, serializable schedule of worker kills, write errors, artifact
  corruption and latency, with pure-hash firing decisions and marker-file
  firing bounds so the schedule is identical across processes and runs.
* :mod:`repro.faults.runtime` — process-local activation (explicit or via
  the ``REPRO_FAULT_PLAN`` environment variable, so plans cross
  process-pool boundaries) and the injection hooks compiled into
  :class:`repro.storage.store.DiskStore` and the sweep worker boundary.
* :mod:`repro.faults.chaos` — ``python -m repro chaos``: runs a sweep
  under a seeded plan and asserts the robustness invariants (the sweep
  terminates, resume completes the case list, timing-masked reports stay
  byte-identical to a fault-free baseline, write failures degrade the
  disk tier instead of failing the run).
"""

from repro.faults.plan import (
    CORRUPT_MODES,
    SITES,
    WRITE_ERRNOS,
    FaultInjected,
    FaultPlan,
    FaultPlanError,
    FaultRule,
)
from repro.faults.runtime import (
    KILL_EXIT_CODE,
    PLAN_ENV,
    activate,
    active_plan,
    corrupt_artifact,
    fault_point,
    mark_worker,
    reset,
)

__all__ = [
    "CORRUPT_MODES",
    "KILL_EXIT_CODE",
    "PLAN_ENV",
    "SITES",
    "WRITE_ERRNOS",
    "FaultInjected",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "activate",
    "active_plan",
    "corrupt_artifact",
    "fault_point",
    "mark_worker",
    "reset",
]
