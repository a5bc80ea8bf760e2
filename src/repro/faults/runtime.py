"""Process-local fault-plan activation and the injection hooks.

The storage and sweep layers call :func:`fault_point` /
:func:`corrupt_artifact` at their injection sites.  With no plan active
(the production default) both are a single ``None`` check — no I/O, no
hashing, no overhead.

A plan activates one of two ways:

* explicitly, via :func:`activate` (the sweep orchestrator and the chaos
  harness do this, and also export the plan through :data:`PLAN_ENV` so
  process-pool workers — forked *or* spawned — pick it up), or
* lazily from the environment: the first injection-site call in a process
  reads :data:`PLAN_ENV` (inline JSON or a file path).

Worker processes are marked via :func:`mark_worker` (installed as the
process-pool initializer), which switches ``worker-kill`` firings from a
raised :class:`~repro.faults.plan.FaultInjected` to a hard ``os._exit`` —
a real abrupt death the parent sees as ``BrokenProcessPool``.
"""

from __future__ import annotations

import errno
import os
import sys
import time

from repro.faults.plan import FaultInjected, FaultPlan, FaultPlanError

#: Environment variable carrying the active plan (inline JSON or a path).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit status of a worker killed by an injected ``worker-kill`` fault.
KILL_EXIT_CODE = 76

# Process-local activation state.  Workers forked from an activated parent
# inherit it; spawned workers re-load lazily from PLAN_ENV.
_PLAN: FaultPlan | None = None
_LOADED = False
_IN_WORKER = False


def activate(plan: FaultPlan | None, *, export: bool = True) -> None:
    """Make ``plan`` the process's active fault plan.

    Args:
        plan: the plan, or ``None`` to deactivate.
        export: also publish the plan into :data:`PLAN_ENV` (or remove it),
            so child processes — including spawned ones — inherit it.
    """
    global _PLAN, _LOADED
    _PLAN = plan
    _LOADED = True
    if export:
        if plan is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = plan.to_json()


def reset() -> None:
    """Forget the process-local state; the next call re-reads the env.

    Used by the sweep orchestrator after a plan-scoped run (and by tests)
    so a restored ``REPRO_FAULT_PLAN`` environment value takes effect
    again through the lazy loader.
    """
    global _PLAN, _LOADED, _IN_WORKER
    _PLAN = None
    _LOADED = False
    _IN_WORKER = False


def active_plan() -> FaultPlan | None:
    """The process's active plan, lazily loaded from :data:`PLAN_ENV`."""
    global _PLAN, _LOADED
    if not _LOADED:
        _LOADED = True
        raw = os.environ.get(PLAN_ENV)
        if raw:
            try:
                _PLAN = FaultPlan.load(raw)
            except FaultPlanError as error:
                # A malformed env plan must not wedge every store call; warn
                # once and run fault-free.
                print(f"warning: ignoring {PLAN_ENV}: {error}", file=sys.stderr)
                _PLAN = None
    return _PLAN


def mark_worker() -> None:
    """Mark this process as a pool worker (``worker-kill`` exits hard).

    Installed as the sweep pool's ``initializer``; also primes the plan
    from the environment so the first case does not pay the lazy load.
    """
    global _IN_WORKER
    _IN_WORKER = True
    active_plan()


def fault_point(site: str, identity: str) -> None:
    """Injection site: raise/sleep/die when the active plan says so.

    Args:
        site: the site name (see :data:`repro.faults.plan.SITES`).
        identity: the operation's stable identity.

    Raises:
        OSError: for a firing ``store-write`` rule (``ENOSPC``/``EIO``).
        FaultInjected: for a firing ``worker-kill`` rule outside a pool
            worker (inside one, the process exits with
            :data:`KILL_EXIT_CODE` instead).
    """
    plan = _PLAN if _LOADED else active_plan()
    if plan is None:
        return
    rule = plan.fires(site, identity)
    if rule is None:
        return
    if site == "latency":
        time.sleep(float(rule.param or 0.0))
    elif site == "store-write":
        code = getattr(errno, str(rule.param), errno.EIO)
        raise OSError(code, f"injected {rule.param} (fault plan seed {plan.seed})")
    elif site == "worker-kill":
        if _IN_WORKER:
            os._exit(KILL_EXIT_CODE)
        raise FaultInjected(f"injected worker kill (fault plan seed {plan.seed})")


def corrupt_artifact(path: os.PathLike | str, identity: str) -> None:
    """Injection site: damage a just-written artifact file in place.

    Applies the firing ``store-corrupt`` rule's mode: ``flip`` (xor one
    mid-file byte), ``truncate`` (drop the second half) or ``zero``
    (truncate to an empty file).  Corruption is injected *after* the
    atomic write completes, modelling storage that acknowledged a write
    and then rotted.
    """
    plan = _PLAN if _LOADED else active_plan()
    if plan is None:
        return
    rule = plan.fires("store-corrupt", identity)
    if rule is None:
        return
    try:
        data = bytearray(open(path, "rb").read())
        if rule.param == "zero" or not data:
            open(path, "wb").close()
        elif rule.param == "truncate":
            with open(path, "wb") as handle:
                handle.write(bytes(data[: len(data) // 2]))
        else:  # flip
            data[len(data) // 2] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(data))
    except OSError:
        return  # the artifact vanished under us; nothing left to corrupt
