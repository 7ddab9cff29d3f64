"""Choosing the overrun-preparation factor ``x``.

Section VI fixes "x ... to the minimum to guarantee LO mode
schedulability": shrinking HI tasks' LO-mode deadlines as much as LO-mode
feasibility allows minimizes the HI-mode load carried over at a switch
and hence the required speedup (Lemma 6 is monotone in ``x``).

Two methods are provided:

* ``"density"`` — the classical EDF density argument for implicit
  deadlines: LO mode is feasible if
  ``sum_LO U_i(LO) + sum_HI U_i(LO) / x <= 1``, i.e.

      x_density = sum_HI U_i(LO) / (1 - sum_LO U_i(LO)).

  Sufficient, closed-form, and the convention of the EDF-VD literature.
* ``"exact"`` — bisection on ``x`` against the exact LO-mode demand
  test (:func:`repro.analysis.schedulability.lo_mode_schedulable`);
  returns a (slightly conservative) minimal feasible ``x``.  The
  bisection is one generator of feasibility probes (:func:`_x_bisection`),
  also run in lockstep by :mod:`repro.analysis.population`.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.analysis.kernels import MEMO, compile_taskset
from repro.analysis.scan import drive
from repro.analysis.schedulability import lo_mode_schedulable
from repro.model.task import Criticality, ModelError
from repro.model.taskset import TaskSet
from repro.model.transform import shorten_hi_deadlines
from repro.obs import trace


def density_preparation_factor(taskset: TaskSet) -> Optional[float]:
    """Closed-form minimal ``x`` by the density test (``None`` if infeasible).

    Requires ``sum_LO U_i(LO) < 1``; returns a value clamped into the model
    domain (each HI task still needs ``C(LO) <= x * D(HI)``).
    """
    u_lo_of_lo = taskset.utilization(Criticality.LO, Criticality.LO)
    u_lo_of_hi = taskset.utilization(Criticality.LO, Criticality.HI)
    if u_lo_of_lo + u_lo_of_hi > 1.0 + 1e-12:
        return None
    if not taskset.hi_tasks:
        return 1.0
    headroom = 1.0 - u_lo_of_lo
    if headroom <= 0.0:
        return None
    x = u_lo_of_hi / headroom
    x = max(x, structural_floor(taskset))
    if x > 1.0 + 1e-12:
        return None
    return min(x, 1.0)


def structural_floor(taskset: TaskSet) -> float:
    """Smallest ``x`` the task model itself allows: ``C(LO) <= x * D(HI)``."""
    floors = [t.c_lo / t.d_hi for t in taskset.hi_tasks]
    return max(floors) if floors else 0.0


def _x_bisection(
    taskset: TaskSet, tol: float
) -> Generator[Optional[float], bool, Optional[float]]:
    """Section VI's bisection for the minimal feasible ``x``: yields each
    ``x`` to probe (``None``: the set as given, the only probe a set
    without HI tasks needs) and receives whether LO mode is feasible."""
    if not taskset.hi_tasks:
        return 1.0 if (yield None) else None
    hi = 1.0
    if not (yield hi):
        return None
    lo = max(structural_floor(taskset), 1e-9)
    if (yield lo):
        return lo
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if (yield mid):
            hi = mid
        else:
            lo = mid
    return hi


def exact_preparation_factor(
    taskset: TaskSet, *, tol: float = 1e-4, engine: str = "compiled"
) -> Optional[float]:
    """Minimal ``x`` under the exact LO-mode demand test, via bisection.

    LO-mode feasibility is monotone non-decreasing in ``x`` (longer LO
    deadlines only reduce the demand in every interval), so bisection on
    ``(floor, 1]`` is sound.  Returns ``None`` when even ``x = 1`` fails.
    On the compiled engine each probe rescales one column of a shared
    :class:`~repro.analysis.kernels.CompiledTaskSet` instead of
    rebuilding (and re-validating) a task set.
    """
    if engine == "compiled":
        base = compile_taskset(taskset)

        def feasible(x: Optional[float]) -> bool:
            return lo_mode_schedulable(base if x is None else base.with_hi_lo_deadline_factor(x))

    else:

        def feasible(x: Optional[float]) -> bool:
            probe = taskset if x is None else shorten_hi_deadlines(taskset, x)
            return lo_mode_schedulable(probe, engine=engine)

    if not taskset.hi_tasks:
        return drive(_x_bisection(taskset, tol), feasible)

    memo_key = None
    if engine == "compiled":
        # The whole bisection is deterministic in (content, tol): sweeps
        # that re-tune the same base set (shrink ladders, sensitivity
        # grids) skip the repeated probe sequence entirely.
        memo_key = ("exact_x", base.memo_token, tol)
        cached = MEMO.lookup(memo_key)
        if cached is not None:
            return cached

    result: Optional[float]
    with trace.span("tuning.bisect", engine=engine, n_tasks=len(taskset)) as sp:

        def probed(x: Optional[float]) -> bool:
            sp.add("probes")
            return feasible(x)

        result = drive(_x_bisection(taskset, tol), probed)
    if memo_key is not None:
        MEMO.store(memo_key, result)
    return result


def min_preparation_factor(
    taskset: TaskSet,
    *,
    method: str = "density",
    tol: float = 1e-4,
    engine: str = "compiled",
) -> Optional[float]:
    """Minimal feasible overrun-preparation factor ``x``.

    Parameters
    ----------
    taskset:
        Base task set (HI tasks with ``D(LO) = D(HI)``; the factor is what
        :func:`repro.model.transform.shorten_hi_deadlines` will apply).
    method:
        ``"density"`` (closed form, Section-VI convention) or ``"exact"``
        (bisection against the demand-bound test).
    tol:
        Relative bisection tolerance for the exact method.
    engine:
        Demand-evaluation engine for the exact method (``"compiled"`` or
        ``"scalar"``, see :mod:`repro.analysis.kernels`); the density
        method is closed-form and ignores it.

    Returns ``None`` when LO mode is infeasible for every ``x <= 1``.
    """
    if method == "density":
        return density_preparation_factor(taskset)
    if method == "exact":
        return exact_preparation_factor(taskset, tol=tol, engine=engine)
    raise ModelError(f"unknown method: {method!r}")
