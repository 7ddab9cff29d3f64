"""Population-scale analysis front-end: many task sets per kernel call.

The per-set entry points (``min_speedup``, ``resetting_time``,
``lo_mode_schedulable``, ``exact_preparation_factor``) spend most of
their wall-clock on *dispatch* when task sets are small: every window of
every set pays its own breakpoint generation and kernel call.  This
module is the population driver of the same scans
(:mod:`repro.analysis.scan`): it runs **all sets in lockstep** and
answers each round's pending requests of one kind together — every
window's breakpoints in one
:meth:`~repro.analysis.kernels.CompiledPopulation.breakpoints_many`
call, every demand probe in one
:meth:`~repro.analysis.kernels.CompiledPopulation.eval_many` call per
flavour.  Finished sets drop out of later rounds.

Each set runs the very scan its per-set entry point runs and every
answer is bit-identical by the kernel contract, so
``min_speedup_many(tasksets)[i] == min_speedup(tasksets[i])`` holds
bitwise — candidate counts, budget charges and budget-exhaustion
messages included — and likewise for the other entry points.  Results
carry no perf snapshots (``SpeedupResult.perf`` is ``None``) and the
shared :class:`~repro.analysis.kernels.AnalysisMemo` is bypassed:
population scans always compute.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.analysis.budget import AnalysisBudgetExceeded
from repro.analysis.kernels import (
    PERF,
    CompiledPopulation,
    CompiledTaskSet,
    _lo_supply_holds,
    _peak_probes,
    compile_population,
    compile_taskset,
    compile_tasksets,
)
from repro.analysis.resetting import ResettingResult, _resetting_scan
from repro.analysis.scan import Breakpoints, Demand, LoVerdict, Peak, lockstep
from repro.analysis.schedulability import _lo_mode_scan
from repro.analysis.speedup import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_RTOL,
    SpeedupResult,
    _min_speedup_scan,
)
from repro.analysis.tuning import _x_bisection, density_preparation_factor
from repro.model.task import ModelError
from repro.model.taskset import TaskSet
from repro.obs import trace

Analyzable = Union[TaskSet, CompiledTaskSet]

#: A scan outcome that is either a value or the exception the per-set
#: path would have raised for that set (other sets are unaffected).
SpeedupOutcome = Union[SpeedupResult, AnalysisBudgetExceeded]
ResettingOutcome = Union[ResettingResult, AnalysisBudgetExceeded, ValueError]


def _count_batch(size: int) -> None:
    PERF.population_batches += 1
    PERF.population_sets += size


def _raise_first(outcomes: Sequence[Any]) -> List[Any]:
    """The outcomes, unless one is an exception: then raise the first."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return list(outcomes)


# ---------------------------------------------------------------------------
# The population driver: one round of fused answers
# ---------------------------------------------------------------------------
def _answer_round(
    pop: CompiledPopulation, pending: Dict[int, Any]
) -> Dict[int, Any]:
    """Answer one lockstep round of scan requests with fused calls.

    Breakpoint requests wait until no evaluation is pending, so every set
    advances one window per round.  Evaluations run as routines over
    demand probes (:func:`_probes`), one ``eval_many`` per flavour and
    probe round; peaks and verdicts too large to fuse go to the member's
    own stripe-pruned evaluator.
    """
    evaluations = {
        index: request
        for index, request in pending.items()
        if not isinstance(request, Breakpoints)
    }
    if not evaluations:
        by_kind: Dict[str, List[Tuple[int, float, float]]] = {}
        for index, request in pending.items():
            by_kind.setdefault(request.kind, []).append((index, request.lo, request.hi))
        return {
            item[0]: points
            for kind, items in by_kind.items()
            for item, points in zip(items, pop.breakpoints_many(items, kind=kind))
        }
    answers: Dict[int, Any] = {}
    owners: List[int] = []
    for index, request in evaluations.items():
        if isinstance(request, Demand) or pop.fuses(index, request.candidates.size):
            owners.append(index)
        else:
            answers[index] = request.answer(pop.members[index])
    flavours = [_flavour(evaluations[index]) for index in owners]

    def probe_round(probes: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        by_flavour: Dict[Tuple[str, bool], List[int]] = {}
        for slot in probes:
            by_flavour.setdefault(flavours[slot], []).append(slot)
        demand: Dict[int, np.ndarray] = {}
        for (kind, drop), slots in by_flavour.items():
            items = [(owners[slot], probes[slot]) for slot in slots]
            values = pop.eval_many(kind, items, drop_terminated_carryover=drop)
            demand.update(zip(slots, values))
        return demand

    routines = [_probes(evaluations[index]) for index in owners]
    answers.update(zip(owners, lockstep(routines, probe_round)))
    return answers


def _flavour(request: Union[Demand, Peak, LoVerdict]) -> Tuple[str, bool]:
    """``(kind, drop_terminated_carryover)`` of a request's demand probes."""
    if isinstance(request, Demand):
        return request.kind, request.drop
    return ("dbf" if isinstance(request, Peak) else "lo"), False


def _probes(
    request: Union[Demand, Peak, LoVerdict]
) -> Generator[np.ndarray, np.ndarray, Any]:
    """A fused evaluation as a routine over demand probes: a peak runs the
    stripe-pruning routine, an LO verdict compares every candidate."""
    if isinstance(request, Demand):
        return (yield request.points)
    if isinstance(request, Peak):
        return (yield from _peak_probes(request.candidates, request.best_ratio))
    candidates = request.candidates
    return _lo_supply_holds(
        (yield candidates), candidates, request.speed, request.rtol
    )


# ---------------------------------------------------------------------------
# Lockstep entry points (the pipeline's grouped chunks call these too)
# ---------------------------------------------------------------------------
def _drive(
    members: Sequence[CompiledTaskSet],
    kind: str,
    scans: Sequence[Generator[Any, Any, Any]],
    capture: Tuple[Type[BaseException], ...] = (),
) -> List[Any]:
    pop = compile_population(members)
    pop.prepare_tables(kind)
    return lockstep(scans, partial(_answer_round, pop), capture=capture)


def _min_speedup_lockstep(
    members: Sequence[CompiledTaskSet],
    *,
    rtol: float,
    max_candidates_list: Sequence[int],
    on_budget: str,
) -> List[SpeedupOutcome]:
    """Every member's Theorem-2 scan, advanced one window per round.

    With ``on_budget="raise"`` a budget-exhausted member's outcome is the
    :class:`AnalysisBudgetExceeded` it would have raised — the caller
    decides whether to raise or capture it.
    """
    scans = [
        _min_speedup_scan(m, rtol=rtol, max_candidates=int(b), on_budget=on_budget)
        for m, b in zip(members, max_candidates_list)
    ]
    return _drive(members, "dbf", scans, (AnalysisBudgetExceeded,))


def _lo_schedulable_lockstep(
    members: Sequence[CompiledTaskSet], speeds: Sequence[float]
) -> List[bool]:
    """Every member's LO-mode demand scan, advanced one window per round."""
    scans = [_lo_mode_scan(m, float(speed)) for m, speed in zip(members, speeds)]
    return _drive(members, "lo", scans)


def _resetting_lockstep(
    members: Sequence[CompiledTaskSet],
    speeds: Sequence[float],
    drops: Sequence[bool],
    max_candidates_list: Sequence[int],
) -> List[ResettingOutcome]:
    """Every member's Corollary-5 first-crossing scan, lockstepped.

    A member whose budget is exhausted (or whose speedup is
    non-positive) gets the exception the per-set path would have raised
    as its outcome; other members continue unaffected.
    """
    scans = [
        _resetting_scan(
            m, float(s), drop_terminated_carryover=bool(drop), max_candidates=int(b)
        )
        for m, s, drop, b in zip(members, speeds, drops, max_candidates_list)
    ]
    return _drive(members, "adb", scans, (AnalysisBudgetExceeded, ValueError))


def _exact_x_lockstep(
    tasksets: Sequence[TaskSet], *, tol: float
) -> List[Optional[float]]:
    """Every set's exact-``x`` bisection, one probe per set and round.

    A round's probes (derived snapshots) share one freshly compiled
    population and one lockstep LO-mode scan.
    """
    bases = [compile_taskset(taskset) for taskset in tasksets]

    def probe_round(probes: Dict[int, Optional[float]]) -> Dict[int, bool]:
        members = [
            bases[i] if x is None else bases[i].with_hi_lo_deadline_factor(x)
            for i, x in probes.items()
        ]
        feasible = _lo_schedulable_lockstep(members, [1.0] * len(members))
        return dict(zip(probes, feasible))

    return lockstep([_x_bisection(ts, tol) for ts in tasksets], probe_round)


# ---------------------------------------------------------------------------
# Public population entry points
# ---------------------------------------------------------------------------
def min_speedup_many(
    tasksets: Sequence[Analyzable],
    *,
    rtol: float = DEFAULT_RTOL,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    on_budget: str = "inexact",
) -> List[SpeedupResult]:
    """Theorem 2's minimum speedup for every task set, one fused scan.

    Bit-identical, set by set, to calling
    :func:`repro.analysis.speedup.min_speedup` with the same parameters
    (compiled or scalar engine — they agree), but the whole population
    shares each round's breakpoint generation and demand kernel calls.
    With ``on_budget="raise"`` the first (by input order) budget-exceeded
    set raises; other sets' work is discarded.
    """
    if on_budget not in ("inexact", "raise"):
        raise ValueError(
            f"on_budget must be 'inexact' or 'raise', got {on_budget!r}"
        )
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    _count_batch(len(members))
    with trace.span("population.min_speedup", sets=len(members)):
        outcomes = _min_speedup_lockstep(
            members,
            rtol=rtol,
            max_candidates_list=[max_candidates] * len(members),
            on_budget=on_budget,
        )
    return _raise_first(outcomes)


def lo_mode_schedulable_many(
    tasksets: Sequence[Analyzable], speed: float = 1.0
) -> List[bool]:
    """LO-mode EDF feasibility for every task set, one fused scan.

    Bit-identical, set by set, to
    :func:`repro.analysis.schedulability.lo_mode_schedulable` at the same
    ``speed``.
    """
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    _count_batch(len(members))
    with trace.span("population.lo_mode", sets=len(members)):
        return _lo_schedulable_lockstep(members, [speed] * len(members))


def resetting_many(
    tasksets: Sequence[Analyzable],
    speedup: float,
    *,
    drop_terminated_carryover: bool = False,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> List[ResettingResult]:
    """Corollary 5's resetting time for every task set, one fused scan.

    Bit-identical, set by set, to
    :func:`repro.analysis.resetting.resetting_time` at speedup
    ``speedup``; the first (by input order) set whose candidate budget
    is exhausted raises its
    :class:`~repro.analysis.budget.AnalysisBudgetExceeded`.
    """
    if not tasksets:
        return []
    members = compile_tasksets(tasksets)
    _count_batch(len(members))
    with trace.span("population.resetting", sets=len(members)):
        outcomes = _resetting_lockstep(
            members,
            [speedup] * len(members),
            [drop_terminated_carryover] * len(members),
            [max_candidates] * len(members),
        )
    return _raise_first(outcomes)


def min_preparation_factor_many(
    tasksets: Sequence[TaskSet],
    *,
    method: str = "density",
    tol: float = 1e-4,
) -> List[Optional[float]]:
    """Minimal feasible preparation factor ``x`` for every task set.

    ``"density"`` is closed-form (no batching needed); ``"exact"`` runs
    all bisections in lockstep, one fused LO-mode scan per probe level.
    Both return, set by set, exactly what
    :func:`repro.analysis.tuning.min_preparation_factor` returns.
    """
    if method == "density":
        return [density_preparation_factor(taskset) for taskset in tasksets]
    if method != "exact":
        raise ModelError(f"unknown method: {method!r}")
    if not tasksets:
        return []
    _count_batch(len(tasksets))
    with trace.span("population.exact_x", sets=len(tasksets)):
        return _exact_x_lockstep(tasksets, tol=tol)
