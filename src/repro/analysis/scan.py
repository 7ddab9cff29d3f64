"""One scan per analysis, two drivers.

The Theorem-2, Corollary-5, LO-mode and exact-``x`` scans are each one
generator over one member.  A scan does its own scalar work (window
growth, envelope cut-offs, crossing solves) and yields its demand work
as requests — :class:`Breakpoints`, :class:`Demand`, :class:`Peak`,
:class:`LoVerdict` (the ``x`` bisection yields feasibility probes) —
receiving each answer back.  :func:`run_scan` answers from the member's
own evaluator (``engine="compiled"`` or ``"scalar"``); :func:`lockstep`
runs many routines together and lets :mod:`repro.analysis.population`
answer each round with fused kernel calls.  Answers are bit-identical
either way, and so are the results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, NamedTuple
from typing import Sequence, Tuple, Type, TypeVar, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - kernels imports this module
    from repro.analysis.kernels import ArrayLike, Evaluator

T = TypeVar("T")


def total_demand(
    ev: "Evaluator", kind: str, delta: "ArrayLike", drop: bool = False
) -> "ArrayLike":
    """DBF_LO (``"lo"``), DBF_HI (``"dbf"``) or ADB_HI (``"adb"``) at ``delta``."""
    if kind == "lo":
        return ev.total_dbf_lo(delta)
    if kind == "dbf":
        return ev.total_dbf_hi(delta)
    return ev.total_adb_hi(delta, drop_terminated_carryover=drop)


class Breakpoints(NamedTuple):
    """The breakpoints of ``kind`` in ``(lo, hi]``."""

    kind: str
    lo: float
    hi: float

    def answer(self, ev: "Evaluator") -> np.ndarray:
        return ev.breakpoints_in(self.lo, self.hi, kind=self.kind)


class Demand(NamedTuple):
    """Demand of ``kind`` at ``points`` (see :func:`total_demand`)."""

    kind: str
    points: np.ndarray
    drop: bool = False

    def answer(self, ev: "Evaluator") -> np.ndarray:
        demand = total_demand(ev, self.kind, self.points, self.drop)
        return np.asarray(demand, dtype=float)


class Peak(NamedTuple):
    """``(ratio, delta)`` of the first DBF_HI/Delta peak on ``candidates``."""

    candidates: np.ndarray
    best_ratio: float

    def answer(self, ev: "Evaluator") -> Tuple[float, float]:
        return ev.window_peak(self.candidates, self.best_ratio)


class LoVerdict(NamedTuple):
    """Does DBF_LO stay under ``speed * Delta`` on ``candidates``?"""

    candidates: np.ndarray
    speed: float
    rtol: float

    def answer(self, ev: "Evaluator") -> bool:
        return ev.lo_demand_ok(self.candidates, self.speed, self.rtol)


Request = Union[Breakpoints, Demand, Peak, LoVerdict]

#: A scan: yields requests, receives their answers, returns its result.
Scan = Generator[Request, Any, T]


def drive(routine: Generator[Any, Any, T], answer: Callable[[Any], Any]) -> T:
    """Run one routine to completion, answering each request in turn."""
    value: Any = None
    while True:
        try:
            request = routine.send(value)
        except StopIteration as stop:
            result: T = stop.value
            return result
        value = answer(request)


def run_scan(scan: "Scan[T]", ev: "Evaluator") -> T:
    """The per-set driver: answer every request from ``ev`` itself."""
    return drive(scan, lambda request: request.answer(ev))


def lockstep(
    routines: Sequence[Generator[Any, Any, Any]],
    answer: Callable[[Dict[int, Any]], Dict[int, Any]],
    *,
    capture: Tuple[Type[BaseException], ...] = (),
) -> List[Any]:
    """Run many routines together; returns their results in input order.

    Each round hands ``answer`` the pending requests by routine index, in
    index order; it answers at least one and the rest wait.  A routine
    raising one of ``capture`` ends with that exception as its result.
    """
    results: List[Any] = [None] * len(routines)
    pending: Dict[int, Any] = {}

    def advance(index: int, value: Any) -> None:
        # Re-assigning a present key keeps its place: index order holds.
        try:
            pending[index] = routines[index].send(value)
        except StopIteration as stop:
            pending.pop(index, None)
            results[index] = stop.value
        except capture as error:
            pending.pop(index, None)
            results[index] = error

    for index in range(len(routines)):
        advance(index, None)
    while pending:
        for index, value in answer(pending).items():
            advance(index, value)
    return results
