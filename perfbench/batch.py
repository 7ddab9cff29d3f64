"""The in-process workloads: ``fig7-accept`` and ``fig6-population``.

Both run rounds of freshly generated task sets through
``api.analyze_many(jobs=1)`` in this process, with every cache cleared
before each round.  Only the ``analyze_many`` calls are timed, in CPU
time of this process (``time.process_time``): the analysis runs in one
thread, so on an idle processor CPU time and wall time agree, and CPU
time leaves out the stretches in which other processes on a shared host
hold the processor.

Per-set latency is observed through the public ``progress`` callback:
on the per-set path (``fig7-accept``) a set's latency is the time since
the previous set settled; on the population path (``fig6-population``)
a grouped chunk settles all its sets at once, so each set's latency is
its chunk's time.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common
from tracing import LayerTotals, Tracer

#: Settle events less than this apart belong to one grouped chunk.
_CHUNK_GAP_S = 1e-3

#: Rounds replayed by a traced run (fixed, so its counts are exact).
TRACE_ROUNDS = {"fig7-accept": 2, "fig6-population": 2}

#: Sets drawn for the Fig.-6 scalar-oracle check in each round.
ORACLE_SAMPLE = 2

#: Round index of the warm-up sets, which no timed round reaches.
WARM_ROUND = 1 << 30


class Workload:
    def __init__(self, name: str) -> None:
        self.name = name
        self.population = name == "fig6-population"

    def tasksets(self, seed: int, k: int) -> List[Any]:
        if self.population:
            return common.fig6_sets(seed, k)
        return common.fig7_round(seed, k)

    def request(self, taskset):
        if self.population:
            return common.fig6_request(taskset)
        return common.fig7_request(taskset)

    def check(self, seed: int, k: int, requests, reports) -> Tuple[int, int]:
        """(failed analyses, output mismatches) of one round."""
        failed = sum(1 for report in reports if report.failure is not None)
        if self.population:
            return failed, _check_fig6(seed, k, requests, reports)
        return failed, _check_fig7(requests, reports)


def _check_fig7(requests, reports) -> int:
    """Every ``hi_ok`` verdict equals the decision test at s = 2."""
    from repro.analysis.speedup import speedup_schedulable
    from repro.model.transform import apply_uniform_scaling

    mismatches = 0
    for request, report in zip(requests, reports):
        if report.failure is not None or report.hi_ok is None:
            continue
        configured = apply_uniform_scaling(
            request.taskset, report.x_applied, report.y_applied
        )
        if bool(report.hi_ok) != bool(speedup_schedulable(configured, 2.0)):
            mismatches += 1
    return mismatches


def _check_fig6(seed: int, k: int, requests, reports) -> int:
    """Scalar-oracle parity on a seeded sample; Lemma 6/7 bounds >= exact."""
    import dataclasses

    import numpy as np
    from repro import api

    mismatches = 0
    rng = np.random.default_rng([seed, k, 7])
    for index in rng.choice(len(requests), size=ORACLE_SAMPLE, replace=False):
        oracle = api.evaluate_request(
            dataclasses.replace(requests[int(index)], engine="scalar")
        )
        if oracle.to_dict() != reports[int(index)].to_dict():
            mismatches += 1
    for request, report in zip(requests, reports):
        if (
            report.failure is not None
            or not report.lo_ok
            or report.speedup is None
            or not request.taskset.hi_tasks  # Lemma 6 needs 0 < x < 1
        ):
            continue
        bounds = api.closed_form_bounds(
            request.taskset, report.x_applied, report.y_applied, request.speedup
        )
        if not bounds.applicable:
            continue
        if report.speedup.exact and bounds.s_min_bound < report.s_min * (1 - 1e-9):
            mismatches += 1
        elif (
            report.resetting_result is not None
            and bounds.delta_r_bound is not None
            and math.isfinite(report.delta_r)
            and bounds.delta_r_bound < report.delta_r * (1 - 1e-9)
        ):
            mismatches += 1
    return mismatches


def _latencies(t0: float, events: Sequence[float], grouped: bool) -> List[float]:
    """Per-set latency (ms) from the settle times of one ``analyze_many`` call."""
    out: List[float] = []
    previous = t0
    unit: List[float] = []
    for t in events:
        if grouped and unit and t - unit[-1] < _CHUNK_GAP_S:
            unit.append(t)
            continue
        if unit:
            out.extend([1e3 * (unit[-1] - previous)] * len(unit))
            previous = unit[-1]
        unit = [t]
    if unit:
        out.extend([1e3 * (unit[-1] - previous)] * len(unit))
    return out


def _analyze(workload: Workload, requests) -> Tuple[float, List[float], List[Any]]:
    """One ``analyze_many`` call: (CPU seconds, per-set latencies in ms, reports)."""
    from repro import api

    events: List[float] = []

    def progress(done: int, total: int) -> None:
        events.append(time.process_time())

    t0 = time.process_time()
    reports = api.analyze_many(
        requests, jobs=1, population=workload.population, progress=progress
    )
    elapsed = time.process_time() - t0
    return elapsed, _latencies(t0, events, workload.population), reports


def _warm_up(workload: Workload, seed: int) -> None:
    """Finish imports and lazy set-up on sets that no round uses."""
    warm = workload.tasksets(seed, WARM_ROUND)[:4]
    _analyze(workload, [workload.request(ts) for ts in warm])


def run_measured(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: rounds until ``seconds`` of analysis were timed."""
    workload = Workload(name)
    setup_s = common.median_setup_s(lambda: common.cold_start_in_process(name, seed))
    # Warm the interpreter (imports, first compile) on a set no round uses.
    _warm_up(workload, seed)

    measured, sets, failed, mismatches = 0.0, 0, 0, 0
    rates: List[float] = []
    latencies: List[float] = []
    while measured < seconds:
        tasksets = workload.tasksets(seed, len(rates))
        requests = [workload.request(ts) for ts in tasksets]
        common.reset_caches(tasksets)
        elapsed, lat, reports = _analyze(workload, requests)
        measured += elapsed
        sets += len(requests)
        rates.append(len(requests) / elapsed)
        latencies.extend(lat)
        # Checked now and dropped, so the live heap (and with it the
        # garbage collector's work in later rounds) does not grow.
        f, m = workload.check(seed, len(rates) - 1, requests, reports)
        failed += f
        mismatches += m
    rss = common.peak_rss_mb()
    # Throughput is a median over rounds: CPU speed on a shared host
    # wanders within seconds, and a median keeps one slow stretch from
    # setting a run's figure.  Latency pools every set of the run, so it
    # does not jump with one round's share of budget-bound scans.
    return {
        "metrics": {
            "setup_s": setup_s,
            "sets_per_s": common.median(rates),
            "latency_ms_p50": common.median(latencies),
            "peak_rss_mb": rss,
        },
        "attempted": sets,
        "failed": failed + mismatches,
        "correct": mismatches == 0,
        "notes": f"{len(rates)} rounds, {sets} sets, {measured:.1f} CPU s timed",
    }


def run_traced(name: str, seed: int) -> Dict[str, Any]:
    """The traced run: a fixed number of rounds, untraced, traced, untraced."""
    workload = Workload(name)
    rounds = TRACE_ROUNDS[name]
    _warm_up(workload, seed)
    t0 = time.perf_counter()
    inputs = [workload.tasksets(seed, k) for k in range(rounds)]
    gen_s = time.perf_counter() - t0
    generated = sum(len(tasksets) for tasksets in inputs)

    def one_pass(tracer: Optional[Tracer] = None):
        total, rounds_out, latencies = 0.0, [], []
        before = common.perf_snapshot()
        for k, tasksets in enumerate(inputs):
            common.reset_caches(tasksets)
            # Fresh requests each pass: a request caches its key.
            requests = [workload.request(ts) for ts in tasksets]
            t0 = time.perf_counter()
            if tracer is None:
                _elapsed, lat, reports = _analyze(workload, requests)
            else:
                tracer.rid = k
                with tracer.span("round"):
                    _elapsed, lat, reports = _analyze(workload, requests)
            total += time.perf_counter() - t0
            rounds_out.append((requests, reports))
            latencies.extend(lat)
        return total, rounds_out, latencies, common.perf_delta(before)

    untraced_s, _, latencies, _ = one_pass()
    tracer = Tracer()
    tracer.patch()
    try:
        traced_s, rounds_out, _, perf = one_pass(tracer)
    finally:
        tracer.unpatch()
    # Untraced again after the traced pass: the host's speed drifts by
    # more than the tracing costs, and the mean of the passes before and
    # after cancels a steady drift.
    untraced_s = (untraced_s + one_pass()[0]) / 2

    failed = mismatches = 0
    reports_flat = []
    for k, (requests, reports) in enumerate(rounds_out):
        f, m = workload.check(seed, k, requests, reports)
        failed += f
        mismatches += m
        reports_flat.extend(reports)

    # The "round" spans are the benchmark's own: their self time is the
    # wall time that no layer span covers.
    layer_spans = LayerTotals(tracer.spans)
    metrics = {
        "generator.ms_per_set": 1e3 * gen_s / generated,
        **common.span_layer_metrics(layer_spans),
        **common.kernel_layer_metrics(perf),
        **common.report_metrics(reports_flat),
        **{metric: 0.0 for metric in common.SERVICE_ONLY},
        # No arrival process in a batch: the highest rate one analysing
        # process keeps pace with is its completion rate.
        "max_rps": generated / untraced_s,
        "latency_ms_p90": common.percentile(latencies, 90.0),
        "latency_ms_p99": common.percentile(latencies, 99.0),
        "unattributed_ms": layer_spans.self_ms("round"),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "fail_frac": common.ratio(failed + mismatches, len(reports_flat)),
    }
    return {
        "metrics": metrics,
        "attempted": len(reports_flat),
        "failed": failed + mismatches,
        "correct": mismatches == 0,
        "notes": (
            f"{rounds} rounds, {len(reports_flat)} sets, {len(tracer.spans)} spans"
            + (f"; missing layer functions: {tracer.missing}" if tracer.missing else "")
        ),
    }
