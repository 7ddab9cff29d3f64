"""Pipeline throughput: serial vs parallel vs cached batch analysis.

Runs a paper-scale Figure-6 population (500 sets per utilization point,
six points = 3000 analyses) through :class:`repro.api.WorkQueueCore`
three ways and records the throughput ratios:

* ``serial``      — ``jobs=1``, no cache (the pre-pipeline baseline);
* ``parallel``    — ``jobs=4`` over a process pool;
* ``cached``      — ``jobs=1`` against a warm result cache.

On a multi-core machine (the CI runners have 4 cores) the parallel pass
must clear a 2x speedup over serial; on a single-core container that
ratio is physically capped at ~1x, so the assertion is conditional on
the visible CPU count.  The cache ratio has no such dependence — a warm
cache must beat recomputation anywhere — and the three result lists
must be identical, which is the pipeline's core determinism contract.
"""

import os
import time

import numpy as np

from repro.api import AnalysisRequest, ResultCache, WorkQueueCore
from repro.generator.taskgen import GeneratorConfig, generate_taskset

U_BOUNDS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SETS_PER_POINT = 500
PARALLEL_JOBS = 4


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _population_requests():
    requests = []
    for k, u in enumerate(U_BOUNDS):
        rng = np.random.default_rng(2015 + 1000 * k)
        for i in range(SETS_PER_POINT):
            ts = generate_taskset(u, rng, GeneratorConfig(), name=f"u{u:g}_{i}")
            requests.append(
                AnalysisRequest(
                    taskset=ts, speedup=3.0, auto_x="exact", y=2.0,
                    resetting="always",
                )
            )
    return requests


def _timed_run(requests, **options):
    """One run on a fresh, then closed core: (core, reports, seconds)."""
    core = WorkQueueCore(**options)
    start = time.perf_counter()
    try:
        reports = core.run(requests)
    finally:
        core.close()
    return core, reports, time.perf_counter() - start


def test_batch_throughput(record_artifact):
    requests = _population_requests()
    n = len(requests)

    _, serial_reports, serial_s = _timed_run(requests, jobs=1)
    _, parallel_reports, parallel_s = _timed_run(requests, jobs=PARALLEL_JOBS)

    cache = ResultCache()
    _timed_run(requests, jobs=1, cache=cache)  # warm the cache
    cached_core, cached_reports, cached_s = _timed_run(requests, jobs=1, cache=cache)

    parallel_x = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cached_x = serial_s / cached_s if cached_s > 0 else float("inf")
    cpus = _cpu_count()
    lines = [
        f"batch pipeline throughput, {n} analyses (fig6 paper scale), "
        f"{cpus} CPU(s) visible",
        f"  serial   (jobs=1):          {serial_s:8.2f} s   {n / serial_s:8.1f}/s",
        f"  parallel (jobs={PARALLEL_JOBS}):          {parallel_s:8.2f} s   "
        f"{n / parallel_s:8.1f}/s   ({parallel_x:.2f}x serial)",
        f"  cached   (jobs=1, warm):    {cached_s:8.2f} s   "
        f"{n / cached_s:8.1f}/s   ({cached_x:.2f}x serial)",
    ]
    record_artifact("batch_throughput", "\n".join(lines))

    # Determinism contract: all three execution modes agree exactly.
    serial_payloads = [r.to_dict() for r in serial_reports]
    assert [r.to_dict() for r in parallel_reports] == serial_payloads
    assert [r.to_dict() for r in cached_reports] == serial_payloads
    assert cached_core.stats.computed == 0

    # A warm cache must beat recomputation regardless of the machine.
    assert cached_x >= 2.0, f"cache pass only {cached_x:.2f}x serial"

    # The parallel claim needs actual cores to be falsifiable.
    if cpus >= 2:
        assert parallel_x >= 2.0, (
            f"jobs={PARALLEL_JOBS} only {parallel_x:.2f}x serial on {cpus} CPUs"
        )
