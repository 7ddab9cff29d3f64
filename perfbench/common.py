"""Shared pieces of the benchmark: locating the program, inputs, counters.

Inputs are generated here from the ``--seed`` argument with the
program's own generator (:mod:`repro.generator.taskgen`); the program
only ever receives the generated task sets.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fig.-7 grid of the paper (U_HI x U_LO); sets are drawn within +-0.025.
FIG7_POINTS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
#: Fig.-6 utilisation points (U_bound) and the sets drawn per point per round.
FIG6_POINTS = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
FIG6_SETS_PER_POINT = 100

#: The options a Fig.-6 request carries (experiments/fig6.py, x tuned
#: exactly): y = 2, Delta_R reported at s = 3 whenever s_min is finite.
FIG6_OPTIONS = {"speedup": 3.0, "auto_x": "exact", "y": 2.0, "resetting": "always"}


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------
SETUP_REPEATS = 7


def median_setup_s(start_once: Callable[[], float]) -> float:
    """Median of :data:`SETUP_REPEATS` cold starts, each in a new process."""
    return median([start_once() for _ in range(SETUP_REPEATS)])


def cold_start_in_process(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first analysed set."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"cold start of {workload} failed: {line!r}")
    return elapsed


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def fig7_round(seed: int, k: int):
    """Round ``k``: one terminated-LO set per Fig.-7 grid cell."""
    import numpy as np
    from repro.generator.taskgen import FIG7_CONFIG, generate_taskset_with_targets

    sets = []
    for i, u_hi in enumerate(FIG7_POINTS):
        for j, u_lo in enumerate(FIG7_POINTS):
            rng = np.random.default_rng([seed, k, i, j])
            sets.append(
                generate_taskset_with_targets(
                    u_hi, u_lo, rng, FIG7_CONFIG, name=f"g{i}_{j}_{k}", jitter=0.025
                )
            )
    return sets


def fig7_request(taskset):
    """The Fig.-7 acceptance request, as experiments/fig7.py builds it."""
    from repro import api

    return api.AnalysisRequest(
        taskset=taskset,
        speedup=2.0,
        reset_budget=5000.0,
        y=math.inf,
        resetting="auto",
        auto_x="exact",
    )


def fig6_sets(seed: int, k: int, per_point: int = FIG6_SETS_PER_POINT):
    """Round ``k``: ``per_point`` Fig.-6 caption sets at each U_bound."""
    import numpy as np
    from repro.generator.taskgen import GeneratorConfig, generate_taskset

    config = GeneratorConfig()
    sets = []
    for p, u in enumerate(FIG6_POINTS):
        rng = np.random.default_rng([seed, k, p])
        sets.extend(
            generate_taskset(u, rng, config, name=f"u{u:g}_{k}_{i}")
            for i in range(per_point)
        )
    return sets


def fig6_request(taskset):
    """The Fig.-6 request, as experiments/fig6.py builds it (exact x)."""
    from repro import api

    return api.AnalysisRequest(taskset=taskset, **FIG6_OPTIONS)


# ---------------------------------------------------------------------------
# Program counters and caches
# ---------------------------------------------------------------------------
def perf_snapshot() -> Dict[str, Any]:
    from repro.analysis import kernels

    return kernels.PERF.snapshot()


def perf_delta(before: Dict[str, Any]) -> Dict[str, Any]:
    after = perf_snapshot()
    return {key: after[key] - before.get(key, 0) for key in after}


def reset_caches(tasksets: Sequence[Any] = ()) -> None:
    """Drop the compile registry, the analysis memo and compiled attributes.

    Every timed repetition starts cold, so no repetition times memo
    lookups of an earlier one.
    """
    from repro.analysis import kernels

    kernels.clear_memo()
    kernels.clear_compile_cache()
    for taskset in tasksets:
        try:
            delattr(taskset, kernels._COMPILED_ATTR)
        except AttributeError:
            pass


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def kernel_layer_metrics(perf: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics read from a :data:`repro.analysis.kernels.PERF` delta."""
    return {
        "analysis.kernels.cells": perf.get("cells", 0),
        "analysis.kernels.kernel_evals": perf.get("kernel_evals", 0),
        "analysis.kernels.candidates": perf.get("candidates", 0),
        "analysis.kernels.compiles": perf.get("compiles", 0),
        "analysis.kernels.prune_ratio": ratio(perf.get("pruned", 0), perf.get("candidates", 0)),
        "analysis.kernels.memo_hit_ratio": ratio(
            perf.get("memo_hits", 0),
            perf.get("memo_hits", 0) + perf.get("memo_misses", 0),
        ),
        "analysis.population.sets_per_batch": ratio(
            perf.get("population_sets", 0), perf.get("population_batches", 0)
        ),
    }


def span_layer_metrics(totals) -> Dict[str, float]:
    """Per-layer times from the spans of the traced slice.

    Self times are summed over the slice; parse, encode and decode are
    means per call (ms), the fingerprint a mean self time per call (us).
    """
    calls = totals.calls.get("model.fingerprint", 0)
    return {
        "model.transform.self_ms": totals.self_ms("model.transform"),
        "model.fingerprint.us": 1e3 * ratio(totals.self_ms("model.fingerprint"), calls),
        "analysis.tuning.self_ms": totals.self_ms("analysis.tuning"),
        "analysis.speedup.self_ms": totals.self_ms("analysis.speedup"),
        "analysis.resetting.self_ms": totals.self_ms("analysis.resetting"),
        "analysis.kernels.compile_ms": totals.self_ms("analysis.kernels.compile"),
        "analysis.population.self_ms": totals.self_ms("analysis.population"),
        "pipeline.self_ms": totals.self_ms("pipeline"),
        "pipeline.request.self_ms": totals.self_ms("pipeline.request"),
        "service.schema.parse_ms": totals.mean_ms("service.schema.parse"),
        "io.encode_ms": totals.mean_ms("io.encode"),
        "io.decode_ms": totals.mean_ms("io.decode"),
    }


#: Per-layer metrics of the service path, which in-process workloads
#: bypass: they read 0 there.
SERVICE_ONLY = (
    "pipeline.core.coalesce_ratio",
    "service.wire.req_bytes",
    "service.wire.resp_bytes",
    "service.http.connect_ms",
    "service.http.ttfb_ms",
    "service.http.read_ms",
    "service.frontend_ms",
    "loadgen.lag_ms_p99",
)


def report_metrics(reports: Sequence[Any]) -> Dict[str, float]:
    """Counts read from the reports' Theorem-2 results."""
    speedups = [r.speedup for r in reports if getattr(r, "speedup", None) is not None]
    inexact = sum(1 for s in speedups if not s.exact)
    return {
        "analysis.speedup.candidates": sum(s.candidates_examined for s in speedups),
        "analysis.speedup.inexact": inexact,
        "inexact_frac": ratio(inexact, len(speedups)),
    }
