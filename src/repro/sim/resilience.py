"""Scenario-based resilience harness: fault sweeps vs the paper bounds.

The analysis (Theorem 2, Corollary 5) assumes an ideal platform: the
speedup ``s`` is available instantly, mode switches are detected the
moment a HI job crosses ``C(LO)``, and no job ever exceeds its declared
``C(HI)``.  This module asks *how gracefully the guarantees erode* when
those assumptions fail.  It builds parameterised fault scenarios — one
per fault class, with a scalar ``intensity`` in [0, 1] mapping to
physically meaningful magnitudes (fractions of ``Delta_R``, of the
boost headroom ``s - 1``, of task periods) — runs the adversarial
workload through the fault layer, and reports a structured
:class:`ResilienceVerdict` per (workload, scenario) pair.

Guarantee accounting follows :func:`repro.sim.validate.validate_under_faults`:
the bounds are computed for the *fault-free* platform, so a verdict
with ``hi_ok`` false pinpoints exactly which fault class (at which
intensity) breaks the Theorem-2 sufficiency, and ``reset_ok`` false
marks empirical episodes outrunning the Corollary-5 ``Delta_R``.

At intensity 0 every scenario degenerates to a no-op fault config and
the verdicts reproduce the fault-free validator verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api import (
    min_preparation_factor,
    min_speedup,
    min_speedup_margin,
    resetting_time,
)
from repro.model.taskset import TaskSet
from repro.pipeline.runner import map_items
from repro.model.transform import apply_uniform_scaling
from repro.sim.degradation import DegradationPolicy, Rung
from repro.sim.faults import FaultConfig
from repro.sim.scheduler import SimConfig, simulate
from repro.sim.validate import validate_under_faults
from repro.sim.workload import OverrunModel, SynchronousWorstCaseSource


@dataclass(frozen=True)
class FaultScenario:
    """One named fault configuration at a given intensity."""

    name: str
    description: str
    intensity: float
    fault: FaultConfig
    degradation: Optional[DegradationPolicy] = None


@dataclass(frozen=True)
class ResilienceVerdict:
    """Outcome of one (workload, scenario) resilience run.

    ``hi_ok`` is the Theorem-2 sufficiency check (no HI miss), and
    ``reset_ok`` the Corollary-5 soundness check (every episode within
    the fault-free ``Delta_R``); ``lo_misses`` measures collateral
    damage to the LO tasks, which the paper's HI-mode guarantees do not
    cover.  ``margin`` is the analytic speedup headroom
    (:func:`repro.analysis.sensitivity.min_speedup_margin`) at the
    simulated speedup — faults that consume more than this headroom are
    the ones expected to break ``hi_ok``.  ``min_restoring_s`` (when
    computed) is the empirically smallest speedup restoring a HI-miss-
    free run under the same faults; infinite when no finite speedup
    helps (e.g. a hard actuation cap).
    """

    workload: str
    scenario: str
    intensity: float
    s_min: float
    delta_r: float
    speedup: float
    margin: float
    hi_misses: int
    lo_misses: int
    max_episode: float
    episodes: int
    highest_rung: Rung
    speed_deficit: float
    fault_events: int
    min_restoring_s: Optional[float] = None

    @property
    def hi_ok(self) -> bool:
        return self.hi_misses == 0

    @property
    def reset_ok(self) -> bool:
        return self.max_episode <= self.delta_r + 1e-6

    def to_record(self) -> Dict:
        """Flat dictionary for CSV export (see :func:`repro.io.write_records_csv`)."""
        return {
            "workload": self.workload,
            "scenario": self.scenario,
            "intensity": self.intensity,
            "s_min": self.s_min,
            "delta_r": self.delta_r,
            "speedup": self.speedup,
            "margin": self.margin,
            "hi_misses": self.hi_misses,
            "lo_misses": self.lo_misses,
            "hi_ok": self.hi_ok,
            "reset_ok": self.reset_ok,
            "max_episode": self.max_episode,
            "episodes": self.episodes,
            "highest_rung": self.highest_rung.name,
            "speed_deficit": self.speed_deficit,
            "fault_events": self.fault_events,
            "min_restoring_s": (
                "" if self.min_restoring_s is None else self.min_restoring_s
            ),
        }


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------
def scenario_suite(
    taskset: TaskSet,
    intensity: float,
    *,
    speedup: Optional[float] = None,
    seed: int = 0,
) -> List[FaultScenario]:
    """The standard per-fault-class scenarios at one intensity.

    Intensity maps to magnitudes anchored in the task set's own
    analysis numbers, so ``intensity = 1`` is "as large as the quantity
    it perturbs":

    ========== =========================================================
    scenario   mapping
    ========== =========================================================
    healthy    all-zero config (strict no-op baseline)
    ramp       DVFS ramp latency = ``intensity * Delta_R``
    cap        deliverable speed capped at ``s - intensity * (s - 1)``
    throttle   boost residency budget = ``(1 - intensity) * Delta_R``,
               then forced to nominal speed
    jitter     multiplicative speed jitter, amplitude ``0.3 * intensity``
    detection  mode-switch detection delayed by up to
               ``intensity * min HI D(LO) / 2``; 20 % of that intensity
               as outright miss probability
    wcet       actual demand = ``(1 + intensity) * declared``
    burst      ``1 + round(3 * intensity)`` back-to-back overruns per
               burst (violating the ``T_O`` separation)
    arrival    release jitter up to ``intensity * min T(LO) / 4``
    combined   throttle + wcet together (exercises the deep ladder)
    ========== =========================================================
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    s_res = min_speedup(taskset)
    if not math.isfinite(s_res.s_min):
        raise ValueError("task set needs infinite speedup; no scenarios to build")
    s = speedup if speedup is not None else max(s_res.s_min * (1.0 + 1e-9), 1e-6)
    delta_r = resetting_time(taskset, s).delta_r
    ref = delta_r if math.isfinite(delta_r) and delta_r > 0 else max(
        t.t_lo for t in taskset
    )
    hi_dls = [t.d_lo for t in taskset.hi_tasks]
    min_hi_dl = min(hi_dls) if hi_dls else ref
    min_period = min(t.t_lo for t in taskset)
    headroom = max(s - 1.0, 0.0)
    policy = DegradationPolicy(reference_delta=ref)

    def cfg(**kw) -> FaultConfig:
        return FaultConfig(seed=seed, **kw)

    i = intensity
    scenarios = [
        FaultScenario(
            "healthy", "no faults (baseline, strict no-op)", i, cfg(), None
        ),
        FaultScenario(
            "ramp",
            "DVFS actuation ramps to the boost speed over a latency window",
            i,
            cfg(ramp_latency=i * ref),
            policy,
        ),
        FaultScenario(
            "cap",
            "platform cannot deliver the full boost speed",
            i,
            cfg(speed_cap=max(s - i * headroom, 1.0) if i > 0 else math.inf),
            policy,
        ),
        FaultScenario(
            "throttle",
            "thermal throttling after a boost-residency budget",
            i,
            cfg(
                throttle_budget=max((1.0 - i), 0.05) * ref if i > 0 else math.inf,
                throttle_speed=1.0 if i > 0 else None,
            ),
            policy,
        ),
        FaultScenario(
            "jitter",
            "transient multiplicative speed jitter while boosted",
            i,
            cfg(jitter_amplitude=0.3 * i, jitter_period=max(ref / 8.0, 1e-3)),
            policy,
        ),
        FaultScenario(
            "detection",
            "mode-switch detection is late (and sometimes missed)",
            i,
            cfg(
                detection_latency=i * min_hi_dl / 2.0,
                detection_miss_probability=0.2 * i,
            ),
            policy,
        ),
        FaultScenario(
            "wcet",
            "actual demand exceeds the declared C(HI) (WCET misestimation)",
            i,
            cfg(wcet_error_factor=1.0 + i),
            policy,
        ),
        FaultScenario(
            "burst",
            "back-to-back overrun bursts violating the T_O separation",
            i,
            cfg(
                overrun_burst_len=1 + round(3 * i) if i > 0 else 0,
                overrun_gap_jobs=max(0, round(4 * (1.0 - i))),
            ),
            policy,
        ),
        FaultScenario(
            "arrival",
            "release jitter delaying sporadic arrivals",
            i,
            cfg(release_jitter=i * min_period / 4.0),
            policy,
        ),
        FaultScenario(
            "combined",
            "throttling plus WCET misestimation (deep-ladder stress)",
            i,
            cfg(
                throttle_budget=(1.0 - 0.5 * i) * ref if i > 0 else math.inf,
                throttle_speed=1.0 if i > 0 else None,
                wcet_error_factor=1.0 + 0.5 * i,
            ),
            policy,
        ),
    ]
    return scenarios


# ---------------------------------------------------------------------------
# Standard workloads
# ---------------------------------------------------------------------------
def standard_workloads(quick: bool = False, seed: int = 2015) -> Dict[str, TaskSet]:
    """The workloads the resilience suite sweeps.

    Table I (plain and degraded) always; unless ``quick``, also the FMS
    case study (prepared with the minimal density-feasible ``x`` and
    ``y = 2``, as in Figure 5b) and a seeded synthetic set from the
    Figure-6 generator, prepared the same way.
    """
    from repro.experiments.table1 import table1_degraded_taskset, table1_taskset
    from repro.generator.fms import fms_taskset
    from repro.generator.taskgen import GeneratorConfig, generate_taskset

    workloads: Dict[str, TaskSet] = {
        "table1": table1_taskset(),
        "table1-degraded": table1_degraded_taskset(),
    }
    if not quick:
        fms = fms_taskset()
        x = min_preparation_factor(fms, method="density")
        workloads["fms"] = apply_uniform_scaling(fms, x, 2.0)
        rng = np.random.default_rng(seed)
        base = generate_taskset(
            0.6, rng, GeneratorConfig(period_range=(10.0, 100.0)), name="synthetic"
        )
        xs = min_preparation_factor(base, method="density")
        workloads["synthetic"] = apply_uniform_scaling(base, xs, 2.0)
    return workloads


# ---------------------------------------------------------------------------
# Running scenarios
# ---------------------------------------------------------------------------
def run_scenario(
    taskset: TaskSet,
    scenario: FaultScenario,
    *,
    workload_name: str = "taskset",
    speedup: Optional[float] = None,
    horizon: Optional[float] = None,
    find_restoring: bool = False,
) -> ResilienceVerdict:
    """Run one scenario and cross-check the observed run vs the bounds."""
    report = validate_under_faults(
        taskset,
        fault=scenario.fault if scenario.fault.enabled else None,
        degradation=scenario.degradation if scenario.fault.enabled else None,
        speedup=speedup,
        horizon=horizon,
    )
    restoring: Optional[float] = None
    if find_restoring and report.hi_misses > 0:
        restoring = min_safe_speedup(
            taskset, scenario.fault, degradation=scenario.degradation, horizon=horizon
        )
    return ResilienceVerdict(
        workload=workload_name,
        scenario=scenario.name,
        intensity=scenario.intensity,
        s_min=report.s_min,
        delta_r=report.delta_r,
        speedup=report.simulated_speedup,
        margin=min_speedup_margin(taskset, report.simulated_speedup),
        hi_misses=report.hi_misses,
        lo_misses=report.lo_misses,
        max_episode=report.max_episode,
        episodes=report.episodes,
        highest_rung=report.highest_rung,
        speed_deficit=report.speed_deficit,
        fault_events=report.fault_event_count,
        min_restoring_s=restoring,
    )


def min_safe_speedup(
    taskset: TaskSet,
    fault: FaultConfig,
    *,
    degradation: Optional[DegradationPolicy] = None,
    horizon: Optional[float] = None,
    tol: float = 1e-2,
    s_max: float = 64.0,
) -> float:
    """Smallest speedup with zero HI misses under ``fault`` (bisection).

    The empirical counterpart of Theorem 2 on the *faulty* platform.
    Returns ``inf`` when even ``s_max`` cannot restore the guarantee —
    which is the honest answer for hard actuation caps, where asking
    for more speed changes nothing.
    """
    if horizon is None:
        horizon = 20.0 * max(t.t_lo for t in taskset)

    source = SynchronousWorstCaseSource(
        OverrunModel(first_job_overruns=True, probability=1.0)
    )

    def safe(s: float) -> bool:
        config = SimConfig(
            speedup=s,
            horizon=horizon,
            faults=fault if fault.enabled else None,
            degradation=degradation if fault.enabled else None,
        )
        result = simulate(taskset, config, source)
        return result.hi_miss_count == 0

    lo = max(min_speedup(taskset).s_min, 1e-6)
    if safe(lo):
        return lo
    hi = max(2.0 * lo, 2.0)
    while not safe(hi):
        hi *= 2.0
        if hi > s_max:
            return math.inf
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if safe(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Degradation-ladder demonstrations
# ---------------------------------------------------------------------------
def ladder_scenarios() -> List[FaultScenario]:
    """One scenario per degradation rung, on the Table I workload.

    Each scenario's fault severity is chosen so that the named rung is
    the deepest one the policy manager reaches (verified by
    ``tests/test_resilience.py``); together they walk the whole ladder:

    * ``rung-none`` — healthy platform, episodes close within
      ``Delta_R``, ladder never consulted;
    * ``rung-extend`` — a boost ramp stretches the episode past the
      first patience check: the manager re-grants (extends) the boost
      and the episode then closes;
    * ``rung-degrade`` — throttling cuts the boost short: extending is
      not enough, LO service is degraded (periods/deadlines times
      ``runtime_y``) before the backlog drains;
    * ``rung-terminate`` — misestimated WCETs keep the backlog growing
      through two checks; LO tasks are terminated (Eq. 3 fallback);
    * ``rung-kill`` — a hard actuation cap plus overrun bursts: no
      speed-side remedy exists, the watchdog-style kill rung drops the
      boost request and sheds all LO work.
    """
    policy = DegradationPolicy(patience=1.05)

    def cfg(**kw) -> FaultConfig:
        return FaultConfig(seed=7, **kw)

    return [
        FaultScenario(
            "rung-none", "healthy platform; ladder stays at NONE", 0.0, cfg(), policy
        ),
        FaultScenario(
            "rung-extend",
            "slow boost ramp; one EXTEND re-grant suffices",
            0.4,
            cfg(ramp_latency=4.0, ramp_steps=8),
            policy,
        ),
        FaultScenario(
            "rung-degrade",
            "early throttling; LO degradation drains the backlog",
            0.6,
            cfg(throttle_budget=0.5, throttle_speed=1.05),
            DegradationPolicy(patience=1.05, max_rung=Rung.DEGRADE),
        ),
        FaultScenario(
            "rung-terminate",
            "WCET misestimation; LO termination needed",
            0.8,
            cfg(throttle_budget=2.0, throttle_speed=1.1, wcet_error_factor=1.3),
            DegradationPolicy(patience=1.05, max_rung=Rung.TERMINATE),
        ),
        FaultScenario(
            "rung-kill",
            "hard cap plus overrun bursts; watchdog kill rung",
            1.0,
            cfg(speed_cap=1.05, wcet_error_factor=1.5, overrun_burst_len=3),
            DegradationPolicy(patience=1.05),
        ),
    ]


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------
def _run_scenario_item(item) -> ResilienceVerdict:
    """Process-pool entry point: one (taskset, scenario, kwargs) work item."""
    taskset, scenario, kwargs = item
    return run_scenario(taskset, scenario, **kwargs)


def run_suite(
    *,
    quick: bool = False,
    intensities: Optional[Sequence[float]] = None,
    find_restoring: Optional[bool] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[ResilienceVerdict]:
    """Sweep every standard workload through every scenario.

    ``quick`` restricts to the Table I workloads and two intensities
    (the CI smoke configuration, a few seconds); the full sweep adds
    the FMS and synthetic workloads, a mid intensity and the empirical
    minimum-restoring-speedup search for broken scenarios.

    ``jobs`` fans the (workload, scenario) runs over worker processes
    through the batch pipeline; each run is seeded and independent, so
    the verdict list is identical to the serial sweep.
    """
    if intensities is None:
        intensities = (0.0, 1.0) if quick else (0.0, 0.5, 1.0)
    if find_restoring is None:
        find_restoring = not quick
    labels: List[str] = []
    items: List[tuple] = []
    for wl_name, taskset in standard_workloads(quick=quick).items():
        for intensity in intensities:
            for scenario in scenario_suite(taskset, intensity, seed=seed):
                labels.append(f"{wl_name} / {scenario.name} @ {intensity:g}")
                items.append(
                    (
                        taskset,
                        scenario,
                        dict(workload_name=wl_name, find_restoring=find_restoring),
                    )
                )
    from repro.experiments.table1 import table1_taskset

    ladder_ts = table1_taskset()
    for scenario in ladder_scenarios():
        labels.append(f"ladder / {scenario.name}")
        items.append(
            (
                ladder_ts,
                scenario,
                dict(workload_name="table1-ladder", speedup=2.0, horizon=400.0),
            )
        )
    if jobs == 1:
        verdicts = []
        for label, item in zip(labels, items):
            if progress is not None:
                progress(label)
            verdicts.append(_run_scenario_item(item))
        return verdicts
    reporter = None
    if progress is not None:
        def reporter(done: int, total: int) -> None:
            progress(f"{labels[done - 1]} [{done}/{total}]")
    return map_items(_run_scenario_item, items, jobs, progress=reporter)


def render(verdicts: Sequence[ResilienceVerdict]) -> str:
    """Text table over the verdicts (one row per workload x scenario)."""
    header = (
        f"{'workload':<16}{'scenario':<15}{'int':>5}{'s':>9}{'margin':>10}"
        f"{'HImiss':>7}{'LOmiss':>7}{'maxEp':>10}{'dR':>10}{'rung':>11}"
        f"{'deficit':>10}{'ok':>4}"
    )
    lines = [header, "-" * len(header)]
    for v in verdicts:
        ok = "y" if v.hi_ok and v.reset_ok else "N"
        lines.append(
            f"{v.workload:<16}{v.scenario:<15}{v.intensity:>5.2f}{v.speedup:>9.3g}"
            f"{v.margin:>10.3g}{v.hi_misses:>7d}{v.lo_misses:>7d}"
            f"{v.max_episode:>10.4g}{v.delta_r:>10.4g}{v.highest_rung.name:>11}"
            f"{v.speed_deficit:>10.3g}{ok:>4}"
        )
    broken = [v for v in verdicts if not v.hi_ok]
    lines.append(
        f"{len(verdicts)} runs, {len(broken)} with HI misses, "
        f"{sum(1 for v in verdicts if not v.reset_ok)} past Delta_R"
    )
    for v in broken:
        if v.min_restoring_s is not None:
            lines.append(
                f"  {v.workload}/{v.scenario}@{v.intensity:g}: "
                f"min restoring s = {v.min_restoring_s:.4g}"
                + (" (no finite s helps)" if math.isinf(v.min_restoring_s) else "")
            )
    return "\n".join(lines)
