"""The exact per-task HI-demand envelope of the Theorem-2 scan.

``B_env = sum_i b_i + slack_i`` with ``b_i = sup_Delta (dbf_HI,i(Delta) -
u_i * Delta)`` bounds the *evaluated* oracle demand by
``rate * (1 + FLOOR_SLACK) * Delta + B_env`` (DESIGN.md Section 9); the
scan's stop rule and the decision test's horizon rest on that bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis.dbf import (
    FLOOR_SLACK,
    dbf_hi,
    dbf_hi_envelope,
    hi_mode_rate,
    task_hi_envelope,
    total_dbf_hi,
)
from repro.analysis.kernels import ScalarEvaluator, compile_taskset
from repro.analysis.population import min_speedup_many
from repro.analysis.speedup import min_speedup, speedup_schedulable
from repro.experiments.fig7 import _request as fig7_request
from repro.generator.taskgen import (
    FIG7_CONFIG,
    GeneratorConfig,
    generate_taskset_with_targets,
    population,
)
from repro.model.task import MCTask
from repro.model.taskset import TaskSet
from repro.model.transform import (
    apply_uniform_scaling,
    scale_wcet_uncertainty,
    shorten_hi_deadlines,
)

# ----------------------------------------------------------------------
# Strategies: HI tasks (down to the structural floor D(LO) = C(LO)),
# degraded LO tasks and terminated LO tasks, periods up to 1e4.
# ----------------------------------------------------------------------
periods = st.floats(min_value=1.0, max_value=1e4)
fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def hi_task(draw, name):
    period = draw(periods)
    c_lo = period * draw(st.floats(min_value=0.01, max_value=0.5))
    c_hi = min(c_lo * draw(st.floats(min_value=1.0, max_value=10.0)), period)
    d_hi = min(c_hi + (period - c_hi) * draw(fractions), period)
    d_lo = min(c_lo + (d_hi - c_lo) * draw(fractions), d_hi)
    if draw(st.booleans()):
        d_lo = c_lo  # the structural floor of the x preparation
    return MCTask.hi(name, c_lo=c_lo, c_hi=c_hi, d_lo=d_lo, d_hi=d_hi, period=period)


@st.composite
def lo_task(draw, name):
    period = draw(periods)
    c = period * draw(st.floats(min_value=0.01, max_value=0.5))
    d_lo = min(c + (period - c) * draw(fractions), period)
    y = draw(st.one_of(st.just(math.inf), st.floats(min_value=1.0, max_value=4.0)))
    if math.isinf(y):
        return MCTask.lo(name, c=c, d_lo=d_lo, t_lo=period, d_hi=y, t_hi=y)
    return MCTask.lo(name, c=c, d_lo=d_lo, t_lo=period, d_hi=y * d_lo, t_hi=y * period)


@st.composite
def tasksets(draw):
    n_hi = draw(st.integers(min_value=1, max_value=3))
    n_lo = draw(st.integers(min_value=0, max_value=3))
    tasks = [draw(hi_task(f"h{i}")) for i in range(n_hi)]
    tasks += [draw(lo_task(f"l{i}")) for i in range(n_lo)]
    return TaskSet(tasks)


def _aligned(task, k, which):
    """A breakpoint-aligned interval ``k * T + offset`` of ``task``."""
    if math.isinf(task.t_hi):
        return task.d_hi - task.d_lo + (0.0, task.c_lo)[which % 2]
    gap = task.d_hi - task.d_lo
    offsets = [0.0, gap, gap + task.c_lo, task.t_hi]
    return k * task.t_hi + offsets[which % 4]


def _bound(taskset, delta):
    rate = hi_mode_rate(taskset)
    return rate * (1.0 + FLOOR_SLACK) * delta + dbf_hi_envelope(taskset)


class TestEnvelopeBound:
    @given(
        ts=tasksets(),
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=10**9),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1, max_size=20,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_breakpoint_aligned_delta(self, ts, picks):
        tasks = list(ts)
        deltas = []
        for index, k, which in picks:
            task = tasks[index % len(tasks)]
            if not math.isinf(task.t_hi):
                k = k % max(1, int(1e9 / task.t_hi))
            deltas.append(_aligned(task, k, which))
        deltas = np.array([d for d in deltas if math.isfinite(d)])
        demand = np.asarray(total_dbf_hi(ts, deltas), dtype=float)
        assert np.all(demand <= _bound(ts, deltas))

    @given(
        ts=tasksets(),
        deltas=st.lists(
            st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_delta(self, ts, deltas):
        points = np.array(deltas)
        demand = np.asarray(total_dbf_hi(ts, points), dtype=float)
        assert np.all(demand <= _bound(ts, points))

    @given(task=hi_task("h"))
    @settings(max_examples=100, deadline=None)
    def test_b_is_attained_on_the_first_period(self, task):
        """``b`` is the supremum, not just a bound: the first period's
        staircase comes within the slack of it."""
        u = task.c_hi / task.t_hi
        phases = np.linspace(0.0, task.t_hi, 4001)[:-1]
        gap = task.d_hi - task.d_lo
        phases = np.concatenate([phases, [gap, min(gap + task.c_lo, task.t_hi)]])
        phases = phases[phases < task.t_hi]
        excess = np.asarray(dbf_hi(task, phases), dtype=float) - u * phases
        b = task_hi_envelope(task.c_lo, task.c_hi, task.d_lo, task.d_hi, task.t_hi)
        slack = FLOOR_SLACK * (task.c_hi + u)
        # The supremum at p = T is approached from the left only.
        assert excess.max() <= b
        assert excess.max() >= b - slack - 1e-6 * task.c_hi

    def test_closed_form_cases(self):
        # Table 1's tau1 sits on its drift line: b = 0.
        tau1 = MCTask.hi("tau1", c_lo=1, c_hi=3, d_lo=1, d_hi=4, period=4)
        assert dbf_hi_envelope(TaskSet([tau1])) == pytest.approx(0.0, abs=1e-7)
        # Peak where the carry-over job completes, p = g + C(LO) = 3:
        # b = (p - g) + C(HI) - C(LO) - u*p = 1 + 3 - 1.5.
        early = MCTask.hi("e", c_lo=1, c_hi=4, d_lo=6, d_hi=8, period=8)
        assert dbf_hi_envelope(TaskSet([early])) == pytest.approx(2.5)
        # A terminated LO task contributes nothing.
        dropped = MCTask.lo("d", c=1, d_lo=4, t_lo=4, d_hi=math.inf, t_hi=math.inf)
        assert dbf_hi_envelope(TaskSet([dropped])) == 0.0
        # The loose budget sum stays the all-terminated test.
        assert ScalarEvaluator(TaskSet([dropped])).dbf_excess == 0.0


class TestEnvelopeParity:
    @pytest.fixture
    def base(self):
        return population(0.8, 5, seed=11, config=GeneratorConfig())

    def test_scalar_and_compiled_bitwise(self, base):
        for ts in base:
            for configured in (ts, apply_uniform_scaling(ts, 0.4, 2.0),
                               apply_uniform_scaling(ts, 0.4, math.inf)):
                scalar = ScalarEvaluator(configured).dbf_envelope
                assert compile_taskset(configured).dbf_envelope == scalar
                assert dbf_hi_envelope(configured) == scalar

    def test_derived_compiles_bitwise(self, base):
        for ts in base:
            compiled = compile_taskset(ts)
            for x in (0.2, 0.55):
                derived = compiled.with_hi_lo_deadline_factor(x)
                direct = dbf_hi_envelope(shorten_hi_deadlines(ts, x))
                assert derived.dbf_envelope == direct
            for gamma in (1.0, 1.5):
                derived = compiled.with_wcet_uncertainty(gamma)
                direct = dbf_hi_envelope(scale_wcet_uncertainty(ts, gamma))
                assert derived.dbf_envelope == direct

    def test_population_members_carry_it(self, base):
        sets = [apply_uniform_scaling(ts, 0.4, math.inf) for ts in base]
        pop = min_speedup_many(sets)
        per_set = [min_speedup(ts, engine="scalar") for ts in sets]
        assert [r.to_dict() for r in pop] == [r.to_dict() for r in per_set]


class TestZeroEnvelopeTrap:
    """An active set whose envelope is all slack is not "no demand"."""

    @pytest.fixture
    def drift_line_set(self):
        # Each HI task at the structural floor D(LO) = C(LO) with
        # D(HI) = T: its staircase never rises above u*Delta (b = 0).
        return TaskSet([
            MCTask.hi("a", c_lo=1.0, c_hi=3.0, d_lo=1.0, d_hi=4.0, period=4.0),
            MCTask.hi("b", c_lo=0.5, c_hi=2.0, d_lo=0.5, d_hi=7.0, period=7.0),
            MCTask.lo("l", c=1.0, d_lo=5.0, t_lo=5.0, d_hi=math.inf, t_hi=math.inf),
        ])

    @pytest.mark.parametrize("engine", ["compiled", "scalar"])
    def test_s_min_is_the_rate(self, drift_line_set, engine):
        rate = hi_mode_rate(drift_line_set)
        assert dbf_hi_envelope(drift_line_set) < 1e-7
        result = min_speedup(drift_line_set, engine=engine)
        assert result.exact
        assert result.s_min == pytest.approx(rate, rel=1e-9)
        assert result.s_min > 0.0

    @pytest.mark.parametrize("engine", ["compiled", "scalar"])
    def test_below_the_rate_is_unschedulable(self, drift_line_set, engine):
        rate = hi_mode_rate(drift_line_set)
        assert not speedup_schedulable(drift_line_set, 0.99 * rate, engine=engine)
        assert speedup_schedulable(drift_line_set, 1.01 * rate, engine=engine)


class TestFig7Regression:
    def test_one_round_is_exact_in_few_candidates(self):
        """Fig.-7 sets (gamma = 10, LO terminated, exact x) used to spend
        the whole 2,000,000-candidate budget; the envelope certifies
        them within their first windows."""
        points = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
        requests = []
        for i, u_hi in enumerate(points):
            for j, u_lo in enumerate(points):
                rng = np.random.default_rng([1, 0, i, j])
                ts = generate_taskset_with_targets(
                    u_hi, u_lo, rng, FIG7_CONFIG, name=f"g{i}_{j}", jitter=0.025
                )
                requests.append(fig7_request(ts, 2.0, 5000.0))
        assert all(r.auto_x == "exact" and math.isinf(r.y) for r in requests)
        reports = api.analyze_many(requests)
        results = [r.speedup for r in reports if r.speedup is not None]
        assert len(results) >= 30
        assert all(result.exact for result in results)
        assert max(result.candidates_examined for result in results) < 1000
