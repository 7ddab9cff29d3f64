"""Tests for the candidate budgets of the pseudo-polynomial scans."""

import pytest

from repro.analysis.budget import AnalysisBudgetExceeded, CandidateBudget
from repro.analysis.points import breakpoints_in
from repro.analysis.resetting import resetting_time
from repro.analysis.speedup import min_speedup, speedup_schedulable
from repro.model.task import MCTask
from repro.model.taskset import TaskSet


def near_critical_set() -> TaskSet:
    """HI-mode demand rate barely below the interesting speedups: the
    crossing horizon of Corollary 5 becomes enormous, so a bounded scan
    must either finish inside the budget or fail loudly."""
    return TaskSet(
        [
            MCTask.hi("h1", c_lo=1.0, c_hi=999.0, d_lo=1.0, d_hi=1000.0, period=1000.0),
            MCTask.hi("h2", c_lo=0.001, c_hi=0.9, d_lo=0.01, d_hi=1.0, period=1.0),
        ]
    )


class TestCandidateBudget:
    def test_charge_accumulates(self):
        budget = CandidateBudget(100, operation="test")
        budget.charge(60)
        assert budget.examined == 60
        assert budget.remaining == 40
        budget.charge(40)
        assert budget.remaining == 0

    def test_charge_raises_past_limit(self):
        budget = CandidateBudget(10, operation="test", context="window=(0, 5)")
        with pytest.raises(AnalysisBudgetExceeded) as err:
            budget.charge(11)
        assert err.value.operation == "test"
        assert err.value.examined == 11
        assert err.value.budget == 10
        assert "window=(0, 5)" in str(err.value)
        assert "max_candidates" in str(err.value)

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            CandidateBudget(0)


class TestBreakpointsBudget:
    def test_budget_charged_by_enumeration(self, table1):
        budget = CandidateBudget(10_000, operation="points")
        pts = breakpoints_in(table1, 0.0, 40.0, kind="adb", budget=budget)
        assert budget.examined == pts.size

    def test_budget_exceeded_raises(self, table1):
        budget = CandidateBudget(3, operation="points")
        with pytest.raises(AnalysisBudgetExceeded):
            breakpoints_in(table1, 0.0, 400.0, kind="adb", budget=budget)


class TestResettingBudget:
    def test_small_budget_raises_with_diagnostics(self):
        ts = near_critical_set()
        # s barely above the HI-mode rate: the crossing horizon is huge.
        with pytest.raises(AnalysisBudgetExceeded) as err:
            resetting_time(ts, 1.9, max_candidates=1_000)
        message = str(err.value)
        assert "resetting_time" in message
        assert "scan reached" in message

    def test_default_budget_sufficient_for_canonical_sets(self, table1):
        result = resetting_time(table1, 2.0)
        assert result.delta_r == pytest.approx(6.0)

    def test_generous_budget_still_succeeds(self, table1):
        result = resetting_time(table1, 2.0, max_candidates=50)
        assert result.delta_r == pytest.approx(6.0)


class TestSpeedupBudget:
    def test_inexact_result_by_default(self, multi_window_set):
        exact = min_speedup(multi_window_set)
        assert exact.exact
        result = min_speedup(multi_window_set, max_candidates=50)
        assert not result.exact
        # The cut scan brackets the true supremum.
        assert result.s_min < exact.s_min < result.upper_bound

    def test_raise_mode(self, multi_window_set):
        with pytest.raises(AnalysisBudgetExceeded) as err:
            min_speedup(multi_window_set, max_candidates=50, on_budget="raise")
        assert "min_speedup" in str(err.value)

    def test_on_budget_validation(self, table1):
        with pytest.raises(ValueError):
            min_speedup(table1, on_budget="explode")
        with pytest.raises(ValueError):
            speedup_schedulable(table1, 2.0, on_budget="explode")

    def test_schedulable_raise_mode(self, multi_window_set):
        with pytest.raises(AnalysisBudgetExceeded):
            speedup_schedulable(
                multi_window_set, 0.85, max_candidates=100, on_budget="raise"
            )

    def test_exact_results_unchanged(self, table1):
        result = min_speedup(table1)
        assert result.exact
        assert result.s_min == pytest.approx(4.0 / 3.0)


class TestUncertifiedVerdict:
    """A budget-cut ``s_min`` is a lower bound: it cannot certify ``s``.

    ``multi_window_set`` needs 0.8303071263161773; cut at any budget
    below its first window it reports ``s_min`` = rate = 0.82807...,
    which is below the asked 0.8292 although the set is not schedulable
    there.
    """

    S = 0.8292

    def _requests(self, multi_window_set, budgets):
        from repro.pipeline.request import AnalysisRequest

        return [
            AnalysisRequest(
                taskset=multi_window_set, speedup=self.S, max_candidates=m,
                resetting="never",
            )
            for m in budgets
        ]

    def test_certifies_uses_the_upper_bound(self, multi_window_set):
        cut = min_speedup(multi_window_set, max_candidates=50)
        assert cut.s_min <= self.S < cut.upper_bound
        assert not cut.certifies(self.S)
        assert cut.certifies(cut.upper_bound)
        exact = min_speedup(multi_window_set)
        assert exact.certifies(exact.s_min) and not exact.certifies(self.S)
        assert not speedup_schedulable(multi_window_set, self.S)

    def test_per_set_verdict(self, multi_window_set):
        from repro.pipeline.request import evaluate_request

        for request in self._requests(multi_window_set, (1, 50, 1000)):
            report = evaluate_request(request)
            assert not report.speedup.exact
            assert report.speedup.s_min <= self.S
            assert report.hi_ok is False

    def test_population_verdict_matches(self, multi_window_set):
        from repro.pipeline.grouping import evaluate_chunk_grouped
        from repro.pipeline.request import evaluate_request

        requests = self._requests(multi_window_set, (1, 50, 1000, 2_000_000))
        grouped = evaluate_chunk_grouped(requests)
        assert [r.hi_ok for r in grouped] == [False] * 4
        assert [r.speedup.exact for r in grouped] == [False, False, False, True]
        assert [r.to_dict() for r in grouped] == [
            evaluate_request(r).to_dict() for r in requests
        ]

    @pytest.mark.parametrize("engine", ["population", "scalar"])
    def test_multiproc_admission(self, monkeypatch, engine):
        from repro.analysis.speedup import SpeedupResult
        from repro.multiproc import admission

        def cut(certified):
            upper = 1.5 if certified else 3.0
            return SpeedupResult(1.0, 4.0, certified, upper, 10)

        candidate = MCTask.hi("c", c_lo=1, c_hi=3, d_lo=1, d_hi=4, period=4)
        admit = admission.SpeedupAdmission(2.0, engine=engine)
        for certified in (False, True):
            monkeypatch.setattr(
                admission, "min_speedup", lambda ts: cut(certified)
            )
            monkeypatch.setattr(
                admission, "min_speedup_many",
                lambda sets: [cut(certified) for _ in sets],
            )
            expected = [0, 1] if certified else []
            assert admit.admitting_cores([[], []], candidate, [0, 1]) == expected
