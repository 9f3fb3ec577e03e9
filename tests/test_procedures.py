"""Decision procedures: budget-scale p-values, the step-down and step-up
rules, their p-value-only baselines, and the structural invariants
(prefix property, budget monotonicity, exchangeable reductions)."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import log_ndtr, ndtr

from poweralloc import (
    RocModel,
    allocate,
    decide_bh,
    decide_bonferroni,
    decide_fdr_opt,
    decide_stepdown_sidak,
    decide_strong_fwer,
    decide_weak_fwer,
    fdr_null_bounds,
    generalized_pvalues,
    optimal_sizes,
    sidak_sizes,
)


def random_panel(rng, exchangeable=False, max_m=15):
    M = int(rng.integers(1, max_m + 1))
    if exchangeable:
        gammas = np.full(M, rng.uniform(0.2, 5.0))
    else:
        gammas = rng.uniform(0.1, 6.0, M)
    # Mix small and uniform p-values so rejection counts vary.
    s = rng.uniform(0.0, 1.0, M) ** float(rng.uniform(0.5, 4.0))
    return RocModel.from_gammas(gammas), s


class TestGeneralizedPvalues:
    def test_exchangeable_closed_form(self):
        model = RocModel.from_gammas([1.0, 1.0])
        panel = generalized_pvalues(model, [0.01, 0.05])
        np.testing.assert_allclose(panel.w, [0.0199, 0.0975], atol=1e-10)

    def test_zero_pvalues(self):
        model = RocModel.from_gammas([0.5, 2.0, 4.0])
        panel = generalized_pvalues(model, [0.0, 0.0, 0.0])
        assert np.all(panel.w == 0.0)

    def test_round_trip_heterogeneous(self):
        # S_m = eta_m(W_m) at the allocation with budget W_m.
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        s = np.array([0.0005, 0.01, 0.02, 0.3])
        panel = generalized_pvalues(model, s)
        for m in range(4):
            recovered = optimal_sizes(model, float(panel.w[m])).sizes[m]
            assert abs(recovered - s[m]) <= 1e-8

    def test_antiranks_sort_w_with_stable_ties(self):
        model = RocModel.from_gammas([2.0, 2.0, 2.0])
        panel = generalized_pvalues(model, [0.5, 0.2, 0.5])
        assert panel.antiranks.tolist() == [1, 0, 2]
        assert np.all(np.diff(panel.w[panel.antiranks]) >= 0.0)

    def test_unattainable_size_maps_to_budget_one(self):
        # gamma=8 with a mid-range p-value: rejected at no budget below 1.
        model = RocModel.from_gammas([0.5, 0.7, 1.0, 8.0])
        panel = generalized_pvalues(model, [0.1, 0.2, 0.3, 0.4])
        assert panel.w[3] > 0.999999

    def test_pvalue_one_gets_budget_one_at_zero_effect(self):
        # gamma = 0 at a p-value of 1 once gave log d = 0 * (-inf) = NaN.
        panel = generalized_pvalues(RocModel.from_gammas([0.0, 1.0]), [1.0, 0.5])
        assert panel.w[0] == 1.0
        assert panel.w[1] < 1.0
        assert panel.antiranks.tolist() == [1, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            generalized_pvalues(RocModel.from_gammas([1.0]), [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generalized_pvalues(RocModel.from_gammas([1.0]), [])


class TestPanelCost:
    """The work and memory of one M=1000 panel, counted rather than timed."""

    @pytest.fixture(scope="class")
    def panel(self):
        # The paper's scenario (p = 0.2, nu = 2), drawn like the first panel
        # of the benchmark's decide_m1000 workload at seed 0.
        rng = np.random.default_rng([0, 0, 0])
        theta = rng.random(1000) < 0.2
        gammas = np.abs(rng.normal(2.0, 1.0, 1000))
        x = gammas * theta + rng.standard_normal(1000)
        return RocModel.from_gammas(gammas), ndtr(-x)

    def test_log_ndtr_calls_per_pair(self, panel, monkeypatch):
        model, s = panel
        calls = []

        def counting(v, *args, **kwargs):
            calls.append(np.size(v))
            return log_ndtr(v, *args, **kwargs)

        monkeypatch.setattr(allocate, "log_ndtr", counting)
        generalized_pvalues(model, s)
        assert sum(calls) <= 3.5 * s.size ** 2

    def test_allocation_peak(self, panel):
        model, s = panel
        tracemalloc.start()
        try:
            decide_fdr_opt(model, s, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20


class TestWeakFwer:
    def test_weighted_thresholds(self):
        # Sizes ~(0.0008, 0.0008, 0.0245, 0.0245) at alpha=0.05.
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        decision = decide_weak_fwer(model, [0.0005, 0.5, 0.02, 0.5], 0.05)
        assert decision.reject.tolist() == [True, False, True, False]
        assert decision.alpha_threshold == 0.05

    def test_all_ones_reject_none(self):
        model = RocModel.from_gammas([1.0, 2.0, 3.0])
        decision = decide_weak_fwer(model, [1.0, 1.0, 1.0], 0.05)
        assert decision.cutoff_index == 0

    def test_exchangeable_is_fixed_sidak_threshold(self):
        rng = np.random.default_rng(5)
        model = RocModel.from_gammas(np.full(8, 1.5))
        threshold = sidak_sizes(8, 0.07).sizes[0]
        s = rng.uniform(0, 0.2, 8)
        decision = decide_weak_fwer(model, s, 0.07)
        np.testing.assert_array_equal(decision.reject, s <= threshold)

    def test_non_transitive_in_raw_pvalues(self):
        # A smaller p-value on a low-power test loses to a larger one on a
        # moderate-power test.
        model = RocModel.from_gammas([0.5, 1.0])
        sizes = optimal_sizes(model, 0.05).sizes
        s = np.array([(sizes[0] + sizes[1]) / 2.0, sizes[1] * 0.999])
        assert s[0] < s[1]
        decision = decide_weak_fwer(model, s, 0.05)
        assert decision.reject.tolist() == [False, True]


class TestStrongFwer:
    def test_exchangeable_hand_example(self):
        model = RocModel.from_gammas([2.0, 2.0, 2.0])
        decision = decide_strong_fwer(model, [0.001, 0.02, 0.5], 0.05)
        assert decision.cutoff_index == 2
        assert decision.reject.tolist() == [True, True, False]

    def test_zero_budget_rejects_none(self):
        model = RocModel.from_gammas([1.0, 2.0])
        decision = decide_strong_fwer(model, [0.01, 0.02], 0.0)
        assert decision.cutoff_index == 0
        assert decision.alpha_threshold == 0.0

    def test_matches_stepdown_sidak_when_exchangeable(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            model, s = random_panel(rng, exchangeable=True)
            a = decide_strong_fwer(model, s, 0.1)
            b = decide_stepdown_sidak(s, 0.1)
            np.testing.assert_array_equal(a.reject, b.reject)

    def test_trace_shape_and_threshold(self):
        model = RocModel.from_gammas([1.0, 2.0, 3.0])
        decision = decide_strong_fwer(model, [0.01, 0.2, 0.9], 0.05)
        trace = decision.trace
        assert trace.order_stats.shape == (3,)
        np.testing.assert_allclose(trace.threshold, 0.95)
        assert np.all(np.diff(trace.order_stats) >= 0.0)


class TestFdrOpt:
    def test_exchangeable_hand_example(self):
        model = RocModel.from_gammas(np.full(4, 1.0))
        decision = decide_fdr_opt(model, [0.01, 0.02, 0.04, 0.05], 0.05)
        assert decision.cutoff_index == 4

    def test_budget_one_rejects_all(self):
        model = RocModel.from_gammas([0.2, 1.0, 7.0])
        decision = decide_fdr_opt(model, [0.99, 0.5, 0.7], 1.0)
        assert decision.cutoff_index == 3

    def test_heterogeneous_against_forward_solve_oracle(self):
        # Independent route: evaluate the step-up condition by re-solving
        # the full allocation at each candidate budget W_(m).
        model = RocModel.from_gammas([1.0, 2.0])
        for s, q in (([0.01, 0.3], 0.1), ([0.2, 0.4], 0.3), ([0.004, 0.009], 0.05)):
            panel = generalized_pvalues(model, s)
            w_sorted = panel.w[panel.antiranks]
            j_oracle = 0
            for m in (1, 2):
                total = optimal_sizes(model, float(w_sorted[m - 1])).sizes.sum()
                if total <= q * m + 1e-12:
                    j_oracle = m
            decision = decide_fdr_opt(model, s, q)
            assert decision.cutoff_index == j_oracle

    def test_matches_bh_when_exchangeable(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            model, s = random_panel(rng, exchangeable=True)
            a = decide_fdr_opt(model, s, 0.1)
            b = decide_bh(s, 0.1)
            np.testing.assert_array_equal(a.reject, b.reject)

    def test_attaches_size_condition(self):
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        decision = decide_fdr_opt(model, [0.0005, 0.01, 0.02, 0.6], 0.1)
        assert decision.size_condition is not None
        # Violation only annotates; the decision happens regardless.
        assert decision.cutoff_index >= 0


class TestBaselines:
    def test_bh_hand_examples(self):
        assert decide_bh([0.01, 0.04, 0.2, 0.5], 0.1).cutoff_index == 2
        assert decide_bh([0.01, 0.02, 0.04, 0.05], 0.05).cutoff_index == 4
        assert decide_bh([0.9, 0.95], 0.05).cutoff_index == 0

    def test_stepdown_sidak_hand_examples(self):
        assert decide_stepdown_sidak([0.001, 0.02, 0.5], 0.05).cutoff_index == 2
        assert decide_stepdown_sidak([0.001, 0.02, 0.5], 0.0).cutoff_index == 0
        assert decide_stepdown_sidak([0.03], 0.05).cutoff_index == 1
        assert decide_stepdown_sidak([0.07], 0.05).cutoff_index == 0

    def test_bonferroni(self):
        decision = decide_bonferroni([0.01, 0.002, 0.5], 0.03)
        assert decision.reject.tolist() == [True, True, False]

    def test_fdr_null_bounds(self):
        lower, upper = fdr_null_bounds(20, 0.1)
        assert lower == pytest.approx(0.09539, abs=5e-6)
        assert upper == 0.1
        assert fdr_null_bounds(1, 0.1) == (pytest.approx(0.1), 0.1)
        assert fdr_null_bounds(5, 0.0) == (0.0, 0.0)


class TestInvariants:
    def test_prefix_property(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            model, s = random_panel(rng)
            panel = generalized_pvalues(model, s)
            for decision in (
                decide_strong_fwer(model, s, 0.1),
                decide_fdr_opt(model, s, 0.1),
                decide_weak_fwer(model, s, 0.1),
            ):
                expected = np.zeros(model.M, dtype=bool)
                expected[panel.antiranks[: decision.cutoff_index]] = True
                np.testing.assert_array_equal(decision.reject, expected)
            for decision in (decide_bh(s, 0.1), decide_stepdown_sidak(s, 0.1)):
                order = np.argsort(s, kind="stable")
                expected = np.zeros(model.M, dtype=bool)
                expected[order[: decision.cutoff_index]] = True
                np.testing.assert_array_equal(decision.reject, expected)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            model, s = random_panel(rng, max_m=10)
            q1, q2 = sorted(rng.uniform(0.01, 0.6, 2))
            assert decide_fdr_opt(model, s, q1).cutoff_index <= decide_fdr_opt(model, s, q2).cutoff_index
            assert decide_bh(s, q1).cutoff_index <= decide_bh(s, q2).cutoff_index
            assert (decide_strong_fwer(model, s, q1).cutoff_index
                    <= decide_strong_fwer(model, s, q2).cutoff_index)
            assert (decide_stepdown_sidak(s, q1).cutoff_index
                    <= decide_stepdown_sidak(s, q2).cutoff_index)

    def test_alpha_threshold_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            model, s = random_panel(rng)
            decision = decide_fdr_opt(model, s, 0.2)
            panel = generalized_pvalues(model, s)
            w_sorted = np.concatenate(([0.0], panel.w[panel.antiranks], [1.0]))
            j = decision.cutoff_index
            assert decision.alpha_threshold == pytest.approx(w_sorted[j])
            assert w_sorted[j] <= decision.alpha_threshold <= w_sorted[j + 1]

    def test_w1_uniform_under_global_null(self):
        # Smallest budget-scale p-value is U(0,1) when every null is true.
        rng = np.random.default_rng(11)
        model = RocModel.from_gammas([0.3, 0.7, 1.1, 1.9, 2.6, 3.4, 4.1, 5.0, 6.2, 7.5])
        w1 = np.empty(2000)
        for i in range(2000):
            panel = generalized_pvalues(model, rng.uniform(0, 1, 10))
            w1[i] = panel.w[panel.antiranks[0]]
        assert stats.kstest(w1, "uniform").pvalue > 0.01

    def test_deterministic_under_ties(self):
        model = RocModel.from_gammas([1.0, 1.0, 2.0, 2.0])
        s = [0.03, 0.03, 0.03, 0.03]
        a = decide_fdr_opt(model, s, 0.2)
        b = decide_fdr_opt(model, s, 0.2)
        np.testing.assert_array_equal(a.reject, b.reject)
        assert a.cutoff_index == b.cutoff_index

    def test_validation(self):
        model = RocModel.from_gammas([1.0, 2.0])
        with pytest.raises(ValueError):
            decide_fdr_opt(model, [0.1, 1.2], 0.1)
        with pytest.raises(ValueError):
            decide_bh([0.1, 0.2], 1.5)
        with pytest.raises(ValueError):
            decide_strong_fwer(model, [0.1], 0.1)
