"""Size allocation: baselines, the Lagrange solve and its compression to
distinct effect sizes, the budget map and its inverse, and the step-up
size-condition diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import log_ndtr

from poweralloc import (
    RocModel,
    bonferroni_sizes,
    check_size_condition,
    fdr_null_bounds,
    generalized_pvalues,
    grid_optimal_sizes,
    optimal_sizes,
    roc,
    sidak_sizes,
)
from poweralloc import allocate
from poweralloc.allocate import (
    LOG_PHI_FLUSH,
    SOLVE_BLOCK,
    V_HI,
    V_LO,
    _size_profile,
    _solve_multiplier,
    _solve_v,
)

from helpers import newton_solve_v, newton_tolerance, reference_solve_multiplier

ALPHAS = (0.01, 0.05, 0.2)

# Budgets on both scales: uniform on (0, 1) almost never draws one below
# 1e-3, so half the draws are 10^U(-300, 0).
ANY_ALPHA = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e).filter(lambda a: a < 1.0),
)
ANY_GAMMA = st.one_of(st.just(0.0), st.floats(0.0, 100.0))
# No fill: hypothesis would otherwise repeat one gamma across most of a
# large panel, and the multiplier solve's warm start is then barely used.
ANY_GAMMAS = st.integers(1, 200).flatmap(
    lambda m: arrays(float, m, elements=ANY_GAMMA, fill=st.nothing()))


def total_power(model, sizes):
    return float(roc(model.gammas, sizes).sum())


def random_panels(n, seed, max_m=50):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        M = int(rng.integers(2, max_m + 1))
        gammas = rng.uniform(0.1, 10.0, M)
        alpha = float(rng.choice(ALPHAS))
        yield RocModel.from_gammas(gammas), alpha


class TestBaselines:
    def test_sidak_closed_form(self):
        alloc = sidak_sizes(4, 0.05)
        expected = 1.0 - 0.95 ** 0.25
        np.testing.assert_allclose(alloc.sizes, expected, rtol=1e-14)
        assert alloc.sizes[0] == pytest.approx(0.012741, abs=5e-7)
        assert abs(alloc.constraint_residual) < 1e-15

    def test_sidak_single_test(self):
        assert sidak_sizes(1, 0.05).sizes[0] == pytest.approx(0.05, rel=1e-14)

    def test_sidak_zero_budget(self):
        assert np.all(sidak_sizes(7, 0.0).sizes == 0.0)

    def test_bonferroni(self):
        alloc = bonferroni_sizes(20, 0.05)
        np.testing.assert_allclose(alloc.sizes, 0.0025, rtol=1e-14)
        assert alloc.constraint_residual >= 0.0  # conservative
        assert bonferroni_sizes(1, 0.05).sizes[0] == pytest.approx(0.05)
        assert np.all(bonferroni_sizes(3, 0.0).sizes == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sidak_sizes(0, 0.05)
        with pytest.raises(ValueError):
            sidak_sizes(4, 1.0)
        with pytest.raises(ValueError):
            bonferroni_sizes(4, -0.1)

    @pytest.mark.parametrize("count", [True, np.True_])
    def test_a_boolean_is_not_a_count(self, count):
        # True equals 1, but a flag passed as a count is a caller's mistake.
        for baseline in (sidak_sizes, bonferroni_sizes, fdr_null_bounds):
            with pytest.raises(ValueError, match="M must be a positive integer"):
                baseline(count, 0.1)


class TestOptimalSizes:
    def test_exchangeable_reduces_to_sidak(self):
        # Uniqueness: equal ROC functions force the equal-size solution.
        for M, alpha in ((4, 0.05), (20, 0.05), (7, 0.2)):
            model = RocModel.from_gammas(np.full(M, 1.0))
            alloc = optimal_sizes(model, alpha)
            np.testing.assert_allclose(alloc.sizes, sidak_sizes(M, alpha).sizes, rtol=1e-9)

    def test_matches_grid_oracle_m2(self):
        model = RocModel.from_gammas([1.0, 2.0])
        alloc = optimal_sizes(model, 0.05)
        grid = grid_optimal_sizes(model, 0.05, step=1e-4)
        np.testing.assert_allclose(alloc.sizes, grid.best_sizes, atol=2e-4)
        assert grid.best_objective <= total_power(model, alloc.sizes) + 1e-6

    def test_zero_budget(self):
        model = RocModel.from_gammas([0.5, 3.0])
        alloc = optimal_sizes(model, 0.0)
        assert np.all(alloc.sizes == 0.0)

    def test_residual_invariants_on_random_panels(self):
        for model, alpha in random_panels(100, seed=101):
            alloc = optimal_sizes(model, alpha)
            assert abs(alloc.constraint_residual) < 1e-10
            assert alloc.stationarity_residual < 1e-6
            assert np.all(alloc.sizes >= 0.0) and np.all(alloc.sizes < 1.0)

    def test_dominates_sidak_on_random_panels(self):
        for model, alpha in random_panels(100, seed=202):
            opt = optimal_sizes(model, alpha).sizes
            sid = sidak_sizes(model.M, alpha).sizes
            assert total_power(model, opt) >= total_power(model, sid) - 1e-12

    def test_size_sum_bounds_on_random_panels(self):
        # alpha <= sum eta <= min(-log(1-alpha), M(1 - (1-alpha)^(1/M)))
        for model, alpha in random_panels(100, seed=303):
            total = optimal_sizes(model, alpha).sizes.sum()
            upper = min(-math.log1p(-alpha), model.M * -math.expm1(math.log1p(-alpha) / model.M))
            assert alpha - 1e-10 <= total <= upper + 1e-10

    def test_monotone_in_budget(self):
        model = RocModel.from_gammas([0.3, 1.0, 2.5, 6.0])
        grid = np.linspace(0.002, 0.6, 50)
        sizes = np.array([optimal_sizes(model, a).sizes for a in grid])
        assert np.all(np.diff(sizes, axis=0) >= -1e-12)

    def test_gamma_zero_coordinate(self):
        # Zero effect keeps marginal value 1 - eta; small budgets pin it at 0.
        model = RocModel.from_gammas([0.0, 2.0])
        alloc = optimal_sizes(model, 0.05)
        assert alloc.lagrange > 1.0
        assert alloc.sizes[0] <= 1e-12
        assert alloc.sizes[1] == pytest.approx(0.05, abs=0.002)

    def test_validation(self):
        model = RocModel.from_gammas([1.0])
        with pytest.raises(ValueError):
            optimal_sizes(model, 1.0)
        with pytest.raises(ValueError):
            RocModel.from_gammas([np.nan])

    @pytest.mark.parametrize("gammas", [[38.0], [40.0], [60.0], [40.0, 1.0, 0.1]])
    def test_large_effects_solve(self, gammas):
        # Near gamma = 40, c = log d + gamma^2/2 ~ 800 carries rounding of
        # 1e-13, beyond an absolute stopping test; at gamma = 60 the root
        # sits at log d ~ -1700, far from d = 1.
        alloc = optimal_sizes(RocModel.from_gammas(gammas), 0.05)
        assert abs(alloc.constraint_residual) <= 1e-12
        assert np.all(alloc.sizes >= 0.0) and np.all(alloc.sizes < 1.0)
        if len(gammas) == 1:
            assert alloc.sizes[0] == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("gammas, alpha", [
        ([1e-300] * 50, 1e-12),          # sizes far below an absolute tolerance
        ([1.0] + [0.0] * 11, 1e-13),     # a budget below an absolute gap tolerance
        ([1e-15] + [0.0] * 199, 1e-15),  # the whole bracket narrower than 1e-13
        ([23.0, 0.0], 1e-250),           # log d ~ 513, where one ulp exceeds 1e-13
        ([0.0] + [1e-13] * 152, 1 - 1e-15),  # gap slope 153 on a tiny bracket
        ([0.0, 1e-12], 1 - 2**-53),      # Sidak size within 1e-16 of 1
        ([0.0], 1e-323),                 # log(1 - alpha) below log Phi's underflow
        ([1e-320, 0.0], 5e-311),         # a subnormal effect at the underflow edge
        ([0.0, 2.5], 5.29313632357417e-305),  # gamma = 0 where phi(v) underflows
        ([26.0, 27.0, 0.0], 1.175494351e-38),  # a gap flat on the Newton side
        ([9.5e-301, 5e-301], 1e-300),    # a bracket born narrower than OUTER_TOL
        ([1.0, 2.0], 1e-250),            # budgets below the scale floor of 1e-200,
        ([0.5, 0.5, 0.5, 3.0], 1e-220),  # where an absolute tolerance is wider
        ([1.0, 2.0], 1e-300),            # than the whole bracket
        ([2.2e-313, 1.0], 0.05),         # a warm start across phi(v) = 0
    ])
    def test_extreme_budgets(self, gammas, alpha):
        alloc = optimal_sizes(RocModel.from_gammas(gammas), alpha)
        assert abs(alloc.constraint_residual) <= 1e-12
        # Relative to the budget down to where LOG_PHI_FLUSH still allows it.
        if alpha >= 1e-297:
            assert abs(alloc.constraint_residual) <= 1e-12 * -math.log1p(-alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        gammas=ANY_GAMMAS,
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_any_valid_panel_meets_the_budget(self, gammas, alpha):
        alloc = optimal_sizes(RocModel.from_gammas(gammas), alpha)
        assert abs(alloc.constraint_residual) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(gammas=ANY_GAMMAS, alpha=ANY_ALPHA)
    def test_matches_the_previous_multiplier_solve(self, gammas, alpha):
        alloc = optimal_sizes(RocModel.from_gammas(gammas), alpha)
        budget = -math.log1p(-alpha)
        assert abs(alloc.constraint_residual) <= 1e-12
        if alpha >= 1e-297:
            assert abs(alloc.constraint_residual) <= 1e-12 * budget
        gs, inverse, counts = np.unique(gammas, return_inverse=True, return_counts=True)
        log_d = reference_solve_multiplier(gs, counts.astype(float), alpha)
        _, log1m = _size_profile(gs, log_d)
        # Both multipliers meet the budget to OUTER_TOL, not exactly: a
        # size far below the budget can be steep in log d (gamma = 0.044
        # with a size of 2.8e-89 at a budget of 0.34 moves by 454 times the
        # relative change of d), so it agrees to 1e-12 of the budget.  Where
        # log Phi flushes to 0, each solve stops within LOG_PHI_FLUSH of it.
        np.testing.assert_allclose(alloc.log1m_sizes, log1m[inverse], rtol=1e-12,
                                   atol=1e-12 * min(1.0, budget) + 2.0 * LOG_PHI_FLUSH)

    @pytest.mark.parametrize("gammas, alpha", [
        ([61.35550278619238, 50.060125298535276, 76.55427061599703, 0.0],
         1.320761950674299e-65),
        ([0.0, 73.11323811174559, 0.0, 98.12836673137328, 76.76640304089433,
          85.38354591536633, 64.66747927211915, 95.9680073065687, 65.53215992298738, 0.0],
         3.387590886215028e-113),
    ])
    def test_zero_effects_taking_the_budget_solve_in_few_profiles(
            self, gammas, alpha, monkeypatch):
        # The zero effects take the budget, so L = log d is linear and
        # the root lies a few budget units below the upper Sidak end,
        # 10^68 and more of those units above the start; over most of the
        # bracket the other sizes round to 0.
        calls = []
        monkeypatch.setattr(allocate, "_size_profile",
                            lambda *a, **k: calls.append(1) or _size_profile(*a, **k))
        alloc = optimal_sizes(RocModel.from_gammas(gammas), alpha)
        assert len(calls) <= 7
        assert abs(alloc.constraint_residual) <= 1e-12 * -math.log1p(-alpha)

    def test_far_tail_sizes_do_not_creep(self, monkeypatch):
        # Both effects are ~1e-300, so each v sits near 37, where log Phi(v)
        # is about -1e-300: from a start in the body the Halley step on the
        # equation advances v by about 2/v.
        evaluated = []

        def counting_log_ndtr(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return log_ndtr(x, *args, **kwargs)

        monkeypatch.setattr(allocate, "log_ndtr", counting_log_ndtr)
        alloc = optimal_sizes(RocModel.from_gammas([9.5e-301, 5e-301]), 1e-300)
        assert sum(evaluated) <= 100
        assert abs(alloc.constraint_residual) <= 1e-12


def assert_matches_newton(gamma, c, v, log_phi):
    """(v, log Phi(v)) from ``_solve_v`` against the Newton reference."""
    assert np.array_equal(log_phi, log_ndtr(v))
    v_ref = newton_solve_v(gamma, c)
    reference = log_ndtr(v_ref)
    # Where log Phi has flushed to 0 the Newton solve stops whatever its
    # err, as r underflows in its relative test; there the new solve
    # must leave no larger an error in the equation.
    ref_err = np.abs(gamma * v_ref - c)
    blind = (reference == 0.0) & (v_ref < V_HI) & (ref_err > LOG_PHI_FLUSH)
    assert np.all(np.abs(log_phi + gamma * v - c)[blind] <= ref_err[blind])
    gap = np.abs(log_phi - reference)[~blind]
    assert np.all(gap <= newton_tolerance(v_ref, reference)[~blind])


class TestInnerSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        head=st.integers(0, 64).flatmap(lambda k: st.tuples(
            arrays(float, k, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
            arrays(float, k, elements=st.one_of(
                st.floats(-5000.0, 5000.0), st.floats(-50.0, 5.0), st.floats(-1e-12, 0.0))))),
        n=st.integers(1, 2 * SOLVE_BLOCK + 100),
        seed=st.integers(0, 2**32 - 1),
        cut=st.floats(0.0, 1.0),
    )
    def test_matches_newton_and_ignores_blocks(self, head, n, seed, cut):
        # The drawn head, then random elements up to length n: gammas in
        # [0, 100] with exact zeros, and targets c both spanning the two
        # corner clamps and concentrated where the root is interior.
        rng = np.random.default_rng(seed)
        tail = max(0, n - head[0].size)
        gamma = np.concatenate([head[0], np.where(
            rng.random(tail) < 0.1, 0.0, rng.uniform(0.0, 100.0, tail))])
        c = np.concatenate([head[1], np.where(
            rng.random(tail) < 0.2, rng.uniform(-5000.0, 5000.0, tail),
            rng.uniform(-50.0, 5.0, tail))])
        v, log_phi = _solve_v(gamma, c)
        assert_matches_newton(gamma, c, v, log_phi)
        k = int(cut * gamma.size)
        v_a, log_phi_a = _solve_v(gamma[:k], c[:k])
        v_b, log_phi_b = _solve_v(gamma[k:], c[k:])
        assert np.array_equal(np.concatenate([v_a, v_b]), v)
        assert np.array_equal(np.concatenate([log_phi_a, log_phi_b]), log_phi)

    @settings(max_examples=60, deadline=None)
    @given(
        cases=st.integers(1, 300).flatmap(lambda k: st.tuples(
            arrays(float, k, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
            arrays(float, k, elements=st.one_of(
                st.floats(-5000.0, 5000.0), st.floats(-50.0, 5.0), st.floats(-1e-12, 0.0))),
            arrays(float, k, elements=st.one_of(
                st.floats(-40.0, 40.0), st.floats(-1e6, 1e6),
                st.sampled_from([math.inf, -math.inf, math.nan]))))),
    )
    def test_any_guess_matches_newton(self, cases):
        # A guess, finite inside or far outside [V_LO, V_HI], infinite or
        # NaN, changes where the solve starts, not what it returns.
        gamma, c, guess = cases
        v, log_phi = _solve_v(gamma, c, guess=guess)
        assert_matches_newton(gamma, c, v, log_phi)
        v_cold, _ = _solve_v(gamma, c)
        for end in (V_LO, V_HI):
            assert np.array_equal(v == end, v_cold == end)


class TestSolveCost:
    def test_warm_started_profiles_on_a_large_panel(self, monkeypatch):
        # The count of size profiles and of log Phi evaluations that an
        # allocation costs, on the paper's effect-size model at M = 20,000.
        gammas = np.abs(np.random.default_rng(20260809).normal(2.0, 1.0, 20_000))
        profiles, evaluated = [], []

        def counting_profile(*args, **kwargs):
            profiles.append(1)
            return _size_profile(*args, **kwargs)

        def counting_log_ndtr(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return log_ndtr(x, *args, **kwargs)

        monkeypatch.setattr(allocate, "_size_profile", counting_profile)
        monkeypatch.setattr(allocate, "log_ndtr", counting_log_ndtr)
        alloc = optimal_sizes(RocModel.from_gammas(gammas), 0.05)
        assert abs(alloc.constraint_residual) <= 1e-12 * -math.log1p(-0.05)
        assert len(profiles) <= 4
        # 6.27 per gamma when each profile starts from the last one, 7.09
        # when every profile starts cold.
        assert sum(evaluated) / gammas.size <= 6.7


class TestClustered:
    @settings(max_examples=200, deadline=None)
    @given(
        gammas=st.integers(1, 200).flatmap(lambda m: arrays(
            float, m, elements=st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.5, 7.0]))),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_expansion_matches_per_hypothesis_solve(self, gammas, alpha, seed):
        # optimal_sizes solves once per distinct gamma, the direct solve once
        # per hypothesis.  Their budget sums round differently, so a size
        # holding a small share of the budget can move by more than 1e-12
        # of itself, but not by more than 1e-12 of the budget.
        model = RocModel.from_gammas(gammas)
        alloc = optimal_sizes(model, alpha)
        direct_log1m = _solve_multiplier(gammas, np.ones(gammas.size), alpha)[2]
        np.testing.assert_allclose(alloc.log1m_sizes, direct_log1m, rtol=1e-12,
                                   atol=1e-12 * min(1.0, -math.log1p(-alpha)))
        for g in np.unique(gammas):
            tied = alloc.sizes[gammas == g]
            assert np.array_equal(tied, np.full(tied.size, tied[0]))
        perm = np.random.default_rng(seed).permutation(gammas.size)
        permuted = optimal_sizes(RocModel.from_gammas(gammas[perm]), alpha)
        assert np.array_equal(permuted.sizes, alloc.sizes[perm])
        assert np.array_equal(permuted.log1m_sizes, alloc.log1m_sizes[perm])

    def test_single_cluster_is_sidak(self):
        for g in (0.2, 1.0, 5.0):
            sizes = optimal_sizes(RocModel.from_gammas(np.full(8, g)), 0.05).sizes
            assert np.all(sizes == sizes[0])
            assert sizes[0] == pytest.approx(sidak_sizes(8, 0.05).sizes[0], rel=1e-9)


class TestSizeMap:
    """eta_m(alpha) is coordinate m of optimal_sizes(model, alpha)."""

    def test_exchangeable_closed_form(self):
        model = RocModel.from_gammas(np.full(10, 2.0))
        for alpha in (0.01, 0.05, 0.3):
            expected = 1.0 - (1.0 - alpha) ** 0.1
            sizes = optimal_sizes(model, alpha).sizes
            for m in (0, 5, 9):
                assert sizes[m] == pytest.approx(expected, rel=1e-9)

    def test_zero_budget(self):
        model = RocModel.from_gammas([1.0, 3.0])
        assert optimal_sizes(model, 0.0).sizes[0] == 0.0


class TestSizeMapInverse:
    """The budget W_m at which test m first receives size s_m is the
    budget-scale p-value of generalized_pvalues."""

    def test_exchangeable_closed_form(self):
        model = RocModel.from_gammas(np.full(10, 1.5))
        w = generalized_pvalues(model, np.full(10, 0.01))[0]
        assert w == pytest.approx(1.0 - 0.99 ** 10, rel=1e-10)
        assert w == pytest.approx(0.09562, abs=5e-6)

    def test_zero_size(self):
        model = RocModel.from_gammas([1.0, 2.0])
        assert generalized_pvalues(model, [0.3, 0.0])[1] == 0.0

    def test_round_trip_heterogeneous(self):
        model = RocModel.from_gammas([1.0, 2.0])
        w = generalized_pvalues(model, [0.02, 0.5])[0]
        assert abs(optimal_sizes(model, w).sizes[0] - 0.02) <= 1e-10

    def test_round_trip_random(self):
        # Stay inside each coordinate's attainable range: high-effect tests
        # keep small sizes at every budget, so their range can be narrow.
        rng = np.random.default_rng(404)
        for _ in range(6):
            M = int(rng.integers(1, 13))
            model = RocModel.from_gammas(rng.uniform(0.1, 8.0, M))
            caps = optimal_sizes(model, 0.999).sizes
            s = rng.uniform(1e-8, 0.9 * caps)
            w = generalized_pvalues(model, s)
            for m in range(M):
                assert abs(optimal_sizes(model, w[m]).sizes[m] - s[m]) <= 1e-10

    def test_saturation(self):
        # A p-value of 1 exceeds every size allocated below budget 1.
        model = RocModel.from_gammas([1.0, 1.0])
        assert generalized_pvalues(model, [0.3, 1.0])[1] == 1.0

    def test_saturation_narrow_range_coordinate(self):
        # A strong test in a mixed panel never gets a moderate size: the
        # rest of the panel exhausts the budget first.
        model = RocModel.from_gammas([0.5, 0.7, 1.0, 8.0])
        assert optimal_sizes(model, math.nextafter(1.0, 0.0)).sizes[3] < 0.3
        assert generalized_pvalues(model, [0.1, 0.2, 0.3, 0.3])[3] == 1.0

    def test_validation(self):
        model = RocModel.from_gammas([1.0])
        for bad in (1.1, -0.1, math.nan):
            with pytest.raises(ValueError):
                generalized_pvalues(model, [bad])
        with pytest.raises(ValueError):
            generalized_pvalues(model, [0.1, 0.2])


class TestSizeCondition:
    def test_exchangeable_always_satisfied(self):
        model = RocModel.from_gammas(np.full(6, 1.0))
        report = check_size_condition(model, np.linspace(0.01, 0.5, 20))
        assert report.satisfied
        assert report.worst_ratio == pytest.approx(5.0 / 6.0, rel=1e-9)

    def test_heterogeneous_violation(self):
        # Moderate/low effect mix concentrates size: 3 * 0.0245 > 0.0508.
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        report = check_size_condition(model, [0.01, 0.05, 0.1])
        assert not report.satisfied
        assert report.worst_ratio > 1.0

    def test_single_test_vacuous(self):
        model = RocModel.from_gammas([3.0])
        report = check_size_condition(model, [0.05])
        assert report.satisfied
        assert report.worst_ratio == 0.0

    def test_grid_validation(self):
        model = RocModel.from_gammas([1.0])
        with pytest.raises(ValueError):
            check_size_condition(model, [])
        with pytest.raises(ValueError):
            check_size_condition(model, [0.0, 0.05])
