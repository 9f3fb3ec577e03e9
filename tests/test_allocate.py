"""Size allocation: baselines, the Lagrange solve, the budget map and its
inverse, and the step-up size-condition diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poweralloc import (
    ClusterSpec,
    RocModel,
    SaturationError,
    bonferroni_sizes,
    check_size_condition,
    grid_optimal_sizes,
    optimal_sizes,
    optimal_sizes_clustered,
    roc,
    sidak_sizes,
    size_map,
    size_map_inverse,
)

ALPHAS = (0.01, 0.05, 0.2)


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
    ])
    def test_extreme_budgets(self, gammas, alpha):
        alloc = optimal_sizes(RocModel.from_gammas(gammas), alpha)
        assert abs(alloc.constraint_residual) <= 1e-12
        if alpha >= 1e-200:
            assert abs(alloc.constraint_residual) <= 1e-12 * -math.log1p(-alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        gammas=st.integers(1, 200).flatmap(lambda m: arrays(
            float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0)))),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_any_valid_panel_meets_the_budget(self, gammas, alpha):
        alloc = optimal_sizes(RocModel.from_gammas(gammas), alpha)
        assert abs(alloc.constraint_residual) <= 1e-12


class TestClustered:
    def test_expansion_matches_per_hypothesis_solve(self):
        spec = ClusterSpec((0.5, 1.0, 4.0), (3, 5, 2))
        clustered = optimal_sizes_clustered(spec, 0.05)
        expanded = clustered.expand()
        flat = RocModel.from_gammas(np.repeat(spec.cluster_gammas, spec.cluster_counts))
        direct = optimal_sizes(flat, 0.05)
        np.testing.assert_allclose(expanded.sizes, direct.sizes, atol=1e-9)
        assert abs(clustered.constraint_residual) < 1e-10
        assert clustered.stationarity_residual < 1e-6

    def test_single_cluster_is_sidak(self):
        for g in (0.2, 1.0, 5.0):
            clustered = optimal_sizes_clustered(ClusterSpec((g,), (8,)), 0.05)
            assert clustered.cluster_sizes[0] == pytest.approx(
                sidak_sizes(8, 0.05).sizes[0], rel=1e-9
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec((), ())
        with pytest.raises(ValueError):
            ClusterSpec((1.0,), (0,))
        with pytest.raises(ValueError):
            ClusterSpec((1.0, 2.0), (3,))


class TestSizeMap:
    def test_exchangeable_closed_form(self):
        model = RocModel.from_gammas(np.full(10, 2.0))
        for alpha in (0.01, 0.05, 0.3):
            expected = 1.0 - (1.0 - alpha) ** 0.1
            for m in (0, 5, 9):
                assert size_map(model, alpha, m) == pytest.approx(expected, rel=1e-9)

    def test_zero_budget(self):
        model = RocModel.from_gammas([1.0, 3.0])
        assert size_map(model, 0.0, 0) == 0.0

    def test_index_check(self):
        model = RocModel.from_gammas([1.0])
        with pytest.raises(IndexError):
            size_map(model, 0.05, 1)


class TestSizeMapInverse:
    def test_exchangeable_closed_form(self):
        model = RocModel.from_gammas(np.full(10, 1.5))
        w = size_map_inverse(model, 0, 0.01)
        assert w == pytest.approx(1.0 - 0.99 ** 10, rel=1e-10)
        assert w == pytest.approx(0.09562, abs=5e-6)

    def test_zero_size(self):
        model = RocModel.from_gammas([1.0, 2.0])
        assert size_map_inverse(model, 1, 0.0) == 0.0

    def test_round_trip_heterogeneous(self):
        model = RocModel.from_gammas([1.0, 2.0])
        w = size_map_inverse(model, 0, 0.02)
        assert abs(size_map(model, w, 0) - 0.02) <= 1e-10

    def test_round_trip_random(self):
        # Stay inside each coordinate's attainable range: high-effect tests
        # keep small sizes at every budget, so their range can be narrow.
        rng = np.random.default_rng(404)
        model = RocModel.from_gammas(rng.uniform(0.1, 8.0, 12))
        caps = [size_map(model, 0.999, m) for m in range(12)]
        for _ in range(50):
            m = int(rng.integers(0, 12))
            s = float(rng.uniform(1e-8, 0.9 * caps[m]))
            w = size_map_inverse(model, m, s)
            assert abs(size_map(model, w, m) - s) <= 1e-10

    def test_saturation(self):
        model = RocModel.from_gammas([1.0, 1.0])
        with pytest.raises(SaturationError):
            size_map_inverse(model, 0, 1.0 - 1e-8)

    def test_saturation_narrow_range_coordinate(self):
        # A strong test in a mixed panel never gets a moderate size: the
        # rest of the panel exhausts the budget first.
        model = RocModel.from_gammas([0.5, 0.7, 1.0, 8.0])
        with pytest.raises(SaturationError) as exc:
            size_map_inverse(model, 3, 0.3)
        assert "attainable" in str(exc.value)

    def test_validation(self):
        model = RocModel.from_gammas([1.0])
        with pytest.raises(ValueError):
            size_map_inverse(model, 0, 1.0)
        with pytest.raises(IndexError):
            size_map_inverse(model, 3, 0.1)


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
