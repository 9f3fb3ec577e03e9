"""Brute-force verifiers: boundary grid search, exhaustive Bernoulli tails,
ROC shape checks."""

import numpy as np
import pytest
from scipy import stats

from poweralloc import (
    RocModel,
    bernoulli_tail_enumerate,
    concavity_check,
    grid_optimal_sizes,
    optimal_sizes,
    roc,
    sidak_sizes,
)


def total_power(model, sizes):
    return float(roc(model.gammas, sizes).sum())


def boundary_point(rng, M, alpha):
    """Random size vector on sum log(1-eta) = log(1-alpha)."""
    weights = rng.dirichlet(np.ones(M))
    return -np.expm1(np.log1p(-alpha) * weights)


class TestGridSearch:
    def test_symmetric_case_recovers_sidak(self):
        model = RocModel.from_gammas([1.0, 1.0])
        res = grid_optimal_sizes(model, 0.05, step=1e-4)
        expected = sidak_sizes(2, 0.05).sizes
        np.testing.assert_allclose(res.best_sizes, expected, atol=2e-5)
        assert res.best_sizes[0] == pytest.approx(0.0253, abs=1e-4)

    def test_beats_sidak_when_heterogeneous(self):
        model = RocModel.from_gammas([1.0, 2.0])
        res = grid_optimal_sizes(model, 0.05, step=1e-4)
        sid = total_power(model, sidak_sizes(2, 0.05).sizes)
        assert res.best_objective >= sid

    def test_m3_cross_check_against_solver(self):
        model = RocModel.from_gammas([0.5, 1.0, 2.0])
        res = grid_optimal_sizes(model, 0.05, step=1e-3)
        solver_obj = total_power(model, optimal_sizes(model, 0.05).sizes)
        assert res.best_objective <= solver_obj + 1e-6
        assert res.best_objective >= solver_obj - 1e-4  # grid resolution slack

    def test_boundary_constraint_holds(self):
        model = RocModel.from_gammas([0.7, 3.0])
        res = grid_optimal_sizes(model, 0.2, step=1e-3)
        assert np.log1p(-res.best_sizes).sum() == pytest.approx(np.log1p(-0.2), rel=1e-12)

    def test_rejects_large_m_and_bad_step(self):
        with pytest.raises(ValueError):
            grid_optimal_sizes(RocModel.from_gammas([1, 1, 1, 1]), 0.05, 1e-3)
        with pytest.raises(ValueError):
            grid_optimal_sizes(RocModel.from_gammas([1, 1]), 0.05, 0.5)


class TestBernoulliTail:
    def test_two_halves(self):
        assert bernoulli_tail_enumerate([0.5, 0.5], 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_zero_threshold_certain(self):
        assert bernoulli_tail_enumerate([0.1, 0.9, 0.4], 0.0) == 1.0

    def test_single_bernoulli(self):
        assert bernoulli_tail_enumerate([0.3], 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_against_binomial_distribution(self):
        # Equal probabilities: the sum is Binomial(M, eta).
        M, eta, a = 10, 0.3, 1.2
        exact = bernoulli_tail_enumerate(np.full(M, eta), a)
        k_min = int(np.ceil(a * M * eta - 1e-12))
        oracle = float(1.0 - stats.binom.cdf(k_min - 1, M, eta))
        assert exact == pytest.approx(oracle, rel=1e-12)

    def test_extremal_at_equal_probabilities(self):
        # On the budget boundary the equal-size vector maximizes the tail.
        rng = np.random.default_rng(77)
        M, alpha, a = 4, 0.3, 1.5
        sidak = sidak_sizes(M, alpha).sizes
        h_sidak = bernoulli_tail_enumerate(sidak, a)
        for _ in range(25):
            eta = boundary_point(rng, M, alpha)
            assert bernoulli_tail_enumerate(eta, a) <= h_sidak + 1e-12

    def test_rejects_large_m(self):
        with pytest.raises(ValueError):
            bernoulli_tail_enumerate(np.full(21, 0.5), 1.0)

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            bernoulli_tail_enumerate([0.5, 1.5], 1.0)


class TestConcavityCheck:
    def test_gaussian_families_pass(self):
        for g in (1.0, 8.0):
            report = concavity_check(lambda e: roc(g, e), 500)
            assert report.passed
            assert report.worst_violation <= 1e-12

    def test_convex_counterexample_fails(self):
        report = concavity_check(lambda e: np.asarray(e) ** 2, 101)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.25, abs=1e-12)

    def test_decreasing_counterexample_fails(self):
        report = concavity_check(lambda e: 1.0 - np.asarray(e), 11)
        assert not report.passed

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            concavity_check(lambda e: e, 2)
