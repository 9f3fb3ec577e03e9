"""Effect-size model and the Gaussian ROC functions."""

import math

import numpy as np
import pytest
from scipy import stats

from poweralloc import (
    RocModel,
    ScenarioConfig,
    concavity_check,
    generate_panel,
    norm_quantile,
    roc,
    roc_deriv,
)

GAMMAS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


from helpers import erfc_cdf as erfc_phi
from helpers import fd_power_deriv


class TestValidation:
    def test_model_needs_hypotheses(self):
        with pytest.raises(ValueError):
            RocModel(())

    def test_rejects_bad_gammas_and_is_read_only(self):
        for bad in ([], [1.0, np.nan], [np.inf], [2.0, -0.1], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                RocModel.from_gammas(bad)
        source = np.array([1.0, 2.0])
        model = RocModel.from_gammas(source)
        with pytest.raises(ValueError):
            model.gammas[0] = 5.0
        # The model owns its array: the caller's stays writable and apart.
        source[0] = 5.0
        assert model.gammas.tolist() == [1.0, 2.0]
        assert model.gammas is model.gammas

    def test_model_helpers(self):
        m = RocModel.from_gammas([1.0, 2.0])
        assert m.M == len(m) == 2
        assert m.gammas.tolist() == [1.0, 2.0]
        assert not m.exchangeable
        assert RocModel.from_gammas([3.0, 3.0]).exchangeable
        assert RocModel.from_gammas(0.5).gammas.tolist() == [0.5]


class TestRoc:
    def test_zero_effect_is_identity(self):
        eta = np.linspace(0, 1, 11)
        np.testing.assert_allclose(roc(0.0, eta), eta, atol=1e-14)

    def test_frozen_value(self):
        # gamma=1, eta=0.05: Phi(1 - Phi^{-1}(0.95)), via the erfc oracle.
        oracle = erfc_phi(1.0 - norm_quantile(0.95))
        assert roc(1.0, 0.05) == pytest.approx(oracle, rel=1e-13)
        assert roc(1.0, 0.05) == pytest.approx(0.2595, abs=5e-5)

    def test_boundaries(self):
        for g in GAMMAS:
            assert roc(g, 0.0) == 0.0
            assert roc(g, 1.0) == 1.0

    def test_dominates_diagonal_and_concave(self):
        for g in GAMMAS:
            report = concavity_check(lambda e: roc(g, e), 1001)
            assert report.passed, f"gamma={g}: worst violation {report.worst_violation}"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            roc(1.0, -0.01)

    def test_gamma_array_broadcasts(self):
        gammas = np.array(GAMMAS)
        eta = np.array([0.0, 0.01, 0.05, 0.2, 0.7, 1.0])
        expected = [roc(g, e) for g, e in zip(GAMMAS, eta)]
        assert roc(gammas, eta).tolist() == expected
        assert roc(gammas, 0.05).tolist() == [roc(g, 0.05) for g in GAMMAS]


class TestRandomizedPvalue:
    def test_null_uniformity_ks(self):
        # Under the null the p-value statistic S = 1 - Phi(x) is standard uniform.
        config = ScenarioConfig(M=100_000, p=0.0, nu=1.5, qstar=0.1, reps=1, seed=42)
        s = generate_panel(config, 0).s
        assert stats.kstest(s, "uniform").pvalue > 0.01


class TestRocDeriv:
    def test_zero_effect(self):
        assert roc_deriv(0.0, 0.37) == pytest.approx(1.0, abs=1e-14)

    def test_density_ratio_values(self):
        # At eta=0.5 the cutoff is z=0, so the ratio is exp(-gamma^2/2).
        assert roc_deriv(1.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-13)
        assert roc_deriv(2.0, 0.5) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_matches_finite_difference(self):
        eta = np.linspace(0.01, 0.99, 197)
        for g in GAMMAS:
            numeric = fd_power_deriv(g, eta)
            exact = roc_deriv(g, eta)
            np.testing.assert_allclose(exact, numeric, rtol=1e-5)

    def test_open_interval_only(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                roc_deriv(1.0, bad)

    def test_strictly_positive_in_tails(self):
        for eta in (1e-12, 1e-6, 1 - 1e-6):
            assert roc_deriv(8.0, eta) > 0.0
