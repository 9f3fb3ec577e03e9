"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a single pass/fail line.  The heavy simulation grid
(27 cells x 2000 replicates) comes from the session fixtures in conftest.

Reference size/efficiency tables below are the published 4-decimal values
for the two-sided grid of effect-size configurations at a budget of 0.05
(the budget itself is inferred: it reproduces the equal-effect rows
exactly).  Entries printed as 0 are rounded small positives, asserted to
be below the rounding tolerance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from helpers import fd_power_deriv, pass_stop
from poweralloc import (
    RocModel,
    ScenarioConfig,
    allocate,
    bernoulli_tail_enumerate,
    concavity_check,
    decide_bh,
    decide_fdr_opt,
    decide_stepdown_sidak,
    decide_strong_fwer,
    efficiency_vs_sidak,
    fdr_null_bounds,
    generalized_pvalues,
    generate_panel,
    grid_optimal_sizes,
    optimal_sizes,
    procedures,
    roc,
    roc_deriv,
    run_cell,
    sidak_sizes,
)

ALPHA = 0.05  # inferred table budget; reproduces the equal-effect rows

# (config label, per-group gammas) -> {M: (per-group sizes, efficiency %)}
REFERENCE_TABLE = {
    "all-equal": ((1.0,), {4: ((0.0127,), 100.0), 20: ((0.0026,), 100.0)}),
    "half-.5-1": ((0.5, 1.0), {4: ((0.0009, 0.0245), 113.6), 20: ((0.0, 0.0051), 125.1)}),
    "half-1-2": ((1.0, 2.0), {4: ((0.0050, 0.0204), 104.5), 20: ((0.0001, 0.0050), 115.3)}),
    "half-1-5": ((1.0, 5.0), {4: ((0.0228, 0.0026), 103.6), 20: ((0.0035, 0.0016), 100.3)}),
    "quarter-.5-1-2-4": (
        (0.5, 1.0, 2.0, 4.0),
        {4: ((0.0001, 0.0128, 0.0303, 0.0075), 105.4), 20: ((0.0, 0.0003, 0.0068, 0.0031), 107.1)},
    ),
    "quarter-1-2-4-8": (
        (1.0, 2.0, 4.0, 8.0),
        {4: ((0.0128, 0.0304, 0.0075, 0.0), 105.0), 20: ((0.0003, 0.0068, 0.0031, 0.0), 104.3)},
    ),
}

SIZE_TOL = 5e-4       # reference table is 4-decimal rounded
EFFICIENCY_TOL = 0.3  # percentage points


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:02d} {label}: FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} {label}: PASS")


def test_criterion_01_size_table_reproduction():
    with criterion(1, "size/efficiency table reproduction"):
        start = time.perf_counter()
        for label, (group_gammas, by_m) in REFERENCE_TABLE.items():
            for M, (expected_sizes, expected_eff) in by_m.items():
                reps = M // len(group_gammas)
                model = RocModel.from_gammas(np.repeat(group_gammas, reps))
                alloc = optimal_sizes(model, ALPHA)
                got = alloc.sizes[::reps]  # first representative per group
                for g, got_i, want_i in zip(group_gammas, got, expected_sizes):
                    assert abs(got_i - want_i) <= SIZE_TOL, (
                        f"{label} M={M} gamma={g}: size {got_i:.6f} vs {want_i}"
                    )
                eff = efficiency_vs_sidak(model, ALPHA)
                assert abs(eff - expected_eff) <= EFFICIENCY_TOL, (
                    f"{label} M={M}: efficiency {eff:.2f} vs {expected_eff}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s (budget 1s)"


def test_criterion_02_large_panel_efficiency():
    with criterion(2, "large-panel efficiency (M=2000)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        wide = RocModel.from_gammas(rng.uniform(0.1, 10.0, 2000))
        assert efficiency_vs_sidak(wide, 0.05) == pytest.approx(103.5, abs=1.5)
        narrow = RocModel.from_gammas(rng.uniform(0.1, 2.0, 2000))
        assert efficiency_vs_sidak(narrow, 0.05) == pytest.approx(181.7, abs=8.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"large-panel solves took {elapsed:.1f}s (budget 30s)"


def test_criterion_03_grid_oracle_equivalence():
    with criterion(3, "solver vs exhaustive grid search"):
        rng = np.random.default_rng(31)
        cases = [2] * 12 + [3] * 8
        for M in cases:
            gammas = rng.uniform(0.3, 5.0, M)
            alpha = float(rng.uniform(0.01, 0.2))
            model = RocModel.from_gammas(gammas)
            alloc = optimal_sizes(model, alpha)
            solver_obj = float(roc(model.gammas, alloc.sizes).sum())
            grid = grid_optimal_sizes(model, alpha, step=1e-4)
            assert grid.best_objective <= solver_obj + 1e-6
            np.testing.assert_allclose(grid.best_sizes, alloc.sizes, atol=2e-4)


def test_criterion_04_lagrange_residuals():
    with criterion(4, "Lagrange residuals up to M=2000"):
        rng = np.random.default_rng(41)
        for _ in range(100):
            M = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
            model = RocModel.from_gammas(rng.uniform(0.1, 10.0, M))
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            alloc = optimal_sizes(model, alpha)
            assert abs(alloc.constraint_residual) < 1e-10
            assert alloc.stationarity_residual < 1e-6


def test_criterion_05_exchangeable_reductions():
    with criterion(5, "exchangeable reductions (step-up=BH, step-down=Sidak)"):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            M = int(rng.integers(1, 31))
            model = RocModel.from_gammas(np.full(M, rng.uniform(0.2, 5.0)))
            s = rng.uniform(0.0, 1.0, M) ** float(rng.uniform(0.5, 4.0))
            q = float(rng.uniform(0.01, 0.5))
            np.testing.assert_array_equal(
                decide_fdr_opt(model, s, q).reject, decide_bh(s, q).reject
            )
            np.testing.assert_array_equal(
                decide_strong_fwer(model, s, q).reject,
                decide_stepdown_sidak(s, q).reject,
            )


def test_criterion_06_fdr_control(paper_grid, null_grid):
    with criterion(6, "FDR control at q*=0.1 (subgrid + global null band)"):
        cells, _ = paper_grid
        checked = 0
        for cell in cells:
            cfg = cell.config
            if cfg.M in (20, 50) and cfg.p in (0.1, 0.4) and cfg.nu in (1.0, 2.0):
                for tag in ("fdr-opt", "bh"):
                    est = cell.estimates[tag]
                    assert est.fdr <= cfg.qstar + 3.0 * est.se_fdr, (
                        f"{tag} FDR {est.fdr:.4f} above budget in "
                        f"M={cfg.M} p={cfg.p} nu={cfg.nu}"
                    )
                checked += 1
        assert checked == 8
        for cell in null_grid:
            est = cell.estimates["fdr-opt"]
            lower, upper = fdr_null_bounds(cell.config.M, cell.config.qstar)
            assert lower - 3.0 * est.se_fdr <= est.fdr <= upper + 3.0 * est.se_fdr, (
                f"null FDR {est.fdr:.4f} outside [{lower:.4f}, {upper:.4f}] band "
                f"at M={cell.config.M}"
            )


def test_criterion_07_mdr_dominance(paper_grid):
    with criterion(7, "missed-discovery dominance over BH on all 27 cells"):
        cells, elapsed = paper_grid
        assert len(cells) == 27
        assert elapsed < 600.0, f"grid took {elapsed:.0f}s (budget 600s)"
        diffs = []
        for cell in cells:
            opt = cell.replicates["fdr-opt"].mdr_std
            bh = cell.replicates["bh"].mdr_std
            delta = opt - bh  # paired on identical panels
            se = float(delta.std(ddof=1) / math.sqrt(delta.size))
            assert delta.mean() <= se, (
                f"M={cell.config.M} p={cell.config.p} nu={cell.config.nu}: "
                f"mean MDR* difference {delta.mean():.5f} exceeds 1 SE ({se:.5f})"
            )
            diffs.append(delta.mean())
        assert np.mean(diffs) < 0.0, "no strict grid-wide improvement"


def test_criterion_08_null_uniformity():
    with criterion(8, "null uniformity of p-values and of W_(1)"):
        config = ScenarioConfig(M=100_000, p=0.0, nu=2.0, qstar=0.1, reps=1, seed=81)
        assert stats.kstest(generate_panel(config, 0).s, "uniform").pvalue > 0.01

        rng = np.random.default_rng(81)

        model = RocModel.from_gammas([0.3, 0.7, 1.1, 1.9, 2.6, 3.4, 4.1, 5.0, 6.2, 7.5])
        w1 = np.empty(10_000)
        for i in range(10_000):
            w1[i] = generalized_pvalues(model, rng.uniform(0.0, 1.0, 10)).min()
        assert stats.kstest(w1, "uniform").pvalue > 0.01


def test_criterion_09_bernoulli_tail_extremality():
    with criterion(9, "equal-size extremality of Bernoulli tail sums"):
        rng = np.random.default_rng(91)
        violations = 0
        for M in (2, 3, 4, 5, 6):
            for alpha in (0.1, 0.3):
                sidak = sidak_sizes(M, alpha).sizes
                for a in (1.0, 1.5, 2.0):
                    bound = bernoulli_tail_enumerate(sidak, a)
                    for _ in range(50):
                        weights = rng.dirichlet(np.ones(M))
                        eta = -np.expm1(np.log1p(-alpha) * weights)
                        if bernoulli_tail_enumerate(eta, a) > bound + 1e-12:
                            violations += 1
        assert violations == 0


def test_criterion_10_roc_property_suite():
    with criterion(10, "ROC shape and derivative agreement"):
        eta = np.linspace(0.01, 0.99, 197)
        for g in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            report = concavity_check(lambda e: roc(g, e), 1001)
            assert report.passed, f"gamma={g}: shape violation {report.worst_violation}"
            np.testing.assert_allclose(
                roc_deriv(g, eta), fd_power_deriv(g, eta), rtol=1e-5,
                err_msg=f"derivative mismatch at gamma={g}",
            )


def test_criterion_11_fdr_control_at_m1000():
    with criterion(11, "FDR control at M=1000 (p=0.2, nu=2)"):
        # Most W round to 1.0 here; the step-up rule must still scan in the
        # exact log-d order.
        config = ScenarioConfig(M=1000, p=0.2, nu=2.0, qstar=0.1, reps=200, seed=111,
                                procedures=("fdr-opt",))
        est = run_cell(config).estimates["fdr-opt"]
        assert est.fdr <= config.qstar + 3.0 * est.se_fdr, (
            f"FDR {est.fdr:.4f} (se {est.se_fdr:.4f}) above q = {config.qstar}"
        )


def test_criterion_12_one_pass_per_panel(monkeypatch):
    with criterion(12, "stepwise rules and W solve no pair twice, under M^2 / 4 at M=1000"):
        solved = []
        solve = procedures._size_profile
        monkeypatch.setattr(procedures, "_size_profile", lambda gammas, log_d, *args: (
            solved.append(np.ravel(log_d)) or solve(gammas, log_d, *args)))
        for M, rep in ((20, 0), (100, 1), (128, 2), (1000, 0)):
            panel = generate_panel(ScenarioConfig(M=M, p=0.2, nu=2.0, qstar=0.1, reps=1,
                                                  seed=121), rep)
            model = RocModel.from_gammas(panel.xi)
            procedures._panel_memo.cache_clear()
            solved.clear()
            decide_fdr_opt(model, panel.s, 0.1)
            decide_strong_fwer(model, panel.s, 0.1)
            generalized_pvalues(model, panel.s)
            # The panel's multipliers are distinct, so a column solved twice
            # shows as a repeated one.
            assert np.unique(allocate._log_marginal_value(panel.xi, panel.s)).size == M
            columns = np.concatenate(solved)
            assert np.unique(columns).size == columns.size, f"M={M}: a column solved twice"
            if M <= 128:
                # The pass solves the scan's columns in order and stops after
                # the block where W saturates.
                pass_ = procedures._panel(model, panel.s)
                k = pass_.solved
                assert k == pass_stop(panel.xi, panel.s) < M, f"M={M}: stopped at {k}"
                log_d = allocate._log_marginal_value(panel.xi, panel.s)
                assert np.array_equal(columns[:k], log_d[pass_.order[:k]]), f"M={M}"
            else:
                # The pass stops where W saturates.
                assert columns.size <= M / 4, f"M={M}: {columns.size / M:.3f} of M^2 pairs"
