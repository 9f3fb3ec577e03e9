"""Monte Carlo harness: panel generation, loss accounting, efficiency, and
cell/table runs with their determinism contracts."""

import dataclasses

import numpy as np
import pytest

from poweralloc import (
    PROCEDURE_TAGS,
    RocModel,
    ScenarioConfig,
    decide_bh,
    decide_bonferroni,
    decide_fdr_opt,
    decide_stepdown_sidak,
    decide_strong_fwer,
    decide_weak_fwer,
    efficiency_vs_sidak,
    fdr_null_bounds,
    generate_panel,
    procedures,
    run_cell,
    run_table,
    sim,
)
from poweralloc.allocate import SOLVE_BLOCK
from poweralloc.sim import ReplicateTable, _replicate_table


def make_config(**overrides):
    base = dict(M=20, p=0.2, nu=2.0, qstar=0.1, reps=50, seed=1234)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGeneratePanel:
    def test_bit_identical_replay(self):
        config = make_config()
        a = generate_panel(config, 17)
        b = generate_panel(config, 17)
        np.testing.assert_array_equal(a.theta.theta, b.theta.theta)
        np.testing.assert_array_equal(a.xi, b.xi)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.s, b.s)

    def test_replicates_differ(self):
        config = make_config()
        a = generate_panel(config, 0)
        b = generate_panel(config, 1)
        assert not np.array_equal(a.x, b.x)

    def test_global_null(self):
        panel = generate_panel(make_config(p=0.0), 3)
        assert panel.theta.n_alternatives == 0
        assert np.all(panel.theta.theta == 0)

    def test_all_alternatives_high_power(self):
        panel = generate_panel(make_config(p=1.0, nu=8.0, M=200), 0)
        assert panel.theta.n_alternatives == 200
        # Effect ~8 standard deviations: nearly every p-value is tiny.
        assert np.mean(panel.s < 1e-4) > 0.95

    def test_pvalues_match_observations(self):
        from scipy.special import ndtr
        panel = generate_panel(make_config(), 5)
        np.testing.assert_allclose(panel.s, ndtr(-panel.x), rtol=1e-15)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            make_config(p=1.5)
        with pytest.raises(ValueError):
            make_config(reps=0)
        with pytest.raises(ValueError):
            make_config(procedures=("nope",))
        with pytest.raises(ValueError, match=r"repeated procedure tags \['bh'\]"):
            make_config(procedures=("bh", "bh", "fdr-opt"))

    def test_integral_floats_are_stored_as_counts(self):
        config = make_config(M=4.0, reps=2.0, seed=3.0)
        assert (config.M, config.reps, config.seed) == (4, 2, 3)
        assert all(type(x) is int for x in (config.M, config.reps, config.seed))
        cell = run_cell(config)
        assert cell.estimates == run_cell(make_config(M=4, reps=2, seed=3)).estimates

    @pytest.mark.parametrize("field, value", [
        ("M", True), ("reps", True), ("seed", 1.5), ("seed", "x"), ("p", "0.2"),
        ("nu", True), ("qstar", None),
    ])
    def test_a_non_number_is_refused_by_name(self, field, value):
        # Not read as 0 or 1, truncated, parsed, or left to fail in run_cell.
        with pytest.raises(ValueError, match=rf"^{field} must be an? (integer|number), got"):
            make_config(**{field: value})


class TestRiskMetrics:
    """The per-replicate losses that ``run_cell`` builds from its (reps, M)
    rejection and truth matrices, one row per replicate."""

    def test_mixed_counts(self):
        table = _replicate_table(np.array([[1, 1, 0, 0]], dtype=bool),
                                 np.array([[0, 1, 1, 0]], dtype=np.int8))
        assert table.fdp.tolist() == [0.5]
        assert table.missed.tolist() == [1]
        assert table.false_positives.tolist() == [1]
        assert table.true_positives.tolist() == [1]
        assert table.n_alternatives.tolist() == [2]
        assert table.mdr_std.tolist() == [0.5]

    def test_no_rejections_convention(self):
        table = _replicate_table(np.zeros((1, 3), dtype=bool),
                                 np.array([[1, 0, 1]], dtype=np.int8))
        assert table.fdp.tolist() == [0.0]
        assert table.missed.tolist() == [2]
        assert table.mdr_std.tolist() == [1.0]

    def test_all_null_any_rejection_is_false(self):
        table = _replicate_table(np.array([[0, 1, 0], [0, 0, 0]], dtype=bool),
                                 np.zeros((2, 3), dtype=np.int8))
        assert table.fdp.tolist() == [1.0, 0.0]
        assert table.mdr_std.tolist() == [0.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _replicate_table(np.zeros((1, 2), dtype=bool), np.array([[0, 1, 0]], dtype=np.int8))


class TestEfficiency:
    def test_table_style_values(self):
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        assert efficiency_vs_sidak(model, 0.05) == pytest.approx(113.6, abs=0.05)

    def test_exchangeable_is_hundred(self):
        model = RocModel.from_gammas(np.full(12, 2.0))
        assert efficiency_vs_sidak(model, 0.05) == pytest.approx(100.0, abs=1e-6)

    def test_twenty_tests_two_clusters(self):
        model = RocModel.from_gammas(np.repeat([1.0, 5.0], 10))
        assert efficiency_vs_sidak(model, 0.05) == pytest.approx(100.3, abs=0.05)


class TestRunCell:
    def test_deterministic(self):
        config = make_config(reps=40)
        a = run_cell(config)
        b = run_cell(config)
        for tag in config.procedures:
            assert a.estimates[tag] == b.estimates[tag]
            np.testing.assert_array_equal(a.replicates[tag].fdp, b.replicates[tag].fdp)

    def test_zero_budget_rejects_nothing(self):
        config = make_config(qstar=0.0, reps=30)
        cell = run_cell(config)
        est = cell.estimates["fdr-opt"]
        assert est.fdr == 0.0
        assert est.etp == 0.0 and est.efp == 0.0
        table = cell.replicates["fdr-opt"]
        has_alt = table.n_alternatives > 0
        assert np.all(table.mdr_std[has_alt] == 1.0)

    def test_weak_fwer_matches_budget_at_global_null(self):
        config = make_config(p=0.0, qstar=0.1, reps=1500,
                             procedures=("weak-fwer-opt",))
        est = run_cell(config).estimates["weak-fwer-opt"]
        assert abs(est.fwer - 0.1) <= 3.0 * max(est.se_fwer, 1e-9)

    def test_every_tag_runs_its_rule(self, monkeypatch):
        # Each tag's reject matrix is its rule called directly on each
        # replicate, at the cell's budget: a mis-wired tag fails here.
        direct = {
            "weak-fwer-opt": lambda model, s, b: decide_weak_fwer(model, s, b),
            "strong-fwer-opt": lambda model, s, b: decide_strong_fwer(model, s, b),
            "fdr-opt": lambda model, s, b: decide_fdr_opt(model, s, b),
            "bh": lambda model, s, b: decide_bh(s, b),
            "stepdown-sidak": lambda model, s, b: decide_stepdown_sidak(s, b),
            "bonferroni": lambda model, s, b: decide_bonferroni(s, b),
        }
        assert set(direct) == set(PROCEDURE_TAGS)
        config = make_config(M=40, p=0.4, nu=3.0, qstar=0.2, reps=6, procedures=PROCEDURE_TAGS)
        rejects = []

        def recording(reject, theta):
            rejects.append(reject)
            return _replicate_table(reject, theta)

        monkeypatch.setattr(sim, "_replicate_table", recording)
        run_cell(config)
        panels = [generate_panel(config, rep) for rep in range(config.reps)]
        for tag, reject in zip(config.procedures, rejects, strict=True):
            expected = [direct[tag](RocModel.from_gammas(panel.xi), panel.s, config.qstar).reject
                        for panel in panels]
            np.testing.assert_array_equal(reject, np.stack(expected), err_msg=tag)

    def test_null_fdr_band(self):
        config = make_config(p=0.0, qstar=0.1, M=20, reps=1000,
                             procedures=("fdr-opt",))
        est = run_cell(config).estimates["fdr-opt"]
        lower, upper = fdr_null_bounds(20, 0.1)
        assert lower - 3.0 * est.se_fdr <= est.fdr <= upper + 3.0 * est.se_fdr


class TestSharedPanel:
    """A cell asking for both stepwise rules makes one pass over each
    replicate's panel, with the results of cells that each run one of the
    rules.  A pass at M <= 128 is one block, one size-profile call; above,
    it stops where W saturates."""

    RULES = ("fdr-opt", "strong-fwer-opt")

    @staticmethod
    def cold_cell(config):
        procedures._panel_memo.cache_clear()
        return run_cell(config)

    def test_one_solve_per_replicate(self, panel_solves):
        self.cold_cell(make_config(reps=7, procedures=self.RULES + ("bh", "weak-fwer-opt")))
        assert panel_solves == [[20]] * 7

    @pytest.mark.parametrize("M", [1, 5, 60, 300])
    @pytest.mark.parametrize("p", [0.0, 0.4])
    def test_equals_one_rule_per_cell(self, panel_solves, M, p):
        reps = 4
        both = self.cold_cell(make_config(M=M, p=p, reps=reps, procedures=self.RULES))
        if M * M <= SOLVE_BLOCK:
            assert panel_solves == [[M]] * reps
        else:
            # The rules share one pass per replicate, which stops where W
            # saturates: with the columns they read past it, no more than
            # one whole pass's worth.
            assert sum(panel_solves.begun) == reps
            assert sum(map(sum, panel_solves)) <= reps * M
        for tag in self.RULES:
            alone = self.cold_cell(make_config(M=M, p=p, reps=reps, procedures=(tag,)))
            assert both.estimates[tag] == alone.estimates[tag]
            for field in dataclasses.fields(ReplicateTable):
                x = getattr(both.replicates[tag], field.name)
                y = getattr(alone.replicates[tag], field.name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestRunTable:
    def test_singleton_grid_equals_run_cell(self):
        config = make_config(reps=30)
        table = run_table((config.M,), (config.p,), (config.nu,), config.qstar,
                          config.reps, config.seed, config.procedures)
        assert len(table) == 1
        direct = run_cell(config)
        for tag in config.procedures:
            assert table[0].estimates[tag] == direct.estimates[tag]

    def test_more_signal_means_fewer_misses(self):
        # Raising the effect-size location cannot hurt beyond noise.
        rows = run_table((20,), (0.2,), (1.0, 2.0), 0.1, reps=400, seed=99)
        for tag in ("fdr-opt", "bh"):
            low, high = (cell.estimates[tag] for cell in rows)
            noise = 2.0 * (low.se_mdr_std + high.se_mdr_std)
            assert high.mdr_std <= low.mdr_std + noise

    def test_parallel_cells_match_sequential(self):
        args = dict(Ms=(5, 10), ps=(0.3,), nus=(2.0,), qstar=0.1, reps=25, seed=7)
        sequential = run_table(**args)
        parallel = run_table(**args, workers=2)
        for seq, par in zip(sequential, parallel):
            assert seq.estimates == par.estimates
