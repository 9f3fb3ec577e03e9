"""Monte Carlo harness: panel generation, loss accounting, efficiency, and
cell/table runs with their determinism contracts."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers

from poweralloc import (
    PROCEDURE_TAGS,
    RocModel,
    ScenarioConfig,
    allocate,
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

    def test_an_allocation_budget_of_one_is_refused_by_name(self):
        # The weak-FWER rule's budget is an allocation's, below 1; the
        # other rules take a budget of 1.
        with pytest.raises(ValueError, match=r"qstar must lie in \[0, 1\) for \['weak-fwer-opt'\]"):
            make_config(qstar=1.0, procedures=("bh", "weak-fwer-opt"))
        for tags in (("fdr-opt", "bonferroni"), PROCEDURE_TAGS[1:]):
            config = make_config(qstar=1.0, reps=3, procedures=tags)
            assert set(run_cell(config).estimates) == set(tags)

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
    rules.  Each pass stops where both rules are decided, or where W
    saturates.  At M <= 128 the passes of SOLVE_BLOCK // (16 M) replicates
    are made together, one size-profile call per block of 16 columns of
    each replicate that a rule needs more of."""

    RULES = ("fdr-opt", "strong-fwer-opt")

    @staticmethod
    def cold_cell(config):
        procedures._panel_memo.cache_clear()
        return run_cell(config)

    @staticmethod
    def assert_stacked_passes(panel_solves, config):
        # The passes begin SOLVE_BLOCK // (16 M) replicates at a time, and
        # each solves the columns of its replicate's prefix once, a block of
        # at most 16 per solve, as far as the two rules at qstar need it;
        # the rules read no column past a prefix.
        M, reps = config.M, config.reps
        per_solve = SOLVE_BLOCK // (procedures.PASS_BLOCK * M)
        assert [n for n in panel_solves.begun if n] == [
            min(per_solve, reps - r) for r in range(0, reps, per_solve)]
        assert all(len(blocks) == 1 for blocks in panel_solves)
        assert all(c.ndim == 2 and c.shape[1] <= procedures.PASS_BLOCK
                   for c in panel_solves.cols)
        solved = sum(helpers.reader_stop(panel.xi, panel.s, config.qstar)
                     for panel in map(functools.partial(generate_panel, config), range(reps)))
        assert sum(map(sum, panel_solves)) == solved

    def test_one_solve_per_replicate(self, panel_solves):
        for M, reps in ((20, 7), (50, 7), (100, 3)):
            panel_solves.clear()
            config = make_config(M=M, reps=reps,
                                 procedures=self.RULES + ("bh", "weak-fwer-opt"))
            self.cold_cell(config)
            self.assert_stacked_passes(panel_solves, config)
            # 51 replicates of 20 fit one solve of 16 columns each; 20 of 50
            # and 10 of 100.
            assert panel_solves.begun[0] == reps

    @pytest.mark.parametrize("M", [1, 5, 60, 300])
    @pytest.mark.parametrize("p", [0.0, 0.4])
    def test_equals_one_rule_per_cell(self, panel_solves, M, p):
        reps = 4
        config = make_config(M=M, p=p, reps=reps, procedures=self.RULES)
        both = self.cold_cell(config)
        if M * M <= SOLVE_BLOCK:
            self.assert_stacked_passes(panel_solves, config)
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

    def test_the_paper_grid_reads_nothing_past_the_passes(self, panel_solves):
        # On the 27 paper cells of the benchmark's mix (seed 5, 10
        # replicates), the rules read no column past a pass: every solve is
        # a block of a stacked pass, with no step-up probe and no step-down
        # resume.  At M = 100 the passes solve at most 0.6 of the pairs,
        # and at most 0.4 now that they stop where the rules are decided
        # (0.336 here; 0.53 where they stopped where W saturates).
        for M in (20, 50, 100):
            pairs = 0
            for p in (0.1, 0.2, 0.4):
                for nu in (1.0, 2.0, 4.0):
                    panel_solves.clear()
                    run_cell(make_config(M=M, p=p, nu=nu, qstar=0.1, reps=10, seed=5,
                                         procedures=("fdr-opt", "bh", "strong-fwer-opt",
                                                     "weak-fwer-opt")))
                    assert all(c.ndim == 2 for c in panel_solves.cols), (M, p, nu)
                    pairs += M * sum(c.size for c in panel_solves.cols)
            assert M < 100 or pairs <= 0.6 * 9 * 10 * M * M
            assert M < 100 or pairs <= 0.4 * 9 * 10 * M * M


def extension_calls(starts, stops, M: int) -> int:
    """The ``_panel_blocks`` calls of one reader's extension of a group of
    passes at M <= 128 from the prefixes ``starts`` to ``stops``: a call per
    round of blocks of 16 columns, and a second one in a round where some
    of the passes are in the shorter last block of the scan and some are
    not."""
    width = procedures.PASS_BLOCK
    at, stops, calls = np.array(starts), np.array(stops), 0
    while np.any(at < stops):
        live = at < stops
        last = live & (M - at < width)
        calls += int(np.any(live & ~last)) + int(np.any(last))
        at = np.where(live, np.minimum(at + width, M), at)
    return calls


class TestStackedCell:
    """A cell decides its replicates as one stack, and each replicate's
    decisions are bitwise those of the per-replicate cell it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        M=st.one_of(st.integers(1, 140), st.sampled_from([1, 90, 91, 128, 129])),
        reps=st.integers(1, 12),
        tags=st.lists(st.sampled_from(PROCEDURE_TAGS), min_size=1, unique=True),
        p=st.sampled_from([0.0, 0.4, 1.0]),
        nu=st.sampled_from([0.0, 1.0, 3.0]),
        qstar=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_replicate_cell(self, M, reps, tags, p, nu, qstar, seed):
        assume(qstar < 1.0 or "weak-fwer-opt" not in tags)
        config = make_config(M=M, reps=reps, procedures=tuple(tags), p=p, nu=nu, qstar=qstar,
                             seed=seed)
        rejects = []

        def recording(reject, theta):
            rejects.append(reject.copy())
            return _replicate_table(reject, theta)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_replicate_table", recording)
            stacked = run_cell(config)
        reference, reference_rejects = helpers.reference_run_cell(config)
        for tag, got in zip(config.procedures, rejects, strict=True):
            assert got.tobytes() == reference_rejects[tag].tobytes(), tag
            assert stacked.estimates[tag] == reference.estimates[tag], tag
            for field in dataclasses.fields(ReplicateTable):
                x = getattr(stacked.replicates[tag], field.name)
                y = getattr(reference.replicates[tag], field.name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (tag, field.name)

    def test_a_large_cell_is_decided_in_stacks(self, monkeypatch):
        # More than CELL_BLOCK p-values are stacked a run of whole
        # replicates at a time, with the same results.
        config = make_config(M=30, reps=9, procedures=PROCEDURE_TAGS)
        whole = run_cell(config)
        stacks = []
        stacked = sim.stacked

        def recording(models, s):
            stacks.append((len(models), s.shape))
            return stacked(models, s)

        monkeypatch.setattr(sim, "CELL_BLOCK", 4 * 30)
        monkeypatch.setattr(sim, "stacked", recording)
        split = run_cell(config)
        assert stacks == [(4, (4, 30)), (4, (4, 30)), (1, (1, 30))]
        assert split.estimates == whole.estimates

    def test_each_rule_is_called_once_per_replicate(self, monkeypatch):
        # Through the names of sim and procedures, as a wrapper put on them
        # sees the calls; the solves behind them are made for the stack:
        # one multiplier search per cell, and for each rule one pass solve
        # per round of blocks of 16 columns of the replicates it needs more
        # of (see ``extension_calls``).
        reps = 7
        config = make_config(M=20, reps=reps, procedures=(
            "fdr-opt", "bh", "strong-fwer-opt", "weak-fwer-opt"))
        panels = [generate_panel(config, rep) for rep in range(reps)]
        up = [helpers.reader_stop(panel.xi, panel.s, config.qstar, ("step-up",))
              for panel in panels]
        both = [helpers.reader_stop(panel.xi, panel.s, config.qstar) for panel in panels]
        solves = extension_calls([0] * reps, up, config.M) + extension_calls(up, both, config.M)
        calls = []

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("generate_panel", "decide_fdr_opt", "decide_strong_fwer",
                     "decide_weak_fwer", "decide_bh"):
            counting(sim, name)
        counting(procedures, "optimal_sizes")
        counting(allocate, "find_root")
        counting(procedures, "_panel_blocks")
        run_cell(config)
        assert {name: calls.count(name) for name in set(calls)} == {
            "generate_panel": reps, "decide_fdr_opt": reps, "decide_strong_fwer": reps,
            "decide_weak_fwer": reps, "decide_bh": reps, "optimal_sizes": reps,
            "find_root": 1, "_panel_blocks": solves}

    def test_a_closed_stack_retains_nothing(self):
        # What a stack solved, its passes and allocations, goes with it.
        config = make_config(M=20, reps=200, procedures=PROCEDURE_TAGS)
        run_cell(config)
        procedures._panel_memo.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_cell(config)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert allocate._open_stack is None
        assert procedures._panel_memo.cache_info().currsize == 0
        assert retained <= 2**14


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
