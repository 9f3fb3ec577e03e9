"""Decision procedures: budget-scale p-values, the step-down and step-up
rules, their p-value-only baselines, and the structural invariants
(prefix property, budget monotonicity, exchangeable reductions)."""

import platform
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import log_ndtr, ndtr

import helpers

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
    procedures,
    sidak_sizes,
    sim,
)
from poweralloc.allocate import LOG_PHI_FLUSH


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
        w = generalized_pvalues(model, [0.01, 0.05])
        np.testing.assert_allclose(w, [0.0199, 0.0975], atol=1e-10)

    def test_zero_pvalues(self):
        model = RocModel.from_gammas([0.5, 2.0, 4.0])
        assert np.all(generalized_pvalues(model, [0.0, 0.0, 0.0]) == 0.0)

    def test_a_zero_pvalue_has_w_of_positive_zero(self):
        # That column's sum of log(1 - eta) is 0.0, and -expm1(0.0) is -0.0.
        model, s = RocModel([1.0, 2.0, 3.0]), [0.0, 0.5, 0.9]
        w = generalized_pvalues(model, s)
        assert w[0] == 0.0 and not np.any(np.signbit(w))
        for rule in (decide_fdr_opt, decide_strong_fwer):
            threshold = rule(model, s, 0.1).alpha_threshold
            assert threshold == 0.0 and not np.signbit(threshold)

    def test_round_trip_heterogeneous(self):
        # S_m = eta_m(W_m) at the allocation with budget W_m.
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        s = np.array([0.0005, 0.01, 0.02, 0.3])
        w = generalized_pvalues(model, s)
        for m in range(4):
            recovered = optimal_sizes(model, float(w[m])).sizes[m]
            assert abs(recovered - s[m]) <= 1e-8

    def test_antiranks_sort_log_d_descending_with_ties_by_index(self):
        gammas = np.array([2.0, 2.0, 2.0, 0.0, 1.0, 3.0, 0.5])
        s = np.array([0.5, 0.2, 0.5, 1.0, 0.0, 0.0, 1.0])
        log_d = allocate._log_marginal_value(gammas, s)
        assert log_d[4] == log_d[5] == np.inf
        assert log_d[3] == log_d[6] == -np.inf
        assert log_d[1] > log_d[0] == log_d[2]
        assert procedures._panel(RocModel(gammas), s).order.tolist() == [4, 5, 1, 0, 2, 3, 6]

    def test_antiranks_part_where_w_saturates(self):
        # Both W round to 1.0, and a stable sort of W would keep the index
        # order; log d still tells the p-value nearer 0 first.
        model = RocModel.from_gammas([1.0, 1.0])
        s = np.array([1.0 - 1e-12, 1.0 - 1e-10])
        assert np.all(generalized_pvalues(model, s) == 1.0)
        assert procedures._panel(model, s).order.tolist() == [1, 0]

    def test_unattainable_size_maps_to_budget_one(self):
        # gamma=8 with a mid-range p-value: rejected at no budget below 1.
        model = RocModel.from_gammas([0.5, 0.7, 1.0, 8.0])
        assert generalized_pvalues(model, [0.1, 0.2, 0.3, 0.4])[3] > 0.999999

    def test_pvalue_one_gets_budget_one_at_zero_effect(self):
        # gamma = 0 at a p-value of 1 once gave log d = 0 * (-inf) = NaN.
        gammas, s = np.array([0.0, 1.0]), np.array([1.0, 0.5])
        w = generalized_pvalues(RocModel.from_gammas(gammas), s)
        assert w[0] == 1.0
        assert w[1] < 1.0
        assert procedures._panel(RocModel(gammas), s).order.tolist() == [1, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            generalized_pvalues(RocModel.from_gammas([1.0]), [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generalized_pvalues(RocModel.from_gammas([1.0]), [])


def recording_profiles(monkeypatch) -> list:
    """Patch ``procedures._size_profile`` to record a copy of each
    (v, log(1 - eta)) it returns, taken before ``_panel_blocks`` masks the
    second in place; returns the list it records into."""
    profiles = []
    solve = procedures._size_profile

    def recording(gammas, log_d, anchor=None, scratch=None):
        v, log1m = solve(gammas, log_d, anchor, scratch)
        profiles.append((v.copy(), log1m.copy()))
        return v, log1m

    monkeypatch.setattr(procedures, "_size_profile", recording)
    return profiles


class TestPanelBlocks:
    @settings(max_examples=60, deadline=None)
    @given(panel=st.integers(1, 400).flatmap(lambda m: st.tuples(
        arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
               fill=st.nothing()),
        arrays(float, m, elements=helpers.UNIT, fill=st.nothing()))))
    def test_warm_panel_matches_cold_solve(self, panel):
        # The column blocks warm-started along the scan order against one
        # cold solve of the whole panel: a single block is the same solve,
        # and many blocks leave each log(1 - eta) within the Newton
        # reference's tolerance of both.
        gammas, s = panel
        log_d = allocate._log_marginal_value(gammas, s)
        v, cold = allocate._size_profile(gammas, log_d)
        order = np.argsort(-log_d, kind="stable")
        with pytest.MonkeyPatch.context() as patch:
            profiles = recording_profiles(patch)
            blocks = list(procedures._panel_blocks(gammas, log_d, np.argsort(order), order))
        assert len(profiles) == len(blocks)
        warm = np.full(cold.shape, np.nan)
        log_warm = np.full(s.size, np.nan)
        for (cols, log_sums, *_), (_, block) in zip(blocks, profiles):
            warm[:, cols] = block
            log_warm[cols] = log_sums
        # The yielded sums of log(1 - eta) are the solved blocks' own.
        assert np.array_equal(log_warm, procedures._column_sums(warm))
        if gammas.size ** 2 <= allocate.SOLVE_BLOCK:
            assert np.array_equal(warm, cold)
            return
        allowed = 2.0 * helpers.newton_tolerance(v, cold)
        assert np.all(np.abs(warm - cold) <= allowed)
        # W moves by exp(L) |dL|, plus the rounding of -expm1; the orders
        # part only between hypotheses whose W lie that close.
        log_cold = cold.sum(axis=0)
        w_cold, w_warm = -np.expm1(log_cold), -np.expm1(log_warm)
        w_allowed = 1.01 * np.exp(log_cold) * allowed.sum(axis=0) + 4.0 * allocate.EPS * w_cold
        assert np.all(np.abs(w_warm - w_cold) <= w_allowed)
        order_cold, order_warm = (np.argsort(w, kind="stable") for w in (w_cold, w_warm))
        parted = order_cold != order_warm
        a, b = order_cold[parted], order_warm[parted]
        assert np.all(np.abs(w_cold[a] - w_cold[b]) <= w_allowed[a] + w_allowed[b])

    @pytest.mark.parametrize("M", [129, 300])
    def test_resumed_pass_matches_the_unstopped_one(self, M, monkeypatch):
        # A pass stopped after any block and resumed from that block's
        # anchor on the columns after it solves them bitwise as the pass
        # that never stopped, and yields the same statistics.
        rng = np.random.default_rng(M)
        gammas = np.abs(rng.normal(2.0, 1.0, M))
        log_d = allocate._log_marginal_value(gammas, rng.uniform(0.0, 1.0, M) ** 2)
        order = np.argsort(-log_d, kind="stable")
        rank = np.argsort(order)
        profiles = recording_profiles(monkeypatch)
        full = list(procedures._panel_blocks(gammas, log_d, rank, order))
        solved = profiles[:]
        assert len(full) > 1
        start = 0
        for i, (cols, *_, anchor) in enumerate(full[:-1]):
            start += cols.size
            profiles.clear()
            resumed = list(procedures._panel_blocks(gammas, log_d, rank, order[start:], anchor))
            assert len(resumed) == len(profiles) == len(full) - i - 1
            for got, want in zip(resumed, full[i + 1:]):
                # The columns and their four statistics.
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got[:5], want[:5]))
            for got, want in zip(profiles, solved[i + 1:]):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_what_a_pass_yields_is_not_in_its_scratch(self, monkeypatch):
        # The statistics and the anchors outlive the block that made them,
        # so none is a view of the scratch the next block reuses.
        taken = helpers.recording_scratches(monkeypatch)
        rng = np.random.default_rng(5)
        gammas = np.abs(rng.normal(2.0, 1.0, 300))
        log_d = allocate._log_marginal_value(gammas, rng.uniform(0.0, 1.0, 300) ** 2)
        order = np.argsort(-log_d, kind="stable")
        blocks = list(procedures._panel_blocks(gammas, log_d, np.argsort(order), order))
        assert len(blocks) > 1 and taken
        for *stats, (_, v, log1m) in blocks:
            for a in (*stats, v, log1m):
                assert not any(np.shares_memory(a, t) for t in taken)


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
        assert sum(calls) <= 2.3 * s.size ** 2

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap")
    def test_page_faults_per_pass(self, panel):
        # A pass takes its block arrays from one scratch, so after its first
        # block it allocates none of them, and the heap is not trimmed and
        # faulted in again block after block (about 5,000 faults when each
        # block allocated its own).  The scratch itself is about 3 MB.
        import resource

        model, s = panel
        procedures._panel_memo.cache_clear()
        procedures._panel(model, s)
        procedures._panel_memo.cache_clear()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        procedures._panel(model, s)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 1500

    def test_allocation_peak(self, panel):
        model, s = panel
        procedures._panel_memo.cache_clear()
        tracemalloc.start()
        try:
            decide_fdr_opt(model, s, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_memo_retains_no_panel(self, panel):
        # The memo keeps O(M) reductions (about 50 KB here), never the
        # 8 MB (M, M) array.
        model, s = panel
        procedures._panel_memo.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            decide_fdr_opt(model, s, 0.1)
            decide_strong_fwer(model, s, 0.1)
            generalized_pvalues(model, s)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert procedures._panel_memo.cache_info().currsize == 1
        assert retained <= 2**18


def assert_same_decision(a, b):
    assert a.cutoff_index == b.cutoff_index
    assert a.alpha_threshold == b.alpha_threshold
    for x, y in ((a.reject, b.reject), (a.trace.order_stats, b.trace.order_stats),
                 (a.trace.survival_product, b.trace.survival_product),
                 (a.trace.size_sum, b.trace.size_sum), (a.trace.threshold, b.trace.threshold)):
        assert x.tobytes() == y.tobytes()


def cold(rule, model, s, q, before=()):
    """``rule`` on a panel solved afresh, after the (rule, q) requests
    ``before``: a pass stops where the readers that have asked of it are
    decided, so a trace's unevaluated steps depend on them."""
    procedures._panel_memo.cache_clear()
    for earlier, earlier_q in before:
        earlier(model, s, earlier_q)
    return rule(model, s, q)


class TestPanelMemo:
    """The stepwise rules and ``generalized_pvalues`` share one pass per
    (gammas, p-values) pair and never read a panel solved for other
    inputs."""

    def test_both_rules_share_one_solve(self, panel_solves):
        model, s = random_panel(np.random.default_rng(3), max_m=40)
        fdr = decide_fdr_opt(model, s, 0.1)
        strong = decide_strong_fwer(model, s, 0.1)
        w = generalized_pvalues(model, s)
        # One pass, and no column solved twice by it or the rules' reads
        # past it.
        assert sum(panel_solves.begun) == 1
        columns = np.concatenate([c.ravel() for c in panel_solves.cols])
        assert np.unique(columns).size == columns.size
        assert_same_decision(fdr, cold(decide_fdr_opt, model, s, 0.1))
        assert_same_decision(strong, cold(decide_strong_fwer, model, s, 0.1,
                                          [(decide_fdr_opt, 0.1)]))
        assert w.tobytes() == generalized_pvalues(model, s).tobytes()

    def test_pvalues_mutated_in_place(self, panel_solves):
        model = RocModel.from_gammas([0.5, 1.0, 2.0, 3.0, 4.0])
        s = np.array([0.001, 0.01, 0.02, 0.3, 0.04])
        decide_fdr_opt(model, s, 0.1)
        s[3] = 0.003
        fdr = decide_fdr_opt(model, s, 0.1)
        strong = decide_strong_fwer(model, s, 0.1)
        assert len(panel_solves) == 2
        assert_same_decision(fdr, cold(decide_fdr_opt, model, s, 0.1))
        assert_same_decision(strong, cold(decide_strong_fwer, model, s, 0.1,
                                          [(decide_fdr_opt, 0.1)]))

    def test_same_pvalues_other_gammas(self, panel_solves):
        s = np.array([0.001, 0.01, 0.02, 0.3, 0.04])
        decide_fdr_opt(RocModel.from_gammas([0.5, 1.0, 2.0, 3.0, 4.0]), s, 0.1)
        model = RocModel.from_gammas([4.0, 3.0, 2.0, 1.0, 0.5])
        strong = decide_strong_fwer(model, s, 0.1)
        fdr = decide_fdr_opt(model, s, 0.1)
        assert len(panel_solves) == 2
        assert_same_decision(strong, cold(decide_strong_fwer, model, s, 0.1))
        assert_same_decision(fdr, cold(decide_fdr_opt, model, s, 0.1,
                                       [(decide_strong_fwer, 0.1)]))

    def test_a_stack_serves_only_its_own_panels(self, panel_solves):
        # Within a stack, its panels share one solve per block; a model of
        # the stack given other p-values, or a model outside it, is solved
        # alone, and every decision is the one its panel gets alone from
        # the same requests.  Each pass solves its own prefix once, as far
        # as the two rules at q = 0.1 need it.
        rng = np.random.default_rng(8)
        M = 30
        models = [RocModel.from_gammas(np.abs(rng.normal(2.0, 1.0, M))) for _ in range(3)]
        s = rng.uniform(0.0, 0.05, (3, M))
        asks = [(m, row) for m, row in zip(models, s)]
        asks += [(models[0], s[1]), (RocModel.from_gammas(models[0].gammas), s[0])]
        with allocate.stacked(models, s):
            inside = [(decide_fdr_opt(m, row, 0.1), decide_strong_fwer(m, row, 0.1))
                      for m, row in asks]
        assert [n for n in panel_solves.begun if n] == [3, 1, 1]
        stacks = [c for c in panel_solves.cols if c.ndim == 2]
        solved = [helpers.reader_stop(m.gammas, row, 0.1) for m, row in asks]
        assert sum(c.size for c in stacks) == sum(solved)
        for (m, row), (fdr, strong) in zip(asks, inside):
            assert_same_decision(fdr, cold(decide_fdr_opt, m, row, 0.1))
            assert_same_decision(strong, cold(decide_strong_fwer, m, row, 0.1,
                                              [(decide_fdr_opt, 0.1)]))

    def test_negative_zero_is_another_input(self, panel_solves):
        model = RocModel.from_gammas([0.0, 1.0, 2.0])
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            procedures._panel_memo.cache_clear()
            decide_fdr_opt(model, np.array([first, 0.2, 0.5]), 0.1)
            s = np.array([second, 0.2, 0.5])
            fdr = decide_fdr_opt(model, s, 0.1)
            strong = decide_strong_fwer(model, s, 0.1)
            assert_same_decision(fdr, cold(decide_fdr_opt, model, s, 0.1))
            assert_same_decision(strong, cold(decide_strong_fwer, model, s, 0.1,
                                              [(decide_fdr_opt, 0.1)]))
        assert len(panel_solves) == 8

    def test_memo_is_read_only(self):
        model, s = random_panel(np.random.default_rng(4))
        decision = cold(decide_fdr_opt, model, s, 0.1)
        with pytest.raises(ValueError):
            decision.trace.size_sum[0] = 0.0
        panel = procedures._panel(model, s)
        for arr in (panel.w, panel.order, panel.log_products, panel.size_sums,
                    panel.size_max):
            assert not arr.flags.writeable
        # generalized_pvalues hands out a copy.
        w = generalized_pvalues(model, s)
        w[0] = -1.0
        assert panel.w[0] != -1.0


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

    def test_budget_one_is_refused(self):
        # The allocation is defined for alpha in [0, 1) only.
        model = RocModel.from_gammas([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
            decide_weak_fwer(model, [0.1, 0.2, 0.3], 1.0)

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
            w_sorted = np.sort(generalized_pvalues(model, s))
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
        # The panel pass reports the condition over the M candidate
        # budgets, as check_size_condition does over a grid of them.
        model = RocModel.from_gammas([0.5, 0.5, 1.0, 1.0])
        s = [0.0005, 0.01, 0.02, 0.6]
        report = procedures._size_condition(model, s)
        w = generalized_pvalues(model, s)
        grid = np.sort(w[w < 1.0])
        check = allocate.check_size_condition(model, grid)
        assert report.satisfied == check.satisfied
        assert report.worst_ratio == pytest.approx(check.worst_ratio, rel=1e-8)
        # Violation only annotates; the decision happens regardless.
        assert decide_fdr_opt(model, s, 0.1).cutoff_index >= 0

    def test_size_condition_over_the_budgets_below_one(self):
        # The W of 0 and 1 (p-values of 0 and 1) and those saturated at 1.0
        # are not budgets check_size_condition accepts; the report reads
        # the others.
        rng = np.random.default_rng(23)
        gammas = rng.uniform(0.0, 5.0, 300)
        s = 10.0 ** rng.uniform(-8.0, 0.0, 300)
        s[[3, 40]], s[[9, 200]] = 0.0, 1.0
        model = RocModel.from_gammas(gammas)
        report = procedures._size_condition(model, s)
        w = generalized_pvalues(model, s)
        grid = w[(w > 0.0) & (w < 1.0)]
        assert 0 < grid.size < np.count_nonzero(w < 1.0)
        check = allocate.check_size_condition(model, grid)
        assert report.satisfied == check.satisfied
        assert report.worst_alpha == pytest.approx(check.worst_alpha, rel=1e-8)
        assert report.worst_ratio == pytest.approx(check.worst_ratio, rel=1e-8)

    @pytest.mark.parametrize("s", [[0.0], [1.0], [0.0, 1.0, 1.0]])
    def test_size_condition_without_a_budget_below_one(self, s):
        # Over no budget the condition holds vacuously, at no worst budget.
        report = procedures._size_condition(RocModel.from_gammas([2.0] * len(s)), s)
        assert report.satisfied
        assert np.isnan(report.worst_alpha) and np.isnan(report.worst_ratio)


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
            order = procedures._panel(model, s).order
            for decision in (
                decide_strong_fwer(model, s, 0.1),
                decide_fdr_opt(model, s, 0.1),
                decide_weak_fwer(model, s, 0.1),
            ):
                expected = np.zeros(model.M, dtype=bool)
                expected[order[: decision.cutoff_index]] = True
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
            w_sorted = np.concatenate(([0.0], np.sort(generalized_pvalues(model, s)), [1.0]))
            j = decision.cutoff_index
            assert decision.alpha_threshold == pytest.approx(w_sorted[j])
            assert w_sorted[j] <= decision.alpha_threshold <= w_sorted[j + 1]

    def test_w1_uniform_under_global_null(self):
        # Smallest budget-scale p-value is U(0,1) when every null is true.
        rng = np.random.default_rng(11)
        model = RocModel.from_gammas([0.3, 0.7, 1.1, 1.9, 2.6, 3.4, 4.1, 5.0, 6.2, 7.5])
        w1 = np.empty(2000)
        for i in range(2000):
            w1[i] = generalized_pvalues(model, rng.uniform(0, 1, 10)).min()
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


def _float_tie(stats, bounds, j: int, k: int, step_up: bool, rel: float) -> bool:
    """Whether stepwise cutoffs j and k part over a float tie: at the step
    where they part, the statistic lies within ``rel`` of its bound, or
    M sizes below the flush of it.  Step-up cutoffs j < k part at step k
    (index k - 1), step-down ones at step j + 1 (index j)."""
    j, k = sorted((j, k))
    i = k - 1 if step_up else j
    return abs(stats[i] - bounds[i]) <= rel * abs(bounds[i]) + stats.size * LOG_PHI_FLUSH


def assert_model_rules_match(gammas, s, q):
    """The model rules and W against ``helpers.reference_stepwise``; returns
    the step-up and step-down decisions and the panel's solved prefix.

    W, cutoffs, rejections and the evaluated trace steps are bitwise the
    reference's at M <= 128, where every block is solved cold.  Above, the
    blocks are warm-started and a size below the flush may solve as 0: W
    agrees to 1e-11 relative, the statistics to 1e-9, and the cutoffs
    unless they part over a float tie.  The rules are asked before W, so
    the pass stops for each where its readers are decided (``stop``).  A
    trace fills the steps its rule evaluated, the pass's prefix at the
    rule's stop and the deciding steps among them, and leaves the rest
    NaN; its W is known, bitwise, at that prefix, and past it only where
    W saturated there."""
    M = s.size
    model = RocModel.from_gammas(gammas)
    ref = helpers.reference_stepwise(gammas, s, q)
    procedures._panel_memo.cache_clear()
    fdr, up = decide_fdr_opt(model, s, q), stop(model, s, ("step-up", q))
    strong, down = decide_strong_fwer(model, s, q), stop(model, s, ("step-down", q))
    w = generalized_pvalues(model, s)
    solved = procedures._panel(model, s).solved
    assert up <= down <= solved
    exact = M * M <= allocate.SOLVE_BLOCK
    if exact:
        assert w.tobytes() == ref.w.tobytes()
    else:
        np.testing.assert_allclose(w, ref.w, rtol=1e-11, atol=M * LOG_PHI_FLUSH)
    for new, j, stats, bounds, path, step_up, rule_stop in (
            (fdr, ref.step_up, ref.size_sums, ref.line, "size_sum", True, up),
            (strong, ref.step_down, ref.log_products, np.full(M, ref.bound),
             "survival_product", False, down)):
        k = new.cutoff_index
        assert k == j or (not exact and _float_tie(stats, bounds, j, k, step_up, 1e-9))
        expected = np.zeros(M, dtype=bool)
        expected[ref.order[:k]] = True
        np.testing.assert_array_equal(new.reject, expected)
        # The threshold is the deciding hypothesis's W, bitwise.
        assert new.alpha_threshold == (w[ref.order[k - 1]] if k else 0.0)
        known = ~np.isnan(new.trace.order_stats)
        assert np.array_equal(known, np.arange(M) < (M if rule_stop == solved else rule_stop))
        assert new.trace.order_stats[known].tobytes() == w[ref.order][known].tobytes()
        got = getattr(new.trace, path)
        evaluated = ~np.isnan(got)
        assert evaluated[:rule_stop].all()
        if step_up:
            assert k == 0 or evaluated[k - 1]
        else:
            # Step-down evaluates a prefix of the scan, through the first
            # failing step; at q = 1 no step fails.
            assert np.array_equal(evaluated, np.arange(M) < evaluated.sum())
            assert q == 1.0 or evaluated[:k + 1].sum() == min(k + 1, M)
        stat = stats if step_up else np.exp(stats)
        if exact:
            assert got[evaluated].tobytes() == stat[evaluated].tobytes()
        else:
            np.testing.assert_allclose(got[evaluated], stat[evaluated], rtol=1e-9,
                                       atol=M * LOG_PHI_FLUSH)
    return fdr, strong, solved


def stop(model, s, reader) -> int:
    """Where the pass over ``(model, s)`` stands: asking again for a reader
    that has asked of it solves nothing."""
    return procedures._panel(model, s, reader).solved


class TestAgainstReference:
    """The stepwise rules give what the O(M^2) references in ``helpers``
    give, on the whole input space: the model rules what one cold solve of
    the whole panel, ordered by log d, gives, and the p-value baselines
    what their copies from before the rules shared one scan give."""

    @settings(max_examples=150, deadline=None)
    @given(
        panel=st.integers(1, 300).flatmap(lambda m: st.tuples(
            arrays(float, m, elements=helpers.UNIT, fill=st.nothing()),
            arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                   fill=st.nothing()))),
        q=helpers.UNIT,
    )
    def test_rules_match(self, panel, q):
        s, gammas = panel
        assert_model_rules_match(gammas, s, q)
        with np.errstate(divide="ignore"):  # the reference Sidak trace takes log(0)
            refs = (helpers.reference_decide_bh(s, q),
                    helpers.reference_decide_stepdown_sidak(s, q))
        for new, ref in zip((decide_bh(s, q), decide_stepdown_sidak(s, q)), refs):
            assert new.cutoff_index == ref.cutoff_index
            assert new.alpha_threshold == ref.alpha_threshold
            np.testing.assert_array_equal(new.reject, ref.reject)
            for field in ("order_stats", "survival_product", "size_sum", "threshold"):
                np.testing.assert_array_equal(getattr(new.trace, field),
                                              getattr(ref.trace, field))

    @staticmethod
    def zero_effects(q):
        # A third of the effects are 0, with exact p-values of 0 and 1
        # among p-values spread over (0, 1].
        rng = np.random.default_rng(17)
        gammas = np.r_[np.zeros(100), rng.uniform(0.0, 5.0, 200)]
        s = 10.0 ** rng.uniform(-8.0, 0.0, 300)
        s[[5, 150]], s[[7, 160, 299]] = 0.0, 1.0
        return gammas, s, q

    @staticmethod
    def paper(q):
        # The paper's scenario at p = 0.4, nu = 4, where the step-up
        # cutoff lands among the saturated ranks.
        rng = np.random.default_rng(8)
        theta = rng.random(1000) < 0.4
        gammas = np.abs(rng.normal(4.0, 1.0, 1000))
        return gammas, ndtr(-(gammas * theta + rng.standard_normal(1000))), q

    @pytest.mark.parametrize("case, q, past", [
        ("paper", 0.1, {"step-up"}),
        ("zero_effects", 0.999, {"step-up", "step-down"}),
        ("zero_effects", 0.1, set()),
        ("zero_effects", 0.0, set()),
        ("zero_effects", 1.0, {"step-up"}),
    ], ids=["paper-q0.1", "zero-effects-q0.999", "zero-effects-q0.1", "zero-effects-q0",
            "zero-effects-q1"])
    def test_paths_past_the_solved_prefix(self, case, q, past):
        # Past the prefix where W saturates, step-up searches the ranks
        # for the last passing one and step-down resumes the pass until a
        # step fails; both still decide as the whole panel does.
        gammas, s, q = getattr(self, case)(q)
        fdr, strong, solved = assert_model_rules_match(gammas, s, q)
        assert solved < s.size
        assert (fdr.cutoff_index > solved) == ("step-up" in past)
        evaluated = np.count_nonzero(~np.isnan(strong.trace.survival_product))
        assert (evaluated > solved) == ("step-down" in past)


def report_bytes(report):
    return report.satisfied, np.array([report.worst_alpha, report.worst_ratio]).tobytes()


def stopped_pass_outputs(model, s, q):
    """What the rules, W and the size condition give on one panel, and its
    solved prefix."""
    return (decide_fdr_opt(model, s, q), decide_strong_fwer(model, s, q),
            generalized_pvalues(model, s).tobytes(),
            report_bytes(procedures._size_condition(model, s)),
            procedures._panel(model, s).solved)


def reference_size_condition(gammas, s):
    """The size condition over the candidate budgets from the reference."""
    M = s.size
    ref = helpers.reference_stepwise(gammas, s, 0.0)
    budgets = (ref.w > 0.0) & (ref.w < 1.0)
    sums = np.empty(M)
    sums[ref.order] = ref.size_sums
    return (allocate._size_condition_report(ref.w[budgets], ref.size_max[budgets],
                                            sums[budgets], M) if budgets.any()
            else allocate.SizeConditionReport(True, np.nan, np.nan))


def assert_stopped_pass(gammas, s, q, others=()):
    """At M <= 128 the pass stops after the block of ``PASS_BLOCK`` columns
    where W saturates, or where the rules are decided, and gives what one
    cold solve of the whole panel gives: W, cutoffs, rejections,
    thresholds, the size condition and the trace steps it evaluates are
    bitwise the reference's.  Within a stack with the panels ``others``,
    each panel gets bitwise what it gets alone from the requests its group
    received, its solved prefix and unevaluated (NaN) trace steps
    included: the panels after the first ask once their group has had
    every request."""
    fdr, strong, solved = assert_model_rules_match(gammas, s, q)
    assert solved == helpers.pass_stop(gammas, s)
    model = RocModel.from_gammas(gammas)
    assert report_bytes(procedures._size_condition(model, s)) == report_bytes(
        reference_size_condition(gammas, s))
    models = [model] + [RocModel.from_gammas(g) for g, _ in others]
    rows = np.stack([s] + [row for _, row in others])
    alone = []
    for i, (m, row) in enumerate(zip(models, rows)):
        procedures._panel_memo.cache_clear()
        if i:
            stopped_pass_outputs(m, row, q)
        alone.append(stopped_pass_outputs(m, row, q))
    procedures._panel_memo.cache_clear()
    with allocate.stacked(models, rows):
        inside = [stopped_pass_outputs(m, row, q) for m, row in zip(models, rows)]
    assert procedures._panel_memo.cache_info().currsize == 0
    for (*rules, w, report, k), (*rules_alone, w_alone, report_alone, k_alone) in zip(
            inside, alone):
        for got, want in zip(rules, rules_alone):
            assert_same_decision(got, want)
        assert (w, report, k) == (w_alone, report_alone, k_alone)
    return fdr, strong, solved


def other_panels(seed: int, M: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.0, 6.0, M), rng.uniform(0.0, 1.0, M) ** rng.uniform(0.5, 6.0))
            for _ in range(count)]


class TestStoppedPass:
    """At M <= 128 a pass solves 16 columns of each live panel of a stack
    at a time, cold, and stops each panel after the block where its W
    saturates, or where the rules that have asked of it are decided; the
    rules read past a stop where W saturated exactly."""

    @settings(max_examples=100, deadline=None)
    @given(
        panel=st.one_of(st.sampled_from([1, 16, 17, 128]), st.integers(1, 128)).flatmap(
            lambda m: st.tuples(
                arrays(float, m, elements=helpers.UNIT, fill=st.nothing()),
                arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                       fill=st.nothing()))),
        q=helpers.UNIT,
        others=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)),
    )
    def test_matches_the_one_block_reference(self, panel, q, others):
        s, gammas = panel
        assert_stopped_pass(gammas, s, q, other_panels(others[0], s.size, others[1]))

    @staticmethod
    def paper(M, p, nu, seed):
        rng = np.random.default_rng(seed)
        theta = rng.random(M) < p
        gammas = np.abs(rng.normal(nu, 1.0, M))
        return gammas, ndtr(-(gammas * theta + rng.standard_normal(M)))

    @staticmethod
    def zero_effects(M):
        # A third of the effects are 0, with exact p-values of 0 and 1.
        rng = np.random.default_rng(17)
        gammas = np.r_[np.zeros(M // 3), rng.uniform(0.0, 5.0, M - M // 3)]
        s = 10.0 ** rng.uniform(-8.0, 0.0, M)
        s[[5, M // 2]], s[[7, M // 2 + 1, M - 1]] = 0.0, 1.0
        return gammas, s

    @pytest.mark.parametrize("case, q, stopped, past", [
        (("paper", 16, 0.2, 2.0, 1), 0.1, False, set()),
        (("paper", 17, 0.2, 2.0, 1), 0.999, True, {"step-up", "step-down"}),
        (("paper", 128, 0.4, 4.0, 4), 0.5, True, {"step-up"}),
        (("paper", 128, 0.2, 2.0, 0), 1.0, True, {"step-up"}),
        (("zero_effects", 100), 0.1, True, set()),
        (("zero_effects", 100), 1.0, True, {"step-up"}),
        (("zero_effects", 100), 0.0, True, set()),
    ], ids=["M16", "M17-q0.999", "M128-q0.5", "M128-q1", "zero-effects-q0.1",
            "zero-effects-q1", "zero-effects-q0"])
    def test_cases(self, case, q, stopped, past):
        gammas, s = getattr(self, case[0])(*case[1:])
        fdr, strong, solved = assert_stopped_pass(gammas, s, q, other_panels(1, s.size, 3))
        assert (solved < s.size) == stopped
        assert (fdr.cutoff_index > solved) == ("step-up" in past)
        evaluated = np.count_nonzero(~np.isnan(strong.trace.survival_product))
        assert (evaluated > solved) == ("step-down" in past)

    def test_a_panel_that_never_saturates(self):
        # Every p-value is tiny, so no W reaches 1.0 and the pass solves
        # every column, 16 at a time.
        rng = np.random.default_rng(2)
        gammas, s = rng.uniform(0.5, 3.0, 90), rng.uniform(0.0, 1e-9, 90)
        *_, solved = assert_stopped_pass(gammas, s, 0.1, other_panels(2, 90, 2))
        assert solved == 90


# The requests a pass serves: the two stepwise rules at their budgets, W,
# and the size condition, which reads W.
REQUESTS = ("fdr-opt", "strong-fwer-opt", "w", "size-condition")


def ask(request, model, s, q_up, q_down):
    """The output of ``request`` on one panel, and the reader of the pass
    it is."""
    if request == "fdr-opt":
        return decide_fdr_opt(model, s, q_up), ("step-up", q_up)
    if request == "strong-fwer-opt":
        return decide_strong_fwer(model, s, q_down), ("step-down", q_down)
    if request == "w":
        return generalized_pvalues(model, s), procedures.W_READER
    return procedures._size_condition(model, s), procedures.W_READER


def assert_same_output(got, want):
    if isinstance(got, np.ndarray):
        assert got.tobytes() == want.tobytes()
    elif isinstance(got, allocate.SizeConditionReport):
        assert report_bytes(got) == report_bytes(want)
    else:
        assert_same_decision(got, want)


def assert_decision_at_stop(got, want, path, at, saturated_at):
    """A rule's decision ``got``, made when its pass stood at ``at``,
    against ``want``, the one it makes on the pass that W asked for first,
    which stops at ``saturated_at``: the decision, and every trace step it
    evaluated, are bitwise that one's.  Its W is known at the prefix, and
    past it only where W saturated there; its own statistic is evaluated
    at the prefix and, past a saturated one, where the other's is."""
    M = got.reject.size
    assert got.cutoff_index == want.cutoff_index
    assert got.alpha_threshold == want.alpha_threshold
    assert got.reject.tobytes() == want.reject.tobytes()
    assert got.trace.threshold.tobytes() == want.trace.threshold.tobytes()
    known = ~np.isnan(got.trace.order_stats)
    assert np.array_equal(known, np.arange(M) < (M if at == saturated_at else at))
    assert got.trace.order_stats[known].tobytes() == want.trace.order_stats[known].tobytes()
    for name in ("size_sum", "survival_product"):
        a, b = getattr(got.trace, name), getattr(want.trace, name)
        evaluated = ~np.isnan(a)
        expected = (np.arange(M) < at) if name == path and at < saturated_at else ~np.isnan(b)
        assert np.array_equal(evaluated, expected), name
        assert a[evaluated].tobytes() == b[evaluated].tobytes()


def assert_extended_pass(gammas, s, q_up, q_down, requests):
    """Asked ``requests`` in turn, a lone panel's pass stops after each one
    where the readers so far are decided, or W saturates
    (``helpers.block_stop`` on the statistics of the pass that W asked for
    first, the one-shot pass), and gives what the one-shot pass gives,
    bitwise: W, the size condition, and the decisions at their stops (see
    ``assert_decision_at_stop``).  The pass solves each column of the
    one-shot pass's prefix once, and nothing past it; a rule's reads past
    a saturated prefix solve no column twice."""
    M = s.size
    model = RocModel.from_gammas(gammas)
    procedures._panel_memo.cache_clear()
    one_shot = {r: ask(r, model, s, q_up, q_down)[0]
                for r in ("w", "fdr-opt", "strong-fwer-opt", "size-condition")}
    panel = procedures._panel(model, s)
    saturated_at, order, rank = panel.solved, panel.order, panel.rank
    sums, products = panel.size_sums[order], panel.log_products[order]
    width = (procedures.PASS_BLOCK if M * M <= allocate.SOLVE_BLOCK
             else allocate.SOLVE_BLOCK // M)
    procedures._panel_memo.cache_clear()
    calls, readers = [], []
    blocks = procedures._panel_blocks

    def recording(gammas, log_d, rank, cols, anchor=None, scratch=None):
        calls.append((len(readers), np.ravel(cols).copy()))
        yield from blocks(gammas, log_d, rank, cols, anchor, scratch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(procedures, "_panel_blocks", recording)
        for request in requests:
            got, reader = ask(request, model, s, q_up, q_down)
            readers.append(reader)
            at = procedures._panel(model, s, reader).solved
            assert at == helpers.block_stop(sums, products, saturated_at, readers, width)
            if request in ("fdr-opt", "strong-fwer-opt"):
                path = "size_sum" if request == "fdr-opt" else "survival_product"
                assert_decision_at_stop(got, one_shot[request], path, at, saturated_at)
            else:
                assert_same_output(got, one_shot[request])
    assert procedures._panel(model, s).solved == saturated_at
    inside = [cols for _, cols in calls if np.all(rank[cols] < saturated_at)]
    past = [(i, cols) for i, cols in calls if np.all(rank[cols] >= saturated_at)]
    assert len(inside) + len(past) == len(calls)
    solved = np.concatenate(inside) if inside else np.empty(0, dtype=np.intp)
    assert np.sort(solved).tobytes() == np.sort(order[:saturated_at]).tobytes()
    for i in {i for i, _ in past}:
        read = np.concatenate([cols for j, cols in past if j == i])
        assert np.unique(read).size == read.size


def assert_stacked_as_alone(panels, q_up, q_down, requests, request_major):
    """In a stack, each panel asked ``requests`` gets bitwise what it gets
    alone when asked every request its group received, in the same order:
    a group's pass is extended for a reader the first time any of its
    panels asks."""
    models = [RocModel.from_gammas(g) for g, _ in panels]
    rows = np.stack([s for _, s in panels])
    n = len(models)
    schedule = ([(i, r) for r in requests for i in range(n)] if request_major
                else [(i, r) for i in range(n) for r in requests])
    procedures._panel_memo.cache_clear()
    with allocate.stacked(models, rows):
        inside = [ask(r, models[i], rows[i], q_up, q_down)[0] for i, r in schedule]
    assert procedures._panel_memo.cache_info().currsize == 0
    for i in range(n):
        procedures._panel_memo.cache_clear()
        alone = [ask(r, models[i], rows[i], q_up, q_down)[0] for _, r in schedule]
        for (j, _), got, want in zip(schedule, inside, alone):
            if j == i:
                assert_same_output(got, want)


class TestReaderStop:
    """A pass solves only as far as the readers that have asked of it need,
    and a later reader resumes it where it stopped: extended request by
    request, in any order, it is the pass that W asked for first, bitwise,
    and a stacked panel is the panel alone asked what its group was."""

    @settings(max_examples=60, deadline=None)
    @given(
        panel=st.one_of(
            st.one_of(st.sampled_from([1, 16, 17, 128, 129]), st.integers(1, 300)).flatmap(
                lambda m: st.tuples(
                    arrays(float, m, elements=helpers.UNIT, fill=st.nothing()),
                    arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                           fill=st.nothing()))),
            # Paper panels, whose rules are decided blocks before W saturates.
            st.builds(TestStoppedPass.paper, st.integers(1, 300),
                      st.sampled_from([0.1, 0.2, 0.4]), st.sampled_from([1.0, 2.0, 4.0]),
                      st.integers(0, 2**32 - 1)).map(lambda panel: panel[::-1])),
        q_up=helpers.UNIT,
        q_down=helpers.UNIT,
        requests=st.permutations(REQUESTS),
        others=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)),
        request_major=st.booleans(),
    )
    def test_an_extended_pass_is_the_one_shot_pass(self, panel, q_up, q_down, requests,
                                                   others, request_major):
        s, gammas = panel
        assert_extended_pass(gammas, s, q_up, q_down, requests)
        # The one-shot pass against the reference, at either budget.
        for q in (q_up, q_down):
            assert_model_rules_match(gammas, s, q)
        if s.size ** 2 <= allocate.SOLVE_BLOCK:
            model = RocModel.from_gammas(gammas)
            assert report_bytes(procedures._size_condition(model, s)) == report_bytes(
                reference_size_condition(gammas, s))
            assert_stacked_as_alone([(gammas, s)] + other_panels(others[0], s.size, others[1]),
                                    q_up, q_down, requests, request_major)

    @pytest.mark.parametrize("case", [
        ("paper", 100, 0.2, 2.0, 5), ("paper", 128, 0.4, 4.0, 4), ("paper", 300, 0.2, 2.0, 3),
        ("zero_effects", 100)], ids=["M100", "M128", "M300", "zero-effects"])
    @pytest.mark.parametrize("requests", [REQUESTS, REQUESTS[::-1],
                                          ("strong-fwer-opt", "fdr-opt", "size-condition", "w")],
                             ids=["rules-first", "w-first", "step-down-first"])
    def test_paper_panels(self, case, requests):
        gammas, s = getattr(TestStoppedPass, case[0])(*case[1:])
        assert_extended_pass(gammas, s, 0.1, 0.1, requests)
        assert_extended_pass(gammas, s, 0.05, 0.2, requests)


@pytest.mark.parametrize("rule", [
    lambda s: generalized_pvalues(RocModel.from_gammas([1.0, 2.0]), s),
    lambda s: decide_weak_fwer(RocModel.from_gammas([1.0, 2.0]), s, 0.1),
    lambda s: decide_strong_fwer(RocModel.from_gammas([1.0, 2.0]), s, 0.1),
    lambda s: decide_fdr_opt(RocModel.from_gammas([1.0, 2.0]), s, 0.1),
    lambda s: decide_bh(s, 0.1),
    lambda s: decide_stepdown_sidak(s, 0.1),
    lambda s: decide_bonferroni(s, 0.1),
], ids=["w", "weak-fwer", "strong-fwer", "fdr-opt", "bh", "stepdown-sidak", "bonferroni"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 2.0**-52, -5e-324],
                         ids=["nan", "inf", "-inf", "1+ulp", "-ulp"])
def test_pvalues_outside_the_unit_interval(rule, bad):
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        rule([0.5, bad])
    rule([0.5, -0.0])  # -0.0 is a p-value of 0


def assert_weak_rule_is_w_within_budget(model, s, alpha, reject):
    """``reject`` is W <= alpha wherever W lies clear of alpha by more than
    a float tie.  W_m is the least budget whose allocation rejects m, so
    this compares the multiplier search of the weak rule with the panel
    pass that gives W: two engines for one definition."""
    w = generalized_pvalues(model, s)
    clear = np.abs(w - alpha) > 1e-9 * alpha + s.size * LOG_PHI_FLUSH
    np.testing.assert_array_equal(reject[clear], (w <= alpha)[clear])


class TestWeakFwerAgainstW:
    """The weak rule at alpha rejects exactly the hypotheses whose W is at
    most alpha, one panel at a time and within a stacked cell."""

    @settings(max_examples=120, deadline=None)
    @given(
        panel=st.one_of(st.sampled_from([1, 128, 129]), st.integers(1, 300)).flatmap(
            lambda m: st.tuples(
                arrays(float, m, elements=helpers.UNIT, fill=st.nothing()),
                arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                       fill=st.nothing()))),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                        st.sampled_from([0.05, 0.999, 1.0 - 2.0**-53])),
    )
    def test_rejects_where_w_is_within_the_budget(self, panel, alpha):
        s, gammas = panel
        model = RocModel.from_gammas(gammas)
        assert_weak_rule_is_w_within_budget(model, s, alpha,
                                            decide_weak_fwer(model, s, alpha).reject)

    @pytest.mark.parametrize("case, alpha", [
        ("paper", 0.1), ("paper", 0.999), ("zero_effects", 0.0), ("zero_effects", 0.1),
        ("zero_effects", 0.999),
    ])
    def test_past_the_saturation_stop(self, case, alpha):
        # The pass stops where W saturates at 1.0, and no budget below 1
        # rejects a hypothesis past that stop.  The zero-effects panel has
        # p-values of 0 and 1 and gammas of 0.
        gammas, s, _ = getattr(TestAgainstReference, case)(alpha)
        model = RocModel.from_gammas(gammas)
        decision = decide_weak_fwer(model, s, alpha)
        assert procedures._panel(model, s).solved < s.size
        assert_weak_rule_is_w_within_budget(model, s, alpha, decision.reject)

    @pytest.mark.parametrize("M, p, nu", [(20, 0.4, 4.0), (100, 0.1, 1.0), (129, 0.2, 2.0)])
    def test_a_stacked_cell(self, monkeypatch, M, p, nu):
        # run_cell decides its replicates within one stack, whose lockstep
        # search serves every replicate's weak rule.
        seen = []
        decide = sim.decide

        def recording(tag, model, s, budget):
            decision = decide(tag, model, s, budget)
            seen.append((model, s.copy(), decision.reject))
            return decision

        monkeypatch.setattr(sim, "decide", recording)
        config = sim.ScenarioConfig(M=M, p=p, nu=nu, qstar=0.1, reps=10, seed=25,
                                    procedures=("weak-fwer-opt",))
        sim.run_cell(config)
        assert len(seen) == config.reps
        for model, s, reject in seen:
            assert_weak_rule_is_w_within_budget(model, s, config.qstar, reject)
