"""Multiple-decision procedures on a panel of p-values and a ``RocModel``.

Hypothesis m pins the multiplier d_m = g_m(S_m) at its p-value.  Column m
of the panel sizes every hypothesis at d_m, and W_m, the budget-scale
p-value, and the two model-based stepwise rules read only statistics of
those columns.  This module is their one panel engine:

* The scan order is descending log d_m, ties by index (``_passes``).
  It is the budget-scale order of W, taken exactly: W rounds to 1.0 once
  its log budget is below about -37, which at M = 1000 ties most of a
  panel.  A p-value of 0 pins log d = +inf (first), one of 1 pins -inf
  (last).
* ``_panel_blocks`` solves the columns given to it in blocks of
  ``SOLVE_BLOCK // M``, each warm-started from the block before it along
  the scan (``allocate._size_profile``), or cold for a stack of panels,
  and reduces each block to its column statistics before the next is
  solved, so no (M, M) array is ever held.  The statistics are the sums
  of log(1 - eta), which give W; the size sums, which are the step-up
  statistic; the largest sizes, which with the size sums give the size
  condition; and the sums of log(1 - eta) over the hypotheses not ranked
  before m, which are the step-down statistic.  A pass owns one scratch (``allocate._Scratch``),
  from which every block takes its (M, block) arrays, so after its first
  block it allocates none of them.
* One pass (``_passes``) solves the scan a block at a time and stops
  after the first block where W is exactly 1.0 (``SATURATED``): the sum
  of log(1 - eta) does not increase along the scan, so every later column
  has W = 1.0 too.  Above M = 128 a block is SOLVE_BLOCK // M columns,
  warm-started; at M <= 128 it is ``PASS_BLOCK`` (16) columns, solved
  cold, so every pair is solved as one cold solve of the whole panel
  would solve it.  The blocks' bounds depend on M alone.  On a paper
  panel the pass solves about a sixth of the columns at M = 1000 and
  about half at M = 100.  A one-entry memo keyed on the exact bytes of
  the gammas and the p-values serves it to every later call on the same
  panel.
* The panels of a stack (``allocate.stacked``), such as the replicates
  of a Monte Carlo cell, are still decided one at a time, but at
  M <= 128 their passes are made together: the first panel that asks for
  its pass makes those of the SOLVE_BLOCK // (16 M) panels of its group,
  one ``_panel_blocks`` call per block of 16 columns of each panel not
  yet saturated, and the stack keeps the group's passes for the other
  panels and rules.  Every solve in a block is its own, so each pass,
  where it stops included, is bitwise the panel's alone.  Above M = 128
  each panel has its own pass, from the memo.
* A stepwise rule solves columns past the stop only where its cutoff may
  lie there: when every solved step passes, the step-down rule resumes
  the pass from its anchor up to the first failing block, and the step-up
  rule searches the ranks past the stop for the last passing one, a
  column at a time, unless the last solved step's S already exceeds
  q M.  Both read those columns as the pass would have: cold at
  M <= 128, the step-down resume being one block there.

So the two stepwise rules and ``generalized_pvalues`` on one panel cost
one pass and the columns each rule reads past it.  The rules:

* ``decide_weak_fwer`` - fixed-budget rule: reject m iff its p-value is at
  most its optimally allocated size (a weighted-p-value rule; rejections
  need not be ordered like the raw p-values).  The allocations of a
  stack's panels come from one lockstep search (``allocate.stacked``).
* ``decide_strong_fwer`` - step-down rule controlling the FWER for every
  configuration of true nulls: it rejects the longest prefix along which
  the running product of survival sizes stays at or above 1 - q.
* ``decide_fdr_opt`` - step-up rule controlling the FDR at q: the largest
  ordered index m whose total allocated size does not exceed q*m wins.
* ``decide_bh`` / ``decide_stepdown_sidak`` / ``decide_bonferroni`` -
  p-value-only baselines; the first two are exactly what the model-based
  rules collapse to when all hypotheses share one ROC function.

Each stepwise rule computes its own statistic and pass/fail comparison
along its ordering; one scan (``_scan``) turns those into the cutoff, the
rejected prefix, the realized threshold and the trace.  All stepwise
computations run on the M order statistics (never a continuum search), and
products of survival sizes are accumulated in log space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .allocate import (
    SOLVE_BLOCK,
    SizeConditionReport,
    _Scratch,
    _log_marginal_value,
    _size_condition_report,
    _size_profile,
    _stack_row,
    _validate_count,
    optimal_sizes,
)
from .model import RocModel

__all__ = [
    "Decision",
    "ProcedureTrace",
    "TruthAssignment",
    "decide_bh",
    "decide_bonferroni",
    "decide_fdr_opt",
    "decide_stepdown_sidak",
    "decide_strong_fwer",
    "decide_weak_fwer",
    "fdr_null_bounds",
    "generalized_pvalues",
]


@dataclass(frozen=True)
class ProcedureTrace:
    """Per-step diagnostics along the ordered scan (lengths M).

    ``order_stats`` holds the statistic the rule orders by (the raw
    p-value), or for the model rules the W of each step, which they order
    by log d; ``survival_product`` the step-down product statistic,
    ``size_sum`` the step-up cumulative-size statistic and ``threshold``
    the bound each step's statistic is held to.  A procedure fills the
    steps of its own path that it evaluated and leaves the rest, and the
    whole other path, NaN, which the CLI prints as null.  The baselines
    evaluate every step; the model rules evaluate the steps of the panel's
    solved prefix and the ones they read past it, which include every step
    that decides the cutoff.
    """

    order_stats: np.ndarray
    survival_product: np.ndarray
    size_sum: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        for name in ("order_stats", "survival_product", "size_sum", "threshold"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Decision:
    """Rejection vector plus the realized cutoff.

    ``cutoff_index`` counts rejected hypotheses (0 means none); the
    rejection set is always the first cutoff_index steps of the
    procedure's ordering.  The fixed-budget rules report their budget as
    ``alpha_threshold``.  A stepwise rule reports the order statistic of
    its deciding (last rejected) step, 0 when none is rejected: the
    p-value for the baselines, and W for the model rules, the left
    endpoint of the half-open interval of budgets realizing the same
    decision.  That W is the ``generalized_pvalues`` entry of the deciding
    hypothesis, bitwise."""

    reject: np.ndarray
    cutoff_index: int
    alpha_threshold: float
    trace: ProcedureTrace | None = None

    def __post_init__(self):
        arr = np.asarray(self.reject, dtype=bool)
        arr.setflags(write=False)
        object.__setattr__(self, "reject", arr)


@dataclass(frozen=True)
class TruthAssignment:
    """Ground-truth indicator vector: theta_m = 1 iff hypothesis m is a
    true alternative.  Used by simulation metrics only, never by the
    procedures themselves."""

    theta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.theta)
        if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
            raise ValueError("theta must be a 1-d 0/1 sequence")
        arr = arr.astype(np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)

    @property
    def n_alternatives(self) -> int:
        return int(self.theta.sum())


def _budget(q: float, name: str) -> float:
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {q!r}")
    return q


def _inputs(model: RocModel | None, s, budget: float = 0.0,
            name: str = "q") -> tuple[np.ndarray, float]:
    """The p-values as a float array and the budget as a float, checked:
    a nonempty 1-d sequence in [0, 1], one per hypothesis of ``model``
    when there is one, and a budget in [0, 1]."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need a nonempty 1-d p-value sequence")
    if not (s.min() >= 0.0 and s.max() <= 1.0):  # NaN and +-inf fail too
        raise ValueError("p-values must lie in [0, 1]")
    budget = _budget(budget, name)
    if model is not None and model.M != s.size:
        raise ValueError(f"model has M={model.M} but got {s.size} p-values")
    return s, budget


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums down the columns of an (M, K) array, or of each (M, K) array of
    an (n, M, K) stack, each accumulated row by row from 0.0 at the top.
    numpy sums two or more columns of a C-ordered array that way, stacked
    or not, but a single column pairwise, which rounds differently.
    """
    if a.shape[-1] > 1:
        return a.sum(axis=-2)
    return np.cumsum(a, axis=-2)[..., -1, :] + 0.0  # from 0.0: a sum of -0.0s is 0.0


def _rows(index: np.ndarray) -> tuple:
    """The index of ``a[r, index[r]]`` for each row r of an (n, M) array,
    or of ``a[index]`` for a 1-d one: ``np.take_along_axis``'s on the last
    axis, without its checks, which cost more than the gather on a small
    panel."""
    return (index,) if index.ndim == 1 else (np.arange(index.shape[0])[:, None], index)


def _panel_blocks(gammas, log_d, rank, cols, anchor=None, scratch=None):
    """Solve the columns ``cols`` of the panel in blocks, in the order
    given, and yield ``(block, log_sums, size_sums, size_max, log_products,
    anchor)`` for each: the columns of the block and their statistics (see
    ``_Panel``), and the warm start of the block after it.

    ``rank`` is the scan rank of each hypothesis, which the step-down sums
    mask by.  The columns are solved SOLVE_BLOCK // M at a time, so the
    columns of a panel of M <= 128 are one block.  The first block starts
    from ``anchor``, cold when it is None; every later one is anchored at
    the last finite column of the block before it (``_size_profile``).  A
    pass resumed from the anchor of the block where another stopped, on
    the columns after it, solves them as the unstopped pass would.

    A stack of n panels, each of ``gammas``, ``log_d`` and ``rank`` (n, M)
    and ``cols`` (n, K), is solved SOLVE_BLOCK // (n M) columns of each at
    a time, and its blocks and statistics are (n, k); every pair's solve
    is its own, so each panel's statistics are bitwise its pass's alone.
    A stack is solved cold, ``anchor`` being None, and yields it as given.

    The blocks share ``scratch``, a fresh one when None; what it yields,
    the anchors included, are fresh arrays.
    """
    scratch = _Scratch() if scratch is None else scratch
    per_block = max(1, SOLVE_BLOCK // gammas.size)
    for k0 in range(0, cols.shape[-1], per_block):
        block = cols[..., k0:k0 + per_block]
        t = log_d[_rows(block)]
        v, log1m = _size_profile(gammas, t, anchor, scratch)
        finite = np.flatnonzero(np.isfinite(t)) if t.ndim == 1 else ()
        if len(finite):
            k = finite[-1]
            anchor = (t[k], v[:, k].copy(), log1m[:, k].copy())
        log_sums = _column_sums(log1m)
        eta = np.expm1(log1m, out=scratch.take("eta", log1m.shape))
        np.negative(eta, out=eta)
        size_sums, size_max = _column_sums(eta), eta.max(axis=-2)
        ranked_before = scratch.take("ranked_before", log1m.shape, bool)
        np.copyto(log1m, 0.0, where=np.less(rank[..., :, None], rank[_rows(block)][..., None, :],
                                            out=ranked_before))
        log_products = _column_sums(log1m)
        yield block, log_sums, size_sums, size_max, log_products, anchor


# The columns of each panel in one block of a pass at M <= 128.
PASS_BLOCK = 16

# A column whose sum of log(1 - eta) is below this has W = -expm1(sum) =
# 1.0 exactly: exp(-40) = 4.2e-18 is below half an ulp of 1 (2^-54 =
# 5.6e-17) with a margin that the solve's relative 1e-13 on the sum cannot
# close.  Along the scan the sum does not increase, so every column after
# the first one below it has W = 1.0 too, as a pass over them would give.
SATURATED = -40.0


@dataclass(frozen=True)
class _Panel:
    """The O(M) reductions of one pass over the panel, by column.

    Column m sizes every hypothesis at d_m (log d_m is ``log_d[m]``).  The
    pass solves the columns in the scan order ``order``, whose inverse is
    ``rank``, and stops after the block where W saturates: the first
    ``solved`` of them are solved.  ``w[m]`` is W_m
    for every m, 1.0 past the solved prefix.  For the solved columns
    ``size_sums`` holds the step-up statistic S = sum_j eta_j,
    ``log_products`` the step-down statistic, the sum of log(1 - eta_j)
    over the hypotheses j not ranked before m, and ``size_max`` the
    largest size; all three are NaN past the prefix.  ``anchor`` is the
    warm start that resumes the pass (``_panel_blocks``), None at
    M <= 128, where a resume is cold as the pass is.
    """

    order: np.ndarray
    rank: np.ndarray
    log_d: np.ndarray
    w: np.ndarray
    log_products: np.ndarray
    size_sums: np.ndarray
    size_max: np.ndarray
    solved: int
    anchor: tuple | None


def _panel(model: RocModel, s: np.ndarray) -> _Panel:
    """The reductions of the panel of ``(model, s)``, solved once for
    consecutive calls on the same inputs.

    A panel of an open stack (``allocate.stacked``) at M <= 128 gets its
    pass from the stack, which keeps the passes of one group of
    SOLVE_BLOCK // (16 M) of its panels, made together.  Any other panel
    gets it from a memo keyed on the exact bytes of the gammas and the
    p-values, so a changed or mutated input is solved afresh; it holds
    only the O(M) arrays of one panel, and ``_panel_memo.cache_clear()``
    empties it.
    """
    M = s.size
    stack, r = _stack_row(model)
    if stack is None or M * M > SOLVE_BLOCK or stack.s[r].tobytes() != s.tobytes():
        return _panel_memo(model.gammas.tobytes(), s.tobytes())
    per_solve = SOLVE_BLOCK // (PASS_BLOCK * M)
    block, i = divmod(r, per_solve)
    kept = stack.kept.get("passes")
    if kept is None or kept[0] != block:
        rows = slice(block * per_solve, (block + 1) * per_solve)
        gammas = np.stack([m.gammas for m in stack.models[rows]])
        kept = stack.kept["passes"] = (block, _passes(gammas, stack.s[rows]))
    return kept[1][i]


@functools.lru_cache(maxsize=1)
def _panel_memo(gammas: bytes, s: bytes) -> _Panel:
    panel, = _passes(np.frombuffer(gammas)[None], np.frombuffer(s)[None])
    return panel


def _passes(gammas: np.ndarray, s: np.ndarray) -> list[_Panel]:
    """The passes over the n panels of the (n, M) arrays ``gammas`` and
    ``s``, one _Panel each.

    Each pass stops after the first block where W is exactly 1.0: the
    sum of log(1 - eta) does not increase along the scan.  At M <= 128 the
    n <= SOLVE_BLOCK // (16 M) panels are solved together, cold, one
    stacked ``_panel_blocks`` call per block of ``PASS_BLOCK`` columns of
    each panel still live, and a panel leaves the stack after the block
    where it saturates.  Above, n is 1 and each block of SOLVE_BLOCK // M
    columns is warm-started from the one before it.
    """
    n, M = s.shape
    log_d = _log_marginal_value(gammas, s)
    order = np.argsort(-log_d, axis=-1, kind="stable")  # the scan order
    rank = np.empty((n, M), dtype=np.intp)
    rank[_rows(order)] = np.arange(M)
    log_sums = np.full((n, M), -np.inf)  # W = 1.0 past the solved prefix
    log_products, size_sums, size_max = (np.full((n, M), np.nan) for _ in range(3))
    stats = (log_sums, size_sums, size_max, log_products)
    stack = M * M <= SOLVE_BLOCK
    width = PASS_BLOCK if stack else max(1, SOLVE_BLOCK // M)
    solved, live, anchor, scratch = np.full(n, M), np.arange(n), None, _Scratch()
    for k0 in range(0, M, width):
        cols = order[live, k0:k0 + width]
        panels = gammas[live], log_d[live], rank[live], cols
        if not stack:  # one panel, each block warm-started from the one before
            panels = [a[0] for a in panels]
        (_, *block, anchor), = _panel_blocks(*panels, anchor, scratch)
        for arr, stat in zip(stats, block):
            arr[live[:, None], cols] = stat
        saturated = log_sums[live, cols[:, -1]] < SATURATED
        solved[live[saturated]] = k0 + cols.shape[1]
        live = live[~saturated]
        if not live.size:
            break
    # W = 0.0 - expm1(sum): a column whose sum is 0.0 has W 0.0, not -0.0.
    w = 0.0 - np.expm1(log_sums)
    for arr in (order, rank, log_d, w, log_products, size_sums, size_max):
        arr.setflags(write=False)
    return [_Panel(order[i], rank[i], log_d[i], w[i], log_products[i], size_sums[i],
                   size_max[i], int(solved[i]), anchor) for i in range(n)]


def _scan(order: np.ndarray, order_stats: np.ndarray, passing: np.ndarray,
          statistic: np.ndarray, threshold: np.ndarray, *, step_up: bool) -> Decision:
    """The decision of a stepwise rule from its per-step ``passing`` along
    ``order``.

    Step-up rejects through the last passing step, step-down through the
    step before the first failing one.  ``statistic`` is the step-up size
    sum or the step-down log survival product, traced against
    ``threshold``.
    """
    M = order.size
    if step_up:
        hits = np.flatnonzero(passing)
        j = int(hits[-1]) + 1 if hits.size else 0
    else:
        j = int(np.argmin(passing)) if not passing.all() else M
    reject = np.zeros(M, dtype=bool)
    reject[order[:j]] = True
    unevaluated = np.full(M, np.nan)
    trace = ProcedureTrace(
        order_stats=order_stats,
        survival_product=unevaluated if step_up else np.exp(statistic),
        size_sum=statistic if step_up else unevaluated,
        threshold=threshold,
    )
    return Decision(reject=reject, cutoff_index=j,
                    alpha_threshold=float(order_stats[j - 1]) if j > 0 else 0.0,
                    trace=trace)


def generalized_pvalues(model: RocModel, s) -> np.ndarray:
    """Budget-scale p-values W_m: the smallest weak-FWER budget at which
    hypothesis m is rejected by the optimal allocation.

    Satisfies S_m = eta_m(W_m), that is
    ``optimal_sizes(model, W_m).sizes[m] == S_m``; in an exchangeable model
    W_m = 1 - (1 - S_m)^M.  A hypothesis whose p-value exceeds every size
    it can be allocated at a budget below 1 in floating point, a p-value
    of 1 included, gets W_m = 1.
    """
    s, _ = _inputs(model, s)
    return _panel(model, s).w.copy()


def _size_condition(model: RocModel, s) -> SizeConditionReport:
    """The size condition (M-1) * max_m eta_m <= sum_m eta_m over the
    candidate budgets W_m of ``(model, s)`` in (0, 1), the budgets
    ``check_size_condition`` accepts, which the step-up rule's FDR
    guarantee assumes; the first worst budget in input order is reported.
    With no candidate budget in (0, 1) the condition holds vacuously, and
    the worst budget and ratio are NaN.
    """
    s, _ = _inputs(model, s)
    panel = _panel(model, s)
    budgets = (panel.w > 0.0) & (panel.w < 1.0)
    if not budgets.any():
        return SizeConditionReport(satisfied=True, worst_alpha=math.nan, worst_ratio=math.nan)
    return _size_condition_report(panel.w[budgets], panel.size_max[budgets],
                                  panel.size_sums[budgets], s.size)


def decide_weak_fwer(model: RocModel, s, alpha: float) -> Decision:
    """Reject m iff S_m <= eta_m(alpha) under the optimal allocation.

    Controls the FWER at alpha under the joint null; not a stepwise rule
    (cutoff_index simply counts rejections, which still form a prefix of
    the budget-scale ordering)."""
    s, alpha = _inputs(model, s, alpha, "alpha")
    reject = s <= optimal_sizes(model, alpha).sizes
    return Decision(reject=reject, cutoff_index=int(reject.sum()), alpha_threshold=alpha)


def decide_strong_fwer(model: RocModel, s, qstar: float) -> Decision:
    """Step-down rule with strong FWER control at qstar.

    Along the budget-scale ordering (descending log d, ties by index),
    step k survives while the product of 1 - eta over the not-yet-rejected
    hypotheses, all sized at the multiplier d_(k), stays >= 1 - qstar; the
    cutoff is the last step of the longest surviving prefix.  With
    identical ROC functions this is exactly the step-down Sidak procedure.

    Where every step of the panel's solved prefix survives and qstar < 1,
    the pass resumes along the scan until a step fails; the trace leaves
    the steps after the last block solved NaN.
    """
    s, qstar = _inputs(model, s, qstar)
    panel = _panel(model, s)
    bound = math.log1p(-qstar) if qstar < 1.0 else -math.inf
    log_products = panel.log_products[panel.order]
    k = panel.solved
    if k < s.size and qstar < 1.0 and not np.any(log_products[:k] < bound):
        for cols, _, _, _, block, _ in _panel_blocks(model.gammas, panel.log_d, panel.rank,
                                                     panel.order[k:], panel.anchor):
            log_products[k:k + cols.size] = block
            k += cols.size
            if np.any(block < bound):
                break
    # A step fails where its product is below the bound; the steps left
    # unevaluated (NaN) lie past the first failing one, or pass at qstar = 1.
    return _scan(panel.order, panel.w[panel.order], ~(log_products < bound), log_products,
                 np.full(s.size, 1.0 - qstar), step_up=False)


def _last_passing(size_sum, line: np.ndarray, lo: int) -> int | None:
    """The last scan position k >= lo with S(k) <= line[k], or None, where
    ``size_sum(k)`` evaluates S at position k.

    S does not decrease along the scan, so a range [a, b] holds no passing
    position once S(a) > line[b]; ranges are searched right half first and
    dropped by that test, at one evaluation of S per range.
    """
    ranges = [(lo, line.size - 1)]
    while ranges:
        a, b = ranges.pop()
        if size_sum(a) > line[b]:
            continue
        if a == b:
            return a
        mid = (a + b + 1) // 2
        ranges += [(a, mid - 1), (mid, b)]
    return None


def decide_fdr_opt(model: RocModel, s, qstar: float) -> Decision:
    """Step-up rule with FDR control at qstar.

    Rejects the J largest-significance hypotheses in the budget-scale
    ordering (descending log d, ties by index), where J is the largest m
    with S(m) = sum_j eta_j(d_(m)) <= qstar * m.  Reduces to
    Benjamini-Hochberg when all ROC functions are identical.  Its FDR
    guarantee assumes the size condition, which ``decide`` reports over
    the candidate budgets.

    The steps past the panel's solved prefix are searched for the last
    passing one (``_last_passing``), one column at a time, unless the
    prefix's last S already exceeds qstar * M: S does not decrease, so no
    later step passes.  The trace leaves the steps the search does not
    evaluate NaN.
    """
    s, qstar = _inputs(model, s, qstar)
    panel = _panel(model, s)
    size_sums = panel.size_sums[panel.order]
    line = qstar * np.arange(1, s.size + 1)

    def size_sum(k: int) -> float:
        if np.isnan(size_sums[k]):
            column = _panel_blocks(model.gammas, panel.log_d, panel.rank, panel.order[k:k + 1])
            size_sums[k] = next(column)[2][0]  # the column's size sum
        return size_sums[k]

    # Every step the search evaluates past the one it finds fails, so the
    # scan's last passing step is that one, or else the prefix's.  S does
    # not decrease, so none past the prefix passes where the prefix's last
    # S exceeds the line's end.
    if panel.solved < s.size and size_sums[panel.solved - 1] <= line[-1]:
        _last_passing(size_sum, line, panel.solved)
    return _scan(panel.order, panel.w[panel.order], size_sums <= line, size_sums, line,
                 step_up=True)


def decide_bh(s, qstar: float) -> Decision:
    """Benjamini-Hochberg step-up on raw p-values: reject the J smallest
    with J = max{m : S_(m) <= qstar * m / M}."""
    s, qstar = _inputs(None, s, qstar)
    M = s.size
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    steps = np.arange(1, M + 1)
    return _scan(order, s_sorted, s_sorted <= qstar * steps / M, M * s_sorted, qstar * steps,
                 step_up=True)


def decide_stepdown_sidak(s, qstar: float) -> Decision:
    """Step-down Sidak on raw p-values: step i requires
    S_(i) <= 1 - (1 - qstar)^(1/(M - i + 1)); rejects the longest passing
    prefix."""
    s, qstar = _inputs(None, s, qstar)
    M = s.size
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    remaining = M - np.arange(M)
    thresholds = -np.expm1(np.log1p(-qstar) / remaining) if qstar < 1.0 else np.ones(M)
    # log(1 - S) is -inf at a p-value of 1, where the product is 0.
    log_survival = np.log1p(-s_sorted, out=np.full(M, -np.inf), where=s_sorted < 1.0)
    return _scan(order, s_sorted, s_sorted <= thresholds, remaining * log_survival, thresholds,
                 step_up=False)


def decide_bonferroni(s, alpha: float) -> Decision:
    """Fixed-threshold Bonferroni baseline: reject m iff S_m <= alpha / M."""
    s, alpha = _inputs(None, s, alpha, "alpha")
    reject = s <= alpha / s.size
    return Decision(reject=reject, cutoff_index=int(reject.sum()), alpha_threshold=alpha)


def fdr_null_bounds(M: int, qstar: float) -> tuple[float, float]:
    """Closed-form band for the FDR of the step-up rule when every null is
    true: [1 - (1 - qstar/M)^M, qstar]."""
    M = _validate_count(M)
    qstar = _budget(qstar, "q")
    lower = float(-np.expm1(M * np.log1p(-qstar / M)))
    return lower, qstar
