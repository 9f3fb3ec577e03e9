"""Multiple-decision procedures on a panel of p-values and a ``RocModel``.

The model-based stepwise rules share one engine.  A single panel solve
(``_solve_panel``) pins, for each hypothesis, the multiplier d_m = g_m(S_m)
at its p-value and sizes every hypothesis at every such multiplier, in
blocks of columns taken in ascending log d, each block warm-started from
the one before (``allocate._panel_log1m``).  The column sums of that
(M, M) array of log(1 - eta) give the budget-scale p-values W and their
ordering.  ``_stepwise_panel`` gathers the array once into scan order
and reduces it to five O(M) things: W, the ordering, the step-down
survival products (off the lower triangle), the step-up size
sums (down the columns) and the size-condition report.  Both stepwise
rules read those reductions, and a one-entry memo keyed on the exact bytes
of the gammas and the p-values serves them to the second rule called on
the same panel, so a panel asked for both rules is solved once; the memo
never holds the (M, M) array.  ``generalized_pvalues`` solves directly and
reads W alone.  The rules:

* ``decide_weak_fwer`` - fixed-budget rule: reject m iff its p-value is at
  most its optimally allocated size (a weighted-p-value rule; rejections
  need not be ordered like the raw p-values).
* ``decide_strong_fwer`` - step-down rule controlling the FWER for every
  configuration of true nulls.  Hypotheses are ordered by the budget-scale
  p-value W_m (the smallest weak-FWER budget at which m is rejected); the
  rule rejects the longest prefix along which the running product of
  survival sizes stays at or above 1 - q.
* ``decide_fdr_opt`` - step-up rule controlling the FDR at q: the largest
  ordered index m whose total allocated size does not exceed q*m wins.
* ``decide_bh`` / ``decide_stepdown_sidak`` / ``decide_bonferroni`` -
  p-value-only baselines; the first two are exactly what the model-based
  rules collapse to when all hypotheses share one ROC function.

Each stepwise rule computes its own statistic and pass/fail comparison
along its ordering; one scan (``_scan``) turns those into the cutoff, the
rejected prefix, the realized threshold and the trace.  All stepwise
computations run on the M order statistics (never a continuum search), and
products of survival sizes are accumulated in log space.  The step-up rule
also reports the size condition on its candidate budgets through the same
ratio check as ``allocate.check_size_condition``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .allocate import (
    SizeConditionReport,
    _log_marginal_value,
    _panel_log1m,
    _size_condition_report,
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

    ``survival_product`` carries the step-down product statistic and
    ``size_sum`` the step-up cumulative-size statistic; a procedure fills
    the path it actually evaluates and leaves the other as NaN.
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
    rejection set is always the cutoff_index smallest order statistics of
    the procedure's ordering.  ``alpha_threshold`` reports the left
    endpoint of the half-open interval of budgets realizing the same
    decision.  ``w`` holds the per-hypothesis budget-scale p-values that
    a stepwise model rule ordered by (None for the other rules)."""

    reject: np.ndarray
    cutoff_index: int
    alpha_threshold: float
    trace: ProcedureTrace | None = None
    size_condition: SizeConditionReport | None = None
    w: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.reject, dtype=bool)
        arr.setflags(write=False)
        object.__setattr__(self, "reject", arr)
        if self.w is not None:
            w = np.asarray(self.w, dtype=float)
            w.setflags(write=False)
            object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class TruthAssignment:
    """Ground-truth indicator vector: theta_m = 1 iff hypothesis m is a
    true alternative.  Used by simulation metrics only, never by the
    procedures themselves."""

    theta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.theta)
        if arr.ndim != 1 or not np.isin(arr, (0, 1)).all():
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
    if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    budget = _budget(budget, name)
    if model is not None and model.M != s.size:
        raise ValueError(f"model has M={model.M} but got {s.size} p-values")
    return s, budget


def _solve_panel(gammas: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one panel solve of effect sizes ``gammas`` at p-values ``s``:
    ``(w, order, log1m)``.

    ``w`` holds the budget-scale p-values and ``order`` their anti-ranks
    (``w[order]`` is nondecreasing, ties by index).  ``log1m[j, m]`` is
    log(1 - eta) of hypothesis j sized at budget W_m, both axes in input
    order.  The columns are solved in ascending log d_m, each block of
    them starting from the last one solved; a panel with M^2 <=
    ``SOLVE_BLOCK`` (M <= 128) is one block and starts cold.
    """
    log1m = _panel_log1m(gammas, _log_marginal_value(gammas, s))
    w = -np.expm1(log1m.sum(axis=0))
    return w, np.argsort(w, kind="stable"), log1m


@dataclass(frozen=True)
class _StepwisePanel:
    """The O(M) reductions of one panel solve that the stepwise rules read.

    ``log_products[i]`` is the step-down log survival product at scan step
    i, ``size_sums[i]`` the step-up size sum there, and ``size_condition``
    the size condition over the ordered budgets W_(i)."""

    w: np.ndarray
    order: np.ndarray
    log_products: np.ndarray
    size_sums: np.ndarray
    size_condition: SizeConditionReport


def _stepwise_panel(model: RocModel, s: np.ndarray) -> _StepwisePanel:
    """The reductions of the panel of ``(model, s)``, solved once for
    consecutive calls on the same inputs.

    The memo is keyed on the exact bytes of the gammas and the p-values, so
    a changed or mutated input is solved afresh, and it holds only O(M)
    arrays; ``_panel_memo.cache_clear()`` empties it.
    """
    return _panel_memo(model.gammas.tobytes(), s.tobytes())


@functools.lru_cache(maxsize=1)
def _panel_memo(gammas: bytes, s: bytes) -> _StepwisePanel:
    w, order, log1m = _solve_panel(np.frombuffer(gammas), np.frombuffer(s))
    # Rows and columns both in scan order.
    L = log1m[np.ix_(order, order)]
    del log1m
    # Column i summed over the rows r >= i not yet rejected, from the last
    # row up.
    log_products = np.tril(L)[::-1].sum(axis=0)
    eta = -np.expm1(L)
    del L
    size_sums = eta.sum(axis=0)
    for arr in (w, order, log_products, size_sums):
        arr.setflags(write=False)
    return _StepwisePanel(w, order, log_products, size_sums,
                          _size_condition_report(w[order], eta))


def _scan(order: np.ndarray, order_stats: np.ndarray, passing: np.ndarray,
          statistic: np.ndarray, threshold: np.ndarray, *, step_up: bool,
          **extra) -> Decision:
    """The decision of a stepwise rule from its per-step ``passing`` along
    ``order``.

    Step-up rejects through the last passing step, step-down through the
    step before the first failing one.  ``statistic`` is the step-up size
    sum or the step-down log survival product, traced against
    ``threshold``; ``extra`` passes on to ``Decision``.
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
                    trace=trace, **extra)


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
    return _solve_panel(model.gammas, s)[0]


def decide_weak_fwer(model: RocModel, s, alpha: float) -> Decision:
    """Reject m iff S_m <= eta_m(alpha) under the optimal allocation.

    Controls the FWER at alpha under the joint null; not a stepwise rule
    (cutoff_index simply counts rejections, which still form a prefix of
    the budget-scale ordering)."""
    s, alpha = _inputs(model, s, alpha, "alpha")
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    reject = s <= optimal_sizes(model, alpha).sizes
    return Decision(reject=reject, cutoff_index=int(reject.sum()), alpha_threshold=alpha)


def decide_strong_fwer(model: RocModel, s, qstar: float) -> Decision:
    """Step-down rule with strong FWER control at qstar.

    Along the budget-scale ordering, step i survives while the product of
    1 - eta over the not-yet-rejected hypotheses, all sized at budget
    W_(i), stays >= 1 - qstar; the cutoff is the last step of the longest
    surviving prefix.  With identical ROC functions this is exactly the
    step-down Sidak procedure.
    """
    s, qstar = _inputs(model, s, qstar)
    panel = _stepwise_panel(model, s)
    bound = math.log1p(-qstar) if qstar < 1.0 else -math.inf
    log_products = panel.log_products
    return _scan(panel.order, panel.w[panel.order], log_products >= bound, log_products,
                 np.full(s.size, 1.0 - qstar), step_up=False, w=panel.w)


def decide_fdr_opt(model: RocModel, s, qstar: float) -> Decision:
    """Step-up rule with FDR control at qstar.

    Rejects the J largest-significance hypotheses in the budget-scale
    ordering, where J is the largest m with
    sum_j eta_j(W_(m)) <= qstar * m.  Reduces to Benjamini-Hochberg when
    all ROC functions are identical.  A size-condition diagnostic over the
    realized candidate budgets (the W order statistics) is attached; a
    failing condition annotates but never refuses the decision.
    """
    s, qstar = _inputs(model, s, qstar)
    panel = _stepwise_panel(model, s)
    size_sums = panel.size_sums
    bounds = qstar * np.arange(1, s.size + 1)
    return _scan(panel.order, panel.w[panel.order], size_sums <= bounds, size_sums, bounds,
                 step_up=True, w=panel.w, size_condition=panel.size_condition)


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
    if int(M) != M or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    qstar = _budget(qstar, "q")
    lower = float(-np.expm1(M * np.log1p(-qstar / M)))
    return lower, qstar
