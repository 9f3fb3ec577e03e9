"""Multiple-decision procedures on a panel of p-values and a ``RocModel``.

The model-based stepwise rules share one engine: a single panel solve
(``_solve_panel``) pins, for each hypothesis, the multiplier d_m = g_m(S_m)
at its p-value and sizes every hypothesis at every such multiplier.  That
one (M, M) array of log(1 - eta) gives the budget-scale p-values W, their
ordering, the step-down products and the step-up size sums.  The rules:

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

All stepwise computations run on the M order statistics (never a continuum
search), and products of survival sizes are accumulated in log space.
The step-up rule also reports the size condition on its candidate budgets
through the same ratio check as ``allocate.check_size_condition``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocate import (
    SizeConditionReport,
    _log_marginal_value,
    _size_condition_report,
    _size_profile,
    optimal_sizes,
)
from .model import RocModel

__all__ = [
    "Decision",
    "PValuePanel",
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
class PValuePanel:
    """Ordinary p-values S, budget-scale p-values W, and the anti-rank
    permutation sorting W ascending (ties broken by original index)."""

    s: np.ndarray
    w: np.ndarray
    antiranks: np.ndarray

    def __post_init__(self):
        for name in ("s", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ranks = np.asarray(self.antiranks, dtype=np.intp)
        ranks.setflags(write=False)
        object.__setattr__(self, "antiranks", ranks)

    @property
    def M(self) -> int:
        return self.s.size


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
    procedure_tag: str
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

    @property
    def n_rejected(self) -> int:
        return int(self.reject.sum())


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
    def M(self) -> int:
        return self.theta.size

    @property
    def n_alternatives(self) -> int:
        return int(self.theta.sum())

    @property
    def null_indices(self) -> np.ndarray:
        return np.nonzero(self.theta == 0)[0]

    @property
    def alternative_indices(self) -> np.ndarray:
        return np.nonzero(self.theta == 1)[0]


def _validate_pvalues(s) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need a nonempty 1-d p-value sequence")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return s


def _validate_budget(q: float, name: str = "q") -> float:
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {q!r}")
    return q


@dataclass(frozen=True)
class _PanelSolution:
    """One shared solve per panel: the budget-scale p-values, their
    ordering, and the size profile at every candidate cutoff."""

    w: np.ndarray          # budget-scale p-values, per hypothesis
    order: np.ndarray      # anti-ranks: w[order] is nondecreasing
    log1m: np.ndarray      # (M, M): log(1 - eta_j) at the multiplier of hypothesis m


def _solve_panel(model: RocModel, s: np.ndarray) -> _PanelSolution:
    gammas = model.gammas
    log_d = _log_marginal_value(gammas, s)
    _, log1m = _size_profile(gammas, log_d)
    w = -np.expm1(log1m.sum(axis=0))
    return _PanelSolution(w=w, order=np.argsort(w, kind="stable"), log1m=log1m)


def generalized_pvalues(model: RocModel, s) -> PValuePanel:
    """Budget-scale p-values W_m: the smallest weak-FWER budget at which
    hypothesis m is rejected by the optimal allocation.

    Satisfies S_m = eta_m(W_m); in an exchangeable model
    W_m = 1 - (1 - S_m)^M.  Anti-rank ties break by ascending index.
    A hypothesis whose p-value exceeds every size it can ever be allocated
    is rejected at no budget below 1, and its W_m is (numerically) 1: the
    empty infimum resolves to 1 rather than an error, unlike the strict
    inverse ``size_map_inverse``.
    """
    s = _validate_pvalues(s)
    if model.M != s.size:
        raise ValueError(f"model has M={model.M} but got {s.size} p-values")
    sol = _solve_panel(model, s)
    return PValuePanel(s=s, w=sol.w, antiranks=sol.order)


def _prefix_decision(order: np.ndarray, j: int) -> np.ndarray:
    reject = np.zeros(order.size, dtype=bool)
    if j > 0:
        reject[order[:j]] = True
    return reject


def decide_weak_fwer(model: RocModel, s, alpha: float) -> Decision:
    """Reject m iff S_m <= eta_m(alpha) under the optimal allocation.

    Controls the FWER at alpha under the joint null; not a stepwise rule
    (cutoff_index simply counts rejections, which still form a prefix of
    the budget-scale ordering)."""
    s = _validate_pvalues(s)
    alpha = _validate_budget(alpha, "alpha")
    if model.M != s.size:
        raise ValueError(f"model has M={model.M} but got {s.size} p-values")
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    sizes = optimal_sizes(model, alpha).sizes
    reject = s <= sizes
    return Decision(
        reject=reject,
        cutoff_index=int(reject.sum()),
        alpha_threshold=alpha,
        procedure_tag="weak-fwer-opt",
    )


def decide_strong_fwer(model: RocModel, s, qstar: float) -> Decision:
    """Step-down rule with strong FWER control at qstar.

    Along the budget-scale ordering, step i survives while the product of
    1 - eta over the not-yet-rejected hypotheses, all sized at budget
    W_(i), stays >= 1 - qstar; the cutoff is the last step of the longest
    surviving prefix.  With identical ROC functions this is exactly the
    step-down Sidak procedure.
    """
    s = _validate_pvalues(s)
    qstar = _validate_budget(qstar)
    if model.M != s.size:
        raise ValueError(f"model has M={model.M} but got {s.size} p-values")
    sol = _solve_panel(model, s)
    M = s.size
    # Row r / column i: hypothesis with anti-rank r, sized at budget W_(i).
    log1m_ord = sol.log1m[sol.order][:, sol.order]
    suffix = np.cumsum(log1m_ord[::-1, :], axis=0)[::-1, :]
    log_products = np.diagonal(suffix).copy()
    bound = math.log1p(-qstar) if qstar < 1.0 else -math.inf
    passing = log_products >= bound
    j = int(np.argmin(passing)) if not passing.all() else M

    w_sorted = sol.w[sol.order]
    trace = ProcedureTrace(
        order_stats=w_sorted,
        survival_product=np.exp(log_products),
        size_sum=np.full(M, np.nan),
        threshold=np.full(M, 1.0 - qstar),
    )
    return Decision(
        reject=_prefix_decision(sol.order, j),
        cutoff_index=j,
        alpha_threshold=float(w_sorted[j - 1]) if j > 0 else 0.0,
        procedure_tag="strong-fwer-opt",
        trace=trace,
        w=sol.w,
    )


def decide_fdr_opt(model: RocModel, s, qstar: float) -> Decision:
    """Step-up rule with FDR control at qstar.

    Rejects the J largest-significance hypotheses in the budget-scale
    ordering, where J is the largest m with
    sum_j eta_j(W_(m)) <= qstar * m.  Reduces to Benjamini-Hochberg when
    all ROC functions are identical.  A size-condition diagnostic over the
    realized candidate budgets (the W order statistics) is attached; a
    failing condition annotates but never refuses the decision.
    """
    s = _validate_pvalues(s)
    qstar = _validate_budget(qstar)
    if model.M != s.size:
        raise ValueError(f"model has M={model.M} but got {s.size} p-values")
    sol = _solve_panel(model, s)
    M = s.size
    # Column i: every hypothesis sized at budget W_(i).
    eta_ordered = -np.expm1(sol.log1m[:, sol.order])
    size_sums = eta_ordered.sum(axis=0)
    bounds = qstar * np.arange(1, M + 1)
    passing = np.nonzero(size_sums <= bounds)[0]
    j = int(passing[-1]) + 1 if passing.size else 0

    w_sorted = sol.w[sol.order]
    trace = ProcedureTrace(
        order_stats=w_sorted,
        survival_product=np.full(M, np.nan),
        size_sum=size_sums,
        threshold=bounds,
    )
    return Decision(
        reject=_prefix_decision(sol.order, j),
        cutoff_index=j,
        alpha_threshold=float(w_sorted[j - 1]) if j > 0 else 0.0,
        procedure_tag="fdr-opt",
        trace=trace,
        size_condition=_size_condition_report(w_sorted, eta_ordered),
        w=sol.w,
    )


def decide_bh(s, qstar: float) -> Decision:
    """Benjamini-Hochberg step-up on raw p-values: reject the J smallest
    with J = max{m : S_(m) <= qstar * m / M}."""
    s = _validate_pvalues(s)
    qstar = _validate_budget(qstar)
    M = s.size
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    bounds = qstar * np.arange(1, M + 1) / M
    passing = np.nonzero(s_sorted <= bounds)[0]
    j = int(passing[-1]) + 1 if passing.size else 0
    trace = ProcedureTrace(
        order_stats=s_sorted,
        survival_product=np.full(M, np.nan),
        size_sum=M * s_sorted,
        threshold=qstar * np.arange(1, M + 1),
    )
    return Decision(
        reject=_prefix_decision(order, j),
        cutoff_index=j,
        alpha_threshold=float(s_sorted[j - 1]) if j > 0 else 0.0,
        procedure_tag="bh",
        trace=trace,
    )


def decide_stepdown_sidak(s, qstar: float) -> Decision:
    """Step-down Sidak on raw p-values: step i requires
    S_(i) <= 1 - (1 - qstar)^(1/(M - i + 1)); rejects the longest passing
    prefix."""
    s = _validate_pvalues(s)
    qstar = _validate_budget(qstar)
    M = s.size
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    thresholds = -np.expm1(np.log1p(-qstar) / (M - np.arange(M))) if qstar < 1.0 else np.ones(M)
    passing = s_sorted <= thresholds
    j = int(np.argmin(passing)) if not passing.all() else M
    trace = ProcedureTrace(
        order_stats=s_sorted,
        survival_product=np.exp((M - np.arange(M)) * np.log1p(-np.minimum(s_sorted, 1.0 - 1e-300))),
        size_sum=np.full(M, np.nan),
        threshold=thresholds,
    )
    return Decision(
        reject=_prefix_decision(order, j),
        cutoff_index=j,
        alpha_threshold=float(s_sorted[j - 1]) if j > 0 else 0.0,
        procedure_tag="stepdown-sidak",
        trace=trace,
    )


def decide_bonferroni(s, alpha: float) -> Decision:
    """Fixed-threshold Bonferroni baseline: reject m iff S_m <= alpha / M."""
    s = _validate_pvalues(s)
    alpha = _validate_budget(alpha, "alpha")
    reject = s <= alpha / s.size
    return Decision(
        reject=reject,
        cutoff_index=int(reject.sum()),
        alpha_threshold=alpha,
        procedure_tag="bonferroni",
    )


def fdr_null_bounds(M: int, qstar: float) -> tuple[float, float]:
    """Closed-form band for the FDR of the step-up rule when every null is
    true: [1 - (1 - qstar/M)^M, qstar]."""
    if int(M) != M or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    qstar = _validate_budget(qstar)
    lower = float(-np.expm1(M * np.log1p(-qstar / M)))
    return lower, qstar
