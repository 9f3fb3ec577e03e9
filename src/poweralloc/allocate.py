"""Per-test size allocation under a weak family-wise error budget.

Baselines (Sidak, Bonferroni) have closed forms.  The power-optimal
allocation solves the constrained program

    maximize   sum_m rho_m(eta_m)
    subject to sum_m log(1 - eta_m) = log(1 - alpha),

whose stationarity conditions equate the marginal value
g_m(eta) = rho_m'(eta) * (1 - eta) across tests to a common multiplier d.
For the Gaussian family this reduces, per test, to the scalar equation

    log Phi(v_m) + gamma_m * v_m - log d - gamma_m^2 / 2 = 0

in v_m = Phi^{-1}(1 - eta_m), solved by a blocked, safeguarded Halley
iteration on v in [-40, 40] that hands back log Phi(v_m) = log(1 - eta_m)
from its last evaluation; the budget equation in d is then solved by a
bracketed root find on log d (the constraint gap is monotone in d because
every g_m is nonincreasing).  The Sidak size eta_S = 1 - (1-alpha)^(1/M)
brackets that root in closed form: at d = min_m g_m(eta_S) every size is
at least eta_S, and at d = max_m g_m(eta_S) at most eta_S.  All
aggregation happens on log(1 - eta), so allocations with sizes near 1e-12
or far smaller lose no precision.

Hypotheses that share an effect size share their size, so the system is
solved once per distinct gamma, each weighted by its count in the budget
sum: a panel with K distinct effect sizes costs a K-element solve, and an
exchangeable panel a single one at the Sidak multiplier.

The one-parameter structure also gives the inverse map cheaply: the budget
W at which test m first receives size s is the budget realized at the
multiplier d = g_m(s), with no nested root finding.
``procedures.generalized_pvalues`` evaluates it for a whole panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .model import RocModel
from .numerics import Bracket, find_root

__all__ = [
    "AllocationError",
    "SizeAllocation",
    "SizeConditionReport",
    "bonferroni_sizes",
    "check_size_condition",
    "optimal_sizes",
    "sidak_sizes",
]

LOG_SQRT_2PI = 0.9189385332046727
V_LO, V_HI = -40.0, 40.0
INNER_TOL = 1e-13
OUTER_TOL = 1e-13
BUDGET_TOL = 1e-10
EPS = float(np.finfo(float).eps)
# log_ndtr(v) returns 0 once 1 - Phi(v) drops below about 6e-311 (v > 37.677,
# where erfc underflows): a log Phi under this magnitude cannot be resolved.
LOG_PHI_FLUSH = 1e-310
LOG_PHI_LO, LOG_PHI_HI = float(log_ndtr(V_LO)), float(log_ndtr(V_HI))
# Elements per block of the inner solve: its dozen working arrays of
# 128 KB each stay in cache across the ~50 array passes of an iteration.
# On an M=1000 panel, blocks of 8192 to 65536 were equally fast, and both
# 2048 and one block of all 10^6 elements about 1.5 times slower.
SOLVE_BLOCK = 16384


class AllocationError(RuntimeError):
    """The Lagrange system could not be solved to the budget's precision."""


@dataclass(frozen=True)
class SizeAllocation:
    """A size vector eta under budget alpha, with solver diagnostics.

    ``log1m_sizes`` is the authoritative log(1 - eta_m) representation used
    for all products/sums; ``sizes`` is its full-precision complement.
    ``lagrange`` is the common marginal value d = rho_m'(eta_m)(1 - eta_m)
    (None for baseline methods, where no stationarity system is solved).
    """

    alpha: float
    sizes: np.ndarray
    log1m_sizes: np.ndarray
    lagrange: float | None
    constraint_residual: float
    stationarity_residual: float | None
    method: str

    def __post_init__(self):
        for name in ("sizes", "log1m_sizes"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def M(self) -> int:
        return self.sizes.size


@dataclass(frozen=True)
class SizeConditionReport:
    """Worst case of (M-1) * max_m eta_m(alpha) <= sum_m eta_m(alpha) over a
    budget grid; satisfied iff worst_ratio <= 1."""

    satisfied: bool
    worst_alpha: float
    worst_ratio: float


def _validate_alpha(alpha: float, *, allow_zero: bool = True) -> float:
    alpha = float(alpha)
    lo_ok = (alpha >= 0.0) if allow_zero else (alpha > 0.0)
    if not (lo_ok and alpha < 1.0 and math.isfinite(alpha)):
        bound = "[0, 1)" if allow_zero else "(0, 1)"
        raise ValueError(f"alpha must lie in {bound}, got {alpha!r}")
    return alpha


def sidak_sizes(M: int, alpha: float) -> SizeAllocation:
    """Equal sizes 1 - (1-alpha)^(1/M); meets the budget with equality."""
    M = _validate_count(M)
    alpha = _validate_alpha(alpha)
    log1m = np.full(M, np.log1p(-alpha) / M)
    return SizeAllocation(
        alpha=alpha,
        sizes=-np.expm1(log1m),
        log1m_sizes=log1m,
        lagrange=None,
        constraint_residual=float(log1m.sum() - np.log1p(-alpha)),
        stationarity_residual=None,
        method="sidak",
    )


def bonferroni_sizes(M: int, alpha: float) -> SizeAllocation:
    """Equal sizes alpha/M; conservative (constraint residual >= 0)."""
    M = _validate_count(M)
    alpha = _validate_alpha(alpha)
    sizes = np.full(M, alpha / M)
    log1m = np.log1p(-sizes)
    return SizeAllocation(
        alpha=alpha,
        sizes=sizes,
        log1m_sizes=log1m,
        lagrange=None,
        constraint_residual=float(log1m.sum() - np.log1p(-alpha)),
        stationarity_residual=None,
        method="bonferroni",
    )


def _validate_count(M: int) -> int:
    if int(M) != M or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return int(M)


# ---------------------------------------------------------------------------
# Gaussian inner solve: log Phi(v) + gamma v = c, elementwise on arrays.
# ---------------------------------------------------------------------------

def _solve_v(gamma, c, tol: float = INNER_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Solve log Phi(v) + gamma*v = c for each element, v in [V_LO, V_HI];
    returns v and log Phi(v), the latter from the solve's last evaluation.

    A blocked Halley iteration: the flattened elements are solved
    SOLVE_BLOCK at a time, so the working arrays stay in cache and no
    temporary the size of the whole input is made.  The left side is
    strictly increasing (slope r + gamma, r = phi/Phi) and concave
    (curvature -r (v + r)), so the Halley step needs no evaluation beyond
    log Phi, and a bracket with bisection fallback keeps it convergent.
    Elements whose root lies outside [V_LO, V_HI] are clamped to the
    endpoint, which encodes the corner cases eta ~ 0 (v at V_HI) and
    eta ~ 1 (v at V_LO).  An element stops once the error it leaves in
    log Phi(v) = log(1 - eta) is below tol relative to that log, so sizes
    far below tol keep their precision; it keeps the v at which that log
    was measured.  Far in the upper tail the steps creep by about 1/v,
    hence the generous iteration cap.
    """
    shape = np.broadcast_shapes(np.shape(gamma), np.shape(c))
    # A 2-d view whose row blocks copy only their own rows of a broadcast
    # input: a panel passes gamma as an (M, 1) column.
    rows = (-1, shape[-1]) if len(shape) > 1 else (-1, 1)
    g = np.broadcast_to(np.asarray(gamma, dtype=float), shape).reshape(rows)
    cc = np.broadcast_to(np.asarray(c, dtype=float), shape).reshape(rows)
    v = np.empty(g.shape)
    log_phi = np.empty(g.shape)
    per_block = max(1, SOLVE_BLOCK // g.shape[1])
    unconverged = 0
    # slope = r + gamma is 0 where gamma = 0 and phi(v) underflows (v past
    # ~38.6): the Halley step is then not finite and the element bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r0 in range(0, g.shape[0], per_block):
            rs = slice(r0, r0 + per_block)
            unconverged += _solve_block(g[rs].ravel(), cc[rs].ravel(),
                                        v[rs].reshape(-1), log_phi[rs].reshape(-1), tol)
    if unconverged:
        raise AllocationError(
            f"inner size solve did not converge for {unconverged} of {g.size} elements"
        )
    return v.reshape(shape), log_phi.reshape(shape)


def _solve_block(g, c, v_out, log_phi_out, tol: float) -> int:
    """One block of ``_solve_v``: writes v and log Phi(v) into the output
    views and returns the number of elements left unconverged."""
    below = (LOG_PHI_HI + g * V_HI) <= c  # root beyond V_HI
    above = (LOG_PHI_LO + g * V_LO) >= c  # root below V_LO
    v_out[below], log_phi_out[below] = V_HI, LOG_PHI_HI
    v_out[above], log_phi_out[above] = V_LO, LOG_PHI_LO
    pos = np.flatnonzero(~(below | above))
    if pos.size < g.size:
        g, c = g[pos], c[pos]
    # Initial guess: linear regime log Phi ~ 0 for c >= log(1/2), else the
    # quadratic tail approximation log Phi(v) ~ -v^2/2; gamma = 0 inverts
    # log Phi directly.
    v = np.where(c >= -math.log(2.0), c / g, g - np.sqrt(np.maximum(g * g - 2.0 * c, 0.0)))
    zero = g <= 0.0
    if zero.any():
        v[zero] = ndtri_exp(np.minimum(c[zero], -1e-300))
    v = np.clip(np.nan_to_num(v, nan=0.0), V_LO, V_HI)

    lo = np.full(v.shape, V_LO)
    hi = np.full(v.shape, V_HI)
    for _ in range(1000):
        if not pos.size:
            return 0
        li = log_ndtr(v)
        err = g * v
        err += li
        err -= c
        abs_err = np.abs(err)
        # Still active while err is above the rounding of c, the error
        # err * r / slope it leaves in log Phi(v) = log(1 - eta) exceeds tol
        # relative to that log (absolute past magnitude 1), and the bracket
        # is wider than a few ulp.
        active = abs_err > 4.0 * EPS * np.abs(c)
        r = v * v
        r *= -0.5
        r -= LOG_SQRT_2PI
        r -= li
        np.exp(r, out=r)  # r = phi(v) / Phi(v)
        inv_slope = r + g
        np.reciprocal(inv_slope, out=inv_slope)
        newton = err * inv_slope
        log1m_err = np.abs(newton)
        log1m_err *= r
        threshold = np.maximum(li, -1.0)  # -min(1, |log Phi|), as log Phi <= 0
        threshold *= -tol
        above_tol = log1m_err > threshold
        if li.max() == 0.0:
            # Where log Phi has flushed to 0, r underflows and the relative
            # test passes whatever err is: such an element stops only once
            # err is below the flush, where a target below the flush is met.
            above_tol = np.where(li == 0.0, abs_err > LOG_PHI_FLUSH, above_tol)
        active &= above_tol
        # Spent arrays go at once: a small panel's blocks live on the heap,
        # whose high-water mark is the process's peak RSS.
        del abs_err, log1m_err, threshold, above_tol
        neg = err < 0.0
        lo = np.where(neg, v, lo)
        hi = np.where(neg, hi, v)
        del err, neg
        active &= hi - lo > 1e-15 * np.maximum(1.0, np.abs(v))
        # Halley: v - n / (1 - n f'' / (2 f')) with the Newton step n and
        # f'' = -r (v + r).
        step = v + r
        step *= r
        step *= newton
        step *= inv_slope
        step *= 0.5
        step += 1.0
        np.divide(newton, step, out=step)
        np.subtract(v, step, out=step)
        bisect = ~((step > lo) & (step < hi))  # true for a step that is not finite
        if bisect.any():
            step[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        if not active.all():
            done = ~active
            v_out[pos[done]] = v[done]
            log_phi_out[pos[done]] = li[done]
            keep = np.flatnonzero(active)
            pos, g, c, lo, hi, step = (a[keep] for a in (pos, g, c, lo, hi, step))
        v = step
    return pos.size


def _log_marginal_value(gammas, s) -> np.ndarray:
    """log g_m(s) = log[rho_m'(s) (1 - s)] at sizes s, elementwise.

    s = 0 maps to +inf (infinite marginal value at zero size when gamma > 0;
    by convention also for gamma = 0, where a zero size is only taken at a
    zero budget).  s = 1 maps to -inf for every gamma: a size reaches 1
    only as d -> 0, where every other size reaches 1 too, so the budget is 1.
    """
    shape = np.broadcast_shapes(np.shape(gammas), np.shape(s))
    gv = np.ascontiguousarray(np.broadcast_to(gammas, shape), dtype=float).ravel()
    sv = np.ascontiguousarray(np.broadcast_to(s, shape), dtype=float).ravel()
    out = np.where(sv < 1.0, np.inf, -np.inf)
    interior = (sv > 0.0) & (sv < 1.0)
    v = -ndtri(sv[interior])
    gi = gv[interior]
    out[interior] = log_ndtr(v) + gi * v - 0.5 * gi * gi
    return out.reshape(shape)


def _size_profile(gammas, log_d) -> tuple[np.ndarray, np.ndarray]:
    """(v, log(1-eta)) for every (hypothesis, multiplier) pair.

    ``log_d`` may be scalar or a K-vector; the result has shape (M,) or
    (M, K).  Infinite multipliers yield zero sizes (log(1-eta) = 0).
    """
    gammas = np.asarray(gammas, dtype=float)
    log_d = np.asarray(log_d, dtype=float)
    if log_d.ndim == 0:
        return _solve_v(gammas, log_d + 0.5 * gammas * gammas)
    c = log_d[np.newaxis, :] + 0.5 * (gammas * gammas)[:, np.newaxis]
    return _solve_v(gammas[:, np.newaxis], c)


def _constraint_gap(gammas, counts, log_d: float, target: float) -> tuple[float, float]:
    """The budget gap sum_m counts_m log(1 - eta_m(d)) - target at log d,
    and its derivative in log d, from one size profile."""
    v, log1m = _size_profile(gammas, log_d)
    # d(sum log(1-eta)) / d(log d) = sum r/(r+gamma), r = phi(v)/Phi(v).
    # Corner coordinates (r and gamma both ~0) contribute nothing.
    r = np.exp(-0.5 * v * v - LOG_SQRT_2PI - log1m)
    with np.errstate(invalid="ignore"):
        ratio = r / (r + gammas)
    slope = float(counts @ np.where(np.isnan(ratio), 0.0, ratio))
    return float(counts @ log1m) - target, slope


def _solve_multiplier(gammas: np.ndarray, counts: np.ndarray, alpha: float) -> float:
    """Root of sum_m counts_m log(1 - eta_m(d)) = log(1 - alpha) in log d.

    The gap is monotone increasing in log d.  Every g_m is nonincreasing,
    so at log d = min_m log g_m(eta_S) each size is at least the Sidak size
    eta_S (gap <= 0), and at max_m log g_m(eta_S) at most eta_S (gap >= 0).
    An end whose gap rounds to the wrong sign is itself the root.  Below 1,
    both the gap and log d are measured in units of the budget
    |log(1 - alpha)| (floored where the scaled gap would overflow), so that
    OUTER_TOL is relative for small budgets and absolute for large ones.
    """
    target = math.log1p(-alpha)
    log1m_s = target / counts.sum()
    if log1m_s == 0.0:  # a budget this small gives every test size 0
        return math.inf
    # log g_m(eta_S) from log(1 - eta_S), so that eta_S near 1 keeps its
    # precision: log Phi(v_S) = log(1 - eta_S) at v_S = Phi^{-1}(1 - eta_S).
    log_g = log1m_s + gammas * float(ndtri_exp(log1m_s)) - 0.5 * gammas * gammas
    scale = min(1.0, max(-target, 1e-200))
    lo, hi = float(log_g.min()) / scale, float(log_g.max()) / scale
    evaluated: dict[float, tuple[float, float]] = {}

    def gap(t: float) -> float:  # t = log d / scale
        value, slope = _constraint_gap(gammas, counts, t * scale, target)
        evaluated[t] = (value / scale, slope)
        return evaluated[t][0]

    if lo == hi or gap(lo) >= 0.0:
        root = lo
    elif gap(hi) <= 0.0:
        root = hi
    else:
        # The root finder takes Newton steps only from points it has
        # already evaluated, so each slope comes with its gap.  Its
        # stagnation guard halves the bracket at least once every three
        # steps, so this many steps narrow any bracket to OUTER_TOL, however
        # flat the gap is on the side the Newton steps come from.
        bracket = Bracket(lo, hi, evaluated[lo][0], evaluated[hi][0])
        halvings = max(0, math.ceil(math.log2(hi - lo) - math.log2(OUTER_TOL)))
        root = find_root(
            gap,
            bracket,
            tol=OUTER_TOL,
            max_iter=3 * halvings + 4,
            df=lambda t: evaluated[t][1],
        ).root
    # The Sidak multiplier of an exchangeable panel still carries the
    # rounding of the inner solves, and a bracket that narrows below
    # OUTER_TOL can stop with a gap of slope * OUTER_TOL: one Newton step
    # from the last point removes either.
    if root not in evaluated:
        gap(root)
    value, slope = evaluated[root]
    if abs(value) > OUTER_TOL and slope > 0.0:
        root -= value / slope
    return root * scale


def _solve_system(gammas, counts, alpha):
    """Optimal allocation for effect sizes ``gammas`` that occur ``counts``
    times each; returns (lagrange, log1m, sizes, constraint_residual,
    stationarity_residual), log1m and sizes with one entry per gamma.  A
    multiplier beyond the float range, as at a zero budget, is reported as
    inf.  Raises AllocationError when the sizes miss the budget by more
    than BUDGET_TOL, which happens once gamma^2/2 is so large that log d
    has no precision left (gamma ~ 1e8)."""
    log_d = _solve_multiplier(gammas, counts, alpha)
    v, log1m = _size_profile(gammas, log_d)
    sizes = -np.expm1(log1m)
    constraint = float(counts @ log1m) - math.log1p(-alpha)
    if not abs(constraint) <= BUDGET_TOL:
        raise AllocationError(
            f"the sizes miss the budget by {constraint:.3g} in log(1 - alpha); "
            f"the effect sizes are beyond the solver's precision"
        )
    # Stationarity in log space at the solved v; endpoint-clamped
    # coordinates are corner solutions (eta pinned at ~0 or ~1) where the
    # multiplier condition holds as an inequality, so they are excluded.
    err = log1m + gammas * v - 0.5 * gammas * gammas - log_d
    interior = (v > V_LO) & (v < V_HI)
    stationarity = float(np.abs(np.expm1(err[interior])).max()) if interior.any() else 0.0
    with np.errstate(over="ignore"):
        lagrange = float(np.exp(log_d))
    return lagrange, log1m, sizes, constraint, stationarity


def optimal_sizes(model: RocModel, alpha: float) -> SizeAllocation:
    """Power-optimal size vector under weak FWER budget alpha.

    Satisfies rho_m'(eta_m)(1 - eta_m) = d for a common d and
    sum log(1 - eta_m) = log(1 - alpha); for an exchangeable model this is
    exactly the Sidak allocation.  Equal effect sizes get bitwise-equal
    sizes, and a zero budget gives every test size 0.
    """
    alpha = _validate_alpha(alpha)
    gammas, inverse, counts = np.unique(model.gammas, return_inverse=True, return_counts=True)
    lagrange, log1m, sizes, constraint, stationarity = _solve_system(
        gammas, counts.astype(float), alpha)
    return SizeAllocation(
        alpha=alpha,
        sizes=sizes[inverse],
        log1m_sizes=log1m[inverse],
        lagrange=lagrange,
        constraint_residual=constraint,
        stationarity_residual=stationarity,
        method="optimal",
    )


def _size_condition_report(grid, sizes) -> SizeConditionReport:
    """Size condition (M-1) * max_m eta_m <= sum_m eta_m for every column
    of the (M, K) matrix ``sizes``, column k being the allocation at budget
    grid[k]; the first worst column is reported."""
    M = sizes.shape[0]
    col_max = sizes.max(axis=0)
    col_sum = sizes.sum(axis=0)
    ok = col_sum > 0.0
    ratios = np.zeros_like(col_sum)
    ratios[ok] = (M - 1) * col_max[ok] / col_sum[ok]
    worst = int(np.argmax(ratios))
    return SizeConditionReport(
        satisfied=bool(ratios[worst] <= 1.0),
        worst_alpha=float(grid[worst]),
        worst_ratio=float(ratios[worst]),
    )


def check_size_condition(model: RocModel, alpha_grid) -> SizeConditionReport:
    """Evaluate (M-1) * max_m eta_m(alpha) <= sum_m eta_m(alpha) over the
    grid (the worst case over proper subsets of possible true nulls).

    The report is advisory: it is attached to step-up decisions as a
    diagnostic, never used to refuse them.
    """
    grid = np.atleast_1d(np.asarray(alpha_grid, dtype=float))
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("alpha grid must be nonempty with values in (0, 1)")
    sizes = np.stack([optimal_sizes(model, float(alpha)).sizes for alpha in grid], axis=1)
    return _size_condition_report(grid, sizes)
