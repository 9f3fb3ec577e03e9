"""Per-test size allocation under a weak family-wise error budget.

Baselines (Sidak, Bonferroni) have closed forms.  The power-optimal
allocation solves the constrained program

    maximize   sum_m rho_m(eta_m)
    subject to sum_m log(1 - eta_m) = log(1 - alpha),

whose stationarity conditions equate the marginal value
g_m(eta) = rho_m'(eta) * (1 - eta) across tests to a common multiplier d.
For the Gaussian family this reduces, per test, to the scalar equation

    log Phi(v_m) + gamma_m * v_m - log d - gamma_m^2 / 2 = 0

in v_m = Phi^{-1}(1 - eta_m), solved by a vectorized safeguarded Newton
iteration on v in [-40, 40]; the budget equation in d is then solved by a
bracketed root find on log d (the constraint gap is monotone in d because
every g_m is nonincreasing).  The Sidak size eta_S = 1 - (1-alpha)^(1/M)
brackets that root in closed form: at d = min_m g_m(eta_S) every size is
at least eta_S, and at d = max_m g_m(eta_S) at most eta_S.  All
aggregation happens on log(1 - eta), so allocations with sizes near 1e-12
or far smaller lose no precision.

The one-parameter structure also gives the inverse map cheaply: the budget
W at which test m first receives size s is found by evaluating the budget
at the multiplier d = g_m(s), with no nested root finding.
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
    "ClusterAllocation",
    "ClusterSpec",
    "SaturationError",
    "SizeAllocation",
    "SizeConditionReport",
    "bonferroni_sizes",
    "check_size_condition",
    "optimal_sizes",
    "optimal_sizes_clustered",
    "sidak_sizes",
    "size_map",
    "size_map_inverse",
]

LOG_SQRT_2PI = 0.9189385332046727
V_LO, V_HI = -40.0, 40.0
INNER_TOL = 1e-13
OUTER_TOL = 1e-13
BUDGET_TOL = 1e-10
ALPHA_CAP = 1.0 - 1e-12
EPS = float(np.finfo(float).eps)
# log_ndtr(v) returns 0 once 1 - Phi(v) drops below about 6e-311 (v > 37.677,
# where erfc underflows): a log Phi under this magnitude cannot be resolved.
LOG_PHI_FLUSH = 1e-310


class AllocationError(RuntimeError):
    """The Lagrange system could not be solved to the budget's precision."""


class SaturationError(ValueError):
    """Requested per-test size is not attained by any budget below the cap."""


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
class ClusterSpec:
    """K clusters of hypotheses sharing a common effect size within each
    cluster; counts give the cluster cardinalities."""

    cluster_gammas: tuple[float, ...]
    cluster_counts: tuple[int, ...]

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.cluster_gammas)
        counts = tuple(int(c) for c in self.cluster_counts)
        object.__setattr__(self, "cluster_gammas", gammas)
        object.__setattr__(self, "cluster_counts", counts)
        if len(gammas) < 1 or len(gammas) != len(counts):
            raise ValueError("need K >= 1 clusters with matching gamma/count lengths")
        if any(not (math.isfinite(g) and g >= 0.0) for g in gammas):
            raise ValueError("cluster effect sizes must be finite and >= 0")
        if any(c < 1 for c in counts):
            raise ValueError("cluster counts must be positive")

    @property
    def K(self) -> int:
        return len(self.cluster_gammas)

    @property
    def M(self) -> int:
        return sum(self.cluster_counts)


@dataclass(frozen=True)
class ClusterAllocation:
    """Per-cluster optimal sizes zeta_k; expand() replicates them to the
    full per-hypothesis allocation."""

    alpha: float
    spec: ClusterSpec
    cluster_sizes: np.ndarray
    cluster_log1m: np.ndarray
    lagrange: float
    constraint_residual: float
    stationarity_residual: float

    def __post_init__(self):
        for name in ("cluster_sizes", "cluster_log1m"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def expand(self) -> SizeAllocation:
        counts = np.asarray(self.spec.cluster_counts)
        return SizeAllocation(
            alpha=self.alpha,
            sizes=np.repeat(self.cluster_sizes, counts),
            log1m_sizes=np.repeat(self.cluster_log1m, counts),
            lagrange=self.lagrange,
            constraint_residual=self.constraint_residual,
            stationarity_residual=self.stationarity_residual,
            method="clustered",
        )


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

def _solve_v(gamma, c, tol: float = INNER_TOL) -> np.ndarray:
    """Solve log Phi(v) + gamma*v = c for each element, v in [V_LO, V_HI].

    The left side is strictly increasing in v (slope phi/Phi + gamma), so a
    bracketed Newton iteration with bisection fallback always converges.
    Elements whose root lies outside [V_LO, V_HI] are clamped to the
    endpoint, which encodes the corner cases eta ~ 0 (v at V_HI) and
    eta ~ 1 (v at V_LO).  An element stops once the error it leaves in
    log Phi(v) = log(1 - eta) is below tol relative to that log, so sizes
    far below tol keep their precision.  Far in the upper tail Newton
    creeps by about 1/v a step, hence the generous iteration cap.
    """
    shape = np.broadcast_shapes(np.shape(gamma), np.shape(c))
    g = np.ascontiguousarray(np.broadcast_to(gamma, shape), dtype=float).ravel()
    cc = np.ascontiguousarray(np.broadcast_to(c, shape), dtype=float).ravel()

    with np.errstate(invalid="ignore", over="ignore"):
        below = (float(log_ndtr(V_HI)) + g * V_HI) <= cc  # root beyond V_HI
        above = (float(log_ndtr(V_LO)) + g * V_LO) >= cc  # root below V_LO
        # Initial guess: linear regime log Phi ~ 0 for c >= log(1/2), else the
        # quadratic tail approximation log Phi(v) ~ -v^2/2.
        pos = g > 0.0
        v = np.where(
            pos,
            np.where(
                cc >= -math.log(2.0),
                cc / np.where(pos, g, 1.0),
                g - np.sqrt(np.maximum(g * g - 2.0 * cc, 0.0)),
            ),
            ndtri_exp(np.minimum(cc, -1e-300)),
        )
    v = np.clip(np.nan_to_num(v, nan=0.0), V_LO, V_HI)
    v[below] = V_HI
    v[above] = V_LO

    lo = np.full(v.shape, V_LO)
    hi = np.full(v.shape, V_HI)
    idx = np.nonzero(~(below | above))[0]
    for _ in range(1000):
        if not idx.size:
            break
        vi = v[idx]
        gi = g[idx]
        li = log_ndtr(vi)
        err = li + gi * vi - cc[idx]
        # Still active while err is above the rounding of c, the error
        # err * r / slope it leaves in log Phi(v) = log(1 - eta) exceeds tol
        # relative to that log (absolute past magnitude 1), and the bracket
        # is wider than a few ulp.  Arrays are freed as soon as they are
        # spent: a panel solves M^2 elements at once.
        active = np.abs(err) > 4.0 * EPS * np.abs(cc[idx])
        # Past the flush, Newton on the tiny slope phi(v) creeps by
        # |c| / phi(v) a step; a target below the flush is met there.
        active &= ~((li == 0.0) & (np.abs(err) <= LOG_PHI_FLUSH))
        log1m_err = np.exp(-0.5 * vi * vi - LOG_SQRT_2PI - li)  # r = phi(v) / Phi(v)
        slope = log1m_err + gi
        log1m_err *= np.abs(err) / slope
        active &= log1m_err > tol * np.minimum(1.0, np.abs(li))
        del li, log1m_err
        neg = err < 0.0
        lo_i = np.where(neg, vi, lo[idx])
        hi_i = np.where(neg, hi[idx], vi)
        lo[idx] = lo_i
        hi[idx] = hi_i
        active &= hi_i - lo_i > 1e-15 * np.maximum(1.0, np.abs(vi))
        step = vi - err / slope
        outside = ~np.isfinite(step) | (step <= lo_i) | (step >= hi_i)
        # Converged elements keep the v at which err was measured; only the
        # still-active ones take the Newton/bisection update.
        v[idx] = np.where(active, np.where(outside, 0.5 * (lo_i + hi_i), step), vi)
        idx = idx[active]
        del vi, gi, err, slope, lo_i, hi_i, step
    if idx.size:
        raise AllocationError(
            f"inner size solve did not converge for {idx.size} of {g.size} elements"
        )
    return v.reshape(shape)


def _log_marginal_value(gammas, s) -> np.ndarray:
    """log g_m(s) = log[rho_m'(s) (1 - s)] at sizes s, elementwise.

    s = 0 maps to +inf (infinite marginal value at zero size when gamma > 0;
    by convention also for gamma = 0, where a zero size is only taken at a
    zero budget).
    """
    shape = np.broadcast_shapes(np.shape(gammas), np.shape(s))
    gv = np.ascontiguousarray(np.broadcast_to(gammas, shape), dtype=float).ravel()
    sv = np.ascontiguousarray(np.broadcast_to(s, shape), dtype=float).ravel()
    out = np.full(sv.shape, np.inf)
    interior = sv > 0.0
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
        c = log_d + 0.5 * gammas * gammas
        v = _solve_v(gammas, c)
    else:
        c = log_d[np.newaxis, :] + 0.5 * (gammas * gammas)[:, np.newaxis]
        v = _solve_v(gammas[:, np.newaxis], c)
    return v, log_ndtr(v)


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
        # already evaluated, so each slope comes with its gap.
        root = find_root(
            gap,
            Bracket(lo, hi, evaluated[lo][0], evaluated[hi][0]),
            tol=OUTER_TOL,
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
    """Shared optimal-allocation solve; returns (lagrange, log1m, sizes,
    constraint_residual, stationarity_residual).  A multiplier beyond the
    float range is reported as inf.  Raises AllocationError when the sizes
    miss the budget by more than BUDGET_TOL, which happens once gamma^2/2
    is so large that log d has no precision left (gamma ~ 1e8)."""
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
    exactly the Sidak allocation.
    """
    alpha = _validate_alpha(alpha)
    gammas = model.gammas
    if alpha == 0.0:
        zeros = np.zeros_like(gammas)
        return SizeAllocation(
            alpha=0.0, sizes=zeros, log1m_sizes=zeros, lagrange=math.inf,
            constraint_residual=0.0, stationarity_residual=0.0, method="optimal",
        )
    lagrange, log1m, sizes, constraint, stationarity = _solve_system(
        gammas, np.ones_like(gammas), alpha)
    return SizeAllocation(
        alpha=alpha,
        sizes=sizes,
        log1m_sizes=log1m,
        lagrange=lagrange,
        constraint_residual=constraint,
        stationarity_residual=stationarity,
        method="optimal",
    )


def optimal_sizes_clustered(spec: ClusterSpec, alpha: float) -> ClusterAllocation:
    """Optimal allocation when hypotheses come in clusters with a shared
    effect size: solves the K-dimensional system with cardinality weights
    sum_k |M_k| log(1 - zeta_k) = log(1 - alpha)."""
    alpha = _validate_alpha(alpha)
    gammas = np.asarray(spec.cluster_gammas, dtype=float)
    counts = np.asarray(spec.cluster_counts, dtype=float)
    if alpha == 0.0:
        zeros = np.zeros_like(gammas)
        return ClusterAllocation(
            alpha=0.0, spec=spec, cluster_sizes=zeros, cluster_log1m=zeros,
            lagrange=math.inf, constraint_residual=0.0, stationarity_residual=0.0,
        )
    lagrange, log1m, sizes, constraint, stationarity = _solve_system(gammas, counts, alpha)
    return ClusterAllocation(
        alpha=alpha,
        spec=spec,
        cluster_sizes=sizes,
        cluster_log1m=log1m,
        lagrange=lagrange,
        constraint_residual=constraint,
        stationarity_residual=stationarity,
    )


def size_map(model: RocModel, alpha: float, m: int) -> float:
    """eta_m(alpha): the m-th coordinate (0-based) of the optimal
    allocation, as a function of the budget.  Nondecreasing and continuous
    in alpha, with eta_m(0) = 0."""
    if not (0 <= int(m) < model.M):
        raise IndexError(f"hypothesis index {m} out of range for M={model.M}")
    return float(optimal_sizes(model, alpha).sizes[int(m)])


def size_map_inverse(model: RocModel, m: int, s: float) -> float:
    """The budget W at which test m first receives size s: eta_m(W) = s.

    Uses the one-parameter structure of the allocation: s pins the
    multiplier d = g_m(s) in closed form, and W is the budget realized at
    that multiplier.  Exchangeable models reduce to W = 1 - (1-s)^M.
    Raises SaturationError when s exceeds the size attainable at the budget
    cap 1 - 1e-12.
    """
    if not (0 <= int(m) < model.M):
        raise IndexError(f"hypothesis index {m} out of range for M={model.M}")
    s = float(s)
    if not (0.0 <= s < 1.0):
        raise ValueError(f"target size must lie in [0, 1), got {s!r}")
    if s == 0.0:
        return 0.0
    gammas = model.gammas
    log_d = float(_log_marginal_value(gammas[int(m)], s))
    _, log1m = _size_profile(gammas, log_d)
    w = float(-np.expm1(log1m.sum()))
    if w > ALPHA_CAP:
        s_max = size_map(model, ALPHA_CAP, m)
        raise SaturationError(
            f"size {s:.6g} for hypothesis {m} needs a budget above {ALPHA_CAP}; "
            f"attainable sizes are [0, {s_max:.6g}]"
        )
    return w


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
