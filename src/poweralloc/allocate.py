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
from its last evaluation.  The budget equation in d is then solved by a
safeguarded Newton iteration on log d (the constraint gap is monotone in d
because every g_m is nonincreasing).  It works on the log budget ratio
log(sum_m log(1 - eta_m) / log(1 - alpha)), which is close to linear in
log d, and starts each size profile from the one before it, so an
allocation costs about four profiles.  The Sidak size
eta_S = 1 - (1-alpha)^(1/M) brackets the root in closed form: at
d = min_m g_m(eta_S) every size is at least eta_S, and at
d = max_m g_m(eta_S) at most eta_S.  All aggregation happens on
log(1 - eta), so allocations with sizes near 1e-12 or far smaller lose no
precision.

Hypotheses that share an effect size share their size, so the system is
solved once per distinct gamma, each weighted by its count in the budget
sum: a panel with K distinct effect sizes costs a K-element solve, and an
exchangeable panel a single one at the Sidak multiplier.

The one-parameter structure also gives the inverse map cheaply: the budget
W at which test m first receives size s is the budget realized at the
multiplier d = g_m(s), with no nested root finding.

Every size profile, at one multiplier or at a vector of them, is one
``_size_profile`` call.  v is a smooth, monotone function of t = log d, so
a call can start from a solved profile by one second-order step in t: the
multiplier solve starts each profile from the last one, and over a sorted
run of multipliers that costs about two log Phi evaluations per
(hypothesis, multiplier) pair instead of 3.3 from cold starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri, ndtri_exp

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


@dataclass(frozen=True)
class SizeConditionReport:
    """Worst case of (M-1) * max_m eta_m(alpha) <= sum_m eta_m(alpha) over a
    budget grid; satisfied iff worst_ratio <= 1."""

    satisfied: bool
    worst_alpha: float
    worst_ratio: float


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    return alpha


def _validate_count(M: int) -> int:
    if isinstance(M, (bool, np.bool_)) or int(M) != M or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return int(M)


def _baseline(alpha: float, sizes, log1m, method: str) -> SizeAllocation:
    """A closed-form allocation, with no stationarity system solved."""
    return SizeAllocation(
        alpha=alpha,
        sizes=sizes,
        log1m_sizes=log1m,
        lagrange=None,
        constraint_residual=float(log1m.sum() - np.log1p(-alpha)),
        stationarity_residual=None,
        method=method,
    )


def sidak_sizes(M: int, alpha: float) -> SizeAllocation:
    """Equal sizes 1 - (1-alpha)^(1/M); meets the budget with equality."""
    M, alpha = _validate_count(M), _validate_alpha(alpha)
    log1m = np.full(M, np.log1p(-alpha) / M)
    return _baseline(alpha, -np.expm1(log1m), log1m, "sidak")


def bonferroni_sizes(M: int, alpha: float) -> SizeAllocation:
    """Equal sizes alpha/M; conservative (constraint residual >= 0)."""
    M, alpha = _validate_count(M), _validate_alpha(alpha)
    sizes = np.full(M, alpha / M)
    return _baseline(alpha, sizes, np.log1p(-sizes), "bonferroni")


# ---------------------------------------------------------------------------
# Gaussian inner solve: log Phi(v) + gamma v = c, elementwise on arrays.
# ---------------------------------------------------------------------------

def _solve_v(gamma, c, guess=None) -> tuple[np.ndarray, np.ndarray]:
    """Solve log Phi(v) + gamma*v = c for each element, v in [V_LO, V_HI];
    returns v and log Phi(v), the latter from the solve's last evaluation.

    A blocked Halley iteration: the broadcast inputs are flattened and
    solved SOLVE_BLOCK consecutive elements at a time, so the working
    arrays stay in cache.  Each element's result depends on its own
    inputs alone, not on the block it falls in.  The left side is
    strictly increasing (slope r + gamma, r = phi/Phi) and concave
    (curvature -r (v + r)), so the Halley step needs no evaluation beyond
    log Phi, and a bracket with bisection fallback keeps it convergent.
    Elements whose root lies outside [V_LO, V_HI] are clamped to the
    endpoint, which encodes the corner cases eta ~ 0 (v at V_HI) and
    eta ~ 1 (v at V_LO).  An element stops once the error it leaves in
    log Phi(v) = log(1 - eta) is below INNER_TOL relative to that log, so
    sizes far below INNER_TOL keep their precision; it keeps the v at which
    that log was measured.  ``guess``, broadcast like ``c``, is each element's
    starting v (clipped to [V_LO, V_HI]); an element whose guess is not
    finite, or every element when there is none, starts from a guess of
    its own.
    """
    shape = np.broadcast_shapes(np.shape(gamma), np.shape(c))
    g, cc = (np.broadcast_to(np.asarray(a, dtype=float), shape).ravel() for a in (gamma, c))
    if guess is not None:
        guess = np.broadcast_to(np.asarray(guess, dtype=float), shape).ravel()
    v = np.empty(g.size)
    log_phi = np.empty(g.size)
    unconverged = 0
    # slope = r + gamma is 0 where gamma = 0 and phi(v) underflows (v past
    # ~38.6): the Halley step is then not finite and the element bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(0, g.size, SOLVE_BLOCK):
            b = slice(k, k + SOLVE_BLOCK)
            unconverged += _solve_block(g[b], cc[b], None if guess is None else guess[b],
                                        v[b], log_phi[b])
    if unconverged:
        raise AllocationError(
            f"inner size solve did not converge for {unconverged} of {g.size} elements"
        )
    return v.reshape(shape), log_phi.reshape(shape)


def _cold_guess(g, c) -> np.ndarray:
    """A starting v for log Phi(v) + g v = c from c alone: the linear regime
    log Phi ~ 0 for c >= log(1/2), else the quadratic tail approximation
    log Phi(v) ~ -v^2/2; gamma = 0 inverts log Phi directly."""
    v = np.where(c >= -math.log(2.0), c / g, g - np.sqrt(np.maximum(g * g - 2.0 * c, 0.0)))
    zero = g <= 0.0
    if zero.any():
        v[zero] = ndtri_exp(np.minimum(c[zero], -1e-300))
    return v


def _solve_block(g, c, guess, v_out, log_phi_out) -> int:
    """One block of ``_solve_v``: writes v and log Phi(v) into the output
    views and returns the number of elements left unconverged."""
    below = (LOG_PHI_HI + g * V_HI) <= c  # root beyond V_HI
    above = (LOG_PHI_LO + g * V_LO) >= c  # root below V_LO
    v_out[below], log_phi_out[below] = V_HI, LOG_PHI_HI
    v_out[above], log_phi_out[above] = V_LO, LOG_PHI_LO
    pos = np.flatnonzero(~(below | above))
    if pos.size < g.size:
        g, c = g[pos], c[pos]
        if guess is not None:
            guess = guess[pos]
    if guess is None:
        v = _cold_guess(g, c)
    else:
        v = guess.copy()
        cold = ~np.isfinite(v)
        if cold.any():
            v[cold] = _cold_guess(g[cold], c[cold])
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
        # err * r / slope it leaves in log Phi(v) = log(1 - eta) exceeds
        # INNER_TOL relative to that log (absolute past magnitude 1), and
        # the bracket is wider than a few ulp.
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
        # Where the step would move log Phi by half its own size or more,
        # log Phi is exponentially small in v^2 and far from its target:
        # the step creeps by about 1/v there, and one on log(-log Phi) jumps.
        tail = np.flatnonzero(log1m_err >= -0.5 * li)
        threshold = np.maximum(li, -1.0)  # -min(1, |log Phi|), as log Phi <= 0
        threshold *= -INNER_TOL
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
        del err
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
        if tail.size:
            # Newton on log(-log Phi(v)) = log(gamma v - c), whose slope is
            # r / log Phi + gamma / (c - gamma v), replaces the step where
            # it stays in the bracket and goes further, or the step leaves
            # it.  Near gamma v = c, as from the cold guess c / gamma, that
            # log is steep and its step short, so the step stands there.
            vt, lt, ht = v[tail], li[tail], step[tail]
            lo_t, hi_t = lo[tail], hi[tail]
            target = c[tail] - g[tail] * vt
            jump = vt - np.log(lt / target) / (r[tail] / lt + g[tail] / target)
            halley_in = (ht > lo_t) & (ht < hi_t)
            ok = (jump > lo_t) & (jump < hi_t) & (~halley_in | (np.abs(jump - vt) > np.abs(ht - vt)))
            step[tail[ok]] = jump[ok]
        bisect = ~((step > lo) & (step < hi))  # true for a step that is not finite
        if bisect.any():
            # A step below v's resolution (v is an end of the bracket) moves
            # it by one ulp instead, so that the bracket closes around v
            # rather than bisecting from far away.
            b = np.flatnonzero(bisect)
            still = step[b] == v[b]
            step[b] = np.where(still, np.nextafter(v[b], np.where(neg[b], hi[b], lo[b])),
                               0.5 * (lo[b] + hi[b]))
        if not active.all():
            done = ~active
            v_out[pos[done]] = v[done]
            log_phi_out[pos[done]] = li[done]
            keep = np.flatnonzero(active)
            pos, g, c, lo, hi, step = (a[keep] for a in (pos, g, c, lo, hi, step))
        v = step
    return pos.size


def _log_g(gammas, v, log_phi):
    """log g(eta) = log Phi(v) + gamma v - gamma^2 / 2 at v = Phi^{-1}(1 - eta),
    given log Phi(v) = log(1 - eta)."""
    return log_phi + gammas * v - 0.5 * gammas * gammas


def _log_marginal_value(gammas, s) -> np.ndarray:
    """log g_m(s_m) = log[rho_m'(s_m) (1 - s_m)] at sizes s, one per gamma.

    s = 0 maps to +inf (infinite marginal value at zero size when gamma > 0;
    by convention also for gamma = 0, where a zero size is only taken at a
    zero budget).  s = 1 maps to -inf for every gamma: a size reaches 1
    only as d -> 0, where every other size reaches 1 too, so the budget is 1.
    """
    out = np.where(s < 1.0, np.inf, -np.inf)
    interior = (s > 0.0) & (s < 1.0)
    v = -ndtri(s[interior])
    out[interior] = _log_g(gammas[interior], v, log_ndtr(v))
    return out


def _tail_ratio(v, log1m) -> np.ndarray:
    """r = phi(v) / Phi(v) from v and log Phi(v) = log(1 - eta)."""
    return np.exp(-0.5 * v * v - LOG_SQRT_2PI - log1m)


def _size_profile(gammas, log_d, anchor=None) -> tuple[np.ndarray, np.ndarray]:
    """(v, log(1-eta)) for every (hypothesis, multiplier) pair.

    ``log_d`` may be scalar or a K-vector; the result has shape (M,) or
    (M, K).  Infinite multipliers yield zero sizes (log(1-eta) = 0).

    Without ``anchor`` every pair starts cold.  ``anchor`` is a solved
    profile (t0, v, log Phi(v)) at log d = t0, one v per gamma, and each
    pair starts from it by a second-order step in t = log d along v(t):
    dv/dt = 1 / (r + gamma) and d2v/dt2 = r (v + r) / (r + gamma)^3 with
    r = phi(v) / Phi(v).  Where that step is not finite, as at an infinite
    multiplier or where r + gamma = 0, ``_solve_v`` starts the pair cold.
    """
    gammas = np.asarray(gammas, dtype=float)
    log_d = np.asarray(log_d, dtype=float)
    g = gammas.reshape(gammas.shape + (1,) * log_d.ndim)
    guess = None
    if anchor is not None:
        t0, v0, log1m0 = anchor
        v0 = v0.reshape(g.shape)
        step = log_d - t0
        # v0 + step / (r + g) * (1 + step r (v0 + r) / (2 (r + g)^2)), in
        # place where the shapes allow; only the guess is kept for the
        # solve, which sets the profile's peak memory.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = _tail_ratio(v0, log1m0.reshape(g.shape))
            inv_slope = r + g
            np.reciprocal(inv_slope, out=inv_slope)
            guess = 0.5 * step * r
            r += v0
            guess *= r
            guess *= inv_slope
            guess *= inv_slope
            guess += 1.0
            guess *= step * inv_slope
            guess += v0
            del r, inv_slope
    return _solve_v(g, log_d + 0.5 * g * g, guess=guess)


def _constraint_gap(gammas, counts, v, log1m) -> tuple[float, float]:
    """sum_m counts_m log(1 - eta_m) of a size profile, and its derivative
    in log d."""
    # d(sum log(1-eta)) / d(log d) = sum r/(r+gamma), r = phi(v)/Phi(v).
    # Corner coordinates (r and gamma both ~0) contribute nothing.
    r = _tail_ratio(v, log1m)
    with np.errstate(invalid="ignore"):
        ratio = r / (r + gammas)
    slope = float(counts @ np.where(np.isnan(ratio), 0.0, ratio))
    return float(counts @ log1m), slope


def _solve_multiplier(gammas: np.ndarray, counts: np.ndarray, alpha: float):
    """Root of sum_m counts_m log(1 - eta_m(d)) = log(1 - alpha) in log d;
    returns the size profile (log d, v, log Phi(v)) at the root, one entry
    of v and log Phi(v) per gamma.  A multiplier beyond the float range, as
    at a zero budget, is returned as inf.

    With L(d) = sum_m counts_m log(1 - eta_m(d)), the search solves the log
    budget ratio -log(L / log(1 - alpha)) = 0 by Newton steps of slope
    L' / L, taken from the slope of L that each size profile gives.  The
    ratio is close to linear in log d where the gap L - log(1 - alpha) is
    not: on a panel of 10^5 effect sizes |N(2, 1)| at alpha = 0.05 the
    gap's slope spans 0.003 to 1.6e4 over the bracket.  Each profile
    starts from the last one, by the step of ``_size_profile``.

    Both increase in log d.  Every g_m is nonincreasing, so at
    log d = min_m log g_m(eta_S) each size is at least the Sidak size eta_S
    (ratio <= 0), and at max_m log g_m(eta_S) at most eta_S (ratio >= 0).
    These ends bracket the root by their signs alone; the search starts
    from the count-weighted mean of the log g_m(eta_S) and evaluates an end
    only once a step would leave the bracket through it.  Where zero
    effects take the budget, L = log d is linear and the ratio convex, so
    its step from below overshoots the upper end; from that end the gap's
    own Newton step is exact, and the search takes it there.

    Below 1, log d is measured in units t of the budget |log(1 - alpha)|
    (floored where the scaled gap would overflow).  The ratio is scaled so
    that near the root it equals the gap in those units, and the search
    stops at |ratio| <= tol as it did on the gap: OUTER_TOL relative for
    small budgets and absolute for large ones.
    """
    target = math.log1p(-alpha)
    log1m_s = target / counts.sum()
    if log1m_s == 0.0:  # a budget this small gives every test size 0
        return (math.inf, *_size_profile(gammas, math.inf))
    # log g_m(eta_S) from log(1 - eta_S), so that eta_S near 1 keeps its
    # precision: log Phi(v_S) = log(1 - eta_S) at v_S = Phi^{-1}(1 - eta_S).
    log_g = _log_g(gammas, float(ndtri_exp(log1m_s)), log1m_s)
    scale = min(1.0, max(-target, 1e-200))
    # The ratio's unit: the gap of a ratio near 0 is ratio * scale.
    unit = -target / scale
    # Below the scale's floor the gap is no longer in units of the budget,
    # so the tolerance shrinks with it to stay relative to |log(1 - alpha)|.
    tol = OUTER_TOL * min(1.0, unit)
    lo, hi = float(log_g.min()) / scale, float(log_g.max()) / scale
    evaluated: dict[float, tuple[float, float]] = {}
    # The last size profile, the warm start of the next, and the one of
    # least |ratio| with its t; often the same one.
    last = best = best_t = None

    def ratio(t: float) -> float:  # t = log d / scale
        nonlocal last, best, best_t
        log_d = t * scale
        v, log1m = _size_profile(gammas, log_d, last)
        last = (log_d, v, log1m)
        total, slope = _constraint_gap(gammas, counts, v, log1m)
        if total == 0.0:  # every size rounds to 0: far above the root
            evaluated[t] = (math.inf, math.nan)
        else:
            # -log(L / target) through log1p of the relative gap, which
            # keeps its precision near the root and overflows only far
            # from it, where the difference of the two logs is exact enough.
            rel = (total - target) / target
            value = unit * (-math.log1p(rel) if abs(rel) < 0.5
                            else math.log(-target) - math.log(-total))
            # d/dt of -unit * log(L / target) is -unit * scale * L' / L;
            # unit * scale = -target, and scale itself cancels.
            d_value = slope * (target / total)
            if t == hi and total != target:
                # The search evaluates the upper Sidak end only when a step
                # of the ratio overshot it, as where zero effects take the
                # budget and L = log d is linear: the gap's own Newton step
                # is exact there.
                d_value = value * slope / ((total - target) / scale)
            evaluated[t] = (value, d_value)
        if best is None or abs(evaluated[t][0]) < abs(evaluated[best_t][0]):
            best_t, best = t, last
        return evaluated[t][0]

    if lo == hi:
        root = lo
    else:
        # The root finder takes Newton steps only from points it has
        # already evaluated, so each slope comes with its value.  At most
        # `halvings` bisections narrow the bracket to tol; the cap leaves
        # twice that again for Newton steps and the two ends.
        start = float(counts @ log_g) / counts.sum() / scale
        bracket = Bracket(lo, hi, -math.inf, math.inf)
        halvings = max(0, math.ceil(math.log2(hi - lo) - math.log2(tol)))
        root = find_root(
            ratio,
            bracket,
            tol=tol,
            max_iter=3 * halvings + 4,
            df=lambda t: evaluated[t][1],
            x0=start,
        ).root
    if root not in evaluated:
        ratio(root)
    # Far in the upper tail a size is resolved to about v^2 1e-15 of
    # itself, so profiles warm-started from different v can differ by more
    # than tol in the ratio at the same t: the root is the point of least
    # finite |ratio| evaluated, whose profile is kept.
    if math.isfinite(evaluated[best_t][0]):
        root = best_t
    profile = best if root == best_t else last
    # The Sidak multiplier of an exchangeable panel still carries the
    # rounding of the inner solves, and a bracket that narrows below
    # tol can stop with a ratio of slope * tol: one Newton step from the
    # root removes either.  Where the bracket has closed to adjacent
    # floats, that step rounds onto the other end, which is no better.
    value, slope = evaluated[root]
    if abs(value) > tol and slope > 0.0 and root - value / slope not in evaluated:
        root -= value / slope
    log_d = root * scale
    if profile[0] == log_d:
        return profile
    return (log_d, *_size_profile(gammas, log_d, profile))


def optimal_sizes(model: RocModel, alpha: float) -> SizeAllocation:
    """Power-optimal size vector under weak FWER budget alpha.

    Satisfies rho_m'(eta_m)(1 - eta_m) = d for a common d and
    sum log(1 - eta_m) = log(1 - alpha); for an exchangeable model this is
    exactly the Sidak allocation.  Equal effect sizes get bitwise-equal
    sizes, and a zero budget gives every test size 0 (and multiplier inf).
    The system is solved once per distinct gamma.  Raises AllocationError
    when the sizes miss the budget by more than BUDGET_TOL, which happens
    once gamma^2/2 is so large that log d has no precision left
    (gamma ~ 1e8).
    """
    alpha = _validate_alpha(alpha)
    gammas, inverse, counts = np.unique(model.gammas, return_inverse=True, return_counts=True)
    counts = counts.astype(float)
    log_d, v, log1m = _solve_multiplier(gammas, counts, alpha)
    constraint = float(counts @ log1m) - math.log1p(-alpha)
    if not abs(constraint) <= BUDGET_TOL:
        raise AllocationError(
            f"the sizes miss the budget by {constraint:.3g} in log(1 - alpha); "
            f"the effect sizes are beyond the solver's precision"
        )
    # Stationarity in log space at the solved v; endpoint-clamped
    # coordinates are corner solutions (eta pinned at ~0 or ~1) where the
    # multiplier condition holds as an inequality, so they are excluded.
    err = _log_g(gammas, v, log1m) - log_d
    interior = (v > V_LO) & (v < V_HI)
    stationarity = float(np.abs(np.expm1(err[interior])).max()) if interior.any() else 0.0
    with np.errstate(over="ignore"):
        lagrange = float(np.exp(log_d))
    return SizeAllocation(
        alpha=alpha,
        sizes=-np.expm1(log1m)[inverse],
        log1m_sizes=log1m[inverse],
        lagrange=lagrange,
        constraint_residual=constraint,
        stationarity_residual=stationarity,
        method="optimal",
    )


def _size_condition_report(grid, size_max, size_sum, M: int) -> SizeConditionReport:
    """Size condition (M-1) * max_m eta_m <= sum_m eta_m at each budget
    grid[k], given the largest size ``size_max[k]`` and the size sum
    ``size_sum[k]`` of the allocation there; the first worst budget is
    reported."""
    ok = size_sum > 0.0
    ratios = np.zeros_like(size_sum)
    ratios[ok] = (M - 1) * size_max[ok] / size_sum[ok]
    worst = int(np.argmax(ratios))
    return SizeConditionReport(
        satisfied=bool(ratios[worst] <= 1.0),
        worst_alpha=float(grid[worst]),
        worst_ratio=float(ratios[worst]),
    )


def check_size_condition(model: RocModel, alpha_grid) -> SizeConditionReport:
    """Evaluate (M-1) * max_m eta_m(alpha) <= sum_m eta_m(alpha) over the
    grid (the worst case over proper subsets of possible true nulls).

    The report is advisory, never used to refuse a decision.  ``decide``
    does not print this one: with step-up decisions it prints
    ``procedures._size_condition``'s, the same condition over the
    candidate budgets W in (0, 1) of the panel.
    """
    grid = np.atleast_1d(np.asarray(alpha_grid, dtype=float))
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("alpha grid must be nonempty with values in (0, 1)")
    sizes = np.stack([optimal_sizes(model, float(alpha)).sizes for alpha in grid], axis=1)
    return _size_condition_report(grid, sizes.max(axis=0), sizes.sum(axis=0), model.M)
