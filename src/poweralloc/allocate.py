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
sum: a panel with K distinct effect sizes costs a K-element solve.  Where
every g_m(eta_S) is the same, as on an exchangeable panel, the Sidak sizes
solve the system, and the panel gets them with no search.

The panels of a stack (``stacked``), such as the replicates of a Monte
Carlo cell, are still asked about one at a time, but their allocations
are solved together: the first ``optimal_sizes`` call on one of them at
a budget runs each panel's multiplier search as a lane of one lockstep
``find_root`` call, each of whose steps solves the next profile of every
running lane in one ``_size_profile`` call, and the stack keeps the
allocations for the later calls.  A lane keeps its own scalar
arithmetic, its own budget sum and its own warm starts, so each
allocation is bitwise the one its panel gets alone; one search is a
stack of one lane.

The one-parameter structure also gives the inverse map cheaply: the budget
W at which test m first receives size s is the budget realized at the
multiplier d = g_m(s), with no nested root finding.

Every size profile, at one multiplier or at a vector of them, is one
``_size_profile`` call.  v is a smooth, monotone function of t = log d, so
a call can start from a solved profile by one second-order step in t: the
multiplier solve starts each profile from the last one, and over a sorted
run of multipliers that costs about two log Phi evaluations per
(hypothesis, multiplier) pair instead of 3.3 from cold starts.

A run of profiles shares one scratch (``_Scratch``), the named working
arrays that every profile's solve takes its arrays of the profile's size
from, so the run allocates them once.  The loop that runs the profiles
owns it: ``procedures._panel_blocks`` makes one per panel pass, and a
scratch dies with its loop.  A call given none makes its own, as each
step of the multiplier search does: a search keeps only its profiles
between steps, not the working arrays of a 10^5-element solve.
"""

from __future__ import annotations

import contextlib
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
# Elements per block of the inner solve: the block's working arrays, 128 KB
# each at most, stay in cache across the ~50 array passes of an iteration.
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
    log1m = np.full(M, _sidak_log1m(alpha, M))
    return _baseline(alpha, -np.expm1(log1m), log1m, "sidak")


def bonferroni_sizes(M: int, alpha: float) -> SizeAllocation:
    """Equal sizes alpha/M; conservative (constraint residual >= 0)."""
    M, alpha = _validate_count(M), _validate_alpha(alpha)
    sizes = np.full(M, alpha / M)
    return _baseline(alpha, sizes, np.log1p(-sizes), "bonferroni")


# ---------------------------------------------------------------------------
# Gaussian inner solve: log Phi(v) + gamma v = c, elementwise on arrays.
# ---------------------------------------------------------------------------

class _Scratch:
    """Named working arrays that a run of size profiles shares.

    ``take(name, shape)`` returns a C-contiguous view of the buffer called
    ``name``, which is replaced by a larger one when the shape needs more.
    The view holds whatever was last written there, so a caller writes
    each array before it reads it.  A scratch is made and dropped by the
    loop that runs the profiles, so no buffer outlives that loop or is
    shared between threads.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape) if isinstance(shape, tuple) else shape
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _solve_v(gamma, c, guess=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
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
    its own.  ``scratch`` (a fresh one when None) supplies every array of
    the size of the input, the returned v and log Phi(v) included, so they
    hold their values until its next solve.
    """
    if scratch is None:
        scratch = _Scratch()
    shape = np.broadcast_shapes(np.shape(gamma), np.shape(c))

    def flat(a, name):
        a = np.broadcast_to(np.asarray(a, dtype=float), shape)
        if not a.flags.c_contiguous:  # a broadcast gamma column, say
            a, broadcast = scratch.take(name, shape), a
            np.copyto(a, broadcast)
        return a.ravel()

    g, cc = flat(gamma, "gamma"), flat(c, "c_in")
    if guess is not None:
        guess = flat(guess, "guess_in")
    v, log_phi = scratch.take("profile", (2, g.size))
    unconverged = 0
    # slope = r + gamma is 0 where gamma = 0 and phi(v) underflows (v past
    # ~38.6): the Halley step is then not finite and the element bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(0, g.size, SOLVE_BLOCK):
            b = slice(k, k + SOLVE_BLOCK)
            unconverged += _solve_block(g[b], cc[b], None if guess is None else guess[b],
                                        v[b], log_phi[b], scratch)
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


def _solve_block(g, c, guess, v_out, log_phi_out, scratch) -> int:
    """One block of ``_solve_v``: writes v and log Phi(v) into the output
    views and returns the number of elements left unconverged.

    Its arrays come from ``scratch``, sized to the block, so that no
    compaction grows one: the rows of one (12, n) array and four masks.
    Each iteration works on their first m elements, one per active
    element; a larger block may have left values there, so each is
    written before it is read.  The active elements' gamma, c and bracket
    [lo, hi] are the rows of a (4, m) array in one of two slots, the other
    slot holds four of the iteration's working arrays, and a compaction
    copies the state into it.  Only index arrays are allocated: of the
    active elements at a compaction, and of those that take a tail or
    bisection step.
    """
    n = g.size
    arrays = scratch.take("solve", (12, n))
    slots, work = arrays[:8].reshape(2, 4 * n), arrays[8:]
    masks = scratch.take("masks", (4, n), bool)
    spare_pos = scratch.take("pos", n, np.intp)
    tmp, flag, flag2 = work[0], masks[2], masks[3]
    below = np.less_equal(np.add(np.multiply(g, V_HI, out=tmp), LOG_PHI_HI, out=tmp), c,
                          out=flag2)  # root beyond V_HI
    above = np.greater_equal(np.add(np.multiply(g, V_LO, out=tmp), LOG_PHI_LO, out=tmp), c,
                             out=flag)  # root below V_LO
    v_out[below], log_phi_out[below] = V_HI, LOG_PHI_HI
    v_out[above], log_phi_out[above] = V_LO, LOG_PHI_LO
    pos = np.flatnonzero(np.logical_not(np.logical_or(below, above, out=flag), out=flag))
    m = pos.size
    slot = 0
    state = slots[slot, :4 * m].reshape(4, m)
    # mode="clip" writes straight into ``out`` (every index is in range);
    # the default mode would first take into a fresh array.
    g.take(pos, out=state[0], mode="clip")
    c.take(pos, out=state[1], mode="clip")
    g, c, lo, hi = state
    li, err, abs_err, tmp = slots[1 - slot, :4 * m].reshape(4, m)
    v, step, r, inv_slope = work[:, :m]
    active, neg, flag, flag2 = masks[:, :m]
    if guess is None:
        np.copyto(v, _cold_guess(g, c))
    else:
        guess.take(pos, out=v, mode="clip")
        cold = np.logical_not(np.isfinite(v, out=flag), out=flag)
        if cold.any():
            v[cold] = _cold_guess(g[cold], c[cold])
    # A NaN start becomes 0 and an infinite one the end of [V_LO, V_HI].
    np.copyto(v, 0.0, where=np.isnan(v, out=flag))
    np.clip(v, V_LO, V_HI, out=v)
    lo.fill(V_LO)
    hi.fill(V_HI)
    for _ in range(1000):
        if not m:
            return 0
        log_ndtr(v, out=li)
        np.multiply(g, v, out=err)
        err += li
        err -= c
        np.abs(err, out=abs_err)
        np.less(err, 0.0, out=neg)
        # Still active while err is above the rounding of c, the error
        # err * r / slope it leaves in log Phi(v) = log(1 - eta) exceeds
        # INNER_TOL relative to that log (absolute past magnitude 1), and
        # the bracket is wider than a few ulp.
        np.greater(abs_err, np.multiply(np.abs(c, out=tmp), 4.0 * EPS, out=tmp), out=active)
        np.multiply(v, v, out=r)
        r *= -0.5
        r -= LOG_SQRT_2PI
        r -= li
        np.exp(r, out=r)  # r = phi(v) / Phi(v)
        np.add(r, g, out=inv_slope)
        np.reciprocal(inv_slope, out=inv_slope)
        newton = np.multiply(err, inv_slope, out=err)  # err is spent
        # The error in log Phi, held in step's array until the step is taken.
        log1m_err = np.multiply(np.abs(newton, out=step), r, out=step)
        # Where the step would move log Phi by half its own size or more,
        # log Phi is exponentially small in v^2 and far from its target:
        # the step creeps by about 1/v there, and one on log(-log Phi) jumps.
        tail = np.flatnonzero(np.greater_equal(log1m_err, np.multiply(li, -0.5, out=tmp),
                                               out=flag))
        threshold = np.maximum(li, -1.0, out=tmp)  # -min(1, |log Phi|), as log Phi <= 0
        threshold *= -INNER_TOL
        above_tol = np.greater(log1m_err, threshold, out=flag)
        if li.max() == 0.0:
            # Where log Phi has flushed to 0, r underflows and the relative
            # test passes whatever err is: such an element stops only once
            # err is below the flush, where a target below the flush is met.
            np.copyto(above_tol, abs_err > LOG_PHI_FLUSH, where=li == 0.0)
        active &= above_tol
        np.copyto(lo, v, where=neg)
        np.copyto(hi, v, where=np.logical_not(neg, out=flag))
        width = np.subtract(hi, lo, out=tmp)
        least = np.multiply(np.maximum(1.0, np.abs(v, out=abs_err), out=abs_err), 1e-15,
                            out=abs_err)
        active &= np.greater(width, least, out=flag)
        # Halley: v - n / (1 - n f'' / (2 f')) with the Newton step n and
        # f'' = -r (v + r).
        np.add(v, r, out=step)
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
        inside = np.logical_and(np.greater(step, lo, out=flag), np.less(step, hi, out=flag2),
                                out=flag)
        # A step outside the bracket, or not finite, bisects.  Only active
        # elements take one: a stopped element's step is never read, and
        # on a paper panel nearly every step outside the bracket is one of
        # those, rounded onto v.
        bisect = np.logical_and(np.logical_not(inside, out=flag), active, out=flag)
        if bisect.any():
            # A step below v's resolution (v is an end of the bracket) moves
            # it by one ulp instead, so that the bracket closes around v
            # rather than bisecting from far away.
            b = np.flatnonzero(bisect)
            still = step[b] == v[b]
            step[b] = np.where(still, np.nextafter(v[b], np.where(neg[b], hi[b], lo[b])),
                               0.5 * (lo[b] + hi[b]))
        if active.all():
            v, step = step, v
            continue
        # Every element's v and log Phi go out, an active one's to be
        # written again when it stops.  The active elements' state moves
        # to the other slot and their steps into v's array.
        v_out[pos] = v
        log_phi_out[pos] = li
        keep = np.flatnonzero(active)
        m = keep.size
        slot = 1 - slot
        state = state.take(keep, axis=1, out=slots[slot, :4 * m].reshape(4, m), mode="clip")
        pos, spare_pos = pos.take(keep, out=spare_pos[:m], mode="clip"), pos
        v, step = step.take(keep, out=v[:m], mode="clip"), step[:m]
        g, c, lo, hi = state
        li, err, abs_err, tmp = slots[1 - slot, :4 * m].reshape(4, m)
        r, inv_slope = r[:m], inv_slope[:m]
        active, neg, flag, flag2 = active[:m], neg[:m], flag[:m], flag2[:m]
    return m


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


def _size_profile(gammas, log_d, anchor=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """(v, log(1-eta)) for every (hypothesis, multiplier) pair.

    ``gammas`` holds one panel's M effect sizes, or a stack of n panels'
    as an (n, M) array.  ``log_d`` is a scalar, a K-vector, or for a stack
    an (n, K) array of each panel's own multipliers; the result has shape
    (M,), (M, K) or (n, M, K).  Infinite multipliers yield zero sizes
    (log(1-eta) = 0).

    Without ``anchor`` every pair starts cold.  ``anchor`` is a solved
    profile (t0, v, log Phi(v)) at log d = t0, with one v per gamma and one
    t0 per panel, and each pair starts from it by a second-order step in
    t = log d along v(t): dv/dt = 1 / (r + gamma) and
    d2v/dt2 = r (v + r) / (r + gamma)^3 with r = phi(v) / Phi(v).  Where
    that step is not finite, as at an infinite multiplier, at a t0 of NaN
    or where r + gamma = 0, ``_solve_v`` starts the pair cold.

    The guess, c and the solve's arrays come from ``scratch`` (a fresh one
    when None), and the returned arrays are views of it: a caller that
    keeps a profile past the scratch's next use copies it.
    """
    if scratch is None:
        scratch = _Scratch()
    g = np.asarray(gammas, dtype=float)
    log_d = np.asarray(log_d, dtype=float)
    if log_d.ndim:
        g, log_d = g[..., :, None], log_d[..., None, :]
    shape = np.broadcast_shapes(g.shape, log_d.shape)
    c = scratch.take("c", shape)
    guess = None
    if anchor is not None:
        t0, v0, log1m0 = anchor
        t0 = np.reshape(t0, np.shape(t0) + (1,) * (g.ndim - np.ndim(t0)))
        v0 = v0.reshape(g.shape)
        step = log_d - t0
        # v0 + step / (r + g) * (1 + step r (v0 + r) / (2 (r + g)^2)), in
        # place; c's array holds step / (r + g) until it holds c.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = _tail_ratio(v0, log1m0.reshape(g.shape))
            inv_slope = r + g
            np.reciprocal(inv_slope, out=inv_slope)
            guess = np.multiply(0.5 * step, r, out=scratch.take("guess", shape))
            r += v0
            guess *= r
            guess *= inv_slope
            guess *= inv_slope
            guess += 1.0
            guess *= np.multiply(step, inv_slope, out=c)
            guess += v0
    np.add(log_d, 0.5 * g * g, out=c)
    return _solve_v(g, c, guess, scratch)


def _gap_slopes(gammas, v, log1m) -> np.ndarray:
    """d log(1 - eta_m) / d log d = r / (r + gamma_m) for each coordinate of
    a size profile, r = phi(v) / Phi(v).  Corner coordinates (r and gamma
    both ~0) contribute nothing."""
    r = _tail_ratio(v, log1m)
    with np.errstate(invalid="ignore"):
        ratio = r / (r + gammas)
    return np.where(np.isnan(ratio), 0.0, ratio)


def _profiles(gammas: list, log_ds: list, anchors: list) -> tuple[list, tuple]:
    """The size profiles of several lanes from one ``_size_profile`` call:
    lane k's effect sizes ``gammas[k]`` at log d = ``log_ds[k]``, each
    warm-started from ``anchors[k]`` (cold where it is None).

    Returns each lane's profile (log d, v, log Phi(v)), and the lanes'
    effect sizes, v and log Phi(v) joined in lane order; the profiles are
    views of the joined v and log Phi(v), which are fresh arrays, and the
    solve's scratch is dropped.  A single lane is solved as given, with
    nothing joined.  Several are solved as a stack of one-gamma panels,
    each at its own multiplier; each element's solve is its own, so every
    lane's profile is bitwise the one it gets alone.
    """
    if len(gammas) == 1:
        joined = gammas[0]
        v, log1m = _size_profile(joined, log_ds[0], anchors[0])
    else:
        sizes = [g.size for g in gammas]
        joined = np.concatenate(gammas)
        anchor = None
        if any(a is not None for a in anchors):
            # A lane without an anchor starts cold from a t0 of NaN.
            anchor = (np.repeat([math.nan if a is None else a[0] for a in anchors], sizes),
                      *(np.concatenate([np.zeros(n) if a is None else a[i]
                                        for a, n in zip(anchors, sizes)]) for i in (1, 2)))
        v, log1m = _size_profile(joined[:, None], np.repeat(log_ds, sizes)[:, None], anchor)
    v, log1m = v.ravel().copy(), log1m.ravel().copy()
    lanes, k0 = [], 0
    for log_d, g in zip(log_ds, gammas):
        lanes.append((log_d, v[k0:k0 + g.size], log1m[k0:k0 + g.size]))
        k0 += g.size
    return lanes, (joined, v, log1m)


def _sidak_log1m(alpha: float, M) -> float:
    """log(1 - eta_S) of the Sidak size eta_S = 1 - (1 - alpha)^(1/M)."""
    return np.log1p(-alpha) / M


class _Search:
    """One lane of the multiplier search: one panel's distinct effect sizes
    and their counts, the ends of its bracket in t = log d / scale, and
    what it has evaluated: the ratio and its slope at each t, the last
    size profile, which is the warm start of the next, and the profile of
    least |ratio| with its t (often the same one)."""

    __slots__ = ("gammas", "counts", "log_g", "lo", "hi", "evaluated", "last", "best", "best_t")

    def __init__(self, gammas: np.ndarray, counts: np.ndarray, log1m_s: float, scale: float):
        self.gammas, self.counts = gammas, counts
        # log g_m(eta_S) from log(1 - eta_S), so that eta_S near 1 keeps its
        # precision: log Phi(v_S) = log(1 - eta_S) at v_S = Phi^{-1}(1 - eta_S).
        self.log_g = _log_g(gammas, float(ndtri_exp(log1m_s)), log1m_s)
        self.lo, self.hi = float(self.log_g.min()) / scale, float(self.log_g.max()) / scale
        self.evaluated: dict[float, tuple[float, float]] = {}
        self.last = self.best = self.best_t = None


def _solve_multipliers(panels: list, alpha: float) -> list:
    """Root of sum_m counts_m log(1 - eta_m(d)) = log(1 - alpha) in log d
    for each panel (gammas, counts) of ``panels``; returns each panel's
    size profile (log d, v, log Phi(v)) at its root, one entry of v and
    log Phi(v) per gamma.  A multiplier beyond the float range, as at a
    zero budget, is returned as inf.

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
    own Newton step is exact, and the search takes it there.  Where the
    ends coincide, every g_m(eta_S) is the same, and the Sidak sizes meet
    both conditions: the panel gets them, as ``sidak_sizes`` gives them,
    with no search.

    Below 1, log d is measured in units t of the budget |log(1 - alpha)|
    (floored where the scaled gap would overflow).  The ratio is scaled so
    that near the root it equals the gap in those units, and the search
    stops at |ratio| <= tol as it did on the gap: OUTER_TOL relative for
    small budgets and absolute for large ones.

    The panels' searches are the lanes of one ``find_root`` call, so each
    of its steps evaluates every running lane in one ``_profiles`` call; a
    lane's arithmetic is its own, and its profile bitwise the one a search
    of that panel alone returns.
    """
    target = math.log1p(-alpha)
    scale = min(1.0, max(-target, 1e-200))
    # The ratio's unit: the gap of a ratio near 0 is ratio * scale.
    unit = -target / scale
    # Below the scale's floor the gap is no longer in units of the budget,
    # so the tolerance shrinks with it to stay relative to |log(1 - alpha)|.
    tol = OUTER_TOL * min(1.0, unit)
    out: list = [None] * len(panels)
    zero, keys, lanes = [], [], []
    for k, (gammas, counts) in enumerate(panels):
        log1m_s = target / counts.sum()
        if log1m_s == 0.0:  # a budget this small gives every test size 0
            zero.append(k)
            continue
        search = _Search(gammas, counts, log1m_s, scale)
        if search.lo == search.hi:
            log1m = float(_sidak_log1m(alpha, counts.sum()))
            v = float(ndtri_exp(log1m))
            out[k] = (float(_log_g(gammas, v, log1m).max()),
                      np.full(gammas.size, v), np.full(gammas.size, log1m))
        else:
            keys.append(k)
            lanes.append(search)

    def solve(ks: list, log_ds: list, anchors: list) -> None:
        profiles = _profiles([panels[k][0] for k in ks], log_ds, anchors)[0]
        for k, profile in zip(ks, profiles):
            out[k] = profile

    if zero:
        solve(zero, [math.inf] * len(zero), [None] * len(zero))
    if not lanes:
        return out

    def ratios(which: list, ts: list) -> list:  # t = log d / scale, one per lane
        searches = [lanes[i] for i in which]
        profiles, (gammas, v, log1m) = _profiles(
            [s.gammas for s in searches], [t * scale for t in ts],
            [s.last for s in searches])
        slopes = _gap_slopes(gammas, v, log1m)
        values, k0 = [], 0
        for s, t, profile in zip(searches, ts, profiles):
            seg = slice(k0, k0 + s.gammas.size)
            k0 = seg.stop
            s.last = profile
            total, slope = float(s.counts @ log1m[seg]), float(s.counts @ slopes[seg])
            if total == 0.0:  # every size rounds to 0: far above the root
                s.evaluated[t] = (math.inf, math.nan)
            else:
                # -log(L / target) through log1p of the relative gap, which
                # keeps its precision near the root and overflows only far
                # from it, where the difference of the two logs is exact
                # enough.
                rel = (total - target) / target
                value = unit * (-math.log1p(rel) if abs(rel) < 0.5
                                else math.log(-target) - math.log(-total))
                # d/dt of -unit * log(L / target) is -unit * scale * L' / L;
                # unit * scale = -target, and scale itself cancels.
                d_value = slope * (target / total)
                if t == s.hi and total != target:
                    # The search evaluates the upper Sidak end only when a
                    # step of the ratio overshot it, as where zero effects
                    # take the budget and L = log d is linear: the gap's own
                    # Newton step is exact there.
                    d_value = value * slope / ((total - target) / scale)
                s.evaluated[t] = (value, d_value)
            if s.best is None or abs(s.evaluated[t][0]) < abs(s.evaluated[s.best_t][0]):
                s.best_t, s.best = t, profile
            values.append(s.evaluated[t][0])
        return values

    # The root finder takes Newton steps only from points it has already
    # evaluated, so each slope comes with its value.  At most `halvings`
    # bisections narrow a bracket to tol; the cap leaves twice that again
    # for Newton steps and the two ends.
    roots = [result.root for result in find_root(
        ratios,
        [Bracket(s.lo, s.hi, -math.inf, math.inf) for s in lanes],
        tol=tol,
        max_iter=[3 * max(0, math.ceil(math.log2(s.hi - s.lo) - math.log2(tol))) + 4
                  for s in lanes],
        df=lambda i, t: lanes[i].evaluated[t][1],
        x0=[float(s.counts @ s.log_g) / s.counts.sum() / scale for s in lanes],
    )]
    again = [i for i, s in enumerate(lanes) if roots[i] not in s.evaluated]
    if again:
        ratios(again, [roots[i] for i in again])
    final = []
    for i, s in enumerate(lanes):
        root = roots[i]
        # Far in the upper tail a size is resolved to about v^2 1e-15 of
        # itself, so profiles warm-started from different v can differ by
        # more than tol in the ratio at the same t: the root is the point
        # of least finite |ratio| evaluated, whose profile is kept.
        if math.isfinite(s.evaluated[s.best_t][0]):
            root = s.best_t
        profile = s.best if root == s.best_t else s.last
        # A bracket that narrows below tol can stop with a ratio of
        # slope * tol: one Newton step from the root removes it.  Where the
        # bracket has closed to adjacent floats, that step rounds onto the
        # other end, which is no better.
        value, slope = s.evaluated[root]
        if abs(value) > tol and slope > 0.0 and root - value / slope not in s.evaluated:
            root -= value / slope
        log_d = root * scale
        if profile[0] == log_d:
            out[keys[i]] = profile
        else:
            final.append((i, log_d, profile))
    if final:
        solve([keys[i] for i, _, _ in final], [log_d for _, log_d, _ in final],
              [profile for _, _, profile in final])
    return out


class _Stack:
    """The panels of an open ``stacked`` block: their models, their
    p-values, and what has been solved for them together, by key."""

    __slots__ = ("models", "s", "rows", "kept")

    def __init__(self, models: tuple, s):
        self.models, self.s, self.kept = models, s, {}
        self.rows = {id(m): r for r, m in enumerate(models)}


_open_stack: _Stack | None = None


@contextlib.contextmanager
def stacked(models, s):
    """Within the block, the R panels of ``models`` and of ``s``, their
    p-values as an (R, M) array, are solved together though they are
    asked about one at a time: the first ``optimal_sizes`` call on one of
    them at a budget solves the allocations of all of them
    (``_solve_multipliers``), and the stepwise rules of ``procedures``
    solve their passes a block of panels at a time.  The stack keeps what
    it solved until the block ends.  Each result is bitwise the one its
    panel gets alone.

    A model belongs to the stack by identity.  The innermost open stack
    is the one that serves.
    """
    global _open_stack
    models = tuple(models)
    if not models or not all(isinstance(m, RocModel) for m in models):
        raise ValueError("need a nonempty sequence of RocModels")
    s = np.asarray(s, dtype=float)
    if s.shape != (len(models), models[0].M) or any(m.M != s.shape[1] for m in models):
        raise ValueError(f"{len(models)} models of M={[m.M for m in models]} for "
                         f"p-values of shape {s.shape}")
    outer, _open_stack = _open_stack, _Stack(models, s)
    try:
        yield
    finally:
        _open_stack = outer


def _stack_row(model) -> tuple[_Stack | None, int | None]:
    """The open stack and ``model``'s row in it, or (None, None) when the
    model is not one of its panels."""
    stack = _open_stack
    r = None if stack is None else stack.rows.get(id(model))
    return (None, None) if r is None else (stack, r)


def optimal_sizes(model: RocModel, alpha: float) -> SizeAllocation:
    """Power-optimal size vector under weak FWER budget alpha.

    Satisfies rho_m'(eta_m)(1 - eta_m) = d for a common d and
    sum log(1 - eta_m) = log(1 - alpha); an exchangeable model gets exactly
    the Sidak allocation, bitwise ``sidak_sizes``.  Equal effect sizes get
    bitwise-equal sizes, and a zero budget gives every test size 0 (and
    multiplier inf).  The system is solved once per distinct gamma.  Raises
    AllocationError when the sizes miss the budget by more than BUDGET_TOL,
    which happens once gamma^2/2 is so large that log d has no precision
    left (distinct gammas near 1e8).

    A model of an open stack (``stacked``) gets the allocation that one
    lockstep search over all the stack's models made at this budget, at
    the first call; an error of any of them is raised there.
    """
    alpha = _validate_alpha(alpha)
    stack, r = _stack_row(model)
    if stack is None:
        return _allocations([model], alpha)[0]
    key = ("sizes", alpha)
    if key not in stack.kept:
        stack.kept[key] = _allocations(stack.models, alpha)
    return stack.kept[key][r]


def _allocations(models, alpha: float) -> list[SizeAllocation]:
    """The allocation of each model at ``alpha``, their searches run in
    lockstep (``_solve_multipliers``)."""
    uniques = [np.unique(m.gammas, return_inverse=True, return_counts=True) for m in models]
    panels = [(gammas, counts.astype(float)) for gammas, _, counts in uniques]
    return [
        _allocation(alpha, gammas, inverse, counts, profile)
        for (gammas, counts), (_, inverse, _), profile in zip(
            panels, uniques, _solve_multipliers(panels, alpha))
    ]


def _allocation(alpha: float, gammas, inverse, counts, profile) -> SizeAllocation:
    """The allocation of one panel from the profile (log d, v, log Phi(v))
    of its distinct effect sizes ``gammas``, which ``inverse`` expands."""
    log_d, v, log1m = profile
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
