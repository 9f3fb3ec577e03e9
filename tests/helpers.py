"""Small shared test oracles."""

import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from poweralloc.allocate import (
    EPS,
    INNER_TOL,
    LOG_PHI_FLUSH,
    LOG_SQRT_2PI,
    V_HI,
    V_LO,
    AllocationError,
)


def erfc_cdf(z: float) -> float:
    """Independent normal CDF through libm's erfc."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def fd_power_deriv(gamma: float, eta: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite difference of the power curve, written as a
    difference of upper tails so it keeps full relative precision even
    where the power saturates near 1 (large gamma, tiny eta)."""
    a_lo = gamma + ndtri(eta - step)
    a_hi = gamma + ndtri(eta + step)
    return (ndtr(-a_lo) - ndtr(-a_hi)) / (2.0 * step)


# The safeguarded Newton inner solve that the blocked Halley solve in
# ``allocate._solve_v`` replaced, kept as its differential reference.
def newton_solve_v(gamma, c, tol: float = INNER_TOL) -> np.ndarray:
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
    # slope = r + gamma below is 0 where gamma = 0 and phi(v) underflows
    # (v past ~38.6): the Newton step is then not finite and the element
    # bisects.
    with np.errstate(divide="ignore", invalid="ignore"):
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
