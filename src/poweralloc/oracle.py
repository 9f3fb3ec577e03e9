"""Independent brute-force verifiers.

These deliberately avoid the allocator's Lagrange machinery so they can
serve as cross-checks on it: the grid search enumerates the budget
boundary directly, the Bernoulli tail probability sums all 2^M outcomes,
and the shape check probes a ROC evaluator pointwise.  Everything here is
exact up to grid resolution / floating-point summation, and slow by
design; keep M tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import RocModel, roc

__all__ = [
    "ConcavityReport",
    "GridSearchResult",
    "bernoulli_tail_enumerate",
    "concavity_check",
    "grid_optimal_sizes",
]


@dataclass(frozen=True)
class GridSearchResult:
    """Best size vector found on the budget boundary, its total power, and
    the weight-grid resolution used."""

    best_sizes: np.ndarray
    best_objective: float
    grid_step: float

    def __post_init__(self):
        arr = np.asarray(self.best_sizes, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "best_sizes", arr)


def grid_optimal_sizes(model: RocModel, alpha: float, step: float) -> GridSearchResult:
    """Exhaustive search over the budget boundary for M in {2, 3}.

    The boundary sum log(1-eta_m) = log(1-alpha) is parametrized by
    nonnegative weights u_m with sum u_m = 1 via
    log(1-eta_m) = u_m * log(1-alpha), enumerated on a uniform lattice of
    spacing ``step`` (so the constraint holds exactly at every grid
    point).  Ties resolve to the lexicographically smallest size vector.
    """
    M = model.M
    if M not in (2, 3):
        raise ValueError(f"grid search is exhaustive; only M in {{2, 3}} supported, got M={M}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (0.0 < step <= 0.01):
        raise ValueError(f"step must lie in (0, 0.01], got {step!r}")

    n = int(round(1.0 / step))
    total = math.log1p(-alpha)
    sizes_1d = -np.expm1(total * np.arange(n + 1) / n)  # eta at weight k/n
    powers = [roc(g, sizes_1d) for g in model.gammas]

    if M == 2:
        objective = powers[0] + powers[1][::-1]
        k1 = int(np.argmax(objective))
        best = np.array([sizes_1d[k1], sizes_1d[n - k1]])
        best_obj = float(objective[k1])
    else:
        best_obj = -np.inf
        best_k = (0, 0)
        p2 = powers[1]
        p3 = powers[2]
        for k1 in range(n + 1):
            # k2 runs 0..limit with k3 = limit - k2, so p3 enters reversed.
            limit = n - k1
            obj = powers[0][k1] + p2[: limit + 1] + p3[limit::-1]
            k2 = int(np.argmax(obj))
            if obj[k2] > best_obj:
                best_obj = float(obj[k2])
                best_k = (k1, k2)
        k1, k2 = best_k
        best = np.array([sizes_1d[k1], sizes_1d[k2], sizes_1d[n - k1 - k2]])
    return GridSearchResult(best_sizes=best, best_objective=best_obj, grid_step=step)


def bernoulli_tail_enumerate(etas, a: float) -> float:
    """Exact Pr{ sum V_m / sum eta_m >= a } for independent V_m ~ Ber(eta_m),
    by summation over all 2^M outcomes (M <= 20)."""
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    M = etas.size
    if M < 1 or M > 20:
        raise ValueError(f"enumeration needs 1 <= M <= 20, got M={M}")
    if np.any(etas < 0.0) or np.any(etas > 1.0) or not np.all(np.isfinite(etas)):
        raise ValueError("success probabilities must lie in [0, 1]")
    a = float(a)
    if not math.isfinite(a) or a < 0.0:
        raise ValueError(f"threshold a must be finite and >= 0, got {a!r}")
    if a == 0.0:
        return 1.0

    threshold = a * etas.sum()
    bit_cols = np.arange(M)
    total = 0.0
    chunk = 1 << min(M, 16)
    for start in range(0, 1 << M, chunk):
        masks = np.arange(start, start + chunk, dtype=np.uint32)[:, None]
        bits = (masks >> bit_cols) & 1
        counts = bits.sum(axis=1)
        probs = np.where(bits == 1, etas, 1.0 - etas).prod(axis=1)
        total += float(probs[counts >= threshold].sum())
    return total


class ConcavityReport(NamedTuple):
    passed: bool
    worst_violation: float


def concavity_check(
    roc_evaluator: Callable[[np.ndarray], np.ndarray], grid: int, tol: float = 1e-12
) -> ConcavityReport:
    """Probe an ROC evaluator on a uniform grid for the three shape
    properties a most-powerful process must satisfy: rho(eta) >= eta,
    monotone nondecreasing, and midpoint concave.

    Returns whether all hold within ``tol`` and the worst violation found
    (positive means violated)."""
    if grid < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid!r}")
    eta = np.linspace(0.0, 1.0, grid)
    rho = np.asarray(roc_evaluator(eta), dtype=float)

    worst = float((eta - rho).max())                      # rho >= eta
    worst = max(worst, float((-np.diff(rho)).max()))      # nondecreasing
    # Midpoint concavity on grid-aligned pairs: for indices i < j of equal
    # parity, rho[(i+j)/2] >= (rho[i] + rho[j]) / 2.
    for gap in range(2, grid, 2):
        half = gap // 2
        chord = 0.5 * (rho[:-gap] + rho[gap:])
        worst = max(worst, float((chord - rho[half:grid - half]).max()))
    return ConcavityReport(passed=bool(worst <= tol), worst_violation=worst)
