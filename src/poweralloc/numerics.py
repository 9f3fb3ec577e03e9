"""A safeguarded bracketed root finder.

It is a hybrid: a Newton step (when a derivative is supplied)
or a secant step is accepted only if it stays strictly inside the current
sign-change bracket and keeps shrinking it; otherwise the step is replaced
by a bisection.  Convergence is therefore guaranteed for any continuous
function with a bracketed sign change, at no worse than three times the
cost of pure bisection: a bisection is forced whenever two steps have not
halved the bracket, so it halves at least once every three steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Bracket",
    "BracketingError",
    "ConvergenceError",
    "RootResult",
    "find_root",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200


class BracketingError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """Iteration cap exhausted; ``best`` carries the best iterate found."""

    def __init__(self, message: str, best: "RootResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval: f(lo) and f(hi) have opposite signs (or one
    endpoint is already a root)."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise BracketingError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not all(map(math.isfinite, (self.lo, self.hi, self.f_lo, self.f_hi))):
            raise BracketingError("bracket endpoints and values must be finite")
        if self.f_lo * self.f_hi > 0.0:
            raise BracketingError(
                f"no sign change on [{self.lo}, {self.hi}]: "
                f"f(lo)={self.f_lo:.6g}, f(hi)={self.f_hi:.6g}"
            )

    @classmethod
    def from_function(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        return cls(lo, hi, f(lo), f(hi))


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    iterations: int


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    df: Callable[[float], float] | None = None,
) -> RootResult:
    """Find a root of ``f`` inside ``bracket``.

    Terminates when |f(x)| <= tol, when the bracket width falls below tol,
    or when no float lies strictly inside the bracket any more.
    Newton (if ``df`` given) or secant candidates are used only while they
    remain inside the bracket and the bracket keeps halving every other
    iteration; otherwise bisection steps are forced.  Deterministic for
    identical inputs.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return RootResult(a, 0.0, 0)
    if fb == 0.0:
        return RootResult(b, 0.0, 0)

    x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    width_two_ago, width_one_ago = b - a, b - a
    for iteration in range(1, max_iter + 1):
        if abs(fx) <= tol or (b - a) <= tol or not a < 0.5 * (a + b) < b:
            return RootResult(x, fx, iteration - 1)

        cand = math.nan
        if df is not None:
            slope = df(x)
            if slope != 0.0 and math.isfinite(slope):
                cand = x - fx / slope
        if not (a < cand < b) and fb != fa:
            cand = b - fb * (b - a) / (fb - fa)
        # Stagnation guard: if two iterations have not halved the bracket,
        # or the candidate left it, fall back to the midpoint.
        if not (a < cand < b) or (b - a) > 0.5 * width_two_ago:
            cand = 0.5 * (a + b)
        width_two_ago, width_one_ago = width_one_ago, b - a

        fc = f(cand)
        if fc == 0.0:
            return RootResult(cand, 0.0, iteration)
        if (fc < 0.0) == (fa < 0.0):
            a, fa = cand, fc
        else:
            b, fb = cand, fc
        x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)

    best = RootResult(x, fx, max_iter)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations: "
        f"x={x:.17g}, residual={fx:.6g}, bracket width={b - a:.6g}",
        best,
    )
