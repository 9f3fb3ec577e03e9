"""A safeguarded bracketed root finder.

It is a hybrid: a Newton step (when a derivative is supplied) or a secant
step is accepted only if it stays strictly inside the current sign-change
bracket and is at most half as long as the step two iterations before it;
otherwise the step is replaced by a bisection.  This is the guard of
``rtsafe`` (Press et al., *Numerical Recipes*, 3rd ed., 2007, section 9.4).
Each bisection halves the bracket, and between two bisections the step
length halves at least every other iteration.  Unlike a guard that forces
a bisection whenever the bracket has not halved, this lets a Newton
iteration that approaches the root from one side, as it does on a convex
or concave function, run to convergence without a bisection.
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
    endpoint is already a root).  An end whose sign is known but whose
    value was never computed carries an infinite value of that sign."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise BracketingError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise BracketingError("bracket endpoints must be finite")
        if math.isnan(self.f_lo) or math.isnan(self.f_hi):
            raise BracketingError("bracket values must not be NaN")
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
    x0: float | None = None,
) -> RootResult:
    """Find a root of ``f`` inside ``bracket``.

    Terminates when |f(x)| <= tol, when the bracket width falls below tol,
    or when no float lies strictly inside the bracket any more.  The first
    evaluation is at ``x0`` if it lies strictly inside the bracket; after
    that, each step goes from the bracket end with the smaller |f|.  A
    Newton (if ``df`` is given and that |f| is finite) or secant candidate
    is taken if it lies strictly inside the bracket and is at most half as
    long as the step two iterations before (the bracket width for the first
    two steps); otherwise the step bisects.  A candidate that rounds to x
    itself moves x by one ulp instead, and one that would leave the bracket
    through an end of infinite value (an end whose sign is known but whose
    value was never computed) evaluates that end, once; an end whose value
    then has the other sign is returned as the root.  At most
    log2(width / tol) bisections are needed; the accepted steps between two
    of them shrink geometrically, so ``max_iter`` has to leave room for
    them too.  ``f`` may return an infinite value, which counts by its sign
    only.  Deterministic for identical inputs.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    step_two_ago = step_one_ago = b - a
    # An end with an infinite value has not been evaluated: a step that
    # would leave the bracket through it evaluates it instead.
    lo_open, hi_open = math.isinf(fa), math.isinf(fb)
    start = x0 if x0 is not None and a < x0 < b else None
    for iteration in range(1, max_iter + 1):
        if abs(fx) <= tol or (b - a) <= tol or not a < 0.5 * (a + b) < b:
            return RootResult(x, fx, iteration - 1)

        if start is not None:
            cand, start = start, None
        else:
            cand = math.nan
            if df is not None and math.isfinite(fx):
                slope = df(x)
                if slope != 0.0 and math.isfinite(slope):
                    cand = x - fx / slope
            if not (a < cand < b) and math.isfinite(fb - fa) and fb != fa:
                cand = b - fb * (b - a) / (fb - fa)
            if cand == x:  # a step below x's resolution moves it by one ulp
                cand = math.nextafter(x, b if x == a else a)
            if cand >= b and hi_open:
                cand, hi_open = b, False
            elif cand <= a and lo_open:
                cand, lo_open = a, False
            # Stagnation guard: a candidate outside the bracket, or one
            # that has not halved the step of two iterations ago, bisects.
            elif not (a < cand < b) or abs(cand - x) > 0.5 * step_two_ago:
                cand = 0.5 * (a + b)
            step_two_ago, step_one_ago = step_one_ago, abs(cand - x)

        fc = f(cand)
        if fc == 0.0:
            return RootResult(cand, 0.0, iteration)
        if cand in (a, b):
            # An end whose value has the other sign than the one it was
            # given for is itself the root, up to the rounding of f.
            if (fc < 0.0) != ((fa if cand == a else fb) < 0.0):
                return RootResult(cand, fc, iteration)
            if cand == a:
                fa = fc
            else:
                fb = fc
        elif (fc < 0.0) == (fa < 0.0):
            a, fa, lo_open = cand, fc, False
        else:
            b, fb, hi_open = cand, fc, False
        x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)

    best = RootResult(x, fx, max_iter)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations: "
        f"x={x:.17g}, residual={fx:.6g}, bracket width={b - a:.6g}",
        best,
    )
