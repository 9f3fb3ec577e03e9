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

Many searches can run in lockstep, one lane per bracket: each step asks
for the next point of every running lane in one call, so a caller whose
function costs a fixed overhead per call, such as a numpy solve, pays it
once per step rather than once per search.  Each lane keeps its own
state and applies the rule with its own scalar float operations
(``_Lane``), so its result is bitwise that of a search of its own, and a
lane leaves the lockstep when it stops.  A single search is one lane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


class _Lanes(tuple):
    """The results of a lockstep search, one ``RootResult`` per lane, in
    the order of the brackets; ``iterations`` is their total."""

    __slots__ = ()

    @property
    def iterations(self) -> int:
        return sum(lane.iterations for lane in self)


class _Lane:
    """One search's state between two evaluations of ``f``.

    ``advance`` starts the next iteration: it returns the search's outcome
    (a ``RootResult``, or the ``ConvergenceError`` it would raise) when the
    search stops before evaluating, and otherwise leaves the point to
    evaluate in ``cand``.  ``update`` takes the value there and returns the
    outcome when that value ends the search, else None.
    """

    __slots__ = ("a", "b", "fa", "fb", "x", "fx", "step_two_ago", "step_one_ago",
                 "lo_open", "hi_open", "start", "tol", "max_iter", "iteration", "cand")

    def __init__(self, bracket: Bracket, tol: float, max_iter: int, x0: float | None):
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        self.a, self.b = a, b = bracket.lo, bracket.hi
        self.fa, self.fb = fa, fb = bracket.f_lo, bracket.f_hi
        self.x, self.fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        self.step_two_ago = self.step_one_ago = b - a
        # An end with an infinite value has not been evaluated: a step that
        # would leave the bracket through it evaluates it instead.
        self.lo_open, self.hi_open = math.isinf(fa), math.isinf(fb)
        self.start = x0 if x0 is not None and a < x0 < b else None
        self.tol, self.max_iter, self.iteration = tol, max_iter, 0

    def advance(self, df) -> RootResult | ConvergenceError | None:
        a, b, x, fx = self.a, self.b, self.x, self.fx
        if self.iteration == self.max_iter:
            return ConvergenceError(
                f"no convergence in {self.max_iter} iterations: "
                f"x={x:.17g}, residual={fx:.6g}, bracket width={b - a:.6g}",
                RootResult(x, fx, self.max_iter),
            )
        self.iteration += 1
        if abs(fx) <= self.tol or (b - a) <= self.tol or not a < 0.5 * (a + b) < b:
            return RootResult(x, fx, self.iteration - 1)

        if self.start is not None:
            cand, self.start = self.start, None
        else:
            fa, fb = self.fa, self.fb
            cand = math.nan
            if df is not None and math.isfinite(fx):
                slope = df(x)
                if slope != 0.0 and math.isfinite(slope):
                    cand = x - fx / slope
            if not (a < cand < b) and math.isfinite(fb - fa) and fb != fa:
                cand = b - fb * (b - a) / (fb - fa)
            if cand == x:  # a step below x's resolution moves it by one ulp
                cand = math.nextafter(x, b if x == a else a)
            if cand >= b and self.hi_open:
                cand, self.hi_open = b, False
            elif cand <= a and self.lo_open:
                cand, self.lo_open = a, False
            # Stagnation guard: a candidate outside the bracket, or one
            # that has not halved the step of two iterations ago, bisects.
            elif not (a < cand < b) or abs(cand - x) > 0.5 * self.step_two_ago:
                cand = 0.5 * (a + b)
            self.step_two_ago, self.step_one_ago = self.step_one_ago, abs(cand - x)
        self.cand = cand
        return None

    def update(self, fc: float) -> RootResult | None:
        cand, a, b = self.cand, self.a, self.b
        if fc == 0.0:
            return RootResult(cand, 0.0, self.iteration)
        if cand in (a, b):
            # An end whose value has the other sign than the one it was
            # given for is itself the root, up to the rounding of f.
            if (fc < 0.0) != ((self.fa if cand == a else self.fb) < 0.0):
                return RootResult(cand, fc, self.iteration)
            if cand == a:
                self.fa = fc
            else:
                self.fb = fc
        elif (fc < 0.0) == (self.fa < 0.0):
            self.a, self.fa, self.lo_open = cand, fc, False
        else:
            self.b, self.fb, self.hi_open = cand, fc, False
        self.x, self.fx = (self.a, self.fa) if abs(self.fa) <= abs(self.fb) else (self.b, self.fb)
        return None


def find_root(
    f: Callable,
    bracket: Bracket | Sequence[Bracket],
    tol: float = DEFAULT_TOL,
    max_iter: int | Sequence[int] = DEFAULT_MAX_ITER,
    df: Callable | None = None,
    x0: float | None | Sequence[float | None] = None,
) -> RootResult | tuple[RootResult, ...]:
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

    Given a sequence of brackets, it runs one search per bracket, a lane,
    in lockstep: each step takes every running lane's next point and
    evaluates them all in one call ``f(lanes, points)``, which returns
    their values in that order (``lanes`` are the indices of the brackets).
    A lane applies the rule above with the scalar float operations of a
    search of its own, and ``df(lane, x)`` gives its slopes, so each lane's
    result is bitwise the one that search returns.  ``tol`` is every
    lane's, and ``max_iter`` and ``x0`` are sequences with one entry per
    lane.  A lane that stops leaves the lockstep.  The results come back as a tuple with
    one ``RootResult`` per lane, whose ``iterations`` is the lanes' total;
    when lanes exhaust their ``max_iter``, the error of the first of them
    is raised once every lane has stopped.  A single bracket is a search of
    one lane, with ``f(x)`` and ``df(x)``.
    """
    if isinstance(bracket, Bracket):
        result, = _lockstep(lambda lanes, points: [f(points[0])], [bracket], tol,
                            [max_iter], None if df is None else lambda lane, x: df(x), [x0])
        return result
    if not len(bracket) == len(max_iter) == len(x0):
        raise ValueError("need one max_iter and one x0 per bracket")
    return _Lanes(_lockstep(f, bracket, tol, max_iter, df, x0))


def _lockstep(f, brackets, tol, max_iters, df, x0s) -> list[RootResult]:
    """The lanes of ``find_root``, one per bracket, stepped together."""
    lanes = [_Lane(bracket, tol, max_iter, x0)
             for bracket, max_iter, x0 in zip(brackets, max_iters, x0s)]
    slopes = [None if df is None else functools.partial(df, k) for k in range(len(lanes))]
    outcomes: list = [None] * len(lanes)
    running = list(range(len(lanes)))
    while running:
        stepping = []
        for k in running:
            outcomes[k] = lanes[k].advance(slopes[k])
            if outcomes[k] is None:
                stepping.append(k)
        if not stepping:
            break
        values = f(stepping, [lanes[k].cand for k in stepping])
        running = []
        for k, fc in zip(stepping, values):
            outcomes[k] = lanes[k].update(fc)
            if outcomes[k] is None:
                running.append(k)
    for outcome in outcomes:
        if isinstance(outcome, ConvergenceError):
            raise outcome
    return outcomes
