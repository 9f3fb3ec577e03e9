"""The SciPy normal-distribution kernels the allocator is built on
(ndtr, ndtri, log_ndtr), and the safeguarded root finder.

Expected values are frozen from independent oracles computed here: the
libm complementary error function for body values, the classical
asymptotic expansion Phi(z) ~ phi(z)/|z| * sum (-1)^k (2k-1)!!/z^2k for
the lower tail, and bisection on the erfc-based CDF for quantiles.
"""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri

from poweralloc import (
    Bracket,
    BracketingError,
    ConvergenceError,
    RootResult,
    find_root,
)

from helpers import erfc_cdf


def log_tail_series(z: float, terms: int = 12) -> float:
    """log of the asymptotic lower-tail expansion
    Phi(z) ~ phi(z)/|z| * sum (-1)^k (2k-1)!!/z^2k, valid for z << -1;
    truncation error is below the first omitted term.  Working on the log
    avoids the underflow of phi(z) past z ~ -38."""
    assert z <= -8
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= -(2 * k - 1) / (z * z)
        total += term
    return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - math.log(abs(z)) + math.log(total)


def tail_series(z: float) -> float:
    return math.exp(log_tail_series(z))


def quantile_by_bisection(p: float) -> float:
    lo, hi = -10.0, 10.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if erfc_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_against_erfc_oracle(self):
        for z in (-3.7, -1.0, -0.2, 0.4, 1.959964, 2.5, 6.0):
            assert ndtr(z) == pytest.approx(erfc_cdf(z), rel=1e-14)
        assert ndtr(1.959964) == pytest.approx(0.975, abs=5e-7)

    def test_deep_tail_against_series(self):
        value = ndtr(-10.0)
        oracle = tail_series(-10.0)
        assert value == pytest.approx(oracle, rel=1e-10)
        assert value == pytest.approx(7.62e-24, rel=1e-2)

    def test_complement_identity(self):
        rng = np.random.default_rng(7)
        for z in rng.uniform(-8, 8, 100):
            assert ndtr(z) + ndtr(-z) == pytest.approx(1.0, abs=1e-15)

    def test_monotone(self):
        grid = np.linspace(-12, 12, 4001)
        assert np.all(np.diff(ndtr(grid)) >= 0.0)


class TestNormQuantile:
    def test_median(self):
        assert ndtri(0.5) == 0.0

    def test_against_bisection_oracle(self):
        assert ndtri(0.975) == pytest.approx(quantile_by_bisection(0.975), abs=1e-9)
        assert ndtri(0.975) == pytest.approx(1.959964, abs=5e-7)
        assert ndtri(0.05) == pytest.approx(-1.644854, abs=5e-7)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(1e-12, 1.0 - 1e-12, 10_000)
        errors = np.abs(ndtr(ndtri(p)) - p)
        assert errors.max() < 1e-12

    def test_endpoints_signal_infinity(self):
        assert ndtri(0.0) == -math.inf
        assert ndtri(1.0) == math.inf


class TestLogNormCdf:
    def test_at_zero(self):
        assert log_ndtr(0.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_matches_log_of_cdf_in_body(self):
        for z in np.linspace(-8, 8, 201):
            assert abs(log_ndtr(z) - math.log(ndtr(z))) < 1e-12

    def test_tail_values(self):
        assert log_ndtr(-10.0) == pytest.approx(log_tail_series(-10.0), rel=1e-12)
        assert log_ndtr(-10.0) == pytest.approx(-53.231, abs=5e-4)
        # upper tail: log Phi(5) = log1p(-Phi(-5)), Phi(-5) via libm erfc
        assert log_ndtr(5.0) == pytest.approx(math.log1p(-erfc_cdf(-5.0)), rel=1e-10)
        assert log_ndtr(5.0) == pytest.approx(-2.867e-7, rel=1e-3)

    def test_no_underflow_far_tail(self):
        for z in (-38.0, -50.0, -100.0, -200.0):
            value = log_ndtr(z)
            oracle = log_tail_series(z)
            assert math.isfinite(value)
            assert value == pytest.approx(oracle, rel=1e-10)


class TestFindRoot:
    def test_sqrt_two(self):
        f = lambda x: x * x - 2.0
        res = find_root(f, Bracket.from_function(f, 1.0, 2.0), tol=1e-12)
        assert res.root == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(res.residual) <= 1e-12

    def test_linear_hits_midpoint_immediately(self):
        f = lambda x: x
        res = find_root(f, Bracket.from_function(f, -1.0, 1.0))
        assert res.root == 0.0
        assert res.residual == 0.0

    def test_against_quantile_oracle(self):
        f = lambda x: ndtr(x) - 0.975
        res = find_root(f, Bracket.from_function(f, 0.0, 4.0), tol=1e-13)
        assert res.root == pytest.approx(quantile_by_bisection(0.975), abs=1e-9)

    def test_newton_branch(self):
        f = lambda x: x**3 - 8.0
        res = find_root(f, Bracket.from_function(f, 0.0, 5.0), tol=1e-13,
                        df=lambda x: 3.0 * x * x)
        assert res.root == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        f = lambda x: math.cos(x) - x
        bracket = Bracket.from_function(f, 0.0, 1.0)
        a = find_root(f, bracket)
        b = find_root(f, bracket)
        assert a == b

    def test_hard_tanh_like_function_converges(self):
        # Nearly flat away from the root; stresses the stagnation guard.
        f = lambda x: math.tanh(50.0 * (x - 0.731))
        res = find_root(f, Bracket.from_function(f, -10.0, 10.0), tol=1e-12)
        assert res.root == pytest.approx(0.731, abs=1e-10)

    def test_no_sign_change_raises(self):
        f = lambda x: x * x + 1.0
        with pytest.raises(BracketingError):
            Bracket.from_function(f, -1.0, 1.0)

    def test_stops_when_the_bracket_reaches_float_resolution(self):
        # Near 513 one ulp is 1.1e-13, wider than tol, and the step function
        # never gets within tol of 0: only adjacent floats end the search.
        f = lambda x: -1.0 if x < 512.89 else 1.0
        res = find_root(f, Bracket.from_function(f, 512.0, 513.0), tol=1e-14)
        assert math.nextafter(512.89, 0.0) <= res.root <= math.nextafter(512.89, 1e3)

    def test_iteration_cap_carries_best(self):
        f = lambda x: math.cos(x) - x
        with pytest.raises(ConvergenceError) as exc:
            find_root(f, Bracket.from_function(f, 0.0, 1.0), tol=5e-324, max_iter=3)
        best = exc.value.best
        assert isinstance(best, RootResult)
        assert best.iterations == 3
        assert 0.0 < best.root < 1.0

    def test_one_sided_newton_from_an_interior_start(self):
        # e^x - 2 is convex: Newton from x0 = 0 overshoots once, then
        # approaches ln 2 from above with steps that shrink quadratically,
        # which a guard on the bracket width would interrupt by bisecting.
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x) - 2.0

        res = find_root(f, Bracket(-10.0, 10.0, math.exp(-10.0) - 2.0, math.exp(10.0) - 2.0),
                        df=math.exp, x0=0.0)
        assert res.root == pytest.approx(math.log(2.0), abs=1e-12)
        assert len(calls) <= 6
        assert calls[0] == 0.0
        assert all(x > math.log(2.0) for x in calls[1:-1])
        assert calls[1:] == sorted(calls[1:], reverse=True)

    def test_first_step_is_not_a_bisection(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.1

        res = find_root(f, Bracket.from_function(lambda x: x - 0.1, -1.0, 1.0))
        assert calls[0] == pytest.approx(0.1, abs=1e-15)
        assert res.root == pytest.approx(0.1, abs=1e-15)

    def test_iteration_cap_with_newton_carries_best(self):
        f = lambda x: math.exp(x) - 2.0
        with pytest.raises(ConvergenceError) as exc:
            find_root(f, Bracket.from_function(f, -10.0, 10.0), tol=5e-324,
                      max_iter=2, df=math.exp, x0=0.0)
        best = exc.value.best
        assert best.iterations == 2
        assert best.root == 1.0 and best.residual == math.exp(1.0) - 2.0

    def test_unevaluated_end_is_evaluated_once_a_step_leaves_through_it(self):
        # Ends of known sign carry infinite values; Newton from x0 = -5
        # on the convex e^x - 2 overshoots past hi = 1, so hi is evaluated
        # instead of bisecting, and the search goes on from there.
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x) - 2.0

        res = find_root(f, Bracket(-10.0, 1.0, -math.inf, math.inf), df=math.exp, x0=-5.0)
        assert calls[:2] == [-5.0, 1.0]
        assert res.root == pytest.approx(math.log(2.0), abs=1e-12)
        assert all(x > math.log(2.0) for x in calls[1:-1])

    def test_an_unevaluated_end_of_the_other_sign_is_the_root(self):
        # The upper end was given as positive, but f rounds below 0 there:
        # the sign change lies at that end.
        f = lambda x: x - 1.0 - 1e-16
        res = find_root(f, Bracket(0.0, 1.0, -math.inf, math.inf), df=lambda x: 1.0, x0=0.5)
        assert res.root == 1.0 and res.residual == f(1.0)
        assert res.iterations == 2

    @pytest.mark.parametrize("f_lo, f_hi, root", [(0.0, 1.0, 1.0), (-1.0, 0.0, 2.0)])
    def test_an_end_of_value_zero_is_the_root(self, f_lo, f_hi, root):
        def f(x):
            raise AssertionError("no evaluation is needed")

        assert find_root(f, Bracket(1.0, 2.0, f_lo, f_hi)) == RootResult(root, 0.0, 0)

    @pytest.mark.parametrize("lo, hi, shift", [(0.0, 1.0, 1e-20), (1.0, 2.0, -1e-20)])
    def test_a_step_below_resolution_moves_one_ulp(self, lo, hi, shift):
        # f(1.0) = shift is the smaller end value, and both the Newton and
        # the secant candidate lie within half an ulp of 1.0: the step
        # moves one ulp into the bracket, where f has the other sign.
        calls = []

        def f(x):
            calls.append(x)
            return (x - 1.0) + shift

        res = find_root(f, Bracket.from_function(lambda x: (x - 1.0) + shift, lo, hi),
                        tol=1e-30, df=lambda x: 1.0)
        assert calls == [math.nextafter(1.0, lo + hi - 1.0)]
        assert res == RootResult(1.0, shift, 1)

    @pytest.mark.parametrize("tol", [0.0, -1e-12])
    def test_tol_must_be_positive(self, tol):
        f = lambda x: x - 0.5
        with pytest.raises(ValueError, match="tol must be positive"):
            find_root(f, Bracket.from_function(f, 0.0, 1.0), tol=tol)

    def test_bracket_validation(self):
        with pytest.raises(BracketingError):
            Bracket(2.0, 1.0, -1.0, 1.0)
        with pytest.raises(BracketingError):
            Bracket(0.0, 1.0, math.nan, 1.0)

    def test_bracket_ends_of_known_sign(self):
        assert Bracket(0.0, 1.0, -math.inf, math.inf).f_hi == math.inf
        with pytest.raises(BracketingError):
            Bracket(-math.inf, 1.0, -1.0, 1.0)
        with pytest.raises(BracketingError):
            Bracket(0.0, 1.0, math.inf, math.inf)


class TestLockstep:
    """Searches run as the lanes of one call equal the searches run one by
    one, bitwise: roots, residuals and each lane's iteration count."""

    TOL = 1e-13
    # (f, df, bracket ends or values, x0, max_iter) per lane.
    LANES = [
        # Newton from an interior start, a few steps.
        (lambda x: x ** 3 - 8.0, lambda x: 3.0 * x * x, (0.0, 5.0), 1.0, 60),
        # Flat away from the root: many bisections, so it stops late.
        (lambda x: math.tanh(50.0 * (x - 0.731)), None, (-10.0, 10.0), None, 200),
        # Starts on its root: the first evaluation is 0.
        (lambda x: x - 0.5, lambda x: 1.0, (0.0, 1.0), 0.5, 50),
        # Secant only, an end of known sign but no value.
        (lambda x: math.exp(x) - 2.0, math.exp, (-10.0, 1.0, -math.inf, math.inf), -5.0, 50),
        # Stops at once: an end of value 0 is the root.
        (lambda x: x - 1.0, None, (1.0, 2.0, 0.0, 1.0), None, 50),
        # The step function never meets tol; it stops once the bracket
        # holds no float, whose spacing at 512 is above tol.
        (lambda x: -1.0 if x < 512.89 else 1.0, None, (512.0, 513.0), None, 200),
    ]
    FAILING = (lambda x: math.cos(x) - x, None, (0.0, 1.0), None, 3)

    @staticmethod
    def bracket(f, ends):
        return Bracket(*ends) if len(ends) == 4 else Bracket.from_function(f, *ends)

    def lockstep(self, lanes, calls=None):
        def f(which, points):
            assert len(which) == len(points) and which == sorted(which)
            if calls is not None:
                calls.append(list(which))
            return [lanes[k][0](x) for k, x in zip(which, points)]

        return find_root(
            f, [self.bracket(lane[0], lane[2]) for lane in lanes],
            tol=self.TOL, max_iter=[lane[4] for lane in lanes],
            # A lane with no slope gets NaN, which takes the secant step as
            # a search without ``df`` does.
            df=lambda k, x: math.nan if lanes[k][1] is None else lanes[k][1](x),
            x0=[lane[3] for lane in lanes])

    def scalar(self, lane):
        f, df, ends, x0, max_iter = lane
        return find_root(f, self.bracket(f, ends), tol=self.TOL, max_iter=max_iter, df=df, x0=x0)

    def test_lanes_equal_scalar_searches(self):
        calls = []
        results = self.lockstep(self.LANES, calls)
        scalar = [self.scalar(lane) for lane in self.LANES]
        assert list(results) == scalar
        assert [type(r.iterations) for r in results] == [int] * len(scalar)
        assert results.iterations == sum(r.iterations for r in scalar)
        assert type(results.iterations) is int
        # The lanes converge at different steps, and a stopped one leaves
        # the lockstep: each step evaluates the lanes still running.
        counts = sorted({r.iterations for r in scalar})
        assert len(counts) >= 4
        assert [len(c) for c in calls] == [
            sum(r.iterations > step for r in scalar) for step in range(len(calls))]

    def test_a_lane_that_fails_raises_its_error(self):
        lanes = self.LANES[:2] + [self.FAILING] + self.LANES[2:]
        with pytest.raises(ConvergenceError) as lockstep:
            self.lockstep(lanes)
        with pytest.raises(ConvergenceError) as scalar:
            self.scalar(self.FAILING)
        assert str(lockstep.value) == str(scalar.value)
        assert lockstep.value.best == scalar.value.best

    def test_the_first_failing_lane_is_raised(self):
        cap_two = self.FAILING[:4] + (2,)
        with pytest.raises(ConvergenceError) as lockstep:
            self.lockstep([self.LANES[0], self.FAILING, cap_two])
        assert lockstep.value.best.iterations == 3

    def test_lanes_need_one_max_iter_and_x0_each(self):
        lanes = self.LANES[:2]
        brackets = [self.bracket(lane[0], lane[2]) for lane in lanes]
        with pytest.raises(ValueError, match="one max_iter and one x0 per bracket"):
            find_root(lambda which, points: points, brackets, max_iter=[50], x0=[None, None])

    def test_a_scalar_call_is_one_lane(self):
        for lane in self.LANES:
            one, = self.lockstep([lane])
            assert one == self.scalar(lane)
