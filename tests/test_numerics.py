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
