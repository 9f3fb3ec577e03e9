"""The benchmark's reference against brute-force scans of the definitions
(M <= 6) and against the closed-form rules of exchangeable panels."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri

import reference


def brute_v(gamma: float, log_d: float) -> float:
    """v = Phi^{-1}(1 - eta) at multiplier d, from a scalar root find of the
    stationarity condition rho'(eta)(1 - eta) = d."""
    f = lambda v: float(log_ndtr(v)) + gamma * v - 0.5 * gamma * gamma - log_d
    if f(reference.V_LO) >= 0.0:
        v = reference.V_LO
    elif f(reference.V_HI) <= 0.0:
        v = reference.V_HI
    else:
        v = brentq(f, reference.V_LO, reference.V_HI, xtol=1e-14, rtol=1e-15)
    return v


def brute_size(gamma: float, log_d: float) -> float:
    return float(ndtr(-brute_v(gamma, log_d)))


def brute_log1m(gamma: float, log_d: float) -> float:
    return float(log_ndtr(brute_v(gamma, log_d)))


def brute_log_d(gamma: float, s: float) -> float:
    z = float(-ndtri(s))
    return gamma * z - 0.5 * gamma * gamma + math.log1p(-s)


def brute_rules(gammas, s, q):
    M = len(s)
    x = [brute_log_d(g, si) for g, si in zip(gammas, s)]
    order = sorted(range(M), key=lambda m: -x[m])
    eta = [[brute_size(gammas[j], x[order[i]]) for i in range(M)] for j in range(M)]
    log1m = [[brute_log1m(gammas[j], x[order[i]]) for i in range(M)] for j in range(M)]

    step_up = 0
    for m in range(1, M + 1):
        if sum(eta[j][m - 1] for j in range(M)) <= q * m:
            step_up = m

    step_down = 0
    for i in range(M):
        later = [order[r] for r in range(i, M)]
        if sum(log1m[j][i] for j in later) < math.log1p(-q):
            break
        step_down = i + 1

    budget = lambda ld: sum(brute_log1m(g, ld) for g in gammas) - math.log1p(-q)
    lo, hi = -50.0, 50.0
    while budget(lo) > 0.0:
        lo -= 50.0
    log_d_star = brentq(budget, lo, hi, xtol=1e-13)
    weak = [s[j] <= brute_size(gammas[j], log_d_star) for j in range(M)]

    s_sorted = sorted(s)
    bh = max([m for m in range(1, M + 1) if s_sorted[m - 1] <= q * m / M], default=0)

    def top(n):
        reject = np.zeros(M, dtype=bool)
        reject[order[:n]] = True
        return reject

    by_s = np.argsort(s, kind="stable")
    bh_set = np.zeros(M, dtype=bool)
    bh_set[by_s[:bh]] = True
    return {
        "step-up": top(step_up),
        "step-down": top(step_down),
        "weak": np.array(weak),
        "bh": bh_set,
    }


def random_panel(rng, M, exchangeable=False):
    gammas = np.full(M, rng.uniform(0.2, 5.0)) if exchangeable else rng.uniform(0.1, 6.0, M)
    s = rng.uniform(1e-6, 1.0, M) ** float(rng.uniform(0.5, 6.0))
    return gammas, s


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force_scan(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 7))
    gammas, s = random_panel(rng, M)
    q = float(rng.choice([0.05, 0.1, 0.3]))
    brute = brute_rules(gammas, s, q)
    verdicts = reference.model_rules(gammas, s, q)[0]
    for rule in ("step-up", "step-down", "weak"):
        assert verdicts[rule].admits(brute[rule]), (rule, verdicts[rule], brute[rule])
    assert reference.bh(s, q).admits(brute["bh"])


def stepdown_sidak(s, q):
    """Step-down Sidak: step i passes while s_(i) <= 1 - (1-q)^(1/(M-i+1))."""
    s_sorted = np.sort(s)
    M = s.size
    line = -np.expm1(math.log1p(-q) / (M - np.arange(M)))
    strict = np.flatnonzero(~(s_sorted <= line * (1.0 - reference.REL_TOL)))
    loose = np.flatnonzero(~(s_sorted <= line * (1.0 + reference.REL_TOL)))
    return (int(strict[0]) if strict.size else M, int(loose[0]) if loose.size else M)


@pytest.mark.parametrize("seed", range(20))
def test_exchangeable_panels_reduce_to_bh_and_sidak(seed):
    rng = np.random.default_rng(100 + seed)
    M = int(rng.integers(1, 40))
    gammas, s = random_panel(rng, M, exchangeable=True)
    verdicts = reference.model_rules(gammas, s, 0.1)[0]
    bh = reference.bh(s, 0.1)
    assert (verdicts["step-up"].lo, verdicts["step-up"].hi) == (bh.lo, bh.hi)
    assert (verdicts["step-down"].lo, verdicts["step-down"].hi) == stepdown_sidak(s, 0.1)


def test_batched_panels_match_one_at_a_time():
    rng = np.random.default_rng(7)
    gammas = rng.uniform(0.5, 4.0, (6, 30))
    s = rng.uniform(0.0, 1.0, (6, 30)) ** 3
    batch = reference.model_rules(gammas, s, 0.1)
    for p in range(6):
        single = reference.model_rules(gammas[p], s[p], 0.1)[0]
        for rule in single:
            assert (batch[p][rule].lo, batch[p][rule].hi) == (single[rule].lo, single[rule].hi)


def test_zero_pvalues_rank_first_and_are_rejected():
    gammas = np.array([1.0, 2.0, 3.0])
    s = np.array([0.0, 0.5, 0.0])
    verdicts = reference.model_rules(gammas, s, 0.1)[0]
    for rule in ("step-up", "step-down", "weak"):
        assert verdicts[rule].admits([True, False, True])
        assert not verdicts[rule].admits([True, True, False])


def test_verdict_accepts_either_side_of_a_tie():
    verdict = reference.Verdict(lo=1, hi=1, score=np.array([2.0, 1.0, 2.0]))
    assert verdict.admits([True, False, False])
    assert verdict.admits([False, False, True])
    assert not verdict.admits([False, True, False])
    theta = np.array([1, 0, 0])
    assert verdict.admits_counts(0, 1, theta) and verdict.admits_counts(1, 0, theta)
    assert not verdict.admits_counts(0, 2, theta)


def test_verdict_range_is_inclusive():
    verdict = reference.Verdict(lo=1, hi=2, score=np.array([3.0, 2.0, 1.0]))
    assert verdict.admits([True, False, False])
    assert verdict.admits([True, True, False])
    assert not verdict.admits([True, True, True])
    assert not verdict.admits([False, True, False])


def polished_v(gammas, log_d):
    """The reference's bisection, finished with Newton steps so the sizes
    are exact to rounding."""
    c = log_d + 0.5 * gammas * gammas
    v = reference.solve_v(gammas, c)
    for _ in range(3):
        lphi = log_ndtr(v)
        slope = np.exp(-0.5 * v * v - 0.5 * math.log(2.0 * math.pi) - lphi) + gammas
        v = v - (lphi + gammas * v - c) / slope
    return v


def optimal_allocation(gammas, alpha):
    """Sizes meeting the budget, and their common multiplier."""
    target = math.log1p(-alpha)
    budget = lambda ld: float(log_ndtr(polished_v(gammas, ld)).sum()) - target
    log_d = brentq(budget, -200.0, 200.0, xtol=1e-15, rtol=1e-15)
    return ndtr(-polished_v(gammas, log_d)), math.exp(log_d)


def printed(x):
    return np.array([float(f"{v:.12g}") for v in np.atleast_1d(x)])


def efficiency(gammas, eta, alpha):
    sidak = -math.expm1(math.log1p(-alpha) / eta.size)
    return 100.0 * ndtr(gammas + ndtri(eta)).sum() / ndtr(gammas + ndtri(sidak)).sum()


def test_optimal_allocation_passes_the_property_checks():
    gammas = np.abs(np.random.default_rng(3).normal(2.0, 1.0, 500))
    eta, lagrange = optimal_allocation(gammas, 0.05)
    eta = printed(eta)
    problems = reference.check_allocation(
        gammas, eta, 0.05, printed(lagrange)[0], printed(efficiency(gammas, eta, 0.05))[0])
    assert problems == []


def test_property_checks_catch_a_wrong_allocation():
    gammas = np.abs(np.random.default_rng(4).normal(2.0, 1.0, 200))
    eta, lagrange = optimal_allocation(gammas, 0.05)
    # Moving size from one test to another keeps the budget but breaks
    # the equal marginal values.
    bad = eta.copy()
    bad[0], bad[1] = bad[0] * 1.01, bad[1]
    bad[1] = -math.expm1(math.log1p(-eta[0]) + math.log1p(-eta[1]) - math.log1p(-bad[0]))
    problems = reference.check_allocation(gammas, bad, 0.05, lagrange, efficiency(gammas, bad, 0.05))
    assert any("marginal value" in p for p in problems)
    over = reference.check_allocation(gammas, eta * 1.001, 0.05, lagrange,
                                      efficiency(gammas, eta * 1.001, 0.05))
    assert any("budget" in p for p in over)
    sidak = np.full(gammas.size, -math.expm1(math.log1p(-0.05) / gammas.size))
    assert reference.check_allocation(gammas, eta, 0.05, lagrange, 99.0)
    assert reference.check_allocation(gammas, sidak, 0.05, lagrange, 100.0)


@pytest.mark.parametrize("seed", range(10))
def test_budget_pvalues_match_brute_force(seed):
    rng = np.random.default_rng(200 + seed)
    M = int(rng.integers(1, 7))
    gammas, s = random_panel(rng, M)
    x = [brute_log_d(g, si) for g, si in zip(gammas, s)]
    brute = [-math.expm1(sum(brute_log1m(g, x[m]) for g in gammas)) for m in range(M)]
    w, _ = reference.budget_pvalues(gammas, s, np.arange(M))
    assert np.allclose(w, brute, rtol=1e-8, atol=1e-15)
    assert reference.check_w(gammas, s, printed(brute), np.arange(M)) == []


def test_w_check_catches_wrong_columns():
    rng = np.random.default_rng(5)
    gammas, s = np.abs(rng.normal(2.0, 1.0, 50)), rng.uniform(0.0, 1.0, 50) ** 4
    w, _ = reference.budget_pvalues(gammas, s, np.arange(50))
    cols = np.arange(0, 50, 7)
    assert reference.check_w(gammas, s, printed(w), cols) == []
    assert reference.check_w(gammas, s, np.full(50, 0.5), cols)
    assert reference.check_w(gammas, s, printed(w * (1.0 + 1e-6)), cols)
    swapped = w.copy()
    top, bottom = np.argmin(w), np.argmax(w)
    swapped[[top, bottom]] = w[[bottom, top]]
    assert any("decreases" in p for p in reference.check_w(gammas, s, swapped, cols[:1]))
    assert reference.check_w(gammas, s, np.where(np.arange(50) == 3, np.nan, w), cols)
