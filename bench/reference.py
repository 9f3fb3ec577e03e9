"""Independent reference for the benchmark's correctness checks.

Works from the definitions of the Gaussian most-powerful tests and the
stepwise rules, with nothing imported from ``poweralloc``:

* Hypothesis m with effect size gamma and p-value s pins the multiplier
  log d = log Phi(v) + gamma v - gamma^2/2 at v = Phi^{-1}(1 - s).  A larger
  d means stronger evidence, so every model-based rule orders hypotheses by
  log d, descending.
* At multiplier d the size of test j is eta_j(d) = Phi(-v_j), where v_j
  solves log Phi(v) + gamma_j v = log d + gamma_j^2/2 on [-40, 40].  It is
  found here by plain vectorised bisection.
* Weak FWER at alpha rejects the top k by log d, where
  B(d) = sum_j log(1 - eta_j(d)) >= log(1 - alpha) holds at exactly the
  first k multipliers.
* The step-down rule at q passes step i while
  T(i) = sum_{r >= i} log(1 - eta_(r)(d_(i))) >= log(1 - q); it rejects the
  passing prefix.
* The step-up rule at q rejects the top J, J = max{m : S(m) <= q m} with
  S(m) = sum_j eta_j(d_(m)).
* BH orders by the raw p-value.
* The budget-scale p-value W_m = 1 - prod_j (1 - eta_j(d_m)) is the
  smallest weak-FWER budget that rejects m.

Every rule returns a :class:`Verdict`: the range of rejection counts that
is right once comparisons closer than ``REL_TOL`` to their threshold are
allowed to go either way, plus the ordering score.  ``Verdict.admits``
then accepts a program's rejection set when its size lies in the range and
it is a top set of the score, again up to ties within the tolerance.

The workloads evaluate only the columns d_(i) that can decide a rule: the
step-down scans stop at the first failing step, and the step-up rule is
evaluated only where the exact lower bound S(m) >= sum_{r <= m} s_(r) (each
earlier-ranked test already has size at least its own p-value) leaves
S(m) <= q m possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

V_LO, V_HI = -40.0, 40.0
# 42 halvings of [-40, 40] leave v within 2e-11, so each size and each
# log(1 - size) is known to a relative 1e-9 or better.  REL_TOL sits well
# above that and well below any margin the workloads produce.
BISECTION_STEPS = 42
REL_TOL = 1e-8
# Score ties: two hypotheses whose log d differ by less than this are
# ranked either way.
SCORE_TOL = 1e-9
STEP_DOWN_CHUNK = 16
STEP_UP_PROBES = 8


def log_d(gamma, s) -> np.ndarray:
    """log d_m for each hypothesis; s = 0 gives +inf (rank first)."""
    gamma = np.asarray(gamma, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -ndtri(s)
        out = log_ndtr(v) + gamma * v - 0.5 * gamma * gamma
    return np.where(s <= 0.0, np.inf, out)


def solve_v(gamma, c) -> np.ndarray:
    """v in [-40, 40] with log Phi(v) + gamma v = c, elementwise, by
    bisection.  Roots outside the interval land on its nearer end."""
    gamma, c = np.broadcast_arrays(np.asarray(gamma, dtype=float), np.asarray(c, dtype=float))
    lo = np.full(gamma.shape, V_LO)
    hi = np.full(gamma.shape, V_HI)
    mid = np.empty(gamma.shape)
    f = np.empty(gamma.shape)
    below = np.empty(gamma.shape, dtype=bool)
    for _ in range(BISECTION_STEPS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        log_ndtr(mid, out=f)
        f += gamma * mid
        np.less(f, c, out=below)
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    return 0.5 * (lo + hi)


def sizes_at(gamma, x) -> tuple[np.ndarray, np.ndarray]:
    """(eta, log(1 - eta)) of tests ``gamma`` (..., M) at multipliers
    ``x`` = log d (..., K); both results have shape (..., M, K)."""
    gamma = np.asarray(gamma, dtype=float)[..., :, None]
    x = np.asarray(x, dtype=float)[..., None, :]
    v = solve_v(gamma, x + 0.5 * gamma * gamma)
    return ndtr(-v), log_ndtr(v)


@dataclass(frozen=True)
class Verdict:
    """Rejection counts in [lo, hi] are right; rejected sets are top sets
    of ``score`` (higher first)."""

    lo: int
    hi: int
    score: np.ndarray

    def _groups(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Masks of hypotheses that a top-n set must contain, and of those
        it may contain (within SCORE_TOL of the n-th score)."""
        order = np.argsort(-self.score, kind="stable")
        cut = self.score[order[n - 1]]
        tol = SCORE_TOL * max(1.0, abs(cut)) if math.isfinite(cut) else 0.0
        return self.score > cut + tol, self.score >= cut - tol

    def admits(self, reject) -> bool:
        """True when ``reject`` (a boolean vector) is a right answer."""
        reject = np.asarray(reject, dtype=bool)
        n = int(reject.sum())
        if not (self.lo <= n <= self.hi):
            return False
        if n in (0, reject.size):
            return True
        must, may = self._groups(n)
        return bool(np.all(reject[must]) and not np.any(reject & ~may))

    def admits_counts(self, false_pos: int, true_pos: int, theta) -> bool:
        """True when some right answer has these false and true positive
        counts against the truth vector ``theta``."""
        theta = np.asarray(theta).astype(bool)
        n = false_pos + true_pos
        if not (self.lo <= n <= self.hi):
            return False
        if n == 0:
            return True
        must, may = self._groups(n)
        free = may & ~must
        k = n - int(must.sum())
        fp_must = int((must & ~theta).sum())
        nulls_free = int((free & ~theta).sum())
        alts_free = int((free & theta).sum())
        return fp_must + max(0, k - alts_free) <= false_pos <= fp_must + min(k, nulls_free)


def _prefix_count(passing: np.ndarray) -> int:
    """Length of the leading run of True."""
    fails = np.flatnonzero(~passing)
    return int(fails[0]) if fails.size else int(passing.size)


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.take_along_axis(a, idx, axis=-1)


def model_rules(gamma, s, level: float, rules=("weak", "step-down", "step-up")) -> list[dict]:
    """Verdicts of the model-based rules at one level for a batch of
    panels: ``gamma`` and ``s`` are (P, M).  Returns one dict per panel,
    keyed by rule name."""
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    P, M = s.shape
    x = log_d(gamma, s)
    order = np.argsort(-x, axis=1, kind="stable")
    x_sorted = _take_rows(x, order)
    rank = np.argsort(order, axis=1)
    out = [dict() for _ in range(P)]

    if "weak" in rules or "step-down" in rules:
        bound = math.log1p(-level) if level < 1.0 else -math.inf
        slack = REL_TOL * max(1.0, abs(bound))
        _scan_down(gamma, x_sorted, rank, bound, slack, rules, out, x)
    if "step-up" in rules:
        _step_up(gamma, s, x, order, x_sorted, level, out)
    return out


def _scan_down(gamma, x_sorted, rank, bound, slack, rules, out, x):
    """Evaluate the leading columns chunk by chunk until every panel has a
    loosely failing step (or runs out), for the weak rule (B) and the
    step-down rule (T >= B, so T's first loose failure comes no earlier
    than B's)."""
    P, M = x_sorted.shape
    want_t = "step-down" in rules
    B = np.full((P, M), np.nan)
    T = np.full((P, M), np.nan)
    open_ = np.ones(P, dtype=bool)
    start = 0
    while open_.any() and start < M:
        stop = min(M, start + STEP_DOWN_CHUNK)
        panels = np.flatnonzero(open_)
        cols = np.arange(start, stop)
        _, log1m = sizes_at(gamma[panels], x_sorted[panels][:, cols])
        B[panels, start:stop] = log1m.sum(axis=1)
        if want_t:
            later = rank[panels][:, :, None] >= cols[None, None, :]
            T[panels, start:stop] = np.where(later, log1m, 0.0).sum(axis=1)
        stat = T if want_t else B
        done = np.any(stat[panels, start:stop] < bound - slack, axis=1)
        open_[panels[done]] = False
        start = stop
    for p in range(P):
        for name, stat in (("weak", B), ("step-down", T)):
            if name not in rules:
                continue
            seen = ~np.isnan(stat[p])
            row = stat[p, seen]
            out[p][name] = Verdict(
                lo=_prefix_count(row >= bound + slack),
                hi=_prefix_count(row >= bound - slack),
                score=x[p],
            )


def _column_sums(gamma, x_sorted, cols: list[np.ndarray]) -> list[np.ndarray]:
    """S at the given ranks of each panel: one padded batch over panels."""
    K = max((c.size for c in cols), default=0)
    if K == 0:
        return [np.empty(0) for _ in cols]
    has = np.array([c.size > 0 for c in cols])
    pad = np.zeros((len(cols), K), dtype=np.intp)
    for p, c in enumerate(cols):
        if c.size:
            pad[p, : c.size] = c
            pad[p, c.size:] = c[0]
    eta, _ = sizes_at(gamma[has], _take_rows(x_sorted[has], pad[has]))
    sums = iter(eta.sum(axis=1))
    return [next(sums)[: c.size] if c.size else np.empty(0) for c in cols]


def _step_up(gamma, s, x, order, x_sorted, level, out):
    """Two rounds: S at up to STEP_UP_PROBES evenly spaced candidates, then
    at every candidate that the probes leave open.  Since S never
    decreases along the ranks, S(m') > q m for some m' <= m rules m out,
    and a passing probe rules out every smaller candidate."""
    P, M = s.shape
    line = level * np.arange(1, M + 1)
    strict, loose = line * (1.0 - REL_TOL), line * (1.0 + REL_TOL)
    lower = np.cumsum(_take_rows(s, order), axis=1)
    cands = [np.flatnonzero(lower[p] <= loose) for p in range(P)]
    probes = [c[np.unique(np.linspace(0, c.size - 1, STEP_UP_PROBES).astype(int))]
              if c.size else c for c in cands]
    S = np.full((P, M), np.inf)
    for p, vals in enumerate(_column_sums(gamma, x_sorted, probes)):
        S[p, probes[p]] = vals
    rest = []
    for p in range(P):
        passed = np.flatnonzero(S[p] <= strict)
        floor = passed[-1] if passed.size else -1
        # Running max of S over evaluated ranks so far bounds S from below.
        running = np.maximum.accumulate(np.where(np.isinf(S[p]), -np.inf, S[p]))
        open_ = cands[p][(cands[p] > floor) & (running[cands[p]] <= loose[cands[p]])]
        rest.append(np.setdiff1d(open_, probes[p]))
    for p, vals in enumerate(_column_sums(gamma, x_sorted, rest)):
        S[p, rest[p]] = vals
    for p in range(P):
        lo = np.flatnonzero(S[p] <= strict)
        hi = np.flatnonzero(S[p] <= loose)
        out[p]["step-up"] = Verdict(
            lo=int(lo[-1]) + 1 if lo.size else 0,
            hi=int(hi[-1]) + 1 if hi.size else 0,
            score=x[p],
        )


def bh(s, q: float) -> Verdict:
    """Benjamini-Hochberg: J = max{m : s_(m) <= q m / M}."""
    s = np.asarray(s, dtype=float)
    M = s.size
    s_sorted = np.sort(s)
    line = q * np.arange(1, M + 1) / M
    lo = np.flatnonzero(s_sorted <= line * (1.0 - REL_TOL))
    hi = np.flatnonzero(s_sorted <= line * (1.0 + REL_TOL))
    return Verdict(
        lo=int(lo[-1]) + 1 if lo.size else 0,
        hi=int(hi[-1]) + 1 if hi.size else 0,
        score=-s,
    )


# The CLI prints every probability to 12 significant digits, so each one
# carries a relative rounding error of at most 5e-13.  The tolerances below
# allow ten times that, propagated through each property, plus the
# solver's own stopping tolerance of 1e-13 on the budget gap.
PRINT_REL = 5e-12
SOLVER_TOL = 1e-12


# ---------------------------------------------------------------------------
# Budget-scale p-values
# ---------------------------------------------------------------------------

def budget_pvalues(gamma, s, cols) -> tuple[np.ndarray, np.ndarray]:
    """(W, L) of the hypotheses ``cols``: L_m = sum_j log(1 - eta_j(d_m))
    and W_m = 1 - exp(L_m), the smallest weak-FWER budget that rejects m."""
    gamma = np.asarray(gamma, dtype=float)
    x = log_d(gamma, s)[np.asarray(cols, dtype=np.intp)]
    _, log1m = sizes_at(gamma, x)
    L = log1m.sum(axis=0)
    return -np.expm1(L), L


def check_w(gamma, s, w, cols) -> list[str]:
    """Problems found in a printed W column (empty when it is right): W
    must lie in [0, 1], must not increase with log d, and must equal the
    reference at the hypotheses ``cols``.  Each log(1 - eta) is known to a
    relative 1e-9, so L to a relative 1e-9 and W to exp(L) times that."""
    w = np.asarray(w, dtype=float)
    problems = []
    if not np.all((w >= 0.0) & (w <= 1.0)):
        return ["W outside [0, 1]"]
    ws = w[np.argsort(-log_d(gamma, s), kind="stable")]
    drop = ws[:-1] - ws[1:]
    if np.any(drop > REL_TOL * ws[:-1] + 1e-15):
        problems.append(f"W decreases by up to {drop.max():.3g} as log d falls")
    w_ref, L = budget_pvalues(gamma, s, cols)
    tol = PRINT_REL * w_ref + REL_TOL * np.exp(L) * np.abs(L) + 1e-15
    off = np.abs(w[cols] - w_ref) - tol
    if not np.all(off <= 0.0):
        j = int(np.argmax(np.where(np.isnan(off), np.inf, off)))
        problems.append(f"W of hypothesis {cols[j]} is {w[cols[j]]!r}, want {w_ref[j]:.12g}")
    return problems


# ---------------------------------------------------------------------------
# Allocation properties
# ---------------------------------------------------------------------------


def check_allocation(gamma, eta, alpha: float, lagrange: float,
                     efficiency: float) -> list[str]:
    """Problems found in a printed optimal allocation (empty when it is
    right): the budget, the common marginal value across interior
    coordinates, and the efficiency against Sidak."""
    gamma = np.asarray(gamma, dtype=float)
    eta = np.asarray(eta, dtype=float)
    M = eta.size
    problems = []
    if np.any(eta < 0.0) or np.any(eta >= 1.0):
        problems.append("sizes outside [0, 1)")
        return problems

    log1m = np.log1p(-eta)
    target = math.log1p(-alpha)
    budget_tol = PRINT_REL * float(np.abs(log1m).sum()) + SOLVER_TOL
    if abs(log1m.sum() - target) > budget_tol:
        problems.append(f"budget sum log(1-eta) = {log1m.sum():.15g}, want {target:.15g}")

    # rho'(eta)(1 - eta) in log form; its sensitivity to a relative error
    # in eta is gamma*eta/phi(v) + eta/(1-eta).
    interior = (eta > 0.0) & (-ndtri(eta) < V_HI)
    v = -ndtri(eta[interior])
    g = gamma[interior]
    log_g = log_ndtr(v) + g * v - 0.5 * g * g
    phi = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    sens = g * eta[interior] / phi + eta[interior] / (1.0 - eta[interior])
    tol = PRINT_REL * (sens + 1.0) + 1e-12
    log_mult = math.log(lagrange)
    worst = np.abs(log_g - log_mult) - tol
    if worst.size and worst.max() > 0.0:
        j = int(np.argmax(worst))
        problems.append(
            f"marginal value differs from the multiplier: log g = {log_g[j]:.15g}, "
            f"log d = {log_mult:.15g}"
        )

    sidak = -math.expm1(target / M)
    with np.errstate(divide="ignore"):
        power = ndtr(gamma + ndtri(eta)).sum()
    power_sidak = ndtr(gamma + ndtri(sidak)).sum()
    ratio = 100.0 * power / power_sidak
    if ratio < 100.0 * (1.0 - PRINT_REL * M):
        problems.append(f"efficiency against Sidak {ratio:.12g}% is below 100%")
    if abs(ratio - efficiency) > 1e-9 * ratio:
        problems.append(f"printed efficiency {efficiency!r} differs from {ratio:.12g}")
    return problems
