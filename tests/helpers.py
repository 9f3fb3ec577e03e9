"""Small shared test oracles."""

import csv
import json
import math
import sys
from types import SimpleNamespace
from typing import Callable

import numpy as np
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from poweralloc import RocModel, allocate, procedures, sim
from poweralloc.allocate import (
    EPS,
    INNER_TOL,
    LOG_PHI_FLUSH,
    LOG_SQRT_2PI,
    OUTER_TOL,
    V_HI,
    V_LO,
    AllocationError,
    _log_marginal_value,
    _size_profile,
)
from poweralloc.numerics import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Bracket,
    ConvergenceError,
    RootResult,
)


# A p-value or budget in [0, 1], with its two ends drawn exactly.
UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def recording_scratches(monkeypatch) -> list:
    """Make every scratch that ``allocate`` or ``procedures`` creates
    record the arrays it hands out; returns the list they go into."""
    taken = []

    class Recording(allocate._Scratch):
        __slots__ = ()

        def take(self, *args, **kwargs):
            taken.append(super().take(*args, **kwargs))
            return taken[-1]

    for module in (allocate, procedures):
        monkeypatch.setattr(module, "_Scratch", Recording)
    return taken


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


def newton_tolerance(v, log_phi):
    """The gap in log Phi allowed between a solve and the Newton reference
    at (v, log_phi).  Either solve may stop on a bracket 1e-15 max(1, |v|)
    wide, across which log Phi moves by about 1e-15 v^2 of itself: more
    than 1e-13 of itself far in the upper tail."""
    width = 2e-15 * np.maximum(1.0, np.abs(v))
    return 2.5e-13 * np.abs(log_phi) + np.abs(log_ndtr(v + width) - log_phi) + LOG_PHI_FLUSH


# The multiplier solve and root finder that the warm-started solve of the
# log budget ratio replaced, kept as their differential reference: the
# solve brackets the budget gap at the two Sidak ends, evaluates both, and
# finds the root with a forced first bisection and a guard that halves the
# bracket at least once every three steps.
def reference_find_root(
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


def _reference_constraint_gap(gammas, counts, log_d: float, target: float) -> tuple[float, float]:
    """The budget gap sum_m counts_m log(1 - eta_m(d)) - target at log d,
    and its derivative in log d, from one size profile."""
    v, log1m = _size_profile(gammas, log_d)
    # d(sum log(1-eta)) / d(log d) = sum r/(r+gamma), r = phi(v)/Phi(v).
    # Corner coordinates (r and gamma both ~0) contribute nothing.
    r = np.exp(-0.5 * v * v - LOG_SQRT_2PI - log1m)
    with np.errstate(invalid="ignore"):
        ratio = r / (r + gammas)
    slope = float(counts @ np.where(np.isnan(ratio), 0.0, ratio))
    return float(counts @ log1m) - target, slope


def reference_solve_multiplier(gammas: np.ndarray, counts: np.ndarray, alpha: float) -> float:
    """Root of sum_m counts_m log(1 - eta_m(d)) = log(1 - alpha) in log d.

    The gap is monotone increasing in log d.  Every g_m is nonincreasing,
    so at log d = min_m log g_m(eta_S) each size is at least the Sidak size
    eta_S (gap <= 0), and at max_m log g_m(eta_S) at most eta_S (gap >= 0).
    An end whose gap rounds to the wrong sign is itself the root.  Below 1,
    both the gap and log d are measured in units of the budget
    |log(1 - alpha)| (floored where the scaled gap would overflow), and
    the tolerance shrinks below that floor, so that it is OUTER_TOL relative
    for small budgets and absolute for large ones.
    """
    target = math.log1p(-alpha)
    log1m_s = target / counts.sum()
    if log1m_s == 0.0:  # a budget this small gives every test size 0
        return math.inf
    # log g_m(eta_S) from log(1 - eta_S), so that eta_S near 1 keeps its
    # precision: log Phi(v_S) = log(1 - eta_S) at v_S = Phi^{-1}(1 - eta_S).
    log_g = log1m_s + gammas * float(ndtri_exp(log1m_s)) - 0.5 * gammas * gammas
    scale = min(1.0, max(-target, 1e-200))
    # Below the scale's floor the gap is no longer in units of the budget,
    # so the tolerance shrinks with it to stay relative to |log(1 - alpha)|.
    tol = OUTER_TOL * min(1.0, -target / scale)
    lo, hi = float(log_g.min()) / scale, float(log_g.max()) / scale
    evaluated: dict[float, tuple[float, float]] = {}

    def gap(t: float) -> float:  # t = log d / scale
        value, slope = _reference_constraint_gap(gammas, counts, t * scale, target)
        evaluated[t] = (value / scale, slope)
        return evaluated[t][0]

    if lo == hi or gap(lo) >= 0.0:
        root = lo
    elif gap(hi) <= 0.0:
        root = hi
    else:
        # The root finder takes Newton steps only from points it has
        # already evaluated, so each slope comes with its gap.  Its
        # stagnation guard halves the bracket at least once every three
        # steps, so this many steps narrow any bracket to tol, however
        # flat the gap is on the side the Newton steps come from.
        bracket = Bracket(lo, hi, evaluated[lo][0], evaluated[hi][0])
        halvings = max(0, math.ceil(math.log2(hi - lo) - math.log2(tol)))
        root = reference_find_root(
            gap,
            bracket,
            tol=tol,
            max_iter=3 * halvings + 4,
            df=lambda t: evaluated[t][1],
        ).root
    # The Sidak multiplier of an exchangeable panel still carries the
    # rounding of the inner solves, and a bracket that narrows below
    # tol can stop with a gap of slope * tol: one Newton step from the last
    # point removes either.
    if root not in evaluated:
        gap(root)
    value, slope = evaluated[root]
    if abs(value) > tol and slope > 0.0:
        root -= value / slope
    return root * scale


# The per-record output of the ``allocate`` and ``decide`` commands that the
# columnar, chunked writers in ``cli`` replaced, kept as their differential
# reference.  Same arguments as ``cli._print_allocation`` and
# ``cli._print_decision``; writes to sys.stdout.
_ALPHA_PROCEDURES = ("weak-fwer-opt", "bonferroni")


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x) + 0.0  # -0.0 + 0.0 is 0.0
    if math.isnan(x):
        return ""
    return f"{x:.12g}"


def _jnum(x):
    if x is None:
        return None
    x = float(x) + 0.0
    if math.isnan(x):
        return None
    return float(f"{x:.12g}")


def _write_csv(stream, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def reference_print_allocation(out, alpha, method, ids, gammas, clusters, allocation,
                               efficiency):
    M = len(ids)
    sizes = allocation.sizes
    summary = {
        "alpha": alpha,
        "method": method,
        "M": M,
        "lagrange": _jnum(allocation.lagrange),
        "constraint_residual": _jnum(allocation.constraint_residual),
        "stationarity_residual": _jnum(allocation.stationarity_residual),
        "efficiency_vs_sidak": _jnum(efficiency),
    }
    if out == "json":
        doc = {
            "schema_version": "2",
            "command": "allocate",
            **summary,
            "records": [
                {
                    "id": ids[i],
                    **({"gamma": _jnum(gammas[i])} if gammas is not None else {}),
                    **({"cluster": clusters[i]} if clusters else {}),
                    "eta": _jnum(sizes[i]),
                }
                for i in range(M)
            ],
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        header = ["id", "gamma", "eta", "alpha", "method", "lagrange",
                  "constraint_residual", "stationarity_residual", "efficiency_vs_sidak"]
        if clusters:
            header.insert(2, "cluster")
        rows_out = []
        for i in range(M):
            row = [ids[i], _fmt(gammas[i]) if gammas is not None else "", _fmt(sizes[i]),
                   _fmt(alpha), method, _fmt(summary["lagrange"]),
                   _fmt(summary["constraint_residual"]),
                   _fmt(summary["stationarity_residual"]),
                   _fmt(summary["efficiency_vs_sidak"])]
            if clusters:
                row.insert(2, clusters[i])
            rows_out.append(row)
        _write_csv(sys.stdout, header, rows_out)


def reference_print_decision(out, trace, procedure, budget, ids, pvalues, gammas, w,
                             condition, decision):
    if out == "json":
        doc = {
            "schema_version": "2",
            "command": "decide",
            "procedure": procedure,
            ("alpha" if procedure in _ALPHA_PROCEDURES else "q"): budget,
            "cutoff_index": decision.cutoff_index,
            "alpha_threshold": _jnum(decision.alpha_threshold),
            "records": [
                {
                    "id": ids[i],
                    "pvalue": _jnum(pvalues[i]),
                    **({"gamma": _jnum(gammas[i])} if gammas is not None else {}),
                    **({"w": _jnum(w[i])} if w is not None else {}),
                    "reject": int(decision.reject[i]),
                }
                for i in range(len(ids))
            ],
        }
        if condition is not None:
            doc["size_condition"] = {
                "satisfied": condition.satisfied,
                "worst_alpha": _jnum(condition.worst_alpha),
                "worst_ratio": _jnum(condition.worst_ratio),
            }
        if trace and decision.trace is not None:
            doc["trace"] = {
                "order_stats": [_jnum(x) for x in decision.trace.order_stats],
                "survival_product": [_jnum(x) for x in decision.trace.survival_product],
                "size_sum": [_jnum(x) for x in decision.trace.size_sum],
                "threshold": [_jnum(x) for x in decision.trace.threshold],
            }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        header = ["id", "pvalue", "gamma", "w", "reject", "procedure", "budget",
                  "cutoff_index", "alpha_threshold"]
        rows_out = [
            [ids[i], _fmt(pvalues[i]),
             _fmt(gammas[i]) if gammas is not None else "",
             _fmt(w[i]) if w is not None else "",
             int(decision.reject[i]), procedure, _fmt(budget),
             decision.cutoff_index, _fmt(decision.alpha_threshold)]
            for i in range(len(ids))
        ]
        if condition is not None:
            header += ["size_condition_ok", "size_condition_worst_ratio"]
            for row in rows_out:
                row += [int(condition.satisfied), _fmt(condition.worst_ratio)]
        _write_csv(sys.stdout, header, rows_out)


# The O(M^2) differential reference of the stepwise model rules and of W:
# the whole (M, M) panel solved cold in one call, scanned in descending
# log d with ties by index.
def reference_stepwise(gammas, s, q: float) -> SimpleNamespace:
    """Every column of the panel of ``gammas`` at p-values ``s``, with the
    step-up and step-down statistics and cutoffs at level ``q``.

    Column m sizes every hypothesis at d_m.  ``w[m]`` is hypothesis m's
    W and ``size_max[m]`` the largest size of column m, and the rest are by
    scan step k: the sum of log(1 - eta_j(d_(k))) over every j, which gives
    W, S(k) = sum_j eta_j(d_(k)), the step-down log product T(k) = sum of
    log(1 - eta_j(d_(k))) over the hypotheses j ranked k or later, all
    summed in input order, and the cutoffs J = max{m : S(m) <= q m}
    (step-up) and j = the first failing step T(k) < log(1 - q) (step-down).
    """
    gammas, s = np.asarray(gammas, dtype=float), np.asarray(s, dtype=float)
    log_d = _log_marginal_value(gammas, s)
    order = np.argsort(-log_d, kind="stable")
    M = s.size
    rank = np.empty(M, dtype=np.intp)
    rank[order] = np.arange(M)
    _, log1m = _size_profile(gammas, log_d)
    log_sums = log1m.sum(axis=0)
    w = 0.0 - np.expm1(log_sums)  # W = 0.0, not -0.0, at a p-value of 0
    eta = -np.expm1(log1m)
    size_sums = eta.sum(axis=0)[order]
    log_products = np.where(rank[:, None] >= rank, log1m, 0.0).sum(axis=0)[order]
    line = q * np.arange(1, M + 1)
    passing = np.flatnonzero(size_sums <= line)
    bound = math.log1p(-q) if q < 1.0 else -math.inf
    failing = np.flatnonzero(log_products < bound)
    return SimpleNamespace(
        order=order, w=w, w_by_step=w[order], size_max=eta.max(axis=0),
        log_sums=log_sums[order], size_sums=size_sums, line=line,
        log_products=log_products, bound=bound,
        step_up=int(passing[-1]) + 1 if passing.size else 0,
        step_down=int(failing[0]) if failing.size else M,
    )


def pass_stop(gammas, s) -> int:
    """The solved prefix of a pass at M <= 128, from the reference: the
    end of the first block of ``procedures.PASS_BLOCK`` scan columns whose
    last column's sum of log(1 - eta) is below ``procedures.SATURATED``,
    or M when there is none."""
    log_sums = reference_stepwise(gammas, s, 0.0).log_sums
    M = log_sums.size
    ends = np.minimum(np.arange(procedures.PASS_BLOCK, M + procedures.PASS_BLOCK,
                                procedures.PASS_BLOCK), M)
    stops = ends[log_sums[ends - 1] < procedures.SATURATED]
    return int(stops[0]) if stops.size else M


# The p-value-only stepwise baselines as they were before the rules shared
# one scan, kept as differential references.  Their results are plain
# records with the fields of ``procedures.Decision`` and
# ``ProcedureTrace``.
Decision = ProcedureTrace = SimpleNamespace


def _validate(s, q: float) -> tuple[np.ndarray, float]:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need a nonempty 1-d p-value sequence")
    if not np.all(np.isfinite(s)) or np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    return s, q


def _prefix_decision(order: np.ndarray, j: int) -> np.ndarray:
    reject = np.zeros(order.size, dtype=bool)
    if j > 0:
        reject[order[:j]] = True
    return reject


def reference_decide_bh(s, qstar: float) -> Decision:
    """Benjamini-Hochberg step-up on raw p-values: reject the J smallest
    with J = max{m : S_(m) <= qstar * m / M}."""
    s, qstar = _validate(s, qstar)
    M = s.size
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    bounds = qstar * np.arange(1, M + 1) / M
    passing = np.nonzero(s_sorted <= bounds)[0]
    j = int(passing[-1]) + 1 if passing.size else 0
    trace = ProcedureTrace(
        order_stats=s_sorted,
        survival_product=np.full(M, np.nan),
        size_sum=M * s_sorted,
        threshold=qstar * np.arange(1, M + 1),
    )
    return Decision(
        reject=_prefix_decision(order, j),
        cutoff_index=j,
        alpha_threshold=float(s_sorted[j - 1]) if j > 0 else 0.0,
        trace=trace,
    )


def reference_decide_stepdown_sidak(s, qstar: float) -> Decision:
    """Step-down Sidak on raw p-values: step i requires
    S_(i) <= 1 - (1 - qstar)^(1/(M - i + 1)); rejects the longest passing
    prefix."""
    s, qstar = _validate(s, qstar)
    M = s.size
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    thresholds = -np.expm1(np.log1p(-qstar) / (M - np.arange(M))) if qstar < 1.0 else np.ones(M)
    passing = s_sorted <= thresholds
    j = int(np.argmin(passing)) if not passing.all() else M
    trace = ProcedureTrace(
        order_stats=s_sorted,
        survival_product=np.exp((M - np.arange(M)) * np.log1p(-np.minimum(s_sorted, 1.0 - 1e-300))),
        size_sum=np.full(M, np.nan),
        threshold=thresholds,
    )
    return Decision(
        reject=_prefix_decision(order, j),
        cutoff_index=j,
        alpha_threshold=float(s_sorted[j - 1]) if j > 0 else 0.0,
        trace=trace,
    )


def reference_run_cell(config) -> tuple:
    """The per-replicate cell that the stacked ``sim.run_cell`` replaced,
    kept as its differential reference: each replicate's panel is decided
    by each rule on its own, with no stack open, so every solve is that
    panel's alone.  Returns the CellResult and the (reps, M) rejection
    matrix of each procedure."""
    reps = config.reps
    tags = config.procedures
    theta = np.empty((reps, config.M), dtype=np.int8)
    rejects = {tag: np.empty((reps, config.M), dtype=bool) for tag in tags}
    for rep in range(reps):
        panel = sim.generate_panel(config, rep)
        theta[rep] = panel.theta.theta
        model = RocModel.from_gammas(panel.xi)
        for tag in tags:
            rejects[tag][rep] = sim.decide(tag, model, panel.s, config.qstar).reject
    replicates = {tag: sim._replicate_table(rejects[tag], theta) for tag in tags}
    estimates = {tag: sim._estimates(replicates[tag], reps) for tag in tags}
    return sim.CellResult(config=config, estimates=estimates, replicates=replicates), rejects
