"""Small shared test oracles."""

import csv
import json
import math
import sys

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
                             decision):
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
        if decision.size_condition is not None:
            doc["size_condition"] = {
                "satisfied": decision.size_condition.satisfied,
                "worst_alpha": _jnum(decision.size_condition.worst_alpha),
                "worst_ratio": _jnum(decision.size_condition.worst_ratio),
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
        if decision.size_condition is not None:
            header += ["size_condition_ok", "size_condition_worst_ratio"]
            for row in rows_out:
                row += [int(decision.size_condition.satisfied),
                        _fmt(decision.size_condition.worst_ratio)]
        _write_csv(sys.stdout, header, rows_out)
