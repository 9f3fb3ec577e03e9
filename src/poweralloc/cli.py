"""Command-line front end.

Three subcommands:

* ``allocate`` - size vectors from a budget and effect sizes (or just M
  for the closed-form baselines), with solver diagnostics and efficiency
  relative to the Sidak allocation.
* ``decide``   - run a procedure over a CSV of p-values; the model-based
  procedures also print each hypothesis's budget-scale p-value ``w``.
* ``simulate`` - seeded Monte Carlo grid, written as a tidy CSV.

I/O conventions: CSV inputs need a header row and are addressed by column
name (``id``, ``gamma``, ``pvalue``, ``cluster``); outputs are UTF-8 with
'.' decimals and probabilities printed to 12 significant digits; JSON
reports carry schema_version "2".  Exit codes: 0 success, 2 on
usage/validation problems, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .allocate import (
    AllocationError,
    ClusterSpec,
    SaturationError,
    SizeAllocation,
    bonferroni_sizes,
    optimal_sizes,
    optimal_sizes_clustered,
    sidak_sizes,
)
from .model import RocModel, roc
from .numerics import BracketingError, ConvergenceError
from .procedures import generalized_pvalues
from .sim import PROCEDURE_TAGS, _decide, run_table

SCHEMA_VERSION = "2"
_MODEL_PROCEDURES = ("weak-fwer-opt", "strong-fwer-opt", "fdr-opt")
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


def _read_records(path: str, need: tuple[str, ...]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty input, a header row is required")
        names = [n.strip() for n in reader.fieldnames]
        missing = [col for col in need if col not in names]
        if missing:
            raise ValueError(f"{path}: missing required column(s) {missing}; found {names}")
        rows = []
        for line, raw in enumerate(reader, start=2):
            rec = {(k.strip() if k else k): (v.strip() if isinstance(v, str) else v)
                   for k, v in raw.items()}
            rec["_line"] = line
            rows.append(rec)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _parse_prob(value: str, what: str, line: int) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"line {line}: {what} {value!r} is not a number") from None
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"line {line}: {what} {x} outside [0, 1]")
    return x


def _parse_gamma(value: str, line: int) -> float:
    try:
        g = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"line {line}: gamma {value!r} is not a number") from None
    if not (math.isfinite(g) and g >= 0.0):
        raise ValueError(f"line {line}: gamma must be finite and >= 0, got {g}")
    return g


def _write_csv(stream, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# allocate
# ---------------------------------------------------------------------------

def _cmd_allocate(args) -> int:
    alpha = args.alpha
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"--alpha must lie in [0, 1), got {alpha}")

    ids: list[str]
    gammas: np.ndarray | None = None
    clusters: list[str] | None = None
    if args.input:
        need = ("id", "gamma") if args.method in ("optimal", "clustered") else ("id",)
        rows = _read_records(args.input, need)
        ids = [r["id"] for r in rows]
        if "gamma" in rows[0]:
            gammas = np.array([_parse_gamma(r["gamma"], r["_line"]) for r in rows])
        if args.method == "clustered":
            if "cluster" not in rows[0] or any(not r.get("cluster") for r in rows):
                raise ValueError("--method clustered needs a 'cluster' column on every row")
            clusters = [r["cluster"] for r in rows]
    elif args.M:
        ids = [f"h{i + 1}" for i in range(args.M)]
        if args.gamma_const is not None:
            gammas = np.full(args.M, _parse_gamma(args.gamma_const, 0))
    else:
        raise ValueError("provide --input or --M")

    M = len(ids)
    method = args.method
    if method == "optimal":
        if gammas is None:
            raise ValueError("--method optimal needs per-test gammas "
                             "(gamma column or --gamma-const)")
        allocation = optimal_sizes(RocModel.from_gammas(gammas), alpha)
    elif method == "sidak":
        allocation = sidak_sizes(M, alpha)
    elif method == "bonferroni":
        allocation = bonferroni_sizes(M, alpha)
    elif method == "clustered":
        labels: list[str] = []
        for c in clusters:
            if c not in labels:
                labels.append(c)
        spec_gammas = []
        counts = []
        for label in labels:
            members = [g for g, c in zip(gammas, clusters) if c == label]
            if len(set(members)) > 1:
                raise ValueError(f"cluster {label!r} mixes different gammas: {sorted(set(members))}")
            spec_gammas.append(members[0])
            counts.append(len(members))
        clustered = optimal_sizes_clustered(
            ClusterSpec(tuple(spec_gammas), tuple(counts)), alpha
        )
        # expand() orders by cluster; rebuild in input row order instead.
        per_size = dict(zip(labels, clustered.cluster_sizes))
        per_log1m = dict(zip(labels, clustered.cluster_log1m))
        allocation = SizeAllocation(
            alpha=alpha,
            sizes=np.array([per_size[c] for c in clusters]),
            log1m_sizes=np.array([per_log1m[c] for c in clusters]),
            lagrange=clustered.lagrange,
            constraint_residual=clustered.constraint_residual,
            stationarity_residual=clustered.stationarity_residual,
            method="clustered",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown method {method!r}")

    sizes = allocation.sizes
    efficiency = None
    if gammas is not None and 0.0 < alpha < 1.0:
        sidak = sidak_sizes(M, alpha).sizes
        efficiency = 100.0 * roc(gammas, sizes).sum() / roc(gammas, sidak).sum()

    summary = {
        "alpha": alpha,
        "method": method,
        "M": M,
        "lagrange": _jnum(allocation.lagrange),
        "constraint_residual": _jnum(allocation.constraint_residual),
        "stationarity_residual": _jnum(allocation.stationarity_residual),
        "efficiency_vs_sidak": _jnum(efficiency),
    }
    if args.out == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
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
    return 0


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _cmd_decide(args) -> int:
    procedure = args.procedure
    if procedure in _ALPHA_PROCEDURES:
        if args.alpha is None:
            raise ValueError(f"--procedure {procedure} needs --alpha")
        budget = args.alpha
    else:
        if args.q is None:
            raise ValueError(f"--procedure {procedure} needs --q")
        budget = args.q
    if not (0.0 <= budget <= 1.0):
        raise ValueError(f"budget must lie in [0, 1], got {budget}")

    rows = _read_records(args.input, ("id", "pvalue"))
    ids = [r["id"] for r in rows]
    pvalues = np.array([_parse_prob(r["pvalue"], "pvalue", r["_line"]) for r in rows])

    model = None
    gammas = None
    if procedure in _MODEL_PROCEDURES:
        if "gamma" not in rows[0] or any(not r.get("gamma") for r in rows):
            raise ValueError(
                f"--procedure {procedure} uses the power-optimal allocation and "
                f"needs a 'gamma' column on every input row"
            )
        gammas = np.array([_parse_gamma(r["gamma"], r["_line"]) for r in rows])
        model = RocModel.from_gammas(gammas)

    decision = _decide(procedure, model, pvalues, budget)
    # The stepwise model rules return the W they ordered by; the weak rule
    # compares sizes directly, so its W takes a panel solve of its own.
    w = generalized_pvalues(model, pvalues).w if procedure == "weak-fwer-opt" else decision.w

    if args.out == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
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
        if args.trace and decision.trace is not None:
            doc["trace"] = {
                "order_stats": [_jnum(x) for x in decision.trace.order_stats],
                "survival_product": [_jnum(x) for x in decision.trace.survival_product],
                "size_sum": [_jnum(x) for x in decision.trace.size_sum],
                "threshold": [_jnum(x) for x in decision.trace.threshold],
            }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        if args.trace:
            raise ValueError("--trace is only available with --out json")
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
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        spec = json.load(fh)
    for key in ("M", "p", "nu", "qstar"):
        if key not in spec:
            raise ValueError(f"{args.config}: config needs key {key!r}")
    Ms = [int(m) for m in np.atleast_1d(spec["M"])]
    ps = [float(p) for p in np.atleast_1d(spec["p"])]
    nus = [float(v) for v in np.atleast_1d(spec["nu"])]
    qstar = float(spec["qstar"])
    reps = int(args.reps if args.reps is not None else spec.get("reps", 1000))
    seed = int(args.seed if args.seed is not None else spec.get("seed", 0))
    procedures = tuple(spec.get("procedures", ["fdr-opt", "bh"]))
    workers = int(os.environ.get("POWERALLOC_THREADS", "1"))

    results = run_table(Ms, ps, nus, qstar, reps, seed, procedures, workers=workers)

    header = ["M", "p", "nu", "qstar", "reps", "procedure",
              "fdr", "se_fdr", "mdr_std", "se_mdr", "fwer", "etp", "efp"]
    rows_out = []
    for cell in results:
        cfg = cell.config
        for tag in cfg.procedures:
            est = cell.estimates[tag]
            rows_out.append([
                cfg.M, _fmt(cfg.p), _fmt(cfg.nu), _fmt(cfg.qstar), cfg.reps, tag,
                _fmt(est.fdr), _fmt(est.se_fdr), _fmt(est.mdr_std), _fmt(est.se_mdr_std),
                _fmt(est.fwer), _fmt(est.etp), _fmt(est.efp),
            ])
    buffer = io.StringIO()
    _write_csv(buffer, header, rows_out)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poweralloc",
        description="Power-aware size allocation and multiple-testing decisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="compute per-test size vectors")
    p_alloc.add_argument("--alpha", type=float, required=True,
                         help="overall weak FWER budget in [0, 1)")
    p_alloc.add_argument("--method", choices=["optimal", "sidak", "bonferroni", "clustered"],
                         default="optimal")
    p_alloc.add_argument("--input", help="CSV with columns id,gamma[,cluster]")
    p_alloc.add_argument("--M", type=int, help="number of tests (instead of --input)")
    p_alloc.add_argument("--gamma-const", type=float,
                         help="common effect size for all M tests")
    p_alloc.add_argument("--out", choices=["json", "csv"], default="json")
    p_alloc.set_defaults(func=_cmd_allocate)

    p_dec = sub.add_parser("decide", help="run a procedure on a p-value file")
    p_dec.add_argument("--procedure", choices=list(PROCEDURE_TAGS), required=True)
    p_dec.add_argument("--q", type=float, help="FDR / strong-FWER budget")
    p_dec.add_argument("--alpha", type=float, help="weak FWER budget")
    p_dec.add_argument("--input", required=True, help="CSV with columns id,pvalue[,gamma]")
    p_dec.add_argument("--trace", action="store_true",
                       help="include the per-step scan trace (json output only)")
    p_dec.add_argument("--out", choices=["json", "csv"], default="json")
    p_dec.set_defaults(func=_cmd_decide)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo grid")
    p_sim.add_argument("--config", required=True, help="JSON grid spec")
    p_sim.add_argument("--reps", type=int, default=None, help="override config reps")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AllocationError, ConvergenceError, BracketingError, SaturationError) as exc:
        print(f"poweralloc: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"poweralloc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
