"""Command-line front end.

Three subcommands:

* ``allocate`` - size vectors from a budget and effect sizes (or just M
  for the closed-form baselines), with solver diagnostics and efficiency
  relative to the Sidak allocation.
* ``decide``   - run a procedure over a CSV of p-values; the model-based
  procedures also print each hypothesis's budget-scale p-value ``w``.
* ``simulate`` - seeded Monte Carlo grid, written as a tidy CSV.

I/O conventions: CSV inputs need a header row and are addressed by column
name (``id``, ``gamma``, ``pvalue``, ``cluster``).  They are read by
column: each needed column becomes one list of fields, parsed into floats
in one pass and validated with numpy, and an error names the first bad
row by its physical line in the file (blank lines and the extra lines of a
quoted multi-line field count).  Outputs are UTF-8 with '.' decimals and
probabilities printed to 12 significant digits; JSON reports carry
schema_version "2".  The per-hypothesis records of ``allocate`` and
``decide`` are written RECORD_CHUNK at a time, a JSON chunk by one ``%``
that formats its floats in the records' templates; values the same on
every CSV row are formatted once.  Exit codes: 0 success, 2 on
usage/validation problems, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .allocate import AllocationError, bonferroni_sizes, optimal_sizes, sidak_sizes
from .model import RocModel
from .numerics import BracketingError, ConvergenceError
from .procedures import _size_condition, generalized_pvalues
from .sim import (PROCEDURE_TAGS, _CATALOGUE, _DEFAULT_PROCEDURES, _integral, _power_vs_sidak,
                  _real, decide, run_table)

SCHEMA_VERSION = "2"


def _fmt(x) -> str:
    x = math.nan if x is None else float(x) + 0.0  # -0.0 + 0.0 is 0.0
    return "" if x != x else f"{x:.12g}"


def _jnum(x):
    text = _fmt(x)
    return float(text) if text else None


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def _rows(reader, path: str):
    """The rows of a ``csv.reader``, with a malformed record, such as one
    with a field longer than ``csv.field_size_limit()``, refused by line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_columns(path: str, need: tuple[str, ...], also: tuple[str, ...] = ()):
    """The columns ``need`` (all required) and those of ``also`` that the
    header names, each a list of stripped fields with None where a short
    row has no such field, and each record's physical line number.

    Header names are stripped; a name that occurs twice resolves to the
    field ``csv.DictReader`` would give.  Blank rows are skipped and extra
    fields ignored.  A leading UTF-8 byte-order mark, as Excel writes, is
    dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty input, a header row is required")
        names = [n.strip() for n in header]
        missing = [col for col in need if col not in names]
        if missing:
            raise ValueError(f"{path}: missing required column(s) {missing}; found {names}")
        # As csv.DictReader: a repeated name takes its last field, and of
        # different names that strip alike, the one first seen last wins.
        index = {raw.strip(): len(header) - 1 - header[::-1].index(raw)
                 for raw in dict.fromkeys(header)}
        columns = {name: (index[name], []) for name in need + also if name in index}
        lines = []
        for row in rows:
            if row:
                lines.append(reader.line_num)
                for i, column in columns.values():
                    column.append(row[i].strip() if i < len(row) else None)
    if not lines:
        raise ValueError(f"{path}: no data rows")
    return {name: column for name, (_, column) in columns.items()}, lines


def _present(values: list, name: str, lines: list[int]) -> list:
    if None in values:
        raise ValueError(f"line {lines[values.index(None)]}: field {name!r} is missing")
    return values


def _floats(values: list, name: str, lines: list[int], ok, complaint) -> np.ndarray:
    """The column as floats.  The first row that is missing, not a
    number, or fails ``ok`` raises ValueError naming its line, with
    ``complaint(x)`` for the last kind."""
    bad = len(values)
    try:
        x = np.fromiter(map(float, values), float, bad)
    except (TypeError, ValueError):
        for bad, v in enumerate(values):
            try:
                float(v)
            except (TypeError, ValueError):
                break
        x = np.fromiter(map(float, values[:bad]), float, bad)
    wrong = np.flatnonzero(~ok(x))
    if wrong.size:
        i = int(wrong[0])
        raise ValueError(f"line {lines[i]}: {complaint(float(x[i]))}")
    if bad < len(values):
        _present(values[:bad + 1], name, lines)
        raise ValueError(f"line {lines[bad]}: {name} {values[bad]!r} is not a number")
    return x


def _gammas(values, lines) -> np.ndarray:
    return _floats(values, "gamma", lines, lambda g: np.isfinite(g) & (g >= 0.0),
                   lambda g: f"gamma must be finite and >= 0, got {g}")


def _pvalues(values, lines) -> np.ndarray:
    return _floats(values, "pvalue", lines, lambda x: (x >= 0.0) & (x <= 1.0),
                   lambda x: f"pvalue {x} outside [0, 1]")


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

# Records formatted and written per chunk: one write call each, and only
# one chunk's text alive at a time.
RECORD_CHUNK = 4096
# Where the records go in a JSON document: no other value can hold a NUL.
_RECORDS = "\0records"
# A float cell's formats in a record template (see ``_formats``).
_FORMATS = ("%.12g", "%.12g.0", "%s")


def _formats(x: np.ndarray) -> np.ndarray:
    """Per element of ``x`` (no -0.0), the index in ``_FORMATS`` of a
    format that prints ``json.dumps(_jnum(v))``, the repr of the float of
    its ``.12g`` text.  Where a double's spacing is below 1e-12 relative,
    repr keeps those digits, adds ".0" to an integer and drops the exponent
    of 1e12 <= |v| < 1e16; those, subnormals, non-finite values and
    non-integers within 1e-11 of one take the definition."""
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        off = np.abs(x - np.rint(x))
    text = ~np.isfinite(a) | ((a >= 9e11) & (a < 2e16)) | ((a > 0.0) & (a < 3e-308))
    text |= (off > 0.0) & (off <= 1e-11 * a)
    return np.where(text, 2, (off == 0.0) & (a < 9e11))


def _write_json(stream, doc: dict) -> None:
    """``json.dump(doc, stream, indent=2)`` and a newline, where
    ``doc["records"]`` maps each record field to a column (as in
    ``_write_csv``) and stands for the list of per-row records.  A chunk
    is one ``%`` over its records' templates (see ``_formats``)."""
    head, tail = json.dumps({**doc, "records": _RECORDS}, indent=2).split(
        json.dumps(_RECORDS))
    keys, columns = zip(*doc["records"].items())
    n, width = len(columns[0]), len(columns)
    choices = [("%s",) if isinstance(col, list) else _FORMATS if col.dtype.kind == "f"
               else ("%d",) for col in columns]
    variants = ["    {\n" + ",\n".join(f"      {json.dumps(k)}: {f}" for k, f in zip(keys, specs))
                + "\n    }" for specs in itertools.product(*choices)]
    text = head + "[\n"
    for lo in range(0, n, RECORD_CHUNK):
        hi = min(n, lo + RECORD_CHUNK)
        cells = [None] * ((hi - lo) * width)
        variant = np.zeros(hi - lo, dtype=np.intp)
        for j, col in enumerate(columns):
            col = col[lo:hi]
            if isinstance(col, list):
                cells[j::width] = map(encode_basestring_ascii, col)
            elif col.dtype.kind != "f":
                cells[j::width] = col.tolist()
            else:
                col = col + 0.0  # -0.0 + 0.0 is 0.0
                cells[j::width] = values = col.tolist()
                chosen = _formats(col)
                for i in np.flatnonzero(chosen == 2).tolist():
                    cells[j + i * width] = json.dumps(_jnum(values[i]))
                variant = 3 * variant + chosen
        records = ",\n".join(map(variants.__getitem__, variant.tolist()))
        stream.write(text + records % tuple(cells))
        text = ",\n"
    stream.write(f"\n  ]{tail}\n" if n else f"{head}[]{tail}\n")


def _csv_row(fields: list) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(fields)
    return buffer.getvalue()


# The characters that make ``csv.writer`` quote a field: the delimiter,
# the quote and the line terminator, and on some Python versions "\r".
_CSV_QUOTED = "".join(c for c in ',"\r\n' if _csv_row([c, ""]).startswith('"'))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of two or more
    fields."""
    if any(c in text for c in _CSV_QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(stream, columns: dict) -> None:
    """A header row of the keys of ``columns``, then one row per record,
    as ``csv.writer`` writes them; there are two or more columns.  A
    ``str`` column is the same on every row, and is quoted once into the
    row template that one ``%`` fills for each chunk of RECORD_CHUNK rows.
    A list column holds text, a float array numbers (``_fmt``) and a bool
    or int array integers."""
    varying = [col for col in columns.values() if not isinstance(col, str)]
    n, width = len(varying[0]), len(varying)
    stream.write(",".join(map(_csv_field, columns)) + "\n")
    for lo in range(0, n, RECORD_CHUNK):
        hi = min(n, lo + RECORD_CHUNK)
        cells, specs = [None] * ((hi - lo) * width), []
        for j, col in enumerate(varying):
            col = col[lo:hi]
            if isinstance(col, list):
                text = "".join(col)
                quoted = any(c in text for c in _CSV_QUOTED)
                cells[j::width], spec = map(_csv_field, col) if quoted else col, "%s"
            elif col.dtype.kind != "f":
                cells[j::width], spec = col.astype(np.int64).tolist(), "%d"
            elif np.isnan(col).any():  # printed empty
                cells[j::width], spec = [_fmt(v) for v in col.tolist()], "%s"
            else:
                cells[j::width], spec = (col + 0.0).tolist(), "%.12g"  # -0.0 + 0.0 is 0.0
            specs.append(spec)
        specs = iter(specs)
        row = ",".join(next(specs) if not isinstance(col, str)
                       else _csv_field(col).replace("%", "%%") for col in columns.values())
        stream.write((row + "\n") * (hi - lo) % tuple(cells))


# ---------------------------------------------------------------------------
# allocate
# ---------------------------------------------------------------------------

def _cmd_allocate(args) -> int:
    alpha = args.alpha
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"--alpha must lie in [0, 1), got {alpha}")
    if args.method == "clustered" and not args.input:
        raise ValueError("--method clustered needs --input with a 'cluster' column")
    if args.input and (args.M is not None or args.gamma_const is not None):
        raise ValueError("--M and --gamma-const cannot be used with --input")

    ids: list[str]
    gammas: np.ndarray | None = None
    clusters: list[str] | None = None
    if args.input:
        need = ("id", "gamma") if args.method in ("optimal", "clustered") else ("id",)
        columns, lines = _read_columns(args.input, need, ("gamma", "cluster"))
        ids = _present(columns["id"], "id", lines)
        if "gamma" in columns:
            gammas = _gammas(columns.pop("gamma"), lines)
        if args.method == "clustered":
            clusters = columns.get("cluster")
            if clusters is None or not all(clusters):
                raise ValueError("--method clustered needs a 'cluster' column on every row")
    elif args.M is not None:
        if args.M < 1:
            raise ValueError(f"--M must be a positive integer, got {args.M}")
        ids = [f"h{i + 1}" for i in range(args.M)]
        if args.gamma_const is not None:
            if not (math.isfinite(args.gamma_const) and args.gamma_const >= 0.0):
                raise ValueError(f"--gamma-const must be finite and >= 0, got {args.gamma_const}")
            gammas = np.full(args.M, args.gamma_const)
    else:
        raise ValueError("provide --input or --M")

    M = len(ids)
    method = args.method
    if method == "clustered":
        # A cluster label promises one shared effect size; optimal_sizes
        # already solves once per distinct gamma.
        shared: dict[str, float] = {}
        for label, gamma in zip(clusters, gammas):
            if shared.setdefault(label, gamma) != gamma:
                raise ValueError(f"cluster {label!r} mixes different gammas: "
                                 f"{shared[label]} and {gamma}")
    if method in ("optimal", "clustered"):
        if gammas is None:
            raise ValueError("--method optimal needs per-test gammas "
                             "(gamma column or --gamma-const)")
        allocation = optimal_sizes(RocModel.from_gammas(gammas), alpha)
    elif method == "sidak":
        allocation = sidak_sizes(M, alpha)
    else:  # argparse allows no other method
        allocation = bonferroni_sizes(M, alpha)

    efficiency = None
    if gammas is not None and 0.0 < alpha < 1.0:
        efficiency = _power_vs_sidak(gammas, allocation.sizes, alpha)
    _print_allocation(args.out, alpha, method, ids, gammas, clusters, allocation, efficiency)
    return 0


def _print_allocation(out, alpha, method, ids, gammas, clusters, allocation, efficiency):
    """Write the allocation report to stdout as ``out`` ("json" or "csv")."""
    summary = {
        "alpha": alpha,
        "method": method,
        "M": len(ids),
        "lagrange": _jnum(allocation.lagrange),
        "constraint_residual": _jnum(allocation.constraint_residual),
        "stationarity_residual": _jnum(allocation.stationarity_residual),
        "efficiency_vs_sidak": _jnum(efficiency),
    }
    if out == "json":
        records = {
            "id": ids,
            **({"gamma": gammas} if gammas is not None else {}),
            **({"cluster": clusters} if clusters else {}),
            "eta": allocation.sizes,
        }
        _write_json(sys.stdout, {"schema_version": SCHEMA_VERSION, "command": "allocate",
                                 **summary, "records": records})
    else:
        _write_csv(sys.stdout, {
            "id": ids,
            "gamma": gammas if gammas is not None else "",
            **({"cluster": clusters} if clusters else {}),
            "eta": allocation.sizes,
            "alpha": _fmt(alpha),
            "method": method,
            **{key: _fmt(summary[key]) for key in (
                "lagrange", "constraint_residual", "stationarity_residual",
                "efficiency_vs_sidak")},
        })


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _cmd_decide(args) -> int:
    procedure = args.procedure
    entry = _CATALOGUE[procedure]
    name = entry.budget
    other = "q" if name == "alpha" else "alpha"
    budget = getattr(args, name)
    if budget is None:
        raise ValueError(f"--procedure {procedure} needs --{name}")
    if getattr(args, other) is not None:
        raise ValueError(f"--procedure {procedure} does not read --{other}; "
                         f"give its budget as --{name}")
    if not (0.0 <= budget and (budget < 1.0 if entry.below_one else budget <= 1.0)):
        interval = "[0, 1)" if entry.below_one else "[0, 1]"
        raise ValueError(f"--{name} must lie in {interval}, got {budget}")
    if args.trace and args.out != "json":
        raise ValueError("--trace is only available with --out json")

    columns, lines = _read_columns(args.input, ("id", "pvalue"), ("gamma",))
    ids = _present(columns["id"], "id", lines)
    pvalues = _pvalues(columns.pop("pvalue"), lines)

    model = None
    gammas = None
    if entry.reads_gammas:
        if "gamma" not in columns or not all(columns["gamma"]):
            raise ValueError(
                f"--procedure {procedure} uses the power-optimal allocation and "
                f"needs a 'gamma' column on every input row"
            )
        gammas = _gammas(columns.pop("gamma"), lines)
        model = RocModel.from_gammas(gammas)

    w = condition = None
    if model is not None:
        # Every row's W, for fdr-opt the size condition, and the stepwise
        # rule share one pass over the panel (see ``procedures``).  W
        # needs the pass through the block where W saturates, so asked
        # first it leaves the rule a saturated pass, whose W its trace
        # prints at every step.
        w = generalized_pvalues(model, pvalues)
        if procedure == "fdr-opt":
            condition = _size_condition(model, pvalues)
    decision = decide(procedure, model, pvalues, budget)
    _print_decision(args.out, args.trace, procedure, budget, ids, pvalues, gammas, w,
                    condition, decision)
    return 0


def _print_decision(out, trace, procedure, budget, ids, pvalues, gammas, w, condition,
                    decision):
    """Write the decision report to stdout as ``out`` ("json" or "csv"),
    with the size-condition report when there is one and the scan trace
    when ``trace`` is set and the rule kept one."""
    if out == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "decide",
            "procedure": procedure,
            _CATALOGUE[procedure].budget: budget,
            "cutoff_index": decision.cutoff_index,
            "alpha_threshold": _jnum(decision.alpha_threshold),
            "records": {
                "id": ids,
                "pvalue": pvalues,
                **({"gamma": gammas} if gammas is not None else {}),
                **({"w": w} if w is not None else {}),
                "reject": decision.reject,
            },
        }
        if condition is not None:
            doc["size_condition"] = {
                "satisfied": condition.satisfied,
                "worst_alpha": _jnum(condition.worst_alpha),
                "worst_ratio": _jnum(condition.worst_ratio),
            }
        if trace and decision.trace is not None:
            doc["trace"] = {
                key: [_jnum(x) for x in getattr(decision.trace, key)]
                for key in ("order_stats", "survival_product", "size_sum", "threshold")
            }
        _write_json(sys.stdout, doc)
    else:
        _write_csv(sys.stdout, {
            "id": ids,
            "pvalue": pvalues,
            "gamma": gammas if gammas is not None else "",
            "w": w if w is not None else "",
            "reject": decision.reject,
            "procedure": procedure,
            "budget": _fmt(budget),
            "cutoff_index": str(decision.cutoff_index),
            "alpha_threshold": _fmt(decision.alpha_threshold),
            **({"size_condition_ok": str(int(condition.satisfied)),
                "size_condition_worst_ratio": _fmt(condition.worst_ratio)}
               if condition is not None else {}),
        })


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _grid_axis(values, parse, subject: str) -> list:
    """The values of a grid axis, one or a nonempty list of them."""
    values = [parse(value, subject) for value in np.atleast_1d(values).tolist()]
    if not values:
        raise ValueError(f"{subject} must name at least one value")
    return values


def _cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        spec = json.load(fh)
    for key in ("M", "p", "nu", "qstar"):
        if key not in spec:
            raise ValueError(f"{args.config}: config needs key {key!r}")
    where = f"{args.config}: config key"
    Ms = _grid_axis(spec["M"], _integral, f"{where} 'M'")
    ps = _grid_axis(spec["p"], _real, f"{where} 'p'")
    nus = _grid_axis(spec["nu"], _real, f"{where} 'nu'")
    qstar = _real(spec["qstar"], f"{where} 'qstar'")
    reps = (args.reps if args.reps is not None
            else _integral(spec.get("reps", 1000), f"{where} 'reps'"))
    seed = (args.seed if args.seed is not None
            else _integral(spec.get("seed", 0), f"{where} 'seed'"))
    procedures = spec.get("procedures", list(_DEFAULT_PROCEDURES))
    if not isinstance(procedures, list) or not procedures:
        raise ValueError(f"{where} 'procedures' must be a list of one or more "
                         f"procedure tags, got {procedures!r}")
    procedures = tuple(procedures)
    threads = os.environ.get("POWERALLOC_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"POWERALLOC_THREADS must be a positive integer, got {threads!r}")

    results = run_table(Ms, ps, nus, qstar, reps, seed, procedures, workers=workers)

    header = ["M", "p", "nu", "qstar", "reps", "procedure",
              "fdr", "se_fdr", "mdr_std", "se_mdr", "fwer", "etp", "efp"]
    rows_out = []
    for cell in results:
        cfg = cell.config
        for tag in cfg.procedures:
            est = cell.estimates[tag]
            rows_out.append([
                str(cfg.M), _fmt(cfg.p), _fmt(cfg.nu), _fmt(cfg.qstar), str(cfg.reps), tag,
                _fmt(est.fdr), _fmt(est.se_fdr), _fmt(est.mdr_std), _fmt(est.se_mdr_std),
                _fmt(est.fwer), _fmt(est.etp), _fmt(est.efp),
            ])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, {name: [row[k] for row in rows_out] for k, name in enumerate(header)})
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
    except (AllocationError, ConvergenceError, BracketingError) as exc:
        print(f"poweralloc: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"poweralloc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
