"""The benchmark's workloads: inputs made from the seed, the timed
operations, and the checks that run after timing.

Every workload does a fixed amount of work for a given ``--seconds``: a
whole number of rounds, sized from a nominal round time measured on a
2-vCPU VM, so each run attempts the same operations in the same mix.  No
operation repeats an input that the process has already seen:
``optimal_sizes`` memoizes on (model, alpha), so a repeat would time a
cache lookup instead of the solve a fresh ``poweralloc`` process does.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

import reference

LEVEL = 0.1            # q for the stepwise rules, alpha for weak FWER
ALLOCATE_ALPHA = 0.05

# What a check makes of an op's output.  KEPT_FAULT is output that is
# wrong in exactly the way of a known fault of the program, and no other.
PASS, KEPT_FAULT, WRONG = "pass", "kept fault", "wrong"


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``check`` judges its output
    afterwards and returns PASS, KEPT_FAULT or WRONG.  ``round`` numbers
    the whole passes over the workload's operation mix."""

    span: str
    hypotheses: int
    run: Callable[[], object]
    check: Callable[[object], str]
    round: int = 0


def paper_panel(rng: np.random.Generator, M: int, p: float = 0.2, nu: float = 2.0):
    """The paper's scenario: theta ~ Bernoulli(p), gamma = |N(nu, 1)|,
    x = gamma*theta + N(0, 1), s = Phi(-x)."""
    theta = rng.random(M) < p
    gamma = np.abs(rng.normal(nu, 1.0, M))
    x = gamma * theta + rng.standard_normal(M)
    return gamma, ndtr(-x)


def _write_csv(path: Path, header: str, columns) -> None:
    rows = zip(*[[repr(float(v)) for v in col] for col in columns])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(f"h{i}," + ",".join(row) + "\n" for i, row in enumerate(rows))


def _cli_op(cli, argv: list[str], out: Path):
    def run():
        with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            return cli.main(argv)
    return run


def _read_json(rc, out: Path):
    if rc != 0:
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# decide_m1000
# ---------------------------------------------------------------------------

DECIDE_M = 1000
DECIDE_ROUND_S = 4.0
DECIDE_PROCEDURES = (
    ("fdr-opt", "--q", "step-up"),
    ("strong-fwer-opt", "--q", "step-down"),
    ("weak-fwer-opt", "--alpha", "weak"),
)


W_SAMPLE = 16          # hypotheses per op whose W is recomputed


def _w_order_prefix(gamma, s, w, reject) -> bool:
    """True when ``reject`` is the first n hypotheses in ascending W, ties
    broken by index: the order of ``procedures._solve_panel``.  W just
    below 1 prints as 1, so within the printed tie at the cut a rejected
    hypothesis may jump the index order when its reference W is below 1."""
    n = int(reject.sum())
    if n == 0:
        return True
    order = np.argsort(w, kind="stable")
    prefix = np.zeros(w.size, dtype=bool)
    prefix[order[:n]] = True
    jumped, passed_over = reject & ~prefix, prefix & ~reject
    if not jumped.any():
        return True
    cut = w[order[n - 1]]
    if np.any(w[jumped] != cut) or np.any(w[passed_over] != cut):
        return False
    w_ref, _ = reference.budget_pvalues(gamma, s, np.flatnonzero(jumped))
    return bool(np.all(w_ref < 1.0))


def _decide_check(gamma, s, rule, out: Path, sample, kept_fault: bool = False):
    """Checks the rejections against the reference rule and the W column
    at ``sample`` and at the deciding step.  With ``kept_fault``, output
    showing the fdr-opt fault (more rejections than the step-up rule
    allows, taken in W order with ties by index) is KEPT_FAULT."""
    def check(rc) -> str:
        doc = _read_json(rc, out)
        if doc is None or len(doc["records"]) != s.size:
            return WRONG
        if any(r["id"] != f"h{i}" for i, r in enumerate(doc["records"])):
            return WRONG
        reject = np.array([r["reject"] for r in doc["records"]], dtype=bool)
        w = np.array([r["w"] for r in doc["records"]], dtype=float)
        n = int(reject.sum())
        if doc["cutoff_index"] != n:
            return WRONG
        by_evidence = np.argsort(-reference.log_d(gamma, s), kind="stable")
        deciding = by_evidence[max(n - 1, 0): n + 1]
        if reference.check_w(gamma, s, w, np.union1d(sample, deciding)):
            return WRONG
        verdict = reference.model_rules(gamma, s, LEVEL, rules=(rule,))[0][rule]
        if verdict.admits(reject):
            return PASS
        if kept_fault and n > verdict.hi and _w_order_prefix(gamma, s, w, reject):
            return KEPT_FAULT
        return WRONG
    return check


def decide_m1000(program, seed: int, seconds: float, work: Path) -> list[Op]:
    rounds = max(1, round(seconds / DECIDE_ROUND_S))
    ops = []
    for k in range(rounds):
        for j, (procedure, flag, rule) in enumerate(DECIDE_PROCEDURES):
            rng = np.random.default_rng([seed, k, j])
            gamma, s = paper_panel(rng, DECIDE_M)
            sample = rng.choice(DECIDE_M, W_SAMPLE, replace=False)
            src, out = work / f"decide-{k}-{j}.csv", work / f"decide-{k}-{j}.json"
            _write_csv(src, "id,pvalue,gamma", (s, gamma))
            argv = ["decide", "--procedure", procedure, flag, str(LEVEL),
                    "--input", str(src), "--out", "json"]
            ops.append(Op(
                span="cli.main",
                hypotheses=DECIDE_M,
                run=_cli_op(program.cli, argv, out),
                check=_decide_check(gamma, s, rule, out, sample,
                                    kept_fault=procedure == "fdr-opt"),
                round=k,
            ))
    return ops


# ---------------------------------------------------------------------------
# simulate_paper
# ---------------------------------------------------------------------------

GRID_M = (20, 50, 100)
GRID_P = (0.1, 0.2, 0.4)
GRID_NU = (1.0, 2.0, 4.0)
SIM_REPS = 10
SIM_PROCEDURES = ("fdr-opt", "bh", "strong-fwer-opt", "weak-fwer-opt")
SIM_PASS_S = 3.3
_SIM_RULES = {"fdr-opt": "step-up", "strong-fwer-opt": "step-down", "weak-fwer-opt": "weak"}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _cell_check(sim, config):
    def agrees(cell) -> bool:
        panels = [sim.generate_panel(config, r) for r in range(config.reps)]
        gamma = np.stack([p.xi for p in panels])
        s = np.stack([p.s for p in panels])
        theta = np.stack([p.theta.theta for p in panels]).astype(bool)
        if not all(np.array_equal(p.s, ndtr(-p.x)) for p in panels):
            return False
        verdicts = reference.model_rules(gamma, s, config.qstar)
        for tag in config.procedures:
            table = cell.replicates[tag]
            for r in range(config.reps):
                fp, tp = int(table.false_positives[r]), int(table.true_positives[r])
                n_alt = int(theta[r].sum())
                verdict = (reference.bh(s[r], config.qstar) if tag == "bh"
                           else verdicts[r][_SIM_RULES[tag]])
                if not verdict.admits_counts(fp, tp, theta[r]):
                    return False
                if table.n_alternatives[r] != n_alt or table.missed[r] != n_alt - tp:
                    return False
                if not _close(table.fdp[r], fp / (fp + tp) if fp + tp else 0.0):
                    return False
            est = cell.estimates[tag]
            if not (_close(est.fdr, table.fdp.mean())
                    and _close(est.mdr_std, table.mdr_std.mean())
                    and _close(est.etp, table.true_positives.mean())
                    and _close(est.efp, table.false_positives.mean())):
                return False
        return True
    return lambda cell: PASS if agrees(cell) else WRONG


def simulate_paper(program, seed: int, seconds: float, work: Path) -> list[Op]:
    sim = program.sim
    passes = max(1, round(seconds / SIM_PASS_S))
    ops = []
    for k in range(passes):
        for M in GRID_M:
            for p in GRID_P:
                for nu in GRID_NU:
                    config = sim.ScenarioConfig(
                        M=M, p=p, nu=nu, qstar=LEVEL, reps=SIM_REPS,
                        seed=(seed << 16) + k, procedures=SIM_PROCEDURES)
                    ops.append(Op(
                        span="sim.run_cell",
                        hypotheses=M * SIM_REPS * len(SIM_PROCEDURES),
                        run=functools.partial(sim.run_cell, config),
                        check=_cell_check(sim, config),
                        round=k,
                    ))
    return ops


# ---------------------------------------------------------------------------
# allocate_m1e5
# ---------------------------------------------------------------------------

ALLOCATE_M = 100_000
ALLOCATE_OP_S = 3.0


def _allocate_check(gamma, out: Path):
    def check(rc) -> str:
        doc = _read_json(rc, out)
        if doc is None or doc["M"] != gamma.size or len(doc["records"]) != gamma.size:
            return WRONG
        eta = np.array([r["eta"] for r in doc["records"]])
        printed = np.array([r["gamma"] for r in doc["records"]])
        if not np.allclose(printed, gamma, rtol=reference.PRINT_REL, atol=0.0):
            return WRONG
        problems = reference.check_allocation(
            gamma, eta, ALLOCATE_ALPHA, doc["lagrange"], doc["efficiency_vs_sidak"])
        return WRONG if problems else PASS
    return check


def allocate_m1e5(program, seed: int, seconds: float, work: Path) -> list[Op]:
    n = max(1, round(seconds / ALLOCATE_OP_S))
    ops = []
    for k in range(n):
        rng = np.random.default_rng([seed, k])
        gamma = np.abs(rng.normal(2.0, 1.0, ALLOCATE_M))
        src, out = work / f"allocate-{k}.csv", work / f"allocate-{k}.json"
        _write_csv(src, "id,gamma", (gamma,))
        argv = ["allocate", "--alpha", str(ALLOCATE_ALPHA), "--input", str(src), "--out", "json"]
        ops.append(Op(
            span="cli.main",
            hypotheses=ALLOCATE_M,
            run=_cli_op(program.cli, argv, out),
            check=_allocate_check(gamma, out),
            round=k,
        ))
    return ops


WORKLOADS = {
    "decide_m1000": decide_m1000,
    "simulate_paper": simulate_paper,
    "allocate_m1e5": allocate_m1e5,
}
