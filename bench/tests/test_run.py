"""The tracer and the run entry point."""

import contextlib
import inspect
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import tracing
import workloads
from workloads import KEPT_FAULT, PASS, WRONG

BENCH = Path(run.__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_installed_wraps_every_layer_and_restores_the_program():
    program = run.load_program()
    points = tracing.patch_points(program)
    before = [inspect.getattr_static(owner, attr) for owner, attr, _ in points]
    tracer = tracing.Tracer()
    tracer.op = 0
    config = program.sim.ScenarioConfig(
        M=5, p=0.4, nu=2.0, qstar=0.1, reps=2, seed=11,
        procedures=("fdr-opt", "bh", "strong-fwer-opt", "weak-fwer-opt"))
    with tracing.installed(tracer, program):
        with tracer.span("sim.run_cell"):
            program.sim.run_cell(config)
    after = [inspect.getattr_static(owner, attr) for owner, attr, _ in points]
    assert all(a is b for a, b in zip(before, after))

    names = {span[0] for span in tracer.spans}
    assert names == {"sim.run_cell", "sim.generate_panel", "model.from_gammas",
                     "procedures.fdr_opt", "procedures.bh", "procedures.strong_fwer",
                     "procedures.weak_fwer", "allocate.optimal_sizes", "numerics.find_root"}
    metrics = tracing.layer_metrics(tracer, 1, {0}, [0])
    assert metrics["procedures.panel_solves_per_op"] == 4
    assert metrics["allocate.optimal_sizes_calls"] == 2
    assert metrics["numerics.find_root_iters"] > 0


def test_decide_round_keeps_the_fdr_fault():
    result = run.run("decide_m1000", seed=0, seconds=0.1, trace=False)
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert result["correct"] is True
    assert set(result["metrics"]) == {"setup_s", "hyp_per_s", "op_p50_ms", "peak_rss_mb"}


def test_a_kept_fault_op_that_exits_nonzero_is_incorrect(monkeypatch):
    program = run.load_program()
    real_main = program.cli.main
    monkeypatch.setattr(program.cli, "main",
                        lambda argv: 3 if "fdr-opt" in argv else real_main(argv))
    result = run.run("decide_m1000", seed=0, seconds=0.1, trace=False)
    assert result["failed"] == 1
    assert result["correct"] is False


def decide_output(tmp_path, procedure, flag, M=60, seed=1):
    """A small decide panel, the program's JSON output for it, and the
    decide check of that output."""
    program = run.load_program()
    rng = np.random.default_rng(seed)
    gamma, s = workloads.paper_panel(rng, M)
    src, out = tmp_path / "in.csv", tmp_path / "out.json"
    workloads._write_csv(src, "id,pvalue,gamma", (s, gamma))
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        rc = program.cli.main(["decide", "--procedure", procedure, flag, "0.1",
                               "--input", str(src), "--out", "json"])
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    return gamma, s, out, rc, doc


def rewrite(out, doc, reject=None, w=None):
    for i, rec in enumerate(doc["records"]):
        if reject is not None:
            rec["reject"] = int(reject[i])
        if w is not None:
            rec["w"] = float(w[i])
    doc["cutoff_index"] = sum(r["reject"] for r in doc["records"])
    out.write_text(json.dumps(doc))


def test_decide_check_reads_the_w_column(tmp_path):
    gamma, s, out, rc, doc = decide_output(tmp_path, "strong-fwer-opt", "--q")
    sample = np.arange(0, 60, 5)
    check = workloads._decide_check(gamma, s, "step-down", out, sample)
    assert check(rc) == PASS
    assert check(3) == WRONG
    w = np.array([r["w"] for r in doc["records"]])
    rewrite(out, doc, w=np.where(np.arange(60) == 7, w[7] * 1.001, w))
    assert check(rc) == WRONG
    rewrite(out, doc, w=np.full(60, 0.5))
    assert check(rc) == WRONG


def test_only_the_fdr_fault_itself_is_kept(tmp_path):
    gamma, s, out, rc, doc = decide_output(tmp_path, "fdr-opt", "--q")
    sample = np.arange(0, 60, 5)
    w = np.array([r["w"] for r in doc["records"]])
    fault = workloads._decide_check(gamma, s, "step-up", out, sample, kept_fault=True)
    plain = workloads._decide_check(gamma, s, "step-up", out, sample)
    # Too many rejections, taken in W order with ties by index: the fault.
    too_many = np.zeros(60, dtype=bool)
    too_many[np.argsort(w, kind="stable")[:55]] = True
    rewrite(out, doc, reject=too_many)
    assert fault(rc) == KEPT_FAULT
    assert plain(rc) == WRONG
    # As many rejections, but not in W order: wrong.
    rewrite(out, doc, reject=too_many[::-1])
    assert fault(rc) == WRONG
    # The fault's order with a wrong W column: wrong.
    rewrite(out, doc, reject=too_many, w=np.where(too_many, 0.0, 1.0))
    assert fault(rc) == WRONG
    assert fault(3) == WRONG


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "allocate_m1e5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        assert "metrics" not in doc
