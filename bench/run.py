"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` in this process, on one thread, over
inputs made from the seed, then checks every operation's output against
``reference.py`` outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The line before it is the run record.  Both, plus
the op times and, when traced, the spans, also go to
``.bench_run/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

import tracing
from workloads import KEPT_FAULT, PASS, WORKLOADS, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import poweralloc.cli; "
                "print(time.perf_counter() - t)")


def load_program() -> SimpleNamespace:
    """Import ``poweralloc`` from this checkout's ``src``, never from
    anywhere else."""
    package = SRC / "poweralloc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import poweralloc
    from poweralloc import allocate, cli, model, procedures, sim

    if Path(poweralloc.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: poweralloc imported from {poweralloc.__file__}, not {package}")
    return SimpleNamespace(cli=cli, sim=sim, procedures=procedures,
                           allocate=allocate, model=model)


def measure_setup() -> float:
    """Median time to ``import poweralloc.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def steal_ticks() -> int | None:
    """Host steal time of all CPUs, in clock ticks, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[:1] == ["cpu"] and len(fields) > 8 else None


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # else git would report an enclosing repo
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def timed_loop(ops, program, tracer):
    """Run every op once, in order; returns (seconds, outputs, errors,
    retained bytes per watched op).  With a tracer, spans are on for every
    op, and tracemalloc watches the ops of the last round only, since it
    slows allocation-heavy code several times over."""
    times, outputs, errors, retained = [], [], [], []
    last_round = ops[-1].round
    patches = tracing.installed(tracer, program) if tracer else contextlib.nullcontext()
    with patches:
        try:
            for i, op in enumerate(ops):
                watch = tracer is not None and op.round == last_round
                if watch:
                    if not tracemalloc.is_tracing():
                        tracemalloc.start()
                    gc.collect()
                    before = tracemalloc.get_traced_memory()[0]
                if tracer:
                    tracer.op = i
                span = tracer.span(op.span) if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        out = op.run()
                    err = None
                except Exception as exc:  # an op that raises is a failed op
                    out, err = None, "".join(traceback.format_exception_only(exc)).strip()
                times.append(time.perf_counter() - start)
                outputs.append(out)
                errors.append(err)
                if watch:
                    gc.collect()
                    retained.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()
    return times, outputs, errors, retained


def judge(op, out, err) -> str:
    """The op's check; an op that raised, or output the check cannot even
    read, is wrong."""
    if err is not None:
        return WRONG
    try:
        return op.check(out)
    except (KeyError, TypeError, ValueError):
        return WRONG


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    steal_start = steal_ticks()
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    program = load_program()
    setup_s = None if trace else measure_setup()
    phase("setup")
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUN_DIR))
    try:
        ops = WORKLOADS[workload](program, seed, seconds, work)
        tracer = tracing.Tracer() if trace else None
        phase("inputs")
        times, outputs, errors, retained = timed_loop(ops, program, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phase("timed")
        outcomes = [judge(op, out, err) for op, out, err in zip(ops, outputs, errors)]
        phase("checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(outcomes) - outcomes.count(PASS)
    if trace:
        # Timings come from the ops that tracemalloc did not watch, unless
        # the run has a single round.
        timing = {i for i, op in enumerate(ops) if op.round != ops[-1].round}
        timing = timing or set(range(len(ops)))
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in
                   tracing.layer_metrics(tracer, len(ops), timing, retained).items()}
        metrics["traced.op_p50_ms"] = (1e3 * statistics.median(times[i] for i in timing), "ms")
        metrics["traced.hyp_per_s"] = (sum(ops[i].hypotheses for i in timing)
                                       / sum(times[i] for i in timing), "1/s")
    else:
        hyp_per_s = sum(op.hypotheses for op in ops) / sum(times)
        op_p50_ms = 1e3 * statistics.median(times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "hyp_per_s": (hyp_per_s, "1/s"),
            "op_p50_ms": (op_p50_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    steal_end = steal_ticks()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(ops),
        "failed": failed,
        "failed_kept_fault": outcomes.count(KEPT_FAULT),
        "errors": sorted({e for e in errors if e}),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "steal_ticks": (steal_end - steal_start
                        if steal_start is not None and steal_end is not None else None),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "phase_seconds": phases,
    }
    result = {
        "correct": WRONG not in outcomes,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    dump = {"record": record, "result": result, "op_seconds": times,
            "op_outcomes": outcomes}
    if tracer:
        dump["trace"] = tracer.to_json()
    with open(RUN_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dump, fh)
    print("record " + json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
