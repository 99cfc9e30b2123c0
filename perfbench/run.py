"""ksoftmax benchmark: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-small-vocab --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the timed loop twice, untraced and then traced (half the time each),
and reports per-layer metrics from the traced half plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report, and the full report and spans go to .perfbench/ in the checkout.
The exit code is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def import_package():
    """Import ksoftmax from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ksoftmax", "__init__.py")):
        sys.exit(f"perfbench: no ksoftmax package under {src}")
    sys.path.insert(0, src)
    import ksoftmax
    if not os.path.abspath(ksoftmax.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ksoftmax from {ksoftmax.__file__}")


def machine_block() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as e:  # older numpy has no dict mode
        blas = {"error": repr(e)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return "unknown"  # not a git checkout (or a parent repository's)


def timed_setup(workload, repeats: int) -> list:
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - t0)
    return seconds


def safe_checks(workload, phase) -> list:
    try:
        return workload.checks(phase)
    except Exception as e:
        traceback.print_exc()
        return [("checks ran", False, repr(e))]


def run_untraced(workload, seconds):
    from workloads import median
    setup_s = timed_setup(workload, SETUP_REPEATS)
    phase = workload.run(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "tokens_per_s": (phase.tokens_per_s, "tok/s"),
        "ppl": (phase.ppl, "ppl"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_s)}",
             "tokens_per_s": f"median of {len(phase.seconds)} {phase.unit}s"}
    return [phase], safe_checks(workload, phase), metrics, notes


def run_traced(workload, seconds, work_dir):
    import layers
    import spans
    from workloads import MIX_KINDS
    tracer = spans.Tracer()
    spans.install(tracer)
    workload.setup()
    tracer.unpatch()
    plain = workload.run(seconds / 2)
    spans.install(tracer)
    traced = workload.run(seconds / 2)
    tracer.unpatch()
    tracer.write(os.path.join(work_dir, "spans.jsonl"))

    checks = safe_checks(workload, traced)
    checks.append(("traced ppl equals untraced", traced.ppl == plain.ppl,
                   f"{traced.ppl!r} vs {plain.ppl!r}"))
    checks.append(("traced train_loss equals untraced",
                   traced.train_loss == plain.train_loss,
                   f"{traced.train_loss!r} vs {plain.train_loss!r}"))
    overhead = (plain.tokens_per_s / traced.tokens_per_s - 1.0) * 100.0
    metrics = layers.per_layer(tracer, MIX_KINDS, overhead)
    notes = {"trace.overhead_pct":
             f"{plain.tokens_per_s:.6g} tok/s untraced vs "
             f"{traced.tokens_per_s:.6g} traced, {len(tracer.spans)} spans"}
    return [plain, traced], checks, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the smoke test")
    args = ap.parse_args(argv)

    # One BLAS thread (at most nproc), pinned before numpy loads, so every
    # run uses the same count.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"one of {sorted(workloads.WORKLOADS)}")
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    work_dir = os.path.join(ROOT, ".perfbench", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, work_dir)

    machine = machine_block()
    if args.trace:
        phases, checks, metrics, notes = run_traced(workload, args.seconds, work_dir)
    else:
        phases, checks, metrics, notes = run_untraced(workload, args.seconds)

    attempted = sum(p.attempted for p in phases) + len(checks)
    failed = sum(p.failed for p in phases) + sum(not ok for _, ok, _ in checks)

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload: {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}" + (" (tiny)" if args.tiny else ""))
    print(f"  why: {workload.why}")
    for phase, label in zip(phases, ("untraced", "traced")):
        title = label if args.trace else "measured"
        print(f"{title} ({len(phase.seconds)} {phase.unit}s, "
              f"{phase.attempted - phase.failed}/{phase.attempted} ops ok):")
        for name, (value, unit, n) in phase.extra.items():
            print(f"  {name} {value:.6g} {unit} (n={n})")
    print("metrics:")
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name} {value:.6g} {unit}{note}")
    print("checks:")
    for name, ok, detail in checks:
        print(f"  {'PASS' if ok else 'FAIL'} {name} ({detail})")
    print(f"ops_failed {failed} of {attempted} attempted")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    report = dict(result, machine=machine, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  tiny=args.tiny, checks=checks,
                  phases=[{"unit": p.unit, "seconds": p.seconds,
                           "tokens": p.tokens, "extra": p.extra}
                          for p in phases])
    with open(os.path.join(work_dir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, default=repr)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
