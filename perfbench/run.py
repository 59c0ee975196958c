#!/usr/bin/env python3
"""stratwave benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {decompose,frame,lattice} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; stratwave is imported from its
`src/`.  A single client calls the public API in-process in a closed loop
(the next op starts when the previous one returns) for S seconds, and every
op's output is checked.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  Set-up time and the cold op
come from several fresh processes: this one and COLD_PROCESSES children,
started one at a time and spread over the run.
--trace 1 wraps stratwave's public functions from outside the package,
alternates traced and untraced ops and reports the per-layer metrics and
the tracing overhead.  The line before the result holds the run's context:
input digests, sample counts, the tail percentile, nproc, load average,
BLAS threads and versions.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = ("decompose", "frame", "lattice")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
COLD_PROCESSES = 10
MIN_OPS = 2
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="stratwave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smallest inputs that still run every path (smoke test)")
    ap.add_argument("--child", action="store_true",
                    help="internal: set up, run one cold op, print its figures")
    return ap.parse_args(argv)


def import_workloads():
    """Import stratwave from this checkout's src/ and the workload module."""
    if not (SRC / "stratwave" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stratwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import stratwave
    if Path(stratwave.__file__).resolve().parent != (SRC / "stratwave").resolve():
        raise SystemExit(f"perfbench: imported stratwave from {stratwave.__file__}")
    return workloads


class Runner:
    """Set-up and checked, timed ops for one workload in this process."""

    def __init__(self, args):
        t0 = time.perf_counter()
        self.W = import_workloads()
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=WORK))
        self.name = args.workload
        self.wl = self.W.SETUP[self.name](args.seed, self.W.SIZES[args.size][self.name],
                                          self.workdir)
        self.setup_s = time.perf_counter() - t0
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self):
        """Run, time and check one op; returns (seconds, digest or None)."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = self.wl.op()
        except Exception:  # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t
            self._fail([traceback.format_exc(limit=3).strip().splitlines()[-1]])
            return dt, None
        dt = time.perf_counter() - t
        problems = self.W.CHECK[self.name](result, self.reference, self.wl.expected)
        if problems:
            self._fail(problems)
            return dt, None
        self.reference = self.reference or result
        return dt, self.W.result_digest(result)

    def _fail(self, problems):
        self.failed += 1
        self.problems.extend(problems[:3])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def tail(samples):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def run_child(args):
    runner = Runner(args)
    try:
        dt, digest = runner.op()
        print(json.dumps({"setup_s": runner.setup_s, "cold_op_s": dt, "digest": digest,
                          "inputs": runner.wl.digests, "problems": runner.problems}))
    finally:
        runner.close()
    return 0


def cold_child(args, runner, ref_digest):
    """One fresh process: its set-up time and first op, checked like any op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    runner.attempted += 1
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        runner._fail([f"cold process failed: {exc!r}"])
        return None
    if rec["problems"] or rec["digest"] != ref_digest or rec["inputs"] != runner.wl.digests:
        runner._fail(rec["problems"] or ["cold process result or inputs differ"])
        return None
    return rec


def run_untraced(args, ctx):
    runner = Runner(args)
    try:
        cold_s, ref_digest = runner.op()
        setups, colds, warm = [runner.setup_s], [cold_s], []
        start = time.perf_counter()
        deadline = start + args.seconds
        # cold processes are spread over the run, so that a slow spell of the
        # machine cannot hold all of them
        due = [start + (k + 0.5) * args.seconds / COLD_PROCESSES
               for k in range(COLD_PROCESSES)]
        while time.perf_counter() < deadline or len(warm) < MIN_OPS or due:
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                rec = cold_child(args, runner, ref_digest)
                if rec is not None:
                    setups.append(rec["setup_s"])
                    colds.append(rec["cold_op_s"])
                continue
            warm.append(runner.op()[0])
    finally:
        runner.close()
    ctx["problems"].extend(runner.problems)
    tail_s, pct = tail(warm)
    ctx.update(inputs=runner.wl.digests, warm_ops=len(warm),
               op_s_median=statistics.median(warm), op_s_tail=tail_s,
               op_s_tail_percentile=pct, cold_op_s_min=min(colds),
               cold_op_s_median=statistics.median(colds), setup_samples=setups,
               cold_samples=colds, warm_samples=warm,
               failed_frac=runner.failed / runner.attempted)
    metrics = {
        "op_s_min": (min(warm), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return runner.attempted, runner.failed, metrics


def run_traced(args, ctx):
    import tracer as tr
    runner = Runner(args)
    t = tr.Tracer()
    t.calibrate()
    extra = [runner.W]
    try:
        runner.op()  # warm-up, untraced; the check compares every later op to it
        times = {True: [], False: []}
        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or min(map(len, times.values())) < 1:
            traced = i % 2 == 0
            if traced:
                t.install(extra)
                t.begin_op(i)
            times[traced].append(runner.op()[0])
            if traced:
                t.end_op()
                ctx["problems"].extend(t.uninstall(extra))
            i += 1
    finally:
        runner.close()
    ctx["problems"].extend(runner.problems)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}.npz"
    t.write_spans(spans_path)
    n = len(times[True])
    traced_s, plain_s = statistics.median(times[True]), statistics.median(times[False])
    ctx.update(inputs=runner.wl.digests, traced_ops=n, untraced_ops=len(times[False]),
               spans_file=str(spans_path.relative_to(ROOT)), spans_kept=len(t.times["start"]),
               spans_dropped=t.dropped, failed_frac=runner.failed / runner.attempted,
               tracer_inner_s=t.inner_s, tracer_per_call_s=t.per_call_s,
               tracer_accounted_s=t.overhead_s / n)
    metrics = tr.per_layer_metrics(t, n)
    metrics.update({
        "trace.op_s": (traced_s, "s"),
        "trace.untraced_op_s": (plain_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
    })
    return runner.attempted, runner.failed, metrics


def context(args):
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    # numpy is imported only after this, here and in the cold processes,
    # which inherit the environment
    os.environ.update({v: BLAS_THREADS for v in BLAS_VARS})
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    ctx = {"problems": []}
    attempted, failed, metrics = (run_traced if args.trace else run_untraced)(args, ctx)
    info = context(args)
    info.update(ctx)
    info["problems"] = ctx["problems"][:20]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not ctx["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
