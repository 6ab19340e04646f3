"""ltcsim benchmark: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ltcsim is imported from ``src``.  The run
sets up the workload's inputs several times in fresh interpreters (the
median is ``setup_s``), runs whole cycles of ops in a closed loop with one
op in flight until ``--seconds`` have passed, and checks every op's output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the ops
untraced and then again with spans around each layer (tracing.py) and
reports the per-layer metrics.  Readable lines come first; the last line
of standard output is the JSON result.  bench/NOTES.md describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
MAX_TIMED_S = 100.0  # stop starting cycles here, whatever --seconds says
MIN_P90_SAMPLES = 100  # print op_p90_s only with 10 or more samples beyond it
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """One BLAS thread for this process and every child; call before numpy.

    Ops run one at a time, so a second BLAS thread only buys lock-step
    waits on a shared host: on a 2-vCPU VM an N=128 approximate_trajectory
    ran 10-25% slower with two threads than with one, and swung more.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


class Record(NamedTuple):
    op: object
    wall_s: float  # inf if the op failed
    sup: float | None  # sup_traj_error, kept instead of the whole output
    problems: list


def run_setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPS times in fresh interpreters: wall and import seconds, digests."""
    walls, imports, digests = [], [], set()
    cmd = [sys.executable, str(BENCH / "setup_inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(workdir)]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(info["import_s"])
        digests.add(info["digest"])
    return walls, imports, digests


def run_op(op, tracer=None) -> Record:
    """Time and check one op; a failed op costs +inf seconds."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span("op." + op.kind):
                out = op.run()
    except Exception as exc:  # a failed op is a result, not a crash
        return Record(op, math.inf, None, [f"{op.kind} raised {type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - start
    try:
        problems = op.check(out)
    except Exception as exc:
        problems = [f"{op.kind} check raised {type(exc).__name__}: {exc}"]
    # Holding every output would make peak RSS grow with the ops completed.
    return Record(op, wall, getattr(out, "sup_traj_error", None), problems)


def run_cycles(wl, seconds: float, n_cycles: int | None = None, tracer=None):
    """Whole cycles until ``seconds`` pass (at least wl.min_cycles), or exactly n_cycles."""
    records = []
    start = time.perf_counter()
    c = 0
    while True:
        elapsed = time.perf_counter() - start
        if n_cycles is not None:
            if c == n_cycles:
                break
        elif c >= wl.min_cycles and (elapsed >= seconds or elapsed >= MAX_TIMED_S):
            break
        records += [run_op(op, tracer) for op in wl.cycle(c)]
        c += 1
    return records, c


def end_to_end(records, probe_failed: int, setup_walls: list, peak_rss_kb: int) -> dict:
    times = sorted(r.wall_s for r in records)
    ok = [r for r in records if math.isfinite(r.wall_s) and not r.problems]
    attempted = len(records) + probe_failed  # a probe that passes is not counted
    return {
        "setup_s": (statistics.median(setup_walls), "s"),
        "ops_per_s": (len(ok) / sum(r.wall_s for r in ok) if ok else 0.0, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_kb * 1024 / 1e6, "MB"),
        "ok_ops_ratio": (len(ok) / attempted, "ratio"),
    }


def environment(nproc: int) -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={nproc} "
            f"blas={blas.get('name')}-{blas.get('version')} {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ltcsim" / "__init__.py").is_file():
        print(f"error: no ltcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import ltcsim
    import tracing
    import workloads

    if Path(ltcsim.__file__).resolve().parent != ROOT / "src" / "ltcsim":
        print(f"error: imported ltcsim from {ltcsim.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, nproc, workdir, workloads, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, nproc, workdir, workloads, tracing) -> int:
    print(f"env {environment(nproc)}")
    problems = []
    setup_walls, import_s, digests = run_setup(args.workload, args.seed, workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    digests.add(wl.digest)
    if len(digests) != 1:
        problems.append(f"set-up is not deterministic: {len(digests)} input digests")

    # A traced run spends half its time untraced and then replays the same
    # cycles traced, so it lasts about as long as an end-to-end run.  Both
    # passes run in this process, where the tracer can see the calls:
    # cli-files then drives cli_dispatch instead of child processes.
    wl.in_process = bool(args.trace)
    records, n_cycles = run_cycles(wl, args.seconds / (2 if args.trace else 1))
    probe = wl.probe() if hasattr(wl, "probe") else None
    if args.trace:
        problems += [p for r in records for p in r.problems]
        untraced_s = sum(r.wall_s for r in records)
        tracer = tracing.Tracer()
        tracer.patch()
        wl.trace_with(tracer)
        try:
            records, _ = run_cycles(wl, args.seconds, n_cycles=n_cycles, tracer=tracer)
        finally:
            tracer.unpatch()
        tracer.save(WORK / f"trace-{args.workload}-s{args.seed}.npz")
    problems += [p for r in records for p in r.problems]
    problems += wl.finish()
    failed = sum(1 for r in records if r.problems or not math.isfinite(r.wall_s))

    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in "
          f"{n_cycles} cycles, trace={args.trace}")
    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, records, statistics.median(import_s), untraced_s)
        if tracer.missing:
            print(f"missing spans: {' '.join(tracer.missing)}")
    else:
        peak = getattr(wl, "peak_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(records, int(probe is not None), setup_walls, peak)
        print(f"failed_ops_ratio = {1.0 - metrics['ok_ops_ratio'][0]!r} ratio")
        times = sorted(r.wall_s for r in records)
        print(f"op samples = {len(times)}")
        if len(times) >= MIN_P90_SAMPLES:
            print(f"op_p90_s = {statistics.quantiles(times, n=10)[8]!r} s "
                  f"({len(times) - math.ceil(0.9 * len(times))} samples beyond it)")
        errors = [r.sup for r in records if r.sup is not None]
        if errors:
            print(f"sup_traj_error_p50 = {statistics.median(errors)!r} 1")
    if probe is not None:
        print(f"stiff-field probe failed (counted in failed_ops_ratio): {probe}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
