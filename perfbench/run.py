#!/usr/bin/env python3
"""Host-time benchmark of the Meta-Chaos reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coupled_mesh --seed 1 \\
        --seconds 20 --trace 0

One single-threaded process runs one job at a time (a closed loop with
one client) of the named workload, for ``--seconds`` of measured time
after one warm-up job, and checks every job's output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced jobs and reports the per-layer metrics, writing the spans of the
traced jobs to ``.perfbench/trace-<workload>-seed<seed>.json`` as
Chrome/Perfetto JSON.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up repetitions per run; setup_s reports their median
SETUP_REPEATS = 5

#: times the imports in a fresh interpreter, without interpreter start-up
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import tracer, workloads\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    out: object  # workloads.JobOut, or None when the job raised
    error: str


def import_times(first_s: float, paths) -> list:
    """The import time of this process plus SETUP_REPEATS - 1 more, each
    in a fresh interpreter run to its end before the next starts."""
    times = [first_s]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *paths],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_job(wl, expected) -> Job:
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    out, error = None, ""
    try:
        out = wl.run()
    except Exception as e:  # a failed job is counted, the run goes on
        error = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if out is not None:
        error = wl.check(out, expected)
        out.data = None  # checked; free it before the next job
    return Job(wall, cpu, out, error)


def op_latencies(job) -> list:
    """Op wall latencies of one job: the job itself, for workloads whose
    op is a whole job."""
    lat = job.out.latencies
    return [job.wall_s] if lat is None else lat


def percentile_ms(values, q: int) -> float:
    """The q-th percentile, interpolated as NumPy's default does."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def measure(wl, expected, seconds, tracer=None, extra_modules=()):
    """Jobs until ``seconds`` of measured time have passed.

    With a tracer, jobs alternate untraced / traced; returns
    ``(untraced, traced)`` job lists.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_job(wl, expected))
        if tracer is not None:
            tracer.job = len(traced) + 1
            tracer.install(extra_modules)
            try:
                traced.append(run_job(wl, expected))
            finally:
                tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def end_to_end(setup_s, rss_mb, jobs) -> dict:
    lat = [t for j in jobs for t in op_latencies(j)]
    wall = statistics.median(j.wall_s for j in jobs)
    return {
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(j.cpu_s for j in jobs), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        # ops of one job over the median job: robust to a stalled job
        "ops_per_s": (len(op_latencies(jobs[0])) / wall, "1/s"),
        "op_latency_ms_p50": (percentile_ms(lat, 50), "ms"),
    }


def per_layer(tracer, untraced, traced, counts) -> dict:
    n = len(traced)
    m = {}
    layer_cpu = 0.0
    for layer, (cpu, wall, calls) in tracer.totals().items():
        m[f"{layer}.cpu_s"] = (cpu / n, "s")
        m[f"{layer}.wait_s"] = (max(0.0, wall - cpu) / n, "s")
        m[f"{layer}.calls"] = (calls / n, "count")
        layer_cpu += cpu
    process_cpu = sum(j.cpu_s for j in traced)
    m["other.cpu_s"] = ((process_cpu - layer_cpu) / n, "s")
    m["trace.process_cpu_s"] = (process_cpu / n, "s")
    m["trace.attributed"] = (layer_cpu / process_cpu, "ratio")
    m["trace.overhead"] = (
        statistics.median(j.cpu_s for j in traced)
        / statistics.median(j.cpu_s for j in untraced), "ratio")
    m["trace.spans"] = (tracer.span_count() / n, "count")
    lat = [t for j in untraced for t in op_latencies(j)]
    m["op_latency_ms_p99"] = (percentile_ms(lat, 99), "ms")
    m["op_latency.samples"] = (len(lat), "count")

    comm_cpu = m["vmachine.comm.cpu_s"][0]
    lookups = counts["cache_hits"] + counts["cache_misses"]
    m["logical_ms"] = (counts["logical_ms"], "model_ms")
    m["vmachine.messages"] = (counts["messages"], "count")
    m["vmachine.bytes"] = (counts["bytes"], "B")
    m["vmachine.cpu_us_per_msg"] = (
        comm_cpu / counts["messages"] * 1e6 if counts["messages"] else 0.0,
        "us")
    m["vmachine.window.ops"] = (counts["window_ops"], "count")
    m["core.cache.hits"] = (counts["cache_hits"], "count")
    m["core.cache.lookups"] = (lookups, "count")
    m["core.cache.hit_ratio"] = (
        counts["cache_hits"] / lookups if lookups else 0.0, "ratio")

    rounds = counts.get("rounds", 0)
    m["service.rounds"] = (rounds, "count")
    m["service.ops_per_round"] = (
        counts["ops_served"] / rounds if rounds else 0.0, "count")
    m["service.shed"] = (counts.get("shed", 0), "count")
    for kind in ("bind", "move", "call"):
        samples = [t for j in untraced for t in j.out.by_kind.get(kind, ())]
        m[f"service.{kind}.latency_ms_p50"] = (
            percentile_ms(samples, 50) if samples else 0.0, "ms")
    return m


def main(argv=None) -> int:
    t_import = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("coupled_mesh", "section_copy", "cp_als",
                             "service_fleet"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}", file=sys.stderr)
        return 2
    paths = [str(src), str(HERE)]
    sys.path[:0] = paths
    import tracer as tracer_mod
    import workloads

    import_s = import_times(time.perf_counter() - t_import, paths)
    cls = workloads.WORKLOADS[args.workload]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(args.seed)
        gen_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(gen_s)
    expected = wl.reference()

    # Warm-up: lazy imports and first-use set-up finish outside the
    # measured window; its counts are the reference for every later job.
    warm = run_job(wl, expected)
    # Peak memory through set-up and one job, so it does not depend on how
    # many jobs fit in the measured window.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer = tracer_mod.Tracer() if args.trace else None
    untraced, traced = measure(wl, expected, args.seconds, tracer,
                               extra_modules=[workloads])
    jobs = [warm] + untraced + traced

    errors = [j.error for j in jobs if j.error]
    ref_counts = warm.out.counts if warm.out is not None else None
    for j in jobs:
        if j.out is not None and j.out.counts != ref_counts:
            errors.append(f"exact counts moved: {j.out.counts} != {ref_counts}")
            break
    failed = sum(1 for j in jobs if j.error)
    ok_untraced = [j for j in untraced if not j.error]

    if not ok_untraced or (args.trace and not any(not j.error for j in traced)):
        metrics = {}
    elif args.trace:
        path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        tracer.write_perfetto(path)
        metrics = per_layer(tracer, ok_untraced,
                            [j for j in traced if not j.error], ref_counts)
        print(f"trace: {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(setup_s, rss_mb, ok_untraced)

    samples = sum(len(op_latencies(j)) for j in ok_untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs "
          f"(1 warm-up, {len(untraced)} untraced, {len(traced)} traced), "
          f"{failed} failed; {samples} op-latency samples untraced")
    print(f"exact counts: {ref_counts}")
    print("untraced jobs (cpu_s/wall_s): " + " ".join(
        f"{j.cpu_s:.3f}/{j.wall_s:.3f}" for j in untraced))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for e in errors[:5]:
        print(f"ERROR: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
