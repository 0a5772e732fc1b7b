"""netinv benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload dtn-export --seed 0 --seconds 36 --trace 0

Runs the workload in ``SEGMENTS`` fresh processes, one after the other,
each with one BLAS thread. Each process sets up (imports, seeded inputs,
specs, references, warm-up) and then times whole passes over the inputs in
a closed loop, one operation at a time, for its share of ``--seconds`` and
of ``MIN_OPS``. The latency and throughput metrics are taken over each
operation's mean latency in the run (see ``mean_times``). Every output is
checked against an independent reference outside the timed region.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a traced run (see README.md). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dtn-export", "uniqueness-scan", "spring-newton")
SEGMENTS = 3
MIN_OPS = 100  # five repeats of each operation; ten samples beyond the observed 90th percentile
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, workdir: Path, seconds: float, min_ops: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--min-ops", str(min_ops),
           "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans", str(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def mean_times(reps: list[dict]) -> list[float]:
    """Each operation's mean latency over every timed pass of every segment.

    The host is shared with other machines, whose load slows this one in
    phases: the same call on the same input takes 75, 100 or 125 ms from one
    call to the next. A percentile over all latencies of a mix of sizes jumps
    when that noise reorders the operations around it, and the median of one
    operation's repeats jumps between the fast and the slow time when slow
    phases cover about half of them. A mean moves only in proportion to the
    share of slow time.
    """
    per_pass = reps[0]["ops_per_pass"]
    repeats = [[] for _ in range(per_pass)]
    for r in reps:  # a segment's last pass may stop part way
        for k, t in enumerate(r["latencies"]):
            repeats[k % per_pass].append(t)
    return [statistics.fmean(ts) for ts in repeats]


def end_to_end(reps: list[dict]) -> dict:
    means = mean_times(reps)
    return {
        "ops_per_s": len(means) / sum(means),
        "latency_p50_ms": 1e3 * statistics.median(means),
        "latency_p90_ms": 1e3 * statistics.quantiles(means, n=10)[8],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
    }


def observed(reps: list[dict]) -> dict:
    """Percentiles over every timed latency as it came; printed for the
    reader, not part of the result."""
    lat = [t for r in reps for t in r["latencies"]]
    return {
        "observed.latency_p50_ms": 1e3 * statistics.median(lat),
        "observed.latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
    }


def per_layer(run: dict) -> tuple[dict, dict, list[str]]:
    """Mean times over the traced passes; counts, which must repeat exactly."""
    layers = run["layers"]
    values, problems = {}, []
    for name, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_pct":
            values[name] = run["overhead_pct"]
        elif name in tracing.COUNT_METRICS:
            seen = {layer[name] for layer in layers}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced passes: {sorted(seen)}")
            values[name] = layers[0][name]
        else:
            values[name] = statistics.fmean(layer[name] for layer in layers)
    return values, dict(tracing.LAYER_METRICS), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and no minimum operation count, for a quick check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "netinv" / "__init__.py").is_file():
        print(f"perfbench: no netinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    reps = []
    try:
        segments = 1 if args.trace else SEGMENTS
        for rep in range(segments):
            # each segment makes up what the earlier ones left of MIN_OPS
            done = sum(len(r["latencies"]) for r in reps)
            min_ops = 0 if args.smoke else math.ceil(max(0, MIN_OPS - done) / (segments - rep))
            reps.append(run_worker(args, workdir / f"rep{rep}", args.seconds / segments,
                                   min_ops, deadline))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    run = reps[-1]
    failures = [f for r in reps for f in r["warmup_failures"] + r["failures"]]
    attempted = sum(r["warmup_ops"] + len(r["latencies"]) for r in reps)
    problems = []
    if args.trace:
        metrics, units, problems = per_layer(run)
    else:
        metrics, units = end_to_end(reps), END_TO_END_UNITS
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "python": platform.python_version(),
        "numpy": run["numpy"], "blas": run["blas"], "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(), "timed_ops": sum(len(r["latencies"]) for r in reps),
        "ops_per_pass": run["ops_per_pass"],
    }
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name, value in observed(reps).items():
            print(f"{name:40s} {value:14.6g} {END_TO_END_UNITS[name.split('.', 1)[1]]}")
    print(f"{'fail_fraction':40s} {len(failures) / attempted:14.6g} 1")
    for line in failures[:20] + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
