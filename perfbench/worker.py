"""One workload process: set up, warm up, then time passes in a closed loop.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
The last line of its standard output is one JSON object: the set-up time,
the latencies and failures of the timed passes, and the peak memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_START = time.perf_counter()

import numpy as np  # noqa: E402  (import time is part of set-up)

import tracing  # noqa: E402
import workloads  # noqa: E402

def run_op(op, tracer, latencies: list, failures: list) -> None:
    """Time one operation, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        out = op.call(tracer)
    except Exception as exc:  # a failed operation is counted, not fatal
        latencies.append(time.perf_counter() - start)
        failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return
    latencies.append(time.perf_counter() - start)
    try:
        reason = op.check(out, op.expected)
    except Exception as exc:  # an unreadable output is a wrong output
        reason = f"{type(exc).__name__}: {exc}"
    if reason is not None:
        failures.append(f"{op.name}: {reason}")


def measure(ops, seconds: float, min_ops: int, tracer=None) -> dict:
    """Closed loop over passes until ``seconds`` and ``min_ops`` are both
    reached, and at least one whole pass. Without a tracer the loop stops
    after the operation that reaches them, so a run measures what it was
    given whatever the length of a pass; with one, passes are whole and
    alternate untraced and traced."""
    latencies: list[float] = []
    failures: list[str] = []
    pass_times = {False: [], True: []}
    layers = []
    start = time.perf_counter()
    min_ops = max(min_ops, len(ops))

    def done() -> bool:
        return time.perf_counter() - start >= seconds and len(latencies) >= min_ops

    k = 0
    while not done() or (tracer is not None and not layers):
        traced = tracer is not None and k % 2 == 1
        gc.collect()
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        pass_start = len(latencies)
        try:
            for op in ops:
                run_op(op, tracer if traced else None, latencies, failures)
                if tracer is None and done():
                    break
        finally:
            if traced:
                tracer.uninstall()
        pass_times[traced].append(sum(latencies[pass_start:]))
        if traced:
            layers.append(tracing.layer_metrics(tracer.spans, first, len(tracer.spans)))
        k += 1
    result = {"latencies": latencies, "failures": failures}
    if tracer is not None:
        result["layers"] = layers
        result["overhead_pct"] = 100.0 * (statistics.median(pass_times[True])
                                          / statistics.median(pass_times[False]) - 1.0)
    return result


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None,
                    help="trace every other pass and write the spans here")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.workdir, args.smoke)
    warm_latencies: list[float] = []
    failures: list[str] = []
    for op in ops:
        run_op(op, None, warm_latencies, failures)
    setup_s = time.perf_counter() - SETUP_START
    result = {"setup_s": setup_s, "warmup_failures": failures, "warmup_ops": len(ops)}
    tracer = tracing.Tracer() if args.spans is not None else None
    result.update(measure(ops, args.seconds, args.min_ops, tracer))
    if tracer is not None:
        tracer.dump(args.spans)
    result["ops_per_pass"] = len(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    result["blas"] = blas_name()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
