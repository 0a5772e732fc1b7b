"""The three workloads: seeded inputs, the operations to time and their checks.

``build(workload, seed, workdir, smoke)`` writes every input file under
``workdir``, computes the references, and returns the ordered list of
operations of one pass. An operation's ``call(tracer)`` is the timed part;
``check(output, expected)`` runs afterwards and returns ``None`` or the reason
the output is wrong.

Why these workloads (measured on a 2-core x86 virtual machine, one BLAS thread):

* ``dtn-export`` is the forward-map job through the command line tool. Dense
  assembly dominates the big grids and the JSON write is most of the rest;
  the inversion layer is never reached, so it is the bypass workload for any
  change to W, the SVD or Newton.
* ``uniqueness-scan`` is W and its SVD on conductivity grids and a truss,
  plus short line scans, which are many small W's and about 120 admissibility
  checks per segment bisection. The 14 x 14 d=1 grid has
  sigma_min/sigma_max near 9e-8, within a decade of epsilon = 1e-8.
* ``spring-newton`` is Newton inversion through the command line tool: every
  iteration builds W from two states calls, runs lstsq and repeats assembly
  and the interior solve in the line search; it also drives the file reader.

"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from netinv import cli, elastic, graph, inversion

WORKLOADS = ("dtn-export", "uniqueness-scan", "spring-newton")

DTN_TOL = 1e-10  # the repository's DtN agreement tolerance
NEWTON_TOL = 1e-7  # the repository's Newton recovery tolerance
RATIO_RTOL = 1e-6  # sigma_min / sigma_max against the blocked-QR reference
SAMPLE_T_RTOL = 1e-9  # scan sample positions against the analytic segment
EPSILON = inversion.DEFAULT_EPSILON

# One pass of each workload is 20 operations. Latency percentiles of a mix
# jump where they fall between two sizes, so each pass holds a block of
# same-size inputs across the median (positions 0.35-0.65 of the sorted
# pass) and one across the 90th percentile (from 0.80 to 0.95 or 1.0).
# Sizes were placed from latencies measured on this code.
SIZES = {
    False: {
        "dtn-export": {"grids": [(6, 1), (8, 1), (10, 1), (14, 1), (16, 1), (6, 2), (8, 2)]
                       + [(12, 2)] * 6 + [(20, 1)] + [(16, 2)] * 3 + [(20, 2)],
                       "q_grid": (14, 2), "truss": 8},
        "uniqueness-scan": {"grids": [(10, 1)] * 3 + [(14, 1)] + [(8, 2)] * 3 + [(10, 2)],
                            "truss": 8, "scan_grids": [6] * 11, "scan_samples": 12},
        # springs stop at 6 x 6: from 7 x 7 up, the command line's fixed
        # residual tolerance (1e-10 relative) leaves the recovered spring
        # constants up to 2e-7 off at some seeds, beyond NEWTON_TOL
        "spring-newton": {"springs": [5] * 3 + [6] * 6,
                          "masses": [5, 5, 6, 6] + [7] * 3 + [8] * 4},
    },
    True: {
        "dtn-export": {"grids": [(4, 1), (4, 2)], "q_grid": (4, 2), "truss": 3},
        "uniqueness-scan": {"grids": [(4, 1), (3, 2)], "truss": 3,
                            "scan_grids": [4, 4], "scan_samples": 5},
        "spring-newton": {"springs": [3, 4], "masses": [3]},
    },
}


@dataclass
class Op:
    name: str
    call: Callable[[object], object]
    check: Callable[[object, object], str | None]
    expected: object


def run_cli(argv: list[str]) -> int:
    """``netinv.cli.main`` in-process, its console output kept off stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _complex_list(values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _graph(net: inputs.Network):
    return graph.build_graph(net.num_vertices, net.boundary, net.edges)


def _elastic(net: inputs.Network) -> elastic.ElasticNetwork:
    return elastic.ElasticNetwork(
        graph=_graph(net), positions=net.positions, k=net.k, c_e=net.c_e,
        mass=net.mass, c_v=net.c_v, omega=net.omega if net.omega is not None else 0.0)


def _conductivity_param(net: inputs.Network) -> np.ndarray:
    # per-edge column-stacked blocks; the blocks are symmetric
    return net.blocks.reshape(-1).astype(complex)


def _traced(tracer, spec):
    return tracer.spec(spec) if tracer is not None else spec


# ---------------------------------------------------------------------------
# dtn-export
# ---------------------------------------------------------------------------


def _check_dtn(out, expected):
    rc, path = out
    if rc != 0:
        return f"exit code {rc}"
    got = _complex_list(json.loads(Path(path).read_text())["data"])
    if got.shape != expected.shape:
        return f"shape {got.shape}, expected {expected.shape}"
    err = float(np.abs(got - expected).max())
    return None if err <= DTN_TOL else f"DtN differs from the pseudoinverse oracle by {err:.3e}"


def _dtn_export(rng, workdir: Path, sizes) -> list[Op]:
    nets = [(f"grid {n}x{n} d={d}", inputs.grid(rng, n, d)) for n, d in sizes["grids"]]
    n, d = sizes["q_grid"]
    nets.append((f"grid {n}x{n} d={d} with q", inputs.grid(rng, n, d, with_q=True)))
    n = sizes["truss"]
    nets.append((f"truss {n}x{n} static", inputs.truss(rng, n)))
    ops = []
    for k, (name, net) in enumerate(nets):
        src = inputs.write_json(workdir / f"dtn-{k}.json", inputs.network_doc(net))
        out = workdir / f"dtn-{k}-out.json"
        argv = ["dtn", str(src), "-o", str(out)]
        ops.append(Op(name, lambda tracer, argv=argv, out=out: (run_cli(argv), out),
                      _check_dtn, oracle.dtn_reference(net)))
    return ops


# ---------------------------------------------------------------------------
# uniqueness-scan
# ---------------------------------------------------------------------------


def _check_verdict(verdict, expected):
    ratio = verdict.sigma_min / verdict.sigma_max
    if verdict.holds != (expected > EPSILON):
        return f"verdict {verdict.verdict}, reference ratio {expected:.3e}"
    if abs(ratio - expected) > RATIO_RTOL * expected:
        return f"ratio {ratio:.6e}, reference {expected:.6e}"
    return None


def _check_scan(scan, expected):
    ts, ratios, fraction = expected
    got_t = np.array([t for t, _ in scan.samples])
    got_r = np.array([r for _, r in scan.samples])
    if got_t.shape != ts.shape:
        return f"{got_t.size} samples, expected {ts.size}"
    if np.abs(got_t - ts).max() > SAMPLE_T_RTOL * np.abs(ts).max():
        return "sample positions differ from the analytic admissible segment"
    if (np.abs(got_r - ratios) > RATIO_RTOL * ratios).any():
        return "sample ratios differ from the reference"
    if scan.near_singular_fraction != fraction:
        return f"near-singular fraction {scan.near_singular_fraction}, reference {fraction}"
    return None


def _states_ratio(spec, p, block: int) -> float:
    return oracle.singular_value_ratio(spec.states(p), block, spec.m, spec.n)


def _uniqueness_scan(rng, workdir: Path, sizes) -> list[Op]:
    ops = []
    for n, d in sizes["grids"]:
        net = inputs.grid(rng, n, d)
        spec = inversion.make_spec_conductivity(_graph(net), d)
        p = _conductivity_param(net)
        ops.append(Op(f"uniqueness grid {n}x{n} d={d}",
                      lambda tracer, spec=spec, p=p: inversion.uniqueness_test(_traced(tracer, spec), p),
                      _check_verdict, _states_ratio(spec, p, d)))
    n = sizes["truss"]
    net = inputs.truss(rng, n)
    spec = elastic.make_spec_static_springs(_elastic(net))
    ops.append(Op(f"uniqueness truss {n}x{n} springs",
                  lambda tracer, spec=spec, p=net.k: inversion.uniqueness_test(_traced(tracer, spec), p),
                  _check_verdict, _states_ratio(spec, net.k, 1)))
    samples = sizes["scan_samples"]
    for k, n in enumerate(sizes["scan_grids"]):
        net = inputs.grid(rng, n, 1)
        spec = inversion.make_spec_conductivity(_graph(net), 1)
        p = _conductivity_param(net)
        dp = rng.standard_normal(spec.m) + 1j * rng.standard_normal(spec.m)
        scan_seed = int(rng.integers(2 ** 31))
        lo, hi = oracle.admissible_segment(p, dp)
        ts = np.random.default_rng(scan_seed).uniform(0.999 * lo, 0.999 * hi, size=samples)
        ratios = np.array([_states_ratio(spec, p + t * dp, 1) for t in ts])
        fraction = float((ratios <= EPSILON).sum()) / samples
        ops.append(Op(
            f"line scan {n}x{n} #{k}",
            lambda tracer, spec=spec, p=p, dp=dp, s=scan_seed: inversion.line_rank_scan(
                _traced(tracer, spec), p, dp, num_samples=samples, epsilon=EPSILON,
                rng=np.random.default_rng(s)),
            _check_scan, (ts, ratios, fraction)))
    return ops


# ---------------------------------------------------------------------------
# spring-newton
# ---------------------------------------------------------------------------


def _check_newton(out, expected):
    rc, path = out
    if rc != 0:
        return f"exit code {rc}"
    got = _complex_list(json.loads(Path(path).read_text())["parameters"])
    if got.shape != expected.shape:
        return f"{got.size} parameters, expected {expected.size}"
    err = float(np.abs(got - expected).max())
    return None if err <= NEWTON_TOL else f"recovered parameters off by {err:.3e}"


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _spring_newton(rng, workdir: Path, sizes) -> list[Op]:
    cases = [("springs", n) for n in sizes["springs"]] + [("masses", n) for n in sizes["masses"]]
    ops = []
    for k, (problem, n) in enumerate(cases):
        net = inputs.truss(rng, n, dynamic=problem == "masses")
        if problem == "springs":
            spec = elastic.make_spec_static_springs(_elastic(net))
            p_true = net.k.astype(complex)
        else:
            spec = elastic.make_spec_masses_known_springs(_elastic(net))
            p_true = -net.omega ** 2 * net.mass + 1j * net.omega * net.c_v
        target = np.asarray(spec.forward(p_true.real if spec.is_real else p_true))
        p0 = p_true * rng.uniform(0.8, 1.25, size=p_true.shape)
        paths = {
            "net": inputs.write_json(workdir / f"newton-{k}.json", inputs.network_doc(net)),
            "target": inputs.write_json(workdir / f"newton-{k}-target.json", {
                "shape": list(target.shape), "data": [_pairs(row) for row in target]}),
            "p0": inputs.write_json(workdir / f"newton-{k}-p0.json", _pairs(p0)),
        }
        out = workdir / f"newton-{k}-out.json"
        argv = ["invert", str(paths["net"]), str(paths["target"]), "--problem", problem,
                "--p0", str(paths["p0"]), "-o", str(out)]
        ops.append(Op(f"invert {problem} truss {n}x{n}",
                      lambda tracer, argv=argv, out=out: (run_cli(argv), out),
                      _check_newton, p_true))
    return ops


OPERATIONS = {"dtn-export": _dtn_export, "uniqueness-scan": _uniqueness_scan,
            "spring-newton": _spring_newton}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Inputs, references and operations of one pass of ``workload``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    return OPERATIONS[workload](rng, workdir, SIZES[smoke][workload])
