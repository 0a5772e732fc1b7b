"""Command line front end.

Exit codes: 0 success / uniqueness holds, 1 usage or schema error,
2 inconclusive uniqueness test, 3 Newton non-convergence, 4 unsupported
Dirichlet regime.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dirichlet, elastic, inversion
from .dirichlet import DirichletRegime, RegimeTag
from .fileio import (
    NetworkModel,
    SchemaError,
    complex_to_json,
    load_boundary,
    load_matrix,
    load_network,
    load_values,
    parse_complex,
    save_matrix,
)
from .graph import FieldError, GraphError
from .operators import eigen_decompose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_NONCONVERGED = 3
EXIT_UNSUPPORTED = 4

PROBLEMS = ("conductivity", "schrodinger", "eigenvalues", "springs", "masses")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise UsageError(message)


def _build_spec(model: NetworkModel, problem: str):
    """ProblemSpec plus the parameter vector encoded in the network file."""
    g = model.graph
    if problem == "conductivity":
        spec = inversion.make_spec_conductivity(g, model.d)
        p = inversion._vec_blocks(model.conductivity().values)
    elif problem == "schrodinger":
        if model.sigma is None:
            raise SchemaError("schrodinger problem needs explicit sigma blocks")
        spec = inversion.make_spec_schrodinger(g, model.sigma)
        if model.q is not None:
            p = inversion._vec_blocks(model.q.values)
        else:
            p = np.zeros(spec.m, dtype=complex)
    elif problem == "eigenvalues":
        sigma = model.conductivity()
        eig = eigen_decompose(sigma)
        spec = elastic.make_spec_eigenvalues(g, eig)
        p = eig.lam.ravel()
    elif problem == "springs":
        if model.network is None:
            raise SchemaError("springs problem needs spring-network edges (k + positions)")
        spec = elastic.make_spec_static_springs(model.network)
        p = model.network.k.astype(float)
    elif problem == "masses":
        if model.network is None:
            raise SchemaError("masses problem needs spring-network edges (k + positions)")
        spec = elastic.make_spec_masses_known_springs(model.network)
        p = model.network.rho_v
    else:
        raise SchemaError(f"unknown problem {problem!r}")
    return spec, p


def _write_json(path: str | None, doc: dict) -> None:
    # the documents are fresh lists and numbers, so the encoder need not look for a cycle
    text = json.dumps(doc, indent=1, check_circular=False)
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def _supported_regime(model: NetworkModel) -> DirichletRegime:
    """Regime of the network, RegimeError (exit 4) when unsupported. Every
    solve takes the regime's route on its operator, assembled once."""
    regime = dirichlet.classify_regime(model.graph, model.conductivity(), model.q)
    if regime.tag is RegimeTag.UNSUPPORTED:
        raise dirichlet.RegimeError(str(regime.diagnostics))
    return regime


def cmd_forward(args) -> int:
    model = load_network(args.network)
    g = model.graph
    gb = load_boundary(args.boundary, g.num_boundary, model.d)
    regime = _supported_regime(model)
    doc: dict = {"regime": regime.tag.value}
    if regime.route.floppy is not None:
        doc["floppy_dim"] = regime.route.floppy.shape[1]
    u, resid = regime.solve(gb)
    doc["residual"] = resid
    doc["u"] = [[complex_to_json(z) for z in u.values[v]] for v in range(g.num_vertices)]
    doc["vertex_ids"] = list(model.vertex_ids)
    _write_json(args.output, doc)
    return EXIT_OK


def cmd_dtn(args) -> int:
    model = load_network(args.network)
    regime = _supported_regime(model)
    dtn = regime.dtn()
    save_matrix(dtn.matrix, args.output,
                extra={"provenance": dtn.provenance, "symmetry_residual": dtn.asymmetry})
    print(f"provenance: {dtn.provenance}")
    print(f"symmetry residual: {dtn.asymmetry:.3e}")
    return EXIT_OK


def cmd_uniqueness(args) -> int:
    model = load_network(args.network)
    spec, p = _build_spec(model, args.problem)
    verdict = inversion.uniqueness_test(spec, p, args.epsilon)
    print(f"sigma_max: {verdict.sigma_max:.12e}")
    print(f"sigma_min: {verdict.sigma_min:.12e}")
    print(f"verdict: {verdict.verdict}")
    return EXIT_OK if verdict.holds else EXIT_INCONCLUSIVE


def _parse_p0(arg: complex | Path | None, spec, default: np.ndarray) -> np.ndarray:
    if arg is None:
        return default
    if isinstance(arg, Path):
        return load_values(arg)
    fill = np.full(spec.m, arg, dtype=complex)
    return fill.real if spec.is_real else fill


def cmd_invert(args) -> int:
    model = load_network(args.network)
    spec, p_file = _build_spec(model, args.problem)
    target = load_matrix(args.target)
    if target.shape != (spec.n, spec.n):
        raise SchemaError(f"target must be {spec.n} x {spec.n}")
    p0 = _parse_p0(args.p0, spec, p_file)
    p, trace = inversion.newton_invert(spec, target, p0, max_iter=args.max_iters,
                                       residual_tol=args.residual_tol)
    doc = {
        "problem": args.problem,
        "parameters": [complex_to_json(z) for z in np.asarray(p, dtype=complex)],
        "residuals": [float(r) for r in trace.residuals],
        "step_lengths": [float(t) for t in trace.step_lengths],
        "reason": trace.reason,
    }
    _write_json(args.output, doc)
    print(f"terminated: {trace.reason}, residual {trace.residuals[-1]:.3e}",
          file=sys.stderr)
    converged = trace.reason in ("residual", "step")
    return EXIT_OK if converged else EXIT_NONCONVERGED


def cmd_floppy(args) -> int:
    model = load_network(args.network)
    regime = _supported_regime(model)
    modes = regime.route.floppy
    if modes is None:
        print("floppy dimension: 0")
        return EXIT_OK
    print(f"floppy dimension: {modes.shape[1]}")
    # a floppy mode vanishes on the boundary, and a route with one has one
    # level, so its boundary flux (M z)_B is M_BI z_I
    nb, M_BI = regime.route.nb, regime.operator.U[0]
    worst = 0.0
    for c, z in enumerate(modes.T):
        worst = max(worst, float(np.abs(M_BI @ z[nb:]).max(initial=0.0)))
        print(f"mode {c}: {[round(x, 12) for x in z.tolist()]}")
    print(f"max boundary-flux violation: {worst:.3e}")
    return EXIT_OK


def cmd_scan(args) -> int:
    model = load_network(args.network)
    spec, p = _build_spec(model, args.problem)
    rng = np.random.default_rng(args.seed)
    dp = rng.standard_normal(spec.m)
    if not spec.is_real:
        dp = dp + 1j * rng.standard_normal(spec.m)
    scan = inversion.line_rank_scan(spec, p, dp, num_samples=args.samples,
                                   epsilon=args.epsilon, rng=rng)
    print(f"samples: {len(scan.samples)}")
    print(f"near-singular fraction: {scan.near_singular_fraction:.6f}")
    return EXIT_OK


def _checked(cast, ok, rule: str):
    """argparse type: ``cast`` of the text, refused unless ``ok`` holds."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    return parse


_epsilon = _checked(float, lambda x: math.isfinite(x) and x >= 0, "a finite number >= 0")
_samples = _checked(int, lambda n: n >= 1, "an integer >= 1")
_count = _checked(int, lambda n: n >= 0, "an integer >= 0")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")


def _p0(text: str) -> complex | Path:
    """--p0: a JSON file of values, or one scalar or [re, im] pair."""
    if Path(text).is_file():
        return Path(text)
    try:
        return parse_complex(json.loads(text)) if text.startswith("[") else complex(float(text))
    except ValueError as exc:  # includes JSONDecodeError and SchemaError
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a file, a number or an [re, im] pair") from exc


@functools.cache
def make_parser() -> _Parser:
    """The argument parser, built once per process and shared by every call
    of ``main``; each subcommand ``name`` runs ``cmd_<name>``."""
    parser = _Parser(prog="netinv",
                     description="forward and inverse problems on block-weighted networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve a Dirichlet problem")
    p.add_argument("network")
    p.add_argument("boundary")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("dtn", help="export the Dirichlet-to-Neumann map")
    p.add_argument("network")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("uniqueness", help="uniqueness-a.e. singular value test")
    p.add_argument("network")
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--epsilon", type=_epsilon, default=1e-8)

    p = sub.add_parser("invert", help="Newton inversion against a target map")
    p.add_argument("network")
    p.add_argument("target")
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--p0", type=_p0, default=None,
                   help="initial guess: scalar, [re,im], or JSON file of values")
    p.add_argument("--max-iters", type=_count, default=100)
    p.add_argument("--residual-tol", type=_positive, default=1e-10)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("floppy", help="floppy mode report")
    p.add_argument("network")

    p = sub.add_parser("scan", help="Jacobian conditioning along a random line")
    p.add_argument("network")
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--samples", type=_samples, default=1000)
    p.add_argument("--epsilon", type=_epsilon, default=1e-8)
    p.add_argument("--seed", type=_count, default=0)

    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        # looked up at call time, so a rebound cmd_* (a test's patch, a tracer) runs
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, GraphError, FieldError, FileNotFoundError,
            inversion.InadmissibleParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except dirichlet.RegimeError as exc:
        print(f"unsupported regime: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
