"""Span tracing around the calls into each ``netinv`` module, from outside.

``Tracer.install`` rebinds every public function of each module, in every
module namespace that holds it (names imported with ``from ... import`` are
separate bindings), to a wrapper that records a span: name, start, end,
parent and one optional size. The ``make_spec_*`` factories return specs
whose ``forward``, ``states`` and ``admissible`` closures are wrapped too, so
the calls the command line tool makes are caught. ``uninstall`` restores the
original bindings, so untraced passes run the program unchanged.

Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types
from pathlib import Path
from time import perf_counter

MODULES = ("graph", "operators", "dirichlet", "inversion", "elastic", "fileio", "cli")
# per-element helpers, called once per matrix entry; their time stays in the caller
UNWRAPPED = {"fileio.parse_complex", "fileio.complex_to_json"}
SPEC_CALLABLES = ("forward", "states", "admissible")

ASSEMBLY = {f"operators.{f}" for f in (
    "gradient_matrix", "laplacian_matrix", "schrodinger_matrix", "assemble_laplacian",
    "assemble_schrodinger", "projected_gradient_matrix", "scalar_laplacian")}
EIGEN = {"operators.eigen_decompose", "operators.korn_constants",
         "operators.reconstruct_from_eigen"}
SOLVE = {f"dirichlet.{f}" for f in (
    "dtn_pd", "dtn_psd", "solve_dirichlet_pd", "solve_dirichlet_psd", "floppy_basis",
    "dtn_pseudoinverse_oracle")}
CONDUCTIVITY = {f"elastic.{f}" for f in (
    "spring_conductivity", "damper_conductivity", "spring_directions",
    "network_eigendata", "mass_potential", "damper_potential")}

# (name, unit); every name is reported on every workload, 0 where the layer
# is not reached. Times are self times in ms per pass over the workload's
# inputs; counts and bytes are exact per pass.
LAYER_METRICS = (
    ("graph.build_ms", "ms"),
    ("operators.assembly_ms", "ms"),
    ("operators.assembly_calls", "count"),
    ("operators.dense_bytes", "bytes"),
    ("operators.eigen_ms", "ms"),
    ("dirichlet.classify_ms", "ms"),
    ("dirichlet.solve_ms", "ms"),
    ("dirichlet.q_basis_ms", "ms"),
    ("inversion.product_matrix_ms", "ms"),
    ("inversion.W_bytes", "bytes"),
    ("inversion.svd_ms", "ms"),
    ("inversion.states_ms", "ms"),
    ("inversion.states_calls", "count"),
    ("inversion.states_per_W", "ratio"),
    ("inversion.forward_ms", "ms"),
    ("inversion.forward_calls", "count"),
    ("inversion.admissible_ms", "ms"),
    ("inversion.admissible_calls", "count"),
    ("inversion.newton_iters", "count"),
    ("inversion.newton_step_ms", "ms"),
    ("inversion.line_search_accept_ratio", "ratio"),
    ("elastic.spec_build_ms", "ms"),
    ("elastic.conductivity_ms", "ms"),
    ("fileio.load_ms", "ms"),
    ("fileio.save_ms", "ms"),
    ("fileio.bytes_read", "bytes"),
    ("fileio.bytes_written", "bytes"),
    ("cli.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit in ("count", "bytes") or name.endswith("_ratio")
                      or name.endswith("_per_W"))


def _nbytes(out, args):
    matrix = getattr(out, "matrix", out)
    return getattr(matrix, "nbytes", 0)


def _file_size_arg(index):
    def size(out, args):
        return os.path.getsize(args[index]) if len(args) > index else 0
    return size


SIZES = {
    **{name: _nbytes for name in ASSEMBLY},
    "inversion.product_matrix": lambda out, args: out.W.nbytes,
    "inversion.newton_invert": lambda out, args: len(out[1].step_lengths),
    "fileio.load_network": _file_size_arg(0),
    "fileio.load_matrix": _file_size_arg(0),
    "fileio.save_matrix": _file_size_arg(1),
}


class Tracer:
    """Records spans [name, start, end, parent index, size] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._specs: dict[int, object] = {}

    def wrap(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, SIZES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[4] = size(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def spec(self, spec):
        """A copy of ``spec`` whose forward/states/admissible record spans."""
        key = id(spec)
        if key not in self._specs:
            self._specs[key] = (spec, self._traced_spec(spec))
        return self._specs[key][1]

    def _traced_spec(self, spec):
        return dataclasses.replace(spec, **{
            f: self.wrap(f"inversion.spec.{f}", getattr(spec, f)) for f in SPEC_CALLABLES})

    def _wrap_factory(self, name: str, fn):
        def factory(*args, **kwargs):
            # a factory that builds on another (static springs on eigenvalues)
            # wraps only the spec it returns, so no call is counted twice
            nested = any(self.spans[i][0].split(".")[-1].startswith("make_spec_")
                         for i in self._stack[:-1])
            spec = fn(*args, **kwargs)
            return spec if nested else self._traced_spec(spec)
        return self.wrap(name, factory)

    def install(self) -> None:
        package = sys.modules["netinv"]
        modules = [sys.modules[f"netinv.{m}"] for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = (self._wrap_factory(name, fn)
                                    if attr.startswith("make_spec_") else self.wrap(name, fn))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, size."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")


def layer_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of spans[first:last], one traced pass.

    Self time is a span's duration minus the durations of its child spans.
    """
    self_s: dict[int, float] = {}
    for idx in range(first, last):
        rec = spans[idx]
        self_s[idx] = self_s.get(idx, 0.0) + rec[2] - rec[1]
        if rec[3] >= first:
            self_s[rec[3]] = self_s.get(rec[3], 0.0) - (rec[2] - rec[1])

    def name_of(idx):
        return spans[idx][0] if idx >= first else ""

    def ms(names):
        return 1e3 * sum(t for i, t in self_s.items() if spans[i][0] in names)

    def ms_prefix(prefix):
        return 1e3 * sum(t for i, t in self_s.items() if spans[i][0].startswith(prefix))

    def count(name, parent=None):
        return sum(1 for i in range(first, last) if spans[i][0] == name
                   and (parent is None or name_of(spans[i][3]) == parent))

    top_assembly = [i for i in range(first, last)
                    if spans[i][0] in ASSEMBLY and name_of(spans[i][3]) not in ASSEMBLY]
    def size_of(name):
        return sum(spans[i][4] for i in range(first, last) if spans[i][0] == name)

    product_calls = count("inversion.product_matrix")
    newton_calls = count("inversion.newton_invert")
    line_search = count("inversion.spec.forward", "inversion.newton_invert") - newton_calls
    accepted = size_of("inversion.newton_invert")
    return {
        "graph.build_ms": ms_prefix("graph."),
        "operators.assembly_ms": ms(ASSEMBLY),
        "operators.assembly_calls": len(top_assembly),
        "operators.dense_bytes": sum(spans[i][4] for i in top_assembly),
        "operators.eigen_ms": ms(EIGEN),
        "dirichlet.classify_ms": ms({"dirichlet.classify_regime"}),
        "dirichlet.solve_ms": ms(SOLVE),
        "dirichlet.q_basis_ms": ms({"dirichlet.q_basis"}),
        "inversion.product_matrix_ms": ms({"inversion.product_matrix", "inversion.jacobian"}),
        "inversion.W_bytes": size_of("inversion.product_matrix"),
        "inversion.svd_ms": ms({"inversion.uniqueness_test"}),
        "inversion.states_ms": ms({"inversion.spec.states"}),
        "inversion.states_calls": count("inversion.spec.states"),
        "inversion.states_per_W": (count("inversion.spec.states", "inversion.product_matrix")
                                   / product_calls if product_calls else 0.0),
        "inversion.forward_ms": ms({"inversion.spec.forward"}),
        "inversion.forward_calls": count("inversion.spec.forward"),
        "inversion.admissible_ms": ms({"inversion.spec.admissible"}),
        "inversion.admissible_calls": count("inversion.spec.admissible"),
        "inversion.newton_iters": count("inversion.jacobian", "inversion.newton_invert"),
        "inversion.newton_step_ms": ms({"inversion.newton_invert"}),
        "inversion.line_search_accept_ratio": accepted / line_search if line_search else 0.0,
        "elastic.spec_build_ms": ms_prefix("elastic.make_spec_"),
        "elastic.conductivity_ms": ms(CONDUCTIVITY),
        "fileio.load_ms": ms({"fileio.load_network", "fileio.load_matrix"}),
        "fileio.save_ms": ms({"fileio.save_matrix"}),
        "fileio.bytes_read": size_of("fileio.load_network") + size_of("fileio.load_matrix"),
        "fileio.bytes_written": size_of("fileio.save_matrix"),
        "cli.self_ms": ms_prefix("cli."),
        "trace.spans": last - first,
    }
