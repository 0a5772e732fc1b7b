"""JSON network documents and complex matrix files for the CLI."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .elastic import ElasticNetwork, spring_conductivity
from .graph import Graph, MatrixEdgeField, MatrixNodeField, build_graph

__all__ = [
    "SchemaError",
    "NetworkModel",
    "load_network",
    "save_matrix",
    "load_matrix",
    "parse_complex",
    "complex_to_json",
]


class SchemaError(ValueError):
    """Malformed network or matrix document."""


# JSON numbers; bool is a subclass of int, but true and false are not numbers
_NUMBER_TYPES = {int, float}


def parse_complex(value) -> complex:
    """A finite JSON complex number: either a plain number or an [re, im] pair."""
    pair = [value, 0.0] if type(value) in _NUMBER_TYPES else value
    if isinstance(pair, list) and len(pair) == 2 \
            and all(type(x) in _NUMBER_TYPES for x in pair):
        try:
            z = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
    raise SchemaError(f"expected a finite number or [re, im] pair, got {value!r}")


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # also an integer literal beyond the digit limit
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _parse_complex_matrix(data, shape: tuple[int, int], what: str) -> np.ndarray:
    try:
        m = np.array([[parse_complex(x) for x in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc
    if m.shape != shape:
        raise SchemaError(f"{what} must be {shape[0]}x{shape[1]}")
    return m


def _numbers(values) -> np.ndarray | None:
    """``values`` as a float array, read by one np.array call; None unless it
    is a regular array whose every entry is a JSON number within float range."""
    try:
        arr = np.array(values, dtype=object)
        if set(map(type, arr.ravel().tolist())) <= _NUMBER_TYPES:
            return arr.astype(float)
    except (ValueError, OverflowError):  # ragged nesting; an integer beyond float range
        pass
    return None


def _pairs_to_complex(a: np.ndarray) -> np.ndarray:
    """Complex array of the trailing [re, im] pairs of ``a``; assigned part by
    part, so a signed zero keeps its sign (re + 1j*im would not)."""
    z = np.empty(a.shape[:-1], dtype=complex)
    z.real, z.imag = a[..., 0], a[..., 1]
    return z


def _complex_array(values, shape: tuple[int, ...], per_entry) -> np.ndarray:
    """A complex field of ``shape`` from JSON ``values``, all plain numbers or
    all [re, im] pairs, read as one array. Anything else (mixed forms, or an
    entry that is not a finite number) is read by ``per_entry()``, which parses
    entry by entry, names the entry at fault and gives the same bits."""
    a = _numbers(values)
    if a is not None and np.isfinite(a).all():
        if a.shape == shape or (a.shape == (0,) and shape[0] == 0):  # no rows, so no columns
            return a.astype(complex).reshape(shape)
        if a.shape == (*shape, 2):
            return _pairs_to_complex(a)
    return per_entry()


def _floats(values, what: str, ndim: int) -> np.ndarray:
    arr = _numbers(values)
    if arr is None:
        raise SchemaError(f"bad {what}: expected an array of JSON numbers within float range")
    if arr.ndim != ndim:
        raise SchemaError(f"bad {what}: expected {ndim} array dimensions")
    return arr


@dataclass(frozen=True)
class NetworkModel:
    """Parsed network document.

    Either ``sigma`` (explicit conductivity blocks) or ``network`` (spring
    geometry) is present; ``q`` and ``omega`` are optional extras.
    """

    graph: Graph
    d: int
    sigma: MatrixEdgeField | None
    q: MatrixNodeField | None
    network: ElasticNetwork | None
    omega: float | None
    vertex_ids: tuple[int, ...]

    def conductivity(self) -> MatrixEdgeField:
        if self.sigma is not None:
            return self.sigma
        assert self.network is not None
        return spring_conductivity(self.network)


def load_network(path: str | Path) -> NetworkModel:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("network document must be a JSON object")
    for key in ("d", "vertices", "edges"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    d = doc["d"]
    if type(d) is not int or d < 1:
        raise SchemaError("d must be a positive integer")

    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise SchemaError("vertices must be a nonempty list")
    ids = []
    for k, v in enumerate(vertices):
        if not isinstance(v, dict) or "id" not in v:
            raise SchemaError("each vertex needs an 'id'")
        if type(v["id"]) is not int:  # hashed below; bool is not an int here
            raise SchemaError(f"vertex {k} has id {v['id']!r}, not an integer")
        ids.append(v["id"])
    if len(set(ids)) != len(ids):
        raise SchemaError("duplicate vertex ids")
    index = {vid: k for k, vid in enumerate(ids)}
    boundary = [index[v["id"]] for v in vertices if v.get("boundary", False)]
    if not boundary:
        raise SchemaError("at least one vertex must be marked boundary")

    edges_doc = doc["edges"]
    if not isinstance(edges_doc, list) or not edges_doc:
        raise SchemaError("edges must be a nonempty list")
    pairs = []
    for k, e in enumerate(edges_doc):
        if not isinstance(e, dict) or "i" not in e or "j" not in e:
            raise SchemaError("each edge needs 'i' and 'j'")
        if type(e["i"]) is not int or type(e["j"]) is not int:
            raise SchemaError(f"edge {k} has ends ({e['i']!r}, {e['j']!r}), not integers")
        if e["i"] not in index or e["j"] not in index:
            raise SchemaError(f"edge ({e['i']},{e['j']}) references unknown vertex")
        pairs.append((index[e["i"]], index[e["j"]]))
    try:
        g = build_graph(len(vertices), boundary, pairs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    has_sigma = ["sigma" in e for e in edges_doc]
    has_k = ["k" in e for e in edges_doc]
    if all(has_sigma) and not any(has_k):
        sigma = MatrixEdgeField.from_blocks(_complex_array(
            [e["sigma"] for e in edges_doc], (len(edges_doc), d, d), lambda: np.stack([
                _parse_complex_matrix(e["sigma"], (d, d), f"sigma of edge ({e['i']},{e['j']})")
                for e in edges_doc])))
        network = None
    elif all(has_k) and not any(has_sigma):
        if any("position" not in v for v in vertices):
            raise SchemaError("spring edges need a 'position' on every vertex")
        pos = _floats([v["position"] for v in vertices], "vertex positions", 2)
        if pos.shape[1] != d:
            raise SchemaError(f"positions must have dimension d={d}")
        try:
            network = ElasticNetwork(
                graph=g, positions=pos,
                k=_floats([e["k"] for e in edges_doc], "spring constants", 1),
                c_e=_floats([e.get("c_e", 0.0) for e in edges_doc], "spring dampers", 1),
                mass=_floats([v.get("mass", 1.0) for v in vertices], "masses", 1),
                c_v=_floats([v.get("c_v", 0.0) for v in vertices], "nodal dampers", 1),
                omega=float(_floats(doc.get("omega", 1.0), "omega", 0)),
            )
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        sigma = None
    else:
        raise SchemaError("edges must all carry 'sigma' blocks or all carry 'k'")

    q = None
    if "q" in doc:
        q_doc = doc["q"]
        if not isinstance(q_doc, list) or len(q_doc) != len(vertices):
            raise SchemaError("q must list one d x d block per vertex")
        q = MatrixNodeField.from_blocks(_complex_array(
            q_doc, (len(q_doc), d, d), lambda: np.stack([
                _parse_complex_matrix(block, (d, d), f"q of vertex {ids[k]}")
                for k, block in enumerate(q_doc)])))

    omega = float(_floats(doc["omega"], "omega", 0)) if "omega" in doc else None
    return NetworkModel(
        graph=g, d=d, sigma=sigma, q=q, network=network, omega=omega,
        vertex_ids=tuple(ids),
    )


def _json_pairs(m: np.ndarray) -> str:
    """The [re, im] pairs of a complex matrix as json.dumps writes their
    nested lists, formatting each distinct float once. Distinct means
    distinct bits, so -0.0 and 0.0 stay apart."""
    r, c = m.shape
    bits = np.ascontiguousarray(m).view(np.uint64)  # (r, 2c): re, im, re, im, ...
    unique, inverse = np.unique(bits, return_inverse=True)
    # float.__repr__ is what json.dumps writes for a finite float
    words = np.array([float.__repr__(x) if math.isfinite(x) else json.dumps(x)
                      for x in unique.view(float).tolist()], dtype=object)
    row = "[" + ", ".join(["[%s, %s]"] * c) + "]"
    return ("[" + ", ".join([row] * r) + "]") % tuple(words[inverse.ravel()].tolist())


def save_matrix(m: np.ndarray, path: str | Path, extra: dict | None = None) -> None:
    """Write a complex matrix; JSON round-trips exactly, CSV is 17-digit."""
    m = np.asarray(m, dtype=complex)
    path = Path(path)
    if path.suffix == ".csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rows", m.shape[0], "cols", m.shape[1]])
            for row in m:
                out = []
                for z in row:
                    out.append(f"{z.real:.17g}")
                    out.append(f"{z.imag:.17g}")
                writer.writerow(out)
        return
    data = object()  # stands for the matrix, whose text is written below
    doc = {"shape": [int(m.shape[0]), int(m.shape[1])], "data": data}
    if extra:
        doc.update(extra)
    path.write_text("{" + ", ".join(
        f'"data": {_json_pairs(m)}' if value is data
        else json.dumps({key: value}, check_circular=False)[1:-1]
        for key, value in doc.items()) + "}")


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or len(rows[0]) != 4 or rows[0][0] != "rows":
            raise SchemaError("csv matrix needs a 'rows,r,cols,c' header")
        try:
            r, c = int(rows[0][1]), int(rows[0][3])
            vals = np.array(rows[1:], dtype=float).reshape(r, 2 * c)
        except ValueError as exc:
            raise SchemaError(f"bad csv matrix in {path}: {exc}") from exc
        if not np.isfinite(vals).all():
            raise SchemaError(f"csv matrix in {path} has non-finite entries")
        return _pairs_to_complex(vals.reshape(r, c, 2))
    doc = _read_json(path)
    if not isinstance(doc, dict) or "shape" not in doc or "data" not in doc:
        raise SchemaError("matrix document needs 'shape' and 'data'")
    if not isinstance(doc["shape"], list) or len(doc["shape"]) != 2 \
            or not all(type(n) is int and n >= 0 for n in doc["shape"]):
        raise SchemaError("matrix 'shape' must be [rows, cols], two integers >= 0")
    shape, data = tuple(doc["shape"]), doc["data"]
    return _complex_array(data, shape, lambda: _parse_complex_matrix(data, shape, "matrix data"))
