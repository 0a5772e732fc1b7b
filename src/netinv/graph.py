"""Graphs with a boundary/interior split, block-structured fields and tensor primitives.

All block matrices downstream use the canonical vertex ordering: boundary
nodes first (in the order they were given), then interior nodes in ascending
id order. Edge orientation is always from the smaller vertex id to the
larger, so rebuilding the same graph gives bit-identical layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "GraphError",
    "FieldError",
    "Graph",
    "build_graph",
    "is_connected",
    "is_interior_connected",
    "MatrixEdgeField",
    "MatrixNodeField",
    "VectorNodeField",
    "VectorEdgeField",
    "vec",
    "unvec",
    "outer",
    "hadamard",
    "kron",
    "SYMMETRY_TOL",
]

# Relative tolerance for the symmetry check at field construction.
SYMMETRY_TOL = 1e-10


class GraphError(ValueError):
    """Invalid graph construction (self-loop, duplicate edge, bad ids...)."""


class FieldError(ValueError):
    """Invalid field data (shape mismatch, asymmetric blocks...)."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph with boundary nodes listed first in the block ordering.

    Vertex ids are 0..num_vertices-1. ``order`` maps block position ->
    vertex id (boundary first, then interior ascending); ``position`` is its
    inverse.
    """

    num_vertices: int
    boundary: tuple[int, ...]
    interior: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    order: tuple[int, ...] = field(repr=False)
    position: tuple[int, ...] = field(repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_boundary(self) -> int:
        return len(self.boundary)

    @property
    def num_interior(self) -> int:
        return len(self.interior)

    def edge_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical positions of the endpoints i and j of every edge (i, j)."""
        pos = np.asarray(self.position, dtype=np.intp)
        ends = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        return pos[ends[:, 0]], pos[ends[:, 1]]


def build_graph(n: int, boundary: Sequence[int], edges: Sequence[Sequence[int]]) -> Graph:
    """Build a graph with ``n`` vertices, the given boundary set and edge list.

    Edges are unordered pairs; the stored orientation is (min, max). Edge
    order follows the input order.
    """
    if n <= 0:
        raise GraphError("graph needs at least one vertex")
    boundary = list(boundary)
    if not boundary:
        raise GraphError("boundary set must be nonempty")
    if len(set(boundary)) != len(boundary):
        raise GraphError("duplicate boundary ids")
    for v in boundary:
        if not (0 <= v < n):
            raise GraphError(f"boundary id {v} out of range")
    canon = []
    seen = set()
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise GraphError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i},{j}) has id out of range")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        canon.append(key)
    bset = set(boundary)
    interior = tuple(v for v in range(n) if v not in bset)
    order = tuple(boundary) + interior
    position = [0] * n
    for pos, v in enumerate(order):
        position[v] = pos
    return Graph(
        num_vertices=n,
        boundary=tuple(boundary),
        interior=interior,
        edges=tuple(canon),
        order=order,
        position=tuple(position),
    )


def _components(n: int, edges: Sequence[tuple[int, int]], nodes: Sequence[int]) -> int:
    """Number of connected components of the subgraph induced by ``nodes``."""
    nodeset = set(nodes)
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for i, j in edges:
        if i in nodeset and j in nodeset:
            adj[i].append(j)
            adj[j].append(i)
    seen: set[int] = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def is_connected(g: Graph) -> bool:
    return _components(g.num_vertices, g.edges, range(g.num_vertices)) <= 1


def is_interior_connected(g: Graph) -> bool:
    """Connectivity of the subgraph induced by interior nodes (vacuously true
    when the interior is empty)."""
    if not g.interior:
        return True
    return _components(g.num_vertices, g.edges, g.interior) <= 1


def _symmetrize_blocks(values: np.ndarray, what: str, check: bool) -> np.ndarray:
    if check:
        for idx, a in enumerate(values):
            scale = 1.0 + np.abs(a).max(initial=0.0)
            if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOL * scale:
                raise FieldError(f"{what} block {idx} is not symmetric")
    return 0.5 * (values + np.transpose(values, (0, 2, 1)))


@dataclass(frozen=True)
class MatrixEdgeField:
    """One complex d x d symmetric matrix per edge, in edge order."""

    d: int
    values: np.ndarray  # (|E|, d, d)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray | Sequence[np.ndarray], *, symmetric: bool = True) -> "MatrixEdgeField":
        values = np.asarray(blocks, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise FieldError("edge field needs shape (num_edges, d, d)")
        if not np.isfinite(values).all():
            raise FieldError("edge field has non-finite entries")
        if symmetric:
            values = _symmetrize_blocks(values, "edge", check=True)
        values.setflags(write=False)
        return cls(d=values.shape[1], values=values)

    @classmethod
    def constant(cls, num_edges: int, block: np.ndarray) -> "MatrixEdgeField":
        block = np.asarray(block, dtype=complex)
        return cls.from_blocks(np.broadcast_to(block, (num_edges,) + block.shape).copy())


@dataclass(frozen=True)
class MatrixNodeField:
    """One complex d x d symmetric matrix per vertex, indexed by vertex id."""

    d: int
    values: np.ndarray  # (|V|, d, d)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray | Sequence[np.ndarray], *, symmetric: bool = True) -> "MatrixNodeField":
        values = np.asarray(blocks, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise FieldError("node field needs shape (num_vertices, d, d)")
        if not np.isfinite(values).all():
            raise FieldError("node field has non-finite entries")
        if symmetric:
            values = _symmetrize_blocks(values, "node", check=True)
        values.setflags(write=False)
        return cls(d=values.shape[1], values=values)

    @classmethod
    def zero(cls, num_vertices: int, d: int) -> "MatrixNodeField":
        return cls.from_blocks(np.zeros((num_vertices, d, d), dtype=complex))


@dataclass(frozen=True)
class VectorNodeField:
    """One complex d-vector per vertex, indexed by vertex id."""

    d: int
    values: np.ndarray  # (|V|, d)

    @classmethod
    def from_values(cls, values: np.ndarray | Sequence[Sequence[complex]]) -> "VectorNodeField":
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise FieldError("node vector field needs shape (num_vertices, d)")
        values = values.copy()
        values.setflags(write=False)
        return cls(d=values.shape[1], values=values)

    def canonical(self, g: Graph) -> np.ndarray:
        """Flat length d|V| vector in the canonical (boundary-first) ordering."""
        return self.values[list(g.order)].reshape(-1)

    def boundary_values(self, g: Graph) -> np.ndarray:
        return self.values[list(g.boundary)].reshape(-1)

    def interior_values(self, g: Graph) -> np.ndarray:
        return self.values[list(g.interior)].reshape(-1)

    @classmethod
    def from_canonical(cls, g: Graph, flat: np.ndarray, d: int) -> "VectorNodeField":
        flat = np.asarray(flat, dtype=complex).reshape(g.num_vertices, d)
        values = np.empty_like(flat)
        values[list(g.order)] = flat
        return cls.from_values(values)


@dataclass(frozen=True)
class VectorEdgeField:
    """One complex vector per edge (gradients, projected gradients)."""

    d: int
    values: np.ndarray  # (|E|, d)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "VectorEdgeField":
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2:
            raise FieldError("edge vector field needs shape (num_edges, d)")
        values = values.copy()
        values.setflags(write=False)
        return cls(d=values.shape[1], values=values)


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v).reshape(shape, order="F")


def vec_edge_field(f: MatrixEdgeField) -> np.ndarray:
    """Concatenation of the per-edge column-stackings, in edge order."""
    return np.concatenate([vec(b) for b in f.values])


def outer(u: VectorEdgeField, v: VectorEdgeField) -> MatrixEdgeField:
    """Block-wise outer product: per edge u(e) v(e)^T."""
    if u.d != v.d or u.values.shape[0] != v.values.shape[0]:
        raise FieldError("outer product needs matching fields")
    blocks = np.einsum("ei,ej->eij", u.values, v.values)
    return MatrixEdgeField(d=u.d, values=blocks)


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise product of two equal-length vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise FieldError("hadamard product needs equal lengths")
    return a * b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))
