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
    "vec",
    "unvec",
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


def _symmetrize_blocks(values: np.ndarray, what: str) -> np.ndarray:
    """Symmetric part of a stack of blocks, naming the first block whose
    asymmetry exceeds SYMMETRY_TOL relative to its largest entry."""
    # halved first, so that neither the difference nor the sum can overflow;
    # that gives the same bits in the normal range
    half = 0.5 * values
    swapped = np.transpose(half, (0, 2, 1))
    scale = 0.5 + np.abs(half).max(axis=(1, 2), initial=0.0)
    asymmetric = np.abs(half - swapped).max(axis=(1, 2), initial=0.0) > SYMMETRY_TOL * scale
    if asymmetric.any():
        raise FieldError(f"{what} block {int(asymmetric.argmax())} is not symmetric")
    return half + swapped


@dataclass(frozen=True)
class MatrixEdgeField:
    """One complex d x d symmetric matrix per edge, in edge order."""

    d: int
    values: np.ndarray  # (|E|, d, d)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray | Sequence[np.ndarray]) -> "MatrixEdgeField":
        values = np.asarray(blocks, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise FieldError("edge field needs shape (num_edges, d, d)")
        if not np.isfinite(values).all():
            raise FieldError("edge field has non-finite entries")
        values = _symmetrize_blocks(values, "edge")
        values.setflags(write=False)
        return cls(d=values.shape[1], values=values)


@dataclass(frozen=True)
class MatrixNodeField:
    """One complex d x d symmetric matrix per vertex, indexed by vertex id."""

    d: int
    values: np.ndarray  # (|V|, d, d)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray | Sequence[np.ndarray]) -> "MatrixNodeField":
        values = np.asarray(blocks, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise FieldError("node field needs shape (num_vertices, d, d)")
        if not np.isfinite(values).all():
            raise FieldError("node field has non-finite entries")
        values = _symmetrize_blocks(values, "node")
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

    @classmethod
    def from_canonical(cls, g: Graph, flat: np.ndarray, d: int) -> "VectorNodeField":
        flat = np.asarray(flat, dtype=complex).reshape(g.num_vertices, d)
        values = np.empty_like(flat)
        values[list(g.order)] = flat
        return cls.from_values(values)


def _vertex_rows(g: Graph, d: int) -> np.ndarray:
    """Row permutation from the canonical (position-major) ordering to the
    vertex-id-major one: entry v * d + c is the canonical row of component c
    of vertex v."""
    return (np.asarray(g.position)[:, None] * d + np.arange(d)).ravel()


def _block_outer(S1: np.ndarray, S2: np.ndarray, b: int) -> np.ndarray:
    """Blockwise outer products of two (K b, n) state matrices, (K b b, n n).

    Row (k, c, a), column i + j n holds S1[k b + a, i] * S2[k b + c, j], so
    each column stacks vec(u v^T) over the row groups k of u = S1[:, i] and
    v = S2[:, j].
    """
    n = S1.shape[1]
    return (S1.reshape(-1, 1, b, 1, n) * S2.reshape(-1, b, 1, n, 1)).reshape(-1, n * n)


def _block_outer_split(S: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """W = _block_outer(S, S, b) as the diagonal blocks W+ and W- of one
    orthogonal change of row and column bases, without forming W.

    W[r, (j, i)] = W[pi(r), (i, j)], where pi swaps rows (k, c, a) and
    (k, a, c). Rotating the rows in pi-pairs by (e_r +- e_pi(r)) / sqrt(2)
    and the columns in (i, j)/(j, i) pairs the same way makes W block
    diagonal, so its singular values are those of W+ and W- together. With
    X_r = S[k b + a, i] S[k b + c, j] the entry of W at row r, column (i, j):

    * W+, rows (k, c <= a), columns i <= j: X_r times sqrt(2) (i < j) or 1
      (i = j) on the rows c = a that pi fixes; X_r + X_pi(r) times 1 (i < j)
      or 1/sqrt(2) (i = j) on the others;
    * W-, rows (k, c < a), columns i < j: X_r - X_pi(r); no rows when b = 1.
    """
    n = S.shape[1]
    T = S.reshape(-1, b, n)
    c, a = np.triu_indices(b)
    i, j = np.triu_indices(n)
    pairs, off = c < a, i < j
    X = T[:, a][:, :, i] * T[:, c][:, :, j]
    X_pi = T[:, c[pairs]][:, :, i] * T[:, a[pairs]][:, :, j]
    W_minus = X[:, pairs][:, :, off] - X_pi[:, :, off]
    X[:, pairs] += X_pi
    X *= 2.0 ** (0.5 * ((c == a).astype(int)[:, None] - (i == j)))
    return (X.reshape(len(T) * c.size, i.size),
            W_minus.reshape(len(T) * int(pairs.sum()), int(off.sum())))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v).reshape(shape, order="F")

