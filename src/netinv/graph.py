"""Graphs with a boundary/interior split, block-structured fields and tensor primitives.

All block matrices downstream use the canonical vertex ordering: boundary
nodes first (in the order they were given), then interior nodes in ascending
id order. Edge orientation is always from the smaller vertex id to the
larger, so rebuilding the same graph gives bit-identical layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "GraphError",
    "FieldError",
    "Graph",
    "build_graph",
    "MatrixEdgeField",
    "MatrixNodeField",
    "VectorNodeField",
    "TOL",
]

# The one relative zero: at most TOL times the scale it is measured against
# (a block's largest entry, an edge's largest eigenvalue, max|sigma'|).
TOL = 1e-10


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
        """Canonical positions of the endpoints i and j of every edge (i, j);
        built once per graph, read-only."""
        return self._edge_positions

    @cached_property
    def _edge_positions(self) -> tuple[np.ndarray, np.ndarray]:
        pos = np.asarray(self.position, dtype=np.intp)
        ends = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        pi, pj = pos[ends[:, 0]], pos[ends[:, 1]]
        pi.setflags(write=False)
        pj.setflags(write=False)
        return pi, pj

    @cached_property
    def boundary_distance(self) -> np.ndarray:
        """Graph distance of every vertex from the boundary, in canonical
        order: 0 on the boundary, -1 where the boundary does not reach.
        Computed once per graph, by a breadth-first search over the edge
        arrays, a numpy step per level; read-only."""
        pi, pj = self.edge_positions()
        dist = np.where(np.arange(self.num_vertices) < self.num_boundary, 0, -1)
        front, k = dist == 0, 0
        while front.any():
            k += 1
            near = np.zeros(self.num_vertices, dtype=bool)
            near[pj[front[pi]]] = near[pi[front[pj]]] = True
            front = near & (dist < 0)
            dist[front] = k
        dist.setflags(write=False)
        return dist

    @cached_property
    def interior_levels(self) -> tuple[np.ndarray, ...]:
        """The interior split by ``boundary_distance``, as arrays of interior
        indices (canonical position less num_boundary), ascending within each
        level. Level 1 is the interior neighbours of the boundary; vertices
        the boundary does not reach form one last level. Every edge joins
        equal or consecutive levels, so the interior block of an operator is
        block tridiagonal on them."""
        inner = self.boundary_distance[self.num_boundary:]
        k = int(inner.max(initial=0)) + 1
        inner = np.where(inner < 0, k, inner)  # unreached: one level after the last
        return tuple(lev for lev in (np.flatnonzero(inner == j) for j in range(1, k + 1))
                     if lev.size)


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


def _symmetrize_blocks(values: np.ndarray, what: str) -> np.ndarray:
    """Symmetric part of a stack of blocks, naming the first block whose
    asymmetry exceeds TOL times its largest entry, so that 2^k B is refused
    exactly when B is."""
    # halved first, so that neither the difference nor the sum can overflow;
    # that gives the same bits in the normal range
    half = 0.5 * values
    swapped = np.transpose(half, (0, 2, 1))
    asymmetric = (np.abs(half - swapped).max(axis=(1, 2), initial=0.0)
                  > TOL * np.abs(half).max(axis=(1, 2), initial=0.0))
    if asymmetric.any():
        raise FieldError(f"{what} block {int(asymmetric.argmax())} is not symmetric")
    return half + swapped


@dataclass(frozen=True)
class _BlockField:
    """One complex d x d symmetric matrix per item; a subclass names the
    item as ``what`` and the Graph attribute that counts them as ``items``."""

    d: int
    values: np.ndarray  # (items, d, d)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray | Sequence[np.ndarray]):
        values = np.asarray(blocks, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise FieldError(f"{cls.what} field needs shape ({cls.items}, d, d)")
        if not np.isfinite(values).all():
            raise FieldError(f"{cls.what} field has non-finite entries")
        values = _symmetrize_blocks(values, cls.what)
        values.setflags(write=False)
        return cls(d=values.shape[1], values=values)


class MatrixEdgeField(_BlockField):
    """One complex d x d symmetric matrix per edge, in edge order."""

    what, items = "edge", "num_edges"


class MatrixNodeField(_BlockField):
    """One complex d x d symmetric matrix per vertex, indexed by vertex id."""

    what, items = "node", "num_vertices"


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


def _edge_rows(g: Graph, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical rows of the d components at the ends i and j of every edge
    (i, j), edge by edge: U[plus] - U[minus] is the edge gradient of the
    canonical state matrix U, (d|E|, n)."""
    pi, pj = g.edge_positions()
    return (pi[:, None] * d + np.arange(d)).ravel(), (pj[:, None] * d + np.arange(d)).ravel()


def _block_outer(S1: np.ndarray, S2: np.ndarray, b: int) -> np.ndarray:
    """Blockwise outer products of two (K b, n) state matrices, (K b b, n n).

    Row (k, c, a), column i + j n holds S1[k b + a, i] * S2[k b + c, j], so
    each column stacks vec(u v^T) over the row groups k of u = S1[:, i] and
    v = S2[:, j].
    """
    n = S1.shape[1]
    return (S1.reshape(-1, 1, b, 1, n) * S2.reshape(-1, b, 1, n, 1)).reshape(-1, n * n)


def _split_plan(nonzero: np.ndarray, b: int) -> tuple[np.ndarray, ...]:
    """What the split of _block_outer_split keeps, from the zero pattern of
    a state matrix (``nonzero``, (K, n): whether row group k of state i has
    a nonzero entry): the pairs i <= j of states that meet, both nonzero in
    some row group, in np.triu_indices order, the positions of the pairs
    i < j among them (the columns of W-) and the scale of each row (c, a)
    and pair of W+."""
    count = nonzero.astype(float)
    i, j = np.nonzero(np.triu(count.T @ count))
    c, a = np.triu_indices(b)
    scale = 2.0 ** (0.5 * ((c == a).astype(int)[:, None] - (i == j)))
    return i, j, np.flatnonzero(i < j), scale


def _block_outer_split(S: np.ndarray, b: int, plan: tuple | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
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

    Only the pairs i <= j whose states meet get a column (``_split_plan``,
    from S's zero pattern unless ``plan`` gives it); the others are zero and
    change no singular value. For b = 1, W+ is S[:, i] S[:, j] times the
    scale. The blocks are written in place, each product of two states into
    an array that is neither factor: numpy may round such a complex product
    otherwise.
    """
    n = S.shape[1]
    T = np.ascontiguousarray(S).reshape(-1, b, n)
    i, j, off, scale = plan if plan is not None else _split_plan((T != 0).any(axis=1), b)
    c, a = np.triu_indices(b)
    W_plus = np.empty((len(T), c.size, i.size), T.dtype)
    W_minus = np.empty((len(T), c.size - b, off.size), T.dtype)
    tmp = np.empty((3, len(T), i.size), T.dtype)

    def product(out: np.ndarray, x: int, y: int) -> np.ndarray:
        """out = S[k b + x, i] S[k b + y, j] for every row group k."""
        return np.multiply(np.take(T[:, x], i, axis=1, out=tmp[0], mode="clip"),
                           np.take(T[:, y], j, axis=1, out=tmp[1], mode="clip"), out=out)

    for r, (cr, ar) in enumerate(zip(c, a)):
        X = product(W_plus[:, r], ar, cr)
        if cr < ar:
            X_pi = product(tmp[2], cr, ar)
            # r less the cr + 1 rows c = a before it is the row of W-
            np.subtract(np.take(X, off, axis=1, out=tmp[0, :, :off.size], mode="clip"),
                        np.take(X_pi, off, axis=1, out=tmp[1, :, :off.size], mode="clip"),
                        out=W_minus[:, r - cr - 1])
            np.add(X, X_pi, out=X)
    W_plus *= scale
    return (W_plus.reshape(len(T) * c.size, i.size),
            W_minus.reshape(len(T) * (c.size - b), off.size))
