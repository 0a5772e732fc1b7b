"""Discrete gradient, block Laplacian / Schrodinger assembly and spectral helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import (
    FieldError,
    Graph,
    MatrixEdgeField,
    MatrixNodeField,
    build_graph,
)

__all__ = [
    "BlockOperator",
    "EigenData",
    "gradient_matrix",
    "assemble_laplacian",
    "assemble_schrodinger",
    "laplacian_matrix",
    "schrodinger_matrix",
    "scalar_laplacian",
    "cylinder_embed",
    "cylinder_graph",
    "cylinder_permutation",
    "eigen_decompose",
    "korn_constants",
    "RANK_TOL",
    "COMMUTE_TOL",
]

# Default relative threshold for treating an eigenvalue of sigma'(e) as zero.
RANK_TOL = 1e-10
COMMUTE_TOL = 1e-10


@dataclass(frozen=True)
class BlockOperator:
    """Complex square matrix over the canonical vertex ordering with named
    boundary/interior sub-blocks."""

    matrix: np.ndarray  # (d|V|, d|V|)
    d: int
    num_boundary: int
    num_interior: int

    @property
    def nb(self) -> int:
        return self.d * self.num_boundary

    @property
    def BB(self) -> np.ndarray:
        return self.matrix[: self.nb, : self.nb]

    @property
    def BI(self) -> np.ndarray:
        return self.matrix[: self.nb, self.nb:]

    @property
    def IB(self) -> np.ndarray:
        return self.matrix[self.nb:, : self.nb]

    @property
    def II(self) -> np.ndarray:
        return self.matrix[self.nb:, self.nb:]


@dataclass(frozen=True)
class EigenData:
    """Per-edge eigendecomposition sigma(e) = x(e) diag(lambda(e)) x(e)^T with
    real orthonormal x(e) spanning the range of the real part."""

    d: int
    rank: int
    x: tuple[np.ndarray, ...]  # each (d, r_e), real
    lam: tuple[np.ndarray, ...]  # each (r_e,), complex with positive real part


def gradient_matrix(g: Graph, d: int) -> np.ndarray:
    """Dense discrete gradient, shape (d|E|, d|V|), canonical column ordering.

    Row block for edge (i, j) with i < j carries +I_d at i and -I_d at j.
    """
    pi, pj = g.edge_positions()
    e = np.arange(g.num_edges)
    D = np.zeros((g.num_edges, d, g.num_vertices, d))
    D[e, :, pi] = np.eye(d)
    D[e, :, pj] = -np.eye(d)
    return D.reshape(d * g.num_edges, d * g.num_vertices)


def laplacian_matrix(g: Graph, blocks: np.ndarray) -> np.ndarray:
    """Weighted block Laplacian from raw per-edge blocks (no symmetry check),
    scattered into a (|V|, |V|, d, d) array and reshaped to canonical order."""
    blocks = np.asarray(blocks, dtype=complex)
    n, d = g.num_vertices, blocks.shape[1]
    pi, pj = g.edge_positions()
    M = np.zeros((n, n, d, d), dtype=complex)
    np.add.at(M, (pi, pi), blocks)
    np.add.at(M, (pj, pj), blocks)
    M[pi, pj] = -blocks
    M[pj, pi] = -blocks
    return M.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def schrodinger_matrix(g: Graph, sigma_blocks: np.ndarray, q_blocks: np.ndarray) -> np.ndarray:
    """Laplacian plus the block-diagonal potential, canonical ordering.

    ``q_blocks`` is indexed by vertex id and reordered here.
    """
    q_blocks = np.asarray(q_blocks, dtype=complex)
    M = laplacian_matrix(g, sigma_blocks)  # C-contiguous, so the reshape below is a view
    n, d = g.num_vertices, q_blocks.shape[1]
    M.reshape(n, d, n, d)[np.arange(n), :, np.arange(n)] += q_blocks[list(g.order)]
    return M


def assemble_laplacian(g: Graph, sigma: MatrixEdgeField) -> BlockOperator:
    if sigma.values.shape[0] != g.num_edges:
        raise FieldError("conductivity does not match edge count")
    return BlockOperator(
        matrix=laplacian_matrix(g, sigma.values),
        d=sigma.d,
        num_boundary=g.num_boundary,
        num_interior=g.num_interior,
    )


def assemble_schrodinger(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField) -> BlockOperator:
    if sigma.d != q.d:
        raise FieldError("conductivity and potential block sizes differ")
    if q.values.shape[0] != g.num_vertices:
        raise FieldError("potential does not match vertex count")
    return BlockOperator(
        matrix=schrodinger_matrix(g, sigma.values, q.values),
        d=sigma.d,
        num_boundary=g.num_boundary,
        num_interior=g.num_interior,
    )


def scalar_laplacian(n: int, edges: Sequence[tuple[int, int]], weights: np.ndarray) -> np.ndarray:
    """Scalar weighted Laplacian in natural vertex-id order (no partition)."""
    weights = np.asarray(weights, dtype=float)
    L = np.zeros((n, n))
    for (i, j), w in zip(edges, weights):
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


def cylinder_embed(
    path: Graph,
    layer: Graph,
    layer_weights: Sequence[np.ndarray],
    coupling_weights: Sequence[np.ndarray],
) -> tuple[MatrixEdgeField, MatrixNodeField]:
    """Matrix conductivity/potential on a path graph encoding a layered
    (cylinder-product) scalar network.

    ``layer_weights[j]`` are the scalar edge weights of copy j of ``layer``;
    ``coupling_weights[j]`` are the scalar weights of the rungs between
    copies j and j+1. Block dimension is the layer's vertex count.
    """
    k = path.num_vertices
    expected = tuple((j, j + 1) for j in range(k - 1))
    if path.edges != expected:
        raise FieldError("path graph must have edges (0,1),...,(k-2,k-1)")
    if len(layer_weights) != k or len(coupling_weights) != k - 1:
        raise FieldError("need k layer weight vectors and k-1 coupling vectors")
    d = layer.num_vertices
    q_blocks = np.empty((k, d, d), dtype=complex)
    for j in range(k):
        w = np.asarray(layer_weights[j], dtype=float)
        if w.shape != (layer.num_edges,):
            raise FieldError("layer weight vector has wrong length")
        q_blocks[j] = scalar_laplacian(d, layer.edges, w)
    s_blocks = np.empty((k - 1, d, d), dtype=complex)
    for j in range(k - 1):
        w = np.asarray(coupling_weights[j], dtype=float)
        if w.shape != (d,):
            raise FieldError("coupling weight vector has wrong length")
        s_blocks[j] = np.diag(w)
    return (
        MatrixEdgeField.from_blocks(s_blocks),
        MatrixNodeField.from_blocks(q_blocks),
    )


def cylinder_graph(path: Graph, layer: Graph, boundary: Sequence[int] | None = None) -> Graph:
    """Cartesian product graph: vertex (j, v) gets id j * |V(layer)| + v.

    Edge order matches the weight layout of :func:`cylinder_scalar_weights`:
    first all within-layer edges (layer 0, 1, ...), then all rungs.
    """
    k = path.num_vertices
    d = layer.num_vertices
    edges: list[tuple[int, int]] = []
    for j in range(k):
        for a, b in layer.edges:
            edges.append((j * d + a, j * d + b))
    for j in range(k - 1):
        for v in range(d):
            edges.append((j * d + v, (j + 1) * d + v))
    if boundary is None:
        boundary = [0]
    return build_graph(k * d, boundary, edges)


def cylinder_scalar_weights(
    layer_weights: Sequence[np.ndarray], coupling_weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Scalar weight vector matching the edge order of :func:`cylinder_graph`."""
    return np.concatenate([np.asarray(w, dtype=float).ravel() for w in layer_weights]
                          + [np.asarray(w, dtype=float).ravel() for w in coupling_weights])


def cylinder_permutation(path: Graph, layer: Graph, cyl: Graph) -> np.ndarray:
    """Index map pi with M_path == M_cyl[pi][:, pi].

    Canonical index ``path.position[j] * d + v`` of the block operator on the
    path corresponds to canonical index ``cyl.position[j * d + v]`` of the
    scalar operator on the product graph.
    """
    d = layer.num_vertices
    pi = np.empty(path.num_vertices * d, dtype=int)
    for j in range(path.num_vertices):
        for v in range(d):
            pi[path.position[j] * d + v] = cyl.position[j * d + v]
    return pi


def eigen_decompose(
    sigma: MatrixEdgeField,
    rank_tol: float = RANK_TOL,
    *,
    uniform_rank: bool = True,
) -> EigenData:
    """Per-edge eigendecomposition for conductivities whose real and imaginary
    parts commute and share real eigenvectors.

    Keeps the eigenvalues of sigma'(e) above ``rank_tol`` times the largest
    one; the imaginary eigenvalues are read off in the same eigenbasis.
    Raises on non-commuting parts or when the nullspace of the real part is
    not contained in that of the imaginary part.
    """
    xs: list[np.ndarray] = []
    lams: list[np.ndarray] = []
    ranks: list[int] = []
    for e, block in enumerate(sigma.values):
        sr = block.real
        si = block.imag
        comm = sr @ si - si @ sr
        scale = np.linalg.norm(sr) * np.linalg.norm(si)
        if np.linalg.norm(comm) > COMMUTE_TOL * max(scale, 1e-300):
            raise FieldError(f"real and imaginary parts of edge {e} do not commute")
        w, v = np.linalg.eigh(sr)
        lam_max = w.max(initial=0.0)
        keep = w > rank_tol * max(lam_max, np.finfo(float).tiny)
        if not keep.any():
            raise FieldError(f"edge {e} has zero real part")
        x = v[:, keep]
        # deterministic signs: first nonzero component of each column positive
        for c in range(x.shape[1]):
            col = x[:, c]
            nz = np.flatnonzero(np.abs(col) > 1e-14)
            if nz.size and col[nz[0]] < 0:
                x[:, c] = -col
        # nullspace inclusion N(sigma') subset N(sigma'')
        proj_out = si - x @ (x.T @ si @ x) @ x.T
        si_scale = max(np.linalg.norm(si), 1.0)
        if np.linalg.norm(proj_out) > 1e-8 * si_scale:
            raise FieldError(
                f"nullspace of real part of edge {e} not contained in that of imaginary part"
            )
        lam = w[keep] + 1j * np.diag(x.T @ si @ x)
        xs.append(x)
        lams.append(lam)
        ranks.append(x.shape[1])
    if uniform_rank and len(set(ranks)) > 1:
        raise FieldError(f"edges have different ranks {sorted(set(ranks))}; "
                         "pass uniform_rank=False to allow this")
    return EigenData(d=sigma.d, rank=max(ranks), x=tuple(xs), lam=tuple(lams))


def reconstruct_from_eigen(eig: EigenData) -> MatrixEdgeField:
    blocks = np.stack([x @ np.diag(lam) @ x.T for x, lam in zip(eig.x, eig.lam)])
    return MatrixEdgeField.from_blocks(blocks)


def projected_gradient_matrix(g: Graph, eig: EigenData) -> np.ndarray:
    """diag(x)^T nabla as a dense matrix, shape (sum_e r_e, d|V|)."""
    xt = np.concatenate(eig.x, axis=1).T  # (sum_e r_e, d)
    edge = np.repeat(np.arange(g.num_edges), [x.shape[1] for x in eig.x])
    pi, pj = g.edge_positions()
    rows = np.arange(len(edge))
    P = np.zeros((len(edge), g.num_vertices, eig.d))
    P[rows, pi[edge]] = xt
    P[rows, pj[edge]] = -xt
    return P.reshape(len(edge), g.num_vertices * eig.d)


def korn_constants(sigma: MatrixEdgeField, imag_tol: float = 1e-12) -> tuple[float, float, float]:
    """(lambda_min, smallest positive eigenvalue, lambda_max) over all edge
    blocks of a real conductivity."""
    if np.abs(sigma.values.imag).max(initial=0.0) > imag_tol:
        raise FieldError("korn constants require a real conductivity")
    all_eigs = np.linalg.eigvalsh(sigma.values.real).ravel()
    lam_max = float(all_eigs.max())
    positive = all_eigs[all_eigs > RANK_TOL * max(lam_max, np.finfo(float).tiny)]
    if positive.size == 0:
        raise FieldError("conductivity has no positive eigenvalues")
    return float(all_eigs.min()), float(positive.min()), lam_max
