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

# Relative threshold for treating an eigenvalue of sigma'(e) as zero.
RANK_TOL = 1e-10
COMMUTE_TOL = 1e-10
# Largest imaginary entry a conductivity may have and still count as real.
_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class BlockOperator:
    """Square matrix over the canonical vertex ordering with named
    boundary/interior sub-blocks; real when the weights are."""

    matrix: np.ndarray  # (d|V|, d|V|)
    d: int
    num_boundary: int

    @property
    def nb(self) -> int:
        return self.d * self.num_boundary

    @property
    def IB(self) -> np.ndarray:
        return self.matrix[self.nb:, : self.nb]


@dataclass(frozen=True)
class EigenData:
    """Eigendecomposition sigma(e) = x(e) diag(lambda(e)) x(e)^T of every edge
    block, with real orthonormal x(e) spanning the range of the real part.

    ``rank`` is the largest edge rank r. Edge e uses the last ``ranks[e]``
    of the r columns, in ascending order of the real eigenvalues; its other
    columns of ``x`` and entries of ``lam`` are zero.
    """

    d: int
    rank: int
    x: np.ndarray  # (|E|, d, r), real
    lam: np.ndarray  # (|E|, r), complex with positive real part where used
    ranks: np.ndarray  # (|E|,), ints in 1..r


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


def _require_finite_sums(g: Graph, diagonal: np.ndarray) -> None:
    """Refuse an operator whose diagonal blocks, (|V|, d, d) in canonical
    order, overflowed. They are its only sums: every other block is one
    finite edge block."""
    bad = ~np.isfinite(diagonal).all(axis=(1, 2))
    if bad.any():
        raise FieldError(f"the summed block at vertex {g.order[int(bad.argmax())]} overflows")


def _real_if_real(a) -> np.ndarray:
    """``a`` as float64 when it has no imaginary part, else as complex128."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def laplacian_matrix(g: Graph, blocks: np.ndarray) -> np.ndarray:
    """Weighted block Laplacian from raw per-edge blocks (no symmetry check),
    scattered into a (|V|, |V|, d, d) array and reshaped to canonical order;
    float64 when the blocks have no imaginary part, else complex128.
    FieldError when a vertex's summed block overflows."""
    blocks = _real_if_real(blocks)
    n, d = g.num_vertices, blocks.shape[1]
    pi, pj = g.edge_positions()
    M = np.zeros((n, n, d, d), dtype=blocks.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        np.add.at(M, (pi, pi), blocks)
        np.add.at(M, (pj, pj), blocks)
    k = np.arange(n)
    _require_finite_sums(g, M[k, k])
    M[pi, pj] = -blocks
    M[pj, pi] = -blocks
    return M.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def schrodinger_matrix(g: Graph, sigma_blocks: np.ndarray, q_blocks: np.ndarray) -> np.ndarray:
    """Laplacian plus the block-diagonal potential, canonical ordering; real
    when neither has an imaginary part.

    ``q_blocks`` is indexed by vertex id and reordered here.
    """
    q_blocks = _real_if_real(q_blocks)
    M = laplacian_matrix(g, sigma_blocks)  # C-contiguous, so the reshape below is a view
    M = M.astype(np.result_type(M, q_blocks), copy=False)
    n, d = g.num_vertices, q_blocks.shape[1]
    D, k = M.reshape(n, d, n, d), np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        D[k, :, k] += q_blocks[list(g.order)]
    _require_finite_sums(g, D[k, :, k])
    return M


def assemble_laplacian(g: Graph, sigma: MatrixEdgeField) -> BlockOperator:
    if sigma.values.shape[0] != g.num_edges:
        raise FieldError("conductivity does not match edge count")
    return BlockOperator(
        matrix=laplacian_matrix(g, sigma.values),
        d=sigma.d,
        num_boundary=g.num_boundary,
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


def _scaled_down(a: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """Each slice of ``a`` over ``axes`` whose largest entry exceeds 2**500,
    divided by the power of two 2**e that brings it below 1, and e (0 for
    the other slices), shaped to broadcast against ``a``. Products and norms
    of slices then stay far inside float range, and since the division is
    exact, each is the unscaled one divided by powers of two. ``a`` itself
    when no slice is that large, so the common case keeps its bits."""
    e = np.frexp(np.abs(a).max(axis=axes, keepdims=True, initial=0.0))[1]
    e = np.where(e > 500, e, 0)
    return (np.ldexp(a, -e) if e.any() else a), e


def eigen_decompose(sigma: MatrixEdgeField) -> EigenData:
    """Eigendecomposition of all edge blocks at once, for conductivities
    whose real and imaginary parts commute and share real eigenvectors.

    Keeps the eigenvalues of sigma'(e) above RANK_TOL times the largest one;
    the imaginary eigenvalues are read off in the same eigenbasis. Raises,
    naming the first failing edge, on non-commuting parts, on a zero real
    part and when the nullspace of the real part is not contained in that of
    the imaginary part.
    """
    d = sigma.d
    sr = sigma.values.real
    # the tests below see the parts scaled down exactly, so that their
    # products and norms cannot overflow; 2**si_exp undoes the scale of si
    sr_u = _scaled_down(sr, (1, 2))[0]
    si, si_exp = _scaled_down(sigma.values.imag, (1, 2))
    comm = sr_u @ si - si @ sr_u
    scale = np.linalg.norm(sr_u, axis=(1, 2)) * np.linalg.norm(si, axis=(1, 2))
    noncommuting = np.linalg.norm(comm, axis=(1, 2)) > COMMUTE_TOL * np.maximum(scale, 1e-300)
    w, v = np.linalg.eigh(sr)
    # eigh sorts ascending, so each edge keeps a suffix of its eigenpairs
    keep = w > RANK_TOL * np.maximum(w[:, -1:], np.finfo(float).tiny)
    ranks = keep.sum(axis=1)
    r = int(ranks.max())
    used = keep[:, d - r:]
    x = np.where(used[:, None, :], v[:, :, d - r:], 0.0)
    # deterministic signs: first nonzero component of each column positive
    nz = np.abs(x) > 1e-14
    first = np.take_along_axis(x, nz.argmax(axis=1)[:, None, :], axis=1)
    x = np.where(nz.any(axis=1, keepdims=True) & (first < 0), -x, x)
    xt = x.transpose(0, 2, 1)
    core = xt @ si @ x
    # nullspace inclusion N(sigma') subset N(sigma'')
    proj_out = si - x @ core @ xt
    si_scale = np.maximum(np.linalg.norm(si, axis=(1, 2)), np.ldexp(1.0, -si_exp[:, 0, 0]))
    uncontained = np.linalg.norm(proj_out, axis=(1, 2)) > 1e-8 * si_scale
    failures = (
        (noncommuting, "real and imaginary parts of edge {} do not commute"),
        (ranks == 0, "edge {} has zero real part"),
        (uncontained, "nullspace of real part of edge {} not contained in that of imaginary part"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in failures])
    if bad.any():
        e = int(bad.argmax())
        raise FieldError(next(msg for mask, msg in failures if mask[e]).format(e))
    lam_imag = np.ldexp(np.diagonal(core, axis1=1, axis2=2), si_exp[:, 0])
    lam = np.where(used, w[:, d - r:], 0.0) + 1j * lam_imag
    return EigenData(d=d, rank=r, x=x, lam=lam, ranks=ranks)


def projected_gradient_matrix(g: Graph, eig: EigenData) -> np.ndarray:
    """diag(x)^T nabla as a dense matrix, shape (sum_e r_e, d|V|): one row
    per used (edge, column) pair, edge by edge."""
    r = eig.rank
    edge, col = np.nonzero(np.arange(r) >= r - eig.ranks[:, None])
    xt = eig.x[edge, :, col]  # (sum_e r_e, d)
    pi, pj = g.edge_positions()
    rows = np.arange(len(edge))
    P = np.zeros((len(edge), g.num_vertices, eig.d))
    P[rows, pi[edge]] = xt
    P[rows, pj[edge]] = -xt
    return P.reshape(len(edge), g.num_vertices * eig.d)


def korn_constants(sigma: MatrixEdgeField) -> tuple[float, float, float]:
    """(lambda_min, smallest positive eigenvalue, lambda_max) over all edge
    blocks of a real conductivity."""
    if np.abs(sigma.values.imag).max(initial=0.0) > _IMAG_TOL:
        raise FieldError("korn constants require a real conductivity")
    all_eigs = np.linalg.eigvalsh(sigma.values.real).ravel()
    lam_max = float(all_eigs.max())
    positive = all_eigs[all_eigs > RANK_TOL * max(lam_max, np.finfo(float).tiny)]
    if positive.size == 0:
        raise FieldError("conductivity has no positive eigenvalues")
    return float(all_eigs.min()), float(positive.min()), lam_max
