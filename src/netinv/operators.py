"""Block Laplacian / Schrodinger assembly, the layered embedding and the edge eigendecomposition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import FieldError, Graph, MatrixEdgeField, MatrixNodeField

__all__ = [
    "EigenData",
    "laplacian_matrix",
    "schrodinger_matrix",
    "cylinder_embed",
    "eigen_decompose",
    "RANK_TOL",
    "COMMUTE_TOL",
    "JOINT_TOL",
    "JOINT_SWEEPS",
]

# Relative threshold for treating an eigenvalue of sigma'(e) as zero.
RANK_TOL = 1e-10
COMMUTE_TOL = 1e-10
# Largest off-diagonal entry of x^T sigma'' x, relative to its largest entry,
# that eigen_decompose leaves in place; a larger one is rotated away.
JOINT_TOL = 2.0 ** -46
# Jacobi sweeps of that rotation; each pass roughly squares what is left.
JOINT_SWEEPS = 6


@dataclass(frozen=True)
class EigenData:
    """Eigendecomposition sigma(e) = x(e) diag(lambda(e)) x(e)^T of every edge
    block, with real orthonormal x(e) spanning the range of the real part.

    ``rank`` is the largest edge rank r. Edge e uses the last ``ranks[e]``
    of the r columns, in ascending order of the real eigenvalues (up to the
    rotations that split a near-repeated one); its other columns of ``x``
    and entries of ``lam`` are zero.
    """

    d: int
    rank: int
    x: np.ndarray  # (|E|, d, r), real
    lam: np.ndarray  # (|E|, r), complex with positive real part where used
    ranks: np.ndarray  # (|E|,), ints in 1..r


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
    natural = np.ix_(layer.position, layer.position)  # canonical -> vertex-id order
    q_blocks = np.empty((k, d, d), dtype=complex)
    for j in range(k):
        w = np.asarray(layer_weights[j], dtype=float)
        if w.shape != (layer.num_edges,):
            raise FieldError("layer weight vector has wrong length")
        q_blocks[j] = laplacian_matrix(layer, w[:, None, None])[natural]
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


def _product_in_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, summed one index at a time, so that
    each entry rounds the same whatever the batch around it (a BLAS
    product's rounding depends on the shapes)."""
    return sum(a[..., :, k, None] * b[..., None, k, :] for k in range(a.shape[-1]))


def _diagonalize_jointly(x: np.ndarray, a: np.ndarray, b: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi rotations of the columns of x (n, d, r) that diagonalize the
    symmetric pairs a = x^T sigma' x and b = x^T sigma'' x (n, r, r)
    together, by Cardoso and Souloumiac's angle (the one that minimizes
    the squared off-diagonal pair entries of both). Each of a, b is first
    scaled by a power of two to entries below 1. Returns the rotated x and
    the diagonal of the rotated a. Elementwise arithmetic only, so each
    edge's result is independent of the others in the batch."""
    x = x.copy()
    ea, eb = (np.frexp(np.abs(m).max(axis=(1, 2), keepdims=True))[1] for m in (a, b))
    a, b = np.ldexp(a, -ea), np.ldexp(b, -eb)
    r = x.shape[-1]
    for _ in range(JOINT_SWEEPS):
        for p in range(r - 1):
            for q in range(p + 1, r):
                h = [(m[:, p, p] - m[:, q, q], m[:, p, q] + m[:, q, p]) for m in (a, b)]
                ton = sum(h0 * h0 - h1 * h1 for h0, h1 in h)
                toff = 2.0 * sum(h0 * h1 for h0, h1 in h)
                rad = np.sqrt(ton * ton + toff * toff)
                # (cos 2t, sin 2t) is the half angle of (ton, toff), taken
                # without cancellation; ton = toff = 0 leaves the pair alone
                u = np.where(ton >= 0, ton + rad, np.abs(toff))
                v = np.where(ton >= 0, toff, np.copysign(rad - ton, toff))
                n = np.sqrt(u * u + v * v)
                n_safe = np.where(n > 0, n, 1.0)
                c = np.sqrt(0.5 + 0.5 * np.where(n > 0, u / n_safe, 1.0))
                s = v / n_safe / (2.0 * c)
                c1, s1 = c[:, None], s[:, None]
                xp, xq = x[:, :, p], x[:, :, q]
                x[:, :, p], x[:, :, q] = c1 * xp + s1 * xq, c1 * xq - s1 * xp
                for m in (a, b):
                    mp, mq = m[:, p, :], m[:, q, :]
                    m[:, p, :], m[:, q, :] = c1 * mp + s1 * mq, c1 * mq - s1 * mp
                    mp, mq = m[:, :, p], m[:, :, q]
                    m[:, :, p], m[:, :, q] = c1 * mp + s1 * mq, c1 * mq - s1 * mp
    return x, np.ldexp(np.diagonal(a, axis1=1, axis2=2), ea[:, 0])


def eigen_decompose(sigma: MatrixEdgeField) -> EigenData:
    """Eigendecomposition of all edge blocks at once, for conductivities
    whose real and imaginary parts commute and share real eigenvectors.

    Keeps the eigenvalues of sigma'(e) above RANK_TOL times the largest one;
    the imaginary eigenvalues are read off in the same eigenbasis, after
    Jacobi rotations where sigma''(e) is not diagonal in it. Raises,
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
    lam_real = np.where(used, w[:, d - r:], 0.0)
    if r > 1 and si.any():
        # eigh fixes eigenvectors of sigma' only up to rounding over the gap
        # between their eigenvalues, so a near-repeated one can leave
        # x^T sigma'' x off diagonal; such edges are rotated to diagonalize
        # both parts at once
        b = _product_in_order(x.transpose(0, 2, 1), _product_in_order(si, x))
        off = np.abs(b * (1.0 - np.eye(r))).max(axis=(1, 2))
        rough = np.flatnonzero(off > JOINT_TOL * np.abs(b).max(axis=(1, 2)))
        if rough.size:
            x[rough], lam_real[rough] = _diagonalize_jointly(
                x[rough], lam_real[rough, :, None] * np.eye(r), b[rough])
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
    lam = lam_real + 1j * lam_imag
    return EigenData(d=d, rank=r, x=x, lam=lam, ranks=ranks)
