"""Block Laplacian / Schrodinger assembly, the layered embedding and the edge eigendecomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


def _require_finite_sums(order, diagonal: np.ndarray) -> None:
    """Refuse an operator whose diagonal blocks, (|V|, d, d) in the canonical
    vertex ``order``, overflowed. They are its only sums: every other block
    is one finite edge block."""
    bad = ~np.isfinite(diagonal).all(axis=(1, 2))
    if bad.any():
        raise FieldError(f"the summed block at vertex {order[int(bad.argmax())]} overflows")


def _real_if_real(a) -> np.ndarray:
    """``a`` as float64 when it has no imaginary part, else as complex128."""
    a = np.asarray(a)
    if a.dtype.kind == "c" and a.imag.any():
        return a.astype(complex, copy=False)
    return (a.real if a.dtype.kind == "c" else a).astype(float, copy=False)


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
    _require_finite_sums(g.order, M[k, k])
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
    _require_finite_sums(g.order, D[k, :, k])
    return M


class _Levels(NamedTuple):
    """A canonical operator held by levels (``_LevelPlan.scatter``), level 0
    the boundary: D[k] is the diagonal block of level k (D[0] = M_BB), U[k]
    the block from level k to k + 1 (U[0] = M_B1) and L[k] the block from
    k + 1 to k (L[0] = M_1B), all views into one buffer. ``exponent`` is e
    with 2^(e-1) <= |a_ii| < 2^e, a_ii M_II's largest diagonal entry."""

    plan: "_LevelPlan"
    D: list
    U: list
    L: list
    exponent: int

    def interior(self) -> np.ndarray:
        """M_II as one dense array in canonical order; a view of the level
        block when there is one level."""
        rows = self.plan.rows
        if len(rows) == 1:
            return self.D[1]
        A = np.zeros((self.plan.interior_rows,) * 2, self.D[0].dtype)
        for k, r in enumerate(rows, 1):
            A[np.ix_(r, r)] = self.D[k]
            if k < len(rows):
                A[np.ix_(r, rows[k])] = self.U[k]
                A[np.ix_(rows[k], r)] = self.L[k]
        return A


@dataclass(frozen=True, eq=False)
class _LevelPlan:
    """Where each entry of a canonical operator on one graph with d x d
    blocks lands when the operator is held by levels; built by
    ``_level_plan``. Level 0 is the boundary and levels 1..L the interior
    levels of the graph (``Graph.interior_levels``), or the whole interior
    as one level. Every edge joins equal or consecutive levels, so the
    operator is block tridiagonal on them, and one flat buffer holds its
    blocks D_0, U_0, L_0, D_1, ..., D_L (``views``: start, shape and order,
    row by row but for U_0 on more than one level).

    ``rows`` are the interior rows of each level (canonical index less nb),
    one slice when there is one level. Buffer indices: ``diag`` of each
    entry of each vertex's diagonal block, in canonical order; ``edges`` of
    the blocks (i, j) and (j, i) of each edge; ``inner`` of M_II's diagonal
    entries. ``bins[with_q, complex]`` are the bincount bins of the weights
    that ``_sums`` adds: the diagonal entry that each entry of each edge
    block adds to, at its i-end, then at its j-end, then with q that of each
    entry of each vertex block by vertex id; a complex entry is two weights,
    real part first, into the two floats of its buffer entry. ``order`` is
    the vertex ids in canonical order."""

    nb: int
    interior_rows: int
    rows: list
    views: list
    size: int
    order: np.ndarray
    diag: np.ndarray
    edges: np.ndarray
    inner: np.ndarray
    bins: dict

    def scatter(self, blocks: np.ndarray, q_blocks: np.ndarray | None = None) -> _Levels:
        """The Laplacian of the raw edge blocks (``laplacian_matrix``), plus
        the vertex blocks ``q_blocks``, indexed by vertex id, when given
        (``schrodinger_matrix``), by levels. Its blocks are that matrix's, bit
        for bit: the diagonal blocks are summed in place (``_sums``), in the
        order the dense assembly adds (i-ends, then j-ends, then q), and each
        off-diagonal block is written, not summed, so a signed zero keeps its
        sign. The same dtype, and FieldError, as the dense assembly."""
        flat = _real_if_real(blocks).reshape(-1)
        q = None if q_blocks is None else _real_if_real(q_blocks).reshape(-1)
        buf = self._sums(flat, q)
        if not np.isfinite(buf[self.diag]).all():
            self._refuse(flat, q)
        buf[self.edges] = -flat
        exponent = math.frexp(np.abs(buf[self.inner]).max(initial=0.0))[1]
        views = [np.ndarray(shape, buf.dtype, buf, start * buf.itemsize, order=order)
                 for start, shape, order in self.views]
        return _Levels(self, views[0::3], views[1::3], views[2::3], exponent)

    def _sums(self, flat: np.ndarray, q: np.ndarray | None) -> np.ndarray:
        """The buffer with every vertex's summed diagonal block, zero
        elsewhere, by one bincount. Each bin adds from +0.0, so it never
        holds -0.0; an imaginary part that only one of sigma and q has is
        summed with the other's +0.0, as the dense assembly's promotion to
        complex sums it."""
        complex_ = flat.dtype.kind == "c" or q is not None and q.dtype.kind == "c"
        if complex_:
            flat = flat.astype(complex, copy=False).view(float)
            q = None if q is None else q.astype(complex, copy=False).view(float)
        parts = (flat, flat) if q is None else (flat, flat, q)
        buf = np.bincount(self.bins[q is not None, complex_], np.concatenate(parts),
                          self.size * (1 + complex_))
        # float even with no weights, where bincount gives ints
        buf = buf.astype(float, copy=False)
        return buf.view(complex) if complex_ else buf

    def _refuse(self, flat: np.ndarray, q: np.ndarray | None) -> None:
        """FieldError naming the vertex that the dense assembly names: the
        first whose summed edge blocks overflow, else the first whose sum
        with q does."""
        for vertex in (None, q):
            sums = self._sums(flat, vertex)[self.diag]
            _require_finite_sums(self.order, sums.reshape(self.order.size, -1, 1))


def _level_plan(g: Graph, d: int, one_level: bool = False) -> _LevelPlan:
    """The ``_LevelPlan`` of operators on g with d x d blocks, on the
    interior levels of g or, with ``one_level`` or at most one level, on the
    interior as one level in canonical order. Built once per graph and key,
    with numpy, from ``Graph.edge_positions`` and ``Graph.interior_levels``."""
    levels = g.interior_levels
    one_level = one_level or len(levels) <= 1
    key = (d, one_level)
    if key in g._plans:
        return g._plans[key]
    if one_level:
        levels = (np.arange(g.num_interior),)
    n, nbv, comp = g.num_vertices, g.num_boundary, np.arange(d)
    level_of, local = np.zeros(n, np.intp), np.arange(n)
    for k, lev in enumerate(levels, 1):
        level_of[nbv + lev] = k
        local[nbv + lev] = np.arange(lev.size)
    sizes = np.array([nbv] + [lev.size for lev in levels]) * d
    shapes = []
    for k in range(len(levels) + 1):
        shapes.append((sizes[k], sizes[k]))
        if k < len(levels):
            shapes += [(sizes[k], sizes[k + 1]), (sizes[k + 1], sizes[k])]
    stops = np.cumsum([r * c for r, c in shapes])
    starts = np.concatenate([[0], stops[:-1], [0, 0]])  # two unused, for the last level
    # M_B1 is held column by column on more than one level, as a gather of
    # its level-1 columns from the dense operator is laid out: the product
    # M_B1 S_1^-1 M_1B rounds by the layout BLAS is handed
    by_column = np.arange(len(starts)) == (1 if len(levels) > 1 else -1)

    def at(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Buffer index of entry (a, b) of the block at canonical positions
        (r, c), (len(r), d * d)."""
        kr, kc = level_of[r], level_of[c]
        block = np.where(kr == kc, 3 * kr, np.where(kc > kr, 3 * kr + 1, 3 * kc + 2))
        row = (local[r] * d)[:, None, None] + comp[:, None]
        col = (local[c] * d)[:, None, None] + comp
        within = np.where(by_column[block][:, None, None], col * sizes[kr][:, None, None] + row,
                          row * sizes[kc][:, None, None] + col)
        return (starts[block][:, None, None] + within).reshape(len(r), d * d)

    pi, pj = g.edge_positions()
    diag = at(np.arange(n), np.arange(n))
    ends = diag[np.concatenate([pi, pj])].ravel()
    with_q = np.concatenate([ends, diag[np.asarray(g.position, dtype=np.intp)].ravel()])
    plan = _LevelPlan(
        nb=int(sizes[0]),
        interior_rows=d * g.num_interior,
        rows=[slice(None)] if one_level else [(lev[:, None] * d + comp).ravel() for lev in levels],
        views=[(int(a), (int(r), int(c)), "F" if f else "C")
               for a, (r, c), f in zip(starts, shapes, by_column)],
        size=int(stops[-1]),
        order=np.asarray(g.order, dtype=np.intp),
        diag=diag.ravel(),
        edges=np.stack([at(pi, pj).ravel(), at(pj, pi).ravel()]),
        inner=diag[nbv:, comp * (d + 1)].ravel(),
        bins={(q, c): (2 * bins[:, None] + [0, 1]).ravel() if c else bins
              for q, bins in ((False, ends), (True, with_q)) for c in (False, True)},
    )
    g._plans[key] = plan
    return plan


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
