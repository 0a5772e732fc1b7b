"""Dirichlet solvers, floppy-mode machinery and Dirichlet-to-Neumann maps.

Two regimes are supported. In the positive-definite regimes the interior
block M_II of the Schrodinger operator is invertible and the map is a plain
Schur complement. In the rank-deficient (positive-semidefinite) regimes M_II
may have a nullspace of floppy modes F; adding gamma F F^T makes it
invertible without changing the solution on its range, so solves give the
minimal-norm representative by the same elimination. Which regime applies is
decided once, by ``classify_regime``: the regime it returns keeps the
``_Route`` and the operator, and solves and gives the map on them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    FieldError,
    Graph,
    MatrixEdgeField,
    MatrixNodeField,
    VectorNodeField,
)
from .operators import (
    EigenData,
    _real_if_real,
    eigen_decompose,
    laplacian_matrix,
    schrodinger_matrix,
)

__all__ = [
    "RegimeTag",
    "DirichletRegime",
    "FloppyBasis",
    "DtnMap",
    "RegimeError",
    "classify_regime",
    "dtn_pd",
    "dtn_psd",
    "floppy_basis",
    "PD_TOL",
    "RESIDUAL_TOL",
]

PD_TOL = 1e-10
RESIDUAL_TOL = 1e-9
ZERO_TOL = 1e-12
# Relative cut below which an eigenvalue of the interior unit-eigenvalue
# Laplacian counts as zero (floppy).
_NULL_TOL = 1e-10


class RegimeError(RuntimeError):
    """Operation attempted outside its supported Dirichlet regime."""


class RegimeTag(enum.Enum):
    PD_SIGMA = "pd_sigma"
    PD_Q = "pd_q"
    PSD_REAL = "psd_real"
    PSD_COMMUTING = "psd_commuting"
    UNSUPPORTED = "unsupported"

    @property
    def is_pd(self) -> bool:
        return self in (RegimeTag.PD_SIGMA, RegimeTag.PD_Q)


@dataclass(frozen=True, eq=False)
class _Route:
    """How the interior of a canonical operator on one graph with d x d
    blocks is solved; built only by ``_route``. The first nb rows and
    columns are the boundary. ``rows`` are the interior rows grouped by
    level, deepest last; one level (or none) is all rows as one slice, whose
    blocks are views and whose products are those of one dense solve, bit
    for bit. A route built from edge eigendata has ``floppy``, the floppy
    modes, (d|V|, f) in canonical order and zero on the boundary."""

    nb: int
    rows: list
    floppy: np.ndarray | None = None


@dataclass(frozen=True)
class DirichletRegime:
    """A regime tag with its diagnostics; a supported regime solves the
    Dirichlet problem of its network and gives its DtN map."""

    tag: RegimeTag
    diagnostics: dict = field(default_factory=dict)
    # the graph, how every supported regime is solved, and the canonical
    # operator M of (sigma, q) that it solves; None when unsupported
    graph: Graph | None = field(default=None, repr=False, compare=False)
    route: _Route | None = field(default=None, repr=False, compare=False)
    operator: np.ndarray | None = field(default=None, repr=False, compare=False)

    def _supported(self) -> _Route:
        if self.route is None:
            raise RegimeError(f"no solver for an unsupported regime: {self.diagnostics}")
        return self.route

    def dtn(self) -> DtnMap:
        """The Dirichlet-to-Neumann map, exactly symmetric."""
        return _dtn(self.operator, self._supported())

    def solve(self, gb: np.ndarray | VectorNodeField) -> tuple[VectorNodeField, float]:
        """The Dirichlet solution u with u_B = gb, minimal-norm in the
        rank-deficient regimes, and its interior residual |(2^-e M u)_I|, 2^e
        just above M_II's largest diagonal entry (``_exponent``), the same
        bits under (sigma, q) -> 2^k (sigma, q); RegimeError when that is
        beyond RESIDUAL_TOL, FieldError when u is beyond float range."""
        g, M, nb = self.graph, self.operator, self._supported().nb
        gvec = gb.boundary_values(g) if isinstance(gb, VectorNodeField) \
            else np.asarray(gb, dtype=complex).reshape(-1)
        if gvec.shape != (nb,):
            raise FieldError("boundary data has wrong length")
        with np.errstate(over="ignore", invalid="ignore"):
            flat = np.concatenate([gvec, -_interior_solve(M, M[nb:, :nb] @ gvec, self.route)])
            M_I = M[nb:]
            resid = float(np.linalg.norm(
                np.ldexp(M_I.view(float), -_exponent(M_I[:, nb:])).view(M.dtype) @ flat))
        if not np.isfinite(flat).all():
            raise FieldError("the Dirichlet solution overflows")
        if not resid <= RESIDUAL_TOL * (1.0 + np.linalg.norm(gvec)):  # NaN fails too
            raise RegimeError(f"interior residual {resid:.3e} beyond tolerance")
        return VectorNodeField.from_canonical(g, flat, len(M) // g.num_vertices), resid


@dataclass(frozen=True)
class FloppyBasis:
    """Orthonormal displacements vanishing on the boundary with zero interior
    net force; each column of ``modes`` is one canonical-ordering vector."""

    modes: np.ndarray  # (d|V|, f), canonical ordering

    @property
    def dim(self) -> int:
        return self.modes.shape[1]


@dataclass(frozen=True)
class DtnMap:
    """Boundary data map, complex d|B| x d|B|: the exact symmetric part of a
    computed Schur product F, with its construction route and the asymmetry
    max|F - F^T| that the symmetric part discards."""

    matrix: np.ndarray
    provenance: str  # "psd" for a route built from edge eigendata, else "pd"
    asymmetry: float


def _blocks_min_eig(blocks: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(blocks).min())


def _is_zero_field(values: np.ndarray) -> bool:
    return np.abs(values).max(initial=0.0) <= ZERO_TOL


def classify_regime(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DirichletRegime:
    """Deterministic regime tag, first match in the order PD_SIGMA, PD_Q,
    PSD_REAL, PSD_COMMUTING, else UNSUPPORTED with diagnostics; a supported
    regime keeps its route and the operator M of (sigma, q), assembled here.

    The paper's criteria are (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II)
    and (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I')). sigma'_e > 0
    (lambda_min > PD_TOL lambda_max) on every edge of a graph whose every
    vertex reaches the boundary makes (L_sigma')_II > 0, so (i) holds with no
    test when q_I' >= 0; otherwise one Cholesky of Lr_II - shift I certifies
    (i) or (ii). A graph with a vertex that the boundary does not reach is
    unsupported, the first such vertex id reported as ``unreached``."""
    M = _operator(g, sigma, q)
    diag: dict = {}
    unreached = np.flatnonzero(g.boundary_distance < 0)
    if unreached.size:
        diag["unreached"] = g.order[unreached[0]]
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)

    d, n_I, nb = sigma.d, g.num_interior, sigma.d * g.num_boundary
    sr, si = sigma.values.real, sigma.values.imag
    q_values = q.values if q is not None else np.zeros((g.num_vertices, d, d))
    qr = q_values.real

    w = np.linalg.eigvalsh(sr)  # ascending, edge by edge
    sigma_min, sigma_scale = float(w.min()), np.abs(sr).max(initial=0.0)
    diag["sigma_real_min_eig"] = sigma_min
    pd_edges = bool((w[:, 0] > PD_TOL * w[:, -1]).all())
    q_I = qr[list(g.interior)]
    q_I_min = _blocks_min_eig(q_I) if n_I else np.inf
    diag["q_interior_real_min_eig"] = q_I_min if n_I else None
    if pd_edges and q_I_min >= 0:
        return DirichletRegime(RegimeTag.PD_SIGMA, diag, g, _route(g, d), M)

    # Lr_II, the real interior Laplacian: M's real interior block less Re q_I
    Lr_II = M[nb:, nb:].real.copy()
    Lr_II.reshape(n_I, d, n_I, d)[np.arange(n_I), :, np.arange(n_I)] -= q_I
    # one certificate: (i) when q_I' is indefinite, else (ii) when q_I' > 0
    if pd_edges or n_I and q_I_min > PD_TOL * (1.0 + np.abs(q_I).max(initial=0.0)):
        tag, shift = ((RegimeTag.PD_SIGMA, (PD_TOL - q_I_min) / (1.0 - PD_TOL)) if pd_edges
                      else (RegimeTag.PD_Q, PD_TOL * (1.0 + abs(q_I_min)) - q_I_min))
        try:
            np.linalg.cholesky(Lr_II - shift * np.eye(len(Lr_II)))
        except np.linalg.LinAlgError:
            pass
        else:
            return DirichletRegime(tag, {**diag, "cholesky_shift": shift}, g, _route(g, d), M)
    if not n_I and len(q_values) and _blocks_min_eig(qr[list(g.boundary)]) > PD_TOL:
        return DirichletRegime(RegimeTag.PD_Q, diag, g, _route(g, d), M)

    # PSD regimes need q = 0, sigma' >= 0, no zero edge blocks and an edge
    # eigendecomposition, which gives the floppy modes
    norms = np.abs(sigma.values).reshape(g.num_edges, -1).max(axis=1)
    if _is_zero_field(q_values) and sigma_min > -PD_TOL * (1.0 + sigma_scale):
        if (norms <= ZERO_TOL).any():
            diag["zero_edge"] = int(np.argmin(norms))
        else:
            try:
                eig = eigen_decompose(sigma)
            except FieldError as exc:
                diag["commuting_failure"] = str(exc)
            else:
                tag = RegimeTag.PSD_REAL if _is_zero_field(si) else RegimeTag.PSD_COMMUTING
                return DirichletRegime(tag, diag, g, _route(g, d, eig), M)
    # only an unsupported network reports lambda_min(Lr_II), so only it pays for eigvalsh
    diag["laplacian_interior_min_eig"] = float(np.linalg.eigvalsh(Lr_II).min()) if n_I else 0.0
    return DirichletRegime(RegimeTag.UNSUPPORTED, diag)


def _route(g: Graph, d: int, eig: EigenData | None = None) -> _Route:
    """The route of a canonical operator on g with d x d blocks: the
    interior rows grouped by the levels of g (``Graph.interior_levels``),
    all in one level when there is a floppy mode. With the edge eigendata
    ``eig``, the floppy modes are the nullspace of the interior block of the
    Laplacian whose edge blocks are x x^T (every kept eigenvalue set to 1),
    cut at _NULL_TOL times its largest eigenvalue: the complex Laplacian's
    in the supported rank-deficient regimes, whatever the edge spread."""
    nb, levels, floppy = d * g.num_boundary, g.interior_levels, None
    if eig is not None:
        unit = laplacian_matrix(g, eig.x @ eig.x.transpose(0, 2, 1))
        w, v = np.linalg.eigh(unit.real[nb:, nb:])
        kept = w > _NULL_TOL * max(abs(w).max(initial=0.0), np.finfo(float).tiny)
        floppy = np.zeros((len(unit), int((~kept).sum())))
        floppy[nb:] = v[:, ~kept]
    if len(levels) <= 1 or floppy is not None and floppy.shape[1]:
        return _Route(nb, [slice(None)], floppy)
    return _Route(nb, [(lev[:, None] * d + np.arange(d)).ravel() for lev in levels], floppy)


def _solved(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S^-1 B, RegimeError when S is singular."""
    try:
        return np.linalg.solve(S, B)
    except np.linalg.LinAlgError as exc:
        raise RegimeError("interior block is singular; regime misclassified") from exc


def _eliminate(A: np.ndarray, rows: list):
    """Eliminate the block tridiagonal A level by level from the deepest one
    out: S_L = A_LL, S_k = A_kk - A_k,k+1 Z_k+1 with Z_k+1 = S_k+1^-1 A_k+1,k.
    Returns S_1 and, deepest first, the Z_k+1 that back-substitution needs.
    A_k+1,k is read from A, which need not be symmetric."""
    S, solves = A[rows[-1]][:, rows[-1]], []
    for r, s in zip(rows[-2::-1], rows[:0:-1]):
        Z = _solved(S, A[s[:, None], r])
        S = A[r[:, None], r] - A[r[:, None], s] @ Z
        solves.append(Z)
    return S, solves


def _exponent(A: np.ndarray) -> int:
    """e with 2^(e-1) <= |a_ii| < 2^e, a_ii A's largest diagonal entry."""
    return int(np.frexp(np.abs(A.diagonal()).max(initial=0.0))[1])


def _interior(M: np.ndarray, rhs: np.ndarray, route: _Route) -> tuple[np.ndarray, np.ndarray]:
    """M_II, plus gamma F F^T with floppy modes F, and rhs: what both kernels
    eliminate. gamma is the power of two just below M_II's largest diagonal
    entry. M F = 0 in the supported regimes, so rhs = M_IB G is orthogonal to
    F, the sum is invertible and gives the minimal-norm solution. Beyond
    2^500 that entry is first divided out exactly, of the matrix and rhs."""
    nb, F, A = route.nb, route.floppy, M[route.nb:, route.nb:]
    e = _exponent(A)
    if e > 500:
        A, rhs, e = np.ldexp(1.0, -e) * A, np.ldexp(1.0, -e) * rhs, 0
    if F is not None and F.shape[1]:
        A = A + np.ldexp(1.0, e - 1) * (F[nb:] @ F[nb:].T)
    return A, rhs


def _interior_solve(M: np.ndarray, rhs: np.ndarray, route: _Route) -> np.ndarray:
    """M_II^-1 rhs for a canonical operator M on the route's graph and a
    right-hand side rhs = M_IB G, one column per column of G (or a vector);
    the interior of a Dirichlet solution is -M_II^-1 M_IB g. With floppy
    modes it is the minimal-norm solution (``_interior``).

    M_II is eliminated on the route's level rows (``_eliminate``), S_1 x_1 =
    rhs_1 is solved and x_k+1 = -Z_k+1 x_k back-substituted; with one level
    this is one dense solve. rhs is read on level 1 only: M_IB vanishes
    outside it, level 1 being exactly the interior vertices with a boundary
    neighbour.
    Every Dirichlet solution, DtN map and state matrix goes through here, in
    real arithmetic when M is real and rhs has no imaginary part.
    """
    rows = route.rows
    A, rhs = _interior(M, _real_if_real(rhs), route)
    S, solves = _eliminate(A, rows)
    x = _solved(S, rhs[rows[0]])
    out = np.empty(rhs.shape, dtype=x.dtype)
    out[rows[0]] = x
    for s, Z in zip(rows[1:], reversed(solves)):
        out[s] = x = -(Z @ x)
    return out


def _schur_dtn(M: np.ndarray, route: _Route) -> np.ndarray:
    """Schur complement M_BB - M_BI M_II^-1 M_IB, real exactly when M is.

    M_BI vanishes outside the first interior level, so the elimination of
    ``_interior_solve`` stops at S_1: this is M_BB - M_B1 S_1^-1 M_1B, with no
    back-substitution."""
    nb, level_1 = route.nb, route.rows[0]
    A, M_IB = _interior(M, M[nb:, :nb], route)
    S = _eliminate(A, route.rows)[0]
    return M[:nb, :nb] - M[:nb, nb:][:, level_1] @ _solved(S, M_IB[level_1])


def _dtn(M: np.ndarray, route: _Route) -> DtnMap:
    """The map of the Schur product F = _schur_dtn(M, route): its symmetric
    part (F + F^T) / 2 and the asymmetry max|F - F^T| it discards.
    M is symmetric, so the exact map is too; the symmetric part is never
    farther from it in the Frobenius norm, the projection being orthogonal.
    Halved before the sum, which cannot overflow and gives the same bits in
    the normal range. The provenance is "psd" on a route built from edge
    eigendata, else "pd". A map beyond float range is refused (FieldError)."""
    with np.errstate(over="ignore", invalid="ignore"):
        F = _schur_dtn(M, route)
        asymmetry = float(np.abs(F - F.T).max(initial=0.0))
    if not (np.isfinite(F).all() and np.isfinite(asymmetry)):
        raise FieldError("the Dirichlet-to-Neumann map overflows")
    return DtnMap(matrix=(0.5 * F + 0.5 * F.T).astype(complex, copy=False),
                  provenance="pd" if route.floppy is None else "psd", asymmetry=asymmetry)


def _dirichlet_state_matrix(M: np.ndarray, route: _Route) -> np.ndarray:
    """Solutions of the Dirichlet problem for every basis boundary vector,
    stacked as columns in the canonical ordering."""
    nb = route.nb
    return np.vstack([np.eye(nb, dtype=complex), -_interior_solve(M, M[nb:, :nb], route)])


def _operator(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> np.ndarray:
    """The canonical Laplacian of sigma, or Schrodinger matrix of (sigma, q),
    after checking that the fields fit g and each other."""
    if sigma.values.shape[0] != g.num_edges:
        raise FieldError("conductivity does not match edge count")
    if q is None:
        return laplacian_matrix(g, sigma.values)
    if sigma.d != q.d:
        raise FieldError("conductivity and potential block sizes differ")
    if q.values.shape[0] != g.num_vertices:
        raise FieldError("potential does not match vertex count")
    return schrodinger_matrix(g, sigma.values, q.values)


def dtn_pd(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DtnMap:
    """Schur-complement Dirichlet-to-Neumann map for invertible interiors,
    exactly symmetric."""
    return _dtn(_operator(g, sigma, q), _route(g, sigma.d))


def floppy_basis(g: Graph, sigma: MatrixEdgeField) -> FloppyBasis:
    """Orthonormal basis of displacements with zero boundary values and zero
    interior net force, as canonical-ordering columns (``_route``)."""
    return FloppyBasis(modes=_route(g, sigma.d, eigen_decompose(sigma)).floppy)


def dtn_psd(g: Graph, sigma: MatrixEdgeField) -> DtnMap:
    """Dirichlet-to-Neumann map for rank-deficient conductivities, with the
    floppy modes regularized (``_interior``), exactly symmetric."""
    return _dtn(_operator(g, sigma, None), _route(g, sigma.d, eigen_decompose(sigma)))
