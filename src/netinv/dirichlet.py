"""Dirichlet solvers, floppy-mode machinery and Dirichlet-to-Neumann maps.

Two regimes are supported. In the positive-definite regimes the interior
block of the Schrodinger operator is invertible and the map is a plain Schur
complement. In the rank-deficient (positive-semidefinite) regimes the
interior block has a nullspace of floppy modes; solves pick the minimal-norm
representative and the map uses a basis Q of the interior range. Which of
the two applies is decided once, by ``classify_regime``: the regime it
returns keeps the ``_Route`` and the operator, and solves and gives the map
on them.
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
    columns are the boundary. In the positive-definite regimes ``rows`` are
    the interior rows grouped by level, deepest last; one level (or none) is
    all rows as one slice, whose blocks are views and whose products are
    those of one dense solve, bit for bit. In the rank-deficient regimes
    ``Q`` is a real orthonormal basis of the interior range and ``floppy``
    the orthonormal floppy modes, (d|V|, f) in canonical order and zero on
    the boundary."""

    nb: int
    rows: list | None = None
    Q: np.ndarray | None = None
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
        rank-deficient regimes, and its interior residual |(M u)_I|;
        RegimeError when that is beyond RESIDUAL_TOL."""
        g, M, nb = self.graph, self.operator, self._supported().nb
        gvec = gb.boundary_values(g) if isinstance(gb, VectorNodeField) \
            else np.asarray(gb, dtype=complex).reshape(-1)
        if gvec.shape != (nb,):
            raise FieldError("boundary data has wrong length")
        flat = np.concatenate([gvec, -_interior_solve(M, M[nb:, :nb] @ gvec, self.route)])
        resid = float(np.linalg.norm((M @ flat)[nb:]))
        if resid > RESIDUAL_TOL * (1.0 + np.linalg.norm(gvec)):
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
    provenance: str  # "pd" (interior levels) or "psd" (Q basis)
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
    # eigendecomposition, whose spectrum splits into Q and the floppy modes
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
    """The route of a canonical operator on g with d x d blocks: without
    ``eig``, the interior rows grouped by the levels of g
    (``Graph.interior_levels``); with the edge eigendata ``eig``, Q and the
    floppy modes as the two parts of one spectrum, that of the interior
    block of the Laplacian whose edge blocks are x x^T (every kept
    eigenvalue set to 1), split at _NULL_TOL times its largest eigenvalue.
    That nullspace is the complex Laplacian's in the supported rank-deficient
    regimes, and the split does not depend on how widely the edge
    eigenvalues spread."""
    nb = d * g.num_boundary
    if eig is None:
        levels = g.interior_levels
        if len(levels) <= 1:
            return _Route(nb, rows=[slice(None)])
        return _Route(nb, rows=[(lev[:, None] * d + np.arange(d)).ravel() for lev in levels])
    unit = laplacian_matrix(g, eig.x @ eig.x.transpose(0, 2, 1))
    w, v = np.linalg.eigh(unit.real[nb:, nb:])
    kept = w > _NULL_TOL * max(abs(w).max(initial=0.0), np.finfo(float).tiny)
    floppy = np.zeros((len(unit), int((~kept).sum())))
    floppy[nb:] = v[:, ~kept]
    return _Route(nb, Q=v[:, kept], floppy=floppy)


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


def _interior_solve(M: np.ndarray, rhs: np.ndarray, route: _Route) -> np.ndarray:
    """M_II^-1 rhs for a canonical operator M on the route's graph and a
    right-hand side rhs = M_IB G, one column per column of G (or a vector);
    the interior of a Dirichlet solution is -M_II^-1 M_IB g.

    M_II is eliminated on the route's level rows (``_eliminate``), S_1 x_1 =
    rhs_1 is solved and x_k+1 = -Z_k+1 x_k back-substituted; with one level
    this is one dense solve. rhs is read on level 1 only: M_IB vanishes
    outside it, level 1 being exactly the interior vertices with a boundary
    neighbour. On a Q route it is the minimal-norm Q (Q^T M_II Q)^-1 Q^T rhs
    of the rank-deficient regimes.
    Every Dirichlet solution, DtN map and state matrix goes through here, in
    real arithmetic when M is real and rhs has no imaginary part.
    """
    rhs = _real_if_real(rhs)
    M_II, Q = M[route.nb:, route.nb:], route.Q
    if Q is not None:
        # near the float maximum, the system is first divided exactly by a
        # power of two, so that Q^T M_II Q cannot overflow
        e = np.frexp(np.abs(M_II).max(initial=0.0))[1]
        scale = np.ldexp(1.0, -e) if e > 500 else 1.0
        return Q @ _solved(Q.T @ (scale * M_II) @ Q, Q.T @ (scale * rhs))
    rows = route.rows
    S, solves = _eliminate(M_II, rows)
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
    back-substitution. The Q route of the rank-deficient regimes is dense."""
    nb = route.nb
    if route.Q is not None:
        return M[:nb, :nb] - M[:nb, nb:] @ _interior_solve(M, M[nb:, :nb], route)
    S, level_1 = _eliminate(M[nb:, nb:], route.rows)[0], route.rows[0]
    return M[:nb, :nb] - M[:nb, nb:][:, level_1] @ _solved(S, M[nb:, :nb][level_1])


def _dtn(M: np.ndarray, route: _Route, scale: complex = 1.0) -> DtnMap:
    """The map of the Schur product F = scale * _schur_dtn(M, route): its
    symmetric part (F + F^T) / 2 and the asymmetry max|F - F^T| it discards.
    M is symmetric, so the exact map is too; the symmetric part is never
    farther from it in the Frobenius norm, the projection being orthogonal.
    Halved before the sum, which cannot overflow and gives the same bits in
    the normal range. The provenance is that of the route."""
    F = _schur_dtn(M, route)
    if scale != 1.0:
        F = scale * F
    return DtnMap(matrix=(0.5 * F + 0.5 * F.T).astype(complex, copy=False),
                  provenance="pd" if route.Q is None else "psd",
                  asymmetry=float(np.abs(F - F.T).max(initial=0.0)))


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
    interior net force, as canonical-ordering columns: the complement of the
    Q basis in one interior spectrum (``_route``)."""
    return FloppyBasis(modes=_route(g, sigma.d, eigen_decompose(sigma)).floppy)


def dtn_psd(g: Graph, sigma: MatrixEdgeField) -> DtnMap:
    """Dirichlet-to-Neumann map for rank-deficient conductivities via the Q
    basis of the interior range, exactly symmetric."""
    return _dtn(_operator(g, sigma, None), _route(g, sigma.d, eigen_decompose(sigma)))
