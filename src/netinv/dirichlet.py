"""Dirichlet solvers, floppy-mode machinery and Dirichlet-to-Neumann maps.

Two regimes are supported. In the positive-definite regimes the interior
block of the Schrodinger operator is invertible and the map is a plain Schur
complement. In the rank-deficient (positive-semidefinite) regimes the
interior block has a nullspace of floppy modes; solves pick the minimal-norm
representative and the map uses a basis Q of the interior range.
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
    is_connected,
    is_interior_connected,
)
from .operators import (
    BlockOperator,
    EigenData,
    assemble_laplacian,
    assemble_schrodinger,
    eigen_decompose,
    laplacian_matrix,
)

__all__ = [
    "RegimeTag",
    "DirichletRegime",
    "FloppyBasis",
    "QBasis",
    "DtnMap",
    "RegimeError",
    "classify_regime",
    "solve_dirichlet_pd",
    "solve_dirichlet_psd",
    "dtn_pd",
    "dtn_psd",
    "floppy_basis",
    "q_basis",
    "PD_TOL",
    "RESIDUAL_TOL",
]

PD_TOL = 1e-10
RESIDUAL_TOL = 1e-9
ZERO_TOL = 1e-12


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

    @property
    def is_psd(self) -> bool:
        return self in (RegimeTag.PSD_REAL, RegimeTag.PSD_COMMUTING)


@dataclass(frozen=True)
class DirichletRegime:
    tag: RegimeTag
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FloppyBasis:
    """Orthonormal displacements vanishing on the boundary with zero interior
    net force; each column of ``modes`` is one canonical-ordering vector."""

    d: int
    modes: np.ndarray  # (d|V|, f), canonical ordering

    @property
    def dim(self) -> int:
        return self.modes.shape[1]


@dataclass(frozen=True)
class QBasis:
    """Real orthonormal basis of the range of the interior Laplacian block."""

    matrix: np.ndarray  # (d|I|, rank)

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class DtnMap:
    """Boundary data map, complex d|B| x d|B|, with its construction route."""

    matrix: np.ndarray
    d: int
    provenance: str  # "pd" or "psd"


def _pd_margin(x: float) -> float:
    return PD_TOL * (1.0 + abs(x))


def _blocks_min_eig(blocks: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(blocks).min())


def _is_zero_field(values: np.ndarray) -> bool:
    return np.abs(values).max(initial=0.0) <= ZERO_TOL


def classify_regime(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DirichletRegime:
    """Deterministic regime tag, first match in the order PD_SIGMA, PD_Q,
    PSD_REAL, PSD_COMMUTING, else UNSUPPORTED with diagnostics."""
    diag: dict = {}
    if not (is_connected(g) and is_interior_connected(g)):
        diag["connected"] = is_connected(g)
        diag["interior_connected"] = is_interior_connected(g)
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)

    sr = sigma.values.real
    si = sigma.values.imag
    q_values = q.values if q is not None else np.zeros((g.num_vertices, sigma.d, sigma.d))
    qr = q_values.real

    sigma_min = _blocks_min_eig(sr)
    sigma_scale = np.abs(sr).max(initial=0.0)
    diag["sigma_real_min_eig"] = sigma_min

    Lr = laplacian_matrix(g, sr).real
    nb = sigma.d * g.num_boundary
    Lr_II = Lr[nb:, nb:]
    lam_II = float(np.linalg.eigvalsh(Lr_II).min()) if Lr_II.size else 0.0
    diag["laplacian_interior_min_eig"] = lam_II

    q_I = qr[list(g.interior)] if g.interior else np.zeros((0, sigma.d, sigma.d))
    q_I_min = _blocks_min_eig(q_I) if len(q_I) else np.inf
    diag["q_interior_real_min_eig"] = q_I_min if np.isfinite(q_I_min) else None

    # (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II)
    if sigma_min > PD_TOL * (1.0 + sigma_scale):
        if not g.interior or q_I_min + lam_II > _pd_margin(lam_II):
            return DirichletRegime(RegimeTag.PD_SIGMA, diag)
    # (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I'))
    if g.interior and q_I_min > PD_TOL * (1.0 + np.abs(q_I).max(initial=0.0)):
        if lam_II + q_I_min > _pd_margin(q_I_min):
            return DirichletRegime(RegimeTag.PD_Q, diag)
    if not g.interior and len(q_values) and _blocks_min_eig(qr[list(g.boundary)]) > PD_TOL:
        return DirichletRegime(RegimeTag.PD_Q, diag)

    # PSD regimes need q = 0, sigma' >= 0 and no zero edge blocks
    if not _is_zero_field(q_values):
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)
    if sigma_min <= -PD_TOL * (1.0 + sigma_scale):
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)
    norms = np.abs(sigma.values).reshape(g.num_edges, -1).max(axis=1)
    if (norms <= ZERO_TOL).any():
        diag["zero_edge"] = int(np.argmin(norms))
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)
    if _is_zero_field(si):
        return DirichletRegime(RegimeTag.PSD_REAL, diag)
    try:
        eigen_decompose(sigma, uniform_rank=False)
    except FieldError as exc:
        diag["commuting_failure"] = str(exc)
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)
    return DirichletRegime(RegimeTag.PSD_COMMUTING, diag)


def _boundary_vec(g: Graph, gb: np.ndarray | VectorNodeField) -> np.ndarray:
    if isinstance(gb, VectorNodeField):
        return gb.boundary_values(g)
    return np.asarray(gb, dtype=complex).reshape(-1)


def _interior_solve(M: np.ndarray, nb: int, rhs: np.ndarray,
                    Q: np.ndarray | None = None) -> np.ndarray:
    """M_II^-1 rhs for a canonical operator M whose first nb rows and columns
    are the boundary; the interior of a Dirichlet solution is -M_II^-1 M_IB g.

    With Q, an orthonormal basis of the interior range, it is the
    minimal-norm Q (Q^T M_II Q)^-1 Q^T rhs of the rank-deficient regimes.
    Every Dirichlet solution, DtN map and state matrix goes through here.
    """
    M_II = M[nb:, nb:]
    if not M_II.size:
        return np.zeros(rhs.shape, dtype=complex)
    try:
        if Q is None:
            return np.linalg.solve(M_II, rhs)
        return Q @ np.linalg.solve(Q.T @ M_II @ Q, Q.T @ rhs)
    except np.linalg.LinAlgError as exc:
        raise RegimeError("interior block is singular; regime misclassified") from exc


def _schur_dtn(M: np.ndarray, nb: int, Q: np.ndarray | None = None) -> np.ndarray:
    """Schur complement M_BB - M_BI M_II^-1 M_IB (through Q when given)."""
    return M[:nb, :nb] - M[:nb, nb:] @ _interior_solve(M, nb, M[nb:, :nb], Q)


def _dirichlet_state_matrix(M: np.ndarray, nb: int, Q: np.ndarray | None = None) -> np.ndarray:
    """Solutions of the Dirichlet problem for every basis boundary vector,
    stacked as columns in the canonical ordering."""
    return np.vstack([np.eye(nb, dtype=complex), -_interior_solve(M, nb, M[nb:, :nb], Q)])


def _operator(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> BlockOperator:
    return assemble_laplacian(g, sigma) if q is None else assemble_schrodinger(g, sigma, q)


def _solve(g: Graph, op: BlockOperator, gb: np.ndarray | VectorNodeField,
           Q: np.ndarray | None = None) -> VectorNodeField:
    gvec = _boundary_vec(g, gb)
    if gvec.shape != (op.nb,):
        raise FieldError("boundary data has wrong length")
    flat = np.concatenate([gvec, -_interior_solve(op.matrix, op.nb, op.IB @ gvec, Q)])
    resid = np.linalg.norm((op.matrix @ flat)[op.nb:])
    if resid > RESIDUAL_TOL * (1.0 + np.linalg.norm(gvec)):
        raise RegimeError(f"interior residual {resid:.3e} beyond tolerance")
    return VectorNodeField.from_canonical(g, flat, op.d)


def solve_dirichlet_pd(
    g: Graph,
    sigma: MatrixEdgeField,
    q: MatrixNodeField | None,
    gb: np.ndarray | VectorNodeField,
) -> VectorNodeField:
    """Solve the Dirichlet problem when the interior block is invertible.

    Returns the node field u with u_B = gb and vanishing interior equations.
    """
    return _solve(g, _operator(g, sigma, q), gb)


def dtn_pd(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DtnMap:
    """Schur-complement Dirichlet-to-Neumann map for invertible interiors."""
    op = _operator(g, sigma, q)
    return DtnMap(matrix=_schur_dtn(op.matrix, op.nb), d=sigma.d, provenance="pd")


def _interior_spectrum(g: Graph, blocks: np.ndarray, tol: float):
    """Eigenpairs of the interior block of the real Laplacian of ``blocks``,
    and the cut tol * |largest eigenvalue| below which one counts as zero."""
    nb = blocks.shape[1] * g.num_boundary
    w, v = np.linalg.eigh(laplacian_matrix(g, blocks).real[nb:, nb:])
    return w, v, tol * max(abs(w).max(initial=0.0), np.finfo(float).tiny)


def floppy_basis(g: Graph, sigma: MatrixEdgeField, tol: float = 1e-10) -> FloppyBasis:
    """Orthonormal basis of displacements with zero boundary values and zero
    interior net force, as canonical-ordering columns.

    Computed from the nullspace of the interior block of the real-part
    Laplacian, which coincides with the complex one in the supported
    rank-deficient regimes.
    """
    w, v, cut = _interior_spectrum(g, sigma.values.real, tol)
    null = v[:, np.abs(w) <= cut]
    modes = np.zeros((sigma.d * g.num_vertices, null.shape[1]))
    modes[sigma.d * g.num_boundary:] = null
    return FloppyBasis(d=sigma.d, modes=modes)


def q_basis(g: Graph, eig: EigenData, tol: float = 1e-10) -> QBasis:
    """Real orthonormal basis of the range of the interior Laplacian block,
    built from the conductivity eigenvectors only (unit eigenvalues)."""
    w, v, cut = _interior_spectrum(g, np.stack([x @ x.T for x in eig.x]), tol)
    return QBasis(matrix=v[:, w > cut])


def solve_dirichlet_psd(
    g: Graph,
    sigma: MatrixEdgeField,
    gb: np.ndarray | VectorNodeField,
    eig: EigenData | None = None,
) -> VectorNodeField:
    """Minimal-norm Dirichlet solution for rank-deficient conductivities.

    The interior part is the pseudoinverse solve realized through the Q
    basis, so the floppy component is zero.
    """
    if eig is None:
        eig = eigen_decompose(sigma, uniform_rank=False)
    return _solve(g, assemble_laplacian(g, sigma), gb, q_basis(g, eig).matrix)


def dtn_psd(g: Graph, sigma: MatrixEdgeField, eig: EigenData | None = None) -> DtnMap:
    """Dirichlet-to-Neumann map for rank-deficient conductivities via the Q
    basis of the interior range."""
    if eig is None:
        eig = eigen_decompose(sigma, uniform_rank=False)
    op = assemble_laplacian(g, sigma)
    return DtnMap(matrix=_schur_dtn(op.matrix, op.nb, q_basis(g, eig).matrix),
                  d=sigma.d, provenance="psd")

