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

    @property
    def is_psd(self) -> bool:
        return self in (RegimeTag.PSD_REAL, RegimeTag.PSD_COMMUTING)


@dataclass(frozen=True)
class DirichletRegime:
    tag: RegimeTag
    diagnostics: dict = field(default_factory=dict)
    # the edge eigendata, when classifying computed it (PSD_COMMUTING)
    eig: EigenData | None = field(default=None, repr=False, compare=False)


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
    """Boundary data map, complex d|B| x d|B|, with its construction route."""

    matrix: np.ndarray
    provenance: str  # "pd" or "psd"


def _blocks_min_eig(blocks: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(blocks).min())


def _is_zero_field(values: np.ndarray) -> bool:
    return np.abs(values).max(initial=0.0) <= ZERO_TOL


def classify_regime(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DirichletRegime:
    """Deterministic regime tag, first match in the order PD_SIGMA, PD_Q,
    PSD_REAL, PSD_COMMUTING, else UNSUPPORTED with diagnostics."""
    return _classify(g, sigma, q, _operator(g, sigma, q).matrix)


def _classify(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None,
              M: np.ndarray) -> DirichletRegime:
    """classify_regime on the assembled operator M of (sigma, q)."""
    diag: dict = {}
    if not (is_connected(g) and is_interior_connected(g)):
        diag["connected"] = is_connected(g)
        diag["interior_connected"] = is_interior_connected(g)
        return DirichletRegime(RegimeTag.UNSUPPORTED, diag)

    d, n_I = sigma.d, g.num_interior
    sr, si = sigma.values.real, sigma.values.imag
    q_values = q.values if q is not None else np.zeros((g.num_vertices, d, d))
    qr = q_values.real

    sigma_min = _blocks_min_eig(sr)
    sigma_scale = np.abs(sr).max(initial=0.0)
    diag["sigma_real_min_eig"] = sigma_min

    # Lr_II, the real interior Laplacian: M's real interior block less Re q_I
    q_I = qr[list(g.interior)]
    Lr_II = M[d * g.num_boundary:, d * g.num_boundary:].real.copy()
    Lr_II.reshape(n_I, d, n_I, d)[np.arange(n_I), :, np.arange(n_I)] -= q_I
    q_I_min = _blocks_min_eig(q_I) if n_I else np.inf
    diag["q_interior_real_min_eig"] = q_I_min if n_I else None

    # (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II), where lambda_II >= 0, or
    # (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I')); each a Cholesky of Lr_II - shift I
    criteria = []
    if sigma_min > PD_TOL * (1.0 + sigma_scale):
        criteria.append((RegimeTag.PD_SIGMA, (PD_TOL - q_I_min) / (1.0 - PD_TOL)))
    if n_I and q_I_min > PD_TOL * (1.0 + np.abs(q_I).max(initial=0.0)):
        criteria.append((RegimeTag.PD_Q, PD_TOL * (1.0 + abs(q_I_min)) - q_I_min))
    for tag, shift in criteria:
        try:
            np.linalg.cholesky(Lr_II - shift * np.eye(len(Lr_II)))
        except np.linalg.LinAlgError:
            continue
        return DirichletRegime(tag, {**diag, "cholesky_shift": shift} if n_I else diag)
    if not n_I and len(q_values) and _blocks_min_eig(qr[list(g.boundary)]) > PD_TOL:
        return DirichletRegime(RegimeTag.PD_Q, diag)

    # PSD regimes need q = 0, sigma' >= 0 and no zero edge blocks
    norms = np.abs(sigma.values).reshape(g.num_edges, -1).max(axis=1)
    if _is_zero_field(q_values) and sigma_min > -PD_TOL * (1.0 + sigma_scale):
        if (norms <= ZERO_TOL).any():
            diag["zero_edge"] = int(np.argmin(norms))
        elif _is_zero_field(si):
            return DirichletRegime(RegimeTag.PSD_REAL, diag)
        else:
            try:
                return DirichletRegime(RegimeTag.PSD_COMMUTING, diag, eigen_decompose(sigma))
            except FieldError as exc:
                diag["commuting_failure"] = str(exc)
    # only an unsupported network reports lambda_min(Lr_II), so only it pays for eigvalsh
    diag["laplacian_interior_min_eig"] = float(np.linalg.eigvalsh(Lr_II).min()) if n_I else 0.0
    return DirichletRegime(RegimeTag.UNSUPPORTED, diag)


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
    Every Dirichlet solution, DtN map and state matrix goes through here,
    in real arithmetic when M and rhs have no imaginary part.
    """
    if not (M.imag.any() or rhs.imag.any()):
        M, rhs = M.real, rhs.real
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
    """Schur complement M_BB - M_BI M_II^-1 M_IB (through Q when given), as a
    complex matrix; the solve is real exactly when M is, and then so is this."""
    X = _interior_solve(M, nb, M[nb:, :nb], Q)
    A = M if np.iscomplexobj(X) else M.real
    return (A[:nb, :nb] - A[:nb, nb:] @ X).astype(complex, copy=False)


def _symmetric_dtn(M: np.ndarray, nb: int,
                   Q: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The symmetric part (F + F^T) / 2 of the Schur product F = _schur_dtn(M,
    nb, Q), and the asymmetry max|F - F^T| it discards. M is symmetric, so
    the exact map is too; the symmetric part is never farther from it in
    the Frobenius norm, the projection being orthogonal. Halved before the
    sum, which cannot overflow and gives the same bits in the normal range."""
    F = _schur_dtn(M, nb, Q)
    return 0.5 * F + 0.5 * F.T, float(np.abs(F - F.T).max(initial=0.0))


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
    """Schur-complement Dirichlet-to-Neumann map for invertible interiors,
    exactly symmetric."""
    op = _operator(g, sigma, q)
    return DtnMap(matrix=_symmetric_dtn(op.matrix, op.nb)[0], provenance="pd")


def _interior_spectrum(g: Graph, blocks: np.ndarray):
    """Eigenpairs of the interior block of the real Laplacian of ``blocks``,
    and the cut _NULL_TOL * |largest eigenvalue| below which one counts as
    zero."""
    nb = blocks.shape[1] * g.num_boundary
    w, v = np.linalg.eigh(laplacian_matrix(g, blocks).real[nb:, nb:])
    return w, v, _NULL_TOL * max(abs(w).max(initial=0.0), np.finfo(float).tiny)


def _unit_blocks(eig: EigenData) -> np.ndarray:
    """x x^T per edge: the edge blocks with every kept eigenvalue set to 1."""
    return eig.x @ eig.x.transpose(0, 2, 1)


def floppy_basis(g: Graph, sigma: MatrixEdgeField) -> FloppyBasis:
    """Orthonormal basis of displacements with zero boundary values and zero
    interior net force, as canonical-ordering columns.

    The modes are the complement of the Q basis in the same interior
    spectrum, that of the unit-eigenvalue Laplacian; its nullspace is that
    of the complex Laplacian in the supported rank-deficient regimes, and
    the count does not depend on how widely the edge eigenvalues spread.
    """
    w, v, cut = _interior_spectrum(g, _unit_blocks(eigen_decompose(sigma)))
    null = v[:, w <= cut]
    modes = np.zeros((sigma.d * g.num_vertices, null.shape[1]))
    modes[sigma.d * g.num_boundary:] = null
    return FloppyBasis(modes=modes)


def q_basis(g: Graph, eig: EigenData) -> np.ndarray:
    """Real orthonormal basis of the range of the interior Laplacian block,
    (d|I|, rank), built from the conductivity eigenvectors only (unit
    eigenvalues)."""
    w, v, cut = _interior_spectrum(g, _unit_blocks(eig))
    return v[:, w > cut]


def solve_dirichlet_psd(
    g: Graph,
    sigma: MatrixEdgeField,
    gb: np.ndarray | VectorNodeField,
) -> VectorNodeField:
    """Minimal-norm Dirichlet solution for rank-deficient conductivities.

    The interior part is the pseudoinverse solve realized through the Q
    basis, so the floppy component is zero.
    """
    eig = eigen_decompose(sigma)
    return _solve(g, assemble_laplacian(g, sigma), gb, q_basis(g, eig))


def dtn_psd(g: Graph, sigma: MatrixEdgeField) -> DtnMap:
    """Dirichlet-to-Neumann map for rank-deficient conductivities via the Q
    basis of the interior range, exactly symmetric."""
    eig = eigen_decompose(sigma)
    op = assemble_laplacian(g, sigma)
    return DtnMap(matrix=_symmetric_dtn(op.matrix, op.nb, q_basis(g, eig))[0], provenance="psd")

