"""Independent reference computations shared by the tests."""

import numpy as np

from netinv.dirichlet import PD_TOL, ZERO_TOL, RegimeTag
from netinv.graph import (
    FieldError,
    Graph,
    MatrixEdgeField,
    MatrixNodeField,
    is_connected,
    is_interior_connected,
)
from netinv.operators import (
    COMMUTE_TOL,
    RANK_TOL,
    EigenData,
    assemble_laplacian,
    eigen_decompose,
    laplacian_matrix,
)


def dtn_pseudoinverse_oracle(g: Graph, sigma: MatrixEdgeField) -> np.ndarray:
    """Independent SVD-pseudoinverse form of the rank-deficient map."""
    op = assemble_laplacian(g, sigma)
    M, nb = op.matrix, op.nb
    if not g.num_interior:
        return M[:nb, :nb].copy()
    return M[:nb, :nb] - M[:nb, nb:] @ np.linalg.pinv(M[nb:, nb:]) @ M[nb:, :nb]


def eigen_decompose_loop(sigma: MatrixEdgeField) -> tuple[list, list]:
    """Per-edge eigendecomposition, one edge at a time: lists of the kept
    eigenvectors x(e) (d, r_e) and eigenvalues lambda(e) (r_e,), with the
    same keep rule, sign rule and checks as ``eigen_decompose``."""
    xs, lams = [], []
    for e, block in enumerate(sigma.values):
        sr = block.real
        si = block.imag
        comm = sr @ si - si @ sr
        scale = np.linalg.norm(sr) * np.linalg.norm(si)
        if np.linalg.norm(comm) > COMMUTE_TOL * max(scale, 1e-300):
            raise FieldError(f"real and imaginary parts of edge {e} do not commute")
        w, v = np.linalg.eigh(sr)
        keep = w > RANK_TOL * max(w.max(initial=0.0), np.finfo(float).tiny)
        if not keep.any():
            raise FieldError(f"edge {e} has zero real part")
        x = v[:, keep]
        for c in range(x.shape[1]):
            col = x[:, c]
            nz = np.flatnonzero(np.abs(col) > 1e-14)
            if nz.size and col[nz[0]] < 0:
                x[:, c] = -col
        proj_out = si - x @ (x.T @ si @ x) @ x.T
        if np.linalg.norm(proj_out) > 1e-8 * max(np.linalg.norm(si), 1.0):
            raise FieldError(
                f"nullspace of real part of edge {e} not contained in that of imaginary part")
        xs.append(x)
        lams.append(w[keep] + 1j * np.diag(x.T @ si @ x))
    return xs, lams


def reconstruct_from_eigen(eig: EigenData) -> MatrixEdgeField:
    """Edge blocks x diag(lambda) x^T rebuilt from eigendata."""
    return MatrixEdgeField.from_blocks((eig.x * eig.lam[:, None, :]) @ eig.x.transpose(0, 2, 1))


def admissible_extent_bisection(spec, p, dp, sign: float, t_max: float) -> float:
    """Largest |t| <= t_max in the given direction keeping p + t dp
    admissible, by doubling and 60 bisection steps on ``spec.admissible``."""
    t = 0.0
    hi = 1.0
    while hi <= t_max and spec.admissible(p + sign * hi * dp):
        t = hi
        hi *= 2.0
    lo, hi = t, min(hi, t_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if spec.admissible(p + sign * mid * dp):
            lo = mid
        else:
            hi = mid
    return lo


def classify_regime_eigvalsh(g: Graph, sigma: MatrixEdgeField,
                             q: MatrixNodeField | None) -> RegimeTag:
    """Regime tag by the full spectrum: the PD criteria compare the smallest
    eigenvalue lambda_II of the real interior Laplacian, from a dense
    eigvalsh, with a margin; the same order and tolerances as
    ``classify_regime``."""
    if not (is_connected(g) and is_interior_connected(g)):
        return RegimeTag.UNSUPPORTED

    def margin(x):
        return PD_TOL * (1.0 + abs(x))

    def blocks_min_eig(blocks):
        return float(np.linalg.eigvalsh(blocks).min())

    sr = sigma.values.real
    q_values = q.values if q is not None else np.zeros((g.num_vertices, sigma.d, sigma.d))
    qr = q_values.real
    sigma_min = blocks_min_eig(sr)
    sigma_scale = np.abs(sr).max(initial=0.0)
    nb = sigma.d * g.num_boundary
    Lr_II = laplacian_matrix(g, sr).real[nb:, nb:]
    lam_II = float(np.linalg.eigvalsh(Lr_II).min()) if Lr_II.size else 0.0
    q_I = qr[list(g.interior)] if g.interior else np.zeros((0, sigma.d, sigma.d))
    q_I_min = blocks_min_eig(q_I) if len(q_I) else np.inf

    # (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II)
    if sigma_min > PD_TOL * (1.0 + sigma_scale):
        if not g.interior or q_I_min + lam_II > margin(lam_II):
            return RegimeTag.PD_SIGMA
    # (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I'))
    if g.interior and q_I_min > PD_TOL * (1.0 + np.abs(q_I).max(initial=0.0)):
        if lam_II + q_I_min > margin(q_I_min):
            return RegimeTag.PD_Q
    if not g.interior and len(q_values) and blocks_min_eig(qr[list(g.boundary)]) > PD_TOL:
        return RegimeTag.PD_Q

    def is_zero(values):
        return np.abs(values).max(initial=0.0) <= ZERO_TOL

    if not is_zero(q_values) or sigma_min <= -PD_TOL * (1.0 + sigma_scale):
        return RegimeTag.UNSUPPORTED
    if (np.abs(sigma.values).reshape(g.num_edges, -1).max(axis=1) <= ZERO_TOL).any():
        return RegimeTag.UNSUPPORTED
    if is_zero(sigma.values.imag):
        return RegimeTag.PSD_REAL
    try:
        eigen_decompose(sigma)
    except FieldError:
        return RegimeTag.UNSUPPORTED
    return RegimeTag.PSD_COMMUTING


def complex_state_matrix(M: np.ndarray, nb: int, Q: np.ndarray | None = None) -> np.ndarray:
    """Dirichlet states [I; -M_II^-1 M_IB] (through the interior range basis
    Q when given) by complex LU, whatever the imaginary part of M; the DtN
    map is M[:nb] @ states."""
    M = np.asarray(M, dtype=complex)
    M_II, M_IB = M[nb:, nb:], M[nb:, :nb]
    if Q is None:
        X = np.linalg.solve(M_II, M_IB)
    else:
        Qc = Q.astype(complex)
        X = Qc @ np.linalg.solve(Qc.T @ M_II @ Qc, Qc.T @ M_IB)
    return np.vstack([np.eye(nb, dtype=complex), -X])


def relative_error(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """max |a - b| relative to the largest entry of ``scale``: the operator
    for a DtN map, the state matrix for states (a map or its states can
    vanish, e.g. with one boundary vertex and no potential)."""
    return float(np.abs(a - b).max() / np.abs(scale).max())
