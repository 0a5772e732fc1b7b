"""Independent reference computations shared by the tests."""

import numpy as np

from netinv.graph import FieldError, Graph, MatrixEdgeField
from netinv.operators import COMMUTE_TOL, RANK_TOL, EigenData, assemble_laplacian


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
