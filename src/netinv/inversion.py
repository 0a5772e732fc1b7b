"""Linearization engine: product-of-solutions matrix, Jacobians, the
uniqueness-a.e. test and Newton inversion with minimal-norm steps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dirichlet import _dirichlet_state_matrix, _schur_dtn
from .graph import Graph, MatrixEdgeField, _block_outer, _vertex_rows
from .operators import laplacian_matrix, schrodinger_matrix

__all__ = [
    "ProblemSpec",
    "ProductMatrix",
    "UniquenessVerdict",
    "NewtonTrace",
    "InadmissibleParameterError",
    "product_matrix",
    "jacobian",
    "fd_jacobian",
    "uniqueness_test",
    "newton_invert",
    "line_rank_scan",
    "identity_residual",
    "make_spec_conductivity",
    "make_spec_schrodinger",
]

DEFAULT_EPSILON = 1e-8


class InadmissibleParameterError(ValueError):
    """Parameter lies outside the admissible set of the problem."""


@dataclass(frozen=True)
class ProblemSpec:
    """One concrete inverse problem: forward map, internal states and the
    bilinear pairing of the boundary/interior identity.

    ``states(p)`` is the matrix of internal states for the n basis boundary
    conditions, one state per column. ``bilinear(S1, S2)`` pairs two such
    matrices into the m x n^2 product matrix W: column i + j*n pairs column
    i of S1 with column j of S2, with rows aligned with the parameter
    layout. ``is_real`` restricts Newton steps to real vectors.
    """

    name: str
    m: int
    n: int
    is_real: bool
    admissible: Callable[[np.ndarray], bool]
    forward: Callable[[np.ndarray], np.ndarray]
    states: Callable[[np.ndarray], np.ndarray]
    bilinear: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def _flat(self, x: np.ndarray, what: str, error: type[ValueError]) -> np.ndarray:
        """x as a flat real (``is_real``) or complex vector; a real spec
        refuses a nonzero imaginary part rather than dropping it."""
        x = np.asarray(x)
        if self.is_real and np.iscomplexobj(x):
            if x.imag.any():
                raise error(f"{self.name}: real {what} has a nonzero imaginary part")
            x = x.real
        return np.asarray(x, dtype=float if self.is_real else complex).reshape(-1)

    def require_admissible(self, p: np.ndarray) -> np.ndarray:
        p = self._flat(p, "parameter", InadmissibleParameterError)
        if p.shape != (self.m,):
            raise InadmissibleParameterError(
                f"{self.name}: parameter length {p.size}, expected {self.m}")
        if not self.admissible(p):
            raise InadmissibleParameterError(f"{self.name}: parameter not admissible")
        return p


@dataclass(frozen=True)
class ProductMatrix:
    """m x n^2 matrix of bilinear pairings of basis Dirichlet states; its
    transpose represents the forward-map Jacobian when p1 == p2."""

    W: np.ndarray
    p1: np.ndarray
    p2: np.ndarray


@dataclass(frozen=True)
class UniquenessVerdict:
    sigma_max: float
    sigma_min: float
    epsilon: float
    holds: bool

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "inconclusive"


@dataclass(frozen=True)
class NewtonTrace:
    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    reason: str = ""


def product_matrix(spec: ProblemSpec, p1: np.ndarray, p2: np.ndarray) -> ProductMatrix:
    """W(p1, p2) as one pairing of the two state matrices: column i + j*n
    (0-based) pairs basis states i of p1 and j of p2."""
    p1 = spec.require_admissible(p1)
    p2 = spec.require_admissible(p2)
    S1 = spec.states(p1)
    S2 = S1 if np.array_equal(p1, p2) else spec.states(p2)
    return ProductMatrix(W=spec.bilinear(S1, S2), p1=p1, p2=p2)


def jacobian(spec: ProblemSpec, p: np.ndarray) -> np.ndarray:
    """n^2 x m Jacobian of vec(forward map) at p, as the transposed product
    matrix at (p, p)."""
    return product_matrix(spec, p, p).W.T.copy()


def fd_jacobian(spec: ProblemSpec, p: np.ndarray, h: float = 1e-5,
                direction: complex = 1.0) -> np.ndarray:
    """Central-difference n^2 x m Jacobian oracle.

    ``direction`` chooses the perturbation axis in the complex plane; for the
    analytic forward maps both axes must give the same derivative.
    """
    p = spec.require_admissible(p)
    if spec.is_real and direction != 1.0:
        raise ValueError("real-parameter spec only supports real differencing")
    step = h * direction
    J = np.empty((spec.n * spec.n, spec.m), dtype=complex)
    for k in range(spec.m):
        pp = p.copy()
        pp[k] = p[k] + step
        pm = p.copy()
        pm[k] = p[k] - step
        if not (spec.admissible(pp) and spec.admissible(pm)):
            raise InadmissibleParameterError(
                f"{spec.name}: finite-difference step leaves the admissible set at index {k}")
        J[:, k] = (spec.forward(pp) - spec.forward(pm)).reshape(-1, order="F") / (2 * step)
    return J


def uniqueness_test(spec: ProblemSpec, p: np.ndarray,
                    epsilon: float = DEFAULT_EPSILON) -> UniquenessVerdict:
    """Singular-value test on W(p, p): injectivity of the linearized problem
    certifies uniqueness almost everywhere; otherwise inconclusive."""
    W = product_matrix(spec, p, p).W
    svals = np.linalg.svd(W, compute_uv=False)
    sigma_max = float(svals.max()) if svals.size else 0.0
    # more parameters than data entries: the rows cannot be independent
    sigma_min = 0.0 if spec.m > spec.n ** 2 or not svals.size else float(svals.min())
    return UniquenessVerdict(
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        epsilon=epsilon,
        holds=sigma_min > epsilon * sigma_max,
    )


def _minimal_norm_step(spec: ProblemSpec, J: np.ndarray, r: np.ndarray,
                       rcond: float = 1e-12) -> np.ndarray:
    """Minimal-norm least-squares solution of J dp = -r."""
    if spec.is_real:
        A = np.vstack([J.real, J.imag])
        b = np.concatenate([-r.real, -r.imag])
        dp, *_ = np.linalg.lstsq(A, b, rcond=rcond)
        return dp
    dp, *_ = np.linalg.lstsq(J, -r, rcond=rcond)
    return dp


def newton_invert(
    spec: ProblemSpec,
    target: np.ndarray,
    p0: np.ndarray,
    max_iter: int = 100,
    residual_tol: float = 1e-10,
    step_tol: float = 1e-12,
    armijo: float = 1e-4,
    t_floor: float = 1e-12,
    rcond: float = 1e-12,
) -> tuple[np.ndarray, NewtonTrace]:
    """Newton's method on vec(forward(p) - target) with minimal-norm
    least-squares steps and backtracking line search.

    Accepted steps never increase the residual; iterates stay admissible.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (spec.n, spec.n):
        raise ValueError(f"target must be {spec.n} x {spec.n}")
    p = spec.require_admissible(p0)
    tvec = target.reshape(-1, order="F")
    r = spec.forward(p).reshape(-1, order="F") - tvec
    rnorm = float(np.linalg.norm(r))
    trace = NewtonTrace(iterates=[p.copy()], residuals=[rnorm], step_lengths=[], reason="")
    stop_res = residual_tol * (1.0 + np.linalg.norm(tvec))

    reason = "max_iter"
    for _ in range(max_iter):
        if rnorm <= stop_res:
            reason = "residual"
            break
        J = jacobian(spec, p)
        dp = _minimal_norm_step(spec, J, r, rcond=rcond)
        if np.linalg.norm(dp) <= step_tol:
            reason = "step"
            break
        t = 1.0
        phi = rnorm ** 2
        accepted = False
        while t >= t_floor:
            cand = p + t * dp
            if spec.admissible(cand):
                r_new = spec.forward(cand).reshape(-1, order="F") - tvec
                phi_new = float(np.linalg.norm(r_new)) ** 2
                if phi_new <= (1.0 - 2.0 * armijo * t) * phi:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            reason = "step_collapse"
            break
        p = cand
        r = r_new
        rnorm = float(np.sqrt(phi_new))
        trace.iterates.append(p.copy())
        trace.residuals.append(rnorm)
        trace.step_lengths.append(t)
        if t * np.linalg.norm(dp) <= step_tol:
            reason = "step"
            break
    else:
        reason = "max_iter"
    if rnorm <= stop_res:
        reason = "residual"
    return p, NewtonTrace(trace.iterates, trace.residuals, trace.step_lengths, reason)


@dataclass(frozen=True)
class LineScan:
    samples: list  # (t, sigma_min / sigma_max) pairs
    epsilon: float
    near_singular_fraction: float


def _admissible_extent(spec: ProblemSpec, p: np.ndarray, dp: np.ndarray,
                       sign: float, t_max: float) -> float:
    """Largest |t| in the given direction keeping p + t dp admissible."""
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


def line_rank_scan(
    spec: ProblemSpec,
    p: np.ndarray,
    dp: np.ndarray,
    num_samples: int = 1000,
    epsilon: float = DEFAULT_EPSILON,
    rng: np.random.Generator | None = None,
    t_max: float = 1e6,
) -> LineScan:
    """Sample the Jacobian conditioning along the admissible segment
    p + t dp and report the fraction of near-singular samples."""
    p = spec.require_admissible(p)
    dp = spec._flat(dp, "direction", ValueError)
    if dp.shape != (spec.m,) or not np.linalg.norm(dp):
        raise ValueError("direction must be a nonzero vector of parameter length")
    if rng is None:
        rng = np.random.default_rng(0)
    t_lo = -_admissible_extent(spec, p, dp, -1.0, t_max)
    t_hi = _admissible_extent(spec, p, dp, 1.0, t_max)
    # shrink slightly so samples stay strictly inside the open segment
    ts = rng.uniform(0.999 * t_lo, 0.999 * t_hi, size=num_samples)
    samples = []
    bad = 0
    for t in ts:
        v = uniqueness_test(spec, p + t * dp, epsilon)
        ratio = v.sigma_min / v.sigma_max if v.sigma_max else 0.0
        samples.append((float(t), float(ratio)))
        if not v.holds:
            bad += 1
    return LineScan(samples=samples, epsilon=epsilon,
                    near_singular_fraction=bad / num_samples)


def identity_residual(spec: ProblemSpec, p1: np.ndarray, p2: np.ndarray) -> float:
    """Relative mismatch between vec of the data difference and its
    reconstruction through the product-of-solutions matrix."""
    p1 = spec.require_admissible(p1)
    p2 = spec.require_admissible(p2)
    lhs = (spec.forward(p1) - spec.forward(p2)).reshape(-1, order="F")
    W = product_matrix(spec, p1, p2).W
    rhs = W.T @ (p1 - p2)
    return float(np.abs(lhs - rhs).max() / (1.0 + np.abs(lhs).max(initial=0.0)))


# ---------------------------------------------------------------------------
# Canonical problem specs: matrix conductivity and Schrodinger
# ---------------------------------------------------------------------------


def _sym_real_min_eigs(blocks: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetrised real part of each block."""
    s = 0.5 * (blocks + blocks.transpose(0, 2, 1)).real
    return np.linalg.eigvalsh(s).min(axis=1)


def make_spec_conductivity(g: Graph, d: int) -> ProblemSpec:
    """Recover the matrix-valued edge conductivity from boundary data.

    Parameter layout: per-edge column-stacked d x d blocks, edge order.
    """
    E = g.num_edges
    nb = d * g.num_boundary
    pi, pj = g.edge_positions()

    def blocks_of(p: np.ndarray) -> np.ndarray:
        return p.reshape(E, d, d).transpose(0, 2, 1)  # column-major per block

    def admissible(p: np.ndarray) -> bool:
        p = np.asarray(p).reshape(-1)
        if p.shape != (d * d * E,):
            return False
        return bool((_sym_real_min_eigs(blocks_of(p)) > 0).all())

    def forward(p: np.ndarray) -> np.ndarray:
        M = laplacian_matrix(g, blocks_of(p))
        return _schur_dtn(M, nb)

    def states(p: np.ndarray) -> np.ndarray:
        U = _dirichlet_state_matrix(laplacian_matrix(g, blocks_of(p)), nb)
        U = U.reshape(g.num_vertices, d, nb)
        return (U[pi] - U[pj]).reshape(d * E, nb)

    return ProblemSpec(
        name="conductivity",
        m=d * d * E,
        n=nb,
        is_real=False,
        admissible=admissible,
        forward=forward,
        states=states,
        bilinear=lambda S1, S2: _block_outer(S1, S2, d),
    )


def make_spec_schrodinger(g: Graph, sigma: MatrixEdgeField) -> ProblemSpec:
    """Recover the matrix-valued node potential for a known conductivity with
    positive-definite real part.

    Parameter layout: per-vertex column-stacked d x d blocks, vertex id order.
    """
    d = sigma.d
    n_vert = g.num_vertices
    nb = d * g.num_boundary
    interior = list(g.interior)
    Lr = laplacian_matrix(g, sigma.values.real).real
    lam_II = float(np.linalg.eigvalsh(Lr[nb:, nb:]).min()) if g.num_interior else 0.0
    perm = _vertex_rows(g, d)

    def blocks_of(p: np.ndarray) -> np.ndarray:
        return p.reshape(n_vert, d, d).transpose(0, 2, 1)

    def admissible(p: np.ndarray) -> bool:
        p = np.asarray(p).reshape(-1)
        if p.shape != (d * d * n_vert,):
            return False
        return bool((_sym_real_min_eigs(blocks_of(p)[interior]) > -lam_II).all())

    def forward(p: np.ndarray) -> np.ndarray:
        M = schrodinger_matrix(g, sigma.values, blocks_of(p))
        return _schur_dtn(M, nb)

    def states(p: np.ndarray) -> np.ndarray:
        M = schrodinger_matrix(g, sigma.values, blocks_of(p))
        return _dirichlet_state_matrix(M, nb)[perm]

    return ProblemSpec(
        name="schrodinger",
        m=d * d * n_vert,
        n=nb,
        is_real=False,
        admissible=admissible,
        forward=forward,
        states=states,
        bilinear=lambda S1, S2: _block_outer(S1, S2, d),
    )
