"""Linearization engine: product-of-solutions matrix, Jacobians, the
uniqueness-a.e. test and Newton inversion with minimal-norm steps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dirichlet import _dirichlet_state_matrix, _Route, _route, _schur_dtn
from .graph import (
    FieldError,
    Graph,
    MatrixEdgeField,
    _block_outer,
    _block_outer_split,
    _edge_rows,
    _split_plan,
    _vertex_rows,
)

__all__ = [
    "ProblemSpec",
    "ProductMatrix",
    "UniquenessVerdict",
    "NewtonTrace",
    "InadmissibleParameterError",
    "LineScan",
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
# Newton: stop when a step is this short; the Armijo sufficient-decrease
# factor; the smallest line-search step length; the lstsq singular value cut.
_STEP_TOL = 1e-12
_ARMIJO = 1e-4
_T_FLOOR = 1e-12
_RCOND = 1e-12
# Cap on |t| for a side of a line scan where the admissible cone never closes.
_T_MAX = 1e6


class InadmissibleParameterError(ValueError):
    """Parameter lies outside the admissible set of the problem."""


@dataclass(frozen=True)
class ProblemSpec:
    """One concrete inverse problem: forward map, internal states, the
    bilinear pairing of the boundary/interior identity and the admissible set.

    ``states(p)`` is the matrix of internal states for the n basis boundary
    conditions, one state per column. The pairing of two such matrices is
    the blockwise outer product of their ``block``-row groups
    (``graph._block_outer``); with ``components`` > 1 (``block`` = 1 only)
    each row of W sums that many consecutive rows, as the masses spec sums
    the d components of a vertex. ``is_real`` restricts Newton steps to
    real vectors.

    ``cone(p)`` is an affine map to a stack of square blocks: p is
    ``admissible`` iff it is finite and the symmetric real part of every
    block is positive definite, which is where the Dirichlet problem is
    uniquely solvable. The factories declare it as data (``_make_spec``).
    """

    name: str
    m: int
    n: int
    is_real: bool
    admissible: Callable[[np.ndarray], bool]
    forward: Callable[[np.ndarray], np.ndarray]
    states: Callable[[np.ndarray], np.ndarray]
    cone: Callable[[np.ndarray], np.ndarray]
    block: int
    components: int = 1
    # the split plan of the last zero pattern of a state matrix (``_split``);
    # a copy made by dataclasses.replace starts empty
    _split_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def bilinear(self, S1: np.ndarray, S2: np.ndarray) -> np.ndarray:
        """The m x n^2 product matrix W of two state matrices: column
        i + j*n pairs column i of S1 with column j of S2, with rows aligned
        with the parameter layout."""
        return self._sum_components(_block_outer(S1, S2, self.block))

    def _split(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """bilinear(S, S) as the blocks W+ and W- of its exact orthogonal
        split, less zero columns (``graph._block_outer_split``). The pairs
        that meet, and the rest of the split plan, are kept for the zero
        pattern of S, which seldom changes from one parameter to the next;
        a new pattern replaces the plan."""
        b = self.block
        nonzero = (S.reshape(-1, b, S.shape[1]) != 0).any(axis=1)
        key = (nonzero.shape, nonzero.tobytes())
        plan = self._split_plans.get(key)
        if plan is None:
            self._split_plans.clear()
            plan = self._split_plans[key] = _split_plan(nonzero, b)
        return tuple(self._sum_components(B) for B in _block_outer_split(S, b, plan))

    def _sum_components(self, W: np.ndarray) -> np.ndarray:
        if self.components == 1:
            return W
        return W.reshape(len(W) // self.components, self.components, W.shape[1]).sum(axis=1)

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
    matrix at (p, p); a FieldError when W is beyond float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        W = product_matrix(spec, p, p).W
    if not np.isfinite(W).all():
        raise FieldError(f"{spec.name}: the product matrix W(p, p) overflows")
    return W.T


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


def _require_epsilon(epsilon: float) -> None:
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def uniqueness_test(spec: ProblemSpec, p: np.ndarray,
                    epsilon: float = DEFAULT_EPSILON) -> UniquenessVerdict:
    """Singular-value test on W(p, p): injectivity of the linearized problem
    certifies uniqueness almost everywhere; otherwise inconclusive.

    sigma_min is the m-th largest singular value of W, and exactly 0 when
    the shape of W or of a block of its split rules out m independent rows.
    The singular values come from the two blocks of the exact split of W
    (``ProblemSpec._split``), in real arithmetic when the states are real;
    W itself is never formed, nor its columns of states that never meet.
    A block beyond float range is refused with a FieldError.
    """
    _require_epsilon(epsilon)
    p = spec.require_admissible(p)
    with np.errstate(over="ignore", invalid="ignore"):
        S = spec.states(p)
        if not S.imag.any():
            S = S.real
        blocks = spec._split(S)
    if not all(np.isfinite(B).all() for B in blocks):
        raise FieldError(f"{spec.name}: the product matrix W(p, p) overflows")
    # the transposes, blocks of the Jacobian, stay mostly tall without the
    # pairs that never meet: LAPACK's faster orientation, and a copy-free view
    svals = np.concatenate([np.zeros(0)] + [np.linalg.svd(B.T, compute_uv=False)
                                            for B in blocks if B.size])
    sigma_max = float(svals.max()) if svals.size else 0.0
    # more rows than kept columns (those left out are zero): W's rows are dependent
    deficient = any(B.shape[0] > B.shape[1] for B in blocks)
    sigma_min = 0.0 if deficient or not svals.size else float(svals.min())
    return UniquenessVerdict(
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        epsilon=epsilon,
        holds=sigma_min > epsilon * sigma_max,
    )


def _minimal_norm_step(spec: ProblemSpec, J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimal-norm least-squares solution of J dp = -r."""
    if spec.is_real:
        A = np.vstack([J.real, J.imag])
        b = np.concatenate([-r.real, -r.imag])
        dp, *_ = np.linalg.lstsq(A, b, rcond=_RCOND)
        return dp
    dp, *_ = np.linalg.lstsq(J, -r, rcond=_RCOND)
    return dp


def _norm(v: np.ndarray) -> float:
    """The 2-norm of v, taken on v divided by its largest entry, so that it
    overflows only when the norm itself is beyond float range."""
    top = np.abs(v).max(initial=0.0)
    return float(top * np.linalg.norm(v / top)) if top else 0.0


def newton_invert(
    spec: ProblemSpec,
    target: np.ndarray,
    p0: np.ndarray,
    max_iter: int = 100,
    residual_tol: float = 1e-10,
) -> tuple[np.ndarray, NewtonTrace]:
    """Newton's method on vec(forward(p) - target) with minimal-norm
    least-squares steps and backtracking line search.

    Accepted steps never increase the residual; iterates stay admissible.
    An iterate whose residual norm is beyond float range is refused with a
    FieldError.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (spec.n, spec.n):
        raise ValueError(f"target must be {spec.n} x {spec.n}")
    p = spec.require_admissible(p0)
    tvec = target.reshape(-1, order="F")

    def residual(p: np.ndarray) -> tuple[np.ndarray, float]:
        with np.errstate(over="ignore", invalid="ignore"):
            r = spec.forward(p).reshape(-1, order="F") - tvec
            rnorm = _norm(r)
        if not np.isfinite(rnorm):
            raise FieldError(f"{spec.name}: the Newton residual is beyond float range")
        return r, rnorm

    r, rnorm = residual(p)
    iterates, residuals, step_lengths = [p.copy()], [rnorm], []
    stop_res = residual_tol * (1.0 + _norm(tvec))

    reason = "max_iter"
    for _ in range(max_iter):
        if rnorm <= stop_res:
            reason = "residual"
            break
        J = jacobian(spec, p)
        dp = _minimal_norm_step(spec, J, r)
        if _norm(dp) <= _STEP_TOL:
            reason = "step"
            break
        t = 1.0
        accepted = False
        while t >= _T_FLOOR:
            cand = p + t * dp
            if spec.admissible(cand):
                r_new, rnorm_new = residual(cand)
                if rnorm_new <= np.sqrt(1.0 - 2.0 * _ARMIJO * t) * rnorm:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            reason = "step_collapse"
            break
        p, r, rnorm = cand, r_new, rnorm_new
        iterates.append(p.copy())
        residuals.append(rnorm)
        step_lengths.append(t)
        if t * _norm(dp) <= _STEP_TOL:
            reason = "step"
            break
    if rnorm <= stop_res:
        reason = "residual"
    return p, NewtonTrace(iterates, residuals, step_lengths, reason)


@dataclass(frozen=True)
class LineScan:
    samples: list  # (t, sigma_min / sigma_max) pairs
    epsilon: float
    near_singular_fraction: float


def _sym_real(blocks: np.ndarray) -> np.ndarray:
    """Symmetric real parts, halved before the sum, which cannot overflow and
    gives the same bits in the normal range."""
    real = blocks.real
    return 0.5 * real + 0.5 * real.transpose(0, 2, 1)


def _cone_cholesky(blocks: np.ndarray) -> np.ndarray | None:
    """Cholesky factors of the symmetric real parts of a stack of blocks, or
    None when one of them is not positive definite."""
    try:
        return np.linalg.cholesky(_sym_real(blocks))
    except np.linalg.LinAlgError:
        return None


def _admissible_extent(spec: ProblemSpec, p: np.ndarray, dp: np.ndarray,
                       t_max: float) -> tuple[float, float]:
    """The open segment (t_lo, t_hi) of admissible p + t dp, capped at
    |t| <= t_max, for an admissible p.

    The cone is affine, so with A = L L^T and B the symmetric real parts of
    cone(p) and cone(p + dp) - cone(p), each block of cone(p + t dp) has
    symmetric real part L (I + t C) L^T, C = L^-1 B L^-T. It stays positive
    definite while 1 + t mu > 0 for every eigenvalue mu of the blocks C.
    """
    A = spec.cone(p)
    L = _cone_cholesky(A)
    X = np.linalg.solve(L, _sym_real(spec.cone(p + dp) - A))  # L^-1 B
    mu = np.linalg.eigvalsh(np.linalg.solve(L, X.transpose(0, 2, 1)))

    def reach(rate: float) -> float:
        return t_max if rate <= 1.0 / t_max else 1.0 / rate

    return -reach(mu.max(initial=0.0)), reach(-mu.min(initial=0.0))


def line_rank_scan(
    spec: ProblemSpec,
    p: np.ndarray,
    dp: np.ndarray,
    num_samples: int = 1000,
    epsilon: float = DEFAULT_EPSILON,
    rng: np.random.Generator | None = None,
) -> LineScan:
    """Sample the Jacobian conditioning along the admissible segment
    p + t dp, capped at |t| <= _T_MAX, and report the fraction of
    near-singular samples."""
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    _require_epsilon(epsilon)
    p = spec.require_admissible(p)
    dp = spec._flat(dp, "direction", ValueError)
    if dp.shape != (spec.m,) or not np.linalg.norm(dp):
        raise ValueError("direction must be a nonzero vector of parameter length")
    if rng is None:
        rng = np.random.default_rng(0)
    t_lo, t_hi = _admissible_extent(spec, p, dp, _T_MAX)
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


def _make_spec(name: str, route: _Route, m: int, op: Callable, rows: Callable,
               cone: Callable, block: int = 1, components: int = 1) -> ProblemSpec:
    """A complex-parameter ProblemSpec from its data: the route built once
    for the spec, its operator p -> (edge blocks, vertex blocks or None),
    which the route's plan scatters into its levels, the linear map ``rows``
    from the canonical Dirichlet state matrix to the states and the
    admissible cone (``ProblemSpec``)."""

    def forward(p: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            F = _schur_dtn(route.plan.scatter(*op(p)), route)
        if not np.isfinite(F).all():
            raise FieldError(f"{name}: the Dirichlet-to-Neumann map overflows")
        return F.astype(complex, copy=False)

    def states(p: np.ndarray) -> np.ndarray:
        return rows(_dirichlet_state_matrix(route.plan.scatter(*op(p)), route))

    def admissible(p: np.ndarray) -> bool:
        p = np.asarray(p).reshape(-1)
        return p.shape == (m,) and bool(np.isfinite(p).all()) \
            and _cone_cholesky(cone(p)) is not None

    return ProblemSpec(name=name, m=m, n=route.nb, is_real=False, admissible=admissible,
                       forward=forward, states=states, cone=cone, block=block,
                       components=components)


def _blocks(p: np.ndarray, d: int) -> np.ndarray:
    """Column-stacked d x d blocks of a parameter vector."""
    return np.asarray(p).reshape(-1, d, d).transpose(0, 2, 1)


def _vec_blocks(blocks: np.ndarray) -> np.ndarray:
    """The parameter vector of a stack of blocks, the inverse of _blocks."""
    return np.asarray(blocks).transpose(0, 2, 1).reshape(-1)


def make_spec_conductivity(g: Graph, d: int) -> ProblemSpec:
    """Recover the matrix-valued edge conductivity from boundary data.

    Parameter layout: per-edge column-stacked d x d blocks, edge order.
    States: the edge gradients of the Dirichlet states.
    """
    plus, minus = _edge_rows(g, d)
    return _make_spec(
        "conductivity", _route(g, d), d * d * g.num_edges,
        op=lambda p: (_blocks(p, d), None),
        rows=lambda U: U[plus] - U[minus],
        cone=lambda p: _blocks(p, d),
        block=d,
    )


def make_spec_schrodinger(g: Graph, sigma: MatrixEdgeField) -> ProblemSpec:
    """Recover the matrix-valued node potential for a known conductivity with
    positive-definite real part.

    Parameter layout: per-vertex column-stacked d x d blocks, vertex id order.
    Admissible when sym(Re q(i)) + lambda_II I is positive definite at every
    interior vertex, lambda_II the smallest eigenvalue of the real interior
    Laplacian block. That one dense eigvalsh, of the interior block built
    from the route's levels, stays: it runs once per spec and fixes the cone.
    """
    d = sigma.d
    route = _route(g, d)
    interior = list(g.interior)
    Lr_II = route.plan.scatter(sigma.values.real).interior()
    lam_II = float(np.linalg.eigvalsh(Lr_II).min()) if g.num_interior else 0.0
    perm = _vertex_rows(g, d)
    return _make_spec(
        "schrodinger", route, d * d * g.num_vertices,
        op=lambda p: (sigma.values, _blocks(p, d)),
        rows=lambda U: U[perm],
        cone=lambda p: _blocks(p, d)[interior] + lam_II * np.eye(d),
        block=d,
    )
