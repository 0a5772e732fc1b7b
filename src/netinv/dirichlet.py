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
    _LevelPlan,
    _Levels,
    _level_plan,
    _real_if_real,
    eigen_decompose,
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
    blocks is solved; built only by ``_route``. Its ``plan`` holds every
    operator by levels (``operators._LevelPlan``): the interior levels of
    the graph, deepest last, or the whole interior as one level, whose
    products are those of one dense solve, bit for bit. A route built from
    edge eigendata has ``floppy``, the floppy modes, (d|V|, f) in canonical
    order and zero on the boundary; a route with a floppy mode has one
    level."""

    plan: _LevelPlan
    floppy: np.ndarray | None = None

    @property
    def nb(self) -> int:
        return self.plan.nb

    @property
    def rows(self) -> list:
        return self.plan.rows


@dataclass(frozen=True)
class DirichletRegime:
    """A regime tag with its diagnostics; a supported regime solves the
    Dirichlet problem of its network and gives its DtN map."""

    tag: RegimeTag
    diagnostics: dict = field(default_factory=dict)
    # the graph, how every supported regime is solved, and the operator M of
    # (sigma, q) by the route's levels that it solves; None when unsupported
    graph: Graph | None = field(default=None, repr=False, compare=False)
    route: _Route | None = field(default=None, repr=False, compare=False)
    operator: _Levels | None = field(default=None, repr=False, compare=False)

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
        just above M_II's largest diagonal entry, taken by the block rows of
        the levels: the same bits under (sigma, q) -> 2^k (sigma, q);
        RegimeError when that is beyond RESIDUAL_TOL, FieldError when u is
        beyond float range."""
        g, M, nb = self.graph, self.operator, self._supported().nb
        gvec = gb.boundary_values(g) if isinstance(gb, VectorNodeField) \
            else np.asarray(gb, dtype=complex).reshape(-1)
        if gvec.shape != (nb,):
            raise FieldError("boundary data has wrong length")
        with np.errstate(over="ignore", invalid="ignore"):
            flat = np.concatenate([gvec, -_interior_solve(M, M.L[0] @ gvec, self.route)])
            resid = _residual(M, flat)
        if not np.isfinite(flat).all():
            raise FieldError("the Dirichlet solution overflows")
        if not resid <= RESIDUAL_TOL * (1.0 + np.linalg.norm(gvec)):  # NaN fails too
            raise RegimeError(f"interior residual {resid:.3e} beyond tolerance")
        return VectorNodeField.from_canonical(g, flat, len(flat) // g.num_vertices), resid


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
    regime keeps its route and the operator M of (sigma, q), scattered here
    once, on the route's plan.

    The paper's criteria are (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II)
    and (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I')). sigma'_e > 0
    (lambda_min > PD_TOL lambda_max) on every edge of a graph whose every
    vertex reaches the boundary makes (L_sigma')_II > 0, so (i) holds with no
    test when q_I' >= 0; otherwise one Cholesky of Lr_II - shift I certifies
    (i) or (ii), on a dense Lr_II built for it. The PSD regimes need q = 0,
    sigma' >= 0, no zero edge block and an edge eigendecomposition, which
    gives the floppy modes and so the route, one level when there is a
    floppy mode. Such a network is PD only by the theorem: with q = 0 and
    an edge block that is not PD, neither certificate applies. So the tag,
    and with it the route, is known before M is scattered, once, on the
    plan the regime keeps. A graph with a vertex that the boundary does not reach is
    unsupported, the first such vertex id reported as ``unreached``. M is
    scattered on every network, so a sum beyond float range is refused
    before any verdict."""
    q_blocks = _checked(g, sigma, q)
    d, n_I = sigma.d, g.num_interior
    unreached = np.flatnonzero(g.boundary_distance < 0)
    if unreached.size:
        _level_plan(g, d).scatter(sigma.values, q_blocks)
        return DirichletRegime(RegimeTag.UNSUPPORTED, {"unreached": g.order[unreached[0]]})

    sr, si = sigma.values.real, sigma.values.imag
    q_values = q_blocks if q_blocks is not None else np.zeros((g.num_vertices, d, d))
    qr = q_values.real
    w = np.linalg.eigvalsh(sr)  # ascending, edge by edge
    sigma_min, sigma_scale = float(w.min()), np.abs(sr).max(initial=0.0)
    pd_edges = bool((w[:, 0] > PD_TOL * w[:, -1]).all())
    q_I = qr[list(g.interior)]
    q_I_min = _blocks_min_eig(q_I) if n_I else np.inf
    diag: dict = {"sigma_real_min_eig": sigma_min,
                  "q_interior_real_min_eig": q_I_min if n_I else None}
    psd = _is_zero_field(q_values) and sigma_min > -PD_TOL * (1.0 + sigma_scale)
    norms = np.abs(sigma.values).reshape(g.num_edges, -1).max(axis=1)
    eig = None
    if psd and not pd_edges:
        if (norms <= ZERO_TOL).any():
            diag["zero_edge"] = int(np.argmin(norms))
        else:
            try:
                eig = eigen_decompose(sigma)
            except FieldError as exc:
                diag["commuting_failure"] = str(exc)
    route = _route(g, d, eig)
    M = route.plan.scatter(sigma.values, q_blocks)
    if pd_edges and q_I_min >= 0:
        return DirichletRegime(RegimeTag.PD_SIGMA, diag, g, route, M)
    if eig is not None:
        tag = RegimeTag.PSD_REAL if _is_zero_field(si) else RegimeTag.PSD_COMMUTING
        return DirichletRegime(tag, diag, g, route, M)

    # Lr_II, the real interior Laplacian: M's real interior block less Re q_I
    Lr_II = M.interior().real.copy()
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
            return DirichletRegime(tag, {**diag, "cholesky_shift": shift}, g, route, M)
    if not n_I and len(q_values) and _blocks_min_eig(qr[list(g.boundary)]) > PD_TOL:
        return DirichletRegime(RegimeTag.PD_Q, diag, g, route, M)
    # only an unsupported network reports lambda_min(Lr_II), so only it pays for eigvalsh
    diag["laplacian_interior_min_eig"] = float(np.linalg.eigvalsh(Lr_II).min()) if n_I else 0.0
    return DirichletRegime(RegimeTag.UNSUPPORTED, diag)


def _route(g: Graph, d: int, eig: EigenData | None = None) -> _Route:
    """The route of a canonical operator on g with d x d blocks: the
    interior levels of g (``operators._level_plan``), or the interior as one
    level when there is a floppy mode. With the edge eigendata ``eig``, the
    floppy modes are the nullspace of the interior block of the Laplacian
    whose edge blocks are x x^T (every kept eigenvalue set to 1), cut at
    _NULL_TOL times its largest eigenvalue: the complex Laplacian's in the
    supported rank-deficient regimes, whatever the edge spread."""
    plan, floppy = _level_plan(g, d), None
    if eig is not None:
        one = _level_plan(g, d, one_level=True)
        w, v = np.linalg.eigh(one.scatter(eig.x @ eig.x.transpose(0, 2, 1)).interior())
        kept = w > _NULL_TOL * max(abs(w).max(initial=0.0), np.finfo(float).tiny)
        floppy = np.zeros((one.nb + one.interior_rows, int((~kept).sum())))
        floppy[one.nb:] = v[:, ~kept]
        if floppy.shape[1]:
            plan = one
    return _Route(plan, floppy)


def _solved(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S^-1 B, RegimeError when S is singular."""
    try:
        return np.linalg.solve(S, B)
    except np.linalg.LinAlgError as exc:
        raise RegimeError("interior block is singular; regime misclassified") from exc


def _interior(M: _Levels, route: _Route) -> tuple[list, list, list, float | None]:
    """What both kernels eliminate: the interior blocks D_k, U_k and L_k of
    the levels k >= 1 of M (M_II), plus gamma F F^T on the one level of a
    route with floppy modes F, and the factor s by which the right-hand side
    is to be scaled with them, None when it is not. gamma is the power of two
    just below M_II's largest diagonal entry. M F = 0 in the supported
    regimes, so rhs = M_IB G is orthogonal to F, the sum is invertible and
    gives the minimal-norm solution. Beyond 2^500 that entry is first divided
    out exactly, s = 2^-e, of the blocks and of rhs."""
    D, U, L, e, s = M.D[1:], M.U[1:], M.L[1:], M.exponent, None
    if e > 500:
        s = np.ldexp(1.0, -e)
        D, U, L, e = [s * A for A in D], [s * A for A in U], [s * A for A in L], 0
    F = route.floppy
    if F is not None and F.shape[1]:
        F = F[route.nb:]
        D = [D[0] + np.ldexp(1.0, e - 1) * (F @ F.T)]
    return D, U, L, s


def _eliminate(D: list, U: list, L: list, solves: list | None = None) -> np.ndarray:
    """Eliminate the block tridiagonal interior level by level from the
    deepest one out: S_L = D_L, S_k = D_k - U_k Z_k+1 with
    Z_k+1 = S_k+1^-1 L_k, the blocks A_kk, A_k,k+1 and A_k+1,k. Returns S_1;
    the Z_k+1 that back-substitution needs are appended to ``solves``,
    deepest first, when it is given. L_k need not be the transpose of U_k."""
    S = D[-1]
    for k in range(len(D) - 2, -1, -1):
        Z = _solved(S, L[k])
        S = U[k] @ Z
        np.subtract(D[k], S, out=S)
        if solves is not None:
            solves.append(Z)
    return S


def _level_solutions(M: _Levels, rhs: np.ndarray, route: _Route):
    """The rows and the solution x_k of every level k of M_II x = M_IB G, for
    the operator M by the route's levels and rhs = M_1B G, the right-hand
    side on level 1 (one column per column of G, or a vector): M_IB vanishes
    outside level 1, level 1 being exactly the interior vertices with a
    boundary neighbour. With floppy modes x is the minimal-norm solution
    (``_interior``).

    The interior is eliminated level by level (``_eliminate``), S_1 x_1 =
    rhs is solved and x_k+1 = -Z_k+1 x_k back-substituted; with one level
    this is one dense solve. Every Dirichlet solution, DtN map and state
    matrix goes through here, in real arithmetic when M is real and rhs has
    no imaginary part.
    """
    D, U, L, s = _interior(M, route)
    rhs = _real_if_real(rhs)
    if s is not None:
        rhs = s * rhs
    solves = []
    x = _solved(_eliminate(D, U, L, solves), rhs)
    rows = route.rows
    yield rows[0], x
    for r, Z in zip(rows[1:], reversed(solves)):
        x = Z @ x
        np.negative(x, out=x)
        yield r, x


def _interior_solve(M: _Levels, rhs: np.ndarray, route: _Route) -> np.ndarray:
    """M_II^-1 M_IB G in canonical interior order, rhs = M_1B G
    (``_level_solutions``); the interior of a Dirichlet solution is
    -M_II^-1 M_IB g."""
    levels = list(_level_solutions(M, rhs, route))
    x = levels[0][1]
    out = np.empty((M.plan.interior_rows,) + x.shape[1:], dtype=x.dtype)
    for r, x in levels:
        out[r] = x
    return out


def _residual(M: _Levels, u: np.ndarray) -> float:
    """|(2^-e M u)_I| for the canonical vector u, by the block rows of the
    levels: row block k is L_k-1 u_k-1 + D_k u_k + U_k u_k+1, each block
    first multiplied exactly by 2^-e (``_Levels.exponent``)."""
    nb, rows, e = M.plan.nb, M.plan.rows, M.exponent
    parts = [u[:nb]] + [u[nb:][r] for r in rows]

    def scaled(A: np.ndarray) -> np.ndarray:
        return np.ldexp(A.view(float), -e).view(A.dtype)

    blocks = [scaled(M.L[k - 1]) @ parts[k - 1] + scaled(M.D[k]) @ parts[k]
              + (scaled(M.U[k]) @ parts[k + 1] if k < len(rows) else 0.0)
              for k in range(1, len(rows) + 1)]
    return float(np.linalg.norm(np.concatenate(blocks)))


def _schur_dtn(M: _Levels, route: _Route) -> np.ndarray:
    """Schur complement M_BB - M_BI M_II^-1 M_IB, real exactly when M is.

    M_BI vanishes outside the first interior level, so the elimination of
    ``_interior_solve`` stops at S_1: this is M_BB - M_B1 S_1^-1 M_1B, with no
    back-substitution."""
    D, U, L, s = _interior(M, route)
    M_1B = M.L[0] if s is None else s * M.L[0]
    return M.D[0] - M.U[0] @ _solved(_eliminate(D, U, L), M_1B)


def _dtn(M: _Levels, route: _Route) -> DtnMap:
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


def _dirichlet_state_matrix(M: _Levels, route: _Route) -> np.ndarray:
    """Solutions of the Dirichlet problem for every basis boundary vector,
    stacked as columns in the canonical ordering."""
    nb = route.nb
    U = np.eye(nb + M.plan.interior_rows, nb, dtype=complex)
    interior = U[nb:]
    for r, x in _level_solutions(M, M.L[0], route):
        interior[r] = -x
    return U


def _checked(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> np.ndarray | None:
    """The blocks of q, None without q, after checking that the fields fit g
    and each other."""
    if sigma.values.shape[0] != g.num_edges:
        raise FieldError("conductivity does not match edge count")
    if q is None:
        return None
    if sigma.d != q.d:
        raise FieldError("conductivity and potential block sizes differ")
    if q.values.shape[0] != g.num_vertices:
        raise FieldError("potential does not match vertex count")
    return q.values


def dtn_pd(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DtnMap:
    """Schur-complement Dirichlet-to-Neumann map for invertible interiors,
    exactly symmetric."""
    q_blocks = _checked(g, sigma, q)
    route = _route(g, sigma.d)
    return _dtn(route.plan.scatter(sigma.values, q_blocks), route)


def floppy_basis(g: Graph, sigma: MatrixEdgeField) -> FloppyBasis:
    """Orthonormal basis of displacements with zero boundary values and zero
    interior net force, as canonical-ordering columns (``_route``)."""
    return FloppyBasis(modes=_route(g, sigma.d, eigen_decompose(sigma)).floppy)


def dtn_psd(g: Graph, sigma: MatrixEdgeField) -> DtnMap:
    """Dirichlet-to-Neumann map for rank-deficient conductivities, with the
    floppy modes regularized (``_interior``), exactly symmetric."""
    if sigma.values.shape[0] != g.num_edges:
        raise FieldError("conductivity does not match edge count")
    route = _route(g, sigma.d, eigen_decompose(sigma))
    return _dtn(route.plan.scatter(sigma.values), route)
