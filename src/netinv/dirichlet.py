"""Dirichlet solvers, floppy-mode machinery and Dirichlet-to-Neumann maps.

Two regimes are supported. In the positive-definite regimes the interior
block M_II of the Schrodinger operator is invertible and the map is a plain
Schur complement. In the rank-deficient (positive-semidefinite) regimes M_II
may have a nullspace of floppy modes F; adding gamma F F^T makes it
invertible without changing the solution on its range, so solves give the
minimal-norm representative by the same elimination. Which regime applies is
decided once, by ``classify_regime``: the regime it returns keeps the
operator by levels, whose plan carries the floppy modes, and solves and
gives the map on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import (
    TOL,
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
    "RESIDUAL_TOL",
]

RESIDUAL_TOL = 1e-9


class RegimeError(RuntimeError):
    """Operation attempted outside its supported Dirichlet regime."""


class RegimeTag(enum.Enum):
    PD_SIGMA = "pd_sigma"
    PD_Q = "pd_q"
    PSD_REAL = "psd_real"
    PSD_COMMUTING = "psd_commuting"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class DirichletRegime:
    """A regime tag with its diagnostics; a supported regime solves the
    Dirichlet problem of its network and gives its DtN map."""

    tag: RegimeTag
    diagnostics: dict = field(default_factory=dict)
    # the graph and the operator M of (sigma, q) by the levels of its plan
    # (``_route``) that every supported regime solves; None when unsupported
    graph: Graph | None = field(default=None, repr=False, compare=False)
    operator: _Levels | None = field(default=None, repr=False, compare=False)

    def _supported(self) -> _Levels:
        if self.operator is None:
            raise RegimeError(f"no solver for an unsupported regime: {self.diagnostics}")
        return self.operator

    def dtn(self) -> DtnMap:
        """The Dirichlet-to-Neumann map, exactly symmetric."""
        return _dtn(self._supported())

    def solve(self, gb: np.ndarray | VectorNodeField) -> tuple[VectorNodeField, float]:
        """The Dirichlet solution u with u_B = gb, minimal-norm in the
        rank-deficient regimes, and its interior residual |(2^-e M u)_I|, 2^e
        just above M_II's largest diagonal entry, taken by the block rows of
        the levels: the same bits under (sigma, q) -> 2^k (sigma, q);
        RegimeError when that is beyond RESIDUAL_TOL |gb|, a verdict that
        gb -> 2^k gb leaves as it is, FieldError when gb is not finite or u
        is beyond float range."""
        g, M = self.graph, self._supported()
        nb = M.plan.nb
        gvec = gb.boundary_values(g) if isinstance(gb, VectorNodeField) \
            else np.asarray(gb, dtype=complex).reshape(-1)
        if gvec.shape != (nb,):
            raise FieldError("boundary data has wrong length")
        if not np.isfinite(gvec).all():
            raise FieldError("boundary data must be finite")
        flat = np.empty(nb + M.plan.interior_rows, dtype=complex)
        flat[:nb] = gvec
        with np.errstate(over="ignore", invalid="ignore"):
            _solve_interior(M, M.L[0] @ gvec, flat[nb:])
            resid = _residual(M, flat)
        if not np.isfinite(flat).all():
            raise FieldError("the Dirichlet solution overflows")
        if not resid <= RESIDUAL_TOL * np.linalg.norm(gvec):  # NaN fails too
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
    computed Schur product F, with its provenance and the asymmetry
    max|F - F^T| that the symmetric part discards."""

    matrix: np.ndarray
    provenance: str  # "psd" for a plan built from edge eigendata, else "pd"
    asymmetry: float


def _blocks_min_eig(blocks: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(blocks).min())


def classify_regime(g: Graph, sigma: MatrixEdgeField, q: MatrixNodeField | None) -> DirichletRegime:
    """Deterministic regime tag, first match in the order PD_SIGMA, PD_Q,
    PSD_REAL, PSD_COMMUTING, else UNSUPPORTED with diagnostics; a supported
    regime keeps the operator M of (sigma, q), scattered here once, on the
    plan of ``_route``.

    The paper's criteria are (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II)
    and (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I')). sigma'_e > 0
    (lambda_min > TOL lambda_max) on every edge of a graph whose every
    vertex reaches the boundary makes (L_sigma')_II > 0, so (i) holds with no
    test when q_I' >= 0. Both criteria are otherwise the one inequality
    lambda_min((L_sigma')_II) + min q_I' > negligible, negligible = TOL
    max|sigma'| being the network's own unit of zero: (i) where sigma'_e > 0
    and (ii) where min q_I' > negligible, certified by one Cholesky of
    (L_sigma')_II - (negligible - min q_I') I, scattered for it as one level.
    With no interior, PD_Q needs lambda_min(q_B') > negligible. The PSD
    regimes need q = 0, sigma' >= 0 and an edge eigendecomposition (which
    refuses a zero edge block), which gives the floppy modes and so the
    plan, one level when there is a floppy mode; each of those zeros is at
    most negligible, so they are tried only where sigma'_e > 0 fails, and
    the tag, and with it the plan, is known before M is scattered, once, on
    the plan the regime keeps. So no tag, and no certificate shift but by
    the same factor, changes under (sigma, q) -> 4^j (sigma, q). A graph
    with a vertex that the boundary does not reach is unsupported, the first
    such vertex id reported as ``unreached``. M is scattered on every
    network, so a sum beyond float range is refused before any verdict."""
    q_blocks = _checked(g, sigma, q)
    d, n_I = sigma.d, g.num_interior
    unreached = np.flatnonzero(g.boundary_distance < 0)
    if unreached.size:
        _route(g, d).scatter(sigma.values, q_blocks)
        return DirichletRegime(RegimeTag.UNSUPPORTED, {"unreached": g.order[unreached[0]]})

    sr, si = sigma.values.real, sigma.values.imag
    q_values = q_blocks if q_blocks is not None else np.zeros((g.num_vertices, d, d))
    qr = q_values.real
    w = np.linalg.eigvalsh(sr)  # ascending, edge by edge
    sigma_min, negligible = float(w.min()), TOL * np.abs(sr).max(initial=0.0)
    pd_edges = bool((w[:, 0] > TOL * w[:, -1]).all())
    q_I_min = _blocks_min_eig(qr[list(g.interior)]) if n_I else np.inf
    diag: dict = {"sigma_real_min_eig": sigma_min,
                  "q_interior_real_min_eig": q_I_min if n_I else None}
    eig = None
    if not pd_edges and np.abs(q_values).max(initial=0.0) <= negligible and sigma_min >= -negligible:
        try:
            eig = eigen_decompose(sigma)
        except FieldError as exc:
            diag["commuting_failure"] = str(exc)
    M = _route(g, d, eig).scatter(sigma.values, q_blocks)
    if pd_edges and q_I_min >= 0:
        return DirichletRegime(RegimeTag.PD_SIGMA, diag, g, M)
    if eig is not None:
        real = np.abs(si).max(initial=0.0) <= negligible
        return DirichletRegime(RegimeTag.PSD_REAL if real else RegimeTag.PSD_COMMUTING, diag, g, M)

    Lr_II = _level_plan(g, d, one_level=True).scatter(sr).D[1]
    with np.errstate(over="ignore"):  # a shift beyond float range certifies nothing
        shift = negligible - q_I_min
    if (pd_edges or bool(n_I) and q_I_min > negligible) and shift < np.inf:
        try:
            np.linalg.cholesky(Lr_II - shift * np.eye(len(Lr_II)))
        except np.linalg.LinAlgError:
            pass
        else:
            tag = RegimeTag.PD_SIGMA if pd_edges else RegimeTag.PD_Q
            return DirichletRegime(tag, {**diag, "cholesky_shift": shift}, g, M)
    if not n_I and len(q_values) and _blocks_min_eig(qr[list(g.boundary)]) > negligible:
        return DirichletRegime(RegimeTag.PD_Q, diag, g, M)
    # only an unsupported network reports lambda_min(Lr_II), so only it pays for eigvalsh
    diag["laplacian_interior_min_eig"] = float(np.linalg.eigvalsh(Lr_II).min()) if n_I else 0.0
    return DirichletRegime(RegimeTag.UNSUPPORTED, diag)


def _route(g: Graph, d: int, eig: EigenData | None = None) -> _LevelPlan:
    """The plan on which a canonical operator on g with d x d blocks is
    solved: the interior levels of g (``operators._level_plan``), or the
    interior as one level when there is a floppy mode. With the edge
    eigendata ``eig`` it is a copy that carries the floppy modes
    (``_LevelPlan.floppy``): the nullspace of the interior block of the
    Laplacian whose edge blocks are x x^T (every kept eigenvalue set to 1),
    cut at TOL times its largest eigenvalue, the complex Laplacian's in
    the supported rank-deficient regimes, whatever the edge spread."""
    if eig is None:
        return _level_plan(g, d)
    one = _level_plan(g, d, one_level=True)
    w, v = np.linalg.eigh(one.scatter(eig.x @ eig.x.transpose(0, 2, 1)).D[1])
    kept = w > TOL * max(abs(w).max(initial=0.0), np.finfo(float).tiny)
    floppy = np.zeros((one.nb + one.interior_rows, int((~kept).sum())))
    floppy[one.nb:] = v[:, ~kept]
    return replace(one if floppy.shape[1] else _level_plan(g, d), floppy=floppy)


def _solved(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """S^-1 B, RegimeError when S is singular."""
    try:
        return np.linalg.solve(S, B)
    except np.linalg.LinAlgError as exc:
        raise RegimeError("interior block is singular; regime misclassified") from exc


def _ldexp(A: np.ndarray, k: int) -> np.ndarray:
    """A times 2^k entry by entry: finite wherever the result is, even where 2^k is not."""
    return np.ldexp(A.view(float), k).view(A.dtype)


def _interior(M: _Levels, rhs: np.ndarray) -> tuple[list, list, list, np.ndarray]:
    """What every solve eliminates: the interior blocks D_k, U_k and L_k of
    the levels k >= 1 of M (M_II), plus gamma F F^T on the one level of a
    plan with floppy modes F, and the right-hand side rhs = M_1B G, real
    when it has no imaginary part. gamma is the power of two just below
    M_II's largest diagonal entry. M F = 0 in the supported regimes, so rhs
    is orthogonal to F, the sum is invertible and gives the minimal-norm
    solution. Outside [2^-500, 2^500] that entry is first divided out
    exactly, of the blocks and of rhs, since a complex solve of blocks near
    the float limits gives other bits than one of the same blocks scaled."""
    D, U, L, e = M.D[1:], M.U[1:], M.L[1:], M.exponent
    rhs = _real_if_real(rhs)
    if abs(e) > 500:
        D, U, L, rhs, e = *([_ldexp(A, -e) for A in X] for X in (D, U, L)), _ldexp(rhs, -e), 0
    F = M.plan.floppy
    if F is not None and F.shape[1]:
        F = F[M.plan.nb:]
        D = [D[0] + np.ldexp(1.0, e - 1) * (F @ F.T)]
    return D, U, L, rhs


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


def _solve_interior(M: _Levels, rhs: np.ndarray, out: np.ndarray) -> None:
    """Write -M_II^-1 M_IB G, the interior of the Dirichlet solutions with
    boundary data G, into ``out``, the interior rows in canonical order (one
    column per column of G, or a vector), for rhs = M_1B G, the right-hand
    side on level 1: M_IB vanishes outside level 1, level 1 being exactly
    the interior vertices with a boundary neighbour. With floppy modes the
    solution is the minimal-norm one (``_interior``).

    The interior is eliminated level by level (``_eliminate``), S_1 x_1 =
    rhs is solved and x_k+1 = -Z_k+1 x_k back-substituted; with one level
    this is one dense solve. Every Dirichlet solution and state matrix goes
    through here, in real arithmetic when M is real and rhs has no
    imaginary part."""
    D, U, L, rhs = _interior(M, rhs)
    solves = []
    x = _solved(_eliminate(D, U, L, solves), rhs)
    rows = M.plan.rows
    out[rows[0]] = -x
    for r, Z in zip(rows[1:], reversed(solves)):
        x = Z @ x
        np.negative(x, out=x)
        out[r] = -x


def _residual(M: _Levels, u: np.ndarray) -> float:
    """|(2^-e M u)_I| for the canonical vector u, by the block rows of the
    levels: row block k is L_k-1 u_k-1 + D_k u_k + U_k u_k+1, each block
    first multiplied exactly by 2^-e (``_Levels.exponent``)."""
    nb, rows, e = M.plan.nb, M.plan.rows, M.exponent
    parts = [u[:nb]] + [u[nb:][r] for r in rows]
    blocks = [_ldexp(M.L[k - 1], -e) @ parts[k - 1] + _ldexp(M.D[k], -e) @ parts[k]
              + (_ldexp(M.U[k], -e) @ parts[k + 1] if k < len(rows) else 0.0)
              for k in range(1, len(rows) + 1)]
    return float(np.linalg.norm(np.concatenate(blocks)))


def _schur_dtn(M: _Levels) -> np.ndarray:
    """Schur complement M_BB - M_BI M_II^-1 M_IB, real exactly when M is.

    M_BI vanishes outside the first interior level, so the elimination of
    ``_solve_interior`` stops at S_1: this is M_BB - M_B1 S_1^-1 M_1B, with
    no back-substitution."""
    D, U, L, M_1B = _interior(M, M.L[0])
    return M.D[0] - M.U[0] @ _solved(_eliminate(D, U, L), M_1B)


def _dtn(M: _Levels) -> DtnMap:
    """The map of the Schur product F = _schur_dtn(M): its symmetric part
    (F + F^T) / 2 and the asymmetry max|F - F^T| it discards.
    M is symmetric, so the exact map is too; the symmetric part is never
    farther from it in the Frobenius norm, the projection being orthogonal.
    Halved before the sum, which cannot overflow and gives the same bits in
    the normal range. The provenance is "psd" on a plan built from edge
    eigendata, else "pd". A map beyond float range is refused (FieldError)."""
    with np.errstate(over="ignore", invalid="ignore"):
        F = _schur_dtn(M)
        asymmetry = float(np.abs(F - F.T).max(initial=0.0))
    if not (np.isfinite(F).all() and np.isfinite(asymmetry)):
        raise FieldError("the Dirichlet-to-Neumann map overflows")
    return DtnMap(matrix=(0.5 * F + 0.5 * F.T).astype(complex, copy=False),
                  provenance="pd" if M.plan.floppy is None else "psd", asymmetry=asymmetry)


def _dirichlet_state_matrix(M: _Levels) -> np.ndarray:
    """Solutions of the Dirichlet problem for every basis boundary vector,
    stacked as columns in the canonical ordering, in M's dtype: float64
    when M is real."""
    nb = M.plan.nb
    U = np.eye(nb + M.plan.interior_rows, nb, dtype=M.D[0].dtype)
    _solve_interior(M, M.L[0], U[nb:])
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
    return _dtn(_route(g, sigma.d).scatter(sigma.values, q_blocks))


def floppy_basis(g: Graph, sigma: MatrixEdgeField) -> FloppyBasis:
    """Orthonormal basis of displacements with zero boundary values and zero
    interior net force, as canonical-ordering columns (``_route``)."""
    _checked(g, sigma, None)
    return FloppyBasis(modes=_route(g, sigma.d, eigen_decompose(sigma)).floppy)


def dtn_psd(g: Graph, sigma: MatrixEdgeField) -> DtnMap:
    """Dirichlet-to-Neumann map for rank-deficient conductivities, with the
    floppy modes regularized (``_interior``), exactly symmetric."""
    _checked(g, sigma, None)
    return _dtn(_route(g, sigma.d, eigen_decompose(sigma)).scatter(sigma.values))
