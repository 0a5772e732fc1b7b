"""Spring/mass/damper networks: geometric rank-1 conductivities, the
frequency-domain operator and the elastodynamic problem specs."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import DtnMap, _schur_dtn, dtn_psd, q_basis
from .graph import FieldError, Graph, MatrixEdgeField, _vertex_rows
from .inversion import ProblemSpec, _make_spec
from .operators import (
    EigenData,
    _scaled_down,
    eigen_decompose,
    laplacian_matrix,
    projected_gradient_matrix,
    schrodinger_matrix,
)

__all__ = [
    "ElasticNetwork",
    "FrequencyOperator",
    "spring_conductivity",
    "damper_conductivity",
    "spring_directions",
    "frequency_operator",
    "displacement_to_forces",
    "make_spec_static_springs",
    "make_spec_springs_known_masses",
    "make_spec_masses_known_springs",
    "make_spec_eigenvalues",
]


@dataclass(frozen=True)
class ElasticNetwork:
    """Spring network geometry plus dynamic coefficients.

    Positions are (|V|, d) with d in {2, 3}; spring constants k and spring
    dampers c_e are per edge; masses and nodal dampers c_v per vertex.
    ``omega`` is the operating frequency for dynamic problems.
    """

    graph: Graph
    positions: np.ndarray  # (|V|, d) real
    k: np.ndarray  # (|E|,) > 0
    c_e: np.ndarray  # (|E|,) >= 0
    mass: np.ndarray  # (|V|,) > 0
    c_v: np.ndarray  # (|V|,) >= 0 (strictly > 0 for dynamic problems)
    omega: float = 1.0

    def __post_init__(self):
        g = self.graph
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != g.num_vertices or pos.shape[1] not in (2, 3):
            raise FieldError("positions must be (num_vertices, 2 or 3)")
        if not (np.isfinite(pos).all() and np.isfinite(self.omega)):
            raise FieldError("positions and omega must be finite")
        ends = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
        with np.errstate(over="ignore"):  # a difference beyond float range is far from zero
            coincident = np.isclose(pos[ends[:, 0]], pos[ends[:, 1]]).all(axis=1)
        if coincident.any():
            i, j = g.edges[int(coincident.argmax())]
            raise FieldError(f"edge ({i},{j}) has coincident endpoint positions")
        for name, arr, size in (("k", self.k, g.num_edges),
                                ("c_e", self.c_e, g.num_edges),
                                ("mass", self.mass, g.num_vertices),
                                ("c_v", self.c_v, g.num_vertices)):
            if np.asarray(arr).shape != (size,):
                raise FieldError(f"{name} has wrong length")
            if not np.isfinite(arr).all():
                raise FieldError(f"{name} must be finite")
        if (np.asarray(self.k) <= 0).any():
            raise FieldError("spring constants must be positive")
        if (np.asarray(self.c_e) < 0).any():
            raise FieldError("spring dampers must be nonnegative")
        if (np.asarray(self.mass) <= 0).any():
            raise FieldError("masses must be positive")
        if (np.asarray(self.c_v) < 0).any():
            raise FieldError("nodal dampers must be nonnegative")

    @property
    def d(self) -> int:
        return self.positions.shape[1]


def spring_directions(net: ElasticNetwork) -> np.ndarray:
    """Unit direction (p(i) - p(j)) / |p(i) - p(j)| per edge, (|E|, d)."""
    pos = np.asarray(net.positions, dtype=float)
    ends = np.asarray(net.graph.edges, dtype=np.intp).reshape(-1, 2)
    # halved and scaled down exactly, so that neither the difference nor the
    # norm can overflow; the quotient is the same
    v = _scaled_down(0.5 * pos[ends[:, 0]] - 0.5 * pos[ends[:, 1]], 1)[0]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _projector_field(net: ElasticNetwork, weights: np.ndarray) -> MatrixEdgeField:
    dirs = spring_directions(net)
    blocks = np.einsum("e,ea,eb->eab", np.asarray(weights, dtype=complex), dirs, dirs)
    return MatrixEdgeField.from_blocks(blocks)


def spring_conductivity(net: ElasticNetwork) -> MatrixEdgeField:
    """Rank-1 block k(e) x(e) x(e)^T per edge, x(e) the spring direction."""
    return _projector_field(net, net.k)


def damper_conductivity(net: ElasticNetwork) -> MatrixEdgeField:
    """Same geometry as the spring conductivity, weighted by c_e."""
    return _projector_field(net, net.c_e)


@dataclass(frozen=True)
class FrequencyOperator:
    """Scaled frequency-domain operator and its mass/damping/stiffness parts.

    ``matrix`` is (j w M + C + (j w)^-1 K) in the canonical ordering; times
    j w it equals -w^2 M + j w C + K.
    """

    matrix: np.ndarray
    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray


def _require_dynamic(net: ElasticNetwork) -> None:
    if net.omega == 0:
        raise FieldError("dynamic problems need a nonzero frequency")
    if (np.asarray(net.c_v) <= 0).any():
        raise FieldError("dynamic problems need strictly positive nodal damping")


def _scaled_operator(net: ElasticNetwork, edge: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Canonical Schrodinger matrix with block edge(e) x(e) x(e)^T on every
    edge and vertex(i) I on every vertex.

    Divided by j w, the pencil -w^2 M + j w C + K is this operator at
    edge = rho_e / (j w) and vertex = rho_v / (j w), with rho_e = k + j w c_e
    and rho_v = -w^2 m + j w c_v; both have the same Dirichlet solutions.
    """
    dirs = spring_directions(net)
    return schrodinger_matrix(net.graph,
                              np.asarray(edge)[:, None, None] * (dirs[:, :, None] * dirs[:, None, :]),
                              np.asarray(vertex)[:, None, None] * np.eye(net.d))


def frequency_operator(net: ElasticNetwork) -> FrequencyOperator:
    """The scaled operator with conductivity mu + (j w)^-1 sigma and
    potential q_damp + j w q_mass, and the pencil's three parts."""
    _require_dynamic(net)
    jw = 1j * net.omega
    return FrequencyOperator(
        matrix=_scaled_operator(net, net.c_e + net.k / jw, net.c_v + jw * net.mass),
        mass=_scaled_operator(net, np.zeros(net.graph.num_edges), net.mass),
        damping=_scaled_operator(net, net.c_e, net.c_v),
        stiffness=laplacian_matrix(net.graph, spring_conductivity(net).values),
    )


def displacement_to_forces(net: ElasticNetwork, regime: str) -> DtnMap:
    """Boundary displacement to boundary forces map.

    ``regime`` is "static" (rank-deficient spring conductivity, zero
    potential) or "dynamic" (frequency domain; the map of the unscaled
    variables recovered as j w times the scaled-operator map).
    """
    if regime == "static":
        return dtn_psd(net.graph, spring_conductivity(net))
    if regime == "dynamic":
        _require_dynamic(net)
        jw = 1j * net.omega
        M = _scaled_operator(net, net.c_e + net.k / jw, net.c_v + jw * net.mass)
        return DtnMap(matrix=jw * _schur_dtn(M, net.d * net.graph.num_boundary), provenance="pd")
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# Problem specs
# ---------------------------------------------------------------------------


def make_spec_eigenvalues(g: Graph, eig: EigenData) -> ProblemSpec:
    """Recover per-edge conductivity eigenvalues for fixed real eigenvectors.

    Parameter layout: r values per edge, edge order; admissible when every
    real part is positive.
    """
    d = eig.d
    r = eig.rank
    if (eig.ranks != r).any():
        raise FieldError("eigenvalue spec needs a uniform rank")
    E = g.num_edges
    P = projected_gradient_matrix(g, eig)  # (r|E|, d|V|)
    xt = eig.x.transpose(0, 2, 1)
    return _make_spec(
        "eigenvalues", r * E, d * g.num_boundary,
        op=lambda lam: laplacian_matrix(g, (eig.x * lam.reshape(E, r)[:, None, :]) @ xt),
        rows=lambda U: P @ U,
        cone=lambda lam: lam.reshape(-1, 1, 1),
        Q=q_basis(g, eig),
    )


def make_spec_static_springs(net: ElasticNetwork) -> ProblemSpec:
    """Recover spring constants from the static displacement-to-forces map.

    The eigenvalue spec of the rank-1 spring conductivity with real
    parameters, one per edge: states are the gradient components along the
    spring directions and the pairing is the Hadamard product.
    """
    base = make_spec_eigenvalues(net.graph, eigen_decompose(spring_conductivity(net)))
    return replace(base, name="springs_static", is_real=True)


def _dynamic_cone(rho: np.ndarray, re_sign: float, omega: float) -> np.ndarray:
    """1 x 1 blocks whose real parts are re_sign Re rho and sign(omega) Im rho."""
    return np.concatenate([re_sign * rho, -1j * np.sign(omega) * rho]).reshape(-1, 1, 1)


def make_spec_springs_known_masses(net: ElasticNetwork) -> ProblemSpec:
    """Recover complex spring coefficients rho = k + j w c_e at a fixed
    frequency, with masses and nodal dampers known.

    Forward map computed through the scaled frequency-domain operator and the
    homogeneity relation (factor j w); the Dirichlet solution is
    scaling-invariant, so the scaled operator yields the unscaled
    displacements directly. Admissible when Re rho > 0 and sign(w) Im rho > 0.
    """
    _require_dynamic(net)
    g = net.graph
    w = net.omega
    jw = 1j * w
    P = projected_gradient_matrix(g, eigen_decompose(spring_conductivity(net)))
    vertex = net.c_v + jw * net.mass
    return _make_spec(
        "springs_dampers", g.num_edges, net.d * g.num_boundary,
        op=lambda rho: _scaled_operator(net, rho / jw, vertex),
        rows=lambda U: P @ U,
        cone=lambda rho: _dynamic_cone(rho, 1.0, w),
        scale=jw,
    )


def make_spec_masses_known_springs(net: ElasticNetwork) -> ProblemSpec:
    """Recover complex nodal coefficients rho = -w^2 m + j w c_v at a fixed
    frequency, with springs and spring dampers known.

    The per-node d x d potential is rho(i) I, so the pairing collapses to one
    complex number per node: the sum of the d componentwise products of the
    two displacement states. Admissible when Re rho < 0 and
    sign(w) Im rho > 0.
    """
    _require_dynamic(net)
    g = net.graph
    w = net.omega
    jw = 1j * w
    edge = (net.k + jw * net.c_e) / jw
    perm = _vertex_rows(g, net.d)
    return _make_spec(
        "masses_dampers", g.num_vertices, net.d * g.num_boundary,
        op=lambda rho: _scaled_operator(net, edge, rho / jw),
        rows=lambda U: U[perm],
        cone=lambda rho: _dynamic_cone(rho, -1.0, w),
        components=net.d,
        scale=jw,
    )
