"""Spring/mass/damper networks: geometric rank-1 conductivities, the
frequency-domain pencil, displacement-to-forces maps and the elastodynamic
problem specs."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import DtnMap, _dtn, _route, dtn_psd
from .graph import FieldError, Graph, MatrixEdgeField, _edge_rows, _vertex_rows
from .inversion import ProblemSpec, _make_spec
from .operators import EigenData, _scaled_exactly, eigen_decompose

__all__ = [
    "ElasticNetwork",
    "spring_conductivity",
    "spring_directions",
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

    @property
    def rho_e(self) -> np.ndarray:
        """Complex spring coefficient k + j w c_e per edge."""
        return self.k + 1j * self.omega * self.c_e

    @property
    def rho_v(self) -> np.ndarray:
        """Complex nodal coefficient -w^2 m + j w c_v per vertex."""
        return -self.omega ** 2 * self.mass + 1j * self.omega * self.c_v


def spring_directions(net: ElasticNetwork) -> np.ndarray:
    """Unit direction (p(i) - p(j)) / |p(i) - p(j)| per edge, (|E|, d)."""
    pos = np.asarray(net.positions, dtype=float)
    ends = np.asarray(net.graph.edges, dtype=np.intp).reshape(-1, 2)
    # halved and scaled exactly, so that neither the difference nor the norm
    # can overflow or underflow; the quotient is the same
    v = _scaled_exactly(0.5 * pos[ends[:, 0]] - 0.5 * pos[ends[:, 1]], 1)[0]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def spring_conductivity(net: ElasticNetwork) -> MatrixEdgeField:
    """Rank-1 block k(e) x(e) x(e)^T per edge, x(e) the spring direction:
    the pencil's edge blocks at k, k (x x^T), which are exactly symmetric."""
    return MatrixEdgeField.from_blocks(_pencil(net, net.k, np.zeros(0))[0])


def _require_dynamic(net: ElasticNetwork) -> None:
    if net.omega == 0:
        raise FieldError("dynamic problems need a nonzero frequency")
    if (np.asarray(net.c_v) <= 0).any():
        raise FieldError("dynamic problems need strictly positive nodal damping")


def _pencil(net: ElasticNetwork, rho_e: np.ndarray, rho_v: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The pencil -w^2 M + j w C + K at (rho_e, rho_v) as the edge and vertex
    blocks of a Schrodinger operator: rho_e(e) x(e) x(e)^T on every edge and
    rho_v(i) I on every vertex, by vertex id. At (net.rho_e, net.rho_v) it is
    the network's own frequency-domain operator."""
    dirs = spring_directions(net)
    return (np.asarray(rho_e)[:, None, None] * (dirs[:, :, None] * dirs[:, None, :]),
            np.asarray(rho_v)[:, None, None] * np.eye(net.d))


def displacement_to_forces(net: ElasticNetwork, regime: str) -> DtnMap:
    """Boundary displacement to boundary forces map.

    ``regime`` is "static" (rank-deficient spring conductivity, zero
    potential) or "dynamic" (frequency domain; the Schur complement of the
    pencil at the network's own rho_e and rho_v).
    """
    if regime == "static":
        return dtn_psd(net.graph, spring_conductivity(net))
    if regime == "dynamic":
        _require_dynamic(net)
        return _dtn(_route(net.graph, net.d).scatter(*_pencil(net, net.rho_e, net.rho_v)))
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# Problem specs
# ---------------------------------------------------------------------------


def _projected_gradient(g: Graph, x: np.ndarray):
    """The state rows U -> x(e)^T (U_i - U_j) for every edge (i, j), edge by
    edge: the components of the edge gradients of the canonical state matrix
    U along the r columns of x, (|E|, d, r)."""
    E, d, r = x.shape
    plus, minus = _edge_rows(g, d)
    xt = x.transpose(0, 2, 1)
    return lambda U: (xt @ (U[plus] - U[minus]).reshape(E, d, -1)).reshape(E * r, -1)


def make_spec_eigenvalues(g: Graph, eig: EigenData) -> ProblemSpec:
    """Recover per-edge conductivity eigenvalues for fixed real eigenvectors.

    Parameter layout: r values per edge, edge order; admissible when every
    real part is positive. Eigendata of another edge count is a FieldError.
    """
    d = eig.d
    r = eig.rank
    if len(eig.x) != g.num_edges:
        raise FieldError("eigendata does not match edge count")
    if (eig.ranks != r).any():
        raise FieldError("eigenvalue spec needs a uniform rank")
    E = g.num_edges
    xt = eig.x.transpose(0, 2, 1)
    return _make_spec(
        "eigenvalues", _route(g, d, eig), r * E,
        op=lambda lam: ((eig.x * lam.reshape(E, r)[:, None, :]) @ xt, None),
        rows=_projected_gradient(g, eig.x),
        cone=lambda lam: lam.reshape(-1, 1, 1),
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
    """Recover the complex spring coefficients rho (``ElasticNetwork.rho_e``)
    at a fixed frequency, with masses and nodal dampers known.

    The operator is the pencil at (rho, net.rho_v). Admissible when
    Re rho > 0 and sign(w) Im rho > 0.
    """
    _require_dynamic(net)
    g = net.graph
    return _make_spec(
        "springs_dampers", _route(g, net.d), g.num_edges,
        op=lambda rho: _pencil(net, rho, net.rho_v),
        rows=_projected_gradient(g, eigen_decompose(spring_conductivity(net)).x),
        cone=lambda rho: _dynamic_cone(rho, 1.0, net.omega),
    )


def make_spec_masses_known_springs(net: ElasticNetwork) -> ProblemSpec:
    """Recover the complex nodal coefficients rho (``ElasticNetwork.rho_v``)
    at a fixed frequency, with springs and spring dampers known.

    The operator is the pencil at (net.rho_e, rho): the per-node d x d
    potential is rho(i) I, so the pairing collapses to one complex number per
    node, the sum of the d componentwise products of the two displacement
    states. Admissible when Re rho < 0 and sign(w) Im rho > 0.
    """
    _require_dynamic(net)
    g = net.graph
    perm = _vertex_rows(g, net.d)
    return _make_spec(
        "masses_dampers", _route(g, net.d), g.num_vertices,
        op=lambda rho: _pencil(net, net.rho_e, rho),
        rows=lambda U: U[perm],
        cone=lambda rho: _dynamic_cone(rho, -1.0, net.omega),
        components=net.d,
    )
