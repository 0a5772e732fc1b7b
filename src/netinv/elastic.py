"""Spring/mass/damper networks: geometric rank-1 conductivities, the
frequency-domain operator and the elastodynamic problem specs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import DtnMap, _dirichlet_state_matrix, _schur_dtn, dtn_psd, q_basis
from .graph import FieldError, Graph, MatrixEdgeField, MatrixNodeField, _block_outer, _vertex_rows
from .inversion import ProblemSpec
from .operators import (
    EigenData,
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
        for i, j in g.edges:
            if np.allclose(pos[i], pos[j]):
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
    v = pos[ends[:, 0]] - pos[ends[:, 1]]
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


def network_eigendata(net: ElasticNetwork) -> EigenData:
    """Rank-1 eigendata of the spring geometry with deterministic signs."""
    dirs = spring_directions(net)
    xs = []
    for x in dirs:
        nz = np.flatnonzero(np.abs(x) > 1e-14)
        if x[nz[0]] < 0:
            x = -x
        xs.append(x[:, None].copy())
    lams = tuple(np.array([k], dtype=complex) for k in net.k)
    return EigenData(d=net.d, rank=1, x=tuple(xs), lam=lams)


def mass_potential(net: ElasticNetwork) -> MatrixNodeField:
    d = net.d
    blocks = np.stack([m * np.eye(d) for m in net.mass]).astype(complex)
    return MatrixNodeField.from_blocks(blocks)


def damper_potential(net: ElasticNetwork) -> MatrixNodeField:
    d = net.d
    blocks = np.stack([c * np.eye(d) for c in net.c_v]).astype(complex)
    return MatrixNodeField.from_blocks(blocks)


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
    omega: float
    d: int
    num_boundary: int
    sigma_scaled: MatrixEdgeField
    q_scaled: MatrixNodeField


def _require_dynamic(net: ElasticNetwork) -> None:
    if net.omega == 0:
        raise FieldError("dynamic problems need a nonzero frequency")
    if (np.asarray(net.c_v) <= 0).any():
        raise FieldError("dynamic problems need strictly positive nodal damping")


def frequency_operator(net: ElasticNetwork) -> FrequencyOperator:
    """Assemble the scaled operator with conductivity mu + (j w)^-1 sigma and
    potential q_damp + j w q_mass."""
    _require_dynamic(net)
    g = net.graph
    d = net.d
    w = net.omega
    jw = 1j * w
    sigma = spring_conductivity(net)
    mu = damper_conductivity(net)
    qm = mass_potential(net)
    qd = damper_potential(net)

    sigma_scaled = MatrixEdgeField.from_blocks(mu.values + sigma.values / jw)
    q_scaled = MatrixNodeField.from_blocks(qd.values + jw * qm.values)

    M = schrodinger_matrix(g, np.zeros_like(sigma.values), qm.values)
    C = schrodinger_matrix(g, mu.values, qd.values)
    K = laplacian_matrix(g, sigma.values)
    return FrequencyOperator(
        matrix=schrodinger_matrix(g, sigma_scaled.values, q_scaled.values),
        mass=M,
        damping=C,
        stiffness=K,
        omega=w,
        d=d,
        num_boundary=g.num_boundary,
        sigma_scaled=sigma_scaled,
        q_scaled=q_scaled,
    )


def displacement_to_forces(net: ElasticNetwork, regime: str) -> DtnMap:
    """Boundary displacement to boundary forces map.

    ``regime`` is "static" (rank-deficient spring conductivity, zero
    potential) or "dynamic" (frequency domain; the map of the unscaled
    variables recovered as j w times the scaled-operator map).
    """
    g = net.graph
    nb = net.d * g.num_boundary
    if regime == "static":
        return dtn_psd(g, spring_conductivity(net), network_eigendata(net))
    if regime == "dynamic":
        _require_dynamic(net)
        op = frequency_operator(net)
        lam_scaled = _schur_dtn(op.matrix, nb)
        return DtnMap(matrix=1j * net.omega * lam_scaled, d=net.d, provenance="pd")
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
    if any(x.shape[1] != r for x in eig.x):
        raise FieldError("eigenvalue spec needs a uniform rank")
    E = g.num_edges
    nb = d * g.num_boundary
    P = projected_gradient_matrix(g, eig)  # (r|E|, d|V|)
    Q = q_basis(g, eig).matrix

    def blocks_of(lam: np.ndarray) -> np.ndarray:
        lam = lam.reshape(E, r)
        return np.stack([x @ np.diag(lam[e]) @ x.T for e, x in enumerate(eig.x)])

    def admissible(lam: np.ndarray) -> bool:
        lam = np.asarray(lam).reshape(-1)
        return lam.shape == (r * E,) and (lam.real > 0).all()

    def operator(lam: np.ndarray) -> np.ndarray:
        return laplacian_matrix(g, blocks_of(lam))

    def forward(lam: np.ndarray) -> np.ndarray:
        return _schur_dtn(operator(lam), nb, Q)

    def states(lam: np.ndarray) -> np.ndarray:
        return P @ _dirichlet_state_matrix(operator(lam), nb, Q)

    return ProblemSpec(
        name="eigenvalues",
        m=r * E,
        n=nb,
        is_real=False,
        admissible=admissible,
        forward=forward,
        states=states,
        bilinear=lambda S1, S2: _block_outer(S1, S2, 1),
    )


def make_spec_static_springs(net: ElasticNetwork) -> ProblemSpec:
    """Recover spring constants from the static displacement-to-forces map.

    Real parameters, one per edge; states are the gradient components along
    the spring directions; the pairing is the Hadamard product.
    """
    eig = network_eigendata(net)
    base = make_spec_eigenvalues(net.graph, eig)

    def admissible(k: np.ndarray) -> bool:
        k = np.asarray(k).reshape(-1)
        return k.shape == (net.graph.num_edges,) and (np.real(k) > 0).all() \
            and np.abs(np.imag(k)).max(initial=0.0) == 0.0

    return ProblemSpec(
        name="springs_static",
        m=base.m,
        n=base.n,
        is_real=True,
        admissible=admissible,
        forward=lambda k: base.forward(k.astype(complex)),
        states=lambda k: base.states(k.astype(complex)),
        bilinear=base.bilinear,
    )


def make_spec_springs_known_masses(net: ElasticNetwork) -> ProblemSpec:
    """Recover complex spring coefficients rho = k + j w c_e at a fixed
    frequency, with masses and nodal dampers known.

    Forward map computed through the scaled frequency-domain operator and the
    homogeneity relation (factor j w).
    """
    _require_dynamic(net)
    g = net.graph
    d = net.d
    w = net.omega
    jw = 1j * w
    nb = d * g.num_boundary
    E = g.num_edges
    dirs = spring_directions(net)
    proj = np.einsum("ea,eb->eab", dirs, dirs)
    eig = network_eigendata(net)
    P = projected_gradient_matrix(g, eig)
    q_scaled = damper_potential(net).values + jw * mass_potential(net).values

    def admissible(rho: np.ndarray) -> bool:
        rho = np.asarray(rho, dtype=complex).reshape(-1)
        return rho.shape == (E,) and (rho.real > 0).all() \
            and (np.sign(w) * rho.imag > 0).all()

    def scaled_operator(rho: np.ndarray) -> np.ndarray:
        # conductivity mu + (j w)^-1 sigma = (j w)^-1 sigma(rho)
        blocks = np.einsum("e,eab->eab", rho / jw, proj)
        return schrodinger_matrix(g, blocks, q_scaled)

    def forward(rho: np.ndarray) -> np.ndarray:
        return jw * _schur_dtn(scaled_operator(rho), nb)

    def states(rho: np.ndarray) -> np.ndarray:
        # Dirichlet solution is scaling-invariant, so the scaled operator
        # yields the unscaled displacements directly
        U = _dirichlet_state_matrix(scaled_operator(rho), nb)
        return P @ U

    return ProblemSpec(
        name="springs_dampers",
        m=E,
        n=nb,
        is_real=False,
        admissible=admissible,
        forward=forward,
        states=states,
        bilinear=lambda S1, S2: _block_outer(S1, S2, 1),
    )


def make_spec_masses_known_springs(net: ElasticNetwork) -> ProblemSpec:
    """Recover complex nodal coefficients rho = -w^2 m + j w c_v at a fixed
    frequency, with springs and spring dampers known.

    The per-node d x d potential is rho(i) I, so the pairing collapses to one
    complex number per node: the sum of the d componentwise products of the
    two displacement states.
    """
    _require_dynamic(net)
    g = net.graph
    d = net.d
    w = net.omega
    jw = 1j * w
    nb = d * g.num_boundary
    n_vert = g.num_vertices
    dirs = spring_directions(net)
    sigma_blocks = np.einsum("e,eab->eab", (net.k + jw * net.c_e).astype(complex),
                             np.einsum("ea,eb->eab", dirs, dirs))
    sigma_scaled = sigma_blocks / jw
    eye = np.eye(d)
    perm = _vertex_rows(g, d)

    def admissible(rho: np.ndarray) -> bool:
        rho = np.asarray(rho, dtype=complex).reshape(-1)
        return rho.shape == (n_vert,) and (rho.real < 0).all() \
            and (np.sign(w) * rho.imag > 0).all()

    def scaled_operator(rho: np.ndarray) -> np.ndarray:
        q_blocks = np.einsum("i,ab->iab", rho / jw, eye)
        return schrodinger_matrix(g, sigma_scaled, q_blocks)

    def forward(rho: np.ndarray) -> np.ndarray:
        return jw * _schur_dtn(scaled_operator(rho), nb)

    def states(rho: np.ndarray) -> np.ndarray:
        return _dirichlet_state_matrix(scaled_operator(rho), nb)[perm]

    def bilinear(S1: np.ndarray, S2: np.ndarray) -> np.ndarray:
        prod = S1.reshape(n_vert, d, 1, nb) * S2.reshape(n_vert, d, nb, 1)
        return prod.sum(axis=1).reshape(n_vert, nb * nb)

    return ProblemSpec(
        name="masses_dampers",
        m=n_vert,
        n=nb,
        is_real=False,
        admissible=admissible,
        forward=forward,
        states=states,
        bilinear=bilinear,
    )
