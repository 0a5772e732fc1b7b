"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test covers one criterion end to end:
  1  boundary/interior identity on all five problem specs
  2  analytic vs finite-difference Jacobians on all specs
  3  agreement of the two DtN constructions and the pseudoinverse oracle
  4  hand-computable DtN fixtures
  5  spectral/energy lemma suite (Korn bounds, nullspace, invertibility,
     subspace relations, floppy boundary flux)
  6  uniqueness test verdicts including the scalar-to-matrix transfer
  7  Newton recovery of spring constants on a braced planar truss
  8  layered-network embedding equals the permuted scalar Laplacian
  9  scaled vs unscaled frequency-domain maps (homogeneity bridge)
  10 sampled line scan of Jacobian conditioning
"""

import time

import numpy as np

from netinv.dirichlet import (
    dtn_pd,
    dtn_psd,
    floppy_basis,
)
from netinv.elastic import (
    ElasticNetwork,
    displacement_to_forces,
    make_spec_eigenvalues,
    make_spec_masses_known_springs,
    make_spec_springs_known_masses,
    make_spec_static_springs,
    spring_conductivity,
)
from netinv.graph import MatrixEdgeField, build_graph
from netinv.inversion import (
    fd_jacobian,
    identity_residual,
    jacobian,
    line_rank_scan,
    make_spec_conductivity,
    make_spec_schrodinger,
    newton_invert,
    uniqueness_test,
)
from netinv.operators import cylinder_embed, eigen_decompose, laplacian_matrix, schrodinger_matrix

from oracles import (
    cylinder_graph,
    cylinder_permutation,
    cylinder_scalar_weights,
    dtn_pseudoinverse_oracle,
    frequency_pencil,
    gradient_matrix,
    korn_constants,
    projected_gradient_matrix,
    schur_complement,
    vec,
)

IDENTITY_TOL = 1e-9
JACOBIAN_TOL = 1e-6
JACOBIAN_H = 1e-5
DTN_AGREE_TOL = 1e-10
FIXTURE_TOL = 1e-12
LEMMA_PROJECTOR_TOL = 1e-8
FLOPPY_FLUX_TOL = 1e-10
NEWTON_TOL = 1e-7
NEWTON_MAX_ITERS = 50
CYLINDER_TOL = 1e-13
HOMOGENEITY_TOL = 1e-10
SCAN_EPSILON = 1e-8
SCAN_BAD_FRACTION = 0.01


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

EIGHT_POS = np.array([
    [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0],
    [1.0, 1.2], [2.1, 0.9], [2.2, 2.1], [0.9, 2.0],
])
EIGHT_EDGES = [(0, 4), (1, 5), (2, 6), (3, 7), (4, 5), (5, 6), (6, 7),
               (4, 7), (0, 5), (4, 6)]


def eight_node_graph():
    return build_graph(8, [0, 1, 2, 3], EIGHT_EDGES)


def eight_node_network(c_v=1.0, omega=1.0, seed=0):
    local = np.random.default_rng(seed)
    return ElasticNetwork(
        graph=eight_node_graph(),
        positions=EIGHT_POS,
        k=local.uniform(0.5, 2.0, len(EIGHT_EDGES)),
        c_e=local.uniform(0.1, 0.5, len(EIGHT_EDGES)),
        mass=local.uniform(0.5, 2.0, 8),
        c_v=np.full(8, c_v),
        omega=omega,
    )


def spd_param(num_blocks, d, local, imag=0.3):
    out = []
    for _ in range(num_blocks):
        a = local.standard_normal((d, d))
        b = local.standard_normal((d, d))
        out.append(vec(a @ a.T + 2 * np.eye(d) + imag * 1j * (b + b.T)))
    return np.concatenate(out)


def braced_truss(seed=0):
    local = np.random.default_rng(seed)
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0],
                    [0.8, 0.9], [1.3, 1.1]])
    edges = [(0, 4), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5), (0, 5), (2, 4)]
    g = build_graph(6, [0, 1, 2, 3], edges)
    return ElasticNetwork(graph=g, positions=pos,
                          k=local.uniform(0.5, 2.0, 9), c_e=np.zeros(9),
                          mass=np.ones(6), c_v=np.zeros(6), omega=0.0)


def all_specs():
    """The five problem specs on the fixed 8-node graph, each with a sampler
    of random admissible parameters."""
    g = eight_node_graph()
    E = g.num_edges
    net = eight_node_network()
    sigma_known = MatrixEdgeField.from_blocks(
        spd_param(E, 2, np.random.default_rng(99)).reshape(E, 2, 2).transpose(0, 2, 1))

    def sample_conductivity(local):
        return spd_param(E, 2, local)

    def sample_schrodinger(local):
        out = []
        for _ in range(g.num_vertices):
            m = 0.2 * local.standard_normal((2, 2))
            out.append(vec(m + m.T))
        return np.concatenate(out).astype(complex)

    def sample_eigenvalues(local):
        return local.uniform(0.5, 2.0, E) + 1j * local.uniform(-0.3, 0.3, E)

    def sample_springs(local):
        return local.uniform(0.5, 2.0, E) + 1j * local.uniform(0.1, 0.9, E)

    def sample_masses(local):
        return -local.uniform(0.5, 2.0, 8) + 1j * local.uniform(0.1, 0.9, 8)

    return [
        (make_spec_conductivity(g, 2), sample_conductivity),
        (make_spec_schrodinger(g, sigma_known), sample_schrodinger),
        (make_spec_eigenvalues(g, eigen_decompose(spring_conductivity(net))), sample_eigenvalues),
        (make_spec_springs_known_masses(net), sample_springs),
        (make_spec_masses_known_springs(net), sample_masses),
    ]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_boundary_interior_identity():
    start = time.time()
    for k, (spec, sample) in enumerate(all_specs()):
        local = np.random.default_rng(1000 + k)
        for _ in range(20):
            p1 = sample(local)
            p2 = sample(local)
            res = identity_residual(spec, p1, p2)
            assert res <= IDENTITY_TOL, f"{spec.name}: identity residual {res:.3e}"
    assert time.time() - start < 10.0


def test_criterion_2_jacobian_consistency():
    start = time.time()
    for k, (spec, sample) in enumerate(all_specs()):
        local = np.random.default_rng(2000 + k)
        p = sample(local)
        J = jacobian(spec, p)
        if spec.is_real:
            p = p.real
        Jfd = fd_jacobian(spec, p, h=JACOBIAN_H)
        err = np.abs(J - Jfd).max() / np.abs(J).max()
        assert err <= JACOBIAN_TOL, f"{spec.name}: FD mismatch {err:.3e}"
    assert time.time() - start < 30.0


def test_criterion_3_dtn_formula_agreement():
    g = eight_node_graph()
    E = g.num_edges
    for seed in range(10):
        local = np.random.default_rng(3000 + seed)
        sigma = MatrixEdgeField.from_blocks(
            spd_param(E, 2, local, imag=0.0).reshape(E, 2, 2).transpose(0, 2, 1))
        a = dtn_pd(g, sigma, None).matrix
        b = dtn_psd(g, sigma).matrix
        assert np.abs(a - b).max() <= DTN_AGREE_TOL
    for seed in range(10):
        net = eight_node_network(seed=4000 + seed)
        sigma = spring_conductivity(net)
        a = dtn_psd(net.graph, sigma).matrix
        b = dtn_pseudoinverse_oracle(net.graph, sigma)
        assert np.abs(a - b).max() <= DTN_AGREE_TOL


def test_criterion_4_hand_computable_fixtures():
    # series path, unit scalar conductances
    g = build_graph(3, [0, 2], [(0, 1), (1, 2)])
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    lam = dtn_pd(g, sigma, None).matrix
    assert np.abs(lam - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= FIXTURE_TOL

    # two collinear unit springs with one interior node
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    net = ElasticNetwork(graph=g, positions=pos, k=np.ones(2), c_e=np.zeros(2),
                         mass=np.ones(3), c_v=np.zeros(3), omega=0.0)
    lam2 = displacement_to_forces(net, "static").matrix
    E = np.outer([1.0, 0.0], [1.0, 0.0])
    expected = 0.5 * np.block([[E, -E], [-E, E]])
    assert np.abs(lam2 - expected).max() <= FIXTURE_TOL


def test_criterion_5_lemma_suite():
    rng = np.random.default_rng(5000)
    g = eight_node_graph()
    E = g.num_edges
    d = 2
    N = d * g.num_vertices

    # Korn inequality, definite real conductivity, 100 random u
    sigma = MatrixEdgeField.from_blocks(
        spd_param(E, d, rng, imag=0.0).reshape(E, d, d).transpose(0, 2, 1))
    lam_min, _, lam_max = korn_constants(sigma)
    L = laplacian_matrix(g, sigma.values).real
    D = gradient_matrix(g, d)
    for _ in range(100):
        u = rng.standard_normal(N)
        energy = u @ L @ u
        grad2 = np.linalg.norm(D @ u) ** 2
        assert grad2 <= energy / lam_min + 1e-10 * (1 + energy)

    # modified Korn, semidefinite spring conductivity, 100 random u
    net = eight_node_network()
    sig_psd = spring_conductivity(net)
    _, lam_minp, lam_maxp = korn_constants(sig_psd)
    P = projected_gradient_matrix(g, eigen_decompose(spring_conductivity(net)))
    Lp = laplacian_matrix(g, sig_psd.values).real
    for _ in range(100):
        u = rng.standard_normal(N)
        energy = u @ Lp @ u
        proj2 = np.linalg.norm(P @ u) ** 2
        assert lam_minp * proj2 <= energy + 1e-10 * (1 + energy)
        assert energy <= lam_maxp * proj2 + 1e-10 * (1 + proj2)

    # nullspace dimension d for connected graph, definite conductivity
    svals = np.linalg.svd(L, compute_uv=False)
    assert int((svals <= 1e-10 * svals.max()).sum()) == d

    # field-of-values invertibility at matrix level
    for seed in range(20):
        local = np.random.default_rng(5100 + seed)
        a = local.standard_normal((6, 6))
        A = a @ a.T + 0.5 * np.eye(6)
        b = local.standard_normal((6, 6))
        M = A + 1j * (b + b.T)
        assert np.linalg.svd(M, compute_uv=False).min() >= \
            np.linalg.eigvalsh(A).min() - 1e-10

    # complex semidefinite subspace relations on a commuting conductivity
    sig_c = MatrixEdgeField.from_blocks((1.0 + 0.6j) * sig_psd.values)
    Lc = laplacian_matrix(g, sig_c.values)
    nb = d * g.num_boundary
    II = Lc[nb:, nb:]
    IIr = Lc[nb:, nb:].real

    def null_proj(m):
        u, s, vh = np.linalg.svd(m)
        keep = s <= 1e-10 * s.max()
        v = vh[len(s) - keep.sum():].conj().T
        return v @ v.conj().T

    assert np.abs(null_proj(II) - null_proj(IIr)).max() <= LEMMA_PROJECTOR_TOL
    u, s, _ = np.linalg.svd(II)
    keep = s > 1e-10 * s.max()
    pr = u[:, keep] @ u[:, keep].conj().T
    assert np.abs(pr @ Lc[nb:, :nb] - Lc[nb:, :nb]).max() <= LEMMA_PROJECTOR_TOL

    # floppy modes produce zero boundary flux
    basis = floppy_basis(g, sig_psd)
    Lpsd = laplacian_matrix(g, sig_psd.values)
    for c in range(basis.dim):
        flux = (Lpsd @ basis.modes[:, c])[:nb]
        assert np.abs(flux).max() <= FLOPPY_FLUX_TOL


def test_criterion_6_uniqueness_verdicts():
    # single edge, sigma = 2
    g1 = build_graph(2, [0, 1], [(0, 1)])
    spec1 = make_spec_conductivity(g1, 1)
    v = uniqueness_test(spec1, np.array([2.0 + 0j]))
    assert v.holds
    assert abs(v.sigma_max - 2.0) < 1e-12 and abs(v.sigma_min - 2.0) < 1e-12

    # overparameterized: one boundary node
    g2 = build_graph(3, [0], [(0, 1), (1, 2)])
    spec2 = make_spec_conductivity(g2, 1)
    assert not uniqueness_test(spec2, np.array([1.0, 1.0], dtype=complex)).holds

    # scalar-to-matrix transfer on an all-boundary path
    g3 = build_graph(3, [0, 1, 2], [(0, 1), (1, 2)])
    s = np.array([1.3, 0.7], dtype=complex)
    assert uniqueness_test(make_spec_conductivity(g3, 1), s).holds
    blocks = np.stack([s[0] * np.eye(2), s[1] * np.eye(2)])
    p2 = np.concatenate([vec(b) for b in blocks])
    assert uniqueness_test(make_spec_conductivity(g3, 2), p2).holds


def test_criterion_7_newton_spring_recovery():
    start = time.time()
    net = braced_truss()
    spec = make_spec_static_springs(net)
    local = np.random.default_rng(7000)
    k_true = local.uniform(0.5, 2.0, 9)
    target = spec.forward(k_true)
    k_rec, trace = newton_invert(spec, target, np.ones(9), residual_tol=1e-12,
                                 max_iter=NEWTON_MAX_ITERS)
    assert len(trace.residuals) - 1 <= NEWTON_MAX_ITERS
    assert np.abs(k_rec - k_true).max() <= NEWTON_TOL
    assert time.time() - start < 60.0


def test_criterion_8_cylinder_embedding():
    rng = np.random.default_rng(8000)
    path = build_graph(3, [0], [(0, 1), (1, 2)])
    layer = build_graph(2, [0], [(0, 1)])
    layer_w = [rng.uniform(0.5, 2.0, 1) for _ in range(3)]
    coup_w = [rng.uniform(0.5, 2.0, 2) for _ in range(2)]
    sigma, q = cylinder_embed(path, layer, layer_w, coup_w)
    M_path = schrodinger_matrix(path, sigma.values, q.values)
    cyl = cylinder_graph(path, layer, boundary=[0])
    weights = cylinder_scalar_weights(layer_w, coup_w)
    M_cyl = laplacian_matrix(cyl, weights.reshape(-1, 1, 1))
    pi = cylinder_permutation(path, layer, cyl)
    assert np.abs(M_path - M_cyl[np.ix_(pi, pi)]).max() <= CYLINDER_TOL


def test_criterion_9_homogeneity_bridge():
    for trial in range(10):
        omega = [0.5, 1.0, 2.0][trial % 3]
        net = eight_node_network(c_v=0.5 + 0.1 * trial, omega=omega,
                                 seed=9000 + trial)
        nb = 2 * net.graph.num_boundary
        lam = displacement_to_forces(net, "dynamic").matrix
        mass, damping, stiffness = frequency_pencil(net)
        pencil = -omega ** 2 * mass + 1j * omega * damping + stiffness
        oracle = schur_complement(pencil, nb)
        assert np.abs(lam - oracle).max() <= HOMOGENEITY_TOL


def test_criterion_10_line_scan():
    # path with every vertex on the boundary: the linearization is injective,
    # so near-singular samples must be rare along admissible segments
    g = build_graph(3, [0, 1, 2], [(0, 1), (1, 2)])
    spec = make_spec_conductivity(g, 1)
    p = np.array([1.0, 1.0], dtype=complex)
    rng = np.random.default_rng(10000)
    for _ in range(10):
        dp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scan = line_rank_scan(spec, p, dp, num_samples=1000,
                              epsilon=SCAN_EPSILON, rng=rng)
        assert scan.near_singular_fraction <= SCAN_BAD_FRACTION
