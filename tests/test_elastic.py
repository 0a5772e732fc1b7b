"""Spring networks, frequency-domain operators and elastodynamic specs."""

import numpy as np
import pytest

from netinv.elastic import (
    ElasticNetwork,
    damper_conductivity,
    displacement_to_forces,
    frequency_operator,
    make_spec_eigenvalues,
    make_spec_masses_known_springs,
    make_spec_springs_known_masses,
    make_spec_static_springs,
    network_eigendata,
    spring_conductivity,
    spring_directions,
)
from netinv.graph import FieldError, build_graph
from netinv.inversion import (
    InadmissibleParameterError,
    fd_jacobian,
    identity_residual,
    jacobian,
    line_rank_scan,
    newton_invert,
    uniqueness_test,
)
from netinv.operators import eigen_decompose, laplacian_matrix

rng = np.random.default_rng(53)


def braced_network(c_v=1.0, omega=1.0, seed=0):
    """6-node, 9-edge planar braced truss with 4 boundary nodes."""
    local = np.random.default_rng(seed)
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0],
                    [0.8, 0.9], [1.3, 1.1]])
    edges = [(0, 4), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5), (0, 5), (2, 4)]
    g = build_graph(6, [0, 1, 2, 3], edges)
    return ElasticNetwork(
        graph=g,
        positions=pos,
        k=local.uniform(0.5, 2.0, 9),
        c_e=local.uniform(0.1, 0.5, 9),
        mass=local.uniform(0.5, 2.0, 6),
        c_v=np.full(6, c_v),
        omega=omega,
    )


def collinear_network():
    g = build_graph(3, [0, 2], [(0, 1), (1, 2)])
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    return ElasticNetwork(graph=g, positions=pos, k=np.ones(2), c_e=np.zeros(2),
                          mass=np.ones(3), c_v=np.ones(3), omega=1.0)


def test_network_validation():
    g = build_graph(2, [0, 1], [(0, 1)])
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(FieldError):
        ElasticNetwork(graph=g, positions=pos, k=np.array([-1.0]),
                       c_e=np.zeros(1), mass=np.ones(2), c_v=np.zeros(2))
    with pytest.raises(FieldError):
        ElasticNetwork(graph=g, positions=np.zeros((2, 2)), k=np.ones(1),
                       c_e=np.zeros(1), mass=np.ones(2), c_v=np.zeros(2))
    with pytest.raises(FieldError):
        ElasticNetwork(graph=g, positions=pos, k=np.ones(1),
                       c_e=np.zeros(1), mass=np.zeros(2), c_v=np.zeros(2))


def test_spring_directions_unit_norm():
    net = braced_network()
    dirs = spring_directions(net)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    for e, (i, j) in enumerate(net.graph.edges):
        v = net.positions[i] - net.positions[j]
        assert np.allclose(dirs[e], v / np.linalg.norm(v))


def test_spring_conductivity_rank1():
    net = braced_network()
    sigma = spring_conductivity(net)
    for e in range(net.graph.num_edges):
        block = sigma.values[e]
        w = np.linalg.eigvalsh(block.real)
        assert abs(w[0]) < 1e-12
        assert abs(w[1] - net.k[e]) < 1e-12


def test_network_eigendata_matches_generic_decomposition():
    net = braced_network()
    sigma = spring_conductivity(net)
    eig_net = network_eigendata(net)
    eig_gen = eigen_decompose(sigma)
    assert eig_net.rank == eig_gen.rank == 1
    for a, b, la, lb in zip(eig_net.x, eig_gen.x, eig_net.lam, eig_gen.lam):
        assert np.abs(a - b).max() < 1e-10
        assert np.abs(la - lb).max() < 1e-10


def test_frequency_operator_combination():
    net = braced_network()
    op = frequency_operator(net)
    jw = 1j * net.omega
    combined = jw * op.mass + op.damping + op.stiffness / jw
    assert np.abs(op.matrix - combined).max() < 1e-12
    # times jw it is the standard quadratic pencil
    pencil = -net.omega ** 2 * op.mass + jw * op.damping + op.stiffness
    assert np.abs(jw * op.matrix - pencil).max() < 1e-10


def test_frequency_operator_requires_dynamic():
    net = braced_network(c_v=0.0)
    with pytest.raises(FieldError):
        frequency_operator(net)


def test_static_map_collinear_series():
    net = collinear_network()
    lam = displacement_to_forces(net, "static").matrix
    E = np.outer([1.0, 0.0], [1.0, 0.0])
    expected = 0.5 * np.block([[E, -E], [-E, E]])
    assert np.abs(lam - expected).max() < 1e-12


def test_dynamic_map_homogeneity_bridge():
    # the map assembled from the scaled operator times jw equals the Schur
    # complement of the unscaled quadratic pencil
    from netinv.inversion import _schur_dtn
    for trial in range(10):
        omega = [0.5, 1.0, 2.0][trial % 3]
        net = braced_network(c_v=0.7 + 0.1 * trial, omega=omega, seed=trial)
        nb = 2 * net.graph.num_boundary
        lam = displacement_to_forces(net, "dynamic").matrix
        op = frequency_operator(net)
        pencil = -omega ** 2 * op.mass + 1j * omega * op.damping + op.stiffness
        oracle = _schur_dtn(pencil, nb)
        assert np.abs(lam - oracle).max() < 1e-10


def test_identity_eigenvalue_spec():
    net = braced_network()
    eig = network_eigendata(net)
    spec = make_spec_eigenvalues(net.graph, eig)
    for trial in range(5):
        local = np.random.default_rng(400 + trial)
        lam1 = local.uniform(0.5, 2.0, 9) + 1j * local.uniform(-0.3, 0.3, 9)
        lam2 = local.uniform(0.5, 2.0, 9) + 1j * local.uniform(-0.3, 0.3, 9)
        assert identity_residual(spec, lam1, lam2) < 1e-12


def test_identity_static_springs():
    net = braced_network()
    spec = make_spec_static_springs(net)
    for trial in range(5):
        local = np.random.default_rng(500 + trial)
        k1 = local.uniform(0.5, 2.0, 9)
        k2 = local.uniform(0.5, 2.0, 9)
        assert identity_residual(spec, k1, k2) < 1e-12


def test_identity_springs_known_masses():
    net = braced_network()
    spec = make_spec_springs_known_masses(net)
    for trial in range(5):
        local = np.random.default_rng(600 + trial)
        r1 = local.uniform(0.5, 2.0, 9) + 1j * local.uniform(0.1, 0.9, 9)
        r2 = local.uniform(0.5, 2.0, 9) + 1j * local.uniform(0.1, 0.9, 9)
        assert identity_residual(spec, r1, r2) < 1e-12


def test_identity_masses_known_springs():
    net = braced_network()
    spec = make_spec_masses_known_springs(net)
    for trial in range(5):
        local = np.random.default_rng(700 + trial)
        r1 = -local.uniform(0.5, 2.0, 6) + 1j * local.uniform(0.1, 0.9, 6)
        r2 = -local.uniform(0.5, 2.0, 6) + 1j * local.uniform(0.1, 0.9, 6)
        assert identity_residual(spec, r1, r2) < 1e-12


def test_jacobian_fd_all_elastic_specs():
    net = braced_network()
    specs_and_points = [
        (make_spec_eigenvalues(net.graph, network_eigendata(net)),
         rng.uniform(0.5, 2.0, 9) + 1j * rng.uniform(-0.2, 0.2, 9)),
        (make_spec_static_springs(net), rng.uniform(0.5, 2.0, 9)),
        (make_spec_springs_known_masses(net),
         rng.uniform(0.5, 2.0, 9) + 1j * rng.uniform(0.2, 0.8, 9)),
        (make_spec_masses_known_springs(net),
         -rng.uniform(0.5, 2.0, 6) + 1j * rng.uniform(0.2, 0.8, 6)),
    ]
    for spec, p in specs_and_points:
        J = jacobian(spec, p)
        Jfd = fd_jacobian(spec, p)
        err = np.abs(J - Jfd).max() / max(np.abs(J).max(), 1e-300)
        assert err < 1e-6, spec.name


def test_states_representative_independent():
    # floppy modes have zero projected gradient, so the eigenvalue-spec states
    # do not depend on the representative of the rank-deficient solve
    net = collinear_network()
    eig = network_eigendata(net)
    spec = make_spec_eigenvalues(net.graph, eig)
    from netinv.dirichlet import floppy_basis
    from netinv.operators import projected_gradient_matrix
    basis = floppy_basis(net.graph, spring_conductivity(net))
    P = projected_gradient_matrix(net.graph, eig)
    assert basis.dim >= 1
    assert np.abs(P @ basis.modes).max() < 1e-12


def test_newton_recovers_spring_constants():
    net = braced_network()
    spec = make_spec_static_springs(net)
    local = np.random.default_rng(8)
    k_true = local.uniform(0.5, 2.0, 9)
    target = spec.forward(k_true)
    k_rec, trace = newton_invert(spec, target, np.ones(9), residual_tol=1e-12)
    assert len(trace.residuals) - 1 <= 50
    assert np.abs(k_rec - k_true).max() < 1e-7


def test_newton_recovers_masses():
    net = braced_network()
    spec = make_spec_masses_known_springs(net)
    local = np.random.default_rng(18)
    rho_true = -local.uniform(0.5, 2.0, 6) + 1j * local.uniform(0.3, 0.9, 6)
    target = spec.forward(rho_true)
    rho0 = np.full(6, -1.0 + 0.5j)
    rho_rec, trace = newton_invert(spec, target, rho0, residual_tol=1e-12)
    assert np.abs(rho_rec - rho_true).max() < 1e-7


def test_real_spec_rejects_nonzero_imaginary_part():
    spec = make_spec_static_springs(braced_network())
    with pytest.raises(InadmissibleParameterError, match="imaginary part"):
        spec.require_admissible(np.full(9, 1 + 5j))
    p = spec.require_admissible(np.full(9, 2 + 0j))
    assert p.dtype == float and np.array_equal(p, np.full(9, 2.0))


def test_line_scan_real_spec_rejects_complex_direction():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    net = ElasticNetwork(graph=build_graph(4, [0, 1, 2, 3], edges), positions=pos,
                         k=np.ones(6), c_e=np.zeros(6), mass=np.ones(4), c_v=np.ones(4))
    spec = make_spec_static_springs(net)
    with pytest.raises(ValueError, match="imaginary part"):
        line_rank_scan(spec, np.ones(6), np.full(6, 1 + 5j), num_samples=3)
    real = line_rank_scan(spec, np.ones(6), np.full(6, 1.0), num_samples=3)
    assert line_rank_scan(spec, np.ones(6), np.full(6, 1 + 0j), num_samples=3) == real


def test_uniqueness_static_springs():
    net = braced_network()
    spec = make_spec_static_springs(net)
    v = uniqueness_test(spec, rng.uniform(0.5, 2.0, 9))
    assert v.holds


def test_damper_conductivity_geometry():
    net = braced_network()
    mu = damper_conductivity(net)
    sigma = spring_conductivity(net)
    for e in range(9):
        assert np.abs(mu.values[e] / net.c_e[e]
                      - sigma.values[e] / net.k[e]).max() < 1e-12


def test_spring_laplacian_is_stiffness():
    net = braced_network()
    op = frequency_operator(net)
    K = laplacian_matrix(net.graph, spring_conductivity(net).values)
    assert np.abs(op.stiffness - K).max() == 0.0
