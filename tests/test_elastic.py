"""Spring networks, the frequency-domain pencil and elastodynamic specs."""

from dataclasses import replace

import numpy as np
import pytest

from netinv import operators
from netinv.dirichlet import _route, _schur_dtn
from netinv.elastic import (
    ElasticNetwork,
    _pencil,
    displacement_to_forces,
    make_spec_eigenvalues,
    make_spec_masses_known_springs,
    make_spec_springs_known_masses,
    make_spec_static_springs,
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
from netinv.operators import eigen_decompose

from oracles import (
    complex_state_matrix,
    frequency_pencil,
    loop_assembly,
    projected_gradient_matrix,
    range_basis,
    relative_error,
    schur_complement,
)

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


def test_coincident_endpoints_error_names_the_first_edge():
    g = build_graph(4, [0, 3], [(0, 1), (1, 2), (2, 3), (0, 3)])
    # edges (1, 2) and (0, 3) both join coincident positions, (1, 2) first
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-9], [0.0, 0.0]])
    with pytest.raises(FieldError, match=r"^edge \(1,2\) has coincident endpoint positions$"):
        ElasticNetwork(graph=g, positions=pos, k=np.ones(4), c_e=np.zeros(4),
                       mass=np.ones(4), c_v=np.ones(4))


def test_spring_directions_unit_norm():
    net = braced_network()
    dirs = spring_directions(net)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    for e, (i, j) in enumerate(net.graph.edges):
        v = net.positions[i] - net.positions[j]
        assert np.allclose(dirs[e], v / np.linalg.norm(v))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spring_directions_near_the_float_maximum():
    # scaling every position by a power of two gives the same directions, bit for bit
    net = braced_network()
    far = replace(net, positions=np.ldexp(net.positions, 1021))
    assert np.array_equal(spring_directions(far), spring_directions(net))
    # positions spread over the whole float range, so that differences exceed it
    wide = replace(net, positions=(net.positions - 1.0) * np.finfo(float).max)
    assert np.abs(spring_directions(wide) - spring_directions(net)).max() < 1e-15


def test_spring_conductivity_rank1():
    net = braced_network()
    sigma = spring_conductivity(net)
    for e in range(net.graph.num_edges):
        block = sigma.values[e]
        w = np.linalg.eigvalsh(block.real)
        assert abs(w[0]) < 1e-12
        assert abs(w[1] - net.k[e]) < 1e-12


def test_subnormal_springs_are_exactly_symmetric():
    # k (x x^T) rounds its two mirrored entries alike, so a spring of a few
    # times the smallest subnormal passes the relative symmetry test;
    # (k x_a) x_b left edge 6 asymmetric by 5e-324 and was refused
    net = replace(braced_network(), k=np.full(9, 3.5e-323))
    sigma = spring_conductivity(net)
    assert np.array_equal(sigma.values, sigma.values.transpose(0, 2, 1))
    assert sigma.values.real.max() > 0


def test_spring_eigendata_matches_directions():
    # rank 1 per edge: x is the spring direction, first nonzero component
    # positive, and lambda is the spring constant
    net = braced_network()
    eig = eigen_decompose(spring_conductivity(net))
    dirs = spring_directions(net)
    first = dirs[np.arange(len(dirs)), np.argmax(np.abs(dirs) > 1e-14, axis=1)]
    dirs = np.where(first[:, None] < 0, -dirs, dirs)
    assert eig.rank == 1 and eig.ranks.tolist() == [1] * net.graph.num_edges
    assert np.abs(eig.x[:, :, 0] - dirs).max() <= 1e-15
    assert np.abs(eig.lam[:, 0] - net.k).max() <= 1e-14 * net.k.max()


def test_frequency_operator_combination():
    # the builder's blocks at the network's own (rho_e, rho_v) assemble the
    # quadratic pencil
    for omega in (1.0, -2.0):
        net = braced_network(omega=omega)
        mass, damping, stiffness = frequency_pencil(net)
        pencil = -omega ** 2 * mass + 1j * omega * damping + stiffness
        M = loop_assembly(net.graph, *_pencil(net, net.rho_e, net.rho_v))
        assert np.abs(M - pencil).max() < 1e-12


def test_frequency_operator_requires_dynamic():
    # the dynamic map and both dynamic specs refuse omega = 0 and c_v = 0
    for net, message in ((braced_network(omega=0.0), "nonzero frequency"),
                         (braced_network(c_v=0.0), "nodal damping")):
        for call in (lambda: displacement_to_forces(net, "dynamic"),
                     lambda: make_spec_springs_known_masses(net),
                     lambda: make_spec_masses_known_springs(net)):
            with pytest.raises(FieldError, match=message):
                call()


def test_static_map_collinear_series():
    net = collinear_network()
    lam = displacement_to_forces(net, "static").matrix
    E = np.outer([1.0, 0.0], [1.0, 0.0])
    expected = 0.5 * np.block([[E, -E], [-E, E]])
    assert np.abs(lam - expected).max() < 1e-12


def test_dynamic_map_homogeneity_bridge():
    # the map equals the Schur complement of the quadratic pencil assembled
    # by the oracle from its mass, damping and stiffness parts
    for trial in range(10):
        omega = [0.5, 1.0, 2.0][trial % 3]
        net = braced_network(c_v=0.7 + 0.1 * trial, omega=omega, seed=trial)
        nb = 2 * net.graph.num_boundary
        lam = displacement_to_forces(net, "dynamic").matrix
        mass, damping, stiffness = frequency_pencil(net)
        pencil = -omega ** 2 * mass + 1j * omega * damping + stiffness
        oracle = schur_complement(pencil, nb)
        assert np.abs(lam - oracle).max() < 1e-10


@pytest.mark.parametrize("omega", [0.5, 1.0, -2.0])
def test_dynamic_map_and_both_dynamic_specs_agree(omega):
    # three views of one pencil: the map, and the two specs' forward maps at
    # the parameters the network holds
    for seed in range(3):
        net = braced_network(c_v=0.6, omega=omega, seed=seed)
        jw = 1j * omega
        lam = displacement_to_forces(net, "dynamic").matrix
        springs = make_spec_springs_known_masses(net).forward(net.k + jw * net.c_e)
        masses = make_spec_masses_known_springs(net).forward(-omega ** 2 * net.mass + jw * net.c_v)
        scale = np.abs(lam).max()
        assert np.abs(springs - lam).max() <= 1e-12 * scale
        assert np.abs(masses - lam).max() <= 1e-12 * scale


def test_dynamic_map_asymmetry_is_that_of_the_returned_map():
    # the map is the symmetric part of F, the Schur product of the pencil
    # itself, and reports the asymmetry that the symmetric part discards
    for omega in (1.3, -2.0):
        net = braced_network(c_v=0.6, omega=omega, seed=3)
        F = _schur_dtn(_route(net.graph, net.d).scatter(*_pencil(net, net.rho_e, net.rho_v)))
        dtn = displacement_to_forces(net, "dynamic")
        assert dtn.asymmetry == np.abs(F - F.T).max() > 0
        assert dtn.matrix.tobytes() == (0.5 * F + 0.5 * F.T).tobytes()
        assert dtn.provenance == "pd"


def test_dynamic_map_assembles_once(monkeypatch):
    # one scatter of the pencil's blocks into the levels of its plan
    calls = []
    original = operators._LevelPlan.scatter

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators._LevelPlan, "scatter", counted)
    displacement_to_forces(braced_network(), "dynamic")
    assert len(calls) == 1


def test_identity_eigenvalue_spec():
    net = braced_network()
    eig = eigen_decompose(spring_conductivity(net))
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
        (make_spec_eigenvalues(net.graph, eigen_decompose(spring_conductivity(net))),
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


def test_static_springs_real_route_matches_complex_arithmetic():
    # the static map and the static-springs states solve a real operator in
    # real arithmetic; the reference solves the same operator by complex LU
    for net in (braced_network(seed=3), collinear_network()):
        sigma = spring_conductivity(net)
        eig = eigen_decompose(sigma)
        M = loop_assembly(net.graph, sigma.values)
        nb = net.d * net.graph.num_boundary
        U = complex_state_matrix(M, nb, range_basis(_route(net.graph, net.d, eig).floppy, nb))
        lam = displacement_to_forces(net, "static").matrix
        states = make_spec_static_springs(net).states(net.k)
        assert lam.dtype == complex and states.dtype == np.float64
        assert relative_error(lam, M[:nb] @ U, M) <= 1e-12
        assert relative_error(states, projected_gradient_matrix(net.graph, eig) @ U, U) <= 1e-12


@pytest.mark.parametrize("omega", [0.5, -2.0])
def test_springs_dampers_states_match_projected_gradient(omega):
    # the edge-gradient gather against the dense projected gradient, on the
    # complex states of the pencil
    net = braced_network(c_v=0.6, omega=omega, seed=4)
    M = loop_assembly(net.graph, *_pencil(net, net.rho_e, net.rho_v))
    U = complex_state_matrix(M, net.d * net.graph.num_boundary)
    P = projected_gradient_matrix(net.graph, eigen_decompose(spring_conductivity(net)))
    states = make_spec_springs_known_masses(net).states(net.rho_e)
    assert relative_error(states, P @ U, U) <= 1e-12


def test_states_representative_independent():
    # floppy modes have zero projected gradient, so the eigenvalue-spec states
    # do not depend on the representative of the rank-deficient solve
    net = collinear_network()
    eig = eigen_decompose(spring_conductivity(net))
    spec = make_spec_eigenvalues(net.graph, eig)
    from netinv.dirichlet import floppy_basis
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


def test_spring_laplacian_is_stiffness():
    net = braced_network()
    K = loop_assembly(net.graph, spring_conductivity(net).values)
    assert np.abs(frequency_pencil(net)[2] - K).max() == 0.0
