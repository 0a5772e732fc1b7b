"""Product matrix, identity, Jacobians, uniqueness test and Newton solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv.elastic import (
    ElasticNetwork,
    make_spec_eigenvalues,
    make_spec_masses_known_springs,
    make_spec_springs_known_masses,
    make_spec_static_springs,
    network_eigendata,
)
from netinv.graph import MatrixEdgeField, build_graph, vec
from netinv.inversion import (
    InadmissibleParameterError,
    fd_jacobian,
    identity_residual,
    jacobian,
    line_rank_scan,
    make_spec_conductivity,
    make_spec_schrodinger,
    newton_invert,
    product_matrix,
    uniqueness_test,
)

rng = np.random.default_rng(37)


def path3():
    return build_graph(3, [0, 2], [(0, 1), (1, 2)])


def eight_node_graph():
    """Fixed 8-node graph with 4 boundary nodes used across these tests."""
    edges = [(0, 4), (1, 5), (2, 6), (3, 7), (4, 5), (5, 6), (6, 7), (4, 7),
             (0, 5), (4, 6)]
    return build_graph(8, [0, 1, 2, 3], edges)


def random_spd_vec(num_blocks, d, seed, imag=0.3):
    local = np.random.default_rng(seed)
    out = []
    for _ in range(num_blocks):
        a = local.standard_normal((d, d))
        b = local.standard_normal((d, d))
        block = a @ a.T + 2 * np.eye(d) + imag * 1j * (b + b.T)
        out.append(vec(block))
    return np.concatenate(out)


def w_oracle(S1, S2, b, component_sum=False):
    """W column by column: for every pair (i, j), vec(u v^T) of each b-row
    group of u = S1[:, i] and v = S2[:, j], or its trace when the pairing
    sums the components."""
    n = S1.shape[1]
    cols = []
    for j in range(n):
        for i in range(n):
            groups = zip(S1[:, i].reshape(-1, b), S2[:, j].reshape(-1, b))
            outers = [np.outer(u, v) for u, v in groups]
            cols.append([np.trace(o) for o in outers] if component_sum
                        else np.concatenate([vec(o) for o in outers]))
    return np.array(cols).T


def braced_truss():
    """6-node, 9-edge planar braced truss with 4 boundary nodes."""
    local = np.random.default_rng(0)
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0],
                    [0.8, 0.9], [1.3, 1.1]])
    edges = [(0, 4), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5), (0, 5), (2, 4)]
    return ElasticNetwork(graph=build_graph(6, [0, 1, 2, 3], edges), positions=pos,
                          k=local.uniform(0.5, 2.0, 9), c_e=local.uniform(0.1, 0.5, 9),
                          mass=local.uniform(0.5, 2.0, 6), c_v=np.ones(6))


def spec_cases():
    """(spec, b, component_sum, p1, p2) for every spec factory."""
    local = np.random.default_rng(91)
    g = eight_node_graph()
    sigma = MatrixEdgeField.from_blocks(
        random_spd_vec(g.num_edges, 2, 5).reshape(g.num_edges, 2, 2).transpose(0, 2, 1))
    q = [vec(m + m.T) for m in 0.2 * local.standard_normal((16, 2, 2))]
    net = braced_truss()

    def rho(size, sign=1.0):
        return sign * local.uniform(0.5, 2.0, size) + 1j * local.uniform(0.1, 0.9, size)

    return [
        (make_spec_conductivity(path3(), 1), 1, False,
         np.array([1.0, 1.0], dtype=complex), np.array([1.3, 0.7], dtype=complex)),
        (make_spec_conductivity(g, 2), 2, False,
         random_spd_vec(g.num_edges, 2, 81), random_spd_vec(g.num_edges, 2, 82)),
        (make_spec_schrodinger(g, sigma), 2, False,
         np.concatenate(q[:8]).astype(complex), np.concatenate(q[8:]).astype(complex)),
        (make_spec_eigenvalues(net.graph, network_eigendata(net)), 1, False, rho(9), rho(9)),
        (make_spec_static_springs(net), 1, False,
         local.uniform(0.5, 2.0, 9), local.uniform(0.5, 2.0, 9)),
        (make_spec_springs_known_masses(net), 1, False, rho(9), rho(9)),
        (make_spec_masses_known_springs(net), 2, True, rho(6, -1.0), rho(6, -1.0)),
    ]


def test_product_matrix_shape_and_layout():
    # column i + j*n pairs state i of p1 with state j of p2; at b = 1 only
    # p1 != p2 tells i from j
    for spec, b, component_sum, p1, p2 in spec_cases():
        for q in (p1, p2):
            W = product_matrix(spec, p1, q).W
            assert W.shape == (spec.m, spec.n ** 2)
            oracle = w_oracle(spec.states(p1), spec.states(q), b, component_sum)
            assert np.array_equal(W, oracle), spec.name


@st.composite
def networks(draw):
    """Random connected graph (spanning tree plus extra edges), a random
    nonempty boundary subset, d in {1, 2, 3} and a seed for the blocks."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    boundary = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    g = build_graph(n, boundary, draw(st.permutations(sorted(edges))))
    return g, draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(networks())
def test_conductivity_product_matrix_matches_oracle(net):
    g, d, seed = net
    spec = make_spec_conductivity(g, d)
    p1 = random_spd_vec(g.num_edges, d, seed)
    p2 = random_spd_vec(g.num_edges, d, seed + 1)
    W = product_matrix(spec, p1, p2).W
    assert np.array_equal(W, w_oracle(spec.states(p1), spec.states(p2), d))
    assert identity_residual(spec, p1, p2) < 1e-10


def test_identity_exact_on_conductivity():
    g = eight_node_graph()
    spec = make_spec_conductivity(g, 2)
    for trial in range(5):
        p1 = random_spd_vec(g.num_edges, 2, 1000 + trial)
        p2 = random_spd_vec(g.num_edges, 2, 2000 + trial)
        assert identity_residual(spec, p1, p2) < 1e-12


def test_identity_exact_on_schrodinger():
    g = eight_node_graph()
    sigma = MatrixEdgeField.from_blocks(
        random_spd_vec(g.num_edges, 2, 5).reshape(g.num_edges, 2, 2).transpose(0, 2, 1))
    spec = make_spec_schrodinger(g, sigma)
    for trial in range(5):
        local = np.random.default_rng(3000 + trial)
        qs = []
        for _ in range(8):
            m = 0.2 * local.standard_normal((2, 2))
            qs.append(vec(m + m.T))
        p1 = np.concatenate(qs).astype(complex)
        p2 = 0.5 * p1
        assert identity_residual(spec, p1, p2) < 1e-12


def test_jacobian_matches_fd_conductivity():
    g = path3()
    spec = make_spec_conductivity(g, 2)
    p = random_spd_vec(2, 2, 9)
    J = jacobian(spec, p)
    Jfd = fd_jacobian(spec, p)
    assert np.abs(J - Jfd).max() / np.abs(J).max() < 1e-8


def test_jacobian_matches_fd_imaginary_direction():
    # the forward map is holomorphic, so differencing along the imaginary
    # axis gives the same derivative
    g = path3()
    spec = make_spec_conductivity(g, 2)
    p = random_spd_vec(2, 2, 9)
    J = jacobian(spec, p)
    Jfd = fd_jacobian(spec, p, direction=1j)
    assert np.abs(J - Jfd).max() / np.abs(J).max() < 1e-8


def test_fd_jacobian_second_order():
    g = path3()
    spec = make_spec_conductivity(g, 1)
    p = np.array([1.3, 0.7], dtype=complex)
    J = jacobian(spec, p)
    e1 = np.abs(J - fd_jacobian(spec, p, h=1e-3)).max()
    e2 = np.abs(J - fd_jacobian(spec, p, h=5e-4)).max()
    assert e2 < e1 / 3.0  # close to the factor-4 second-order drop


def test_uniqueness_single_edge():
    g = build_graph(2, [0, 1], [(0, 1)])
    spec = make_spec_conductivity(g, 1)
    v = uniqueness_test(spec, np.array([2.0 + 0j]))
    assert v.holds
    assert abs(v.sigma_max - 2.0) < 1e-12
    assert abs(v.sigma_min - 2.0) < 1e-12


def test_uniqueness_overparameterized():
    # one boundary node: n^2 = 1 < m, so the test must be inconclusive
    g = build_graph(3, [0], [(0, 1), (1, 2)])
    spec = make_spec_conductivity(g, 1)
    v = uniqueness_test(spec, np.array([1.0, 1.0], dtype=complex))
    assert not v.holds
    assert v.sigma_min == 0.0


def test_uniqueness_epsilon_monotonicity():
    g = build_graph(2, [0, 1], [(0, 1)])
    spec = make_spec_conductivity(g, 1)
    p = np.array([2.0 + 0j])
    assert uniqueness_test(spec, p, epsilon=1e-8).holds
    assert not uniqueness_test(spec, p, epsilon=0.999 + 1e-3).holds


def test_scalar_to_matrix_transfer():
    # where the scalar test holds, sigma = s I in d=2 also holds; the path
    # with all vertices on the boundary has an injective linearization
    g = build_graph(3, [0, 1, 2], [(0, 1), (1, 2)])
    spec1 = make_spec_conductivity(g, 1)
    s = np.array([1.3, 0.7], dtype=complex)
    assert uniqueness_test(spec1, s).holds
    spec2 = make_spec_conductivity(g, 2)
    blocks = np.stack([s[0] * np.eye(2), s[1] * np.eye(2)])
    p2 = np.concatenate([vec(b) for b in blocks])
    assert uniqueness_test(spec2, p2).holds


def test_newton_p3_conductivity_data_consistent():
    # with interior node the two conductances are only determined up to the
    # series conductance; Newton still reaches a data-consistent parameter
    g = path3()
    spec = make_spec_conductivity(g, 1)
    p_true = np.array([1.3, 0.7], dtype=complex)
    target = spec.forward(p_true)
    p_rec, trace = newton_invert(spec, target, np.array([1.0, 1.0], dtype=complex))
    assert trace.reason in ("residual", "step")
    assert len(trace.residuals) - 1 <= 20
    assert np.abs(spec.forward(p_rec) - target).max() < 1e-8
    series = p_true[0] * p_true[1] / (p_true[0] + p_true[1])
    series_rec = p_rec[0] * p_rec[1] / (p_rec[0] + p_rec[1])
    assert abs(series_rec - series) < 1e-8


def test_newton_p3_all_boundary_recovers_parameters():
    g = build_graph(3, [0, 1, 2], [(0, 1), (1, 2)])
    spec = make_spec_conductivity(g, 1)
    p_true = np.array([1.3, 0.7], dtype=complex)
    target = spec.forward(p_true)
    p_rec, trace = newton_invert(spec, target, np.array([1.0, 1.0], dtype=complex))
    assert len(trace.residuals) - 1 <= 20
    assert np.abs(p_rec - p_true).max() < 1e-8


def test_newton_single_edge_linear():
    # fully boundary graph: the forward map is linear, one step suffices
    g = build_graph(2, [0, 1], [(0, 1)])
    spec = make_spec_conductivity(g, 1)
    p_true = np.array([2.5 + 0.4j])
    target = spec.forward(p_true)
    p_rec, trace = newton_invert(spec, target, np.array([1.0 + 0j]))
    assert np.abs(p_rec - p_true).max() < 1e-10
    assert len(trace.residuals) <= 4


def test_newton_residual_monotone():
    g = path3()
    spec = make_spec_conductivity(g, 2)
    p_true = random_spd_vec(2, 2, 13)
    target = spec.forward(p_true)
    p0 = np.concatenate([vec(np.eye(2)), vec(np.eye(2))]).astype(complex)
    _, trace = newton_invert(spec, target, p0)
    res = trace.residuals
    assert all(res[k + 1] <= res[k] for k in range(len(res) - 1))
    assert trace.reason in ("residual", "step")


def test_newton_rejects_inadmissible_start():
    g = path3()
    spec = make_spec_conductivity(g, 1)
    target = spec.forward(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(InadmissibleParameterError):
        newton_invert(spec, target, np.array([-1.0, 1.0], dtype=complex))


def test_newton_noisy_target_reports_terminal_residual():
    g = path3()
    spec = make_spec_conductivity(g, 1)
    target = spec.forward(np.array([1.3, 0.7], dtype=complex))
    noisy = target + 1e-3 * rng.standard_normal(target.shape)
    p_rec, trace = newton_invert(spec, noisy, np.array([1.0, 1.0], dtype=complex))
    assert trace.reason in ("step", "step_collapse", "max_iter", "residual")
    assert trace.residuals[-1] > 0


def test_line_rank_scan_p3():
    g = build_graph(3, [0, 1, 2], [(0, 1), (1, 2)])
    spec = make_spec_conductivity(g, 1)
    p = np.array([1.0, 1.0], dtype=complex)
    dp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    scan = line_rank_scan(spec, p, dp, num_samples=100, rng=np.random.default_rng(0))
    assert len(scan.samples) == 100
    assert scan.near_singular_fraction <= 0.01


def test_forward_maps_produce_symmetric_data():
    g = eight_node_graph()
    spec = make_spec_conductivity(g, 2)
    lam = spec.forward(random_spd_vec(g.num_edges, 2, 71))
    assert np.abs(lam - lam.T).max() < 1e-12


def test_require_admissible_shape_check():
    g = path3()
    spec = make_spec_conductivity(g, 1)
    with pytest.raises(InadmissibleParameterError):
        spec.require_admissible(np.ones(5))
