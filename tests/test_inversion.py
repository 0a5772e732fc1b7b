"""Product matrix, identity, Jacobians, uniqueness test and Newton solver."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netinv import inversion, operators
from netinv.dirichlet import RegimeError
from netinv.elastic import (
    ElasticNetwork,
    make_spec_eigenvalues,
    make_spec_masses_known_springs,
    make_spec_springs_known_masses,
    make_spec_static_springs,
    spring_conductivity,
)
from netinv.graph import FieldError, MatrixEdgeField, _block_outer_split, build_graph
from netinv.inversion import (
    InadmissibleParameterError,
    _admissible_extent,
    _blocks,
    _vec_blocks,
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
from netinv.operators import eigen_decompose

from oracles import (
    admissible_extent_bisection,
    block_outer_split_full,
    dense_route,
    loop_assembly,
    meeting_pairs,
    vec,
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
        (make_spec_eigenvalues(net.graph, eigen_decompose(spring_conductivity(net))), 1, False,
         rho(9), rho(9)),
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


@settings(max_examples=60, deadline=None)
@given(networks(), st.sampled_from(["conductivity", "eigenvalues", "springs_static"]),
       st.booleans(), st.integers(-60, 60))
@example((build_graph(5, [0, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (0, 2)]), 1, 0),
         "conductivity", True, 40)
# one boundary vertex: every state is constant, so W and the data difference
# are rounding alone
@example((build_graph(2, [0], [(0, 1)]), 1, 0), "conductivity", False, -60)
def test_identity_residual_is_the_same_under_powers_of_two(net, factory, real, k):
    # these maps are homogeneous of degree 1 and their states of degree 0,
    # so the residual, in the problem's own units, is the same at 2^k (p1, p2),
    # bit for bit
    g, d, seed = net
    spec, p1 = spec_and_parameter(g, d, seed, factory, real)
    p2 = spec_and_parameter(g, d, seed + 1, factory, real)[1]
    res = identity_residual(spec, p1, p2)
    assert identity_residual(spec, 2.0 ** k * p1, 2.0 ** k * p2) == res
    assert res < 1e-10
    assert identity_residual(spec, p1, p1) == 0.0


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


def four_cycle():
    return build_graph(4, [0, 2], [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_uniqueness_structural_zero():
    # d = 2: m = 16 = n^2, but the symmetric block of W has 12 rows and 10
    # columns, so rank W <= 14 and sigma_min is exactly zero, not round-off
    spec = make_spec_conductivity(four_cycle(), 2)
    v = uniqueness_test(spec, random_spd_vec(4, 2, 3))
    assert spec.m == spec.n ** 2
    assert v.sigma_min == 0.0
    assert v.sigma_max > 0.0
    assert not v.holds


@pytest.mark.parametrize("d, calls", [(1, 1), (2, 2)])
def test_uniqueness_calls_the_svd_once_per_nonempty_block(monkeypatch, d, calls):
    # W- has no rows when d = 1, so only W+ is decomposed
    svd, shapes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        shapes.append(a.shape) or svd(a, *args, **kwargs))
    g = eight_node_graph()
    uniqueness_test(make_spec_conductivity(g, d), random_spd_vec(g.num_edges, d, 4))
    assert len(shapes) == calls and all(0 not in shape for shape in shapes)


def two_components():
    """Boundary pairs {0, 1} and {2, 3} in two components, each pair joined
    directly and through interior vertices: 8 edges and 4 states, but a
    state of one component never meets one of the other."""
    edges = [(0, 1), (0, 4), (1, 4), (0, 5), (1, 5), (2, 3), (2, 6), (3, 6)]
    return build_graph(7, [0, 1, 2, 3], edges)


def test_rank_bound_holds_on_the_kept_columns():
    # W+ has 8 rows and 10 columns, of which the 6 pairs that meet are kept:
    # more rows than kept columns, so sigma_min is exactly 0, as the full W,
    # of rank 6 < m = 8, has it up to round-off
    spec = make_spec_conductivity(two_components(), 1)
    p = np.linspace(0.5, 2.0, spec.m).astype(complex)
    plus, minus = spec._split(spec.states(p))
    assert plus.shape == (8, 6) and minus.shape == (0, 2) and spec.m <= spec.n ** 2
    v = uniqueness_test(spec, p)
    s = np.linalg.svd(product_matrix(spec, p, p).W, compute_uv=False)
    assert v.sigma_min == 0.0 and abs(v.sigma_max - s[0]) <= 1e-12 * s[0]
    assert s[spec.m - 1] <= 1e-12 * s[0]
    assert v.holds == (s[spec.m - 1] > v.epsilon * s[0]) and not v.holds


def test_masses_split_keeps_a_block_without_columns():
    # no interior: every state is a unit vector, so no two states meet and
    # W- keeps no column (and, with b = 1, has no row); the components of
    # W+ are summed as those of the full split
    g = build_graph(2, [0, 1], [(0, 1)])
    net = ElasticNetwork(graph=g, positions=np.array([[0.0, 0.0], [1.0, 0.5]]),
                         k=np.array([1.5]), c_e=np.array([0.2]),
                         mass=np.array([1.0, 2.0]), c_v=np.array([0.5, 0.7]))
    spec = make_spec_masses_known_springs(net)
    p = -net.omega ** 2 * net.mass + 1j * net.omega * net.c_v
    S = spec.states(p)
    plus, minus = spec._split(S)
    kept = meeting_pairs(S, 1)
    assert kept.sum() == spec.n and minus.shape == (0, 0)
    assert plus.tobytes() == spec._sum_components(block_outer_split_full(S, 1)[0][:, kept]).tobytes()
    v = uniqueness_test(spec, p)
    s = np.linalg.svd(product_matrix(spec, p, p).W, compute_uv=False)
    assert abs(v.sigma_max - s[0]) <= 1e-12 * s[0]
    assert abs(v.sigma_min - s[spec.m - 1]) <= 1e-12 * s[0] and v.holds


SPEC_FACTORIES = ("conductivity", "schrodinger", "eigenvalues", "springs_static",
                  "springs_dampers", "masses_dampers")


def spec_and_parameter(g, d, seed, factory, real):
    """A spec of the named factory on g and an admissible parameter, real
    where ``real`` is set and the spec allows it; the spring networks place
    the vertices at random in d = max(d, 2) dimensions."""
    local = np.random.default_rng(seed)
    E, V = g.num_edges, g.num_vertices
    imag = 0.0 if real else 0.3

    def blocks(num, s):
        return random_spd_vec(num, d, s, imag).reshape(num, d, d).transpose(0, 2, 1)

    if factory == "conductivity":
        return make_spec_conductivity(g, d), random_spd_vec(E, d, seed, imag)
    if factory == "schrodinger":
        sigma = MatrixEdgeField.from_blocks(blocks(E, seed))
        return make_spec_schrodinger(g, sigma), 0.1 * random_spd_vec(V, d, seed + 1, imag)
    if factory == "eigenvalues":
        eig = eigen_decompose(MatrixEdgeField.from_blocks(blocks(E, seed).real))
        lam = local.uniform(0.5, 2.0, E * d) + 1j * imag * local.uniform(-1.0, 1.0, E * d)
        return make_spec_eigenvalues(g, eig), lam
    net = ElasticNetwork(graph=g, positions=local.standard_normal((V, max(d, 2))),
                         k=local.uniform(0.5, 2.0, E), c_e=local.uniform(0.1, 0.5, E),
                         mass=local.uniform(0.5, 2.0, V), c_v=local.uniform(0.5, 2.0, V))
    if factory == "springs_static":
        return make_spec_static_springs(net), net.k
    if factory == "springs_dampers":
        return make_spec_springs_known_masses(net), net.k + 1j * net.omega * net.c_e
    return (make_spec_masses_known_springs(net),
            -net.omega ** 2 * net.mass + 1j * net.omega * net.c_v)


@settings(max_examples=300, deadline=None)
@given(networks(), st.sampled_from(SPEC_FACTORIES), st.booleans())
@example((four_cycle(), 2, 3), "conductivity", True)
@example((four_cycle(), 3, 4), "schrodinger", False)
@example((build_graph(3, [0], [(0, 1), (1, 2)]), 1, 5), "eigenvalues", True)
def test_uniqueness_matches_full_svd(net, factory, real):
    # sigma_min is the m-th singular value of the full W, or 0 when W has
    # fewer than m; the split must give the same values and verdict
    g, d, seed = net
    spec, p = spec_and_parameter(g, d, seed, factory, real)
    v = uniqueness_test(spec, p)
    s = np.linalg.svd(product_matrix(spec, p, p).W, compute_uv=False)
    s_max = s.max(initial=0.0)
    s_min = s[spec.m - 1] if 0 < spec.m <= s.size else 0.0
    assert abs(v.sigma_max - s_max) <= 1e-12 * s_max
    assert abs(v.sigma_min - s_min) <= 1e-12 * s_max
    assert v.holds == (s_min > v.epsilon * s_max)
    # every singular value of W, not only the extremes, is one of a block's
    blocks = spec._split(spec.states(p))
    s_split = np.concatenate([np.linalg.svd(B, compute_uv=False) for B in blocks])
    size = max(s.size, s_split.size)
    assert np.abs(np.sort(np.pad(s, (0, size - s.size)))
                  - np.sort(np.pad(s_split, (0, size - s_split.size)))).max() <= 1e-12 * s_max


@settings(max_examples=150, deadline=None)
@given(networks(), st.sampled_from(SPEC_FACTORIES), st.booleans())
@example((build_graph(3, [0], [(0, 1), (1, 2)]), 2, 7), "springs_static", True)
def test_spec_forward_and_states_are_those_of_the_dense_route(net, factory, real):
    # the operator a spec scatters into its plan's levels, assembled dense
    # and eliminated on the same levels from the dense matrix, gives the
    # spec's forward map and the state matrix its rows are taken from, bit
    # for bit (in the example, vertex 2 hangs on one spring: a floppy mode,
    # so the plan has one level)
    g, d, seed = net
    spec, p = spec_and_parameter(g, d, seed, factory, real)
    seen = {}
    scatter, state_matrix = operators._LevelPlan.scatter, inversion._dirichlet_state_matrix

    def recorded_operator(plan, blocks, q_blocks=None):
        seen["operator"] = blocks, q_blocks
        return scatter(plan, blocks, q_blocks)

    def recorded_states(M):
        seen["states"] = state_matrix(M), M.plan
        return seen["states"][0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators._LevelPlan, "scatter", recorded_operator)
        patch.setattr(inversion, "_dirichlet_state_matrix", recorded_states)
        spec.states(p)
        (U, plan), (blocks, q) = seen["states"], seen["operator"]
        forward = spec.forward(p)
    M = loop_assembly(g, blocks) if q is None else loop_assembly(g, blocks, q)
    schur, states = dense_route(M, plan.nb, plan.rows, plan.floppy)
    if (g.edges, g.boundary, d, factory) == (((0, 1), (1, 2)), (0,), 2, "springs_static"):
        assert plan.floppy.shape[1] == 2 and plan.rows == [slice(None)]
    assert U.tobytes() == states.tobytes()
    assert forward.tobytes() == schur.astype(complex).tobytes()


@settings(max_examples=100, deadline=None)
@given(networks(), st.sampled_from(SPEC_FACTORIES), st.booleans())
def test_states_are_real_exactly_when_the_scattered_operator_is(net, factory, real):
    # a real parameter of the conductivity, Schrodinger and eigenvalue specs,
    # and every static-springs parameter, scatters a real operator; its state
    # matrix, W and Jacobian are then float64, and the forward map stays complex
    g, d, seed = net
    spec, p = spec_and_parameter(g, d, seed, factory, real)
    scatter, scattered = operators._LevelPlan.scatter, []

    def recorded(plan, *blocks):
        scattered.append(scatter(plan, *blocks))
        return scattered[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators._LevelPlan, "scatter", recorded)
        states = spec.states(p)
    dtype = scattered[-1].D[0].dtype
    operator_is_real = factory == "springs_static" or (
        real and factory in ("conductivity", "schrodinger", "eigenvalues"))
    assert dtype == (np.float64 if operator_is_real else np.complex128)
    assert states.dtype == dtype
    assert product_matrix(spec, p, p).W.dtype == jacobian(spec, p).dtype == dtype
    assert spec.forward(p).dtype == np.complex128


@settings(max_examples=100, deadline=None)
@given(networks(), st.sampled_from(SPEC_FACTORIES), st.booleans(), st.booleans())
# along p every cone but the shifted Schrodinger one scales by 1 + t: the
# segment is (-1, t_max), capped above
@example((path3(), 2, 1), "conductivity", False, True)
# no interior vertex: an empty cone, capped at t_max both ways
@example((build_graph(3, [0, 1, 2], [(0, 1), (1, 2)]), 2, 1), "schrodinger", False, False)
def test_admissible_extent_matches_bisection(net, factory, real, along_p):
    g, d, seed = net
    spec, p = spec_and_parameter(g, d, seed, factory, real)
    p = spec.require_admissible(p)
    local = np.random.default_rng(seed)
    dp = local.standard_normal(spec.m)
    if along_p:
        dp = p.copy()
    elif not spec.is_real:
        dp = dp + 1j * local.standard_normal(spec.m)
    t_max = 1e6
    ends = _admissible_extent(spec, p, dp, t_max)
    oracle = (-admissible_extent_bisection(spec, p, dp, -1.0, t_max),
              admissible_extent_bisection(spec, p, dp, 1.0, t_max))
    for t, ref in zip(ends, oracle):
        assert abs(t - ref) <= 1e-12 * abs(ref)
        if abs(t) < t_max:
            assert spec.admissible(p + (1 - 1e-9) * t * dp)
            assert not spec.admissible(p + (1 + 1e-9) * t * dp)
        else:
            assert abs(t) == t_max


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


def test_newton_steps_on_a_real_jacobian_alone(monkeypatch):
    # the static springs' operator is real, so J is float64 and its Im J
    # rows would all be zero: each step solves J dp = -Re r on J's n^2 rows
    net = braced_truss()
    spec = make_spec_static_springs(net)
    solved, lstsq = [], np.linalg.lstsq

    def recording(a, b, rcond=None):
        solved.append(a)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    newton_invert(spec, spec.forward(net.k), 0.8 * net.k, max_iter=2)
    assert solved
    assert all(a.dtype == np.float64 and a.shape == (spec.n ** 2, spec.m) for a in solved)


def newton_outcome(spec, target, p0):
    """(p, trace) of newton_invert, or the type and message of its error."""
    try:
        return newton_invert(spec, target, p0, max_iter=12)
    except (FieldError, RegimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(networks(), st.sampled_from(["conductivity", "eigenvalues", "springs_static"]),
       st.booleans(), st.integers(-60, 60))
@example((build_graph(3, [0, 2], [(0, 1), (1, 2)]), 1, 0), "conductivity", True, -40)
def test_newton_is_exact_under_powers_of_two(net, factory, real, k):
    # these maps are homogeneous of degree 1 and Newton stops in the
    # problem's own units, so on 2^k (target, p0) it takes the same steps,
    # with the same reason, to 2^k times the same parameter, bit for bit
    g, d, seed = net
    spec, p_true = spec_and_parameter(g, d, seed, factory, real)
    p0 = 0.5 * (p_true + spec_and_parameter(g, d, seed + 1, factory, real)[1])
    target = spec.forward(p_true)
    base = newton_outcome(spec, target, p0)
    scaled = newton_outcome(spec, 2.0 ** k * target, 2.0 ** k * p0)
    if isinstance(base[1], str):
        assert scaled == base
        return
    (p, trace), (p_k, trace_k) = base, scaled
    assert np.array_equal(p_k, 2.0 ** k * p)
    assert trace_k.reason == trace.reason and trace_k.step_lengths == trace.step_lengths
    assert trace_k.residuals == [2.0 ** k * r for r in trace.residuals]


@pytest.mark.parametrize("h, direction", [(0.0, 1.0), (1e-5, 0.0), (1e-200, 1e-200),
                                          (np.nan, 1.0), (np.inf, 1.0), (1e-5, np.inf)])
def test_fd_jacobian_refuses_a_step_that_is_not_finite_and_nonzero(h, direction):
    # a zero step used to give an all-NaN Jacobian, a non-finite one blamed p
    spec = make_spec_conductivity(path3(), 1)
    with pytest.raises(ValueError, match="finite and nonzero"):
        fd_jacobian(spec, np.array([1.0, 2.0], dtype=complex), h=h, direction=direction)


@pytest.mark.parametrize("options, rule", [
    ({"residual_tol": np.inf}, "residual_tol"), ({"residual_tol": np.nan}, "residual_tol"),
    ({"residual_tol": -1e-10}, "residual_tol"), ({"residual_tol": 0.0}, "residual_tol"),
    ({"max_iter": -1}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
])
def test_newton_refuses_what_the_command_line_refuses(options, rule):
    # the rules of `netinv invert --residual-tol` and `--max-iters`
    spec = make_spec_conductivity(path3(), 1)
    p = np.array([1.0, 2.0], dtype=complex)
    with pytest.raises(ValueError, match=rule):
        newton_invert(spec, spec.forward(2 * p), p, **options)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_newton_refuses_a_target_that_is_not_finite(bad):
    # it used to blame the residual, with a FieldError
    spec = make_spec_conductivity(path3(), 1)
    p = np.array([1.0, 2.0], dtype=complex)
    target = spec.forward(2 * p)
    target[0, 1] = bad
    with pytest.raises(ValueError, match="target must be finite") as info:
        newton_invert(spec, target, p)
    assert type(info.value) is ValueError


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
def test_require_admissible_rejects_non_finite(bad):
    spec = make_spec_conductivity(path3(), 1)
    assert not spec.admissible(np.array([1.0, bad]))
    with pytest.raises(InadmissibleParameterError):
        spec.require_admissible(np.array([1.0, bad]))


@pytest.mark.parametrize("num_samples", [0, -3])
def test_line_rank_scan_rejects_no_samples(num_samples):
    spec = make_spec_conductivity(path3(), 1)
    with pytest.raises(ValueError, match="num_samples"):
        line_rank_scan(spec, np.ones(2), np.ones(2), num_samples=num_samples)


@pytest.mark.parametrize("num_samples", [2.5, 3.0, "3"])
def test_line_rank_scan_refuses_a_num_samples_that_is_not_an_integer(num_samples):
    # the rule of `netinv scan --samples`
    spec = make_spec_conductivity(path3(), 1)
    with pytest.raises(ValueError, match="num_samples must be an integer"):
        line_rank_scan(spec, np.array([1.0, 2.0]), np.ones(2), num_samples=num_samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_line_rank_scan_rejects_a_non_finite_direction(bad):
    # refused before any arithmetic, which would otherwise fail in the
    # sampler or blame the admissible parameter
    spec = make_spec_conductivity(path3(), 1)
    with pytest.raises(ValueError, match="finite nonzero vector of parameter length"):
        line_rank_scan(spec, np.array([1.0, 2.0]), np.array([bad, 1.0]), num_samples=3)


@pytest.mark.parametrize("dp", [[1e-170, 1e-170], [5e-324, 0.0]])
def test_line_rank_scan_takes_a_direction_whose_norm_underflows(dp):
    # nonzero is tested entry by entry: the squares of these underflow to 0
    spec = make_spec_conductivity(path3(), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = line_rank_scan(spec, np.array([1.0, 2.0]), np.array(dp), num_samples=3)
    assert len(scan.samples) == 3


def test_line_rank_scan_rejects_a_signed_zero_direction():
    spec = make_spec_conductivity(path3(), 1)
    with pytest.raises(ValueError, match="finite nonzero vector of parameter length"):
        line_rank_scan(spec, np.array([1.0, 2.0]), np.array([0.0, -0.0]), num_samples=3)


@pytest.mark.parametrize("epsilon", [-1.0, np.nan, np.inf])
def test_uniqueness_and_scan_reject_bad_epsilon(epsilon):
    # the path's conductivity test has sigma_min 8.6e-17: it must not "hold"
    spec = make_spec_conductivity(path3(), 1)
    with pytest.raises(ValueError, match="epsilon"):
        uniqueness_test(spec, np.ones(2), epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        line_rank_scan(spec, np.ones(2), np.ones(2), num_samples=3, epsilon=epsilon)


def test_vec_blocks_inverts_blocks():
    # column-stacked blocks, block by block: the CLI's parameter vectors
    blocks = np.stack([np.array([[1.0, 2.0], [3.0, 5.0]]),
                       np.array([[0.0, 1.0], [4.0, 0.0]])])
    p = _vec_blocks(blocks)
    assert np.array_equal(p, np.concatenate([vec(b) for b in blocks]))
    assert np.array_equal(p, [1, 3, 2, 5, 0, 4, 1, 0])
    assert np.array_equal(_blocks(p, 2), blocks)


def test_require_admissible_shape_check():
    g = path3()
    spec = make_spec_conductivity(g, 1)
    with pytest.raises(InadmissibleParameterError):
        spec.require_admissible(np.ones(5))


@pytest.mark.parametrize("d", [1, 2])
def test_split_plan_follows_the_zero_pattern_of_the_states(d):
    # one spec, two state matrices: the second has an exactly zero column,
    # so its pairs with every other state no longer meet and the plan kept
    # for the first pattern is replaced; both splits are the full split's
    # kept columns, bit for bit, and a copy made by dataclasses.replace
    # starts with no plan and splits the same
    g = eight_node_graph()
    spec, p = make_spec_conductivity(g, d), random_spd_vec(g.num_edges, d, 3)
    S = spec.states(p)
    zeroed = S.copy()
    zeroed[:, 1] = 0.0
    for states in (S, zeroed, S):
        blocks = spec._split(states)
        assert len(spec._split_plans) == 1
        meet = meeting_pairs(states, d)
        i, j = np.triu_indices(spec.n)
        for new, full, kept in zip(blocks, block_outer_split_full(states, d), (meet, meet[i < j])):
            assert new.tobytes() == np.ascontiguousarray(full[:, kept]).tobytes()
        assert [B.tobytes() for B in _block_outer_split(states, d)] == \
            [B.tobytes() for B in blocks]
    assert blocks[0].shape[1] > spec._split(zeroed)[0].shape[1]
    copy = replace(spec, name="copy")
    assert copy._split_plans == {} and len(spec._split_plans) == 1
    assert [B.tobytes() for B in copy._split(S)] == [B.tobytes() for B in spec._split(S)]
    assert uniqueness_test(copy, p) == uniqueness_test(spec, p)
