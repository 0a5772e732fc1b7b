"""Gradient, Laplacian/Schrodinger assembly, cylinder embedding and spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv.graph import (
    FieldError,
    MatrixEdgeField,
    MatrixNodeField,
    VectorNodeField,
    build_graph,
)
from netinv.operators import (
    assemble_laplacian,
    assemble_schrodinger,
    cylinder_embed,
    cylinder_graph,
    cylinder_permutation,
    cylinder_scalar_weights,
    eigen_decompose,
    gradient_matrix,
    korn_constants,
    laplacian_matrix,
    projected_gradient_matrix,
    scalar_laplacian,
    schrodinger_matrix,
)

from oracles import eigen_decompose_loop, reconstruct_from_eigen

rng = np.random.default_rng(11)


def path3():
    return build_graph(3, [0, 2], [(0, 1), (1, 2)])


def random_spd_blocks(count, d, seed):
    local = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        a = local.standard_normal((d, d))
        b = local.standard_normal((d, d))
        blocks.append(a @ a.T + 2 * np.eye(d) + 0.2j * (b + b.T))
    return np.stack(blocks)


def test_gradient_path3_scalar():
    g = path3()
    D = gradient_matrix(g, 1)
    # canonical columns are vertices 0, 2, 1
    expected = np.array([[1.0, 0.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(D, expected)


def test_gradient_apply_matches_matrix():
    g = build_graph(5, [0, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
    u = VectorNodeField.from_values(rng.standard_normal((5, 3)))
    du = (gradient_matrix(g, 3) @ u.canonical(g)).reshape(g.num_edges, 3)
    for e, (i, j) in enumerate(g.edges):
        assert np.allclose(du[e], u.values[i] - u.values[j])


def test_laplacian_path3_hand_assembly():
    # sigma = (1, 1) scalar gives the standard path Laplacian, here in the
    # canonical ordering (0, 2, 1)
    g = path3()
    L = laplacian_matrix(g, np.ones((2, 1, 1)))
    expected = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.allclose(L, expected)


def test_laplacian_oracle_dense_assembly():
    # independent oracle: accumulate [sigma, -sigma; -sigma, sigma] per edge
    g = build_graph(6, [1, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 3)])
    d = 2
    blocks = random_spd_blocks(g.num_edges, d, 5)
    sigma = MatrixEdgeField.from_blocks(blocks)
    L = assemble_laplacian(g, sigma).matrix

    n = g.num_vertices
    oracle = np.zeros((n * d, n * d), dtype=complex)
    for e, (i, j) in enumerate(g.edges):
        pi, pj = g.position[i], g.position[j]
        s = sigma.values[e]
        oracle[pi * d:(pi + 1) * d, pi * d:(pi + 1) * d] += s
        oracle[pj * d:(pj + 1) * d, pj * d:(pj + 1) * d] += s
        oracle[pi * d:(pi + 1) * d, pj * d:(pj + 1) * d] -= s
        oracle[pj * d:(pj + 1) * d, pi * d:(pi + 1) * d] -= s
    assert np.abs(L - oracle).max() < 1e-14
    # symmetric, and constants lie in the nullspace
    assert np.abs(L - L.T).max() < 1e-14
    const = np.tile(rng.standard_normal(d), n)
    assert np.abs(L @ const).max() < 1e-12


def test_schrodinger_adds_potential_in_vertex_order():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    q = MatrixNodeField.from_blocks(np.array([[[10.0]], [[20.0]], [[30.0]]]))
    M = assemble_schrodinger(g, sigma, q).matrix
    # canonical ordering (0, 2, 1): diagonal potential is (10, 30, 20)
    L = laplacian_matrix(g, sigma.values)
    assert np.allclose(M - L, np.diag([10.0, 30.0, 20.0]))


@st.composite
def networks(draw):
    """Random connected graph (spanning tree plus extra edges), a random
    nonempty boundary subset, d in {1, 2, 3} and a seed for the block values."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    boundary = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    g = build_graph(n, boundary, draw(st.permutations(sorted(edges))))
    return g, draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 2**32 - 1))


def complex_symmetric_blocks(local, count, d):
    a = local.standard_normal((count, d, d)) + 1j * local.standard_normal((count, d, d))
    return a + a.transpose(0, 2, 1)


@settings(max_examples=60, deadline=None)
@given(networks(), st.booleans())
def test_assembly_matches_per_edge_loop(net, with_q):
    g, d, seed = net
    local = np.random.default_rng(seed)
    blocks = complex_symmetric_blocks(local, g.num_edges, d)
    q = complex_symmetric_blocks(local, g.num_vertices, d)
    n = g.num_vertices
    oracle = np.zeros((n * d, n * d), dtype=complex)
    for e, (i, j) in enumerate(g.edges):
        pi, pj = g.position[i] * d, g.position[j] * d
        oracle[pi:pi + d, pi:pi + d] += blocks[e]
        oracle[pj:pj + d, pj:pj + d] += blocks[e]
        oracle[pi:pi + d, pj:pj + d] -= blocks[e]
        oracle[pj:pj + d, pi:pi + d] -= blocks[e]
    if with_q:
        for v in range(n):
            p = g.position[v] * d
            oracle[p:p + d, p:p + d] += q[v]
        M = schrodinger_matrix(g, blocks, q)
    else:
        M = laplacian_matrix(g, blocks)
    assert M.shape == oracle.shape
    assert np.abs(M - oracle).max() <= 1e-13 * (1.0 + np.abs(oracle).max())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_assembly_refuses_a_vertex_sum_beyond_float_range():
    # a star: the centre's block is the one sum of four edge blocks
    star = build_graph(5, [1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(FieldError, match="vertex 0 overflows"):
        assemble_laplacian(star, MatrixEdgeField.from_blocks(np.full((4, 1, 1), 5e307)))
    L = assemble_laplacian(star, MatrixEdgeField.from_blocks(np.full((4, 1, 1), 3e307))).matrix
    assert L[4, 4] == 4 * 3e307
    # a potential that tips a vertex over
    sigma = MatrixEdgeField.from_blocks(np.array([[[1e308]], [[1.0]]]))
    q = MatrixNodeField.from_blocks(np.array([[[0.0]], [[1e308]], [[0.0]]]))
    with pytest.raises(FieldError, match="vertex 1 overflows"):
        assemble_schrodinger(path3(), sigma, q)


def test_block_operator_partitions():
    g = build_graph(4, [0, 2], [(0, 1), (1, 2), (2, 3), (0, 3)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(4, 2, 8))
    op = assemble_laplacian(g, sigma)
    nb = 2 * g.num_boundary
    assert op.nb == nb
    assert np.array_equal(op.matrix[nb:, :nb], op.IB)


def test_scalar_laplacian_natural_order():
    L = scalar_laplacian(3, [(0, 1), (1, 2)], np.array([1.0, 1.0]))
    assert np.allclose(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_cylinder_embedding_p3_x_p2():
    # path of 3 layers, each layer a single edge (P2); random positive weights
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
    assert np.abs(M_path - M_cyl[np.ix_(pi, pi)]).max() < 1e-13


def test_cylinder_embedding_larger():
    path = build_graph(4, [0, 3], [(0, 1), (1, 2), (2, 3)])
    layer = build_graph(3, [0], [(0, 1), (1, 2), (0, 2)])
    layer_w = [rng.uniform(0.1, 3.0, 3) for _ in range(4)]
    coup_w = [rng.uniform(0.1, 3.0, 3) for _ in range(3)]
    sigma, q = cylinder_embed(path, layer, layer_w, coup_w)
    M_path = schrodinger_matrix(path, sigma.values, q.values)
    cyl = cylinder_graph(path, layer, boundary=[0, 9])
    weights = cylinder_scalar_weights(layer_w, coup_w)
    M_cyl = laplacian_matrix(cyl, weights.reshape(-1, 1, 1))
    pi = cylinder_permutation(path, layer, cyl)
    assert np.abs(M_path - M_cyl[np.ix_(pi, pi)]).max() < 1e-13


def random_commuting_blocks(count, d, seed):
    # shared real eigenvectors for the real and imaginary parts
    local = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        a = local.standard_normal((d, d))
        _, v = np.linalg.eigh(a + a.T)
        wr = local.uniform(0.5, 3.0, d)
        wi = local.uniform(-1.0, 1.0, d)
        blocks.append(v @ np.diag(wr + 1j * wi) @ v.T)
    return np.stack(blocks)


def test_eigen_decompose_reconstructs():
    sigma = MatrixEdgeField.from_blocks(random_commuting_blocks(4, 3, 9))
    eig = eigen_decompose(sigma)
    assert eig.rank == 3
    back = reconstruct_from_eigen(eig)
    assert np.abs(back.values - sigma.values).max() < 1e-10
    for x in eig.x:
        assert np.allclose(x.T @ x, np.eye(x.shape[1]))


def test_eigen_decompose_rank_deficient():
    x = np.array([3.0, 4.0]) / 5.0
    block = 2.0 * np.outer(x, x)
    sigma = MatrixEdgeField.from_blocks(block[None])
    eig = eigen_decompose(sigma)
    assert eig.rank == 1
    assert np.allclose(np.abs(eig.x[0][:, 0]), x)
    assert np.allclose(eig.lam[0], [2.0])


def test_eigen_decompose_deterministic_signs():
    sigma = MatrixEdgeField.from_blocks(random_commuting_blocks(3, 2, 21))
    e1 = eigen_decompose(sigma)
    e2 = eigen_decompose(sigma)
    for a, b in zip(e1.x, e2.x):
        assert np.array_equal(a, b)
    for x in e1.x:
        for c in range(x.shape[1]):
            nz = np.flatnonzero(np.abs(x[:, c]) > 1e-14)
            assert x[nz[0], c] > 0


def test_eigen_decompose_rejects_noncommuting():
    block = np.array([[2.0, 0.0], [0.0, 1.0]]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma = MatrixEdgeField.from_blocks(block[None])
    with pytest.raises(FieldError):
        eigen_decompose(sigma)


def test_eigen_decompose_rejects_nullspace_violation():
    # real part rank 1 along e1, imaginary part supported on e2
    block = np.diag([2.0, 0.0]) + 1j * np.diag([0.0, 1.0])
    sigma = MatrixEdgeField.from_blocks(block[None])
    with pytest.raises(FieldError):
        eigen_decompose(sigma)


def test_eigen_decompose_names_first_failing_edge():
    good = np.eye(2)
    noncommuting = np.diag([2.0, 1.0]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    uncontained = np.diag([2.0, 0.0]) + 1j * np.diag([0.0, 1.0])
    zero = np.zeros((2, 2))
    for blocks, message in (
        ([good, uncontained, noncommuting], "nullspace of real part of edge 1 "),
        ([good, noncommuting, zero], "parts of edge 1 do not commute"),
        ([good, good, zero, noncommuting], "edge 2 has zero real part"),
    ):
        with pytest.raises(FieldError, match=message):
            eigen_decompose(MatrixEdgeField.from_blocks(np.stack(blocks)))


def test_eigen_decompose_mixed_ranks():
    from netinv.elastic import make_spec_eigenvalues
    full = np.eye(2)
    rank1 = np.outer([1.0, 0.0], [1.0, 0.0])
    sigma = MatrixEdgeField.from_blocks(np.stack([full, rank1]))
    eig = eigen_decompose(sigma)
    assert eig.rank == 2
    assert eig.ranks.tolist() == [2, 1]
    assert np.array_equal(eig.x[1][:, 0], [0.0, 0.0])
    assert eig.lam[1, 0] == 0
    with pytest.raises(FieldError, match="uniform rank"):
        make_spec_eigenvalues(build_graph(3, [0, 2], [(0, 1), (1, 2)]), eig)


@st.composite
def commuting_fields(draw):
    """Edge blocks v diag(w' + j w'') v^T, one random real orthogonal v per
    edge shared by both parts, d in {1, 2, 3} and each edge's rank in 1..d
    (the other w' and w'' zero)."""
    d = draw(st.integers(1, 3))
    E = draw(st.integers(1, 6))
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    blocks = []
    for _ in range(E):
        v, _ = np.linalg.qr(local.standard_normal((d, d)))
        rank = draw(st.integers(1, d))
        wr = np.zeros(d)
        wi = np.zeros(d)
        kept = local.permutation(d)[:rank]
        wr[kept] = scale * local.uniform(0.1, 3.0, rank)
        wi[kept] = scale * local.uniform(-1.0, 1.0, rank)
        blocks.append(v @ np.diag(wr + 1j * wi) @ v.T)
    return MatrixEdgeField.from_blocks(np.stack(blocks))


@settings(max_examples=60, deadline=None)
@given(commuting_fields())
def test_eigen_decompose_matches_per_edge_loop(sigma):
    eig = eigen_decompose(sigma)
    xs, lams = eigen_decompose_loop(sigma)
    r = eig.rank
    assert eig.ranks.tolist() == [x.shape[1] for x in xs]
    assert r == max(eig.ranks)
    assert eig.x.shape == (len(xs), sigma.d, r) and eig.lam.shape == (len(xs), r)
    scale = np.abs(sigma.values).max()
    # lambda'' is a length-d dot product whose BLAS kernel depends on the
    # column count, so only a mixed-rank batch may differ, by about one ulp
    lam_tol = 0.0 if (eig.ranks == r).all() else 4 * np.finfo(float).eps * scale
    for e, (x, lam) in enumerate(zip(xs, lams)):
        re = x.shape[1]
        # the used columns are the last r_e, equal to the loop's; the rest are zero
        assert np.array_equal(eig.x[e, :, r - re:], x)
        assert np.array_equal(eig.lam[e, r - re:].real, lam.real)
        assert np.abs(eig.lam[e, r - re:] - lam).max() <= lam_tol
        assert not eig.x[e, :, : r - re].any() and not eig.lam[e, : r - re].any()
        for c in range(re):
            col = eig.x[e, :, r - re + c]
            assert col[np.flatnonzero(np.abs(col) > 1e-14)[0]] > 0
    back = reconstruct_from_eigen(eig).values
    assert np.abs(back - sigma.values).max() <= 1e-12 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigen_decompose_near_the_float_maximum():
    # the same eigendata, scaled, for blocks scaled by 2**1010 (about 1e304)
    s, local = 2.0 ** 1010, np.random.default_rng(3)
    v = np.linalg.qr(local.standard_normal((4, 2, 2)))[0]
    w = local.uniform(0.1, 3.0, (4, 2)) + 1j * local.uniform(-1.0, 1.0, (4, 2))
    sigma = MatrixEdgeField.from_blocks(v @ (w[:, :, None] * v.transpose(0, 2, 1)))
    a, b = eigen_decompose(sigma), eigen_decompose(MatrixEdgeField.from_blocks(s * sigma.values))
    assert np.array_equal(a.ranks, b.ranks)
    assert np.abs(a.x - b.x).max() < 1e-12
    assert np.abs(s * a.lam - b.lam).max() < 1e-12 * s * np.abs(a.lam).max()


def test_projected_gradient_matrix():
    g = path3()
    x = np.array([1.0, 0.0])
    blocks = np.stack([np.outer(x, x), np.outer(x, x)])
    sigma = MatrixEdgeField.from_blocks(blocks)
    eig = eigen_decompose(sigma)
    P = projected_gradient_matrix(g, eig)
    D = gradient_matrix(g, 2)
    assert P.shape == (2, 6)
    # each row selects the x-component of the corresponding gradient block
    u = rng.standard_normal(6)
    du = D @ u
    assert np.allclose(P @ u, [du[0], du[2]])


def test_korn_constants():
    sigma = MatrixEdgeField.from_blocks(
        np.stack([np.diag([2.0, 3.0]), np.diag([0.0, 5.0])]))
    lam_min, lam_minp, lam_max = korn_constants(sigma)
    assert lam_min == 0.0
    assert lam_minp == 2.0
    assert lam_max == 5.0
    with pytest.raises(FieldError):
        korn_constants(MatrixEdgeField.from_blocks((1j * np.eye(2))[None]))
