"""Regime classification, Dirichlet solvers, floppy modes and DtN maps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netinv.dirichlet import (
    PD_TOL,
    RegimeError,
    RegimeTag,
    classify_regime,
    dtn_pd,
    dtn_psd,
    floppy_basis,
    q_basis,
    solve_dirichlet_pd,
    solve_dirichlet_psd,
    _dirichlet_state_matrix,
    _schur_dtn,
    _symmetric_dtn,
)
from netinv.graph import (
    MatrixEdgeField,
    MatrixNodeField,
    build_graph,
)
from netinv.inversion import _vec_blocks, make_spec_conductivity
from netinv.operators import (
    assemble_laplacian,
    assemble_schrodinger,
    eigen_decompose,
    gradient_matrix,
    laplacian_matrix,
    schrodinger_matrix,
)

from oracles import (
    classify_regime_eigvalsh,
    complex_state_matrix,
    dtn_pseudoinverse_oracle,
    relative_error,
)

rng = np.random.default_rng(23)


def path3():
    return build_graph(3, [0, 2], [(0, 1), (1, 2)])


def random_spd_blocks(count, d, seed, imag=0.2):
    local = np.random.default_rng(seed)
    blocks = []
    for _ in range(count):
        a = local.standard_normal((d, d))
        b = local.standard_normal((d, d))
        blocks.append(a @ a.T + 2 * np.eye(d) + imag * 1j * (b + b.T))
    return np.stack(blocks)


def collinear_springs():
    """Two unit springs along the x axis with one interior node; the classic
    series network with a perpendicular floppy mode."""
    g = build_graph(3, [0, 2], [(0, 1), (1, 2)])
    x = np.array([1.0, 0.0])
    block = np.outer(x, x)
    sigma = MatrixEdgeField.from_blocks(np.stack([block, block]))
    return g, sigma


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------


def test_classify_pd_sigma_scalar_path():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    assert classify_regime(g, sigma, None).tag is RegimeTag.PD_SIGMA


def test_classify_pd_sigma_matrix():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(2, 2, 3))
    assert classify_regime(g, sigma, None).tag is RegimeTag.PD_SIGMA


def test_classify_pd_q():
    # rank-deficient sigma but strongly positive interior potential
    g, sigma = collinear_springs()
    q = MatrixNodeField.from_blocks(np.stack([np.eye(2)] * 3).astype(complex))
    assert classify_regime(g, sigma, q).tag is RegimeTag.PD_Q


def test_classify_psd_real():
    g, sigma = collinear_springs()
    assert classify_regime(g, sigma, None).tag is RegimeTag.PSD_REAL


def test_classify_psd_commuting():
    g, sigma = collinear_springs()
    complex_sigma = MatrixEdgeField.from_blocks((1 + 0.5j) * sigma.values)
    assert classify_regime(g, complex_sigma, None).tag is RegimeTag.PSD_COMMUTING


def test_classify_unsupported_noncommuting():
    g = path3()
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0]) / np.sqrt(2)
    blocks = np.stack([np.outer(x, x) + 1j * np.outer(y, y)] * 2)
    sigma = MatrixEdgeField.from_blocks(blocks)
    reg = classify_regime(g, sigma, None)
    assert reg.tag is RegimeTag.UNSUPPORTED
    assert "commuting_failure" in reg.diagnostics or reg.diagnostics


def test_classify_unsupported_indefinite():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.stack([np.diag([1.0, -1.0])] * 2))
    assert classify_regime(g, sigma, None).tag is RegimeTag.UNSUPPORTED


def test_classify_unsupported_zero_edge():
    g, sigma = collinear_springs()
    blocks = sigma.values.copy()
    blocks[1] = 0.0
    sigma0 = MatrixEdgeField.from_blocks(blocks)
    reg = classify_regime(g, sigma0, None)
    assert reg.tag is RegimeTag.UNSUPPORTED


def test_classify_unsupported_disconnected():
    g = build_graph(4, [0], [(0, 1), (2, 3)])
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    reg = classify_regime(g, sigma, None)
    assert reg.tag is RegimeTag.UNSUPPORTED
    assert reg.diagnostics["connected"] is False


def hand_fixtures():
    """(graph, sigma, q, tag) for every hand-built classification fixture."""
    g3 = path3()
    springs_g, springs = collinear_springs()
    x, y = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)
    zero_edge = springs.values.copy()
    zero_edge[1] = 0.0
    one_edge = build_graph(2, [0, 1], [(0, 1)])
    return [
        (g3, MatrixEdgeField.from_blocks(np.ones((2, 1, 1))), None, RegimeTag.PD_SIGMA),
        (g3, MatrixEdgeField.from_blocks(random_spd_blocks(2, 2, 3)), None, RegimeTag.PD_SIGMA),
        (one_edge, MatrixEdgeField.from_blocks(2.0 * np.ones((1, 1, 1))), None,
         RegimeTag.PD_SIGMA),
        (springs_g, springs, MatrixNodeField.from_blocks(np.stack([np.eye(2)] * 3)),
         RegimeTag.PD_Q),
        # indefinite sigma': the interior Laplacian block diag(2, -0.2) is
        # indefinite, and q' = I makes the interior definite
        (g3, MatrixEdgeField.from_blocks(np.stack([np.diag([1.0, -0.1])] * 2)),
         MatrixNodeField.from_blocks(np.stack([np.eye(2)] * 3)), RegimeTag.PD_Q),
        (one_edge, MatrixEdgeField.from_blocks(np.outer(x, x)[None]),
         MatrixNodeField.from_blocks(np.stack([np.eye(2)] * 2)), RegimeTag.PD_Q),
        (springs_g, springs, None, RegimeTag.PSD_REAL),
        (springs_g, MatrixEdgeField.from_blocks((1 + 0.5j) * springs.values), None,
         RegimeTag.PSD_COMMUTING),
        (*mixed_rank_path(), None, RegimeTag.PSD_COMMUTING),
        (g3, MatrixEdgeField.from_blocks(np.stack([np.outer(x, x) + 1j * np.outer(y, y)] * 2)),
         None, RegimeTag.UNSUPPORTED),
        (g3, MatrixEdgeField.from_blocks(np.stack([np.diag([1.0, -1.0])] * 2)), None,
         RegimeTag.UNSUPPORTED),
        (springs_g, MatrixEdgeField.from_blocks(zero_edge), None, RegimeTag.UNSUPPORTED),
        (g3, MatrixEdgeField.from_blocks(np.ones((2, 1, 1))),
         MatrixNodeField.from_blocks(np.full((3, 1, 1), -3.0)), RegimeTag.UNSUPPORTED),
        (build_graph(4, [0], [(0, 1), (2, 3)]), MatrixEdgeField.from_blocks(np.ones((2, 1, 1))),
         None, RegimeTag.UNSUPPORTED),
    ]


def test_hand_fixtures_keep_their_tags_and_the_oracles():
    for g, sigma, q, tag in hand_fixtures():
        assert classify_regime(g, sigma, q).tag is tag
        assert classify_regime_eigvalsh(g, sigma, q) is tag


def test_interior_eigvalsh_only_for_unsupported_tags(monkeypatch):
    # the PD tags are certified by Cholesky and the PSD tags need no
    # interior spectrum; only an unsupported network reports lambda_min
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for g, sigma, q, tag in hand_fixtures():
        calls.clear()
        diag = classify_regime(g, sigma, q).diagnostics
        reported = "laplacian_interior_min_eig" in diag
        assert reported == (tag is RegimeTag.UNSUPPORTED and "connected" not in diag)
        assert len(calls) == (reported and g.num_interior > 0)
        assert ("cholesky_shift" in diag) == (tag.is_pd and g.num_interior > 0)


def test_unsupported_diagnostics_carry_interior_min_eig():
    # indefinite sigma': the interior Laplacian block is diag(2, -2)
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.stack([np.diag([1.0, -1.0])] * 2))
    reg = classify_regime(g, sigma, None)
    assert reg.tag is RegimeTag.UNSUPPORTED
    assert reg.diagnostics["laplacian_interior_min_eig"] == pytest.approx(-2.0, abs=1e-14)
    # with a potential, lambda_min is still that of the Laplacian alone
    q = MatrixNodeField.from_blocks(np.stack([np.diag([-1.0, 0.5])] * 3))
    reg = classify_regime(g, sigma, q)
    assert reg.tag is RegimeTag.UNSUPPORTED
    assert reg.diagnostics["laplacian_interior_min_eig"] == pytest.approx(-2.0, abs=1e-14)


def test_pd_diagnostics_record_the_certificate():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    q = MatrixNodeField.from_blocks(np.full((3, 1, 1), 0.25))
    diag = classify_regime(g, sigma, q).diagnostics
    # criterion (i): lambda_min(Lr_II) = 2 > (PD_TOL - 0.25) / (1 - PD_TOL)
    assert diag["cholesky_shift"] == (PD_TOL - 0.25) / (1.0 - PD_TOL)
    assert "laplacian_interior_min_eig" not in diag


# ---------------------------------------------------------------------------
# PD solves and DtN
# ---------------------------------------------------------------------------


def test_solve_pd_path3_hand():
    # scalar path, unit conductances, g = (1, 0): interior value is the mean
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    u = solve_dirichlet_pd(g, sigma, None, np.array([1.0, 0.0]))
    assert np.allclose(u.values.reshape(-1), [1.0, 0.5, 0.0])


def test_solve_pd_interior_residual_zero():
    g = build_graph(6, [0, 3], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(7, 2, 17))
    gb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u = solve_dirichlet_pd(g, sigma, None, gb)
    op = assemble_laplacian(g, sigma)
    res = (op.matrix @ u.canonical(g))[2 * g.num_boundary:]
    assert np.abs(res).max() < 1e-10
    assert np.allclose(u.boundary_values(g), gb)


def test_solve_pd_linear_in_boundary_data():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(2, 2, 31))
    g1 = rng.standard_normal(4)
    g2 = rng.standard_normal(4)
    u1 = solve_dirichlet_pd(g, sigma, None, g1)
    u2 = solve_dirichlet_pd(g, sigma, None, g2)
    u12 = solve_dirichlet_pd(g, sigma, None, g1 + 2 * g2)
    assert np.abs(u12.values - u1.values - 2 * u2.values).max() < 1e-10


def test_dtn_pd_path3_series():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    lam = dtn_pd(g, sigma, None).matrix
    assert np.abs(lam - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() < 1e-12


def test_dtn_pd_single_edge():
    g = build_graph(2, [0, 1], [(0, 1)])
    sigma = MatrixEdgeField.from_blocks(2.0 * np.ones((1, 1, 1)))
    lam = dtn_pd(g, sigma, None).matrix
    assert np.allclose(lam, [[2.0, -2.0], [-2.0, 2.0]])


def test_dtn_pd_symmetric_and_matches_flux():
    g = build_graph(5, [0, 2, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, 2, 41))
    q = MatrixNodeField.from_blocks(0.1 * random_spd_blocks(5, 2, 43))
    dtn = dtn_pd(g, sigma, q)
    assert np.abs(dtn.matrix - dtn.matrix.T).max() < 1e-10
    # flux oracle: boundary rows of the operator applied to the solution
    gb = rng.standard_normal(6)
    u = solve_dirichlet_pd(g, sigma, q, gb)
    from netinv.operators import assemble_schrodinger
    op = assemble_schrodinger(g, sigma, q)
    flux = (op.matrix @ u.canonical(g))[:6]
    assert np.abs(dtn.matrix @ gb - flux).max() < 1e-10


# ---------------------------------------------------------------------------
# floppy modes and PSD solves
# ---------------------------------------------------------------------------


def test_floppy_collinear_springs():
    g, sigma = collinear_springs()
    basis = floppy_basis(g, sigma)
    assert basis.dim == 1
    z = basis.modes[:, 0]
    # boundary blocks (canonical positions of vertices 0 and 2) vanish
    assert np.abs(z[:4]).max() == 0.0
    # interior displacement is perpendicular to the spring axis
    assert abs(z[4]) < 1e-12
    assert abs(abs(z[5]) - 1.0) < 1e-12


def test_floppy_modes_zero_boundary_flux():
    g, sigma = collinear_springs()
    basis = floppy_basis(g, sigma)
    L = laplacian_matrix(g, sigma.values)
    for c in range(basis.dim):
        out = L @ basis.modes[:, c]
        assert np.abs(out).max() < 1e-10  # interior kernel and zero boundary flux


def test_floppy_dim_matches_dense_nullspace_oracle():
    # unbraced square lattice with interior nodes has mechanisms
    pos = {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (0, 1), 4: (1, 1), 5: (2, 1),
           6: (0, 2), 7: (1, 2), 8: (2, 2)}
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
             (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)]
    boundary = [0, 2, 6, 8]
    g = build_graph(9, boundary, edges)
    blocks = []
    for i, j in g.edges:
        v = np.array(pos[i], dtype=float) - np.array(pos[j], dtype=float)
        v /= np.linalg.norm(v)
        blocks.append(np.outer(v, v))
    sigma = MatrixEdgeField.from_blocks(np.stack(blocks))
    basis = floppy_basis(g, sigma)
    # oracle: dense nullspace dimension of the interior block
    nb = 2 * g.num_boundary
    L = laplacian_matrix(g, sigma.values).real
    L_II = L[nb:, nb:]
    svals = np.linalg.svd(L_II, compute_uv=False)
    oracle_dim = int((svals <= 1e-10 * svals.max()).sum())
    assert oracle_dim > 0
    assert basis.dim == oracle_dim
    # orthonormal columns
    G = basis.modes.T @ basis.modes
    assert np.abs(G - np.eye(basis.dim)).max() < 1e-12


def test_q_basis_spans_interior_range():
    g, sigma = collinear_springs()
    eig = eigen_decompose(sigma)
    Q = q_basis(g, eig)
    op = assemble_laplacian(g, sigma)
    M_II = op.matrix[op.nb:, op.nb:]
    # projector onto range(Q) reproduces the interior block columns
    P = Q @ Q.T
    assert np.abs(P @ M_II - M_II).max() < 1e-10
    assert np.abs(P @ op.IB - op.IB).max() < 1e-10


def test_q_basis_depends_only_on_eigenvectors():
    g, sigma = collinear_springs()
    eig1 = eigen_decompose(sigma)
    scaled = MatrixEdgeField.from_blocks(np.stack([7.0 * b for b in sigma.values]))
    eig2 = eigen_decompose(scaled)
    Q1 = q_basis(g, eig1)
    Q2 = q_basis(g, eig2)
    assert np.abs(Q1 - Q2).max() < 1e-12


def test_solve_psd_minimal_norm():
    g, sigma = collinear_springs()
    gb = np.array([1.0, 0.0, 0.0, 0.0])
    u = solve_dirichlet_psd(g, sigma, gb)
    flat = u.canonical(g)
    # interior component orthogonal to the floppy mode
    basis = floppy_basis(g, sigma)
    assert abs(basis.modes[:, 0] @ flat) < 1e-12
    # interior equation satisfied
    L = laplacian_matrix(g, sigma.values)
    assert np.abs((L @ flat)[4:]).max() < 1e-10


def test_psd_solution_unique_up_to_floppy():
    g, sigma = collinear_springs()
    gb = rng.standard_normal(4)
    u = solve_dirichlet_psd(g, sigma, gb).canonical(g)
    basis = floppy_basis(g, sigma)
    L = laplacian_matrix(g, sigma.values)
    # adding any floppy mode keeps the solution feasible and leaves the
    # boundary flux unchanged
    z = basis.modes @ rng.standard_normal(basis.dim)
    alt = u + z
    assert np.abs((L @ alt)[4:]).max() < 1e-9
    assert np.abs((L @ alt)[:4] - (L @ u)[:4]).max() < 1e-10


def test_dtn_psd_collinear_series():
    g, sigma = collinear_springs()
    lam = dtn_psd(g, sigma).matrix
    E = np.outer([1.0, 0.0], [1.0, 0.0])
    expected = 0.5 * np.block([[E, -E], [-E, E]])
    assert np.abs(lam - expected).max() < 1e-12


def test_dtn_psd_matches_pd_on_definite_sigma():
    g = build_graph(5, [0, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    for seed in range(10):
        sigma = MatrixEdgeField.from_blocks(random_spd_blocks(5, 2, 100 + seed, imag=0.0))
        a = dtn_pd(g, sigma, None).matrix
        b = dtn_psd(g, sigma).matrix
        assert np.abs(a - b).max() < 1e-10


def mixed_rank_path():
    """d=2 path 0-1-2-3 with boundary {0, 3}: one rank-2 edge and two rank-1
    edges along x, all with commuting complex parts; vertex 2 has a floppy
    y-mode."""
    g = build_graph(4, [0, 3], [(0, 1), (1, 2), (2, 3)])
    ex = np.diag([1.0, 0.0])
    blocks = np.stack([(2 + 0.3j) * np.eye(2), (1 + 0.2j) * ex, (1.5 + 0.1j) * ex])
    return g, MatrixEdgeField.from_blocks(blocks)


def test_dtn_psd_mixed_rank_commuting():
    g, sigma = mixed_rank_path()
    assert classify_regime(g, sigma, None).tag is RegimeTag.PSD_COMMUTING
    a = dtn_psd(g, sigma).matrix
    assert np.abs(a - dtn_pseudoinverse_oracle(g, sigma)).max() < 1e-10
    u = solve_dirichlet_psd(g, sigma, rng.standard_normal(4))
    assert abs(u.values[2, 1]) < 1e-12  # minimal norm: floppy component is zero


def test_dtn_psd_matches_pseudoinverse_oracle():
    for seed in range(10):
        local = np.random.default_rng(200 + seed)
        pos = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.2], [0.7, 0.3], [1.4, 0.5]])
        g = build_graph(5, [0, 1, 2], [(0, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 4)])
        blocks = []
        for i, j in g.edges:
            v = pos[i] - pos[j]
            v /= np.linalg.norm(v)
            blocks.append(local.uniform(0.5, 2.0) * np.outer(v, v))
        sigma = MatrixEdgeField.from_blocks(np.stack(blocks))
        a = dtn_psd(g, sigma).matrix
        b = dtn_pseudoinverse_oracle(g, sigma)
        assert np.abs(a - b).max() < 1e-10


def test_dtn_psd_invariant_under_q_remix():
    g, sigma = collinear_springs()
    eig = eigen_decompose(sigma)
    Q = q_basis(g, eig)
    op = assemble_laplacian(g, sigma)
    # random orthogonal remix of the basis columns gives the same map
    r = Q.shape[1]
    a = rng.standard_normal((r, r))
    w, v = np.linalg.eigh(a + a.T)
    Q2 = Q @ v
    M, nb = op.matrix, op.nb
    core = Q2.T @ M[nb:, nb:] @ Q2
    remixed = M[:nb, :nb] - M[:nb, nb:] @ Q2 @ np.linalg.solve(core, Q2.T @ op.IB)
    assert np.abs(remixed - dtn_psd(g, sigma).matrix).max() < 1e-10


def test_dtn_no_interior():
    g = build_graph(2, [0, 1], [(0, 1)])
    sigma = MatrixEdgeField.from_blocks(np.outer([1.0, 0.0], [1.0, 0.0])[None])
    lam = dtn_psd(g, sigma).matrix
    op = assemble_laplacian(g, sigma)
    assert np.array_equal(lam, op.matrix[:op.nb, :op.nb])


@st.composite
def networks(draw, dims=(1, 2, 3)):
    """Random connected graph with a connected interior (a random spanning
    tree that reaches the interior vertices first, plus extra edges), a
    random boundary subset, d and a seed for the block values."""
    n = draw(st.integers(2, 8))
    verts = draw(st.permutations(range(n)))
    edges = {tuple(sorted((verts[draw(st.integers(0, k - 1))], verts[k]))) for k in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    boundary = verts[n - draw(st.integers(1, n)):]
    g = build_graph(n, boundary, draw(st.permutations(sorted(edges))))
    return g, draw(st.sampled_from(dims)), draw(st.integers(0, 2**32 - 1))


def schur_pinv_oracle(M, nb):
    return M[:nb, :nb] - M[:nb, nb:] @ np.linalg.pinv(M[nb:, nb:]) @ M[nb:, :nb]


def check_state_matrix(M, nb, lam, Q=None):
    U = _dirichlet_state_matrix(M, nb, Q)
    assert np.abs((M @ U)[nb:]).max(initial=0.0) < 1e-10
    assert np.abs(M[:nb] @ U - lam).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(networks(), st.booleans())
def test_dtn_pd_matches_schur_oracle(net, with_q):
    g, d, seed = net
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(g.num_edges, d, seed))
    q = MatrixNodeField.from_blocks(random_spd_blocks(g.num_vertices, d, seed + 1)) \
        if with_q else None
    M = schrodinger_matrix(g, sigma.values, q.values) if with_q \
        else laplacian_matrix(g, sigma.values)
    nb = d * g.num_boundary
    lam = dtn_pd(g, sigma, q).matrix
    assert np.abs(lam - schur_pinv_oracle(M, nb)).max() < 1e-10
    assert np.abs(lam - lam.T).max() < 1e-10
    if not with_q:
        constants = np.kron(np.ones((g.num_boundary, 1)), np.eye(d))
        assert np.abs(lam @ constants).max() < 1e-10
    check_state_matrix(M, nb, lam)


@settings(max_examples=60, deadline=None)
@given(networks(dims=(2, 3)))
def test_dtn_psd_rank_one_matches_pseudoinverse_oracle(net):
    g, d, seed = net
    local = np.random.default_rng(seed)
    x = local.standard_normal((g.num_edges, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    blocks = np.einsum("e,ea,eb->eab", local.uniform(0.5, 2.0, g.num_edges), x, x)
    sigma = MatrixEdgeField.from_blocks(blocks)
    assert classify_regime(g, sigma, None).tag is RegimeTag.PSD_REAL
    # nearly aligned springs give a near-mechanism: the interior block then
    # has a tiny nonzero eigenvalue and no route is accurate to 1e-10
    nb = d * g.num_boundary
    w = np.abs(np.linalg.eigvalsh(laplacian_matrix(g, blocks).real[nb:, nb:]))
    assume(w.size == 0 or (w[w > 1e-10 * w.max()] > 1e-6 * w.max()).all())
    lam = dtn_psd(g, sigma).matrix
    assert np.abs(lam - dtn_pseudoinverse_oracle(g, sigma)).max() < 1e-10
    Q = q_basis(g, eigen_decompose(sigma))
    check_state_matrix(laplacian_matrix(g, blocks), nb, lam, Q)


def rank_one_blocks(count, d, local):
    x = local.standard_normal((count, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.einsum("e,ea,eb->eab", local.uniform(0.5, 2.0, count), x, x)


@settings(max_examples=200, deadline=None)
@given(networks(), st.sampled_from(["sigma", "sigma+q", "indefinite+q", "rank_one", "rank_one+q"]),
       st.floats(-1.0, 1.5))
def test_cholesky_certificate_matches_eigvalsh_oracle(net, kind, level):
    g, d, seed = net
    local = np.random.default_rng(seed)
    if kind.startswith("rank_one"):
        blocks = rank_one_blocks(g.num_edges, d, local)
    else:
        # eigenvalues of the real parts are at least 2; less 3.5 I, most
        # draws are indefinite
        shift = 3.5 if kind == "indefinite+q" else 0.0
        blocks = random_spd_blocks(g.num_edges, d, seed) - shift * np.eye(d)
    sigma = MatrixEdgeField.from_blocks(blocks)
    nb = d * g.num_boundary
    Lr_II = laplacian_matrix(g, sigma.values.real).real[nb:, nb:]
    w = np.linalg.eigvalsh(Lr_II)
    scale = np.abs(w).max(initial=0.0)
    q = None
    if kind.endswith("+q"):
        # level * |Lr_II| I plus a symmetric perturbation: the bound
        # q_I' > -lambda_min(Lr_II) falls on both sides across the draws
        noise = local.standard_normal((g.num_vertices, d, d))
        q_blocks = level * max(scale, 1.0) * np.eye(d) + 0.1 * (noise + noise.transpose(0, 2, 1))
        q = MatrixNodeField.from_blocks(q_blocks)
    if g.num_interior:
        # skip draws within rounding of a criterion's threshold
        q_values = q.values.real if q is not None else np.zeros((g.num_vertices, d, d))
        q_I = q_values[list(g.interior)]
        q_min = np.linalg.eigvalsh(q_I).min()
        sr = sigma.values.real
        thresholds = []
        if np.linalg.eigvalsh(sr).min() > PD_TOL * (1.0 + np.abs(sr).max()):
            thresholds.append((PD_TOL - q_min) / (1.0 - PD_TOL))
        if q_min > PD_TOL * (1.0 + np.abs(q_I).max()):
            thresholds.append(PD_TOL * (1.0 + abs(q_min)) - q_min)
        assume(all(abs(w[0] - t) > 1e-8 * (1.0 + scale) for t in thresholds))
    assert classify_regime(g, sigma, q).tag is classify_regime_eigvalsh(g, sigma, q)


# ---------------------------------------------------------------------------
# real operators in real arithmetic
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(networks(), st.booleans())
def test_real_pd_maps_and_states_match_complex_arithmetic(net, with_q):
    g, d, seed = net
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(g.num_edges, d, seed, imag=0.0))
    q = MatrixNodeField.from_blocks(random_spd_blocks(g.num_vertices, d, seed + 1, imag=0.0)) \
        if with_q else None
    nb = d * g.num_boundary
    M = schrodinger_matrix(g, sigma.values, q.values) if with_q \
        else laplacian_matrix(g, sigma.values)
    U = complex_state_matrix(M, nb)
    lam = dtn_pd(g, sigma, q).matrix
    assert lam.dtype == complex
    assert relative_error(lam, M[:nb] @ U, M) <= 1e-12
    if not with_q:
        states = make_spec_conductivity(g, d).states(_vec_blocks(sigma.values))
        assert states.dtype == complex
        assert relative_error(states, gradient_matrix(g, d) @ U, U) <= 1e-12


def test_real_psd_map_matches_complex_arithmetic():
    # the collinear springs and the real part of the mixed-rank path
    path, mixed = mixed_rank_path()
    for g, sigma in [collinear_springs(), (path, MatrixEdgeField.from_blocks(mixed.values.real))]:
        assert classify_regime(g, sigma, None).tag is RegimeTag.PSD_REAL
        op = assemble_laplacian(g, sigma)
        U = complex_state_matrix(op.matrix, op.nb, q_basis(g, eigen_decompose(sigma)))
        lam = dtn_psd(g, sigma).matrix
        assert lam.dtype == complex
        assert relative_error(lam, op.matrix[:op.nb] @ U, op.matrix) <= 1e-12


def test_interior_solve_is_real_exactly_for_real_operators(monkeypatch):
    seen = []
    original = np.linalg.solve

    def recorded(a, b):
        seen.append((a.dtype, b.dtype))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    g = build_graph(5, [0, 2, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])
    for imag, dtype in ((0.0, np.float64), (0.2, np.complex128)):
        seen.clear()
        sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, 2, 47, imag=imag))
        dtn_pd(g, sigma, None)
        solve_dirichlet_pd(g, sigma, None, np.ones(6))
        assert seen == [(dtype, dtype)] * 2


def test_imaginary_conductivity_is_kept():
    # edge (0, 1) joins two boundary vertices: with imag = 0 its imaginary
    # part is the only one, in M_BB alone, and M_II and M_IB are real; with
    # imag = 0.3 every edge is complex
    g = build_graph(5, [0, 1, 4], [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4)])
    for imag in (0.0, 0.3):
        blocks = random_spd_blocks(6, 2, 61, imag=imag).astype(complex)
        blocks[0] += 0.5j * np.eye(2)
        sigma = MatrixEdgeField.from_blocks(blocks)
        lam = dtn_pd(g, sigma, None).matrix
        assert np.abs(lam - dtn_pseudoinverse_oracle(g, sigma)).max() < 1e-12
        real = dtn_pd(g, MatrixEdgeField.from_blocks(blocks.real), None).matrix
        assert np.abs((lam - real).imag).max() > 0.1


# ---------------------------------------------------------------------------
# lemma-suite invariants
# ---------------------------------------------------------------------------


def test_korn_inequality_random_u():
    # for real sigma > 0: |grad u|^2 <= (1/lam_*) u^T L u
    from netinv.operators import gradient_matrix, korn_constants
    g = build_graph(6, [0, 5], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, 2, 77, imag=0.0))
    lam_min, _, lam_max = korn_constants(sigma)
    assert lam_min > 0
    L = laplacian_matrix(g, sigma.values).real
    D = gradient_matrix(g, 2)
    for _ in range(100):
        u = rng.standard_normal(12)
        energy = u @ L @ u
        grad2 = np.linalg.norm(D @ u) ** 2
        assert grad2 <= energy / lam_min + 1e-10 * (1 + energy)
        assert energy <= lam_max * grad2 + 1e-10 * (1 + grad2)


def test_modified_korn_inequality_psd():
    # for real sigma >= 0 both bounds hold with projected gradients and the
    # smallest positive eigenvalue
    from netinv.operators import korn_constants, projected_gradient_matrix
    g, sigma = collinear_springs()
    _, lam_minp, lam_max = korn_constants(sigma)
    eig = eigen_decompose(sigma)
    P = projected_gradient_matrix(g, eig)
    L = laplacian_matrix(g, sigma.values).real
    for _ in range(100):
        u = rng.standard_normal(6)
        energy = u @ L @ u
        proj2 = np.linalg.norm(P @ u) ** 2
        assert lam_minp * proj2 <= energy + 1e-10 * (1 + energy)
        assert energy <= lam_max * proj2 + 1e-10 * (1 + proj2)


def test_laplacian_nullspace_dimension_d():
    # connected graph, real sigma > 0: nullspace is exactly the constants
    g = build_graph(5, [0], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    d = 3
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, d, 55, imag=0.0))
    L = laplacian_matrix(g, sigma.values).real
    svals = np.linalg.svd(L, compute_uv=False)
    assert int((svals <= 1e-10 * svals.max()).sum()) == d
    for c in np.eye(d):
        const = np.tile(c, g.num_vertices)
        assert np.abs(L @ const).max() < 1e-12


def test_field_of_values_invertibility():
    # A + jB with A symmetric positive definite, B symmetric: the smallest
    # singular value is at least lam_min(A)
    for seed in range(20):
        local = np.random.default_rng(300 + seed)
        a = local.standard_normal((6, 6))
        A = a @ a.T + 0.5 * np.eye(6)
        b = local.standard_normal((6, 6))
        B = b + b.T
        M = A + 1j * B
        smin = np.linalg.svd(M, compute_uv=False).min()
        lam_min = np.linalg.eigvalsh(A).min()
        assert smin >= lam_min - 1e-10


def test_complex_psd_subspace_equalities():
    # commuting psd conductivity: interior nullspaces of the complex and real
    # operators agree, and the boundary coupling maps into the interior range
    g, sigma_real = collinear_springs()
    sigma = MatrixEdgeField.from_blocks((1.0 + 0.7j) * sigma_real.values)
    op = assemble_laplacian(g, sigma)
    opr = assemble_laplacian(g, sigma_real)

    def null_proj(m):
        u, s, vh = np.linalg.svd(m)
        keep = s <= 1e-10 * max(s.max(), 1e-300)
        v = vh[len(s) - keep.sum():].conj().T if keep.sum() else np.zeros((m.shape[1], 0))
        return v @ v.conj().T

    nb = op.nb
    p_complex = null_proj(op.matrix[nb:, nb:])
    p_real = null_proj(opr.matrix[nb:, nb:].real)
    assert np.abs(p_complex - p_real).max() < 1e-8
    # range inclusion via projector onto range(II)
    u, s, _ = np.linalg.svd(op.matrix[nb:, nb:])
    keep = s > 1e-10 * s.max()
    pr = u[:, keep] @ u[:, keep].conj().T
    assert np.abs(pr @ op.IB - op.IB).max() < 1e-8


def test_energy_minimization_psd():
    # real psd case: the Dirichlet solution minimizes the quadratic energy
    # over interior perturbations
    g, sigma = collinear_springs()
    gb = rng.standard_normal(4)
    u = solve_dirichlet_psd(g, sigma, gb).canonical(g)
    L = laplacian_matrix(g, sigma.values).real
    e0 = (u @ L @ u).real
    for _ in range(100):
        delta = np.zeros(6)
        delta[4:] = rng.standard_normal(2)
        ualt = u + delta
        assert e0 <= (ualt @ L @ ualt).real + 1e-12


def test_pd_regime_error_on_misuse():
    # rank-deficient conductivity makes the interior block singular
    g, sigma = collinear_springs()
    with pytest.raises(RegimeError):
        solve_dirichlet_pd(g, sigma, None, np.array([1.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# the map is the exact symmetric part of the computed Schur product
# ---------------------------------------------------------------------------


def check_symmetric_part(M, nb, lam, Q=None) -> float:
    """lam is exactly symmetric and is (F + F^T) / 2, bit for bit, of the
    Schur product F; returns the asymmetry max|F - F^T| it discards."""
    F = _schur_dtn(M, nb, Q)
    sym, residual = _symmetric_dtn(M, nb, Q)
    assert np.array_equal(lam, lam.T)
    assert lam.tobytes() == sym.tobytes() == (0.5 * (F + F.T)).tobytes()
    assert residual == np.abs(F - F.T).max(initial=0.0)
    return residual


@settings(max_examples=40, deadline=None)
@given(networks(), st.booleans())
def test_dtn_pd_is_the_symmetric_part_of_the_schur_product(net, with_q):
    g, d, seed = net
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(g.num_edges, d, seed))
    q = MatrixNodeField.from_blocks(random_spd_blocks(g.num_vertices, d, seed + 1)) \
        if with_q else None
    op = assemble_schrodinger(g, sigma, q) if with_q else assemble_laplacian(g, sigma)
    check_symmetric_part(op.matrix, op.nb, dtn_pd(g, sigma, q).matrix)


@settings(max_examples=40, deadline=None)
@given(networks(dims=(2, 3)))
def test_dtn_psd_is_the_symmetric_part_of_the_schur_product(net):
    g, d, seed = net
    local = np.random.default_rng(seed)
    x = local.standard_normal((g.num_edges, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    sigma = MatrixEdgeField.from_blocks(
        np.einsum("e,ea,eb->eab", local.uniform(0.5, 2.0, g.num_edges), x, x))
    op = assemble_laplacian(g, sigma)
    Q = q_basis(g, eigen_decompose(sigma))
    check_symmetric_part(op.matrix, op.nb, dtn_psd(g, sigma).matrix, Q)


def test_symmetry_residual_is_the_discarded_asymmetry():
    # the computed Schur product of this network is not exactly symmetric
    g = build_graph(5, [0, 2, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, 2, 41))
    q = MatrixNodeField.from_blocks(0.1 * random_spd_blocks(5, 2, 43))
    op = assemble_schrodinger(g, sigma, q)
    assert check_symmetric_part(op.matrix, op.nb, dtn_pd(g, sigma, q).matrix) > 0
