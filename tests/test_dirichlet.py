"""Regime classification, Dirichlet solvers, floppy modes and DtN maps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netinv.dirichlet import (
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
)
from netinv.graph import (
    MatrixEdgeField,
    MatrixNodeField,
    build_graph,
)
from netinv.operators import (
    assemble_laplacian,
    eigen_decompose,
    laplacian_matrix,
    schrodinger_matrix,
)

from oracles import dtn_pseudoinverse_oracle

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
    Q = q_basis(g, eig).matrix
    op = assemble_laplacian(g, sigma)
    # projector onto range(Q) reproduces the interior block columns
    P = Q @ Q.T
    assert np.abs(P @ op.II - op.II).max() < 1e-10
    assert np.abs(P @ op.IB - op.IB).max() < 1e-10


def test_q_basis_depends_only_on_eigenvectors():
    g, sigma = collinear_springs()
    eig1 = eigen_decompose(sigma)
    scaled = MatrixEdgeField.from_blocks(np.stack([7.0 * b for b in sigma.values]))
    eig2 = eigen_decompose(scaled)
    Q1 = q_basis(g, eig1).matrix
    Q2 = q_basis(g, eig2).matrix
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
    Q = q_basis(g, eig).matrix
    op = assemble_laplacian(g, sigma)
    # random orthogonal remix of the basis columns gives the same map
    r = Q.shape[1]
    a = rng.standard_normal((r, r))
    w, v = np.linalg.eigh(a + a.T)
    Q2 = Q @ v
    core = Q2.T @ op.II @ Q2
    remixed = op.BB - op.BI @ Q2 @ np.linalg.solve(core, Q2.T @ op.IB)
    assert np.abs(remixed - dtn_psd(g, sigma).matrix).max() < 1e-10


def test_dtn_no_interior():
    g = build_graph(2, [0, 1], [(0, 1)])
    sigma = MatrixEdgeField.from_blocks(np.outer([1.0, 0.0], [1.0, 0.0])[None])
    lam = dtn_psd(g, sigma).matrix
    op = assemble_laplacian(g, sigma)
    assert np.array_equal(lam, op.BB)


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
    Q = q_basis(g, eigen_decompose(sigma)).matrix
    check_state_matrix(laplacian_matrix(g, blocks), nb, lam, Q)


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

    p_complex = null_proj(op.II)
    p_real = null_proj(opr.II.real)
    assert np.abs(p_complex - p_real).max() < 1e-8
    # range inclusion via projector onto range(II)
    u, s, _ = np.linalg.svd(op.II)
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
