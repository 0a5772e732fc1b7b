"""Regime classification, Dirichlet solvers, floppy modes and DtN maps."""

import tracemalloc

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
    _dirichlet_state_matrix,
    _dtn,
    _interior_solve,
    _route,
    _schur_dtn,
)
from netinv.graph import (
    FieldError,
    MatrixEdgeField,
    MatrixNodeField,
    build_graph,
)
from netinv.inversion import _blocks, _vec_blocks, make_spec_conductivity
from netinv.operators import _LevelPlan, eigen_decompose, laplacian_matrix, schrodinger_matrix

from oracles import (
    classify_regime_eigvalsh,
    complex_state_matrix,
    dense_route,
    dtn_pseudoinverse_oracle,
    gradient_matrix,
    korn_constants,
    projected_gradient_matrix,
    range_basis,
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


def test_classify_unsupported_without_edge_eigendata():
    # within PD_TOL of sigma' >= 0, but edge 0 has no positive eigenvalue:
    # the decomposition's message is reported, and no route or operator is kept
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.array([[[-1e-11]], [[1.0]]]))
    reg = classify_regime(g, sigma, None)
    assert reg.tag is RegimeTag.UNSUPPORTED
    assert reg.diagnostics["commuting_failure"] == "edge 0 has zero real part"
    assert reg.route is None and reg.operator is None


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
    # the component {2, 3} has no boundary vertex
    g = build_graph(4, [0], [(0, 1), (2, 3)])
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    reg = classify_regime(g, sigma, None)
    assert reg.tag is RegimeTag.UNSUPPORTED
    assert reg.diagnostics["unreached"] in (2, 3)
    for call in (reg.dtn, lambda: reg.solve(np.ones(1))):
        with pytest.raises(RegimeError, match="unsupported"):
            call()
    # a vertex id, not a canonical position: vertex 0 is at position 1
    g = build_graph(4, [2], [(2, 3), (0, 1)])
    assert classify_regime(g, MatrixEdgeField.from_blocks(np.ones((2, 1, 1))), None) \
        .diagnostics == {"unreached": 0}


def split_path():
    """The path 0-1-2-3-4 with boundary {0, 2, 4}: its interior vertices 1
    and 3 are not joined, but each reaches the boundary."""
    g = build_graph(5, [0, 2, 4], [(0, 1), (1, 2), (2, 3), (3, 4)])
    return g, MatrixEdgeField.from_blocks(np.array([1.0, 2.0, 1.0, 3.0]).reshape(4, 1, 1))


def test_split_path_is_pd_sigma_with_the_series_map():
    g, sigma = split_path()
    regime = classify_regime(g, sigma, None)
    assert regime.tag is RegimeTag.PD_SIGMA
    series = np.array([[2 / 3, -2 / 3, 0], [-2 / 3, 17 / 12, -3 / 4], [0, -3 / 4, 3 / 4]])
    dtn = regime.dtn()
    assert np.abs(dtn.matrix - series).max() <= 1e-12
    assert dtn.matrix.tobytes() == dtn_pd(g, sigma, None).matrix.tobytes()
    u, resid = regime.solve([1.0, 0.0, 0.0])
    assert np.abs(u.values.ravel() - [1.0, 1 / 3, 0.0, 0.0, 0.0]).max() <= 1e-15
    assert resid <= 1e-15


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
        (*split_path(), None, RegimeTag.PD_SIGMA),
    ]


def test_hand_fixtures_keep_their_tags_and_the_oracles():
    for g, sigma, q, tag in hand_fixtures():
        assert classify_regime(g, sigma, q).tag is tag
        assert classify_regime_eigvalsh(g, sigma, q) is tag


def test_interior_eigvalsh_only_for_unsupported_tags(monkeypatch):
    # PD_SIGMA with q_I' >= 0 holds by the theorem, other PD tags take at
    # most one Cholesky, and the PSD tags need no interior spectrum; only an
    # unsupported network reports lambda_min
    calls, factored = [], []
    original, original_cholesky = np.linalg.eigvalsh, np.linalg.cholesky

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    def counted_cholesky(a, *args, **kwargs):
        factored.append(False)
        out = original_cholesky(a, *args, **kwargs)
        factored[-1] = True
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    for g, sigma, q, tag in hand_fixtures():
        calls.clear()
        factored.clear()
        diag = classify_regime(g, sigma, q).diagnostics
        reported = "laplacian_interior_min_eig" in diag
        assert reported == (tag is RegimeTag.UNSUPPORTED and "unreached" not in diag)
        assert len(calls) == (reported and g.num_interior > 0)
        assert len(factored) <= 1
        if tag is RegimeTag.PD_SIGMA:  # every such fixture has q_I' >= 0
            assert not factored
        assert ("cholesky_shift" in diag) == any(factored)


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
    # criterion (i) with q_I' >= 0 holds by the theorem: no certificate
    q = MatrixNodeField.from_blocks(np.full((3, 1, 1), 0.25))
    regime = classify_regime(g, sigma, q)
    assert regime.tag is RegimeTag.PD_SIGMA
    assert "cholesky_shift" not in regime.diagnostics
    # with q_I' < 0 it is certified: lambda_min(Lr_II) = 2 > (PD_TOL + 0.25) / (1 - PD_TOL)
    q = MatrixNodeField.from_blocks(np.full((3, 1, 1), -0.25))
    regime = classify_regime(g, sigma, q)
    assert regime.tag is RegimeTag.PD_SIGMA
    assert regime.diagnostics["cholesky_shift"] == (PD_TOL + 0.25) / (1.0 - PD_TOL)
    assert "laplacian_interior_min_eig" not in regime.diagnostics


# ---------------------------------------------------------------------------
# PD solves and DtN
# ---------------------------------------------------------------------------


def test_solve_pd_path3_hand():
    # scalar path, unit conductances, g = (1, 0): interior value is the mean
    g = path3()
    sigma = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    u = classify_regime(g, sigma, None).solve(np.array([1.0, 0.0]))[0]
    assert np.allclose(u.values.reshape(-1), [1.0, 0.5, 0.0])


def test_solve_pd_interior_residual_zero():
    g = build_graph(6, [0, 3], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(7, 2, 17))
    gb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u = classify_regime(g, sigma, None).solve(gb)[0]
    M = laplacian_matrix(g, sigma.values)
    res = (M @ u.canonical(g))[2 * g.num_boundary:]
    assert np.abs(res).max() < 1e-10
    assert np.allclose(u.boundary_values(g), gb)


def test_solve_pd_linear_in_boundary_data():
    g = path3()
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(2, 2, 31))
    g1 = rng.standard_normal(4)
    g2 = rng.standard_normal(4)
    u1 = classify_regime(g, sigma, None).solve(g1)[0]
    u2 = classify_regime(g, sigma, None).solve(g2)[0]
    u12 = classify_regime(g, sigma, None).solve(g1 + 2 * g2)[0]
    assert np.abs(u12.values - u1.values - 2 * u2.values).max() < 1e-10


ONES = MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))


@pytest.mark.parametrize("sigma, q, message", [
    (MatrixEdgeField.from_blocks(np.ones((3, 1, 1))), None,
     "conductivity does not match edge count"),
    (MatrixEdgeField.from_blocks(np.ones((1, 1, 1))),
     MatrixNodeField.from_blocks(np.ones((3, 1, 1))), "conductivity does not match edge count"),
    (ONES, MatrixNodeField.from_blocks(np.ones((2, 1, 1))),
     "potential does not match vertex count"),
    (ONES, MatrixNodeField.from_blocks(np.ones((3, 2, 2))), "block sizes differ"),
])
def test_fields_that_do_not_fit_the_graph_are_refused(sigma, q, message):
    g = path3()
    for call in (lambda: dtn_pd(g, sigma, q), lambda: classify_regime(g, sigma, q)):
        with pytest.raises(FieldError, match=message):
            call()


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
    u = classify_regime(g, sigma, q).solve(gb)[0]
    M = schrodinger_matrix(g, sigma.values, q.values)
    flux = (M @ u.canonical(g))[:6]
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


def test_floppy_modes_span_the_interior_nullspace():
    g, sigma = collinear_springs()
    F = _route(g, sigma.d, eigen_decompose(sigma)).floppy
    M, nb = laplacian_matrix(g, sigma.values), sigma.d * g.num_boundary
    M_II, M_IB = M[nb:, nb:], M[nb:, :nb]
    # F carries no force, the boundary rows included, and is the whole
    # nullspace of the interior block
    assert np.abs(M @ F).max() < 1e-10
    svals = np.linalg.svd(M_II, compute_uv=False)
    assert F.shape[1] == (svals <= 1e-10 * svals.max()).sum() == 1
    # the projector onto its complement reproduces the interior block columns
    Q = range_basis(F, nb)
    P = Q @ Q.T
    assert np.abs(P @ M_II - M_II).max() < 1e-10
    assert np.abs(P @ M_IB - M_IB).max() < 1e-10


def test_floppy_modes_depend_only_on_eigenvectors():
    g, sigma = collinear_springs()
    eig1 = eigen_decompose(sigma)
    scaled = MatrixEdgeField.from_blocks(np.stack([7.0 * b for b in sigma.values]))
    eig2 = eigen_decompose(scaled)
    F1 = _route(g, sigma.d, eig1).floppy
    F2 = _route(g, sigma.d, eig2).floppy
    assert np.abs(F1 - F2).max() < 1e-12


def test_solve_psd_minimal_norm():
    g, sigma = collinear_springs()
    gb = np.array([1.0, 0.0, 0.0, 0.0])
    u = classify_regime(g, sigma, None).solve(gb)[0]
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
    u = classify_regime(g, sigma, None).solve(gb)[0].canonical(g)
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
    u = classify_regime(g, sigma, None).solve(rng.standard_normal(4))[0]
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
    M, nb = laplacian_matrix(g, sigma.values), sigma.d * g.num_boundary
    Q = range_basis(_route(g, sigma.d, eigen_decompose(sigma)).floppy, nb)
    # the map through any orthonormal basis of the interior range, here a
    # random orthogonal remix of one, is the regularized map
    r = Q.shape[1]
    a = rng.standard_normal((r, r))
    w, v = np.linalg.eigh(a + a.T)
    Q2 = Q @ v
    core = Q2.T @ M[nb:, nb:] @ Q2
    remixed = M[:nb, :nb] - M[:nb, nb:] @ Q2 @ np.linalg.solve(core, Q2.T @ M[nb:, :nb])
    assert np.abs(remixed - dtn_psd(g, sigma).matrix).max() < 1e-10


def test_dtn_no_interior():
    g = build_graph(2, [0, 1], [(0, 1)])
    sigma = MatrixEdgeField.from_blocks(np.outer([1.0, 0.0], [1.0, 0.0])[None])
    lam = dtn_psd(g, sigma).matrix
    assert np.array_equal(lam, laplacian_matrix(g, sigma.values))


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


def check_state_matrix(M, route, lam, op):
    """The state matrix of ``op``, the operator M by the route's levels."""
    nb = route.nb
    U = _dirichlet_state_matrix(op, route)
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
    route = _route(g, d)
    check_state_matrix(M, route, lam, route.plan.scatter(sigma.values, q.values if with_q else None))


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
    route = _route(g, d, eigen_decompose(sigma))
    check_state_matrix(laplacian_matrix(g, blocks), route, lam, route.plan.scatter(blocks))
    # minimal norm: every state is orthogonal to the floppy modes
    U = _dirichlet_state_matrix(route.plan.scatter(blocks), route)
    assert (np.abs(route.floppy.T @ U) <= 1e-12 * np.linalg.norm(U, axis=0)).all()


def rank_one_blocks(count, d, local):
    x = local.standard_normal((count, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.einsum("e,ea,eb->eab", local.uniform(0.5, 2.0, count), x, x)


@settings(max_examples=200, deadline=None)
@given(networks(), st.sampled_from(["sigma", "sigma+q", "indefinite+q", "rank_one", "rank_one+q",
                                    "spread"]),
       st.floats(-1.0, 1.5))
def test_cholesky_certificate_matches_eigvalsh_oracle(net, kind, level):
    g, d, seed = net
    local = np.random.default_rng(seed)
    if kind.startswith("rank_one"):
        blocks = rank_one_blocks(g.num_edges, d, local)
    elif kind == "spread":
        # SPD edges whose sizes spread over 24 decades are still PD_SIGMA
        blocks = random_spd_blocks(g.num_edges, d, seed) \
            * 10.0 ** local.uniform(-12, 12, g.num_edges)[:, None, None]
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
        edge_eigs = np.linalg.eigvalsh(sigma.values.real)
        thresholds = []
        # at most one Cholesky runs: (i) per edge when q_I' is indefinite, else (ii)
        if (edge_eigs[:, 0] > PD_TOL * edge_eigs[:, -1]).all():
            if q_min < 0:
                thresholds.append((PD_TOL - q_min) / (1.0 - PD_TOL))
        elif q_min > PD_TOL * (1.0 + np.abs(q_I).max()):
            thresholds.append(PD_TOL * (1.0 + abs(q_min)) - q_min)
        assume(all(abs(w[0] - t) > 1e-8 * (1.0 + scale) for t in thresholds))
    tag = classify_regime(g, sigma, q).tag
    assert tag is classify_regime_eigvalsh(g, sigma, q)
    if kind == "spread":
        assert tag is RegimeTag.PD_SIGMA


def scaled_residual(M, route, u):
    """|(2^-e M u)_I|, 2^e the power of two just above the largest diagonal
    entry of M_II in magnitude, 2^-e M formed exactly by ldexp, by the block
    rows of the route's levels as the solve takes it: row block k is
    A_k,k-1 u_k-1 + A_kk u_k + A_k,k+1 u_k+1, each block gathered from M."""
    nb = route.nb
    e = np.frexp(np.abs(np.diag(M)[nb:]).max(initial=0.0))[1]
    scaled = np.ldexp(M.view(float), -e).view(M.dtype)
    interior = np.arange(nb, len(M))
    levels = [np.arange(nb)] + [interior[r] for r in route.rows]

    def block(k, j):
        return scaled[np.ix_(levels[k], levels[j])]

    parts = [u[rows] for rows in levels]
    last = len(levels) - 1
    rows = [block(k, k - 1) @ parts[k - 1] + block(k, k) @ parts[k]
            + (block(k, k + 1) @ parts[k + 1] if k < last else 0.0)
            for k in range(1, last + 1)]
    return np.linalg.norm(np.concatenate(rows))


def check_regime_solves_as_its_route(g, sigma, q, gb):
    """A supported regime's map is dtn_pd's (PD tags) or dtn_psd's (PSD tags),
    bit for bit; its solution has u_B = gb and reports the residual
    |(2^-e M u)_I| of the u it returns (``scaled_residual`` of the dense
    operator on the regime's route)."""
    regime = classify_regime(g, sigma, q)
    expected = dtn_pd(g, sigma, q) if regime.tag.is_pd else dtn_psd(g, sigma)
    dtn = regime.dtn()
    assert dtn.matrix.tobytes() == expected.matrix.tobytes()
    assert (dtn.provenance, dtn.asymmetry) == (expected.provenance, expected.asymmetry)
    u, resid = regime.solve(gb)
    assert u.boundary_values(g).tobytes() == np.asarray(gb, dtype=complex).tobytes()
    M = laplacian_matrix(g, sigma.values) if q is None \
        else schrodinger_matrix(g, sigma.values, q.values)
    assert resid == scaled_residual(M, regime.route, u.canonical(g))


def test_floppy_network_on_many_levels_is_scattered_once(monkeypatch):
    # the path 0-1-2-3 with boundary 0 has three levels; springs along x
    # leave the y displacements of 1, 2 and 3 floppy, so the operator is
    # scattered once, on the one-level plan, after the unit-eigenvalue interior
    plans = []
    original = _LevelPlan.scatter

    def counted(plan, *args, **kwargs):
        plans.append(plan)
        return original(plan, *args, **kwargs)

    monkeypatch.setattr(_LevelPlan, "scatter", counted)
    g = build_graph(4, [0], [(0, 1), (1, 2), (2, 3)])
    sigma = MatrixEdgeField.from_blocks(np.tile(np.diag([1.0, 0.0]), (3, 1, 1)))
    regime = classify_regime(g, sigma, None)
    assert regime.tag is RegimeTag.PSD_REAL and regime.route.floppy.shape[1] == 3
    assert len(g.interior_levels) == 3 and len(regime.route.rows) == 1
    assert plans == [regime.operator.plan] * 2
    check_regime_solves_as_its_route(g, sigma, None, np.array([0.3, -0.2]))


def test_hand_fixtures_solve_as_their_route():
    for g, sigma, q, tag in hand_fixtures():
        if tag is not RegimeTag.UNSUPPORTED:
            gb = rng.standard_normal(sigma.d * g.num_boundary)
            check_regime_solves_as_its_route(g, sigma, q, gb)


@settings(max_examples=100, deadline=None)
@given(networks(), st.sampled_from([0.0, 0.2]), st.booleans(), st.integers(-1000, 1000))
def test_pd_sigma_and_its_map_are_exact_under_powers_of_two(net, imag, with_q, k):
    # sigma'_e > 0 is tested edge by edge and q_I' >= 0 needs no certificate,
    # so 2^k (sigma, q) is PD_SIGMA for every k in range, and its map is 2^k
    # times the map, bit for bit; its solution and residual are the same bits
    g, d, seed = net
    sigma = random_spd_blocks(g.num_edges, d, seed, imag)
    q = random_spd_blocks(g.num_vertices, d, seed + 1, imag) if with_q else None
    gb = np.random.default_rng(seed).standard_normal(d * g.num_boundary)

    def scaled_map(scale):
        regime = classify_regime(g, MatrixEdgeField.from_blocks(scale * sigma),
                                 None if q is None else MatrixNodeField.from_blocks(scale * q))
        assert regime.tag is RegimeTag.PD_SIGMA
        u, resid = regime.solve(gb)
        return regime.dtn().matrix, u.values.tobytes(), resid

    unscaled, u, resid = scaled_map(1.0)
    # ldexp of the real and imaginary parts, as a float view
    expected = np.ldexp(unscaled.view(float), k).view(unscaled.dtype)
    lam, u_k, resid_k = scaled_map(2.0 ** k)
    assert lam.tobytes() == expected.tobytes()
    assert (u_k, resid_k) == (u, resid)


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
        M, nb = laplacian_matrix(g, sigma.values), sigma.d * g.num_boundary
        floppy = _route(g, sigma.d, eigen_decompose(sigma)).floppy
        U = complex_state_matrix(M, nb, range_basis(floppy, nb))
        lam = dtn_psd(g, sigma).matrix
        assert lam.dtype == complex
        assert relative_error(lam, M[:nb] @ U, M) <= 1e-12


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
        classify_regime(g, sigma, None).solve(np.ones(6))
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
    M = laplacian_matrix(g, sigma.values)
    Mr = laplacian_matrix(g, sigma_real.values)

    def null_proj(m):
        u, s, vh = np.linalg.svd(m)
        keep = s <= 1e-10 * max(s.max(), 1e-300)
        v = vh[len(s) - keep.sum():].conj().T if keep.sum() else np.zeros((m.shape[1], 0))
        return v @ v.conj().T

    nb = sigma.d * g.num_boundary
    p_complex = null_proj(M[nb:, nb:])
    p_real = null_proj(Mr[nb:, nb:].real)
    assert np.abs(p_complex - p_real).max() < 1e-8
    # range inclusion via projector onto range(II)
    u, s, _ = np.linalg.svd(M[nb:, nb:])
    keep = s > 1e-10 * s.max()
    pr = u[:, keep] @ u[:, keep].conj().T
    assert np.abs(pr @ M[nb:, :nb] - M[nb:, :nb]).max() < 1e-8


def test_energy_minimization_psd():
    # real psd case: the Dirichlet solution minimizes the quadratic energy
    # over interior perturbations
    g, sigma = collinear_springs()
    gb = rng.standard_normal(4)
    u = classify_regime(g, sigma, None).solve(gb)[0].canonical(g)
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
        dtn_pd(g, sigma, None)


# ---------------------------------------------------------------------------
# the map is the exact symmetric part of the computed Schur product
# ---------------------------------------------------------------------------


def check_symmetric_part(M, route, dtn) -> float:
    """The map is exactly symmetric and is (F + F^T) / 2, bit for bit, of the
    Schur product F of M, the operator by the route's levels; returns the
    asymmetry max|F - F^T| it discards."""
    F = _schur_dtn(M, route)
    lam = dtn.matrix
    assert np.array_equal(lam, lam.T)
    # F is real for a real M, lam is complex with +0.0 imaginary parts
    assert lam.tobytes() == _dtn(M, route).matrix.tobytes() \
        == (0.5 * (F + F.T)).astype(complex).tobytes()
    assert dtn.asymmetry == np.abs(F - F.T).max(initial=0.0)
    assert dtn.provenance == ("pd" if route.floppy is None else "psd")
    return dtn.asymmetry


@settings(max_examples=40, deadline=None)
@given(networks(), st.booleans())
def test_dtn_pd_is_the_symmetric_part_of_the_schur_product(net, with_q):
    g, d, seed = net
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(g.num_edges, d, seed))
    q = MatrixNodeField.from_blocks(random_spd_blocks(g.num_vertices, d, seed + 1)) \
        if with_q else None
    route = _route(g, d)
    check_symmetric_part(route.plan.scatter(sigma.values, q.values if with_q else None), route,
                         dtn_pd(g, sigma, q))


@settings(max_examples=40, deadline=None)
@given(networks(dims=(2, 3)))
def test_dtn_psd_is_the_symmetric_part_of_the_schur_product(net):
    g, d, seed = net
    local = np.random.default_rng(seed)
    x = local.standard_normal((g.num_edges, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    sigma = MatrixEdgeField.from_blocks(
        np.einsum("e,ea,eb->eab", local.uniform(0.5, 2.0, g.num_edges), x, x))
    route = _route(g, d, eigen_decompose(sigma))
    check_symmetric_part(route.plan.scatter(sigma.values), route, dtn_psd(g, sigma))


def test_symmetry_residual_is_the_discarded_asymmetry():
    # the computed Schur product of this network is not exactly symmetric
    g = build_graph(5, [0, 2, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, 2, 41))
    q = MatrixNodeField.from_blocks(0.1 * random_spd_blocks(5, 2, 43))
    route = _route(g, 2)
    assert check_symmetric_part(route.plan.scatter(sigma.values, q.values), route,
                                dtn_pd(g, sigma, q)) > 0


# ---------------------------------------------------------------------------
# level-by-level elimination against one dense solve on the whole interior
# ---------------------------------------------------------------------------


def grid_edges(rows, cols, braced):
    """Edges of a rows x cols grid, vertex i * cols + j, with both diagonals
    of every cell when braced; and its perimeter vertices."""
    v = np.arange(rows * cols).reshape(rows, cols)
    pairs = [(v[:, :-1], v[:, 1:]), (v[:-1], v[1:])]
    if braced:
        pairs += [(v[:-1, :-1], v[1:, 1:]), (v[:-1, 1:], v[1:, :-1])]
    edges = [(int(a), int(b)) for x, y in pairs for a, b in zip(x.ravel(), y.ravel())]
    perimeter = sorted({*v[0], *v[-1], *v[:, 0], *v[:, -1]})
    return edges, [int(b) for b in perimeter]


@st.composite
def level_graphs(draw):
    """A perimeter grid, a braced truss, a tree, a random graph (edges inside
    a level) or a random graph beside a component that no boundary vertex
    reaches (its vertices form the last level); d; whether it needs q."""
    kind = draw(st.sampled_from(["grid", "truss", "tree", "random", "detached"]))
    if kind in ("grid", "truss"):
        rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        edges, boundary = grid_edges(rows, cols, kind == "truss")
        g = build_graph(rows * cols, boundary, edges)
    elif kind == "tree":
        n = draw(st.integers(2, 12))
        edges = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
        boundary = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        g = build_graph(n, boundary, edges)
    else:
        g, _, _ = draw(networks())
        if kind == "detached":
            n, k = g.num_vertices, draw(st.integers(1, 4))
            path = [(n + i, n + i + 1) for i in range(k - 1)]
            g = build_graph(n + k, g.boundary, list(g.edges) + path)
    return g, draw(st.sampled_from((1, 2, 3))), kind == "detached"


def dense_reference(M, nb):
    """M_II^-1 M_IB and M_BB - M_BI M_II^-1 M_IB by one np.linalg.solve."""
    X = np.linalg.solve(M[nb:, nb:], M[nb:, :nb])
    return X, M[:nb, :nb] - M[:nb, nb:] @ X


@settings(max_examples=150, deadline=None)
@given(level_graphs(), st.sampled_from([0.0, 0.3]), st.booleans(), st.integers(0, 2**32 - 1))
def test_level_elimination_matches_one_dense_solve(drawn, imag, with_q, seed):
    g, d, detached = drawn
    with_q = with_q or detached  # a component without boundary needs q to be solvable
    local = np.random.default_rng(seed)
    sigma = random_spd_blocks(g.num_edges, d, seed, imag)
    q = random_spd_blocks(g.num_vertices, d, seed + 1, imag) if with_q else None
    M = schrodinger_matrix(g, sigma, q) if with_q else laplacian_matrix(g, sigma)
    route = _route(g, d)
    op = route.plan.scatter(sigma, q)
    nb = route.nb
    assume(g.num_interior)
    X, lam = dense_reference(M, nb)
    assert relative_error(_schur_dtn(op, route), lam, M) <= 1e-12
    states = np.vstack([np.eye(nb), -X])
    assert relative_error(_dirichlet_state_matrix(op, route), states, states) <= 1e-12
    # every caller passes M_IB G, and M_IB is zero outside level 1, the
    # only level of the right-hand side that the kernel takes
    outside = np.ones(g.num_interior, dtype=bool)
    outside[g.interior_levels[0]] = False
    assert not M[nb:, :nb].reshape(g.num_interior, d, nb)[outside].any()
    # boundary data G, one vector at a time and as columns
    G = local.standard_normal((nb, 3))
    if imag:
        G = G + 1j * local.standard_normal(G.shape)
    b = M[nb:, :nb] @ G
    x = np.linalg.solve(M[nb:, nb:], b)
    # x = 0 when no interior vertex has a boundary neighbour, and then so must the kernel's be
    scale = x if x.any() else np.ones(1)
    b_1 = b[route.rows[0]]
    assert relative_error(_interior_solve(op, b_1, route), x, scale) <= 1e-12
    assert relative_error(_interior_solve(op, b_1[:, 0], route), x[:, 0], scale) <= 1e-12
    if len(g.interior_levels) == 1:
        assert _schur_dtn(op, route).tobytes() == lam.tobytes()
        assert _interior_solve(op, b, route).tobytes() == x.tobytes()
        assert _interior_solve(op, b[:, 0], route).tobytes() == \
            np.linalg.solve(M[nb:, nb:], b[:, 0]).tobytes()
    if not with_q:
        # blocks that are not symmetric, as a finite-difference step makes
        # them: A_k+1,k is then not the transpose of A_k,k+1
        blocks = sigma + 0.2 * local.standard_normal(sigma.shape)
        p = _vec_blocks(blocks)
        M = laplacian_matrix(g, _blocks(p, d))
        forward = make_spec_conductivity(g, d).forward(p)
        assert relative_error(forward, dense_reference(M, nb)[1], M) <= 1e-12


def test_one_level_dtn_is_one_dense_solve_bit_for_bit():
    # every interior vertex of this graph has a boundary neighbour
    g = build_graph(5, [0, 2, 4], [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)])
    for imag in (0.0, 0.2):
        sigma = MatrixEdgeField.from_blocks(random_spd_blocks(6, 2, 47, imag=imag))
        M = laplacian_matrix(g, sigma.values)
        assert len(g.interior_levels) == 1
        sym = 0.5 * dense_reference(M, 6)[1]
        assert dtn_pd(g, sigma, None).matrix.tobytes() == (sym + sym.T).astype(complex).tobytes()


def test_singular_level_complement_is_a_regime_error():
    # the collinear springs have a floppy interior mode: the only level is singular
    g, sigma = collinear_springs()
    route = _route(g, 2)
    with pytest.raises(RegimeError):
        _schur_dtn(route.plan.scatter(sigma.values), route)
    # the path 0-1-2-3 with boundary 0 has three levels; with vertex 3 cut
    # off and its diagonal zeroed, the deepest complement S_3 = A_33 is 0
    g = build_graph(4, [0], [(0, 1), (1, 2), (2, 3)])
    route = _route(g, 1)
    op = route.plan.scatter(np.ones((3, 1, 1)))
    assert len(op.D) == 4
    op.D[3][:] = 0.0
    op.U[2][:] = op.L[2][:] = 0.0
    with pytest.raises(RegimeError):
        _interior_solve(op, np.ones(1), route)


@settings(max_examples=150, deadline=None)
@given(st.one_of(networks(), level_graphs()),
       st.sampled_from(["sigma", "sigma+q", "indefinite+q", "rank_one", "rank_one+q"]),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))
def test_every_supported_regime_solves_as_its_route(drawn, kind, imag, seed):
    # the level graphs add trees, whose interior is often split, and grids
    g, d = drawn[:2]
    local = np.random.default_rng(seed)
    if kind.startswith("rank_one"):
        # complex multiples of real rank-one blocks commute
        blocks = (1.0 + imag * 1j) * rank_one_blocks(g.num_edges, d, local)
    else:
        shift = 3.5 if kind == "indefinite+q" else 0.0
        blocks = random_spd_blocks(g.num_edges, d, seed, imag) - shift * np.eye(d)
    sigma = MatrixEdgeField.from_blocks(blocks)
    q = MatrixNodeField.from_blocks(random_spd_blocks(g.num_vertices, d, seed + 1, imag)) \
        if kind.endswith("+q") else None
    assume(classify_regime(g, sigma, q).tag is not RegimeTag.UNSUPPORTED)
    # as in the rank-one oracle test: skip near-mechanisms and near-singular
    # interiors, whose residual no route keeps within RESIDUAL_TOL
    nb = d * g.num_boundary
    M = laplacian_matrix(g, sigma.values) if q is None \
        else schrodinger_matrix(g, sigma.values, q.values)
    w = np.linalg.svd(M[nb:, nb:], compute_uv=False)
    assume(w.size == 0 or (w[w > 1e-10 * w.max()] > 1e-6 * w.max()).all())
    gb = local.standard_normal(nb) + 1j * local.standard_normal(nb)
    check_regime_solves_as_its_route(g, sigma, q, gb)


@settings(max_examples=150, deadline=None)
@given(st.one_of(networks(), level_graphs()), st.sampled_from(["sigma", "sigma+q", "rank_one"]),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))
def test_regime_map_is_the_dense_route_map(drawn, kind, imag, seed):
    # the map of a regime's operator by levels is the map of the dense
    # operator eliminated on the same levels, bit for bit, floppy modes and
    # one-level routes included
    g, d = drawn[:2]
    local = np.random.default_rng(seed)
    blocks = (1.0 + imag * 1j) * rank_one_blocks(g.num_edges, d, local) if kind == "rank_one" \
        else random_spd_blocks(g.num_edges, d, seed, imag)
    sigma = MatrixEdgeField.from_blocks(blocks)
    q = MatrixNodeField.from_blocks(random_spd_blocks(g.num_vertices, d, seed + 1, imag)) \
        if kind.endswith("+q") else None
    regime = classify_regime(g, sigma, q)
    assume(regime.tag is not RegimeTag.UNSUPPORTED)
    M = laplacian_matrix(g, sigma.values) if q is None \
        else schrodinger_matrix(g, sigma.values, q.values)
    route = regime.route
    schur = dense_route(M, route.nb, route.rows, route.floppy)[0]
    assert _schur_dtn(regime.operator, route).tobytes() == schur.tobytes()
    assert regime.dtn().matrix.tobytes() == (0.5 * schur + 0.5 * schur.T).astype(complex).tobytes()


def perimeter_grid_40(d=2):
    """A 40 x 40 perimeter grid, SPD conductivity blocks with d = 2, and the
    bytes of its dense operator, 3200^2 floats, 82 MB."""
    edges, boundary = grid_edges(40, 40, False)
    g = build_graph(1600, boundary, edges)
    sigma = MatrixEdgeField.from_blocks(random_spd_blocks(g.num_edges, d, 5, imag=0.0))
    return g, sigma, (d * g.num_vertices) ** 2 * 8


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_level_route_map_peaks_below_a_quarter_of_the_dense_operator():
    # the map is classified and solved on the level blocks alone; the level
    # plan, built once per graph, is not counted
    g, sigma, dense = perimeter_grid_40()
    _route(g, 2)
    assert traced_peak(lambda: classify_regime(g, sigma, None).dtn()) < dense / 4


@pytest.mark.xfail(strict=True, reason="the states returned are 2|E|d x d|B| complex, 31 MB, "
                                       "more than a quarter of the dense operator by themselves")
def test_conductivity_states_peak_below_a_quarter_of_the_dense_operator():
    g, sigma, dense = perimeter_grid_40()
    spec = make_spec_conductivity(g, 2)
    p = _vec_blocks(sigma.values)
    spec.states(p)  # the plans, built once per spec, are not counted
    assert traced_peak(lambda: spec.states(p)) < dense / 4
