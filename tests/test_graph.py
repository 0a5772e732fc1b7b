"""Graph construction, canonical ordering, fields and tensor primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netinv.graph import (
    FieldError,
    GraphError,
    MatrixEdgeField,
    MatrixNodeField,
    TOL,
    VectorNodeField,
    _block_outer_split,
    build_graph,
)

from oracles import block_outer_split_full, meeting_pairs, unvec, vec

rng = np.random.default_rng(42)


def path3():
    # P3 with the two endpoints as boundary
    return build_graph(3, [0, 2], [(0, 1), (1, 2)])


def test_build_path3():
    g = path3()
    assert g.boundary == (0, 2)
    assert g.interior == (1,)
    assert g.edges == ((0, 1), (1, 2))
    # canonical ordering: boundary first in given order, then interior
    assert g.order == (0, 2, 1)
    assert g.position == (0, 2, 1)


def test_edge_orientation_canonical():
    g = build_graph(4, [0], [(3, 1), (2, 0)])
    assert g.edges == ((1, 3), (0, 2))


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(3, [0], [(1, 1)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        build_graph(3, [0], [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [0], [(0, 5)])
    with pytest.raises(GraphError):
        build_graph(3, [7], [(0, 1)])


def test_build_rejects_empty_boundary():
    with pytest.raises(GraphError):
        build_graph(3, [], [(0, 1)])


def test_boundary_distance():
    # canonical order: boundary first, then the interior ascending
    assert path3().boundary_distance.tolist() == [0, 0, 1]
    # the component {2, 3} has no boundary vertex
    assert build_graph(4, [0], [(0, 1), (2, 3)]).boundary_distance.tolist() == [0, 1, -1, -1]
    # interior vertices 2, 3 not joined by an interior edge both reach the boundary
    g = build_graph(4, [0, 1], [(0, 2), (1, 3), (2, 1), (3, 0)])
    assert g.boundary_distance.tolist() == [0, 0, 1, 1]
    assert g.boundary_distance is g.boundary_distance  # computed once
    with pytest.raises(ValueError):
        g.boundary_distance[0] = 1
    assert build_graph(2, [0, 1], [(0, 1)]).boundary_distance.tolist() == [0, 0]


def test_edge_positions_are_built_once_and_read_only():
    # boundary [3, 1] first, then the interior 0, 2, 4 ascending
    g = build_graph(5, [3, 1], [(4, 0), (1, 3), (2, 4), (0, 3)])
    pi, pj = g.edge_positions()
    assert pi.tolist() == [2, 1, 3, 2] and pj.tolist() == [4, 0, 4, 0]
    assert all(a is b for a, b in zip(g.edge_positions(), (pi, pj)))
    for a in (pi, pj):
        with pytest.raises(ValueError):
            a[0] = 1


def test_rebuild_is_deterministic():
    edges = [(4, 0), (1, 3), (2, 4), (0, 3)]
    a = build_graph(5, [1, 0], edges)
    b = build_graph(5, [1, 0], list(edges))
    assert a == b


def test_matrix_edge_field_symmetrizes():
    blocks = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    sym = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    f = MatrixEdgeField.from_blocks(sym + 1e-13 * rng.standard_normal((3, 2, 2)))
    assert np.abs(f.values - f.values.transpose(0, 2, 1)).max() == 0.0


def test_matrix_edge_field_rejects_asymmetric():
    blocks = np.array([[[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(FieldError):
        MatrixEdgeField.from_blocks(blocks)


def first_asymmetric_block(values):
    """The per-block loop that the array check in from_blocks replaced."""
    for idx, a in enumerate(values):
        if np.abs(a - a.T).max(initial=0.0) > TOL * np.abs(a).max(initial=0.0):
            return idx
    return None


@pytest.mark.parametrize("cls, what", [(MatrixEdgeField, "edge"), (MatrixNodeField, "node")])
def test_asymmetric_block_error_names_the_first(cls, what):
    local = np.random.default_rng(7)
    blocks = local.standard_normal((6, 3, 3))
    blocks = blocks + blocks.transpose(0, 2, 1)
    blocks[[2, 4], 0, 1] += 1e-3
    with pytest.raises(FieldError, match=rf"^{what} block 2 is not symmetric$"):
        cls.from_blocks(blocks)
    # against the loop: blocks of widely spread scales, perturbed near the
    # tolerance relative to each block's own largest entry
    for _ in range(50):
        sym = local.standard_normal((5, 2, 2)) * 10.0 ** local.uniform(-3, 3, (5, 1, 1))
        sym = sym + sym.transpose(0, 2, 1)
        scale = np.abs(sym).max(axis=(1, 2))
        sym[:, 1, 0] += TOL * scale * local.uniform(0.5, 1.5, 5)
        first = first_asymmetric_block(sym)
        if first is None:
            cls.from_blocks(sym)
        else:
            with pytest.raises(FieldError, match=rf"^{what} block {first} is not symmetric$"):
                cls.from_blocks(sym)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetric_part_near_the_float_maximum():
    big = np.finfo(float).max
    blocks = np.array([[[big, -big], [-big, big]]], dtype=complex)
    assert np.array_equal(MatrixEdgeField.from_blocks(blocks).values, blocks)
    for far in ([[1.0, big], [-big, 1.0]], [[1.0, big * (1 + 1j)], [-big * (1 + 1j), 1.0]]):
        with pytest.raises(FieldError, match="not symmetric"):
            MatrixNodeField.from_blocks(np.array([far]))


def symmetry_verdict(blocks):
    """The message from_blocks refuses ``blocks`` with, or None."""
    try:
        MatrixEdgeField.from_blocks(blocks)
    except FieldError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3), st.booleans(), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3), st.integers(-950, 1020))
def test_symmetry_verdict_is_the_same_at_every_power_of_two(d, complex_, seed, c, k):
    # three blocks with entries of modulus in [2^-8, 1] (each part), block e
    # made asymmetric by c[e] TOL times its largest entry; k keeps every
    # entry and TOL times the largest normal, so 2^k B is refused exactly
    # when B is, and by the same block
    local = np.random.default_rng(seed)
    blocks = local.choice([-1.0, 1.0], (3, d, d)) * local.uniform(2.0 ** -8, 1.0, (3, d, d))
    if complex_:
        blocks = blocks + 1j * local.choice([-1.0, 1.0], (3, d, d)) \
            * local.uniform(2.0 ** -8, 1.0, (3, d, d))
    blocks = blocks + blocks.transpose(0, 2, 1)
    blocks[:, 1, 0] += np.array(c) * TOL * np.abs(blocks).max(axis=(1, 2))
    assert symmetry_verdict(2.0 ** k * blocks) == symmetry_verdict(blocks)


@pytest.mark.parametrize("k", [-1000, -40, -30, 0, 40, 1000])
def test_asymmetric_block_is_refused_whatever_its_units(k):
    # [[1, 1], [0, 1]] is asymmetric by its largest entry, at every scale
    with pytest.raises(FieldError, match="^edge block 0 is not symmetric$"):
        MatrixEdgeField.from_blocks(2.0 ** k * np.array([[[1.0, 1.0], [0.0, 1.0]]]))


def test_matrix_node_field_shapes():
    with pytest.raises(FieldError):
        MatrixNodeField.from_blocks(np.zeros((2, 2, 3)))
    f = MatrixNodeField.from_blocks(np.zeros((4, 2, 2)))
    assert f.values.shape == (4, 2, 2)
    assert f.d == 2


def test_vector_node_field_canonical_roundtrip():
    g = build_graph(5, [3, 1], [(0, 1), (1, 2), (2, 3), (3, 4)])
    vals = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    u = VectorNodeField.from_values(vals)
    flat = u.canonical(g)
    # boundary vertices 3 then 1 occupy the first two blocks
    assert np.allclose(flat[:2], vals[3])
    assert np.allclose(flat[2:4], vals[1])
    back = VectorNodeField.from_canonical(g, flat, 2)
    assert np.allclose(back.values, vals)
    assert np.allclose(u.boundary_values(g), np.concatenate([vals[3], vals[1]]))


def test_vec_is_column_major():
    a = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vec(a), [1, 3, 2, 4])
    assert np.array_equal(unvec(vec(a), (2, 2)), a)


@st.composite
def any_graphs(draw):
    """A random graph, connected or not, with a random nonempty boundary."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    boundary = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return build_graph(n, boundary, edges)


@settings(max_examples=300, deadline=None)
@given(any_graphs())
def test_interior_levels_are_the_distances_from_the_boundary(g):
    levels = g.interior_levels
    nb = g.num_boundary
    # a partition of the interior, ascending within each level
    flat = np.concatenate(levels) if levels else np.zeros(0, dtype=int)
    assert sorted(flat.tolist()) == list(range(g.num_interior))
    assert all(lev.size and (np.diff(lev) > 0).all() for lev in levels)
    level = np.zeros(g.num_vertices, dtype=int)  # by canonical position; boundary 0
    for k, lev in enumerate(levels, 1):
        level[nb + lev] = k
    pi, pj = g.edge_positions()
    # every edge joins equal or consecutive levels
    assert (np.abs(level[pi] - level[pj]) <= 1).all()
    neighbours = [set() for _ in range(g.num_vertices)]
    for a, b in zip(pi.tolist(), pj.tolist()):
        neighbours[a].add(b)
        neighbours[b].add(a)
    # the reached vertices, by a search from the boundary
    reached, stack = set(range(nb)), list(range(nb))
    while stack:
        for w in neighbours[stack.pop()] - reached:
            reached.add(w)
            stack.append(w)
    unreached = set(range(g.num_vertices)) - reached
    # the distances are the levels, and -1 where the boundary does not reach
    assert g.boundary_distance.tolist() == [
        -1 if v in unreached else int(level[v]) for v in range(g.num_vertices)]
    # unreached vertices form the last level, alone
    if unreached:
        assert set((nb + levels[-1]).tolist()) == unreached
    reached_levels = levels[:-1] if unreached else levels
    # level 1 is exactly the interior vertices with a boundary neighbour, and
    # each vertex of a deeper reached level has a neighbour one level up
    touching = {v for v in range(nb, g.num_vertices) if min(neighbours[v], default=nb) < nb}
    assert set((nb + reached_levels[0]).tolist() if reached_levels else []) == touching
    for v in reached - set(range(nb)):
        assert level[v] == 1 or any(level[w] == level[v] - 1 for w in neighbours[v])


def test_interior_levels_of_a_perimeter_grid():
    # 7 x 7 grid, boundary the perimeter: three rings of 16, 8 and 1 vertices
    v = np.arange(49).reshape(7, 7)
    edges = [(int(a), int(b)) for x, y in ((v[:, :-1], v[:, 1:]), (v[:-1], v[1:]))
             for a, b in zip(x.ravel(), y.ravel())]
    boundary = sorted({*v[0].tolist(), *v[-1].tolist(), *v[:, 0].tolist(), *v[:, -1].tolist()})
    g = build_graph(49, boundary, edges)
    assert [len(lev) for lev in g.interior_levels] == [16, 8, 1]
    assert g.interior_levels is g.interior_levels  # computed once
    assert g.order[g.num_boundary + int(g.interior_levels[-1][0])] == 24


@st.composite
def state_matrices(draw):
    """(S, b): a (K b, n) state matrix, real or complex, C or Fortran
    ordered, whose states are zeroed (with signed zeros) on whole groups of b
    rows at random."""
    b, n, K = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    local = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = local.uniform(0.5, 2.0, (K, b, n)) * local.choice([-1.0, 1.0], (K, b, n))
    if draw(st.booleans()):
        T = T + 1j * local.uniform(-2.0, 2.0, (K, b, n))
    kept = draw(st.lists(st.booleans(), min_size=K * n, max_size=K * n))
    S = (T * np.reshape(kept, (K, 1, n))).reshape(K * b, n)
    return (np.asfortranarray(S) if draw(st.booleans()) else S), b


def disjoint_states(b, n):
    """State k nonzero on row group k only: no two states meet."""
    S = np.zeros((n * b, n))
    for k in range(n):
        S[k * b:(k + 1) * b, k] = 1.5 - k
    return S


@settings(max_examples=300, deadline=None)
@given(state_matrices())
@example((np.array([[1.5], [-0.5], [2.0]]), 3))  # n = 1
@example((np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -1.0], [0.5, 1j, 0.0], [0.0, 2.0, 0.0]]), 1))
@example((disjoint_states(2, 4), 2))  # only i = j is kept
@example((disjoint_states(1, 3), 1))
def test_block_outer_split_leaves_out_exactly_the_zero_columns(case):
    # the blocks are the full split's, bit for bit, less the columns of
    # states that never meet in a row group; those are all of its zero columns
    S, b = case
    meet = meeting_pairs(S, b)
    i, j = np.triu_indices(S.shape[1])
    for new, full, kept in zip(_block_outer_split(S, b), block_outer_split_full(S, b),
                               (meet, meet[i < j])):
        assert new.dtype == full.dtype and new.shape == (full.shape[0], kept.sum())
        assert new.tobytes() == np.ascontiguousarray(full[:, kept]).tobytes()
        if full.shape[0]:
            assert (full.any(axis=0) == kept).all()
