"""Graph construction, canonical ordering, fields and tensor primitives."""

import numpy as np
import pytest

from netinv.graph import (
    FieldError,
    GraphError,
    MatrixEdgeField,
    MatrixNodeField,
    SYMMETRY_TOL,
    VectorNodeField,
    build_graph,
    is_connected,
    is_interior_connected,
    unvec,
    vec,
)

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


def test_connectivity():
    g = path3()
    assert is_connected(g)
    assert is_interior_connected(g)
    # two components
    g2 = build_graph(4, [0], [(0, 1), (2, 3)])
    assert not is_connected(g2)


def test_interior_connectivity():
    # interior nodes 2, 3 not joined by an interior edge
    g = build_graph(4, [0, 1], [(0, 2), (1, 3), (2, 1), (3, 0)])
    assert is_connected(g)
    assert not is_interior_connected(g)
    # no interior at all is vacuously connected
    g3 = build_graph(2, [0, 1], [(0, 1)])
    assert is_interior_connected(g3)


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
        if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOL * (1.0 + np.abs(a).max(initial=0.0)):
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
        scale = 1.0 + np.abs(sym).max(axis=(1, 2))
        sym[:, 1, 0] += SYMMETRY_TOL * scale * local.uniform(0.5, 1.5, 5)
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


def test_matrix_node_field_shapes():
    with pytest.raises(FieldError):
        MatrixNodeField.from_blocks(np.zeros((2, 2, 3)))
    f = MatrixNodeField.zero(4, 2)
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
