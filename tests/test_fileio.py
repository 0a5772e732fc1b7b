"""Network document parsing and matrix serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complex_field_per_entry

from netinv.fileio import (
    SchemaError,
    _complex_array,
    complex_to_json,
    load_boundary,
    load_matrix,
    load_network,
    load_values,
    parse_complex,
    save_matrix,
)

rng = np.random.default_rng(61)


def sigma_network_doc():
    return {
        "d": 1,
        "vertices": [
            {"id": 0, "boundary": True},
            {"id": 1},
            {"id": 2, "boundary": True},
        ],
        "edges": [
            {"i": 0, "j": 1, "sigma": [[1.0]]},
            {"i": 1, "j": 2, "sigma": [[1.0]]},
        ],
    }


def spring_network_doc():
    return {
        "d": 2,
        "omega": 1.5,
        "vertices": [
            {"id": 0, "boundary": True, "position": [0.0, 0.0], "mass": 2.0, "c_v": 0.5},
            {"id": 1, "position": [1.0, 0.5]},
            {"id": 2, "boundary": True, "position": [2.0, 0.0]},
        ],
        "edges": [
            {"i": 0, "j": 1, "k": 1.5, "c_e": 0.1},
            {"i": 1, "j": 2, "k": 0.7},
        ],
    }


def test_parse_complex():
    assert parse_complex(2) == 2 + 0j
    assert parse_complex(2.5) == 2.5 + 0j
    assert parse_complex([1, -2]) == 1 - 2j
    with pytest.raises(SchemaError):
        parse_complex("2")
    with pytest.raises(SchemaError):
        parse_complex([1, 2, 3])
    # booleans are not numbers, and an integer beyond float range is refused
    for bad in (True, [1.0, False], 10**400, [0, -10**400]):
        with pytest.raises(SchemaError):
            parse_complex(bad)


def test_load_sigma_network(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(sigma_network_doc()))
    model = load_network(path)
    assert model.d == 1
    assert model.graph.boundary == (0, 2)
    assert model.graph.interior == (1,)
    assert model.sigma is not None and model.network is None
    assert np.allclose(model.sigma.values, np.ones((2, 1, 1)))


def test_load_spring_network(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(spring_network_doc()))
    model = load_network(path)
    assert model.sigma is None and model.network is not None
    net = model.network
    assert net.omega == 1.5
    assert np.allclose(net.k, [1.5, 0.7])
    assert np.allclose(net.c_e, [0.1, 0.0])
    assert np.allclose(net.mass, [2.0, 1.0, 1.0])
    assert np.allclose(net.c_v, [0.5, 0.0, 0.0])
    sigma = model.conductivity()
    assert sigma.values.shape == (2, 2, 2)


def test_load_network_complex_sigma(tmp_path):
    doc = sigma_network_doc()
    doc["edges"][0]["sigma"] = [[[2.0, 0.5]]]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    model = load_network(path)
    assert model.sigma.values[0, 0, 0] == 2.0 + 0.5j


def test_load_network_with_q(tmp_path):
    doc = sigma_network_doc()
    doc["q"] = [[[1.0]], [[2.0]], [[3.0]]]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    model = load_network(path)
    assert np.allclose(model.q.values.reshape(-1), [1.0, 2.0, 3.0])


def test_load_network_schema_errors(tmp_path):
    cases = []
    doc = sigma_network_doc()
    del doc["vertices"]
    cases.append(doc)

    doc = sigma_network_doc()
    doc["vertices"][1]["id"] = 0  # duplicate
    cases.append(doc)

    doc = sigma_network_doc()
    doc["edges"][0]["k"] = 1.0  # mixed sigma and k styles
    cases.append(doc)

    doc = sigma_network_doc()
    for v in doc["vertices"]:
        v.pop("boundary", None)
    cases.append(doc)

    doc = sigma_network_doc()
    doc["edges"][0]["j"] = 9  # unknown vertex
    cases.append(doc)

    doc = spring_network_doc()
    del doc["vertices"][1]["position"]
    cases.append(doc)

    doc = sigma_network_doc()
    doc["edges"][0]["sigma"] = [[1.0, 0.0], [1.0]]  # ragged block
    cases.append(doc)

    doc = sigma_network_doc()
    doc["edges"][0]["sigma"] = [[float("nan")]]
    cases.append(doc)

    doc = spring_network_doc()
    doc["vertices"][1]["mass"] = "heavy"
    cases.append(doc)

    doc = spring_network_doc()
    doc["omega"] = float("inf")
    cases.append(doc)

    doc = sigma_network_doc()
    doc["omega"] = [1.0, 2.0]
    cases.append(doc)

    # entries that are not JSON numbers within float range; the other edge's
    # [[1.0]] makes the stacked sigma field a mix of a boolean and a float
    for edge_value in ({"sigma": [[10**400]]}, {"sigma": [[True]]}, {"sigma": [[[1.0, True]]]},
                       {"sigma": [["1.0"]]}):
        doc = sigma_network_doc()
        doc["edges"][0].update(edge_value)
        cases.append(doc)
    doc = sigma_network_doc()
    doc["d"] = True
    cases.append(doc)
    for key, value in (("k", "1e0"), ("k", True), ("k", 10**400)):
        doc = spring_network_doc()
        doc["edges"][0][key] = value
        cases.append(doc)
    for position in (["0.0", 0.0], [10**400, 0.0], [True, 0.0]):
        doc = spring_network_doc()
        doc["vertices"][0]["position"] = position
        cases.append(doc)
    doc = spring_network_doc()
    doc["omega"] = "2.0"
    cases.append(doc)

    for k, bad in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError):
            load_network(path)


@pytest.mark.parametrize("where, value, message", [
    ("id", [0], r"vertex 1 has id \[0\], not an integer"),
    ("id", {"k": 0}, "vertex 1 has id"),
    ("id", True, "vertex 1 has id True"),
    ("id", 1.0, "vertex 1 has id 1.0"),
    ("i", [0], r"edge 0 has ends \(\[0\], 1\), not integers"),
    ("j", {"k": 1}, r"edge 0 has ends \(0, \{'k': 1\}\)"),
    ("j", False, r"edge 0 has ends \(0, False\)"),
])
def test_load_network_refuses_ids_that_are_not_integers(tmp_path, where, value, message):
    doc = sigma_network_doc()
    if where == "id":
        doc["vertices"][1]["id"] = value
    else:
        doc["edges"][0][where] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_network(path)


def test_boundary_and_value_files_name_the_entry_at_fault(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"g": [[1.0, [0.5, -0.0]], [[2.0, 1.0], 3]]}))
    g = load_boundary(path, 2, 2)
    assert g.tobytes() == np.array([[1.0, complex(0.5, -0.0)], [2.0 + 1.0j, 3.0]]).tobytes()
    for bad, message in (([[1.0, 0.0], [1.0]], r"^bad boundary vector 1: expected a list of 2, "
                                                r"got a list of 1$"),
                         ([[1.0, 0.0], [1.0, True]], "^bad boundary vector 1: expected a finite"),
                         ([[1.0, 0.0]], "'g' must list 2 boundary displacement vectors")):
        path.write_text(json.dumps({"g": bad}))
        with pytest.raises(SchemaError, match=message):
            load_boundary(path, 2, 2)
    path.write_text(json.dumps([1, [2.0, -1.0], -0.0]))
    assert load_values(path).tobytes() == np.array([1.0, 2.0 - 1.0j, complex(-0.0, 0.0)]).tobytes()
    path.write_text(json.dumps([1, [2.0, "1"]]))
    with pytest.raises(SchemaError, match=r"^bad value 1 of .*doc\.json: expected a finite"):
        load_values(path)
    path.write_text(json.dumps({"p0": [1.0]}))
    with pytest.raises(SchemaError, match="JSON list of values"):
        load_values(path)


def test_load_network_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    for text in ("{not json",
                 '{"d": ' + "1" * 5000 + "}"):  # beyond the interpreter's digit limit
        path.write_text(text)
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_network(path)


def test_matrix_json_roundtrip_exact(tmp_path):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = 1.0 / 3.0 + (2.0 / 7.0) * 1j
    path = tmp_path / "m.json"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)  # bit-exact through JSON


def test_matrix_json_roundtrip_bit_exact_extremes(tmp_path):
    m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    m[0, :4] = [-0.0, 1e-300, 1e300, complex(-0.0, -0.0)]
    m[1, 0] = complex(-1e300, 1e-300)
    path = tmp_path / "m.json"
    save_matrix(m, path, extra={"provenance": "pd", "symmetry_residual": 0.0})
    text = path.read_text()
    assert "\n" not in text  # written compact
    doc = json.loads(text)
    assert doc["shape"] == [4, 5] and doc["provenance"] == "pd"
    assert doc["data"][0][2] == [1e300, 0.0]
    back = load_matrix(path)
    assert back.tobytes() == m.tobytes()  # bit-exact, signed zeros included


def test_matrix_csv_roundtrip(tmp_path):
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    back = load_matrix(path)
    assert np.abs(back - m).max() < 1e-15


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_matrix_csv_roundtrip_without_entries(tmp_path, shape):
    path = tmp_path / "m.csv"
    save_matrix(np.zeros(shape, dtype=complex), path)
    back = load_matrix(path)
    assert back.shape == shape and back.dtype == complex


def test_matrix_csv_roundtrip_keeps_signed_zeros(tmp_path):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m[0, :3] = [-0.0, complex(-0.0, -0.0), complex(1.0, -0.0)]
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    assert load_matrix(path).tobytes() == m.tobytes()  # 17 digits round-trip exactly


def test_matrix_json_extra_metadata(tmp_path):
    m = np.eye(2).astype(complex)
    path = tmp_path / "m.json"
    save_matrix(m, path, extra={"provenance": "pd"})
    doc = json.loads(path.read_text())
    assert doc["provenance"] == "pd"
    assert np.array_equal(load_matrix(path), m)


def test_matrix_schema_errors(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"data": [[1.0]]}))
    with pytest.raises(SchemaError):
        load_matrix(path)
    path.write_text(json.dumps({"shape": [2, 2], "data": [[1.0]]}))
    with pytest.raises(SchemaError):
        load_matrix(path)
    path.write_text(json.dumps({"shape": [2, 2], "data": [[1.0, 0.0], [1.0]]}))  # ragged
    with pytest.raises(SchemaError):
        load_matrix(path)
    path.write_text(json.dumps({"shape": [2], "data": [[1.0]]}))
    with pytest.raises(SchemaError):
        load_matrix(path)
    for bad in ({"shape": [1, 1], "data": [[10**400]]},
                {"shape": [1, 2], "data": [[True, 1.0]]},
                {"shape": [1, 1], "data": [[[1.0, "0"]]]},
                {"shape": [1.0, 1], "data": [[1.0]]},
                {"shape": [-1, 1], "data": []},
                {"shape": [0, 1], "data": [[]]},
                5):
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError):
            load_matrix(path)


def test_matrix_csv_schema_errors(tmp_path):
    path = tmp_path / "m.csv"
    for text in ("rows,1,cols,1\n1.0,oops\n",      # non-numeric cell
                 "rows,2,cols,1\n1.0,0.0\n",       # missing row
                 "rows,1,cols,2\n1.0,0.0,2.0\n",   # short row
                 "rows,1,cols,1\nnan,0.0\n",       # non-finite entry
                 "rows,x,cols,1\n1.0,0.0\n",       # bad header
                 # a header that disagrees with its data
                 "rows,-1,cols,1\n1.0,0.0\n2.0,0.0\n",
                 "rows,1,cols,-1\n1.0,0.0\n",
                 "rows,0,cols,-1\n",
                 "rows,2,cols,1\n1.0,0.0,2.0,0.0\n"):
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_matrix(path)


def test_parse_complex_rejects_non_finite():
    for value in (float("nan"), float("inf"), [1.0, float("-inf")]):
        with pytest.raises(SchemaError, match="finite"):
            parse_complex(value)


def test_complex_to_json():
    assert complex_to_json(1.5 - 2j) == [1.5, -2.0]


# entries of every form a document can hold: JSON numbers (signed zeros,
# subnormals, the float extremes, integers past 2**53 and 2**64), [re, im]
# pairs, and entries the schema refuses
NUMBERS = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**70, 2**70))
BAD_ENTRIES = st.one_of(
    st.integers(2**1024, 10**400), st.integers(-10**400, -2**1024), st.booleans(),
    st.text(max_size=3), st.none(), st.sampled_from([float("nan"), float("inf")]),
    st.lists(NUMBERS, max_size=3).filter(lambda xs: len(xs) != 2))


@st.composite
def complex_fields(draw):
    """A field of one to three axes as JSON values (a --p0 list; boundary
    vectors or matrix data; a stack of blocks), all plain numbers or all
    [re, im] pairs, with up to three entries replaced by a pair, a plain
    number or a refused entry, and maybe one inner list replaced by a number
    or by a list of numbers of any length. Every axis after the first is
    nonzero."""
    ndim = draw(st.integers(1, 3))
    shape = (draw(st.integers(0, 3)), *(draw(st.integers(1, 3)) for _ in range(ndim - 1)))
    entry = st.lists(NUMBERS, min_size=2, max_size=2) if draw(st.booleans()) else NUMBERS

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(entry)

    def replace(depth, value):
        *path, last = (draw(st.integers(0, n - 1)) for n in shape[:depth])
        node = values
        for i in path:
            node = node[i]
        node[last] = value

    values = build(shape)
    if shape[0]:
        for _ in range(draw(st.integers(0, 3))):
            replace(ndim, draw(st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2),
                                         BAD_ENTRIES)))
        if ndim > 1 and draw(st.booleans()):
            replace(draw(st.integers(1, ndim - 1)),
                    draw(st.one_of(NUMBERS, st.lists(NUMBERS, max_size=4))))
    return values, shape


def outcome(read):
    try:
        a = read()
    except SchemaError as exc:
        return "SchemaError", str(exc)
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=300, deadline=None)
@given(complex_fields())
def test_array_reader_matches_the_per_entry_reference(field):
    # bit-identical arrays, signed zeros included, or the same SchemaError
    values, shape = field

    def name(k):
        return f"block {k}"

    assert outcome(lambda: _complex_array(values, shape, name)) == \
        outcome(lambda: complex_field_per_entry(values, shape, name))


# floats the matrix writer must spell as json.dumps does: signed zeros,
# subnormals, the float extremes, NaN and the infinities, and any other
WRITER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308,
                     float("nan"), float("inf"), -float("inf")]),
    st.floats())
EXTRA = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["provenance", "symmetry_residual", "note", "shape", "data"]),
    st.one_of(st.floats(), st.text(max_size=3), st.lists(st.integers(), max_size=2))))


@st.composite
def written_matrices(draw):
    """An r x c complex matrix, 0 x c and r x 0 included, whose parts come
    from a few drawn floats, so that values repeat; optionally with +0.0
    imaginary parts, which the writer takes down its real path, or with
    zeros of either sign, which it must not; or a float64 matrix; and
    optionally exactly symmetric."""
    r = draw(st.integers(0, 5))
    c = r if draw(st.booleans()) else draw(st.integers(0, 5))
    pool = draw(st.lists(WRITER_FLOATS, min_size=1, max_size=5))
    m = np.empty((r, c), dtype=complex)
    # assigned part by part, so that a signed zero keeps its sign
    m.real = np.reshape([draw(st.sampled_from(pool)) for _ in range(r * c)], (r, c))
    imag = draw(st.sampled_from([[0.0], [0.0, -0.0], pool]))
    m.imag = np.reshape([draw(st.sampled_from(imag)) for _ in range(r * c)], (r, c))
    if r == c and draw(st.booleans()):
        i, j = np.tril_indices(r, -1)
        m[i, j] = m[j, i]
    return m.real.copy() if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None)
@given(written_matrices(), EXTRA)
def test_matrix_json_text_is_what_json_dumps_writes(tmp_path_factory, m, extra):
    # a float64 matrix is written as the complex one with +0.0 imaginary parts
    path = tmp_path_factory.mktemp("w") / "m.json"
    save_matrix(m, path, extra=extra)
    mc = m.astype(complex)
    doc = {"shape": list(m.shape), "data": np.stack([mc.real, mc.imag], -1).tolist()}
    if extra:
        doc.update(extra)
    assert path.read_text() == json.dumps(doc, check_circular=False)
    if np.isfinite(m).all() and not {"shape", "data"} & set(extra or ()):
        assert load_matrix(path).tobytes() == mc.tobytes()


def test_negative_zero_imaginary_parts_keep_their_sign(tmp_path):
    # a -0.0 imaginary part is never written as real: it stays -0.0
    m = np.empty((2, 2), dtype=complex)
    m.real = [[1.5, -0.0], [0.0, 2.0]]
    m.imag = [[-0.0, 0.0], [-0.0, -0.0]]
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert path.read_text() == ('{"shape": [2, 2], "data": [[[1.5, -0.0], [-0.0, 0.0]], '
                                '[[0.0, -0.0], [2.0, -0.0]]]}')
    assert load_matrix(path).tobytes() == m.tobytes()
    save_matrix(m.real, path)
    assert load_matrix(path).tobytes() == m.real.astype(complex).tobytes()
