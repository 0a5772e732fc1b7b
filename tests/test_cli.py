"""End-to-end command line behavior, including the exit-code contract."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from netinv import cli, dirichlet, operators
from netinv.cli import main
from netinv.fileio import load_matrix

from oracles import dtn_pseudoinverse_oracle, gradient_matrix, schur_complement

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_NONCONVERGED = 3
EXIT_UNSUPPORTED = 4


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def p3_doc(sigma=(1.0, 1.0)):
    return {
        "d": 1,
        "vertices": [
            {"id": 0, "boundary": True},
            {"id": 1},
            {"id": 2, "boundary": True},
        ],
        "edges": [
            {"i": 0, "j": 1, "sigma": [[sigma[0]]]},
            {"i": 1, "j": 2, "sigma": [[sigma[1]]]},
        ],
    }


def single_edge_doc(sigma=2.0):
    return {
        "d": 1,
        "vertices": [{"id": 0, "boundary": True}, {"id": 1, "boundary": True}],
        "edges": [{"i": 0, "j": 1, "sigma": [[sigma]]}],
    }


def collinear_springs_doc():
    return {
        "d": 2,
        "vertices": [
            {"id": 0, "boundary": True, "position": [0.0, 0.0]},
            {"id": 1, "position": [1.0, 0.0]},
            {"id": 2, "boundary": True, "position": [2.0, 0.0]},
        ],
        "edges": [{"i": 0, "j": 1, "k": 1.0}, {"i": 1, "j": 2, "k": 1.0}],
    }


def mixed_rank_doc():
    # one rank-2 and two rank-1 edges with commuting complex parts: PSD_COMMUTING
    return {
        "d": 2,
        "vertices": [{"id": 0, "boundary": True}, {"id": 1}, {"id": 2},
                     {"id": 3, "boundary": True}],
        "edges": [
            {"i": 0, "j": 1, "sigma": [[[2.0, 0.3], 0.0], [0.0, [2.0, 0.3]]]},
            {"i": 1, "j": 2, "sigma": [[[1.0, 0.2], 0.0], [0.0, 0.0]]},
            {"i": 2, "j": 3, "sigma": [[[1.5, 0.1], 0.0], [0.0, 0.0]]},
        ],
    }


def braced_truss_doc(k=None):
    pos = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.8, 0.9], [1.3, 1.1]]
    edges = [(0, 4), (1, 4), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5), (0, 5), (2, 4)]
    if k is None:
        k = [1.0] * 9
    return {
        "d": 2,
        "vertices": [
            {"id": v, "boundary": v < 4, "position": pos[v]} for v in range(6)
        ],
        "edges": [{"i": i, "j": j, "k": kk} for (i, j), kk in zip(edges, k)],
    }


def test_forward_p3(tmp_path, capsys):
    net = write(tmp_path, "net.json", p3_doc())
    bc = write(tmp_path, "bc.json", {"g": [[1.0], [0.0]]})
    out = tmp_path / "sol.json"
    assert main(["forward", net, bc, "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    u = [row[0][0] for row in doc["u"]]
    assert np.allclose(u, [1.0, 0.5, 0.0])
    assert doc["regime"] == "pd_sigma"
    assert doc["residual"] < 1e-12


def test_forward_reads_a_boundary_file_that_mixes_numbers_and_pairs(tmp_path):
    # each entry is a number or an [re, im] pair, and one file may mix them
    net = write(tmp_path, "net.json", collinear_springs_doc())
    texts = []
    for name, g in (("plain", [[0.1, 0.0], [0.0, -0.0]]),
                    ("mixed", [[[0.1, 0.0], 0.0], [0.0, [-0.0, 0.0]]])):
        out = tmp_path / f"{name}.json"
        assert main(["forward", net, write(tmp_path, f"{name}_bc.json", {"g": g}),
                     "-o", str(out)]) == EXIT_OK
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def command_counts(tmp_path, monkeypatch, doc, command, *args):
    """Operator assemblies (scatters of a level plan; the dense assembly is
    never called) and interior (2-D) eigh calls of one run of a command on
    the network ``doc``."""
    calls = []
    eighs = []
    original = operators._LevelPlan.scatter
    original_eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            eighs.append(1)
        return original_eigh(a, *args, **kwargs)

    def dense(*args, **kwargs):
        raise AssertionError("a command assembled a dense operator")

    monkeypatch.setattr(operators._LevelPlan, "scatter", counted)
    monkeypatch.setattr(operators, "laplacian_matrix", dense)
    monkeypatch.setattr(operators, "schrodinger_matrix", dense)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    net = write(tmp_path, "net.json", doc)
    assert main([command, net, *args]) == EXIT_OK
    return len(calls), len(eighs)


def forward_counts(tmp_path, monkeypatch, doc, g):
    bc = write(tmp_path, "bc.json", {"g": g})
    return command_counts(tmp_path, monkeypatch, doc, "forward", bc,
                          "-o", str(tmp_path / "sol.json"))


def test_forward_assembles_once(tmp_path, monkeypatch):
    # one operator for the regime, the solve and its residual
    assert forward_counts(tmp_path, monkeypatch, p3_doc(), [[1.0], [0.0]]) == (1, 0)


def test_forward_writes_the_residual_the_solve_checked(tmp_path, monkeypatch):
    solved = []
    original = dirichlet.DirichletRegime.solve

    def recorded(*args, **kwargs):
        solved.append(original(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(dirichlet.DirichletRegime, "solve", recorded)
    net = write(tmp_path, "net.json", collinear_springs_doc())
    bc = write(tmp_path, "bc.json", {"g": [[0.1, 0.0], [0.0, 0.2]]})
    out = tmp_path / "sol.json"
    assert main(["forward", net, bc, "-o", str(out)]) == EXIT_OK
    (_, resid), = solved
    assert json.loads(out.read_text())["residual"] == resid


def test_forward_psd_assembles_twice(tmp_path, monkeypatch):
    # the operator, and the unit-eigenvalue interior, whose one spectrum
    # gives the floppy modes and their dimension
    counts = forward_counts(tmp_path, monkeypatch, collinear_springs_doc(),
                            [[0.1, 0.0], [0.0, 0.0]])
    assert counts == (2, 1)


@pytest.mark.parametrize("doc, counts", [
    # one operator for the regime certificate and the Schur complement
    (p3_doc(), (1, 0)),
    ({**p3_doc(), "q": [[[0.0]], [[0.5]], [[0.0]]]}, (1, 0)),
    # plus the interior spectrum that gives the floppy modes
    (collinear_springs_doc(), (2, 1)),
])
def test_dtn_assembles_once_per_operator(tmp_path, monkeypatch, doc, counts):
    out = str(tmp_path / "dtn.json")
    assert command_counts(tmp_path, monkeypatch, doc, "dtn", "-o", out) == counts


@pytest.mark.parametrize("command", ["dtn", "forward", "floppy"])
def test_psd_commuting_decomposes_once(tmp_path, monkeypatch, command):
    # the classification's eigendata gives the floppy modes too
    calls = []
    original = operators.eigen_decompose

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (operators, dirichlet, cli):
        monkeypatch.setattr(module, "eigen_decompose", counted)
    net = write(tmp_path, "net.json", mixed_rank_doc())
    args = [] if command == "floppy" else ["-o", str(tmp_path / "out.json")]
    if command == "forward":
        args = [write(tmp_path, "bc.json", {"g": [[1.0, 0.0], [0.0, 0.0]]}), *args]
    assert main([command, net, *args]) == EXIT_OK
    assert len(calls) == 1


def test_main_builds_its_parser_once_and_looks_up_the_command(monkeypatch):
    assert cli.make_parser() is cli.make_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_dtn", lambda args: seen.append(args.network) or 7)
    assert main(["dtn", "net.json", "-o", "out.json"]) == 7
    assert seen == ["net.json"]


def test_floppy_assembles_twice(tmp_path, monkeypatch):
    # the operator serves the regime and the boundary-flux check; the
    # unit-eigenvalue interior spectrum gives the modes
    assert command_counts(tmp_path, monkeypatch, collinear_springs_doc(), "floppy") == (2, 1)


def spread_springs_doc():
    # floppy mechanism on a braced frame whose spring constants span 12
    # decades; the interior vertex 6 hangs on one soft spring
    doc = braced_truss_doc(np.logspace(-6, 6, 9).tolist())
    doc["vertices"].append({"id": 6, "position": [3.0, 1.0]})
    doc["edges"].append({"i": 5, "j": 6, "k": 1e-6})
    return doc


@pytest.mark.parametrize("doc, g", [
    (mixed_rank_doc(), [[0.1, 0.0], [0.0, 0.2]]),
    # the soft spring's stretch is not a mechanism, only the swing about it
    (spread_springs_doc(), [[0.1, 0.0], [0.0, 0.0], [0.0, 0.1], [0.0, 0.0]]),
])
def test_forward_and_floppy_report_the_same_dimension(tmp_path, capsys, doc, g):
    net = write(tmp_path, "net.json", doc)
    bc = write(tmp_path, "bc.json", {"g": g})
    out = tmp_path / "sol.json"
    assert main(["forward", net, bc, "-o", str(out)]) == EXIT_OK
    dim = json.loads(out.read_text())["floppy_dim"]
    assert dim == 1
    capsys.readouterr()
    assert main(["floppy", net]) == EXIT_OK
    assert f"floppy dimension: {dim}\n" in capsys.readouterr().out


def test_forward_psd_reports_floppy_dim(tmp_path):
    net = write(tmp_path, "net.json", collinear_springs_doc())
    bc = write(tmp_path, "bc.json", {"g": [[0.1, 0.0], [0.0, 0.0]]})
    out = tmp_path / "sol.json"
    assert main(["forward", net, bc, "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["regime"] == "psd_real"
    assert doc["floppy_dim"] == 1


def braced_grid_doc(n):
    """An n x n grid of unit springs with both diagonals of every cell and the
    perimeter as boundary: rigid, so rank-one blocks with no floppy mode."""
    v = np.arange(n * n).reshape(n, n)
    pairs = [(v[:, :-1], v[:, 1:]), (v[:-1], v[1:]), (v[:-1, :-1], v[1:, 1:]),
             (v[:-1, 1:], v[1:, :-1])]
    edges = [(int(a), int(b)) for x, y in pairs for a, b in zip(x.ravel(), y.ravel())]
    perimeter = {*v[0], *v[-1], *v[:, 0], *v[:, -1]}
    return {
        "d": 2,
        "vertices": [{"id": i, "boundary": i in perimeter, "position": [i % n, i // n]}
                     for i in range(n * n)],
        "edges": [{"i": i, "j": j, "k": 1.0} for i, j in edges],
    }


def test_rigid_spring_network_takes_the_interior_levels(tmp_path):
    import netinv as ni
    net = write(tmp_path, "net.json", braced_grid_doc(5))
    model = ni.load_network(net)
    regime = dirichlet.classify_regime(model.graph, model.conductivity(), None)
    assert regime.tag is ni.RegimeTag.PSD_REAL
    # the 3 x 3 interior is a ring and its centre: two levels, no floppy mode
    assert len(regime.route.rows) == 2 and regime.route.floppy.shape == (50, 0)
    dtn = regime.dtn()
    assert dtn.provenance == "psd"
    assert np.abs(dtn.matrix - dtn_pseudoinverse_oracle(model.graph, model.conductivity())).max() \
        < 1e-12
    bc = write(tmp_path, "bc.json", {"g": [[0.1, 0.0]] * 16})
    out = tmp_path / "sol.json"
    assert main(["forward", net, bc, "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert (doc["regime"], doc["floppy_dim"]) == ("psd_real", 0)


def scaled_kite_doc(c):
    # the path 0-1-2-3 with the chord (0, 2), every conductance times c
    sigma = [c * x for x in (1.0, 0.7, 1.3, 0.37)]
    return {
        "d": 1,
        "vertices": [{"id": 0, "boundary": True}, {"id": 1}, {"id": 2},
                     {"id": 3, "boundary": True}],
        "edges": [{"i": i, "j": j, "sigma": [[x]]}
                  for (i, j), x in zip([(0, 1), (1, 2), (2, 3), (0, 2)], sigma)],
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc, g", [
    *((scaled_kite_doc(c), [[0.3], [1.1]]) for c in (1.0, 1e6, 1e8, 1e10, 1e12, 1e300)),
    # u = (1, 1, 1) exactly, though M u overflows
    (p3_doc(([1.0, 1.7976931348623151e308], 1.0)), [[1.0], [1.0]]),
], ids=["1", "1e6", "1e8", "1e10", "1e12", "1e300", "imag_near_max"])
def test_forward_residual_does_not_depend_on_the_scale_of_sigma(tmp_path, doc, g):
    # the residual is taken of M divided by the power of two of its largest
    # interior diagonal entry, so scaling sigma cannot push it past the tolerance
    out = tmp_path / "sol.json"
    assert main(["forward", write(tmp_path, "net.json", doc),
                 write(tmp_path, "bc.json", {"g": g}), "-o", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["residual"] <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc, problem", [
    (p3_doc(([1.0, 1e308], [1.0, -1e308])), "conductivity"),
    (p3_doc(([1.0, 1e308], [1.0, -1e308])), "schrodinger"),
    # the residual norm 2 * 8.988e307 is beyond float range
    (single_edge_doc(8.98846567431158e307), "conductivity"),
])
def test_invert_near_the_float_maximum_exits_1(tmp_path, capsys, doc, problem):
    target = write(tmp_path, "target.json", {"shape": [2, 2], "data": [[1, -1], [-1, 1]]})
    out = tmp_path / "inv.json"
    assert main(["invert", write(tmp_path, "net.json", doc), target, "--problem", problem,
                 "-o", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {problem}: ")
    assert not out.exists()


def test_forward_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    bc = write(tmp_path, "bc.json", {"g": [[1.0], [0.0]]})
    assert main(["forward", str(bad), bc]) == EXIT_USAGE


def test_forward_unsupported_regime_exits_4(tmp_path, capsys):
    bc = write(tmp_path, "bc.json", {"g": [[1.0], [0.0]]})
    out = str(tmp_path / "dtn.json")
    # an indefinite conductivity; and sigma' >= 0 within PD_TOL where edge 0
    # has no positive eigenvalue to decompose, so that no route solves it
    for sigma0 in (-1.0, -1e-11):
        net = write(tmp_path, "net.json", p3_doc((sigma0, 1.0)))
        # every command that classifies the regime: forward, dtn and floppy
        for argv in (["forward", net, bc], ["dtn", net, "-o", out], ["floppy", net]):
            assert main(argv) == EXIT_UNSUPPORTED
            assert capsys.readouterr().err.startswith("unsupported regime: ")


def test_split_path_is_solved(tmp_path):
    # the path 0-1-2-3-4 with boundary {0, 2, 4}: its interior {1, 3} has no
    # interior edge, but every vertex reaches the boundary
    net = write(tmp_path, "net.json", {
        "d": 1,
        "vertices": [{"id": v, "boundary": v % 2 == 0} for v in range(5)],
        "edges": [{"i": v, "j": v + 1, "sigma": [[s]]} for v, s in enumerate((1.0, 2.0, 1.0, 3.0))],
    })
    out = tmp_path / "dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    series = np.array([[2 / 3, -2 / 3, 0], [-2 / 3, 17 / 12, -3 / 4], [0, -3 / 4, 3 / 4]])
    assert np.abs(load_matrix(out) - series).max() <= 1e-12
    bc = write(tmp_path, "bc.json", {"g": [[1.0], [0.0], [0.0]]})
    sol = tmp_path / "sol.json"
    assert main(["forward", net, bc, "-o", str(sol)]) == EXIT_OK
    doc = json.loads(sol.read_text())
    assert doc["regime"] == "pd_sigma"
    assert np.abs(np.array(doc["u"])[:, 0, 0] - [1.0, 1 / 3, 0.0, 0.0, 0.0]).max() <= 1e-15


def test_dtn_single_edge(tmp_path):
    net = write(tmp_path, "net.json", single_edge_doc(2.0))
    out = tmp_path / "dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    m = load_matrix(out)
    assert np.allclose(m, [[2.0, -2.0], [-2.0, 2.0]])
    assert json.loads(out.read_text())["provenance"] == "pd"


def test_dtn_collinear_springs(tmp_path):
    net = write(tmp_path, "net.json", collinear_springs_doc())
    out = tmp_path / "dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    m = load_matrix(out)
    E = np.outer([1.0, 0.0], [1.0, 0.0])
    assert np.abs(m - 0.5 * np.block([[E, -E], [-E, E]])).max() < 1e-12
    assert json.loads(out.read_text())["provenance"] == "psd"


def test_dtn_roundtrip_bit_exact(tmp_path):
    net = write(tmp_path, "net.json", p3_doc((1.3, 0.7)))
    out = tmp_path / "dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    import netinv as ni
    model = ni.load_network(net)
    lam = ni.dtn_pd(model.graph, model.sigma, model.q).matrix
    assert np.array_equal(load_matrix(out), lam)


@pytest.mark.parametrize("make_doc", [braced_truss_doc, mixed_rank_doc])
def test_dtn_file_is_the_symmetric_part_of_the_schur_product(tmp_path, make_doc):
    # networks whose computed Schur product is not exactly symmetric
    net = write(tmp_path, "net.json", make_doc())
    out = tmp_path / "dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    import netinv as ni
    model = ni.load_network(net)
    regime = dirichlet.classify_regime(model.graph, model.conductivity(), model.q)
    F = dirichlet._schur_dtn(regime.operator, regime.route)
    m = load_matrix(out)
    assert np.array_equal(m, m.T)
    # F is real for the real truss; the file's imaginary parts are then +0.0
    assert m.tobytes() == (0.5 * (F + F.T)).astype(complex).tobytes()
    residual = json.loads(out.read_text())["symmetry_residual"]
    assert residual == np.abs(F - F.T).max() > 0


def test_dtn_of_a_path_scaled_by_a_power_of_two_is_scaled_exactly(tmp_path):
    # positive definiteness is decided edge by edge, so it does not depend on
    # the scale, and the map of sigma = 2^-40 and 2^-39 is exactly 2^-40
    # times that of sigma = 1 and 2
    data = []
    for name, sigma in (("big", (1.0, 2.0)), ("small", (2.0 ** -40, 2.0 ** -39))):
        out = tmp_path / f"{name}_dtn.json"
        assert main(["dtn", write(tmp_path, f"{name}.json", p3_doc(sigma)), "-o", str(out)]) == EXIT_OK
        data.append(json.loads(out.read_text())["data"])
    big, small = data
    assert small == [[[math.ldexp(x, -40) for x in z] for z in row] for row in big]


def grid_doc():
    """A 7 x 7 grid, the perimeter its boundary, with seeded SPD 2 x 2 blocks:
    its interior has three levels."""
    rng = np.random.default_rng(7)
    ids = np.arange(49).reshape(7, 7)
    edges = [(int(a), int(b)) for x, y in ((ids[:, :-1], ids[:, 1:]), (ids[:-1], ids[1:]))
             for a, b in zip(x.ravel(), y.ravel())]
    a = rng.standard_normal((len(edges), 2, 2))
    blocks = a @ a.transpose(0, 2, 1) + 2 * np.eye(2)
    ring = {*ids[0].tolist(), *ids[-1].tolist(), *ids[:, 0].tolist(), *ids[:, -1].tolist()}
    return {"d": 2, "vertices": [{"id": v, "boundary": v in ring} for v in range(49)],
            "edges": [{"i": i, "j": j, "sigma": b.tolist()} for (i, j), b in zip(edges, blocks)]}


def grid_reference(path):
    """The grid's dense operator D^T diag(sigma) D, its edge gradient D and nb."""
    import netinv as ni
    model = ni.load_network(path)
    g, d = model.graph, model.d
    D = gradient_matrix(g, d)
    D3 = D.reshape(g.num_edges, d, -1)
    M = np.einsum("eai,eab,ebj->ij", D3, model.sigma.values.real, D3)
    return M, D, d * g.num_boundary


def test_dtn_of_a_grid_by_levels_is_one_dense_solve(tmp_path):
    # the interior is eliminated level by level; the map must equal one dense
    # solve on the whole interior to 1e-12 relative and be exactly symmetric
    net = write(tmp_path, "grid.json", grid_doc())
    out = tmp_path / "grid_dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    M, _, nb = grid_reference(net)
    ref = schur_complement(M, nb)
    m = np.array(json.loads(out.read_text())["data"])
    assert (m[..., 1] == 0).all()
    m = m[..., 0]
    assert (m == m.T).all(), "not exactly symmetric"
    assert np.abs(m - ref).max() / np.abs(ref).max() <= 1e-12


def test_uniqueness_of_a_grid_is_that_of_the_full_product_matrix(tmp_path, capsys):
    # a corner has no interior neighbour, so its states never meet most
    # others and W's columns for those pairs are left out, being zero. The
    # printed extremes must be those of a dense SVD of the full W, and the
    # exit code the verdict's
    net = write(tmp_path, "grid.json", grid_doc())
    rc = main(["uniqueness", net, "--problem", "conductivity"])
    M, D, nb = grid_reference(net)
    U = np.vstack([np.eye(nb), -np.linalg.solve(M[nb:, nb:], M[nb:, :nb])])
    # the edge gradients of the states, and per edge vec(u v^T) for every pair
    G = (D @ U).reshape(-1, 2, nb)
    W = (G[:, :, None, :, None] * G[:, None, :, None, :]).reshape(-1, nb * nb)
    s = np.linalg.svd(W, compute_uv=False)
    m = len(W)
    s_max, s_min = s[0], (s[m - 1] if m <= s.size else 0.0)
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert abs(float(out["sigma_max"]) - s_max) <= 1e-10 * s_max, (out, s_max)
    assert abs(float(out["sigma_min"]) - s_min) <= 1e-10 * s_max, (out, s_min)
    holds = s_min > 1e-8 * s_max
    assert out["verdict"] == ("holds" if holds else "inconclusive"), out
    assert rc == (EXIT_OK if holds else EXIT_INCONCLUSIVE)


def test_dtn_mixed_rank_commuting(tmp_path):
    net = write(tmp_path, "net.json", mixed_rank_doc())
    out = tmp_path / "dtn.json"
    assert main(["dtn", net, "-o", str(out)]) == EXIT_OK
    import netinv as ni
    model = ni.load_network(net)
    oracle = dtn_pseudoinverse_oracle(model.graph, model.sigma)
    assert np.abs(load_matrix(out) - oracle).max() < 1e-10
    assert json.loads(out.read_text())["provenance"] == "psd"


def test_uniqueness_single_edge_holds(tmp_path, capsys):
    net = write(tmp_path, "net.json", single_edge_doc(2.0))
    assert main(["uniqueness", net, "--problem", "conductivity"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "holds" in out
    assert "2.0000000000" in out


def test_uniqueness_eigenvalues_mixed_rank_exits_1(tmp_path, capsys):
    net = write(tmp_path, "net.json", mixed_rank_doc())
    assert main(["uniqueness", net, "--problem", "eigenvalues"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "uniform rank" in err
    assert "uniform_rank" not in err


def test_uniqueness_overparameterized_inconclusive(tmp_path):
    doc = {
        "d": 1,
        "vertices": [{"id": 0, "boundary": True}, {"id": 1}, {"id": 2}],
        "edges": [{"i": 0, "j": 1, "sigma": [[1.0]]},
                  {"i": 1, "j": 2, "sigma": [[1.0]]}],
    }
    net = write(tmp_path, "net.json", doc)
    assert main(["uniqueness", net, "--problem", "conductivity"]) == EXIT_INCONCLUSIVE


def test_uniqueness_epsilon_monotone(tmp_path):
    # well-conditioned truss: verdict holds at the default epsilon but flips
    # to inconclusive when epsilon approaches 1
    net = write(tmp_path, "net.json", braced_truss_doc())
    assert main(["uniqueness", net, "--problem", "springs"]) == EXIT_OK
    code = main(["uniqueness", net, "--problem", "springs",
                 "--epsilon", "0.999"])
    assert code == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("command", [["uniqueness"], ["scan", "--samples", "2"]])
@pytest.mark.parametrize("doc", [collinear_springs_doc(), p3_doc((-1.0, 2.0))],
                         ids=["collinear_springs", "negative_sigma"])
def test_inadmissible_parameter_in_the_file_exits_1(tmp_path, capsys, command, doc):
    # the conductivity the file holds is outside the admissible cone: the
    # collinear springs' blocks are rank one, and the path's first is -1
    net = write(tmp_path, "net.json", doc)
    assert main([command[0], net, "--problem", "conductivity", *command[1:]]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not admissible" in err
    assert "Traceback" not in err


def test_invert_roundtrip_conductivity(tmp_path):
    import netinv as ni
    truth = write(tmp_path, "truth.json", p3_doc((1.3, 0.7)))
    model = ni.load_network(truth)
    lam = ni.dtn_pd(model.graph, model.sigma, model.q).matrix
    target = tmp_path / "target.json"
    ni.save_matrix(lam, target)

    start = write(tmp_path, "start.json", p3_doc((1.0, 1.0)))
    out = tmp_path / "rec.json"
    code = main(["invert", start, str(target), "--problem", "conductivity",
                 "-o", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    rec = np.array([complex(re, im) for re, im in doc["parameters"]])
    # the interior-node path determines only the series conductance
    series = rec[0] * rec[1] / (rec[0] + rec[1])
    assert abs(series - 1.3 * 0.7 / 2.0) < 1e-8
    assert doc["reason"] in ("residual", "step")
    assert doc["residuals"][-1] <= doc["residuals"][0]


def test_invert_reads_a_p0_file_that_mixes_numbers_and_pairs(tmp_path):
    import netinv as ni
    net = write(tmp_path, "net.json", p3_doc((1.3, 0.7)))
    model = ni.load_network(net)
    target = tmp_path / "target.json"
    ni.save_matrix(ni.dtn_pd(model.graph, model.sigma, model.q).matrix, target)
    texts = []
    for name, p0 in (("plain", [1.0, 1.0]), ("mixed", [1.0, [1.0, 0.0]])):
        out = tmp_path / f"{name}.json"
        assert main(["invert", net, str(target), "--problem", "conductivity",
                     "--p0", write(tmp_path, f"{name}_p0.json", p0), "-o", str(out)]) == EXIT_OK
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["residuals"][0] > 0  # p0 was read, not the file's sigma


def test_invert_springs_recovers(tmp_path):
    import netinv as ni
    k_true = list(np.random.default_rng(4).uniform(0.5, 2.0, 9))
    truth = write(tmp_path, "truth.json", braced_truss_doc(k_true))
    model = ni.load_network(truth)
    spec = ni.make_spec_static_springs(model.network)
    target = tmp_path / "target.json"
    ni.save_matrix(spec.forward(np.array(k_true)), target)

    start = write(tmp_path, "start.json", braced_truss_doc())
    out = tmp_path / "rec.json"
    code = main(["invert", start, str(target), "--problem", "springs",
                 "-o", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    rec = np.array([complex(re, im) for re, im in doc["parameters"]])
    assert np.abs(rec.real - np.array(k_true)).max() < 1e-7


def test_invert_residual_tol_sets_newton_stop(tmp_path):
    import netinv as ni
    truth = write(tmp_path, "truth.json", braced_truss_doc())
    spec = ni.make_spec_static_springs(ni.load_network(truth).network)
    target = tmp_path / "target.json"
    ni.save_matrix(spec.forward(np.full(9, 1.5)), target)
    out = tmp_path / "rec.json"

    def run(*extra):
        assert main(["invert", truth, str(target), "--problem", "springs",
                     "-o", str(out), *extra]) == EXIT_OK
        return json.loads(out.read_text())

    default = run()
    assert len(default["residuals"]) > 1
    assert default["residuals"][-1] <= 1e-10 * (1 + np.linalg.norm(load_matrix(target)))
    # a tolerance above the starting residual stops Newton before its first step
    loose = run("--residual-tol", "10")
    assert loose["reason"] == "residual"
    assert loose["residuals"] == default["residuals"][:1]


def test_invert_inadmissible_p0_exits_1(tmp_path):
    import netinv as ni
    truth = write(tmp_path, "truth.json", braced_truss_doc())
    model = ni.load_network(truth)
    spec = ni.make_spec_static_springs(model.network)
    target = tmp_path / "target.json"
    ni.save_matrix(spec.forward(np.ones(9)), target)
    code = main(["invert", truth, str(target), "--problem", "springs",
                 "--p0", "-1.0"])
    assert code == EXIT_USAGE


def test_invert_complex_p0_for_real_springs_exits_1(tmp_path, capsys):
    import netinv as ni
    truth = write(tmp_path, "truth.json", braced_truss_doc())
    spec = ni.make_spec_static_springs(ni.load_network(truth).network)
    target = tmp_path / "target.json"
    ni.save_matrix(spec.forward(np.ones(9)), target)
    p0 = write(tmp_path, "p0.json", [[1.0, 5.0]] * 9)
    code = main(["invert", truth, str(target), "--problem", "springs", "--p0", p0])
    assert code == EXIT_USAGE
    assert "imaginary part" in capsys.readouterr().err


@pytest.mark.parametrize("p0, message", [("inf", "not admissible"),
                                         ("file", "JSON list of values")])
def test_invert_bad_p0_exits_1(tmp_path, capsys, p0, message):
    import netinv as ni
    net = write(tmp_path, "net.json", p3_doc())
    model = ni.load_network(net)
    target = tmp_path / "target.json"
    ni.save_matrix(ni.dtn_pd(model.graph, model.sigma, model.q).matrix, target)
    if p0 == "file":
        p0 = write(tmp_path, "p0.json", 5)
    code = main(["invert", net, str(target), "--problem", "conductivity", "--p0", p0])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, args", [
    ("invert", ["--p0", "abc"]),
    ("invert", ["--p0", "[1, null]"]),
    ("invert", ["--p0", "."]),
    ("invert", ["--max-iters", "-1"]),
    ("uniqueness", ["--epsilon", "-1"]),
    ("uniqueness", ["--epsilon", "nan"]),
    ("scan", ["--epsilon", "inf"]),
    ("scan", ["--samples", "0"]),
    ("scan", ["--samples", "-3"]),
    ("scan", ["--samples", "2.5"]),
    ("scan", ["--seed", "-1"]),
    ("invert", ["--residual-tol", "0"]),
    ("invert", ["--residual-tol", "-1e-8"]),
    ("invert", ["--residual-tol", "nan"]),
    ("invert", ["--residual-tol", "inf"]),
    ("invert", ["--residual-tol", "tight"]),
])
def test_numeric_arguments_checked_at_parse_time(tmp_path, capsys, command, args):
    net = write(tmp_path, "net.json", p3_doc())
    target = [str(tmp_path / "unread.json")] if command == "invert" else []
    code = main([command, net, *target, "--problem", "conductivity", *args])
    assert code == EXIT_USAGE
    assert f"usage error: argument {args[0]}" in capsys.readouterr().err


def test_floppy_collinear(tmp_path, capsys):
    net = write(tmp_path, "net.json", collinear_springs_doc())
    assert main(["floppy", net]) == EXIT_OK
    out = capsys.readouterr().out
    assert "floppy dimension: 1" in out


def test_floppy_pd_reports_zero(tmp_path, capsys):
    net = write(tmp_path, "net.json", p3_doc())
    assert main(["floppy", net]) == EXIT_OK
    assert "floppy dimension: 0" in capsys.readouterr().out


def test_scan_deterministic_across_runs(tmp_path, capsys):
    net = write(tmp_path, "net.json", single_edge_doc(2.0))
    assert main(["scan", net, "--problem", "conductivity",
                 "--samples", "50", "--seed", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["scan", net, "--problem", "conductivity",
                 "--samples", "50", "--seed", "3"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert "near-singular fraction: 0.000000" in first


def test_usage_error_exits_1():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_missing_file_exits_1(tmp_path):
    assert main(["dtn", str(tmp_path / "nope.json"), "-o",
                 str(tmp_path / "o.json")]) == EXIT_USAGE


def test_dtn_nan_spring_constant_exits_1(tmp_path, capsys):
    net = write(tmp_path, "net.json", braced_truss_doc(k=[float("nan")] + [1.0] * 8))
    assert main(["dtn", net, "-o", str(tmp_path / "o.json")]) == EXIT_USAGE
    assert "k must be finite" in capsys.readouterr().err


def test_dtn_ragged_positions_exit_1(tmp_path, capsys):
    doc = collinear_springs_doc()
    doc["vertices"][1]["position"] = [1.0, 0.0, 0.0]
    net = write(tmp_path, "net.json", doc)
    assert main(["dtn", net, "-o", str(tmp_path / "o.json")]) == EXIT_USAGE
    assert "vertex positions" in capsys.readouterr().err


def test_invert_non_numeric_csv_target_exits_1(tmp_path, capsys):
    net = write(tmp_path, "net.json", p3_doc())
    target = tmp_path / "target.csv"
    target.write_text("rows,2,cols,2\n0.5,0,-0.5,0\n-0.5,0,oops,0\n")
    code = main(["invert", net, str(target), "--problem", "conductivity"])
    assert code == EXIT_USAGE
    assert "bad csv matrix" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["rows,2,cols,2\n0.5,0,-0.5,0,-0.5,0,0.5,0\n",
                                  "rows,-1,cols,2\n0.5,0,-0.5,0\n-0.5,0,0.5,0\n"])
def test_invert_csv_target_whose_header_disagrees_exits_1(tmp_path, capsys, text):
    net = write(tmp_path, "net.json", p3_doc())
    target = tmp_path / "target.csv"
    target.write_text(text)
    assert main(["invert", net, str(target), "--problem", "conductivity"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_problem_requires_matching_fields(tmp_path):
    # springs problem on a sigma-style file is a schema error
    net = write(tmp_path, "net.json", p3_doc())
    assert main(["uniqueness", net, "--problem", "springs"]) == EXIT_USAGE


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dtn_near_the_float_maximum(tmp_path, capsys):
    out = str(tmp_path / "o.json")
    # solved without an overflow: a block is halved before it is symmetrized
    assert main(["dtn", write(tmp_path, "net.json", p3_doc((1.7e308, 1.0))), "-o", out]) == EXIT_OK
    assert np.isfinite(load_matrix(out)).all()
    # refused: the centre of this star sums four blocks beyond float range
    star = {"d": 1, "vertices": [{"id": 0}, *({"id": v, "boundary": True} for v in range(1, 5))],
            "edges": [{"i": 0, "j": v, "sigma": [[5e307]]} for v in range(1, 5)]}
    assert main(["dtn", write(tmp_path, "star.json", star), "-o", out]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith("vertex 0 overflows\n")
    # refused: finite weights whose exact map lies beyond float range; the
    # interior value of the first path is 0.5 + 5e607j
    far = p3_doc(([1e-300, 1e308], [1e-300, -1e308]))
    for doc in (far, p3_doc(([1.0, 1e308], [1.0, -1e308]))):
        assert main(["dtn", write(tmp_path, "far.json", doc), "-o", out]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: the Dirichlet-to-Neumann map overflows\n"
    bc = write(tmp_path, "bc.json", {"g": [[1.0], [0.0]]})
    assert main(["forward", write(tmp_path, "far.json", far), bc]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: the Dirichlet solution overflows\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("problem", ["conductivity", "schrodinger"])
@pytest.mark.parametrize("command", [["uniqueness"], ["scan", "--samples", "3"]],
                         ids=["uniqueness", "scan"])
def test_product_matrix_beyond_float_range_exits_1(tmp_path, capsys, command, problem):
    # the states are finite, u_1 = 0.5 + 5e307j, but their products in W are not
    net = write(tmp_path, "net.json", p3_doc(([1.0, 1e308], [1.0, -1e308])))
    assert main([command[0], net, "--problem", problem, *command[1:]]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {problem}: the product matrix W(p, p) overflows\n"


def set_at(doc, where, value):
    *path, key = where
    for step in path:
        doc = doc[step]
    doc[key] = value


@pytest.mark.parametrize("command, make_doc, where, value", [
    ("dtn", p3_doc, ("edges", 0, "sigma"), [[10**400]]),
    ("dtn", p3_doc, ("edges", 0, "sigma"), [[True]]),
    ("floppy", collinear_springs_doc, ("vertices", 1, "position"), [10**400, 0.0]),
    ("floppy", collinear_springs_doc, ("vertices", 1, "position"), ["1.0", 0.0]),
    ("dtn", collinear_springs_doc, ("edges", 0, "k"), "1e0"),
    ("dtn", collinear_springs_doc, ("edges", 0, "k"), True),
    ("dtn", collinear_springs_doc, ("omega",), "2.0"),
    ("dtn", p3_doc, ("vertices", 0, "id"), [0]),
    ("dtn", p3_doc, ("edges", 1, "i"), [1]),
    ("floppy", collinear_springs_doc, ("edges", 0, "j"), {"id": 1}),
])
def test_entry_that_is_not_a_number_exits_1(tmp_path, capsys, command, make_doc, where, value):
    doc = make_doc()
    set_at(doc, where, value)
    net = write(tmp_path, "net.json", doc)
    args = ["-o", str(tmp_path / "o.json")] if command == "dtn" else []
    assert main([command, net, *args]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def numeric_slots(doc, path=()):
    """Paths to every number and number list of a network document, except
    the ids, the edge ends and d."""
    if isinstance(doc, dict):
        items = [(k, v) for k, v in doc.items() if k not in ("id", "i", "j", "d", "boundary")]
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return [path]
    slots = [path] if path and path[-1] in ("sigma", "position", "q") else []
    for k, v in items:
        slots += numeric_slots(v, (*path, k))
    return slots


# entries the fuzz puts in a network: numbers over the whole finite range,
# pairs, mixed forms and the entries the schema refuses
FUZZ_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10, 10))
FUZZ_ENTRIES = st.one_of(
    FUZZ_NUMBERS, st.lists(FUZZ_NUMBERS, min_size=2, max_size=2),
    st.integers(2**1024, 10**400), st.booleans(), st.text(max_size=3), st.none(),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.lists(FUZZ_NUMBERS, max_size=3), st.dictionaries(st.text(max_size=2), FUZZ_NUMBERS, max_size=1))


FUZZ_DOCS = [p3_doc, single_edge_doc, collinear_springs_doc, mixed_rank_doc, braced_truss_doc,
             lambda: {**p3_doc(), "q": [[[0.5]] for _ in range(3)]}]


@st.composite
def fuzzed_networks(draw):
    doc = draw(st.sampled_from(FUZZ_DOCS))()
    for _ in range(draw(st.integers(0, 3))):
        set_at(doc, draw(st.sampled_from(numeric_slots(doc))), draw(FUZZ_ENTRIES))
    return doc


def entry_slots(doc):
    """Paths to every entry of a network document, each with whether it is
    complex: the entries of sigma and q blocks, spring constants and
    position coordinates."""
    d, slots = doc["d"], []
    for e, edge in enumerate(doc["edges"]):
        slots += ([(("edges", e, "sigma", r, c), True) for r in range(d) for c in range(d)]
                  if "sigma" in edge else [(("edges", e, "k"), False)])
    for v, vertex in enumerate(doc["vertices"]):
        if "position" in vertex:
            slots += [(("vertices", v, "position", c), False) for c in range(d)]
    for v in range(len(doc.get("q", []))):
        slots += [(("q", v, r, c), True) for r in range(d) for c in range(d)]
    return slots


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE_PAIRS = st.lists(FINITE, min_size=2, max_size=2)


@st.composite
def valid_networks(draw):
    """Documents whose every entry is valid: a finite float over the whole
    range, or an [re, im] pair of them where the entry is complex."""
    doc = draw(st.sampled_from(FUZZ_DOCS))()
    for _ in range(draw(st.integers(1, 3))):
        path, is_complex = draw(st.sampled_from(entry_slots(doc)))
        set_at(doc, path, draw(st.one_of(FINITE, FINITE_PAIRS) if is_complex else FINITE))
    return doc


# the exit codes each fuzzed command may return; only uniqueness has a verdict
COMMON_CODES = {EXIT_OK, EXIT_USAGE, EXIT_UNSUPPORTED}
FUZZ_CODES = {"dtn": COMMON_CODES, "forward": COMMON_CODES, "floppy": COMMON_CODES,
              "uniqueness": COMMON_CODES | {EXIT_INCONCLUSIVE}, "scan": COMMON_CODES,
              "invert": COMMON_CODES | {EXIT_NONCONVERGED}}


def fuzz_exit_code(tmp_path, command, doc) -> int:
    """The exit code of ``command`` on the document: springs problems on
    spring documents, conductivity otherwise, a boundary file of matching
    size, and three Newton steps toward a zero map."""
    net = write(tmp_path, "net.json", doc)
    problem = ["--problem", "springs" if "k" in doc["edges"][0] else "conductivity"]
    nb = sum(bool(v.get("boundary")) for v in doc["vertices"])
    n = nb * doc["d"]
    args = {"dtn": ["-o", str(tmp_path / "o.json")],
            "forward": [write(tmp_path, "bc.json", {"g": [[1.0] * doc["d"]] * nb})],
            "floppy": [],
            "uniqueness": problem,
            "scan": [*problem, "--samples", "2"],
            "invert": [write(tmp_path, "target.json", {"shape": [n, n], "data": [[0.0] * n] * n}),
                       *problem, "--max-iters", "3", "-o", str(tmp_path / "o.json")]}[command]
    return main([command, net, *args])


# an overflow or invalid operation is a failure too, not only an exception
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", list(FUZZ_CODES))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=fuzzed_networks())
@example(doc=single_edge_doc(8.98846567431158e307))
@example(doc=p3_doc(([1.0, 1e308], [1.0, -1e308])))
def test_fuzz_exits_only_with_documented_codes(tmp_path, command, doc):
    assert fuzz_exit_code(tmp_path, command, doc) in FUZZ_CODES[command]


# with the draws that once overflowed: in the symmetric part of the
# admissible cone (uniqueness, scan), in the segment's reach (scan), in
# the residual of a solve (forward) and in the map and residual of Newton
# (invert)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", list(FUZZ_CODES))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=valid_networks())
@example(doc=single_edge_doc(8.98846567431158e307))
@example(doc=single_edge_doc(5.24361440722239e-306))
@example(doc=p3_doc(([1.0, 1.7976931348623151e308], 1.0)))
@example(doc=p3_doc(([1.0, 1e308], [1.0, -1e308])))
def test_fuzz_with_valid_entries_exits_only_with_documented_codes(tmp_path, command, doc):
    assert fuzz_exit_code(tmp_path, command, doc) in FUZZ_CODES[command]
