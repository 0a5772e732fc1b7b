"""End-to-end command line behavior, including the exit-code contract."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netinv import cli, dirichlet, operators
from netinv.cli import main
from netinv.fileio import load_matrix

from oracles import dtn_pseudoinverse_oracle

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
    """Laplacian assemblies and interior (2-D) eigh calls of one run of a
    command on the network ``doc``."""
    calls = []
    eighs = []
    original = operators.laplacian_matrix
    original_eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            eighs.append(1)
        return original_eigh(a, *args, **kwargs)

    for module in (operators, dirichlet):
        monkeypatch.setattr(module, "laplacian_matrix", counted)
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
    # the operator, and the one interior spectrum that gives both the Q
    # basis and the floppy dimension
    counts = forward_counts(tmp_path, monkeypatch, collinear_springs_doc(),
                            [[0.1, 0.0], [0.0, 0.0]])
    assert counts == (2, 1)


@pytest.mark.parametrize("doc, counts", [
    # one operator for the regime certificate and the Schur complement
    (p3_doc(), (1, 0)),
    ({**p3_doc(), "q": [[[0.0]], [[0.5]], [[0.0]]]}, (1, 0)),
    # plus the interior spectrum of the Q basis
    (collinear_springs_doc(), (2, 1)),
])
def test_dtn_assembles_once_per_operator(tmp_path, monkeypatch, doc, counts):
    out = str(tmp_path / "dtn.json")
    assert command_counts(tmp_path, monkeypatch, doc, "dtn", "-o", out) == counts


@pytest.mark.parametrize("command", ["dtn", "forward", "floppy"])
def test_psd_commuting_decomposes_once(tmp_path, monkeypatch, command):
    # the classification's eigendata gives the Q basis and the floppy modes too
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


@st.composite
def fuzzed_networks(draw):
    doc = draw(st.sampled_from([p3_doc, single_edge_doc, collinear_springs_doc, mixed_rank_doc,
                                braced_truss_doc,
                                lambda: {**p3_doc(), "q": [[[0.5]] for _ in range(3)]}]))()
    for _ in range(draw(st.integers(0, 3))):
        set_at(doc, draw(st.sampled_from(numeric_slots(doc))), draw(FUZZ_ENTRIES))
    return doc


# an overflow or invalid operation is a failure too, not only an exception
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_networks())
def test_dtn_fuzz_exits_only_with_documented_codes(tmp_path, doc):
    net = write(tmp_path, "net.json", doc)
    assert main(["dtn", net, "-o", str(tmp_path / "o.json")]) in (EXIT_OK, EXIT_USAGE,
                                                                  EXIT_UNSUPPORTED)
