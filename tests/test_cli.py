"""End-to-end command line behavior, including the exit-code contract."""

import json

import numpy as np
import pytest

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
    doc = p3_doc()
    doc["edges"][0]["sigma"] = [[-1.0]]  # indefinite conductivity
    net = write(tmp_path, "net.json", doc)
    bc = write(tmp_path, "bc.json", {"g": [[1.0], [0.0]]})
    out = str(tmp_path / "dtn.json")
    # every command that classifies the regime: forward, dtn and floppy
    for argv in (["forward", net, bc], ["dtn", net, "-o", out], ["floppy", net]):
        assert main(argv) == EXIT_UNSUPPORTED
        assert "unsupported regime" in capsys.readouterr().err


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


def test_dtn_mixed_rank_commuting(tmp_path):
    # one rank-2 and two rank-1 edges with commuting complex parts: PSD_COMMUTING
    doc = {
        "d": 2,
        "vertices": [{"id": 0, "boundary": True}, {"id": 1}, {"id": 2},
                     {"id": 3, "boundary": True}],
        "edges": [
            {"i": 0, "j": 1, "sigma": [[[2.0, 0.3], 0.0], [0.0, [2.0, 0.3]]]},
            {"i": 1, "j": 2, "sigma": [[[1.0, 0.2], 0.0], [0.0, 0.0]]},
            {"i": 2, "j": 3, "sigma": [[[1.5, 0.1], 0.0], [0.0, 0.0]]},
        ],
    }
    net = write(tmp_path, "net.json", doc)
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


def test_problem_requires_matching_fields(tmp_path):
    # springs problem on a sigma-style file is a schema error
    net = write(tmp_path, "net.json", p3_doc())
    assert main(["uniqueness", net, "--problem", "springs"]) == EXIT_USAGE
