"""The names ``netinv`` exports against the ``__all__`` of its modules, and
the README's minimal session."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import netinv


def test_exports_are_listed_in_their_modules_all():
    tree = ast.parse(Path(netinv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"netinv.{node.module}")
        unlisted = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not unlisted, f"netinv.{node.module}.__all__ omits {unlisted}"


def test_every_all_entry_exists():
    for info in pkgutil.iter_modules(netinv.__path__):
        module = importlib.import_module(f"netinv.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"netinv.{info.name}.__all__ names missing {missing}"


def test_readme_minimal_session():
    # the series path's map, and its conductivity test, which is
    # inconclusive because two conductances in series give one map
    g = netinv.build_graph(3, boundary=[0, 2], edges=[(0, 1), (1, 2)])
    sigma = netinv.MatrixEdgeField.from_blocks(np.ones((2, 1, 1)))
    lam = netinv.dtn_pd(g, sigma, None).matrix
    assert np.abs(lam - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-12, lam
    # the classified regime gives the same map, bit for bit, and solves
    regime = netinv.classify_regime(g, sigma, None)
    assert regime.dtn().matrix.tobytes() == lam.tobytes()
    u, resid = regime.solve([1.0, 0.0])
    assert np.abs(u.values[:, 0] - [1.0, 0.5, 0.0]).max() <= 1e-15
    # the residual is that of M divided by 4, the power of two just above
    # M_II's largest diagonal entry, 2
    L = netinv.laplacian_matrix(g, sigma.values)
    assert resid == np.linalg.norm((0.25 * L)[2:] @ u.canonical(g)), resid
    spec = netinv.make_spec_conductivity(g, d=1)
    verdict = netinv.uniqueness_test(spec, np.array([1.0, 1.0], dtype=complex))
    assert not verdict.holds and verdict.verdict == "inconclusive", verdict
