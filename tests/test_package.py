"""The names ``netinv`` exports against the ``__all__`` of its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
