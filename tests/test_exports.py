"""Every name a module exports resolves, and every module-level import is
read, so no export or import outlives its code."""
import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["ncfree", "ncfree.rmt", "ncfree.verify"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/ncfree/*.py"), *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("tests/*.py")])


def _unused_imports(path: Path) -> list[str]:
    # module-level imports whose bound name is never read in the module;
    # a name listed in __all__ is a re-export and counts as read
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_stale_imports(path):
    assert _unused_imports(path) == []
