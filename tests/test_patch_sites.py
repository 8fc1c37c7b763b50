"""Every call site the benchmark's tracer patches exists in the package.

The tracer in ``perfbench/spans.py`` replaces each ``(module, attribute
path)`` of its ``PATCH_SITES`` table before every benchmark run, so a
refactor that renames or drops one of them would fail every run.  This test
reads the table from the file, without importing the benchmark, and
resolves each entry.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def patch_sites() -> list[tuple[str, str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCH_SITES"]:
            table = ast.literal_eval(node.value)
            return [(name, module, path) for name, sites in table.items() for module, path in sites]
    raise AssertionError(f"no PATCH_SITES table in {SPANS}")


@pytest.mark.parametrize("name,module,path", patch_sites())
def test_patch_site_resolves(name, module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{name}: {module}.{path} has no attribute {attr!r}"
        owner = getattr(owner, attr)
    assert callable(owner), f"{name}: {module}.{path} is not callable"
