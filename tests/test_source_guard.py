"""No module of the package solves with a Cholesky factor through LAPACK's
potrs, which scipy's ``cho_solve`` calls.

With one right-hand side potrs took about twice as long as the two
triangular solves of ``sketchkrr._util.solve_factor`` (0.79 against
0.37 ms at n = 1024, one OpenBLAS thread), so every solve with a kept
factor goes through that helper.  This test parses each module's source,
without importing it, and names every use of ``cho_solve`` or ``potrs``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sketchkrr"
BANNED = {"cho_solve", "potrs", "dpotrs"}


def potrs_uses(source: str) -> list[int]:
    """Lines of ``source`` that name a banned routine: as a name, an
    attribute, an imported name or a string (``get_lapack_funcs``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.Attribute):
            named = {node.attr}
        elif isinstance(node, ast.alias):
            named = {node.name.rpartition(".")[2]}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = {node.value}
        else:
            continue
        if named & BANNED:
            lines.append(getattr(node, "lineno", 0))
    return lines


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_solves_through_potrs(module):
    assert potrs_uses(module.read_text()) == [], f"{module.name} uses potrs; use _util.solve_factor"


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.linalg as sla\nx = sla.cho_solve((L, True), b)\n",
        "from scipy.linalg import cho_solve\n",
        "from scipy.linalg import cho_solve as solve\n",
        "x, info = scipy.linalg.lapack.dpotrs(L, b, lower=1)\n",
        "potrs, = get_lapack_funcs(('potrs',), (L,))\n",
    ],
)
def test_guard_sees_each_spelling(source):
    assert potrs_uses(source)
