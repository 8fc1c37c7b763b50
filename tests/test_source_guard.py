"""Source guards, each parsing every module of the package without
importing it.

No module solves with a Cholesky factor through LAPACK's potrs, which
scipy's ``cho_solve`` calls.  With one right-hand side potrs took about
twice as long as the two triangular solves of
``sketchkrr._util.solve_factor`` (0.79 against 0.37 ms at n = 1024, one
OpenBLAS thread), so every solve with a kept factor goes through that
helper.

No module but ``_util.py`` multiplies a kernel matrix with ``@``: every
product with K goes through ``sketchkrr._util.symv``, the one place that
knows how K is stored and read.

No module names LAPACK's single-precision spotrf or strtrs, or float32:
every array of the package stays in double, and the exact solve's one
factor route is a double Cholesky factor.

No module but ``_util.py`` names LAPACK's triangular or RFP solves (dtrtrs,
strtrs, dpftrs, spftrs, or ``trtrs`` and ``pftrs`` as ``get_lapack_funcs``
takes them): every solve L L^T x = b, with a full or packed factor, goes
through ``sketchkrr._util.solve_factor``, which picks the routine from the
factor.

No module but ``sketch.py`` names ``__matmul__``: every sketch, a dense
matrix given to the certificate included, is applied through
``sketchkrr.sketch._maps``, so one set of maps and one set of checks (the
operator's own) serve every consumer.

No function but ``sketchkrr._util.check_floats`` names ``isfinite``: every
array a public boundary takes is converted and, where it must be finite,
tested there, so one message names a bad argument everywhere.

No function but ``sketchkrr.solver._solve_sketched`` makes a full Cholesky
factor (``cho_factor``, LAPACK's potrf, or a ``cholesky``): every n x n
system, the exact solve's and both dual routes', is factored packed by
``sketchkrr._util.rfp_factor_shifted``, and only the m x m sketched
systems are factored full.

No module but ``kernels.py`` names ``_proven`` or ``EIG_CLAMP_REL``:
whether a kernel matrix is PSD is decided there alone, once per matrix,
when a :class:`sketchkrr.KernelMatrix` is constructed, and no consumer
reads the mark or the clamp to check again.

No module but ``_util.py`` names a QR routine (``qr``, LAPACK's geqrf or
orgqr): the block Krylov eigensolver orthonormalizes its basis there, by
dgeqrf and dorgqr through ``sketchkrr._util._householder``.  On one column
``np.linalg.qr`` took 16-30 us against 3-6 us for the LAPACK pair (one
OpenBLAS thread), and the certificate's Lanczos factors twice a step.

The plot script that ``sketchkrr.emit_plot_script`` returns imports only
``matplotlib.pyplot`` and ``sketchkrr`` and names no ``csv``: it plots
``summarize_records(read_csv(path))``, so the CSV columns and the
standard-error formula stay in the package alone.  This guard imports the
package, to emit the script it parses.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sketchkrr"
BANNED = {"cho_solve", "potrs", "dpotrs"}
SINGLE_PRECISION = {"spotrf", "strtrs", "float32"}
FACTOR_SOLVES = {"dtrtrs", "strtrs", "dpftrs", "spftrs", "trtrs", "pftrs"}
KERNEL_NAMES = {"matrix", "K"}
MATMUL = {"__matmul__"}
FINITE = {"isfinite"}
FULL_FACTOR = {"cho_factor", "potrf", "dpotrf", "cholesky"}
PSD_DECISION = {"_proven", "EIG_CLAMP_REL"}
QR = {"qr", "geqrf", "orgqr", "dgeqrf", "dorgqr", "sgeqrf", "sorgqr"}


def potrs_uses(source: str, banned=BANNED) -> list[int]:
    """Lines of ``source`` that name a banned routine: as a name, an
    attribute, a keyword argument, an imported name or a string
    (``get_lapack_funcs``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = {node.id}
        elif isinstance(node, ast.Attribute):
            named = {node.attr}
        elif isinstance(node, ast.keyword):
            named = {node.arg}
        elif isinstance(node, ast.alias):
            named = {node.name.rpartition(".")[2]}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = {node.value}
        else:
            continue
        if named & banned:
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


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_single_precision(module):
    uses = potrs_uses(module.read_text(), SINGLE_PRECISION)
    assert uses == [], f"{module.name} names single precision; keep every array in double"


@pytest.mark.parametrize(
    "line",
    [
        "a = K.matrix.astype(np.float32)",
        "a = np.asarray(K.matrix, dtype='float32')",
        "from numpy import float32",
        "L, info = sla.lapack.spotrf(a, lower=1)",
        "from scipy.linalg.lapack import strtrs as solve",
        "trtrs, = get_lapack_funcs(('strtrs',), (L,))",
    ],
)
def test_single_precision_guard_sees_each_spelling_in_the_solver(line):
    # a mutation of the solver's own source, made in memory
    source = (PACKAGE / "solver.py").read_text()
    assert potrs_uses(source, SINGLE_PRECISION) == []
    assert potrs_uses(f"{source}\n{line}\n", SINGLE_PRECISION)


@pytest.mark.parametrize(
    "module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_util.py"), ids=lambda p: p.name
)
def test_no_module_but_util_names_a_factor_solve(module):
    uses = potrs_uses(module.read_text(), FACTOR_SOLVES)
    assert uses == [], f"{module.name} solves with a Cholesky factor; use _util.solve_factor"


def test_util_is_where_factor_solves_live():
    source = (PACKAGE / "_util.py").read_text()
    for name in ("dtrtrs", "dpftrs"):
        assert potrs_uses(source, {name}), name


@pytest.mark.parametrize(
    "line",
    [
        "x, info = sla.lapack.dpftrs(n, L, b, transr='T', uplo='L')",
        "x, info = scipy.linalg.lapack.dtrtrs(L, b, lower=1)",
        "from scipy.linalg.lapack import dtrtrs",
        "from scipy.linalg.lapack import spftrs as solve",
        "trtrs, = get_lapack_funcs(('trtrs',), (L,))",
        "pftrs, = sla.get_lapack_funcs(('pftrs',), (L,))",
        "solve = getattr(sla.lapack, 'strtrs')",
    ],
)
def test_factor_solve_guard_sees_each_spelling_in_the_solver(line):
    # a mutation of the solver's own source, made in memory
    source = (PACKAGE / "solver.py").read_text()
    assert potrs_uses(source, FACTOR_SOLVES) == []
    assert potrs_uses(f"{source}\n{line}\n", FACTOR_SOLVES)


def kernel_products(source: str) -> list[int]:
    """Lines of ``source`` with a ``@`` or ``@=`` one of whose operands is
    spelled ``matrix``, ``K`` or ``<x>.matrix``, transposed or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = (node.target, node.value)
        else:
            continue
        if any(_is_kernel(operand) for operand in operands):
            lines.append(node.lineno)
    return lines


def _is_kernel(node: ast.AST) -> bool:
    while isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in KERNEL_NAMES
    return isinstance(node, ast.Attribute) and node.attr == "matrix"


@pytest.mark.parametrize(
    "module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_util.py"), ids=lambda p: p.name
)
def test_no_module_multiplies_a_kernel_matrix_with_matmul(module):
    assert kernel_products(module.read_text()) == [], f"{module.name} multiplies K with @; use _util.symv"


@pytest.mark.parametrize(
    "source",
    [
        "y = matrix @ X\n",
        "y = K @ v\n",
        "y = K.matrix @ v\n",
        "C = (S @ K.matrix) @ S.T\n",
        "z = v.T @ self.K.matrix.T\n",
        "X @= matrix\n",
    ],
)
def test_kernel_guard_sees_each_spelling(source):
    assert kernel_products(source)


@pytest.mark.parametrize("source", ["y = S @ x\n", "w = SU1 @ (U1.T @ W)\n", "C = Q.T @ AX\n"])
def test_kernel_guard_passes_other_products(source):
    assert kernel_products(source) == []


@pytest.mark.parametrize(
    "module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "sketch.py"), ids=lambda p: p.name
)
def test_no_module_but_sketch_names_matmul(module):
    uses = potrs_uses(module.read_text(), MATMUL)
    assert uses == [], f"{module.name} applies a sketch by __matmul__; use sketch._maps"


def test_sketch_is_where_matmul_lives():
    assert potrs_uses((PACKAGE / "sketch.py").read_text(), MATMUL)


@pytest.mark.parametrize(
    "line",
    [
        "forward, transpose = _maps(S) if operator else (S.__matmul__, S.T.__matmul__)",
        "forward, transpose = S.__matmul__, S.T.__matmul__",
        "transpose = getattr(S.T, '__matmul__')",
        "from operator import __matmul__",
    ],
)
def test_matmul_guard_sees_each_spelling_in_the_certificate(line):
    # a mutation of the certificate's own source, made in memory
    source = (PACKAGE / "satisfiability.py").read_text()
    assert potrs_uses(source, MATMUL) == []
    assert potrs_uses(f"{source}\n{line}\n", MATMUL)



def uses_outside(source: str, banned: set, function: str) -> list[int]:
    """Lines of ``source`` that name a banned routine outside a function
    named ``function``."""
    helpers = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return [
        line for line in potrs_uses(source, banned)
        if not any(f.lineno <= line <= f.end_lineno for f in helpers)
    ]


def finiteness_tests(source: str) -> list[int]:
    """Lines of ``source`` that name ``isfinite`` outside a function
    ``check_floats``."""
    return uses_outside(source, FINITE, "check_floats")


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_check_floats_tests_finiteness(module):
    uses = finiteness_tests(module.read_text())
    assert uses == [], f"{module.name} tests finiteness itself; use _util.check_floats(..., finite=True)"


@pytest.mark.parametrize(
    "line", ["ok = np.isfinite(a).all()", "ok = math.isfinite(x)", "from math import isfinite"]
)
def test_finiteness_guard_sees_each_spelling_in_the_solver(line):
    # a mutation of the solver's own source, made in memory
    source = (PACKAGE / "solver.py").read_text()
    assert finiteness_tests(source) == []
    assert finiteness_tests(f"{source}\n{line}\n")


def full_factors(source: str) -> list[int]:
    """Lines of ``source`` that name a full Cholesky factor outside a
    function ``_solve_sketched``."""
    return uses_outside(source, FULL_FACTOR, "_solve_sketched")


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_sketched_solve_makes_a_full_factor(module):
    uses = full_factors(module.read_text())
    assert uses == [], f"{module.name} makes a full Cholesky factor; use _util.rfp_factor_shifted"


def test_sketched_solve_is_where_full_factors_live():
    source = (PACKAGE / "solver.py").read_text()
    assert potrs_uses(source, {"cho_factor"})


@pytest.mark.parametrize(
    "line",
    [
        "L, _ = sla.cho_factor(A.T, lower=True, overwrite_a=True, check_finite=False)",
        "from scipy.linalg import cho_factor",
        "L, info = sla.lapack.dpotrf(A, lower=1)",
        "potrf, = get_lapack_funcs(('potrf',), (A,))",
        "L = np.linalg.cholesky(A)",
        "factor = getattr(sla, 'cho_factor')",
    ],
)
def test_full_factor_guard_sees_each_spelling_in_the_solver(line):
    # a mutation of the solver's own source, made in memory, outside
    # _solve_sketched
    source = (PACKAGE / "solver.py").read_text()
    assert full_factors(source) == []
    assert full_factors(f"{source}\n{line}\n")


@pytest.mark.parametrize(
    "module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "kernels.py"), ids=lambda p: p.name
)
def test_no_module_but_kernels_decides_psd(module):
    uses = potrs_uses(module.read_text(), PSD_DECISION)
    assert uses == [], f"{module.name} decides PSD-ness; KernelMatrix checks it at construction"


def test_kernels_is_where_psd_is_decided():
    source = (PACKAGE / "kernels.py").read_text()
    for name in PSD_DECISION:
        assert potrs_uses(source, {name}), name


@pytest.mark.parametrize(
    "line",
    [
        "if not K._proven:\n    pass",
        "from .kernels import EIG_CLAMP_REL",
        "shift = kernels.EIG_CLAMP_REL * top",
        "K = KernelMatrix(A, _proven=True)",
    ],
)
def test_psd_guard_sees_each_spelling_in_the_profile(line):
    # a mutation of the profile's own source, made in memory
    source = (PACKAGE / "complexity.py").read_text()
    assert potrs_uses(source, PSD_DECISION) == []
    assert potrs_uses(f"{source}\n{line}\n", PSD_DECISION)


@pytest.mark.parametrize(
    "module", sorted(p for p in PACKAGE.glob("*.py") if p.name != "_util.py"), ids=lambda p: p.name
)
def test_no_module_but_util_names_a_qr(module):
    uses = potrs_uses(module.read_text(), QR)
    assert uses == [], f"{module.name} factors a QR; the Krylov basis is orthonormalized in _util"


def test_util_is_where_qr_lives():
    source = (PACKAGE / "_util.py").read_text()
    for name in ("dgeqrf", "dorgqr"):
        assert potrs_uses(source, {name}), name


@pytest.mark.parametrize(
    "line",
    [
        "Q, R = np.linalg.qr(X)",
        "from numpy.linalg import qr",
        "Q = sla.qr(X, mode='economic')[0]",
        "qr, tau, work, info = sla.lapack.dgeqrf(A)",
        "X, work, info = scipy.linalg.lapack.dorgqr(qr, tau)",
        "from scipy.linalg.lapack import sgeqrf as factor",
        "geqrf, orgqr = sla.get_lapack_funcs(('geqrf', 'orgqr'), (A,))",
    ],
)
def test_qr_guard_sees_each_spelling_in_the_certificate(line):
    # a mutation of the certificate's own source, made in memory
    source = (PACKAGE / "satisfiability.py").read_text()
    assert potrs_uses(source, QR) == []
    assert potrs_uses(f"{source}\n{line}\n", QR)


def plot_script_imports(source: str) -> set[str]:
    """The modules ``source`` imports, by their dotted names."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    return imported


def plot_script_faults(source: str) -> list[str]:
    """What keeps ``source`` from being a plot of the package's own
    summaries: an import other than matplotlib.pyplot and sketchkrr, or a
    use of ``csv``."""
    faults = sorted(plot_script_imports(source) - {"matplotlib.pyplot", "sketchkrr"})
    return faults + [f"csv on line {line}" for line in potrs_uses(source, {"csv"})]


def test_plot_script_plots_the_package_summaries():
    from sketchkrr import emit_plot_script

    script = emit_plot_script("results.csv")
    assert plot_script_faults(script) == []
    assert plot_script_imports(script) == {"matplotlib.pyplot", "sketchkrr"}


@pytest.mark.parametrize(
    "line",
    [
        "import csv",
        "from csv import DictReader",
        "rows = csv.DictReader(fh)",
        "from math import isnan, sqrt",
        "from collections import defaultdict",
        "import numpy as np",
    ],
)
def test_plot_script_guard_sees_each_spelling(line):
    # a mutation of the emitted script, made in memory
    from sketchkrr import emit_plot_script

    script = emit_plot_script("results.csv")
    assert plot_script_faults(f"{script}\n{line}\n")
