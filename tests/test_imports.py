"""Static checks: every module of the package uses each name it imports,
loads at import time only the modules of an allowlist, and reaches the
LAPACK solvers only through ``kernel``."""

import ast
from pathlib import Path

import amok

PACKAGE = Path(amok.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read in the module
    (``__future__`` imports and names listed in ``__all__`` count as used)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_package_has_no_unused_imports():
    # the scan itself sees an unused name
    probe = "import json\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(probe) == [(1, "json"), (2, "sep")]
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


# The modules outside the package that may be loaded when the package is
# imported.  Every command pays for their import, so a new one must be
# added here on purpose; others are imported inside the function that
# needs them (suites imports traceback only in a failing worker).
IMPORT_ALLOWLIST = {"__future__", "argparse", "contextlib", "contextvars",
                    "dataclasses", "functools", "json", "math", "numbers",
                    "numpy", "os", "pickle", "sys", "time", "typing"}


def module_level_imports(source: str) -> list:
    """(line, top-level module) of each import outside the package that
    runs when the module is imported: every one not inside a function."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name.split(".")[0])
                             for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.level == 0:
                    found.append((child.lineno, child.module.split(".")[0]))
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda)):
                visit(child)

    visit(ast.parse(source))
    return [(line, name) for line, name in found if name != "amok"]


def test_package_imports_only_allowlisted_modules_at_import_time():
    # the scan itself sees a module-level import, also in a class body or
    # a branch, and skips imports inside functions and of the package
    probe = ("import json, traceback\nfrom . import model\n"
             "from amok.errors import AmokError\n"
             "if True:\n    import itertools\nclass C:\n    import re\n"
             "def f():\n    import pickle\n")
    assert module_level_imports(probe) == [
        (1, "json"), (1, "traceback"), (5, "itertools"), (7, "re")]
    found = {p.name: [(line, name) for line, name
                      in module_level_imports(p.read_text())
                      if name not in IMPORT_ALLOWLIST]
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


# The numpy.linalg solvers that only kernel.py may call; the scan leaves
# det, qr and the norms other than the spectral ones, which other modules
# use, alone.
KERNEL_SOLVERS = {"eigh", "eigvalsh", "cholesky", "svd"}
# the orders at which numpy.linalg.norm of a matrix runs an SVD
SVD_NORM_ORDERS = (2, -2, "nuc")


def _on_linalg(node) -> bool:
    """Whether node reads an attribute of ``np.linalg`` or ``linalg``."""
    base = node.value
    return (isinstance(base, ast.Attribute) and base.attr == "linalg"
            or isinstance(base, ast.Name) and base.id == "linalg")


def _svd_norm(call: ast.Call) -> bool:
    """Whether call is a ``linalg.norm`` whose ``ord``, by position or
    keyword, is one of ``SVD_NORM_ORDERS``."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "norm"
            and _on_linalg(func)):
        return False
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    for node in ords:
        try:
            if ast.literal_eval(node) in SVD_NORM_ORDERS:
                return True
        except ValueError:
            pass
    return False


def solver_uses(source: str) -> list:
    """(line, name) of each use of NumPy's LAPACK gufunc module
    ``_umath_linalg``, of each read of a ``KERNEL_SOLVERS`` attribute of
    ``numpy.linalg`` (``np.linalg.eigh``, ``linalg.svd``, or imported
    from ``numpy.linalg``) and of each ``linalg.norm`` call at an order
    that runs an SVD."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_umath_linalg":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Call) and _svd_norm(node):
            found.append((node.lineno, "norm"))
        elif isinstance(node, ast.Attribute):
            if (node.attr == "_umath_linalg"
                    or _on_linalg(node) and node.attr in KERNEL_SOLVERS):
                found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                name = f"{module}.{alias.name}"
                if ("_umath_linalg" in name
                        or module == "numpy.linalg"
                        and alias.name in KERNEL_SOLVERS):
                    found.append((node.lineno, alias.name))
    return sorted(found)


def test_only_the_kernel_calls_the_lapack_solvers():
    # the scan itself sees each form, and leaves det, qr and the norms
    # that run no SVD alone
    probe = ("import numpy as np\nfrom numpy import linalg\n"
             "from numpy.linalg import _umath_linalg, cholesky, qr\n"
             "import numpy.linalg._umath_linalg as g\n"
             "np.linalg.eigh(a); linalg.svd(a); np.linalg._umath_linalg\n"
             "_umath_linalg.eigvalsh_lo(a); np.linalg.det(a)\n"
             "np.linalg.norm(a); np.linalg.qr(a); kernel.svd_stack(a)\n"
             "np.linalg.norm(a, 2); linalg.norm(a, ord=-2)\n"
             "np.linalg.norm(a, 'nuc'); np.linalg.norm(x=a, ord='nuc')\n"
             "np.linalg.norm(a, axis=(1, 2)); np.linalg.norm(a, 1)\n"
             "linalg.norm(a, 'fro', (1, 2)); np.linalg.norm(a, ord=k)\n")
    assert solver_uses(probe) == [
        (3, "_umath_linalg"), (3, "cholesky"),
        (4, "numpy.linalg._umath_linalg"), (5, "_umath_linalg"),
        (5, "eigh"), (5, "svd"), (6, "_umath_linalg"),
        (8, "norm"), (8, "norm"), (9, "norm"), (9, "norm")]
    found = {p.name: solver_uses(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "kernel.py"}
    assert {k: v for k, v in found.items() if v} == {}
    assert solver_uses((PACKAGE / "kernel.py").read_text())


def test_sources_parse_as_python_3_10():
    # the oldest interpreter that pyproject's requires-python admits
    root = Path(__file__).resolve().parents[1]
    files = sorted(p for d in ("src/amok", "tests", "perfbench")
                   for p in (root / d).rglob("*.py"))
    assert root / "src" / "amok" / "cli.py" in files
    for p in files:
        ast.parse(p.read_text(), filename=str(p), feature_version=(3, 10))
