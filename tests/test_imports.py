"""Static checks: every module of the package uses each name it imports,
loads at import time only the modules of an allowlist, reaches the
LAPACK solvers only through ``kernel``, uses every error class it
defines, and imports its own modules without a cycle, with ``suites``
on top."""

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


def dead_error_classes(errors_source: str, other_sources) -> list:
    """Classes defined in ``errors_source`` that none of ``other_sources``
    names outside an import statement, so that no other module raises,
    catches, subclasses or tabulates them (as ``Name`` or as
    ``errors.Name``)."""
    defined = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    named = set()
    for source in other_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "errors"):
                named.add(node.attr)
    return [name for name in defined if name not in named]


def test_every_error_class_is_used_outside_errors():
    # the scan itself flags a class that is only defined, subclassed in
    # its own module or imported, and counts each kind of use elsewhere
    probe = "".join(f"class {name}({base}):\n    pass\n" for name, base in [
        ("Base", "Exception"), ("Raised", "Base"), ("Caught", "Base"),
        ("Tabled", "Base"), ("Extended", "Base"), ("Imported", "Base"),
        ("Dead", "Raised")])
    users = ["from .errors import Base, Imported, Raised\n"
             "try:\n    raise Raised('x')\nexcept (Base, KeyError):\n"
             "    pass\n",
             "from . import errors\nTABLE = {'a': errors.Tabled}\n"
             "GROUP = (errors.Caught,)\n"
             "class Local(errors.Extended):\n    pass\n"]
    assert dead_error_classes(probe, users) == ["Imported", "Dead"]
    others = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "errors.py"]
    assert dead_error_classes((PACKAGE / "errors.py").read_text(),
                              others) == []


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


def internal_imports(source: str) -> set:
    """The modules of the package that a module imports, by
    ``from . import a, b`` or by ``from .a import name``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_faults(graph: dict) -> list:
    """The faults of an import graph {module: modules it imports}: each
    module but ``cli`` that imports ``suites``, then the first cycle a
    depth-first search in name order meets, from the module it re-enters
    around to that module again."""
    faults = [("imports suites", m) for m in sorted(graph)
              if m != "cli" and "suites" in graph[m]]
    done, path = set(), []

    def visit(m):
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if n in path:
                return path[path.index(n):] + [n]
            if n not in done and (cycle := visit(n)):
                return cycle
        done.add(path.pop())
        return None

    for m in sorted(graph):
        if m not in done and (cycle := visit(m)):
            return faults + [("cycle", cycle)]
    return faults


def test_internal_imports_form_no_cycle_and_only_cli_imports_suites():
    # the scan itself reads both relative forms and nothing else, and
    # flags a cycle and a second importer of suites
    probe = ("from . import kernel, model as m\nfrom .algebra import zero\n"
             "from amok import rand\nimport os\n"
             "def f():\n    from .errors import AmokError\n")
    assert internal_imports(probe) == {"kernel", "model", "algebra", "errors"}
    assert import_faults({"a": {"b"}, "b": {"c"}, "c": {"a", "d"},
                          "d": set()}) == [("cycle", ["a", "b", "c", "a"])]
    assert import_faults({"cli": {"suites", "kgroups"},
                          "kgroups": {"suites"}, "suites": set()}) == [
        ("imports suites", "kgroups")]
    graph = {p.stem: internal_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert "suites" in graph["cli"]
    assert import_faults(graph) == []


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
