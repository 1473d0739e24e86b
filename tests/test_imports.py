"""Static check: every module of the package uses each name it imports."""

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


def test_sources_parse_as_python_3_10():
    # the oldest interpreter that pyproject's requires-python admits
    root = Path(__file__).resolve().parents[1]
    files = sorted(p for d in ("src/amok", "tests", "perfbench")
                   for p in (root / d).rglob("*.py"))
    assert root / "src" / "amok" / "cli.py" in files
    for p in files:
        ast.parse(p.read_text(), filename=str(p), feature_version=(3, 10))
