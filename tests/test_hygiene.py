"""Source hygiene: no module imports a name it never uses.

A stdlib ``ast`` scan over ``src/`` and ``tests/``. Package ``__init__.py``
files are skipped, since their imports are re-exports, and so is
``tests/test_acceptance.py``, which is kept as written.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {ROOT / "tests" / "test_acceptance.py"}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, also inside string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
            if name not in used]


def scanned_files() -> list[Path]:
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    return [p for p in files if p.name != "__init__.py" and p not in SKIPPED]


def test_no_unused_imports():
    found = [line for path in scanned_files() for line in unused_imports(path)]
    assert found == []


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport json as j\nfrom typing import Any, List\n"
                    "x: 'Any' = j.dumps(1)\n")
    tree = ast.parse(path.read_text())
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["List", "os"]
