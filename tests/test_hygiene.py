"""Source hygiene: no module imports a name it never uses, no closure in
``src/`` captures exactly 20 names, and one helper makes every trainable tensor.

The import check is a stdlib ``ast`` scan over ``src/`` and ``tests/``.
Package ``__init__.py`` files are skipped, since their imports are
re-exports, and so is ``tests/test_acceptance.py``, which is kept as written.

CPython 3.11 puts every freed 20-item tuple on a free list that it never
allocates from, up to 2000 of them; a closure's cells are such a tuple when it
captures 20 names, so each call that makes one (an autodiff backward, say)
strands 184 bytes until the process holds about 360 KB of them.
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


def closure_sizes(code) -> list[tuple[str, int]]:
    """(qualified name, captured names) of every function nested in ``code``."""
    out = []
    for const in code.co_consts:
        if hasattr(const, "co_freevars"):
            if const.co_freevars:
                out.append((const.co_qualname, len(const.co_freevars)))
            out += closure_sizes(const)
    return out


def test_no_closure_captures_twenty_names():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for name, size in closure_sizes(compile(path.read_text(encoding="utf-8"),
                                                     str(path), "exec"))
             if size == 20]
    assert found == []


def test_scan_finds_a_twenty_name_closure():
    names = [f"a{i}" for i in range(20)]
    source = (f"def f({', '.join(names)}):\n"
              f"    def g():\n        return ({', '.join(names)})\n    return g\n")
    assert closure_sizes(compile(source, "m.py", "exec")) == [("f.<locals>.g", 20)]


def test_trainable_tensors_are_made_by_one_helper():
    # numerics.Params draws each model tensor or takes it from a checkpoint;
    # gradcheck makes the inputs it differentiates
    allowed = {ROOT / "src" / "claimforge" / "numerics" / name
               for name in ("params.py", "gradcheck.py")}
    found = [f"{path.relative_to(ROOT)}:{lineno}"
             for path in sorted((ROOT / "src").rglob("*.py")) if path not in allowed
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "requires_grad=True" in line]
    assert found == []
