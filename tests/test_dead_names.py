"""Every private module-level name in the package is used somewhere in it."""

import ast
from pathlib import Path

import fourspace

PACKAGE = Path(fourspace.__file__).parent


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used_names(stmt):
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def dead_private_names(package_dir):
    """["module.name", ...] for private top-level names no other statement reads.

    A statement's own body does not count, so a function that only calls
    itself is dead too.  Imports do not count either: an imported name must
    still be read.
    """
    statements = []  # (module, statement, names it reads)
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.stem, s, _used_names(s)) for s in tree.body]
    dead = []
    for module, stmt, _ in statements:
        for name in _defined_names(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in used for _, other, used in statements if other is not stmt):
                dead.append(f"{module}.{name}")
    return dead


def test_no_dead_private_names():
    assert dead_private_names(PACKAGE) == []


def test_dead_name_guard_sees_a_dead_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIVE = 1\n_DEAD = 2\n\ndef _loop(n):\n    return _loop(n - 1)\n\n"
        "def _helper():\n    return 3\n"
    )
    (tmp_path / "b.py").write_text("from .a import _LIVE, _helper\n\nX = _helper() + _LIVE\n")
    assert dead_private_names(tmp_path) == ["a._DEAD", "a._loop"]
