"""Every private module-level name in the package is used somewhere in
it, and every public name of exactmat is read outside the tests."""

import ast
from pathlib import Path

import fourspace

PACKAGE = Path(fourspace.__file__).parent
REPO = Path(__file__).resolve().parents[1]

# what ExactMatrix defines beyond its public methods: construction,
# immutability, pickling, value semantics, display and the product
EXACTMATRIX_DUNDERS = {
    "__init__", "__setattr__", "__reduce__", "__eq__", "__hash__", "__repr__", "__matmul__",
}


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


def _strings(tree):
    # a name passed as text, as getattr and perfbench's span table do
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
            and isinstance(n.value, str)}


def unread_exactmat_surface(source, readers):
    """(unread, dunders) for exactmat's source and the sources that may
    read it.

    unread lists the public ExactMatrix methods ("ExactMatrix.name") that
    no reader reads as an attribute or a string, and the public
    module-level functions no reader reads as a name, an attribute or a
    string.  A method must be read as one: a local variable of the same
    name does not keep it.  dunders is the set of dunder methods
    ExactMatrix defines.

    Matching is by bare name, whatever object the attribute is read
    from: any reader's `.rank` or `"invert"` keeps the method of that
    name.  The guard over-counts, so it catches only a name that nothing
    outside the tests reads at all.
    """
    attrs, names = set(), set()
    for text in readers:
        tree = ast.parse(text)
        strings = _strings(tree)
        attrs |= strings | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= strings | _used_names(tree)
    unread, dunders = [], set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            if stmt.name not in names:
                unread.append(stmt.name)
        elif isinstance(stmt, ast.ClassDef) and stmt.name == "ExactMatrix":
            for m in stmt.body:
                if not isinstance(m, ast.FunctionDef):
                    continue
                if m.name.startswith("__"):
                    dunders.add(m.name)
                elif not m.name.startswith("_") and m.name not in attrs:
                    unread.append(f"ExactMatrix.{m.name}")
    return unread, dunders


def test_exactmat_keeps_only_what_is_read_outside_the_tests():
    # the package, the benchmark and the CI checks are exactmat's readers;
    # a name that only tests reach goes, and its tests with it
    exactmat = PACKAGE / "exactmat.py"
    readers = [p for p in sorted(PACKAGE.glob("*.py")) if p != exactmat]
    readers += sorted((REPO / "perfbench").glob("*.py")) + sorted((REPO / ".github").glob("*.py"))
    assert any(p.parent.name == "perfbench" for p in readers)
    assert any(p.parent.name == ".github" for p in readers)
    unread, dunders = unread_exactmat_surface(
        exactmat.read_text(encoding="utf-8"), [p.read_text(encoding="utf-8") for p in readers]
    )
    assert (unread, dunders) == ([], EXACTMATRIX_DUNDERS)


def test_exactmat_surface_guard_sees_unread_names():
    source = (
        "class ExactMatrix:\n"
        "    def __init__(self): pass\n"
        "    def __add__(self, o): pass\n"
        "    def rank(self): pass\n"
        "    def invert(self): pass\n"
        "    def scale(self, c): pass\n"
        "    def _raw(self): pass\n\n"
        "def zeros(f, m, n): pass\n\n"
        "def mat(f, rows): pass\n"
    )
    reader = "m.rank()\nwrap(ExactMatrix, 'invert')\nz = zeros\nscale = 2\nprint(scale)\n"
    assert unread_exactmat_surface(source, [reader]) == (
        ["ExactMatrix.scale", "mat"], {"__init__", "__add__"}
    )
