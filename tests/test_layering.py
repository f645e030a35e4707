"""Only exactmat reads the elimination's internals, and the CLI reads no
private name.

The other modules drive the elimination loop through the working copy,
the loop, the split and a scaled row; the pivot forms and the reduction
of a row against them stay inside exactmat, so their format can change
there alone.  The CLI is a front end: it imports only public names from
the package, so a private protocol is written once, behind one of them.
"""

import ast
from pathlib import Path

import fourspace

PACKAGE = Path(fourspace.__file__).parent

# the private _Field attributes another module may read
ENTRY_POINTS = {"_start", "_split", "_eliminate", "_scaled"}


def _field_privates(tree):
    """The private names _Field and its subclasses define."""
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef)]
    fields = {"_Field"}
    fields.update(c.name for c in classes
                  if any(isinstance(b, ast.Name) and b.id == "_Field" for b in c.bases))
    names = set()
    for c in classes:
        if c.name not in fields:
            continue
        for stmt in c.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return {x for x in names if x.startswith("_") and not x.startswith("__")}


def field_internals_read(package_dir):
    """["module.name", ...]: the private _Field attributes outside
    ENTRY_POINTS that a module other than exactmat reads."""
    exactmat = package_dir / "exactmat.py"
    private = _field_privates(ast.parse(exactmat.read_text(encoding="utf-8"))) - ENTRY_POINTS
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        if path == exactmat:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(f"{path.stem}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in private)
    return sorted(found)


def test_only_exactmat_reads_the_pivot_forms():
    assert field_internals_read(PACKAGE) == []


def test_layering_guard_sees_a_planted_read(tmp_path):
    (tmp_path / "exactmat.py").write_text(
        "class _Field:\n    def _split(self, rows, n):\n        pass\n\n"
        "    def _reduce(self, row, lead, start=None):\n        pass\n\n\n"
        "class PrimeField(_Field):\n    def _pivot(self, row, c):\n        pass\n\n"
        "    def __eq__(self, other):\n        pass\n\n\n"
        "class ExactMatrix:\n    def _raw(self):\n        pass\n"
    )
    (tmp_path / "homdim.py").write_text(
        "def step(field, rows, lead, m):\n"
        "    field._reduce(rows[0], lead)\n"
        "    m._raw()\n"
        "    return field._split(rows, 0)\n"
    )
    (tmp_path / "oracle.py").write_text("def f(field, row):\n    return field._pivot(row, 0)\n")
    assert field_internals_read(tmp_path) == ["homdim._reduce", "oracle._pivot"]


def private_imports(path):
    """["module._name", ...]: the _-prefixed names path imports from the
    package, relatively or as fourspace.*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted(f"{node.module}.{alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "fourspace")
                  for alias in node.names if alias.name.startswith("_"))


def test_cli_imports_no_private_name():
    assert private_imports(PACKAGE / "cli.py") == []


def test_private_import_guard_sees_a_planted_import(tmp_path):
    cli = tmp_path / "cli.py"
    cli.write_text(
        "from __future__ import annotations\n\n"
        "import os\n"
        "from os import _exit\n\n"
        "from fourspace.exactmat import QQ, _zero_array\n"
        "from .oracle import _nullity, _source, hom_oracle\n"
        "from .verify import _catalog_target, run_sweep\n"
    )
    assert private_imports(cli) == [
        "fourspace.exactmat._zero_array", "oracle._nullity", "oracle._source",
        "verify._catalog_target",
    ]
