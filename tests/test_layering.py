"""Only exactmat reads the elimination's internals, the CLI reads no
private name, and the package runs without numpy.

The other modules drive the elimination loop through the working copy,
the loop, the split and a scaled row; the pivot forms and the reduction
of a row against them stay inside exactmat, so their format can change
there alone.  The CLI is a front end: it imports only public names from
the package, so a private protocol is written once, behind one of them.
Every matrix is rows of Python scalars, so no module imports numpy, and
the console commands print the same where numpy cannot be imported.  The
value types are namedtuples, so no module imports dataclasses, and the
import of the CLI loads none of what dataclasses would bring along.
"""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import fourspace
from fourspace import catalog as cat
from fourspace.exactmat import PrimeField
from fourspace.modules import module_to_record
from fourspace.verify import disguised_sum

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


def imports_of(package_dir, top):
    """["module:line", ...]: each import of the module top, or of a
    submodule of it, in the modules of package_dir."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(x.split(".")[0] == top for x in names):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_imports_numpy():
    assert imports_of(PACKAGE, "numpy") == []


def test_numpy_guard_sees_a_planted_import(tmp_path):
    (tmp_path / "exactmat.py").write_text("import math\nimport numpy as np\n")
    (tmp_path / "homdim.py").write_text(
        "def f():\n    from numpy.linalg import matrix_rank\n    return matrix_rank\n")
    (tmp_path / "oracle.py").write_text("from . import numpy_free\nimport numpyish\n")
    assert imports_of(tmp_path, "numpy") == ["exactmat:2", "homdim:2"]


def test_no_module_imports_dataclasses():
    assert imports_of(PACKAGE, "dataclasses") == []


def test_dataclasses_guard_sees_a_planted_import(tmp_path):
    (tmp_path / "catalog.py").write_text(
        "from collections import namedtuple\nfrom dataclasses import dataclass\n")
    (tmp_path / "modules.py").write_text("import dataclassy\nimport os, dataclasses as dc\n")
    (tmp_path / "verify.py").write_text("from .dataclasses import replace\n")
    assert imports_of(tmp_path, "dataclasses") == ["catalog:2", "modules:2"]


def _package_env():
    """The environment of a fresh process that imports this package."""
    src = str(PACKAGE.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# what dataclasses loads and runs at import, and the import of the CLI
# must not: it runs in a fresh process, since pytest loads them itself
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "dis"}


def test_cli_import_loads_no_dataclasses_machinery():
    code = ("import sys\nbare = set(sys.modules)\nimport fourspace.cli\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          encoding="utf-8", env=_package_env(), timeout=300, check=True)
    added = set(proc.stdout.split())
    assert "fourspace.cli" in added
    assert added & SLOW_IMPORTS == set()


# the console commands run with numpy blocked: {module} is a disguised
# sum over GF(32003), whose summands decompose finds within its bounds
NO_NUMPY_COMMANDS = [
    ["catalog", "P(3,1)"],
    ["homdim", "{module}", "--all", "--max-n", "4", "--max-l", "2", "--lambda", "2"],
    ["decompose", "{module}", "--max-n", "3", "--max-l", "2", "--lambda", "2"],
    ["verify", "--trials", "2"],
]


def _console(args, block_numpy):
    """(exit status, stdout, stderr) of fourspace.cli.main(args) in a fresh
    process whose sys.modules maps numpy to None if block_numpy, so that
    any import of numpy raises ImportError."""
    block = 'sys.modules["numpy"] = None\n' if block_numpy else ""
    code = f"import sys\n{block}from fourspace.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          encoding="utf-8", env=_package_env(), timeout=300, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_console_commands_print_the_same_without_numpy(tmp_path):
    gf = PrimeField(32003)
    m = disguised_sum(gf, [cat.R(1, 2), cat.P(2, 1), cat.I(1, 0)], random.Random(1))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_to_record(m)))
    for command in NO_NUMPY_COMMANDS:
        args = [str(path) if x == "{module}" else x for x in command]
        blocked = _console(args, block_numpy=True)
        assert blocked == _console(args, block_numpy=False), command
        code, out, err = blocked
        assert code == 0 and out and err == "", (command, err)
