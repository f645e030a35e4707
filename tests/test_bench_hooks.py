"""The benchmark's hooks into the package stay in place.

perfbench/spans.py wraps package functions and methods by name, and a
traced run exits nonzero when one of them is gone.  Its verify-sweep
report divides the oracle's seconds by hom_dim's, so a sweep whose
hom_vector no longer sends a closed-form target through hom_dim fails it
too.  These tests read perfbench/ and change nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

from fourspace import homdim
from fourspace.catalog import EnumerationBounds
from fourspace.exactmat import PrimeField
from fourspace.verify import run_sweep

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the lookups Tracer.prepare makes, which exit when one finds nothing
    spans = _spans()
    assert spans.FUNCTIONS and spans.METHODS
    for _, modname, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"
    for _, modname, clsname, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(cls.__dict__.get(attr)), f"{modname}.{clsname}.{attr}"


def test_a_sweep_reaches_hom_dim(monkeypatch):
    # verify-sweep's bounds and field, one trial
    calls = []
    hom_dim = homdim.hom_dim

    def spied(M, desc):
        calls.append(desc)
        return hom_dim(M, desc)

    monkeypatch.setattr(homdim, "hom_dim", spied)
    gf = PrimeField(32003)
    bounds = EnumerationBounds(4, 4, (gf.coerce(2), gf.coerce(5)))
    assert run_sweep(gf, bounds, 1, 7) == []
    assert calls
