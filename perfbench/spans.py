"""Spans around the public functions of each fourspace layer, wrapped from outside.

A Tracer replaces every binding of a wrapped function in the loaded
``fourspace`` modules (and the wrapped ExactMatrix methods) with a wrapper
that appends one span per call: name, start, end, parent span and op id,
plus optional counts computed from the call's arguments or result.  Spans
stay in memory; ``write`` dumps them as JSON lines when the run ends.

Nothing inside ``src/`` is edited: the program runs unchanged with the
tracer uninstalled, which is how end-to-end numbers are measured.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _rank_counts(args, result):
    m = args[0]
    return {"entries": m.rows * m.cols}


def _shape_counts(args, result):
    return {"rows": result.rows, "cols": result.cols}


def _oracle_counts(args, result):
    # unknowns and equations of the linearized system, from dimension
    # vectors alone: F_v is m_v x n_v, and relation t has m_0 x n_t entries
    n, m = args[0].dim_vector(), args[1].dim_vector()
    return {
        "unknowns": sum(mv * nv for mv, nv in zip(m, n)),
        "equations": sum(m[0] * n[t] for t in range(1, 5)),
    }


# (span name, module, attribute, counts hook).  Several functions may share
# one span name; busy time then counts only the outermost span of the name.
FUNCTIONS = (
    ("exactmat.assembly", "fourspace.exactmat", "block_grid", None),
    ("exactmat.assembly", "fourspace.exactmat", "hstack", None),
    ("exactmat.assembly", "fourspace.exactmat", "vstack", None),
    ("catalog.build", "fourspace.catalog", "build", None),
    ("modules.base_change", "fourspace.modules", "base_change", None),
    ("homdim.hom_dim", "fourspace.homdim", "hom_dim", None),
    ("homdim.coeff_matrix", "fourspace.homdim", "coeff_matrix", _shape_counts),
    ("oracle.hom_oracle", "fourspace.oracle", "hom_oracle", _oracle_counts),
    ("decomp.decompose", "fourspace.decomp", "decompose", None),
    ("verify.run_sweep", "fourspace.verify", "run_sweep", None),
)

# (span name, module, class, method, counts hook)
METHODS = (
    ("exactmat.rank", "fourspace.exactmat", "ExactMatrix", "rank", _rank_counts),
    ("exactmat.invert", "fourspace.exactmat", "ExactMatrix", "invert", None),
    ("exactmat.matmul", "fourspace.exactmat", "ExactMatrix", "__matmul__", None),
)


class Tracer:
    """In-memory span recorder; ``op`` tags every span started while it is set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op, counts]
        self._stack = []
        self.op = None
        self._patches = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return wrapper

    def prepare(self):
        """Find every binding to wrap; call once, after fourspace is imported.

        Exits nonzero if a wrapped name is missing, so a renamed function
        cannot read as a layer whose counts and times dropped to zero.
        """
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "fourspace" or key.startswith("fourspace."))
        ]
        for name, modname, attr, counts in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                sys.exit(f"error: cannot trace {modname}.{attr}: not found")
            wrapper = self._wrap(name, orig, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig, wrapper))
        for name, modname, clsname, attr, counts in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            orig = cls.__dict__.get(attr)
            if orig is None:
                sys.exit(f"error: cannot trace {modname}.{clsname}.{attr}: not found")
            self._patches.append((cls, attr, orig, self._wrap(name, orig, counts)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans, ops=None):
    """Per span name: calls, busy seconds, self seconds and summed counts.

    Only spans whose op is in ``ops`` count (all spans when ops is None).
    Busy time sums only spans with no ancestor of the same name, so nested
    or recursive calls are not counted twice.  Self time of a span is its
    duration minus the part covered by its direct children (which run one
    after another, so coverage is the sum of their durations).
    """
    child_time = [0.0] * len(spans)
    outer_names = [()] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            outer_names[i] = outer_names[parent] + (spans[parent][0],)
    out = {}
    for i, (name, start, end, _, op, counts) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        if name not in outer_names[i]:
            rec["s"] += end - start
        rec["self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            rec[key] = rec.get(key, 0) + value
    return out
