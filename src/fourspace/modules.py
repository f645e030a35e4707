"""Data model for modules over the four subspace algebra.

A module is a quadruple (A, B, C, D) of matrices over one field, all
sharing their row count n_0: matrix i is the inclusion-like map from
subspace slot i into the common ambient space at vertex 0.
"""

from __future__ import annotations

from collections import namedtuple

from .exactmat import (
    DimensionMismatch,
    ExactMatrix,
    FieldMismatch,
    direct_sum,
    field_from_spec,
    random_matrix,
    zeros,
)

SLOT_NAMES = ("A", "B", "C", "D")


class LambdaModule(namedtuple("LambdaModule", SLOT_NAMES)):
    """Quadruple (A, B, C, D); rows(A) = rows(B) = rows(C) = rows(D) = n_0."""

    __slots__ = ()

    def __new__(cls, A, B, C, D):
        self = tuple.__new__(cls, (A, B, C, D))
        f = A.field
        for name, m in zip(SLOT_NAMES, self):
            if m.field != f:
                raise FieldMismatch(f"slot {name}: {m.field} differs from {f}")
        n0 = A.rows
        for name, m in zip(SLOT_NAMES, self):
            if m.rows != n0:
                raise DimensionMismatch(
                    f"slot {name}: {m.rows} rows, expected n_0 = {n0}"
                )
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: the new letters are checked too
        return cls(*iterable)

    def mats(self):
        return self

    @property
    def field(self):
        return self.A.field

    @property
    def n0(self):
        return self.A.rows

    def dim_vector(self):
        return (self.n0, self.A.cols, self.B.cols, self.C.cols, self.D.cols)


def dim_vector(m):
    return m.dim_vector()


def module_direct_sum(m, mp):
    """Componentwise block-diagonal sum; dim vectors add."""
    if m.field != mp.field:
        raise FieldMismatch(f"direct sum over {m.field} vs {mp.field}")
    return LambdaModule(*(direct_sum(x, y) for x, y in zip(m.mats(), mp.mats())))


# -- vertex permutations ----------------------------------------------------
#
# A permutation of the subspace vertices {1,2,3,4} is a 4-tuple s with
# s[i-1] = sigma(i).  sigma relocates slot contents: slot sigma(i) of the
# result holds slot i of the input, so the 4-cycle (1 2 3 4) maps
# (A, B, C, D) to (D, A, B, C).

PERM_IDENTITY = (1, 2, 3, 4)
PERM_CYCLE = (2, 3, 4, 1)


def check_permutation(sigma):
    if sorted(sigma) != [1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 1..4: {sigma}")
    return tuple(sigma)


def perm_inverse(sigma):
    inv = [0] * 4
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def perm_compose(tau, sigma):
    """First apply sigma, then tau."""
    return tuple(tau[s - 1] for s in sigma)


def permute_slots(slots, sigma):
    """The four slots (A, B, C, D) relocated by sigma, as a tuple."""
    sigma = check_permutation(sigma)
    out = [None] * 4
    for i in range(4):
        out[sigma[i] - 1] = slots[i]
    return tuple(out)


def permute_vertices(m, sigma):
    return LambdaModule(*permute_slots(m.mats(), sigma))


def zero_module(field):
    return LambdaModule(*(zeros(field, 0, 0) for _ in range(4)))


def base_change(m, u, vs):
    """Isomorphic twist (U A V_1, U B V_2, U C V_3, U D V_4).

    u must be invertible n_0 x n_0 and each vs[i] invertible n_i x n_i;
    invertibility is the caller's responsibility (rank checks are not
    repeated here).
    """
    if len(vs) != 4:
        raise ValueError("need exactly four column-side matrices")
    return LambdaModule(*(u @ x @ v for x, v in zip(m.mats(), vs)))


def random_module(field, rng, max_dim=6):
    """Random module with every dimension drawn uniformly from 0..max_dim."""
    n0 = rng.randint(0, max_dim)
    return LambdaModule(
        *(random_matrix(field, n0, rng.randint(0, max_dim), rng) for _ in range(4))
    )


# -- Euler form --------------------------------------------------------------


def euler_form(d, e):
    """Euler form of the four subspace quiver (arrows i -> 0, i = 1..4).

    <d, e> = sum_v d_v e_v - sum_{i=1..4} d_i e_0.  For modules M, N this
    equals dim Hom(M, N) - dim Ext^1(M, N).
    """
    if len(d) != 5 or len(e) != 5:
        raise ValueError("dimension vectors have five entries")
    return sum(dv * ev for dv, ev in zip(d, e)) - sum(d[i] for i in range(1, 5)) * e[0]


# -- serialization ------------------------------------------------------------
#
# Canonical record: {"field_spec": ..., "A": {"rows": r, "cols": c,
# "entries": [...]}, ...} with entries as row-major strings so exact
# rationals survive JSON.  Explicit rows/cols let 0-dimension matrices
# round-trip.


def matrix_to_record(m):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [m.field.format(x) for x in m.entries_rowmajor()],
    }


def matrix_from_record(field, rec, slot=""):
    try:
        rows, cols, entries = rec["rows"], rec["cols"], rec["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix record {slot or '?'}: missing {exc}") from None
    # JSON integers and a JSON array, as matrix_to_record writes them: a
    # float, bool or string would otherwise be read as some other shape
    for key, value in (("rows", rows), ("cols", cols)):
        if type(value) is not int:
            raise ValueError(f"matrix record {slot}: {key} {value!r} is not an integer")
    if type(entries) is not list:
        raise ValueError(f"matrix record {slot}: entries are a {type(entries).__name__}, not an array")
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix record {slot}: negative shape {rows}x{cols}")
    if len(entries) != rows * cols:
        raise ValueError(
            f"matrix record {slot}: {len(entries)} entries for a {rows}x{cols} matrix"
        )
    try:
        vals = [field.parse(str(x)) for x in entries]
    except ValueError as exc:
        raise ValueError(f"matrix record {slot}: {exc}") from None
    grid = [vals[i * cols : (i + 1) * cols] for i in range(rows)]
    return ExactMatrix(field, grid, shape=(rows, cols))


def module_to_record(m):
    rec = {"field_spec": m.field.spec()}
    for name, mx in zip(SLOT_NAMES, m.mats()):
        rec[name] = matrix_to_record(mx)
    return rec


def module_from_record(rec):
    if "field_spec" not in rec:
        raise ValueError("module record: missing field_spec")
    field = field_from_spec(rec["field_spec"])
    mats = []
    for name in SLOT_NAMES:
        if name not in rec:
            raise ValueError(f"module record: missing matrix {name}")
        mats.append(matrix_from_record(field, rec[name], slot=name))
    return LambdaModule(*mats)
