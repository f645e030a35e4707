from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourspace import exactmat
from fourspace.exactmat import (
    QQ,
    DimensionMismatch,
    FieldMismatch,
    PrimeField,
    identity,
    random_invertible,
    zeros,
)
from fourspace.modules import (
    PERM_CYCLE,
    PERM_IDENTITY,
    LambdaModule,
    base_change,
    dim_vector,
    euler_form,
    module_direct_sum,
    module_from_record,
    module_to_record,
    perm_compose,
    perm_inverse,
    permute_vertices,
    random_module,
    zero_module,
)

GF = PrimeField(32003)

perms = st.sampled_from(list(permutations((1, 2, 3, 4))))
dims = st.tuples(*(st.integers(0, 3) for _ in range(5)))


def test_row_count_mismatch_names_slot(field):
    # by position, by keyword and through _replace alike
    good, tall = zeros(field, 2, 1), zeros(field, 3, 1)
    for build in (lambda: LambdaModule(good, good, tall, good),
                  lambda: LambdaModule(A=good, B=good, C=tall, D=good),
                  lambda: LambdaModule(good, good, good, good)._replace(C=tall)):
        with pytest.raises(DimensionMismatch, match="slot C: 3 rows, expected n_0 = 2"):
            build()


def test_field_mismatch_names_slot():
    good, other = zeros(QQ, 1, 1), zeros(GF, 1, 1)
    for build in (lambda: LambdaModule(good, other, good, good),
                  lambda: LambdaModule(A=good, B=other, C=good, D=good),
                  lambda: LambdaModule(good, good, good, good)._replace(B=other)):
        with pytest.raises(FieldMismatch, match=r"slot B: GF\(32003\) differs from QQ"):
            build()
    with pytest.raises(FieldMismatch, match=r"direct sum over QQ vs GF\(7\)"):
        module_direct_sum(zero_module(QQ), zero_module(PrimeField(7)))


def test_dim_vector(field):
    m = LambdaModule(zeros(field, 2, 1), zeros(field, 2, 0),
                     zeros(field, 2, 3), zeros(field, 2, 2))
    assert dim_vector(m) == (2, 1, 0, 3, 2)
    assert m.n0 == 2


def test_direct_sum_dims(field, rng):
    a = random_module(field, rng, max_dim=3)
    b = random_module(field, rng, max_dim=3)
    s = module_direct_sum(a, b)
    assert dim_vector(s) == tuple(x + y for x, y in zip(dim_vector(a), dim_vector(b)))


def test_zero_module(field):
    z = zero_module(field)
    assert dim_vector(z) == (0, 0, 0, 0, 0)
    assert module_direct_sum(z, z) == z


# -- permutations ----------------------------------------------------------


def test_cycle_moves_slot_contents(field):
    a, b, c, d = (zeros(field, 1, k) for k in (1, 2, 3, 4))
    m = permute_vertices(LambdaModule(a, b, c, d), PERM_CYCLE)
    # sigma(i) = i + 1 cyclically, so slot 1 of the result held slot 4 before
    assert dim_vector(m) == (1, 4, 1, 2, 3)
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.4: \(1, 1, 2, 3\)"):
        permute_vertices(m, (1, 1, 2, 3))


@given(perms, perms)
def test_permutation_action_composes(sigma, tau):
    m = random_module(QQ, __import__("random").Random(3), max_dim=2)
    lhs = permute_vertices(permute_vertices(m, sigma), tau)
    assert lhs == permute_vertices(m, perm_compose(tau, sigma))


@given(perms)
def test_perm_inverse_undoes(sigma):
    m = random_module(GF, __import__("random").Random(5), max_dim=2)
    assert permute_vertices(permute_vertices(m, sigma), perm_inverse(sigma)) == m
    assert perm_compose(sigma, perm_inverse(sigma)) == PERM_IDENTITY


# -- base change -----------------------------------------------------------


def test_base_change_preserves_dims(field, rng):
    m = random_module(field, rng, max_dim=3)
    u = random_invertible(field, m.n0, rng)
    vs = [random_invertible(field, w.cols, rng) for w in m.mats()]
    assert dim_vector(base_change(m, u, vs)) == dim_vector(m)


def test_base_change_identity_is_noop(field, rng):
    m = random_module(field, rng, max_dim=2)
    u = identity(field, m.n0)
    vs = [identity(field, w.cols) for w in m.mats()]
    assert base_change(m, u, vs) == m
    with pytest.raises(ValueError, match="need exactly four column-side matrices"):
        base_change(m, u, vs[:3])


# -- euler form -------------------------------------------------------------


@given(dims, dims, dims)
def test_euler_form_is_bilinear(d, e, f):
    s = tuple(x + y for x, y in zip(e, f))
    assert euler_form(d, s) == euler_form(d, e) + euler_form(d, f)
    s2 = tuple(x + y for x, y in zip(d, e))
    assert euler_form(s2, f) == euler_form(d, f) + euler_form(e, f)


@given(dims)
def test_euler_form_against_all_ones(d):
    # the all-ones vector is the dimension vector of I(0,0)
    assert euler_form(d, (1, 1, 1, 1, 1)) == d[0]


def test_euler_form_explicit():
    assert euler_form((2, 1, 1, 1, 1), (2, 1, 1, 1, 1)) == 2 * 2 + 4 - 4 * 2
    with pytest.raises(ValueError, match="dimension vectors have five entries"):
        euler_form((1, 1, 1, 1), (2, 1, 1, 1, 1))


# -- serialization -----------------------------------------------------------


def test_record_roundtrip(field, rng):
    # the letters read back are built from the scalars parse made, with no
    # second coerce: equal to those written, fractions (over QQ, from an
    # inverse) and zero-width letters included, and hashed alike
    for _ in range(5):
        m = random_module(field, rng, max_dim=3)
        inv = random_invertible(field, 3, rng).invert()
        for x in (m, LambdaModule(inv, zeros(field, 3, 0), inv @ inv, inv)):
            back = module_from_record(module_to_record(x))
            assert back == x and hash(back) == hash(x)


def test_record_roundtrip_zero_sizes(field):
    m = LambdaModule(zeros(field, 0, 2), zeros(field, 0, 0),
                     zeros(field, 0, 1), zeros(field, 0, 3))
    assert module_from_record(module_to_record(m)) == m


def test_record_rejects_bad_entry_count():
    rec = module_to_record(zero_module(QQ))
    rec["A"]["entries"] = ["1"]
    with pytest.raises(ValueError, match="matrix record A"):
        module_from_record(rec)


def test_record_rejects_missing_key():
    for key in ("C", "field_spec"):
        rec = module_to_record(zero_module(QQ))
        del rec[key]
        with pytest.raises(ValueError, match=key):
            module_from_record(rec)


# a record value of the wrong JSON type: a float or bool shape would be
# truncated or counted as 1, and a string of entries split into characters
LOOSE_RECORDS = {
    "float-rows": ("rows", 2.9, "rows 2.9 is not an integer"),
    "bool-rows": ("rows", True, "rows True is not an integer"),
    "string-cols": ("cols", "1", "cols '1' is not an integer"),
    "string-entries": ("entries", "1234", "entries are a str, not an array"),
    "negative-rows": ("rows", -2, "negative shape -2x2"),
    # None: the key is left out
    "missing-cols": ("cols", None, "missing 'cols'"),
}


@pytest.mark.parametrize("key, value, message", LOOSE_RECORDS.values(), ids=LOOSE_RECORDS)
def test_record_rejects_loose_types(key, value, message):
    rec = module_to_record(zero_module(QQ))
    rec["B"] = {"rows": 2, "cols": 2, "entries": ["1", "2", "3", "4"]}
    rec["A"] = rec["C"] = rec["D"] = {"rows": 2, "cols": 0, "entries": []}
    assert module_from_record(rec).B.rows == 2
    rec["B"] = {k: v for k, v in dict(rec["B"], **{key: value}).items() if v is not None}
    with pytest.raises(ValueError, match=f"matrix record B: {message}"):
        module_from_record(rec)


def test_a_record_too_large_for_memory_raises_before_building(monkeypatch):
    # 10^5 rows of no entries: each row is a tuple all the same
    monkeypatch.setattr(exactmat, "_MEMORY", 10**6)
    rec = module_to_record(zero_module(QQ))
    rec["A"] = {"rows": 10**5, "cols": 0, "entries": []}
    with pytest.raises(MemoryError):
        module_from_record(rec)


def test_record_rational_entries_canonicalized():
    rec = module_to_record(zero_module(QQ))
    rec["A"] = {"rows": 1, "cols": 1, "entries": ["2/4"]}
    for s in "BCD":
        rec[s] = {"rows": 1, "cols": 0, "entries": []}
    m = module_from_record(rec)
    assert m.A.data[0][0] == QQ.parse("1/2")
