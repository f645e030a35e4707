import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourspace import catalog as cat
from fourspace import homdim, verify
from fourspace.catalog import EnumerationBounds, enumerate_descriptors
from fourspace.exactmat import (
    QQ,
    DimensionMismatch,
    ExactMatrix,
    FieldMismatch,
    PrimeField,
    Rationals,
    _Field,
    anti_identity,
    block_grid,
    direct_sum,
    field_from_spec,
    hstack,
    identity,
    jordan,
    pi_drop_first,
    pi_drop_last,
    random_invertible,
    random_matrix,
    vstack,
    zeros,
)
from fourspace.homdim import coeff_matrix, hom_vector
from fourspace.modules import LambdaModule, module_from_record, module_to_record
from fourspace.oracle import hom_basis, hom_system
from fourspace.verify import disguised_sum, oracle_vector

from reference import reference_rref

GF = PrimeField(32003)

entries = st.integers(min_value=-9, max_value=9)


def small_matrix(field, draw, rows, cols):
    return ExactMatrix(field, [[field.coerce(draw()) for _ in range(cols)] for _ in range(rows)],
                       shape=(rows, cols))


# -- fields -------------------------------------------------------------


def test_rational_parse_format_roundtrip():
    for s in ["0", "5", "-3", "2/7", "-10/4"]:
        v = QQ.parse(s)
        assert QQ.parse(QQ.format(v)) == v
    assert QQ.parse("-10/4") == Fraction(-5, 2)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(ValueError):
        QQ.parse("0.5")
    with pytest.raises(ValueError):
        QQ.parse("1e3")


def test_rational_numpy_integers_do_not_wrap():
    # numpy int64 entries, bare or inside a Fraction, become Python ints
    # before any product: 2^80 does not fit an int64
    a = ExactMatrix(QQ, np.array([[2**40, 3], [5, 2**40]]))
    assert (a @ a).data[0][0] == 2**80 + 15
    assert a.rank() == 2
    for x in (np.int64(7), Fraction(np.int64(7), np.int64(3))):
        v = QQ.coerce(x)
        assert type(v.numerator) is int and type(v.denominator) is int
    assert QQ.coerce(Fraction(np.int64(14), np.int64(6))) == Fraction(7, 3)


def test_outside_scalars_coerce_exactly_or_not_at_all():
    # integers of any fixed width from outside coerce through int(),
    # exactly, into Python ints; floating point is refused by both fields,
    # a float subclass such as np.float64 or not, and so is a string over
    # GF(p)
    for x in (np.int8(-7), np.int32(40000), np.uint64(2**64 - 1), np.int64(-2**63), True):
        q, r = QQ.coerce(x), GF.coerce(x)
        assert q == Fraction(int(x)) and type(q.numerator) is int
        assert r == int(x) % GF.p and type(r) is int
    half = Fraction(np.int64(1), np.int64(2))
    assert GF.coerce(half) == GF.inv(2) and type(GF.coerce(half)) is int
    for bad in (np.float64(2.0), np.float32(0.5), np.float16(1.0), 2.0):
        for f in (QQ, GF):
            with pytest.raises(TypeError, match="floating point"):
                f.coerce(bad)
        with pytest.raises(TypeError):
            ExactMatrix(QQ, [[1, bad]])
    with pytest.raises(TypeError):
        GF.coerce("3")


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_coerce_takes_no_text(field):
    # a string reaches a field through parse alone: coerce refuses every
    # one, the same way on both fields, so ExactMatrix() reads no literal
    # parse would refuse
    for text in ("0.5", "1e3", "3", "1/2"):
        with pytest.raises(TypeError, match=re.escape(f"{field!r}.coerce takes no text, got "
                                                      f"{text!r}; use {field!r}.parse")):
            field.coerce(text)
        with pytest.raises(TypeError, match="takes no text"):
            ExactMatrix(field, [[text]])
    assert field.parse("3") == field.coerce(3)
    if field == QQ:
        assert field.parse("1/2") == Fraction(1, 2)
    for text in ("0.5", "1e3", "1/0") if field == QQ else ("0.5", "1e3", "1/2", "1/0"):
        with pytest.raises(ValueError):
            field.parse(text)


def test_prime_field_validation():
    for bad in (0, 1, 4, 9, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)
    # a JSON string, float or bool is no characteristic, though 7 is prime
    for bad in ("7", 7.0, True):
        with pytest.raises(ValueError, match=re.escape(f"is not an integer: {bad!r}")):
            PrimeField(bad)
    f = PrimeField(7)
    assert f.coerce(-1) == 6
    assert f.coerce(Fraction(1, 2)) == 4
    assert f.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    assert GF.coerce(np.int64(40000)) == 7997
    for bad in (1.5, "3"):
        with pytest.raises(TypeError):
            GF.coerce(bad)


def test_field_from_spec_roundtrip():
    assert field_from_spec(QQ.spec()) == QQ
    assert field_from_spec(GF.spec()) == GF
    assert field_from_spec({"prime": 7}) == PrimeField(7)
    for bad in ("reals", {"prime": 7, "x": 1}):
        with pytest.raises(ValueError, match="unrecognized field spec"):
            field_from_spec(bad)


class Mod5(_Field):
    """The least a field writes beside its arithmetic: its key, what its
    float refusal asks for, its own coerce and its name."""

    _key = ("mod", 5)
    _exact = "use ints"

    def _coerce(self, x):
        return int(x) % 5

    def __repr__(self):
        return "Mod5"


def test_a_field_writes_only_its_arithmetic():
    # the shell refuses text and floating point with the messages both
    # fields give, formats with str, and compares and hashes by _key
    f = Mod5()
    with pytest.raises(TypeError, match=re.escape("Mod5.coerce takes no text, got '3'; "
                                                  "use Mod5.parse")):
        f.coerce("3")
    for bad in (0.5, np.float64(2.0)):
        with pytest.raises(TypeError, match="^floating point is not allowed; use ints$"):
            f.coerce(bad)
    assert (f.coerce(7), f.coerce(True), f.coerce(Fraction(10, 1))) == (2, 1, 0)
    assert f.format(3) == "3"
    assert f == Mod5() and hash(f) == hash(Mod5()) == hash(("mod", 5))
    assert f != PrimeField(5) and f != QQ and f != ("mod", 5)


def test_fields_compare_and_hash_by_value():
    seven = PrimeField(7)
    for same in (PrimeField(7), pickle.loads(pickle.dumps(seven))):
        assert same is not seven and same == seven and hash(same) == hash(seven)
    for same in (Rationals(), pickle.loads(pickle.dumps(QQ))):
        assert same == QQ and hash(same) == hash(QQ)
    primes = [PrimeField(p) for p in (2, 3, 7, 32003)]
    for i, f in enumerate(primes):
        assert [f == g for g in primes] == [j == i for j in range(len(primes))]
        assert f != QQ and QQ != f
    # a field equals no value but a field, not even its own key
    assert QQ != "rationals" and seven != ("gf", 7)


def test_a_fresh_field_reads_the_caches_another_instance_filled():
    # a module read back from its JSON record lives over a new
    # PrimeField(32003); equal to the first by value, it reads the
    # hom_vector plan and the oracle targets made over the first
    field = PrimeField(32003)
    lam = field.coerce(2)
    m = disguised_sum(field, [cat.P(2, 0), cat.I(1, 2), cat.R(1, lam)], random.Random(5))
    back = module_from_record(module_to_record(m))
    assert back.field == field and back.field is not field
    descs = tuple(enumerate_descriptors(EnumerationBounds(3, 2, (lam,))))
    answers = hom_vector(m, descs)
    assert list(oracle_vector(m, descs)) == answers
    plans = homdim._targets.cache_info().misses
    targets = verify._catalog_target.cache_info().misses
    assert hom_vector(back, descs) == answers
    assert list(oracle_vector(back, descs)) == answers
    assert homdim._targets.cache_info().misses == plans
    assert verify._catalog_target.cache_info().misses == targets


# -- construction and shape errors ---------------------------------------


def test_matrix_is_immutable_and_hashable(field):
    m = identity(field, 2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert hash(m) == hash(identity(field, 2))
    assert m.data[0] == (field.one, field.zero)


def test_matrix_pickles_whole(field):
    for m in (identity(field, 2), zeros(field, 0, 3), zeros(field, 2, 0),
              ExactMatrix(field, [[field.coerce(Fraction(1, 3)), field.coerce(-4)]])):
        back = pickle.loads(pickle.dumps(m))
        assert back == m and (back.rows, back.cols) == (m.rows, m.cols)
        assert back.field == field and type(back.data) is tuple


def test_zero_size_matrices(field):
    z = zeros(field, 0, 3)
    assert (z.rows, z.cols) == (0, 3)
    assert zeros(field, 1, 0).rank() == 0
    assert zeros(field, 1, 0).corank() == 1
    assert (zeros(field, 1, 0) @ zeros(field, 0, 2)) == zeros(field, 1, 2)


def test_vstack_names_offending_block(field):
    with pytest.raises(DimensionMismatch, match="block 1"):
        vstack([identity(field, 2), identity(field, 3)])
    with pytest.raises(DimensionMismatch, match="block 2"):
        hstack([zeros(field, 1, 1), zeros(field, 1, 4), zeros(field, 2, 1)])


def test_block_grid_names_offending_block(field):
    good = identity(field, 2)
    with pytest.raises(DimensionMismatch, match=r"block \(1,1\)"):
        block_grid([[good, good], [good, identity(field, 3)]])


def test_field_mismatch_detected():
    with pytest.raises(FieldMismatch):
        vstack([identity(QQ, 1), identity(GF, 1)])


def test_matmul_shape_check(field):
    with pytest.raises(DimensionMismatch):
        zeros(field, 2, 3) @ zeros(field, 2, 3)


def test_ragged_entries_rejected(field):
    with pytest.raises(DimensionMismatch, match="do not form a 2x2 grid"):
        ExactMatrix(field, [[1, 2], [3]])


# -- special constructors -------------------------------------------------


def test_projection_shapes(field):
    p = pi_drop_last(field, 3)
    q = pi_drop_first(field, 3)
    assert (p.rows, p.cols) == (3, 4) and (q.rows, q.cols) == (3, 4)
    # drop-last keeps the leading identity, drop-first the trailing one
    assert tuple(row[:3] for row in p.data) == identity(field, 3).data
    assert tuple(row[1:] for row in q.data) == identity(field, 3).data


def test_anti_identity_is_an_involution(field):
    a = anti_identity(field, 4)
    assert a @ a == identity(field, 4)


def test_jordan_block(field):
    j = jordan(field, 3, field.zero)
    assert j.rank() == 2
    assert j @ j @ j == zeros(field, 3, 3)
    j2 = jordan(field, 2, field.coerce(5))
    assert j2.data[0] == (field.coerce(5), field.one)


# -- rank / corank / nullspace / inverse ----------------------------------


def test_known_ranks(field):
    m = ExactMatrix(field, [[1, 2], [2, 4]])
    assert m.rank() == 1 and m.corank() == 1
    assert identity(field, 5).rank() == 5
    assert zeros(field, 3, 2).rank() == 0


def test_rank_drops_only_in_characteristic():
    m_q = ExactMatrix(QQ, [[1, 7], [7, 49 + 32003]])
    m_p = ExactMatrix(GF, [[1, 7], [7, 49 + 32003]])
    assert m_q.rank() == 2
    assert m_p.rank() == 1


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_rank_laws(rows, cols, data):
    for field in (QQ, GF):
        a = small_matrix(field, lambda: data.draw(entries), rows, cols)
        b = small_matrix(field, lambda: data.draw(entries), rows, cols)
        assert a.rank() <= min(rows, cols)
        assert a.rank() == a.transpose().rank()
        assert direct_sum(a, b).rank() == a.rank() + b.rank()


@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_nullspace_is_a_kernel_basis(rows, cols, data):
    # as many vectors as the reference eliminator's nullity, each a kernel
    # vector of canonical scalars, in echelon form: leading columns
    # strictly increase, so the vectors are independent
    for field in (QQ, GF):
        p = field.p if isinstance(field, PrimeField) else None
        scalar = int if p else Fraction
        a = small_matrix(field, lambda: data.draw(entries), rows, cols)
        basis = a.nullspace()
        assert len(basis) == a.cols - len(reference_rref(a.data, p)[0])
        zero_col = zeros(field, a.rows, 1)
        for vec in basis:
            assert len(vec) == a.cols and all(field.coerce(x) == x for x in vec)
            assert all(type(x) is scalar for x in vec)
            col = ExactMatrix(field, [[x] for x in vec], shape=(a.cols, 1))
            assert a @ col == zero_col
        leads = [next(j for j, x in enumerate(vec) if x) for vec in basis]
        assert leads == sorted(set(leads))


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_every_kernel_is_a_split(field, monkeypatch):
    # nullspace, and hom_basis through it, take their kernel as the split
    # of [A^T | I]: neither echelon nor the reduced loop runs
    calls = []
    split, eliminate = field._split, field._eliminate

    def spied_split(rows, n):
        calls.append("_split")
        return split(rows, n)

    def spied_eliminate(rows, reduced=False):
        assert not reduced
        return eliminate(rows)

    def refused(*args, **kwargs):
        raise AssertionError("echelon")

    rng = random.Random(3)
    module = LambdaModule(*(random_matrix(field, 3, 2, rng) for _ in range(4)))
    a = random_matrix(field, 3, 5, random.Random(4))
    monkeypatch.setattr(field, "_split", spied_split)
    monkeypatch.setattr(field, "_eliminate", spied_eliminate)
    monkeypatch.setattr(field, "echelon", refused)
    assert len(a.nullspace()) == 5 - len(reference_rref(a.data, getattr(field, "p", None))[0])
    assert calls == ["_split"]
    basis = hom_basis(module, module)
    assert basis and "_split" in calls[1:]


def test_nullspace_is_deterministic(field, rng):
    a = random_matrix(field, 4, 6, rng)
    assert a.nullspace() == a.nullspace()


def test_invert_roundtrip(field, rng):
    for n in (1, 2, 4):
        u = random_invertible(field, n, rng)
        assert u.invert() @ u == identity(field, n)
    with pytest.raises(ZeroDivisionError):
        ExactMatrix(field, [[1, 2], [2, 4]]).invert()
    with pytest.raises(DimensionMismatch):
        zeros(field, 2, 3).invert()


def test_rank_invariant_under_invertible_factors(field, rng):
    a = random_matrix(field, 3, 5, rng)
    u = random_invertible(field, 3, rng)
    v = random_invertible(field, 5, rng)
    assert (u @ a @ v).rank() == a.rank()


# -- storage: one tuple of canonical row tuples per matrix ---------------------


def test_every_matrix_is_one_read_only_canonical_array(field, rng):
    a, b = random_matrix(field, 3, 4, rng), random_matrix(field, 3, 4, rng)
    u = random_invertible(field, 3, rng)
    module = LambdaModule(*(random_matrix(field, 2, k, rng) for k in (1, 2, 0, 2)))
    made = {
        "ExactMatrix": (ExactMatrix(field, [[1, -2], [Fraction(1, 3), 4]]), (2, 2)),
        "ExactMatrix 0x3": (ExactMatrix(field, [], shape=(0, 3)), (0, 3)),
        "ExactMatrix 2x0": (ExactMatrix(field, [[], []], shape=(2, 0)), (2, 0)),
        "zeros 0x3": (zeros(field, 0, 3), (0, 3)),
        "zeros 2x0": (zeros(field, 2, 0), (2, 0)),
        "identity": (identity(field, 3), (3, 3)),
        "identity 0": (identity(field, 0), (0, 0)),
        "anti_identity": (anti_identity(field, 3), (3, 3)),
        "jordan": (jordan(field, 3, -1), (3, 3)),
        "pi_drop_last": (pi_drop_last(field, 2), (2, 3)),
        "pi_drop_first": (pi_drop_first(field, 0), (0, 1)),
        "random_matrix 0x2": (random_matrix(field, 0, 2, rng), (0, 2)),
        "random_matrix 2x0": (random_matrix(field, 2, 0, rng), (2, 0)),
        "hstack": (hstack([a, b]), (3, 8)),
        "hstack 0-row": (hstack([zeros(field, 0, 2), zeros(field, 0, 1)]), (0, 3)),
        "vstack": (vstack([a, b]), (6, 4)),
        "vstack 0-col": (vstack([zeros(field, 2, 0), zeros(field, 1, 0)]), (3, 0)),
        "block_grid": (block_grid([[a, b], [b, a]]), (6, 8)),
        "direct_sum": (direct_sum(a, zeros(field, 0, 2)), (3, 6)),
        "transpose": (a.transpose(), (4, 3)),
        "matmul": (u @ a, (3, 4)),
        "matmul 2x0 @ 0x3": (zeros(field, 2, 0) @ zeros(field, 0, 3), (2, 3)),
        "matmul to 3x0": (a @ zeros(field, 4, 0), (3, 0)),
        "invert": (u.invert(), (3, 3)),
        "invert 0x0": (identity(field, 0).invert(), (0, 0)),
        "coeff_matrix": (coeff_matrix(module, cat.R(2, field.coerce(3))), (8, 10)),
        "hom_system": (hom_system(module, cat.build(cat.P(1, 0), field)).matrix, (15, 11)),
        "hom_basis": (hom_basis(module, module)[0][2], (2, 2)),
    }
    scalar = int if isinstance(field, PrimeField) else Fraction
    for name, (m, shape) in made.items():
        data = m.data
        # a tuple of rows tuples, each of cols canonical scalars: immutable
        # all the way down, and the shape kept beside it
        assert (m.rows, m.cols) == shape, name
        assert type(data) is tuple and len(data) == m.rows, name
        assert all(type(row) is tuple and len(row) == m.cols for row in data), name
        assert all(type(x) is scalar for row in data for x in row), name
        if isinstance(field, PrimeField):
            assert all(0 <= x < field.p for row in data for x in row), name
        with pytest.raises(AttributeError):
            m.data = data
        # scalars handed out are those plain Python values
        assert m.entries_rowmajor() == [x for row in data for x in row], name
        assert all(type(x) is scalar for x in m.entries_rowmajor()), name


# -- cross-check against an independent reference eliminator ----------------
#
# The loop behind field.echelon backs both hom routes (coefficient-matrix
# corank and oracle nullity), so verify alone cannot see a bug in it.
# reference_rref (tests/reference.py) is a deliberately naive Gauss-Jordan
# that shares nothing with the package.


REFERENCE_FIELDS = [QQ, PrimeField(2), GF, PrimeField(2**31 - 1)]


def _plain(rows):
    return [[x if isinstance(x, Fraction) else int(x) for x in row] for row in rows]


def _reference_inputs(field, rng):
    """Random and structured matrices over field, none of them empty."""
    out = []
    for _ in range(12):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        out.append(random_matrix(field, m, n, rng))
        # mostly zeros, so rank deficiency and pivot gaps are common
        sparse = [[field.coerce(rng.choice([0, 0, 0, 1, -1, rng.randint(-9, 9)]))
                   for _ in range(n)] for _ in range(m)]
        out.append(ExactMatrix(field, sparse))
    dims = (3, 2, 1, 2, 2)
    module = LambdaModule(*(random_matrix(field, dims[0], k, rng) for k in dims[1:]))
    # GF(2) has no homogeneous lambda, and 3 is none over GF(3)
    tubes = [lam for lam in [field.coerce(3)] if lam not in (field.zero, field.one)]
    descs = [cat.P(1, 0), cat.P(2, 3), cat.I(1, 2), cat.I(2, 0), cat.R(0, 3, cat.INF),
             cat.R(1, 2, 0)] + [cat.R(2, lam) for lam in tubes]
    for d in descs:
        out.append(coeff_matrix(module, d))
        out.append(hom_system(module, cat.build(d, field)).matrix)
    small = LambdaModule(*(random_matrix(field, 2, k, rng) for k in (1, 2, 1, 1)))
    out.append(hom_system(small, module).matrix)
    # leading, interleaved and trailing all-zero columns
    out.append(hstack([zeros(field, 4, 2), random_matrix(field, 4, 2, rng), zeros(field, 4, 1),
                       random_matrix(field, 4, 3, rng), zeros(field, 4, 2)]))
    if field == QQ:
        out += _rational_inputs(module, rng)
    # the orders the loop meets rows in: a later row holding an earlier
    # pivot than the rows before it, leading zero rows, a pivot in the last
    # row alone, and a matrix far taller than wide with duplicate rows
    out.append(ExactMatrix(field, [[0, 0, 1, 5, 0], [0, 1, 7, 0, 1], [1, -1, 0, 5, 7],
                                   [0, 0, 0, 7, -1]]))
    out.append(ExactMatrix(field, [[0, 0, 0], [0, 0, 0], [0, 5, 1], [1, 0, 7], [0, 0, 0]]))
    out.append(ExactMatrix(field, [[0, 0, 0, 0]] * 3 + [[0, 0, -1, 5]]))
    base = random_matrix(field, 3, 3, rng).data
    out.append(ExactMatrix(field, [base[rng.randrange(3)] for _ in range(40)]))
    # verify-sweep scale: sparse systems of ~50-100 rows whose pivot rows
    # fill in to up to 60 nonzeros, with non-pivot columns between the
    # pivots; GF(p) updates only the pivot row's nonzero columns
    big = LambdaModule(*(random_matrix(field, 6, 6, rng) for _ in range(4)))
    for d in [cat.P(4, 0), cat.I(4, 1), cat.R(1, 4, 0)] + [cat.R(4, lam) for lam in tubes]:
        out.append(hom_system(cat.build(d, field), big).matrix)
    return [a for a in out if a.rows and a.cols]


def _rational_inputs(module, rng):
    """QQ matrices for the fraction-free kernel: mixed denominators, large
    integers, zero rows and full row rank."""
    lam = Fraction(7, 3)
    tube = cat.R(2, lam)
    out = [coeff_matrix(module, tube), hom_system(module, cat.build(tube, QQ)).matrix]

    def fractions(m, n):
        return ExactMatrix(QQ, [[Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7, 12797)))
                                 for _ in range(n)] for _ in range(m)])

    for _ in range(6):
        out.append(fractions(rng.randint(1, 7), rng.randint(1, 7)))
    # a disguised sum: base change spreads its letters into large integers
    m = disguised_sum(QQ, [cat.R(1, lam), cat.P(1, 0), cat.I(1, 0)], rng)
    out += m.mats()
    out.append(hstack(m.mats()))
    zero_row = zeros(QQ, 1, 5)
    out.append(vstack([fractions(2, 5), zero_row, fractions(2, 5), zero_row]))
    out.append(zeros(QQ, 3, 4))
    out.append(hstack([random_invertible(QQ, 4, rng), fractions(4, 3)]))
    return out


@pytest.mark.parametrize("field", REFERENCE_FIELDS + [PrimeField(3)], ids=repr)
def test_echelon_matches_reference_eliminator(field, rng):
    p = field.p if isinstance(field, PrimeField) else None
    for a in _reference_inputs(field, rng):
        want_pivots, want_rref = reference_rref(a.data, p)
        pivots, rref = field.echelon(a.data, reduced=True)
        assert pivots == want_pivots
        assert _plain(rref) == want_rref
        pivots, ech = field.echelon(a.data)
        assert pivots == want_pivots
        # forward elimination is row-equivalent to the input
        assert reference_rref(_plain(ech), p) == (want_pivots, want_rref)
        assert field.rank(a.data) == len(want_pivots)
        assert a.rank() == len(want_pivots)


def _split_inputs(field, rng):
    """(a, n) for the split of a at column n: sparse random matrices, some
    with a zero row and a repeated one, split at every column from 0 to
    their width; and [L | I] stacks, split at L's width, some L with a
    repeated column.  Over QQ some entries lie over 3, 7 or 12797."""
    denominators = (1, 1, 3, 7, 12797) if field == QQ else (1,)

    def rows(m, w):
        return [[field.coerce(Fraction(rng.choice([0, 0, 0, 1, -1, rng.randint(-9, 9)]),
                                       rng.choice(denominators))) for _ in range(w)]
                for _ in range(m)]

    out = []
    for _ in range(30):
        m, w = rng.randint(0, 7), rng.randint(0, 7)
        a = rows(m, w)
        if m > 2:
            a[1] = list(a[0])
            a[rng.randrange(m)] = [field.zero] * w
        a = ExactMatrix(field, a, (m, w))
        out += [(a, n) for n in range(w + 1)]
    for _ in range(12):
        n0, w = rng.randint(0, 6), rng.randint(0, 6)
        l = rows(n0, w)
        if w > 1:
            for row in l:
                row[-1] = row[0]
        out.append((hstack([ExactMatrix(field, l, (n0, w)), identity(field, n0)]), w))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_split_matches_reference_eliminator(field, rng):
    # the split behind every letter kernel, fold and step of homdim and
    # every relation of the oracle: z must count {y : y a = 0}, and the
    # images must be a basis of {y a[:, n:] : y a[:, :n] = 0}, checked by
    # ranks that only the reference eliminator takes
    p = field.p if isinstance(field, PrimeField) else None

    def rank(rows):
        return len(reference_rref(rows, p)[0])

    seen = set()
    for a, n in _split_inputs(field, rng):
        plain = _plain(a.data)
        z, images = field._split(field._start(a.data), n)
        left = [row[:n] for row in plain]
        assert z == len(plain) - rank(plain)
        assert len(images) == rank(plain) - rank(left)
        assert all(len(y) == a.cols - n for y in images)
        assert rank(images) == len(images)
        assert rank(plain + [[0] * n + y for y in images]) == rank(plain)
        seen.update({"zero row": any(not any(row) for row in plain), "n = 0": n == 0,
                     "n = width": n == a.cols > 0, "z > 0": z > 0, "images": bool(images),
                     "a pivot at n": rank([row[: n + 1] for row in plain]) > rank(left)}.items())
    assert all((name, True) in seen for name in
               ("zero row", "n = 0", "n = width", "z > 0", "images", "a pivot at n")), seen


def _unit_pivot_inputs(field, rng):
    """Matrices over GF(p) whose pivots are 1 in some places and not in
    others: entries 0, 1 and -1 outnumber the rest, and some rows are
    scaled by a random unit, so a pivot of 1 can also arise from a
    non-unit entry during elimination."""
    out = []
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[field.coerce(rng.choice([0, 0, 1, 1, -1, 2, rng.randrange(field.p)]))
                 for _ in range(n)] for _ in range(m)]
        for row in rows[:: rng.randint(1, 3)]:
            unit = rng.randrange(1, field.p)
            row[:] = [x * unit % field.p for x in row]
        out.append(ExactMatrix(field, rows))
    return out + _reference_inputs(field, rng)


@pytest.mark.parametrize("field", [PrimeField(2), GF], ids=repr)
def test_unit_pivots_match_reference_eliminator(field, rng, monkeypatch):
    # a pivot of 1 is neither inverted nor scaled; over GF(2) every pivot
    # is 1, and over GF(32003) these inputs mix pivots of 1 with others
    inputs = _unit_pivot_inputs(field, rng)
    inverted = []
    inv = field.inv

    def counted(a):
        inverted.append(a)
        return inv(a)

    monkeypatch.setattr(field, "inv", counted)
    pivots_seen = 0
    for a in inputs:
        want_pivots, want_rref = reference_rref(a.data, field.p)
        for reduced in (False, True):
            pivots, ech = field.echelon(a.data, reduced)
            assert pivots == want_pivots
            pivots_seen += len(pivots)
            rows = _plain(ech)
            assert all(rows[i][c] == 1 for i, c in enumerate(pivots))
            if reduced:
                assert rows == want_rref
            else:
                assert reference_rref(rows, field.p) == (want_pivots, want_rref)
        assert field.rank(a.data) == len(want_pivots)
        pivots_seen += len(want_pivots)
    assert 1 not in inverted
    if field.p == 2:
        assert inverted == [] and pivots_seen
    else:
        assert 0 < len(inverted) < pivots_seen


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_reduced_loop_finishes_its_rows(field, rng):
    # _eliminate(rows, reduced=True) on working rows, as the oracle calls
    # it: over GF(p) every pivot row ends with a leading 1, also one that
    # no later row read (echelon rows with pivots other than 1, the
    # oracle's case), so the rows equal the reference RREF row for row;
    # over QQ each is a primitive integer multiple of the reference row
    p = field.p if isinstance(field, PrimeField) else None
    inputs = _unit_pivot_inputs(field, rng) if p else _reference_inputs(field, rng)
    for _ in range(20):
        n = rng.randint(1, 8)
        starts = sorted(rng.sample(range(n), rng.randint(1, n)))
        rows = [[0] * c + [rng.randrange(1, p or 10)]
                + [field.coerce(rng.choice([0, 1, -1, rng.randint(-9, 9)])) for _ in range(n - c - 1)]
                for c in starts]
        inputs.append(ExactMatrix(field, rows))
    unread = 0
    for a in inputs:
        want_pivots, want_rref = reference_rref(a.data, p)
        rows = field._start(a.data)
        unread += sum(rows[i][c] not in (0, 1) for i, c in enumerate(want_pivots))
        assert field._eliminate(rows, reduced=True) == want_pivots
        assert len(rows) == a.rows
        if p:
            assert rows == want_rref
            continue
        for row, want in zip(rows, want_rref):
            assert all(type(x) is int for x in row) and math.gcd(*row) in (0, 1)
            c = next((c for c, x in enumerate(want) if x), None)
            assert [Fraction(x, row[c]) for x in row] == want if c is not None else not any(row)
    assert unread or p == 2


def test_a_unit_pivot_row_is_only_read(monkeypatch):
    # a row with a leading 1 gives its form without being written, so it
    # may be a tuple, and that form clears the others; a row without one is
    # scaled in place, its pivot inverted once
    inverted = []
    inv = GF.inv

    def counted(a):
        inverted.append(a)
        return inv(a)

    monkeypatch.setattr(GF, "inv", counted)
    row = (0, 1, 5, 0, 7)
    form = GF._pivot(row, 1)
    assert form == [(2, 5), (4, 7)] and inverted == []
    lead = [None, form, None, None, None]
    targets = [[3, 2, 0, 1, 1], [0, 4, 4, 4, 4]]
    for target in targets:
        GF._reduce(target, lead, 0)
    assert targets == [[3, 0, -10 % GF.p, 1, -13 % GF.p], [0, 0, -16 % GF.p, 4, -24 % GF.p]]
    with pytest.raises(TypeError):
        GF._pivot((0, 2, 5), 1)
    inverted.clear()
    scaled = [0, 2, 5]
    x = 5 * inv(2) % GF.p
    assert GF._pivot(scaled, 1) == [(2, x)]
    assert scaled == [0, 1, x]
    assert inverted == [2]


def _early_stop_inputs(field, rng):
    """(a, stop): matrices of full column rank whose last pivot is found
    in row stop, before their last row, so the rows past it need not be
    read.  Some hold zero and repeated rows before the stop, some have
    fewer than all columns covered until the stop row; the stop row is
    found by the reference eliminator."""
    p = field.p if isinstance(field, PrimeField) else None
    out = []
    for n in (1, 2, 3, 5):
        extra = random_matrix(field, rng.randint(1, 4), n, rng)
        out.append(vstack([random_invertible(field, n, rng), extra]))
        out.append(random_matrix(field, n + rng.randint(2, 6), n, rng))
        # a zero row and a repeated row before the stop, and a late pivot
        head = random_matrix(field, n - 1, n, rng) if n > 1 else zeros(field, 0, n)
        rows = [*head.data, [0] * n, *head.data[:1]]
        out.append(vstack([ExactMatrix(field, rows, (len(rows), n)),
                           random_invertible(field, n, rng), extra]))
    out.append(ExactMatrix(field, [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 5], [0, 0, 7],
                                   [1, 1, 1], [0, 0, 0]]))
    found = []
    for a in out:
        plain = _plain(a.data)
        stop = next(r for r in range(a.rows)
                    if len(reference_rref(plain[: r + 1], p)[0]) == a.cols)
        if stop < a.rows - 1:
            found.append((a, stop))
    return found


@pytest.mark.parametrize("field", [QQ, PrimeField(2), GF], ids=repr)
def test_elimination_stops_at_full_column_rank(field, rng, monkeypatch):
    # once every column holds a pivot the loop reads no more rows: they
    # come back as zero rows, and echelon, rank and _split agree with the
    # reference eliminator on the whole matrix, on the rows up to the
    # stop and on those before it, z counting the rows never read
    p = field.p if isinstance(field, PrimeField) else None
    read = []
    reduce = field._reduce

    def counted(row, lead, start=None):
        if start is None:
            read.append(row)
        return reduce(row, lead, start)

    monkeypatch.setattr(field, "_reduce", counted)

    def rank(rows):
        return len(reference_rref(rows, p)[0])

    inputs = _early_stop_inputs(field, rng)
    assert len(inputs) >= 10
    for a, stop in inputs:
        for rows_in, full in ((a.rows, True), (stop + 1, True), (stop, False)):
            b = a.data[:rows_in]
            plain = _plain(b)
            want_pivots, want_rref = reference_rref(plain, p)
            assert (want_pivots == list(range(a.cols))) == full
            read.clear()
            rows = field._start(b)
            assert field._eliminate(rows) == want_pivots
            assert len(read) == (stop + 1 if full else rows_in)
            assert len(rows) == rows_in
            assert all(not any(row) for row in rows[len(want_pivots) :])
            assert rank(_plain(rows)) == len(want_pivots)
            assert reference_rref(_plain(rows), p) == (want_pivots, want_rref)
            for reduced in (False, True):
                pivots, ech = field.echelon(b, reduced)
                assert pivots == want_pivots
                assert len(ech) == len(b) and all(len(row) == a.cols for row in ech)
                assert not any(x for row in ech[len(pivots) :] for x in row)
                if reduced:
                    assert _plain(ech) == want_rref
                else:
                    assert reference_rref(_plain(ech), p) == (want_pivots, want_rref)
            assert field.rank(b) == len(want_pivots)
            for n in range(a.cols + 1):
                z, images = field._split(field._start(b), n)
                left = [row[:n] for row in plain]
                assert z == rows_in - len(want_pivots)
                assert len(images) == len(want_pivots) - rank(left)
                assert rank(images) == len(images)
                assert rank(plain + [[0] * n + y for y in images]) == len(want_pivots)


def test_qq_forward_rows_are_primitive_integer_rows(rng):
    for a in _reference_inputs(QQ, rng):
        pivots, rows = QQ.echelon(a.data)
        rank = len(pivots)
        assert all(type(x) is int for row in rows for x in row)
        assert all(math.gcd(*row) == 1 for row in rows[:rank])
        assert not any(x for row in rows[rank:] for x in row)
        # the pivot rows span the input's row space: the input has their
        # rank, and stacking it under them adds none
        assert len(reference_rref(a.data)[0]) == rank
        assert len(reference_rref(rows[:rank] + _plain(a.data))[0]) == rank


def _int_inputs(rng):
    """QQ list rows of Python ints: entries past 2^63, rows with a common
    factor, zero rows, and empty shapes."""
    out = [[], [[], [], []], [[0] * 4 for _ in range(3)]]
    for m, n in ((4, 6), (6, 4), (5, 5), (1, 7)):
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-2**80, 2**80)))
                 for _ in range(n)] for _ in range(m)]
        rows[0] = [6 * x for x in rows[0]]
        rows.append([2**70 * x for x in rows[-1]])
        rows.insert(1, [0] * n)
        out.append(rows)
    return out


def _as_fractions(a):
    return [[Fraction(x) for x in row] for row in a]


def _results(a):
    """Every exit of the QQ kernel on a, with the type of each entry."""
    out = [QQ.rank(a)]
    for reduced in (False, True):
        pivots, ech = QQ.echelon(a, reduced)
        out.append((pivots, [len(row) for row in ech],
                    [(x, type(x)) for row in ech for x in row]))
    return out


def test_qq_takes_int_rows_as_their_fractions(rng):
    # integral reads a Python int as a Fraction over 1, so int rows, the
    # same values held as Fractions and a mix of the two start as the same
    # primitive rows, and give the same pivots, forward rows, reduced form
    # and rank.  Rows that mix ints and Fractions are scaled as a whole
    for a in _int_inputs(rng):
        assert all(type(x) is int for row in a for x in row)
        assert _results(a) == _results(_as_fractions(a))
        assert QQ._start(a) == QQ._start(_as_fractions(a))
        if a and a[0]:
            half = [row if i % 2 else _as_fractions([row])[0] for i, row in enumerate(a)]
            assert QQ._start(half) == QQ._start(a)
            assert all(type(x) is int for row in QQ._start(half) for x in row)
            # one entry over 3 in the last row, one integral Fraction in
            # the first
            mixed = [list(row) for row in a]
            mixed[-1][-1] = Fraction(2 * a[-1][-1] + 1, 3)
            mixed[0][0] = Fraction(a[0][0])
            assert _results(mixed) == _results(_as_fractions(mixed))


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_echelon_leaves_a_writable_input_alone(field, rng):
    # list rows handed to echelon come back unchanged, and no echelon row
    # is one of them
    inputs = [zeros(field, 0, 3), zeros(field, 3, 0), zeros(field, 3, 4),
              random_invertible(field, 4, rng), random_matrix(field, 3, 5, rng)]
    for m in inputs:
        a = [list(row) for row in m.data]
        for reduced in (False, True):
            _, ech = field.echelon(a, reduced)
            assert a == [list(row) for row in m.data]
            assert len(ech) == len(a) and all(len(row) == m.cols for row in ech)
            assert not {id(row) for row in ech} & {id(row) for row in a}
        field.rank(a)
        assert a == [list(row) for row in m.data]


def reference_product(a, b, n, p=None):
    """The product of the rows a and the rows b, n columns wide, by the
    schoolbook sum on Python ints mod p, or Fractions if p is None."""
    (m, k) = len(a), len(b)
    a, b = _plain(a), _plain(b)
    out = [[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(n)]
           for i in range(m)]
    return [[Fraction(x) if p is None else x % p for x in row] for row in out]


def _columns(rows, n):
    # the columns of n-wide rows, also when there are none
    return list(zip(*rows)) if rows else [()] * n


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_field_dot_matches_python_products(field, rng):
    # over GF(2^31 - 1) two products already pass 2^63, so a fixed-width
    # sum would overflow; random_matrix draws integers, so over QQ only the
    # entries of mixed denominators give the factors scales s and t other
    # than 1, where dividing by s or t alone instead of s * t shows
    p = field.p if isinstance(field, PrimeField) else None

    def fractions(m, n):
        return ExactMatrix(field, [[Fraction(rng.randint(-9, 9), rng.choice((3, 7, 12797)))
                                    for _ in range(n)] for _ in range(m)], (m, n))

    pairs = []
    for m, k, n in ((3, 4, 5), (1, 2, 1), (0, 3, 2), (3, 0, 2), (4, 16, 3)):
        pairs.append((random_matrix(field, m, k, rng), random_matrix(field, k, n, rng)))
        pairs.append((fractions(m, k), fractions(k, n)))
    pairs.append((ExactMatrix(field, [[Fraction(1, 3), Fraction(2, 7)]]),
                  ExactMatrix(field, [[Fraction(5, 12797)], [Fraction(-1, 3)]])))
    for x in cat.build(cat.P(4, 0), field).mats():
        pairs.append((x.transpose(), x))
        pairs.append((random_matrix(field, 2, x.rows, rng), x))
    scalar = int if p else Fraction
    for a, b in pairs:
        want = reference_product(a.data, b.data, b.cols, p)
        got = field.dot(a.data, b.transpose().data)
        assert type(got) is tuple and len(got) == a.rows
        assert all(type(row) is tuple and len(row) == b.cols for row in got)
        assert _plain(got) == want
        assert [list(row) for row in (a @ b).data] == want
        assert all(type(x) is scalar for row in got for x in row)


def test_random_invertible_raises_when_rank_under_counts(field, rng, monkeypatch):
    # a kernel whose rank never reaches n must fail after a bounded number
    # of draws, not loop for ever
    calls = []
    monkeypatch.setattr(type(field), "rank", lambda self, a: calls.append(len(a)) or 0)
    with pytest.raises(ArithmeticError, match=re.escape(f"3x3 matrix over {field!r}")):
        random_invertible(field, 3, rng)
    assert 0 < len(calls) <= 100
    assert random_invertible(field, 0, rng) == zeros(field, 0, 0)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_integral_stays_in_the_elimination_form(field, rng):
    # integral: a matrix's rows times one nonzero scale, Python ints over QQ
    # and the residues themselves over GF(p); field.dot multiplies that
    # form exactly, as it multiplies any rows of the field
    p = field.p if isinstance(field, PrimeField) else None

    def entry():
        return field.coerce(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7, 12797))))

    matrices = [ExactMatrix(field, [[entry() for _ in range(n)] for _ in range(m)], (m, n))
                for m, n in ((3, 4), (4, 5), (0, 3), (3, 0))]
    scaled = []
    for x in matrices:
        y, scale = field.integral(x.data)
        assert field.coerce(scale) != field.zero
        assert len(y) == x.rows and all(len(row) == x.cols for row in y)
        assert ExactMatrix(field, y, (x.rows, x.cols)) == ExactMatrix(
            field, [[scale * v for v in row] for row in x.data], (x.rows, x.cols))
        if p is None:
            assert all(type(v) is int for row in y for v in row)
        else:
            assert y is x.data
        scaled.append((y, x.cols))
    for (a, _), (b, n) in ((scaled[0], scaled[1]), (scaled[2], scaled[0]),
                           (scaled[3], scaled[2])):
        got = field.dot(a, _columns(b, n))
        assert len(got) == len(a) and all(len(row) == n for row in got)
        assert _plain(got) == reference_product(a, b, n, p)
