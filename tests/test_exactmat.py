import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fourspace import catalog as cat
from fourspace.exactmat import (
    QQ,
    DimensionMismatch,
    ExactMatrix,
    FieldMismatch,
    PrimeField,
    anti_identity,
    block_grid,
    direct_sum,
    field_from_spec,
    hstack,
    identity,
    jordan,
    mat,
    pi_drop_first,
    pi_drop_last,
    random_invertible,
    random_matrix,
    vstack,
    zeros,
)
from fourspace.homdim import coeff_matrix
from fourspace.modules import LambdaModule, base_change, module_direct_sum
from fourspace.oracle import hom_basis, hom_system

GF = PrimeField(32003)

entries = st.integers(min_value=-9, max_value=9)


def small_matrix(field, draw, rows, cols):
    return mat(field, [[field.coerce(draw()) for _ in range(cols)] for _ in range(rows)],
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
    a = mat(QQ, np.array([[2**40, 3], [5, 2**40]]))
    assert (a @ a)[0, 0] == 2**80 + 15
    assert a.rank() == 2
    for x in (np.int64(7), Fraction(np.int64(7), np.int64(3))):
        v = QQ.coerce(x)
        assert type(v.numerator) is int and type(v.denominator) is int
    assert QQ.coerce(Fraction(np.int64(14), np.int64(6))) == Fraction(7, 3)


def test_prime_field_validation():
    for bad in (0, 1, 4, 9, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)
    f = PrimeField(7)
    assert f.coerce(-1) == 6
    assert f.coerce(Fraction(1, 2)) == 4
    assert f.inv(3) == 5


def test_field_from_spec_roundtrip():
    assert field_from_spec(QQ.spec()) == QQ
    assert field_from_spec(GF.spec()) == GF
    assert field_from_spec({"prime": 7}) == PrimeField(7)


# -- construction and shape errors ---------------------------------------


def test_matrix_is_immutable_and_hashable(field):
    m = identity(field, 2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert hash(m) == hash(identity(field, 2))
    assert m[0, 0] == field.one and m[0, 1] == field.zero


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


# -- special constructors -------------------------------------------------


def test_projection_shapes(field):
    p = pi_drop_last(field, 3)
    q = pi_drop_first(field, 3)
    assert (p.rows, p.cols) == (3, 4) and (q.rows, q.cols) == (3, 4)
    # drop-last keeps the leading identity, drop-first the trailing one
    assert p.submatrix(0, 3, 0, 3) == identity(field, 3)
    assert q.submatrix(0, 3, 1, 4) == identity(field, 3)


def test_anti_identity_is_an_involution(field):
    a = anti_identity(field, 4)
    assert a @ a == identity(field, 4)


def test_jordan_block(field):
    j = jordan(field, 3, field.zero)
    assert j.rank() == 2
    assert j @ j @ j == zeros(field, 3, 3)
    j2 = jordan(field, 2, field.coerce(5))
    assert j2[0, 0] == field.coerce(5) and j2[0, 1] == field.one


# -- rank / corank / nullspace / inverse ----------------------------------


def test_known_ranks(field):
    m = mat(field, [[1, 2], [2, 4]])
    assert m.rank() == 1 and m.corank() == 1
    assert identity(field, 5).rank() == 5
    assert zeros(field, 3, 2).rank() == 0


def test_rank_drops_only_in_characteristic():
    m_q = mat(QQ, [[1, 7], [7, 49 + 32003]])
    m_p = mat(GF, [[1, 7], [7, 49 + 32003]])
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
    for field in (QQ, GF):
        a = small_matrix(field, lambda: data.draw(entries), rows, cols)
        basis = a.nullspace()
        assert len(basis) == a.cols - a.rank()
        zero_col = zeros(field, a.rows, 1)
        for vec in basis:
            col = mat(field, [[x] for x in vec], shape=(a.cols, 1))
            assert a @ col == zero_col
        if basis:
            stacked = mat(field, [list(v) for v in basis],
                          shape=(len(basis), a.cols))
            assert stacked.rank() == len(basis)


def test_nullspace_is_deterministic(field, rng):
    a = random_matrix(field, 4, 6, rng)
    assert a.nullspace() == a.nullspace()


def test_invert_roundtrip(field, rng):
    for n in (1, 2, 4):
        u = random_invertible(field, n, rng)
        assert u.invert() @ u == identity(field, n)
    with pytest.raises(ZeroDivisionError):
        mat(field, [[1, 2], [2, 4]]).invert()
    with pytest.raises(DimensionMismatch):
        zeros(field, 2, 3).invert()


def test_rank_invariant_under_invertible_factors(field, rng):
    a = random_matrix(field, 3, 5, rng)
    u = random_invertible(field, 3, rng)
    v = random_invertible(field, 5, rng)
    assert (u @ a @ v).rank() == a.rank()


def test_submatrix_bounds(field):
    m = identity(field, 3)
    assert m.submatrix(1, 3, 1, 3) == identity(field, 2)
    with pytest.raises(DimensionMismatch):
        m.submatrix(0, 4, 0, 3)


# -- storage: one read-only canonical array per matrix ------------------------


def test_every_matrix_is_one_read_only_canonical_array(field, rng):
    a, b = random_matrix(field, 3, 4, rng), random_matrix(field, 3, 4, rng)
    u = random_invertible(field, 3, rng)
    module = LambdaModule(*(random_matrix(field, 2, k, rng) for k in (1, 2, 0, 2)))
    made = {
        "mat": (mat(field, [[1, -2], [Fraction(1, 3), 4]]), (2, 2)),
        "mat 0x3": (mat(field, [], shape=(0, 3)), (0, 3)),
        "mat 2x0": (mat(field, [[], []], shape=(2, 0)), (2, 0)),
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
        "submatrix": (a.submatrix(1, 3, 0, 2), (2, 2)),
        "submatrix 0-row": (a.submatrix(1, 1, 0, 4), (0, 4)),
        "add": (a + b, (3, 4)),
        "sub": (a - b, (3, 4)),
        "neg": (-a, (3, 4)),
        "scale": (a.scale(-3), (3, 4)),
        "matmul": (u @ a, (3, 4)),
        "matmul 2x0 @ 0x3": (zeros(field, 2, 0) @ zeros(field, 0, 3), (2, 3)),
        "matmul to 3x0": (a @ zeros(field, 4, 0), (3, 0)),
        "invert": (u.invert(), (3, 3)),
        "invert 0x0": (identity(field, 0).invert(), (0, 0)),
        "coeff_matrix": (coeff_matrix(module, cat.R(2, field.coerce(3))), (8, 10)),
        "hom_system": (hom_system(module, cat.build(cat.P(1, 0), field)).matrix, (15, 11)),
        "hom_basis": (hom_basis(module, module)[0][2], (2, 2)),
    }
    for name, (m, shape) in made.items():
        data = m.data
        assert isinstance(data, np.ndarray) and data.dtype == field.dtype, name
        assert data.shape == (m.rows, m.cols) == shape, name
        assert not data.flags.writeable, name
        if isinstance(field, PrimeField):
            assert ((data >= 0) & (data < field.p)).all(), name
        else:
            assert all(isinstance(x, Fraction) for x in data.flat), name
        # scalars handed out are plain Python values
        scalar = int if isinstance(field, PrimeField) else Fraction
        assert all(type(x) is scalar for x in m.entries_rowmajor()), name
        if m.rows and m.cols:
            assert type(m[m.rows - 1, m.cols - 1]) is scalar, name


# -- cross-check against an independent reference eliminator ----------------
#
# field.echelon backs both hom routes (coefficient-matrix corank and oracle
# nullity), so verify alone cannot see a bug in it.  The reference below is
# a deliberately naive Gauss-Jordan on Python ints (mod p) or Fractions: no
# numpy, nothing shared with the package.  It skips only zero factors, so the
# ~100-row inputs below stay affordable.


def reference_rref(rows, p=None):
    """(pivot columns, reduced row echelon form); p=None means QQ."""
    if p is None:
        a = [[Fraction(x) for x in row] for row in rows]
    else:
        a = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        hits = [i for i in range(r, len(a)) if a[i][c] != 0]
        if not hits:
            continue
        a[r], a[hits[0]] = a[hits[0]], a[r]
        if p is None:
            a[r] = [x / a[r][c] if x else x for x in a[r]]
        else:
            s = pow(a[r][c], p - 2, p)
            a[r] = [x * s % p for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
                if p is not None:
                    a[i] = [x % p for x in a[i]]
        pivots.append(c)
    return pivots, a


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
        out.append(mat(field, sparse))
    dims = (3, 2, 1, 2, 2)
    module = LambdaModule(*(random_matrix(field, dims[0], k, rng) for k in dims[1:]))
    # GF(2) has no homogeneous lambda
    tubes = [] if field == PrimeField(2) else [field.coerce(3)]
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
        return mat(QQ, [[Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7, 12797)))
                         for _ in range(n)] for _ in range(m)])

    for _ in range(6):
        out.append(fractions(rng.randint(1, 7), rng.randint(1, 7)))
    # a disguised sum: base change spreads its letters into large integers
    m = cat.build(cat.R(1, lam), QQ)
    for d in (cat.P(1, 0), cat.I(1, 0)):
        m = module_direct_sum(m, cat.build(d, QQ))
    m = base_change(m, random_invertible(QQ, m.n0, rng),
                    [random_invertible(QQ, x.cols, rng) for x in m.mats()])
    out += m.mats()
    out.append(hstack(m.mats()))
    zero_row = zeros(QQ, 1, 5)
    out.append(vstack([fractions(2, 5), zero_row, fractions(2, 5), zero_row]))
    out.append(zeros(QQ, 3, 4))
    out.append(hstack([random_invertible(QQ, 4, rng), fractions(4, 3)]))
    return out


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
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


def test_qq_forward_rows_are_primitive_integer_rows(rng):
    for a in _reference_inputs(QQ, rng):
        pivots, ech = QQ.echelon(a.data)
        rank = len(pivots)
        rows = ech.tolist()
        assert all(type(x) is int for row in rows for x in row)
        assert all(math.gcd(*row) == 1 for row in rows[:rank])
        assert not any(x for row in rows[rank:] for x in row)
        # the pivot rows span the input's row space: the input has their
        # rank, and stacking it under them adds none
        assert len(reference_rref(a.data)[0]) == rank
        assert len(reference_rref(rows[:rank] + _plain(a.data))[0]) == rank


def _int_inputs(rng):
    """QQ arrays of Python ints: entries past 2^63, rows with a common
    factor, zero rows, and empty shapes."""
    out = [np.empty((0, 4), dtype=object), np.empty((3, 0), dtype=object),
           np.zeros((3, 4), dtype=object)]
    for m, n in ((4, 6), (6, 4), (5, 5), (1, 7)):
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-2**80, 2**80)))
                 for _ in range(n)] for _ in range(m)]
        rows[0] = [6 * x for x in rows[0]]
        rows.append([2**70 * x for x in rows[-1]])
        rows.insert(1, [0] * n)
        out.append(np.array(rows, dtype=object))
    return out


def _as_fractions(a):
    return np.array([[Fraction(x) for x in row] for row in a.tolist()],
                    dtype=object).reshape(a.shape)


def _results(a):
    """Every exit of the QQ kernel on a, with the type of each entry."""
    out = [QQ.rank(a)]
    for reduced in (False, True):
        pivots, ech = QQ.echelon(a, reduced)
        out.append((pivots, ech.shape, [(x, type(x)) for x in ech.flat]))
    return out


def test_qq_takes_int_rows_as_their_fractions(rng):
    # Python-int rows skip integral and go straight to the primitive rows;
    # the same values held as Fractions must give the same pivots, forward
    # rows, reduced form and rank.  An array that mixes ints and Fractions
    # must still be scaled as a whole
    for a in _int_inputs(rng):
        assert all(type(x) is int for x in a.flat)
        assert _results(a) == _results(_as_fractions(a))
        if a.size:
            # one entry over 3 in the last row, one integral Fraction in
            # the first
            mixed = a.copy()
            mixed[-1, -1] = Fraction(2 * a[-1, -1] + 1, 3)
            mixed[0, 0] = Fraction(a[0, 0])
            assert _results(mixed) == _results(_as_fractions(mixed))


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_echelon_leaves_a_writable_input_alone(field, rng):
    # homdim hands echelon and rank writable arrays (_augment, intdot)
    inputs = [zeros(field, 0, 3), zeros(field, 3, 0), zeros(field, 3, 4),
              random_invertible(field, 4, rng), random_matrix(field, 3, 5, rng)]
    for m in inputs:
        a = np.array(m.data)
        for reduced in (False, True):
            _, ech = field.echelon(a, reduced)
            assert np.array_equal(a, m.data)
            assert ech.dtype == field.dtype and ech.shape == a.shape
            assert not np.shares_memory(ech, a)
        field.rank(a)
        assert np.array_equal(a, m.data)


def reference_product(a, b, p=None):
    """a @ b by the schoolbook sum on Python ints mod p, or Fractions if p is None."""
    (m, k), n = a.shape, b.shape[1]
    a, b = _plain(a), _plain(b)
    out = [[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(n)]
           for i in range(m)]
    return [[Fraction(x) if p is None else x % p for x in row] for row in out]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_field_dot_matches_python_products(field, rng):
    # over GF(2^31 - 1) two products already pass 2^63, so int64 alone
    # would overflow; random_matrix draws integers, so over QQ only the
    # entries of mixed denominators give the product a scale s other than
    # 1, where dividing by s instead of s * s shows
    p = field.p if isinstance(field, PrimeField) else None

    def fractions(m, n):
        return mat(field, [[Fraction(rng.randint(-9, 9), rng.choice((3, 7, 12797)))
                            for _ in range(n)] for _ in range(m)], (m, n))

    pairs = []
    for m, k, n in ((3, 4, 5), (1, 2, 1), (0, 3, 2), (3, 0, 2), (4, 16, 3)):
        pairs.append((random_matrix(field, m, k, rng), random_matrix(field, k, n, rng)))
        pairs.append((fractions(m, k), fractions(k, n)))
    pairs.append((mat(field, [[Fraction(1, 3), Fraction(2, 7)]]),
                  mat(field, [[Fraction(5, 12797)], [Fraction(-1, 3)]])))
    for x in cat.build(cat.P(4, 0), field).mats():
        pairs.append((x.transpose(), x))
        pairs.append((random_matrix(field, 2, x.rows, rng), x))
    for a, b in pairs:
        want = reference_product(a.data, b.data, p)
        got = field.dot(a.data, b.data)
        assert got.dtype == field.dtype and got.shape == (a.rows, b.cols)
        assert _plain(got) == want
        assert (a @ b).data.tolist() == want
        if p is None:
            assert all(isinstance(x, Fraction) for x in got.ravel())


def test_random_invertible_raises_when_rank_under_counts(field, rng, monkeypatch):
    # a kernel whose rank never reaches n must fail after a bounded number
    # of draws, not loop for ever
    calls = []
    monkeypatch.setattr(type(field), "rank", lambda self, a: calls.append(a.shape) or 0)
    with pytest.raises(ArithmeticError, match=re.escape(f"3x3 matrix over {field!r}")):
        random_invertible(field, 3, rng)
    assert 0 < len(calls) <= 100
    assert random_invertible(field, 0, rng) == zeros(field, 0, 0)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
def test_integral_and_intdot_stay_in_the_elimination_form(field, rng):
    # integral: one nonzero scale for all arrays, Python ints over QQ and
    # the residues themselves over GF(p); intdot: their exact product in
    # that form, never Fractions
    p = field.p if isinstance(field, PrimeField) else None

    def entry():
        return field.coerce(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7, 12797))))

    arrays = [mat(field, [[entry() for _ in range(n)] for _ in range(m)], (m, n)).data
              for m, n in ((3, 4), (4, 5), (0, 3), (3, 0))]
    scaled, scale = field.integral(arrays)
    assert field.coerce(scale) != field.zero
    for x, y in zip(arrays, scaled):
        assert y.shape == x.shape and y.dtype == field.dtype
        assert ExactMatrix(field, y.tolist(), y.shape) == ExactMatrix._raw(field, x).scale(scale)
        if p is None:
            assert all(type(v) is int for v in y.flat)
        else:
            assert y is x
    for a, b in ((scaled[0], scaled[1]), (scaled[2], scaled[0]), (scaled[3], scaled[2])):
        got = field.intdot(a, b)
        assert got.dtype == field.dtype and got.shape == (a.shape[0], b.shape[1])
        assert _plain(got) == reference_product(a, b, p)
        if p is None:
            assert all(type(v) is int for v in got.flat)
