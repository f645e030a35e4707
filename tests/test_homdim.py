import random
from fractions import Fraction

import numpy as np
import pytest

from fourspace import catalog as cat
from fourspace import homdim
from fourspace.catalog import EnumerationBounds, InvalidParams, enumerate_descriptors
from fourspace.decomp import decompose
from fourspace.exactmat import (
    QQ,
    ExactMatrix,
    PrimeField,
    block_grid,
    hstack,
    mat,
    random_invertible,
    random_matrix,
    zeros,
)
from fourspace.homdim import CASE_SPECS, coeff_matrix, hom_dim, hom_vector
from fourspace.modules import (
    PERM_CYCLE,
    PERM_IDENTITY,
    LambdaModule,
    base_change,
    dim_vector,
    module_direct_sum,
    perm_inverse,
    permute_vertices,
    random_module,
)
from fourspace.oracle import hom_oracle

GF = PrimeField(32003)
GF101 = PrimeField(101)


def tagged_module():
    """Module over GF(101) whose letters are distinguishable by entry ranges."""
    a = mat(GF101, [[10], [11]])
    b = mat(GF101, [[20, 21], [22, 23]])
    c = mat(GF101, [[30], [31]])
    d = mat(GF101, [[40, 41], [42, 43]])
    return LambdaModule(a, b, c, d)


# -- golden block displays -----------------------------------------------------


def test_golden_three_by_eight_blocks():
    m = tagged_module()
    a, b, c, d = m.mats()
    z = lambda w: zeros(GF101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)
    want = block_grid([
        [a,  za, b,  zb, c,  d,  zc, zd],
        [za, za, zb, b,  zc, -d, c,  zd],
        [za, a,  zb, zb, -c, zd, zc, d ],
    ])
    assert coeff_matrix(m, cat.P(1, 0)) == want


def test_golden_five_by_twelve_blocks():
    m = tagged_module()
    a, b, c, d = m.mats()
    z = lambda w: zeros(GF101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)
    want = block_grid([
        [a,  za, b,  zb, c,  d,  zc, zd, za, zb, zc, zd],
        [za, za, zb, b,  zc, -d, c,  zd, za, zb, zc, zd],
        [za, a,  zb, zb, -c, zd, zc, d,  za, zb, zc, zd],
        [za, za, zb, zb, zc, zd, zc, -d, za, b,  c,  zd],
        [za, za, zb, zb, zc, zd, -c, zd, a,  zb, zc, d ],
    ])
    big = coeff_matrix(m, cat.P(2, 0))
    assert big == want
    small = coeff_matrix(m, cat.P(1, 0))
    assert big.submatrix(0, small.rows, 0, small.cols) == small


def test_golden_even_vertex_postprojective_blocks():
    # P(4, 1): a head, two copies, each with W above it, and the cap W
    m = tagged_module()
    a, b, c, d = m.mats()
    z = lambda w: zeros(GF101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)
    want = block_grid([
        [b,  c,  d,  zc, za, zb, zd, zc, za, zb, zd],
        [zb, zc, -d, c,  a,  zb, zd, zc, za, zb, zd],
        [zb, zc, zd, -c, za, b,  d,  zc, za, zb, zd],
        [zb, zc, zd, zc, za, zb, -d, c,  a,  zb, zd],
        [zb, zc, zd, zc, za, zb, zd, -c, za, b,  d ],
    ])
    assert coeff_matrix(m, cat.P(4, 1)) == want


def test_smallest_vertex_postprojective_is_a_concatenation():
    m = tagged_module()
    _, b, c, d = m.mats()
    assert coeff_matrix(m, cat.P(0, 1)) == hstack([b, c, d])


# -- closed forms ----------------------------------------------------------------


def test_closed_forms_on_random_modules(field, rng):
    for _ in range(6):
        m = random_module(field, rng, max_dim=4)
        n = dim_vector(m)
        assert hom_dim(m, cat.I(0, 0)) == n[0]
        for j in range(1, 5):
            assert hom_dim(m, cat.I(0, j)) == n[j]
        assert hom_dim(m, cat.P(0, 0)) == hstack(m.mats()).corank()
        assert hom_dim(m, cat.I(1, 1)) == m.A.corank()


def test_closed_form_descriptors_have_no_coefficient_matrix(rng):
    m = random_module(GF, rng, max_dim=2)
    for desc in (cat.P(0, 0), cat.I(0, 0), cat.I(0, 1), cat.I(0, 4)):
        with pytest.raises(InvalidParams):
            coeff_matrix(m, desc)
        hom_dim(m, desc)  # but the dimension itself is defined


def test_representative_single_letter_cases(rng):
    m = random_module(GF, rng, max_dim=4)
    assert hom_dim(m, cat.I(1, 1)) == m.A.corank()
    assert hom_dim(m, cat.I(1, 2)) == m.B.corank()
    assert hom_dim(m, cat.I(1, 3)) == m.C.corank()
    assert hom_dim(m, cat.I(1, 4)) == m.D.corank()


# -- structural invariants of the case table ---------------------------------------


def test_block_row_counts_match_family_formulas():
    m = tagged_module()
    want = {
        cat.P(3, 0): 2 * 3 + 1,
        cat.P(5, 1): 2 * 2 + 2,   # 5 = 2n+1
        cat.P(4, 1): 2 * 2 + 1,   # 4 = 2n
        cat.I(3, 0): 2 * 3 + 1,
        cat.I(5, 1): 2 * 2 + 1,   # 5 = 2n+1
        cat.I(4, 1): 2 * 2,       # 4 = 2n
        cat.R(3, GF101.coerce(2)): 2 * 3,
        cat.R(0, 6, 0): 6,
        cat.R(0, 5, 0): 5,
    }
    for desc, block_rows in want.items():
        n = coeff_matrix(m, desc)
        assert n.rows % m.n0 == 0
        assert n.rows // m.n0 == block_rows, desc.label()


STAIRCASE_STEPS = [
    (cat.P(2, 0), cat.P(3, 0)),
    (cat.P(3, 1), cat.P(5, 1)),
    (cat.P(2, 1), cat.P(4, 1)),
    (cat.I(2, 0), cat.I(3, 0)),
    (cat.I(3, 1), cat.I(5, 1)),
    (cat.I(2, 1), cat.I(4, 1)),
    (cat.R(2, GF.coerce(2)), cat.R(3, GF.coerce(2))),
    (cat.R(0, 3, 0), cat.R(0, 5, 0)),
    (cat.R(0, 4, 0), cat.R(0, 6, 0)),
]


@pytest.mark.parametrize("pair", STAIRCASE_STEPS,
                         ids=lambda p: f"{p[0].label()}->{p[1].label()}")
def test_staircase_nesting(pair, rng):
    small_desc, big_desc = pair
    m = random_module(GF, rng, max_dim=3)
    small = coeff_matrix(m, small_desc)
    big = coeff_matrix(m, big_desc)
    assert big.submatrix(0, small.rows, 0, small.cols) == small


# -- permutation coherence -----------------------------------------------------------


def test_vertex_shift_matches_module_permutation(rng):
    m = random_module(GF, rng, max_dim=3)
    minv = permute_vertices(m, perm_inverse(PERM_CYCLE))
    for fam in (cat.P, cat.I):
        for n in range(4):
            for i in (2, 3, 4):
                assert hom_dim(m, fam(n, i)) == hom_dim(minv, fam(n, i - 1))


# -- agreement with the oracle --------------------------------------------------------


def test_formula_matches_oracle_spot_sweep(field, rng):
    descs = enumerate_descriptors(
        EnumerationBounds(2, 2, (field.coerce(2), field.coerce(5))))
    for _ in range(3):
        m = random_module(field, rng, max_dim=3)
        for d in descs:
            assert hom_dim(m, d) == hom_oracle(m, cat.build(d, field)), d.label()


def test_lambda_reducing_to_special_value_rejected(rng):
    f7 = PrimeField(7)
    m = random_module(f7, rng, max_dim=2)
    desc = cat.IndecDescriptor(cat.FAMILY_REGULAR_HOMOGENEOUS, (1, 8))
    calls = (lambda: cat.build(desc, f7), lambda: hom_dim(m, desc),
             lambda: hom_vector(m, [cat.P(1, 0), desc]),
             lambda: decompose(m, EnumerationBounds(1, 1, (8,))))
    for call in calls:
        with pytest.raises(InvalidParams, match="lambda 8 reduces to 1"):
            call()


# -- hom_vector -------------------------------------------------------------------------


def test_hom_vector_empty_and_order(field, rng):
    m = random_module(field, rng, max_dim=3)
    assert hom_vector(m, []) == []
    n = dim_vector(m)
    assert hom_vector(m, [cat.I(0, 0), cat.I(0, 1)]) == [n[0], n[1]]


# one descriptor per case key and sigma sample, each at >= 3 copies of the
# rep pattern, so the transfer recursion runs past its two-copy window
DEEP_DESCS = [
    cat.P(4, 0), cat.P(7, 1), cat.P(7, 3), cat.P(6, 1), cat.P(6, 4),
    cat.I(4, 0), cat.I(7, 1), cat.I(7, 2), cat.I(8, 1), cat.I(8, 3),
    cat.R(0, 8, 0), cat.R(1, 8, cat.INF), cat.R(0, 7, 0), cat.R(1, 7, 1),
]

# one descriptor per case key at 1 and at 2 copies of the rep pattern: a
# pass that ends after copy 1 of the window, and one whose copies 1 and 2
# share the basis B of a copy
SHALLOW_DESCS = [
    cat.P(2, 0), cat.P(3, 0), cat.P(3, 1), cat.P(5, 2), cat.P(2, 1), cat.P(4, 3),
    cat.I(2, 0), cat.I(3, 0), cat.I(3, 1), cat.I(5, 4), cat.I(4, 1), cat.I(6, 2),
    cat.R(0, 4, 0), cat.R(1, 6, 1), cat.R(0, 3, 0), cat.R(1, 5, cat.INF),
]

HOM_VECTOR_FIELDS = {"GF32003": GF, "GF2": PrimeField(2), "GF3": PrimeField(3), "QQ": QQ}


def _tubes(field, depths=(1, 4)):
    lams = [lam for lam in map(field.coerce, (2, 5)) if lam not in (field.zero, field.one)]
    return [cat.R(l, lam) for lam in dict.fromkeys(lams) for l in depths]


def _disguised(field, picks, rng, invertible=random_invertible):
    m = cat.build(picks[0], field)
    for desc in picks[1:]:
        m = module_direct_sum(m, cat.build(desc, field))
    u = invertible(field, m.n0, rng)
    return base_change(m, u, [invertible(field, x.cols, rng) for x in m.mats()])


def test_deep_descriptors_cover_every_case():
    cases = [homdim._case(GF, d) for d in DEEP_DESCS]
    assert {key for key, _, _, _ in cases} == set(CASE_SPECS)
    assert all(CASE_SPECS[key]["reps"](param) >= 3 for key, _, param, _ in cases)


def test_shallow_descriptors_cover_every_case():
    reps = {(key, CASE_SPECS[key]["reps"](param))
            for key, _, param, _ in (homdim._case(GF, d) for d in SHALLOW_DESCS)}
    assert reps == {(key, k) for key in CASE_SPECS for k in (1, 2)}


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_hom_vector_matches_hom_dim_and_oracle(field):
    rng = random.Random(0x4E)
    tubes = _tubes(field)
    deep = DEEP_DESCS + tubes
    shallow = SHALLOW_DESCS + _tubes(field, (2, 3))
    descs = deep + shallow
    # a tube summand when the field has one; over GF(2) an exceptional one
    held = tubes[0] if tubes else cat.R(0, 2, 0)
    modules = [
        LambdaModule(*(random_matrix(field, dims[0], n, rng) for n in dims[1:]))
        for dims in ((4, 2, 1, 2, 3), (3, 1, 2, 1, 1))
    ] + [_disguised(field, [held, cat.P(1, 0), cat.I(0, 2)], rng)]
    for m in modules:
        got = hom_vector(m, descs)
        assert got == [hom_dim(m, d) for d in descs]
        assert got == [hom_oracle(m, cat.build(d, field)) for d in descs]
        # alone, a shallow descriptor's pass stops after one or two copies
        assert [hom_vector(m, [d])[0] for d in shallow] == got[len(deep):]


# for each kind, GF(32003) descriptors at two depths k of the staircase;
# P(2n, 1) is the "M3" case whose head is narrower than its copies
COUNTED_DESCS = {
    "M2": ("M2", (cat.I(21, 1), cat.I(25, 1))),
    "M3": ("M3", (cat.P(21, 1), cat.P(25, 1))),
    "M3-P_EVEN": ("M3", (cat.P(20, 1), cat.P(24, 1))),
}


@pytest.mark.parametrize("kind, descs", COUNTED_DESCS.values(), ids=COUNTED_DESCS)
def test_hom_vector_eliminates_the_tail_rows_once_per_copy(kind, descs, monkeypatch):
    # a copy's elimination has the rows of S, not those of S and of the
    # copy (the span check stacks S twice): only the head and the basis B
    # have more rows than e * n_0 here, e the overlap's block rows.  And
    # copies stop costing eliminations once span(S) repeats, so both
    # depths run the same number of them.
    rng = random.Random(7)
    m = LambdaModule(*(random_matrix(GF, 8, 4, rng) for _ in range(4)))
    rows = []
    echelon = GF.echelon

    def counted(a, reduced=False):
        rows.append(a.shape[0])
        return echelon(a, reduced)

    monkeypatch.setattr(GF, "echelon", counted)
    eliminations = set()
    for desc in descs:
        key, _, param, _ = homdim._case(GF, desc)
        spec = CASE_SPECS[key]
        assert spec["kind"] == kind
        rows.clear()
        got = hom_vector(m, [desc])
        counts = list(rows)
        assert got == [hom_dim(m, desc)]
        eliminations.add(len(counts))
        assert sum(r > len(spec["overlap"]) * m.n0 for r in counts) <= 2, counts
    assert len(eliminations) == 1, eliminations


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_reduce_rows_is_one_map_onto_the_free_columns(field):
    # W reduced against the forward basis B of [R | E] must vanish in every
    # pivot column of B, those in the tail included, and be one nonzero
    # multiple c of the canonical residual W - W[:, P] rref(B): one c for
    # all rows, or S (W reduced) would span another space than S W does
    rng = random.Random(11)
    nonzero = 0
    for m, n, t in ((6, 4, 3), (7, 3, 5), (5, 4, 2), (8, 8, 4)):
        rep = np.array(random_matrix(field, m, n, rng).data)
        rep[:, rng.randrange(n)] = field.zero
        (rep, w), _ = field.integral([rep, random_matrix(field, t, n, rng).data])
        pivots, ech = field.echelon(homdim._augment(rep, t))
        basis = ech[: len(pivots)]
        # a dependent row of R leaves B a pivot in the tail columns
        assert pivots[-1] >= n
        w = np.hstack([w, np.zeros((t, t), dtype=field.dtype)])
        wb = mat(field, homdim._reduce_rows(field, w, pivots, basis).tolist(), w.shape)
        _, rref = field.echelon(basis, reduced=True)
        w = mat(field, w.tolist(), w.shape)
        lead = ExactMatrix._raw(field, w.data[:, pivots])
        want = w - lead @ mat(field, rref.tolist())
        assert not any(wb[i, c] for i in range(t) for c in pivots)
        # wb = c * want with c != 0: both zero, or proportional as vectors
        flat = [wb.entries_rowmajor(), want.entries_rowmajor()]
        assert any(flat[0]) == any(flat[1]) and mat(field, flat).rank() <= 1
        nonzero += any(flat[1])
    assert nonzero


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=repr)
def test_hom_vector_clears_the_tail_pivots_of_a_copy(field):
    # [rep | E] has pivots in its tail columns when a copy's rows are
    # dependent; W reduced against B must be cleared there too, or a
    # step's residual can take one of B's pivots and count a rank twice.
    # Over small fields some of these sums meet that: with the tail pivot
    # rows left out, 7 of these 40 modules got a wrong answer
    descs = [cat.P(4, 3), cat.P(6, 2), cat.I(8, 3), cat.P(8, 4)]
    for seed in range(10):
        rng = random.Random(seed)
        for picks in ([cat.I(1, 0), cat.P(2, 1)], [cat.P(1, 0), cat.I(2, 3)]):
            m = _disguised(field, picks, rng)
            assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


@pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
def test_same_span_is_exact(field):
    s = np.array([[1, 0, 2], [0, 1, 3]], dtype=field.dtype)
    # the same rows in another order, another echelon basis of their span
    # (first row plus second) and that basis scaled: one span, so the
    # recursion's fixed point
    for other in ([[0, 1, 3], [1, 0, 2]], [[1, 1, 5], [0, 1, 3]], [[2, 2, 10], [0, 5, 15]]):
        assert homdim._same_span(field, s, np.array(other, dtype=field.dtype))
    # as many rows, another span; and a subspace
    assert not homdim._same_span(field, s, np.array([[1, 0, 2], [0, 1, 4]], dtype=field.dtype))
    assert not homdim._same_span(field, s, s[:1])
    empty = s[:0]
    assert homdim._same_span(field, empty, empty)


# (field, summands, bounds): a deep summand keeps span(S) moving for several
# copies; QQ takes smaller ones, as hom_dim's one matrix is slow there
LATE_FIXED_POINTS = {
    "GF32003": (GF, (cat.R(5, 2), cat.P(7, 1)), (16, 7)),
    "QQ": (QQ, (cat.R(3, 2), cat.P(3, 1)), (10, 5)),
}


@pytest.mark.parametrize("field, picks, bounds", LATE_FIXED_POINTS.values(), ids=LATE_FIXED_POINTS)
def test_hom_vector_extrapolates_past_a_late_fixed_point(field, picks, bounds, monkeypatch):
    rng = random.Random(5)
    m = _disguised(field, picks, rng)
    # one staircase per case at every depth: the representatives (sigma the
    # identity) of the in-bounds descriptors
    descs = [d for d in enumerate_descriptors(EnumerationBounds(*bounds, (field.coerce(2),)))
             if not homdim._is_closed_form(d) and homdim._case(field, d)[1] == PERM_IDENTITY]
    groups = {(key, lam) for key, _, _, lam in (homdim._case(field, d) for d in descs)}
    checks = []
    same_span = homdim._same_span

    def spied(*args):
        checks.append(same_span(*args))
        return checks[-1]

    monkeypatch.setattr(homdim, "_same_span", spied)
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
    # every staircase stopped inside the bounds, after as many copies as it
    # took checks; some only after several
    depths = [len(run) + 1 for run in "".join(".T"[c] for c in checks).split("T")[:-1]]
    assert len(depths) == len(groups) and max(depths) >= 4, depths


def test_hom_vector_shuffled_with_duplicates(field, rng):
    lams = (field.coerce(2), field.coerce(5))
    descs = enumerate_descriptors(EnumerationBounds(6, 4, lams))
    descs = descs + rng.sample(descs, 20) + [cat.P(0, 0), cat.I(0, 3), cat.I(0, 0)]
    rng.shuffle(descs)
    for m in (random_module(field, rng, max_dim=3),
              _disguised(field, [cat.R(2, lams[0]), cat.P(2, 1)], rng)):
        assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


def test_hom_vector_at_benchmark_size():
    rng = random.Random(24)
    descs = enumerate_descriptors(EnumerationBounds(24, 12, (GF.coerce(2), GF.coerce(5))))
    m = LambdaModule(*(random_matrix(GF, 8, n, rng) for n in (4, 4, 4, 4)))
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


# Bit length that no entry of an elimination input reaches in the deep QQ
# test below.  Its letters have entries of about 10 bits; a step of the
# recursion eliminates S times a product fixed per group, and S holds
# minors of one copy, which reached 170 bits there at every depth.
QQ_ENTRY_BITS = 512


def _entry_bits(a):
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for x in a.flat), default=0)


def test_hom_vector_deep_qq_staircases(rng, monkeypatch):
    # every case at its deepest parameter, over QQ with a fractional lam.
    # If the integer rows of S grew from step to step of the recursion (a
    # kernel without its gcd, say), the run would take minutes; the bound
    # on every elimination's input fails it within a few steps instead
    echelon = QQ.echelon

    def bounded(a, reduced=False):
        bits = _entry_bits(a)
        assert bits <= QQ_ENTRY_BITS, f"echelon input with a {bits}-bit entry"
        return echelon(a, reduced)

    monkeypatch.setattr(QQ, "echelon", bounded)
    lam = Fraction(7, 3)
    deepest = {}
    for d in enumerate_descriptors(EnumerationBounds(24, 12, (lam,))):
        if homdim._is_closed_form(d):
            continue
        key, _, param, _ = homdim._case(QQ, d)
        reps = CASE_SPECS[key]["reps"](param)
        if reps > deepest.get(key, (-1, None))[0]:
            deepest[key] = (reps, d)
    assert set(deepest) == set(CASE_SPECS)
    descs = [d for _, d in deepest.values()]
    # one sum behind an integer base change, and behind one whose columns
    # lie over 7 and 12797 in turn, so its letters hold Fractions of mixed
    # denominators
    picks = [cat.R(1, lam), cat.P(1, 0), cat.I(1, 0)]
    modules = [_disguised(QQ, picks, rng), _disguised(QQ, picks, rng, _over_denominators)]
    denominators = {x.denominator for y in modules[1].mats() for x in y.data.flat}
    assert all(any(q % p == 0 for q in denominators) for p in (7, 12797))
    for m in modules:
        assert dim_vector(m) == (8, 4, 4, 4, 4)
        assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


def _over_denominators(field, n, rng):
    """A random invertible n x n matrix over QQ whose columns lie over 7
    and 12797 in turn."""
    d = [[Fraction(1, (7, 12797)[j % 2]) if i == j else 0 for j in range(n)] for i in range(n)]
    return random_invertible(field, n, rng) @ mat(field, d, (n, n))


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_hom_vector_eliminates_forward_only(field, monkeypatch):
    # the staircase reduces S W against the forward basis of a copy, so no
    # elimination of hom_vector asks for the reduced form
    calls = []
    echelon = field.echelon

    def spied(a, reduced=False):
        calls.append(reduced)
        return echelon(a, reduced)

    monkeypatch.setattr(field, "echelon", spied)
    lams = (field.coerce(2), field.coerce(Fraction(7, 3)))
    m = _disguised(field, [cat.R(2, lams[1]), cat.P(2, 1), cat.I(2, 0)], random.Random(3))
    descs = enumerate_descriptors(EnumerationBounds(6, 3, lams))
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
    assert calls and not any(calls)


def test_hom_vector_additive(field, rng):
    descs = [cat.P(1, 0), cat.I(1, 2), cat.R(0, 2, 1), cat.I(0, 0)]
    m = random_module(field, rng, max_dim=3)
    mp = random_module(field, rng, max_dim=3)
    lhs = hom_vector(module_direct_sum(m, mp), descs)
    rhs = [a + b for a, b in zip(hom_vector(m, descs), hom_vector(mp, descs))]
    assert lhs == rhs


# -- mutation sensitivity ---------------------------------------------------------
#
# A sign flip is rank-visible only if its block sits on a cycle of the
# bipartite block-row/block-column incidence graph; bridge blocks are
# absorbed by +-1 diagonal block scaling.  The tube case is the one whose
# pattern has cycles (the shared D and C columns), and a flip there
# computes the hom dimension toward the tube at -lam instead of lam, so
# detection needs a probe module actually containing the lam tube.


CYCLE_MUTATIONS = [
    ("R_EVEN", "head", 0, 0),
    ("R_EVEN", "head", 0, 1),
    ("R_EVEN", "head", 1, 1),
    ("R_EVEN", "rep", 0, 0),
    ("R_EVEN", "rep", 0, 1),
    ("R_EVEN", "rep", 1, 1),
]


def _flip_cell(monkeypatch, case, part, i, j):
    pattern = [list(row) for row in CASE_SPECS[case][part]]
    letter, coeff = pattern[i][j]
    pattern[i][j] = (letter, -coeff)
    mutated = dict(CASE_SPECS[case])
    mutated[part] = pattern
    monkeypatch.setitem(CASE_SPECS, case, mutated)


# Both routes read CASE_SPECS at call time, so an edit to the table must
# reach hom_vector's recursion as surely as hom_dim's one matrix.  On the
# hom_dim route a mutation case keeps its bare id.
ROUTES = {
    "hom_dim": lambda m, descs: [hom_dim(m, d) for d in descs],
    "hom_vector": hom_vector,
}

CYCLE_CASES = [
    pytest.param(*mut, route, id="-".join(map(str, mut)) + suffix)
    for route, suffix in (("hom_dim", ""), ("hom_vector", "-hom_vector"))
    for mut in CYCLE_MUTATIONS
]


@pytest.mark.parametrize("case,part,i,j,route", CYCLE_CASES)
def test_sign_flip_on_cycle_blocks_is_caught(case, part, i, j, route, monkeypatch):
    lam = GF.coerce(2)
    rng = random.Random(11)
    m = module_direct_sum(cat.build(cat.R(2, lam), GF),
                          random_module(GF, rng, max_dim=2))
    probes = [cat.R(l, lam) for l in (1, 2, 3)]
    truth = [hom_oracle(m, cat.build(p, GF)) for p in probes]
    _flip_cell(monkeypatch, case, part, i, j)
    mutated = ROUTES[route](m, probes)
    assert mutated != truth


@pytest.mark.parametrize("route", ROUTES)
def test_sign_flip_on_bridge_blocks_is_invisible(route, monkeypatch):
    # the lone A block of the tube case hangs off a leaf column: flipping
    # it rescales away, so agreement must survive (this pins the analysis
    # that motivates the structured verify trials)
    rng = random.Random(12)
    mods = [random_module(GF, rng, max_dim=3) for _ in range(4)]
    probe = cat.R(2, GF.coerce(2))
    truth = [hom_oracle(m, cat.build(probe, GF)) for m in mods]
    _flip_cell(monkeypatch, "R_EVEN", "head", 1, 3)
    assert [ROUTES[route](m, [probe])[0] for m in mods] == truth


def test_inconsistent_block_width_raises_on_both_routes(monkeypatch):
    # the rep's D cell becomes an A: its block column also holds the
    # overlap's D, and A and D differ in width in the tagged module
    rep = [list(row) for row in CASE_SPECS["P0"]["rep"]]
    assert rep[0][1] == ("D", -1)
    rep[0][1] = ("A", -1)
    monkeypatch.setitem(CASE_SPECS, "P0", dict(CASE_SPECS["P0"], rep=rep))
    m = tagged_module()
    # P(1, 0) has no copy of rep; P(4, 0) has three
    assert hom_vector(m, [cat.P(1, 0)]) == [coeff_matrix(m, cat.P(1, 0)).corank()]
    with pytest.raises(AssertionError) as by_matrix:
        coeff_matrix(m, cat.P(4, 0))
    with pytest.raises(AssertionError) as by_vector:
        hom_vector(m, [cat.P(1, 0), cat.P(4, 0)])
    assert str(by_vector.value) == str(by_matrix.value)
    assert "inconsistent block widths" in str(by_matrix.value)
