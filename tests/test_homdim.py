import ast
import copy
import itertools
import pickle
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

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
    random_invertible,
    random_matrix,
    vstack,
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
    permute_slots,
    permute_vertices,
    random_module,
)
from fourspace.oracle import hom_oracle
from fourspace.verify import disguised_sum, oracle_vector, structured_module

from case_edit import flipped_sign
from reference import reference_rref

GF = PrimeField(32003)
GF101 = PrimeField(101)


def tagged_module():
    """Module over GF(101) whose letters are distinguishable by entry ranges."""
    a = ExactMatrix(GF101, [[10], [11]])
    b = ExactMatrix(GF101, [[20, 21], [22, 23]])
    c = ExactMatrix(GF101, [[30], [31]])
    d = ExactMatrix(GF101, [[40, 41], [42, 43]])
    return LambdaModule(a, b, c, d)


# -C and -D of tagged_module, the signed blocks of its coefficient matrices
NC = ExactMatrix(GF101, [[-30], [-31]])
ND = ExactMatrix(GF101, [[-40, -41], [-42, -43]])


# -- golden block displays -----------------------------------------------------


def test_golden_three_by_eight_blocks():
    m = tagged_module()
    a, b, c, d = m.mats()
    nc, nd = NC, ND
    z = lambda w: zeros(GF101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)
    want = block_grid([
        [a,  za, b,  zb, c,  d,  zc, zd],
        [za, za, zb, b,  zc, nd, c,  zd],
        [za, a,  zb, zb, nc, zd, zc, d ],
    ])
    assert coeff_matrix(m, cat.P(1, 0)) == want


def test_golden_five_by_twelve_blocks():
    m = tagged_module()
    a, b, c, d = m.mats()
    nc, nd = NC, ND
    z = lambda w: zeros(GF101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)
    want = block_grid([
        [a,  za, b,  zb, c,  d,  zc, zd, za, zb, zc, zd],
        [za, za, zb, b,  zc, nd, c,  zd, za, zb, zc, zd],
        [za, a,  zb, zb, nc, zd, zc, d,  za, zb, zc, zd],
        [za, za, zb, zb, zc, zd, zc, nd, za, b,  c,  zd],
        [za, za, zb, zb, zc, zd, nc, zd, a,  zb, zc, d ],
    ])
    big = coeff_matrix(m, cat.P(2, 0))
    assert big == want
    small = coeff_matrix(m, cat.P(1, 0))
    assert tuple(row[: small.cols] for row in big.data[: small.rows]) == small.data


def test_golden_even_vertex_postprojective_blocks():
    # P(4, 1): a head, two copies, each with W above it, and the cap W
    m = tagged_module()
    a, b, c, d = m.mats()
    nc, nd = NC, ND
    z = lambda w: zeros(GF101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)
    want = block_grid([
        [b,  c,  d,  zc, za, zb, zd, zc, za, zb, zd],
        [zb, zc, nd, c,  a,  zb, zd, zc, za, zb, zd],
        [zb, zc, zd, nc, za, b,  d,  zc, za, zb, zd],
        [zb, zc, zd, zc, za, zb, nd, c,  a,  zb, zd],
        [zb, zc, zd, zc, za, zb, zd, nc, za, b,  d ],
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
    assert tuple(row[: small.cols] for row in big.data[: small.rows]) == small.data


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
# rep pattern, so the transfer recursion runs well past its first copy
DEEP_DESCS = [
    cat.P(4, 0), cat.P(7, 1), cat.P(7, 3), cat.P(6, 1), cat.P(6, 4),
    cat.I(4, 0), cat.I(7, 1), cat.I(7, 2), cat.I(8, 1), cat.I(8, 3),
    cat.R(0, 8, 0), cat.R(1, 8, cat.INF), cat.R(0, 7, 0), cat.R(1, 7, 1),
]

# one descriptor per case key at 1 and at 2 copies of the rep pattern: a
# pass that ends after its first copy, and one whose copies 1 and 2
# share the transfer basis T of a copy
SHALLOW_DESCS = [
    cat.P(2, 0), cat.P(3, 0), cat.P(3, 1), cat.P(5, 2), cat.P(2, 1), cat.P(4, 3),
    cat.I(2, 0), cat.I(3, 0), cat.I(3, 1), cat.I(5, 4), cat.I(4, 1), cat.I(6, 2),
    cat.R(0, 4, 0), cat.R(1, 6, 1), cat.R(0, 3, 0), cat.R(1, 5, cat.INF),
]

HOM_VECTOR_FIELDS = {"GF32003": GF, "GF2": PrimeField(2), "GF3": PrimeField(3), "QQ": QQ}


def _lambdas(field):
    """2 and 5 in field, without repeats and without 0 and 1."""
    return tuple(dict.fromkeys(x for x in map(field.coerce, (2, 5))
                               if x not in (field.zero, field.one)))


def _tubes(field, depths=(1, 4)):
    return [cat.R(l, lam) for lam in _lambdas(field) for l in depths]


def test_deep_descriptors_cover_every_case():
    cases = [cat.case(d, GF) for d in DEEP_DESCS]
    assert {key for key, _, _, _ in cases} == set(CASE_SPECS)
    assert all(CASE_SPECS[key]["reps"](param) >= 3 for key, _, param, _ in cases)


def test_shallow_descriptors_cover_every_case():
    reps = {(key, CASE_SPECS[key]["reps"](param))
            for key, _, param, _ in (cat.case(d, GF) for d in SHALLOW_DESCS)}
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
    ] + [disguised_sum(field, [held, cat.P(1, 0), cat.I(0, 2)], rng)]
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


def _spy_kernel(monkeypatch):
    """Patch homdim._kernel to record its calls.  Returns (missed,
    running): the key of each call that made its entry, and the keys of
    the calls running now, innermost last; the recursion to a parent goes
    through the spy too."""
    kernel = homdim._kernel
    missed, running = [], []

    def spied(field, cuts, kernels, key):
        if key not in kernels:
            missed.append(key)
        running.append(key)
        try:
            return kernel(field, cuts, kernels, key)
        finally:
            running.pop()

    monkeypatch.setattr(homdim, "_kernel", spied)
    return missed, running


@pytest.mark.parametrize("kind, descs", COUNTED_DESCS.values(), ids=COUNTED_DESCS)
def test_hom_vector_eliminates_the_tail_rows_once_per_copy(kind, descs, monkeypatch):
    # each letter set's kernel rows are one split of its parent's, made once
    # per call (_kernel), and every fold writes its grid from those rows,
    # so apart from the kernel splits and the two folds (head and rep) a
    # step eliminates only the transfer basis T stacked over the state S:
    # no elimination is wider than the columns of W and of the next W, 8
    # for these letters, where a copy's columns made it 20.  And copies
    # stop costing eliminations once span(S) repeats, so both depths run
    # the same number of them
    rng = random.Random(7)
    m = LambdaModule(*(random_matrix(GF, 8, 4, rng) for _ in range(4)))
    inputs = []
    eliminate = GF._eliminate
    missed, running = _spy_kernel(monkeypatch)

    def counted(rows, reduced=False):
        # every elimination runs this loop: echelon's, a kernel split's,
        # and a step's on [T; [S 0]]
        inputs.append((bool(running), len(rows[0]) if rows else 0))
        return eliminate(rows, reduced)

    sparse = homdim._sparse_letters

    def uncounted(field, letters):
        # the two-way echelons of M's letters come before any staircase
        out = sparse(field, letters)
        inputs.clear()
        return out

    monkeypatch.setattr(GF, "_eliminate", counted)
    monkeypatch.setattr(homdim, "_sparse_letters", uncounted)
    eliminations = set()
    for desc in descs:
        key, _, param, _ = cat.case(desc, GF)
        spec = CASE_SPECS[key]
        assert spec["kind"] == kind
        missed.clear()
        got = hom_vector(m, [desc])
        assert got == [hom_dim(m, desc)]
        eliminations.add(len(inputs))
        kernels = [n for inside, n in inputs if inside]
        # one split per letter set, each of one or two letters, of its
        # parent's rows with one 4-wide letter's columns first
        assert missed and len(set(missed)) == len(missed) == len(kernels), missed
        assert all(len(x) in (1, 2) for x in missed), missed
        assert all(n == 4 + 16 for n in kernels), kernels
        counts = [n for inside, n in inputs if not inside]
        limit = 2 * 4 * len(spec["overlap"][0])
        assert limit == 8 and sum(c > limit for c in counts) <= 2, counts
    assert len(eliminations) == 1, eliminations


def test_letter_kernels_are_shared_by_the_whole_call(monkeypatch):
    # the 106 descriptors of (4, 4, {2, 5}) fall into 32 (case, sigma, lam)
    # groups, whose folds read the kernels of 10 letter sets: each of the
    # four letters alone and each pair of them, each one split per call
    rng = random.Random(4)
    m = LambdaModule(*(random_matrix(GF, 6, 3, rng) for _ in range(4)))
    descs = enumerate_descriptors(EnumerationBounds(4, 4, (GF.coerce(2), GF.coerce(5))))
    assert len(descs) == 106
    want = [hom_dim(m, d) for d in descs]
    missed, running = _spy_kernel(monkeypatch)
    splits = []
    split = GF._split

    def counted(rows, n):
        if running:
            splits.append(running[-1])
        return split(rows, n)

    groups = []
    caches = []
    coranks, kernel_fold = homdim._staircase_coranks, homdim._kernel_fold

    def spied(field, plan, *args):
        groups.append(plan)
        return coranks(field, plan, *args)

    def spied_fold(field, plan, scalar, *cache):
        caches.append(cache)
        return kernel_fold(field, plan, scalar, *cache)

    monkeypatch.setattr(GF, "_split", counted)
    monkeypatch.setattr(homdim, "_staircase_coranks", spied)
    monkeypatch.setattr(homdim, "_kernel_fold", spied_fold)
    assert hom_vector(m, descs) == want
    assert len(groups) == 32
    assert len(missed) == len(set(missed)) == 10 and sorted(splits) == sorted(missed)
    # one cache serves every fold, and each entry holds the
    # rank [A B C D] - rank L_S nonzero rows of K_S [A B C D], of
    # [A B C D]'s width, as lists of Python ints; the n_0 - rank [A B C D]
    # vectors [A B C D] kills are counted once, beside the cache (killed)
    (cuts, kernels, killed), = {id(c[1]): c for c in caches}.values()
    whole = hstack(m.mats()).rank()
    assert killed == 6 - whole
    assert set(kernels) == {(), *missed}
    for key in missed:
        rank = hstack([m.mats()[s] for s in key]).rank()
        rows = kernels[key]
        assert len(rows) == whole - rank and all(len(row) == 12 for row in rows), key
        assert all(any(row) for row in rows), key
        assert all(type(x) is int for row in rows for x in row)


def test_each_distinct_fold_is_split_once_per_call(monkeypatch):
    # the 32 groups of (4, 4, {2, 5}) read 52 folds: a head and a rep
    # each, the rep alone where the head is the step from the empty state,
    # at any copy count.  In sign-normal form 10 of them repeat
    # another, as their _FoldPlan and their group's lam: the plan
    # numbers 42, and a call splits each once, afresh for its M:
    # every fold writes its rows and makes one field._split of its own,
    # besides the splits that make its kernel entries (_kernel)
    rng = random.Random(4)
    modules = [LambdaModule(*(random_matrix(GF, 6, 3, rng) for _ in range(4))),
               disguised_sum(GF, [cat.R(1, 2), cat.P(2, 1), cat.I(1, 0)], rng)]
    descs = enumerate_descriptors(EnumerationBounds(4, 4, (GF.coerce(2), GF.coerce(5))))
    plan = homdim._targets(tuple(descs), GF)
    read = [i for staircase, _, _ in plan.groups for i in (staircase.head, staircase.rep)
            if i is not None]
    assert len(plan.groups) == 32 and len(read) == 52
    assert sorted(set(read)) == list(range(len(plan.folds))) == list(range(42))
    kernel_fold, field_split = homdim._kernel_fold, GF._split
    _, in_kernel = _spy_kernel(monkeypatch)
    split, folding, own = [], [], []

    def counted(rows, n):
        if folding and not in_kernel:
            own.append(folding[-1])
        return field_split(rows, n)

    def spied(field, fold, scalar, *cache):
        split.append((fold, tuple(scalar.values())))
        folding.append(split[-1])
        try:
            return kernel_fold(field, fold, scalar, *cache)
        finally:
            folding.pop()

    monkeypatch.setattr(homdim, "_kernel_fold", spied)
    monkeypatch.setattr(GF, "_split", counted)
    for m in modules:
        split.clear()
        own.clear()
        assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
        assert len(split) == len(set(split)) == 42
        assert own == split


# (descriptor list, field, groups, distinct folds planned): the homdim
# --all list at max_n = max_l = 1 and the lists of the three benchmark
# workloads (verify-sweep, homdim-large, decompose-qq)
FOLD_COUNTS = {
    "all-1-1": ((1, 1), GF, 28, 38),
    "verify-sweep": ((4, 4), GF, 32, 42),
    "homdim-large": ((24, 12), GF, 32, 42),
    "decompose-qq": ((3, 3), QQ, 32, 42),
}


@pytest.mark.parametrize("bounds, field, groups, folds", FOLD_COUNTS.values(), ids=FOLD_COUNTS)
def test_every_staircase_plan_holds_its_rep_fold(bounds, field, groups, folds):
    # every group's plan names its rep fold, and its head fold unless the
    # head is the step from the empty state, and the folds numbered are
    # exactly those.  At max_n = max_l = 1 most groups ask for no copies;
    # one with a head fold then takes no step, yet its plan names its rep
    # fold too: 38 folds
    descs = enumerate_descriptors(EnumerationBounds(*bounds, tuple(map(field.coerce, (2, 5)))))
    plan = homdim._targets(tuple(descs), field)
    assert (len(plan.groups), len(plan.folds)) == (groups, folds)
    for staircase, top, slots in plan.groups:
        assert top == max(r for _, r in slots)
        assert staircase.rep is not None
    read = {i for staircase, _, _ in plan.groups for i in (staircase.head, staircase.rep)
            if i is not None}
    assert read == set(range(folds))
    # a fold is keyed by its _FoldPlan and its group's lam, with no test
    # of its cells: only R_EVEN groups have a lam, and each of their folds
    # writes a "-lam" block, so a lam never keys apart equal folds that
    # would not read it
    for staircase, _, slots in plan.groups:
        key, _, _, lam = cat.case(descs[slots[0][0]], field)
        assert (lam is not None) == (key == "R_EVEN"), key
        for i in (staircase.head, staircase.rep):
            if i is not None and lam is not None:
                assert any(c == "-lam" for row in plan.folds[i][0].blocks for *_, c in row)
    if bounds == (1, 1):
        rng = random.Random(0x11)
        for m in (random_module(field, rng, max_dim=4),
                  disguised_sum(field, [cat.P(1, 0), cat.I(1, 2), cat.R(1, 2)], rng)):
            assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


def _kernel_root(field, rows):
    """(kernels, killed): a kernel cache holding the empty set's entry, as
    hom_vector starts it from the rows of [A B C D], its independent
    nonzero working rows, and the count of the others."""
    _, ech = field.echelon(rows)
    nonzero = field._start([row for row in ech if any(row)])
    return {(): nonzero}, len(ech) - len(nonzero)


# (n_0, letter widths): n_0 = 0, n_0 = 1 with letters of width 0 and of
# more than n_0, and n_0 past the widths' sum, where [A B C D] kills rows
KERNEL_SHAPES = [(0, (2, 0, 1, 3)), (1, (1, 0, 2, 1)), (1, (0, 0, 0, 0)), (3, (2, 1, 2, 1)),
                 (6, (1, 2, 0, 1))]


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_kernel_rows_span_the_kernel_times_the_letters(field):
    # every non-empty letter set S, the triples and all four too, which no
    # pattern asks for: its entry spans K [A B C D], K the left kernel of
    # L_S, against the reference eliminator, in rank [A B C D] - rank L_S
    # independent nonzero rows; the n_0 - rank [A B C D] vectors of K that
    # [A B C D] kills are counted once, beside the cache (killed).  Each
    # set is made from a fresh cache, so from its parents.  Half the draws
    # make D's columns A's and B's, so adding D to a set holding A and B
    # kills nothing more
    rng = random.Random(0x4E7)
    p = getattr(field, "p", None)
    seen = set()
    for trial in range(4):
        for n0, widths in KERNEL_SHAPES:
            letters = [random_matrix(field, n0, w, rng) for w in widths]
            if trial % 2:
                letters[3] = hstack(letters[:2])
            stacked, _ = field.integral(hstack(letters).data)
            cuts = list(accumulate((x.cols for x in letters), initial=0))
            whole = [list(row) for row in stacked]
            for size in range(1, 5):
                for key in itertools.combinations(range(4), size):
                    kernels, killed = _kernel_root(field, stacked)
                    got = homdim._kernel(field, cuts, kernels, key)
                    assert all(key[:i] in kernels for i in range(size))
                    # K: the rows of the RREF of [L_S | I] with a pivot in I
                    cols = [c for s in key for c in range(cuts[s], cuts[s + 1])]
                    pivots, rref = reference_rref(
                        [[row[c] for c in cols] + [int(i == j) for j in range(n0)]
                         for i, row in enumerate(whole)], p)
                    k = [row[len(cols):] for row, c in zip(rref, pivots) if c >= len(cols)]
                    want = [[sum(y[i] * whole[i][c] for i in range(n0)) for c in range(cuts[-1])]
                            for y in k]
                    assert len(got) + killed == len(k), key
                    assert all(len(row) == cuts[-1] for row in got), key
                    (got_pivots, got_rref), (want_pivots, want_rref) = (
                        reference_rref(x, p) for x in (got, want))
                    assert len(got_pivots) == len(got), key
                    assert got_rref[: len(got_pivots)] == want_rref[: len(want_pivots)], key
                    seen.update({"zero rows": killed > 0,
                                 "n0 = 0": not n0, "rank drop": len(k) < n0}.items())
    assert all((name, True) in seen for name in ("zero rows", "n0 = 0", "rank drop")), seen


# every rep and head pattern of CASE_SPECS, for the folds below, and a rep
# whose own column holds a lone "-lam" cell: at lam = 0 it asks nothing
LONE_LAM = {"rep": [[("B", 1), ("D", "-lam"), ("A", 1), None],
                    [("B", -1), None, ("A", -1), ("C", 1)]],
            "overlap": [[("B", 1)]]}
FOLD_PATTERNS = [(CASE_SPECS[key], part) for key in CASE_SPECS for part in ("rep", "head")]
FOLD_PATTERNS.append((LONE_LAM, "rep"))


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_transfer_basis_spans_what_meets_the_next_copy(field):
    # a fold of a rep R reorders its block columns as [R_own | R_W | E]
    # (R_W the columns of W, E the next W on R's last rows) and a head's
    # as [H | E].  Its images T must span exactly {y G_rest : y G_own = 0}
    # of that grid G with independent rows, and its z count
    # {y : y G = 0}; both against the null space of G_own transposed, a
    # reduced elimination of the grid as the cell writer writes it.  The
    # letters are random, some of them rank-deficient or zero-width, and
    # sit in M's slots in a random order
    rng = random.Random(11)
    pivots_seen = set()
    for trial in range(6):
        for spec, part in FOLD_PATTERNS:
            n0 = rng.randint(1, 5)
            letters = [random_matrix(field, n0, rng.randint(0, 3), rng) for _ in range(4)]
            if trial % 2:
                # rank-deficient: a repeated column, a zero one, a zero-width letter
                first = ExactMatrix(field, [row[:1] for row in letters[0].data],
                                    (n0, min(1, letters[0].cols)))
                letters[0] = hstack([letters[0], first])
                letters[1] = hstack([letters[1], zeros(field, n0, 1)])
                letters[rng.randrange(2, 4)] = zeros(field, n0, 0)
            slots = rng.sample(range(4), 4)
            named = [letters[s] for s in slots]
            lam = rng.choice([field.zero, field.coerce(Fraction(7, 5)), field.coerce(2)])
            f = len(spec["overlap"][0])
            pattern = spec[part]
            if part == "rep":
                pattern = [row[f:] + row[:f] for row in pattern]
            own = len(pattern[0]) - (f if part == "rep" else 0)
            tail = len(pattern) - len(spec["overlap"])
            cells = [row + (spec["overlap"][i - tail] if i >= tail else [None] * f)
                     for i, row in enumerate(pattern)]
            by_slot = [[None if x is None else (slots[homdim._LETTER_INDEX[x[0]]], x[1])
                        for x in row] for row in cells]
            scalar = homdim._coefficients(field, lam, integral=True)
            plan = homdim._fold_plan(by_slot, own)
            cuts = list(accumulate((x.cols for x in letters), initial=0))
            kernels, killed = _kernel_root(field, hstack(letters).data)
            z, basis = homdim._kernel_fold(field, plan, scalar, cuts, kernels, killed)
            grid = homdim._write(field, named, cells, lam)
            split = sum(homdim._widths(named, cells)[:own])
            rest = ExactMatrix(field, [row[split:] for row in grid.data],
                               (grid.rows, grid.cols - split))
            own_cols = ExactMatrix(field, [row[:split] for row in grid.data], (grid.rows, split))
            kernel = own_cols.transpose().nullspace()
            images = ExactMatrix(field, [list(y) for y in kernel], (len(kernel), grid.rows)) @ rest
            got = ExactMatrix(field, basis, (len(basis), rest.cols))
            assert all(len(row) == rest.cols for row in basis)
            # echelon rows: a step takes each row's first nonzero as its pivot
            leads = [next(c for c, x in enumerate(row) if x) for row in basis]
            assert all(a < b for a, b in zip(leads, leads[1:])), leads
            assert got.rank() == len(basis) == images.rank()
            assert vstack([got, images]).rank() == len(basis)
            assert z == len(kernel) - images.rank()
            if part == "rep" and len(basis):
                # rows with a pivot in W's columns and rows with one in E's
                g = rest.cols // 2
                pivots_seen.update(next(c for c, x in enumerate(row) if x) // g
                                   for row in basis if g)
    assert pivots_seen == {0, 1}


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=repr)
def test_hom_vector_clears_the_tail_pivots_of_a_copy(field):
    # a copy's transfer basis T has rows with a pivot in W's columns when
    # its own columns leave some rows free; without them a step loses
    # the kernel vectors whose images meet those rows and counts too few.
    # Over small fields these sums meet that: with those rows of T left
    # out, every one of these 40 modules got a wrong answer
    descs = [cat.P(4, 3), cat.P(6, 2), cat.I(8, 3), cat.P(8, 4)]
    for seed in range(10):
        rng = random.Random(seed)
        for picks in ([cat.I(1, 0), cat.P(2, 1)], [cat.P(1, 0), cat.I(2, 3)]):
            m = disguised_sum(field, picks, rng)
            assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


def _echelon_rows(field, rng, m, n):
    """The nonzero forward echelon rows of a sparse random m x n matrix, in
    the working form of the field's elimination, with their pivots."""
    entries = [[field.coerce(rng.choice([0, 0, 1, -1, rng.randint(-9, 9)])) for _ in range(n)]
               for _ in range(m)]
    a, _ = field.integral(entries)
    pivots, ech = field.echelon(a)
    return pivots, ech[: len(pivots)]


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_step_against_a_fixed_t_is_the_split_of_the_stack(field):
    # a step splits [T; [S 0]] at g, which it reads from T's rows (2g wide)
    # or S's (g wide), and only reads T's echelon rows; against the naive
    # RREF of [[S 0]; T] it must count the stack's z and return
    # independent rows whose RREF is that of the stack's rows with a pivot
    # at or past g, cut there (an RREF is canonical, so that is their
    # span), also with S empty, T empty or g = 0.  From the empty state a
    # step reads T's rows whose left half is zero, and from a full one
    # (g rows: any basis of k^g, drawn as the rows of a random invertible
    # matrix, not echelon) it splits T's right halves alone: both must
    # still be the split of the stack, z for z and span for span
    rng = random.Random(0x57E9)
    p = getattr(field, "p", None)
    seen = set()
    for trial in range(240):
        g = rng.randint(0, 4)
        if trial % 3 == 2:
            s, _ = field.integral(random_invertible(field, g, rng).data)
            s = field._start(s)
        else:
            _, s = _echelon_rows(field, rng, rng.randint(0, g + 1), g)
        pivots, t = _echelon_rows(field, rng, rng.randint(0, 2 * g + 2), 2 * g)
        t_before = [list(row) for row in t]
        s_before = [list(row) for row in s]
        z, images = homdim._step(field, s, t)
        assert t == t_before and s == s_before
        stack = [row + [0] * g for row in s] + t
        stack_pivots, rref = reference_rref(stack, p)
        assert z == len(stack) - len(stack_pivots)
        assert all(len(row) == g for row in images)
        image_pivots, image_rref = reference_rref(images, p)
        assert len(image_pivots) == len(images)
        assert list(zip(image_pivots, image_rref)) == [
            (c - g, row[g:]) for c, row in zip(stack_pivots, rref) if c >= g]
        split_z, split = field._split([*map(list, t), *(row + [0] * g for row in s)], g)
        assert z == split_z and reference_rref(split, p) == (image_pivots, image_rref)
        full = len(s) == g > 0
        seen.update({"S empty": not s, "T empty": not t, "g = 0": not g,
                     "S reduced": bool(s and t), "z > 0": z > 0, "S meets E": len(images) > len(
                         [c for c in pivots if c >= g]), "S full": full,
                     "S full, not echelon": full and s != field.echelon(s)[1],
                     "S full, z > 0": full and z > 0,
                     "S empty, T meets W": not s and len(images) < len(t)}.items())
    assert all((name, True) in seen for name in
               ("S empty", "T empty", "g = 0", "S reduced", "z > 0", "S meets E", "S full",
                "S full, not echelon", "S full, z > 0", "S empty, T meets W")), seen


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_steps_leave_the_transfer_basis_alone(field, monkeypatch):
    # every step of a group reads the same T; none of them writes it
    rng = random.Random(0x7B)
    held = (_tubes(field) or [cat.R(0, 2, 0)])[0]
    m = disguised_sum(field, [held, cat.P(2, 1), cat.I(1, 0)], rng)
    descs = DEEP_DESCS + _tubes(field)
    bases = {}
    steps = []
    step = homdim._step

    def spied(field, s, t):
        # t is T's rows, the images of the rep's fold, 2g wide
        bases.setdefault(id(t), (t, copy.deepcopy(t), len(t[0]) // 2 if t else 0))
        steps.append(id(t))
        return step(field, s, t)

    monkeypatch.setattr(homdim, "_step", spied)
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
    # groups of several steps, whose T has rows with a pivot left of g,
    # which S's rows are reduced against, and rows with one at or past g,
    # which are images at every step
    assert bases and max(steps.count(x) for x in bases) >= 3
    assert {next(c for c, x in enumerate(row) if x) < g
            for t, _, g in bases.values() for row in t} == {True, False}
    for t, before, _ in bases.values():
        assert t == before


def test_compiled_folds_read_w_after_their_coupled_columns():
    # a step reads W's width g from its rows, so every compiled staircase
    # must hand it rows laid out as W's letters: the rep fold's kept
    # columns after its coupled ones are W's letters twice, R_W then E
    # (T's rows, 2g wide), and the head fold's W's letters once (the head
    # state's rows, g wide); every pattern, read through every sigma
    sigmas = {*cat._CYCLE_POWERS, *cat._EXCEPTIONAL_SIGMA.values()}
    assert len(sigmas) == 9
    for key, spec in CASE_SPECS.items():
        letters = [next(row[j][0] for row in spec["overlap"] if row[j])
                   for j in range(len(spec["overlap"][0]))]
        for sigma in sigmas:
            slots = permute_slots(range(4), perm_inverse(sigma))
            w = [slots[homdim._LETTER_INDEX[x]] for x in letters]
            head, rep, capped = homdim._plan(spec, sigma)
            assert list(rep.widths[rep.coupled:]) == w + w, (key, sigma)
            assert capped == (spec["kind"] == "M3"), (key, sigma)
            if key in ("P_ODD", "R_EVEN"):
                assert head is None, (key, sigma)
            else:
                assert list(head.widths[head.coupled:]) == w, (key, sigma)


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_a_head_that_is_the_rep_is_a_step_at_no_copies(field, monkeypatch):
    # P(1, j), R(1, lam) and R(s, 2, lam) ask for no copy of a pattern
    # whose head is its rep (P_ODD, R_EVEN): their groups still read only
    # the rep fold, and take the head as the step from the empty state,
    # each alone in a list and all together; every answer is hom_dim's
    # and the oracle's
    rng = random.Random(0x2E0)
    zero_copy = ([cat.P(1, j) for j in range(1, 5)] + _tubes(field, (1,))
                 + [cat.R(s, 2, lam) for s in (0, 1) for lam in (0, 1, cat.INF)])
    assert {cat.case(d, field)[0] for d in zero_copy} <= {"P_ODD", "R_EVEN"}
    modules = [random_module(field, rng, max_dim=4),
               disguised_sum(field, [cat.P(1, 1), cat.R(0, 2, 0), cat.I(1, 0),
                                     *_tubes(field, (1,))[:1]], rng)]
    kernel_fold = homdim._kernel_fold
    split = []

    def spied(field, fold, *args):
        split.append(fold)
        return kernel_fold(field, fold, *args)

    monkeypatch.setattr(homdim, "_kernel_fold", spied)
    for descs in [[d] for d in zero_copy] + [zero_copy]:
        plan = homdim._targets(tuple(descs), field)
        assert all(staircase.head is None for staircase, _, _ in plan.groups)
        reps = set()
        for d in descs:
            key, sigma, param, _ = cat.case(d, field)
            assert CASE_SPECS[key]["reps"](param) == 0
            head, rep, _ = homdim._plan(CASE_SPECS[key], sigma)
            assert head is None
            reps.add(rep)
        for m in modules:
            split.clear()
            want = [hom_dim(m, d) for d in descs]
            assert hom_vector(m, descs) == want == list(oracle_vector(m, descs)), descs
            assert set(split) == reps, descs


# (field, summands, bounds): a deep summand keeps span(S) moving for several
# copies; QQ takes smaller ones, as hom_dim's one matrix is slow there
LATE_FIXED_POINTS = {
    "GF32003": (GF, (cat.R(5, 2), cat.P(7, 1)), (16, 7)),
    "QQ": (QQ, (cat.R(3, 2), cat.P(5, 1)), (10, 5)),
}


@pytest.mark.parametrize("field, picks, bounds", LATE_FIXED_POINTS.values(), ids=LATE_FIXED_POINTS)
def test_hom_vector_extrapolates_past_a_late_fixed_point(field, picks, bounds, monkeypatch):
    rng = random.Random(5)
    m = disguised_sum(field, picks, rng)
    # one staircase per case at every depth: the representatives (sigma the
    # identity) of the in-bounds descriptors
    descs = [d for d in enumerate_descriptors(EnumerationBounds(*bounds, (field.coerce(2),)))
             if not homdim._is_closed_form(d) and cat.case(d, field)[1] == PERM_IDENTITY]
    groups = {(key, lam) for key, _, _, lam in (cat.case(d, field) for d in descs)}
    coranks = homdim._staircase_coranks
    laws = []

    def spied(*args):
        laws.append(coranks(*args))
        return laws[-1]

    monkeypatch.setattr(homdim, "_staircase_coranks", spied)
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
    # every staircase reached its fixed point k* inside the bounds (its law
    # holds cor(k*)); some only after several copies
    fixed_points = [k for _, k, cor, _ in laws if cor is not None]
    assert len(laws) == len(fixed_points) == len(groups) and max(fixed_points) >= 4, laws


# a copy count no staircase reaches: a group asked for it must settle first
FAR = 10**6


def _far(d):
    """d with its size parameter raised by 2 * FAR: the same (case key,
    sigma, lam) group, as the parity is kept, asked for at least FAR more
    copies."""
    if d.family in (cat.FAMILY_POSTPROJECTIVE, cat.FAMILY_PREINJECTIVE):
        n, j = d.params
        return cat.IndecDescriptor(d.family, (n + 2 * FAR, j))
    if d.family == cat.FAMILY_REGULAR_HOMOGENEOUS:
        l, lam = d.params
        return cat.R(l + 2 * FAR, lam)
    s, m, lam = d.params
    return cat.R(s, m + 2 * FAR, lam)


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_every_staircase_settles_within_g_plus_one_steps(field, monkeypatch):
    # the proven bound: a group's spans are nested one way (the lemma in
    # _staircase_coranks), so it reaches its fixed point within g + 1
    # steps of _step past the head's state, g the width of W, read from
    # T's rows (2g wide; with no rows, the head state's, else 0).  Each
    # group is asked for about FAR copies, so it must settle; the spy fails
    # a group at its first step past the bound, so a runaway one fails and
    # does not hang
    rng = random.Random(0x16)
    lams = _lambdas(field)
    descs = [_far(d) for d in enumerate_descriptors(EnumerationBounds(2, 2, lams))]
    # a deep sum's staircases track its deepest summand: n_0 = 30 or 29
    deep = cat.R(15, lams[0]) if lams else cat.I(14, 0)
    modules = [random_module(field, rng, max_dim=6) for _ in range(6)]
    bounds = EnumerationBounds(3, 3, lams)
    cands = enumerate_descriptors(bounds)
    modules += [structured_module(field, bounds, rng, cands) for _ in range(6)]
    modules.append(disguised_sum(field, [deep], rng))
    coranks, step = homdim._staircase_coranks, homdim._step
    steps = []
    bound = None

    def spied_coranks(field, plan, top, folds):
        nonlocal bound
        _, t = folds[plan.rep]
        s = [] if plan.head is None else folds[plan.head][1]
        g = len(t[0]) // 2 if t else len(s[0]) if s else 0
        # a head that is the rep is one step more, from the empty state
        bound = g + 1 + (plan.head is None)
        steps.append(0)
        return coranks(field, plan, top, folds)

    def spied_step(*args):
        steps[-1] += 1
        assert steps[-1] <= bound, f"a group took more than {bound} steps"
        return step(*args)

    monkeypatch.setattr(homdim, "_staircase_coranks", spied_coranks)
    monkeypatch.setattr(homdim, "_step", spied_step)
    groups = {(key, sigma, lam) for key, sigma, _, lam in (cat.case(d, field) for d in descs)}
    for m in modules:
        steps.clear()
        assert all(x >= 0 for x in hom_vector(m, descs))
        assert len(steps) == len(groups)
    # the deep sum's last groups stepped on well past a random module's
    assert max(steps) > 10


def _chain_direction(p, chain):
    """How the spans of chain, a list of bases (rows), are nested: "=" if
    all are one span, "<" if each is contained in the next, ">" if each
    contains the next, and None if no one way holds.  span(a) lies in
    span(b) iff stacking a on b keeps b's rank, by reference_rref over
    GF(p), or QQ where p is None."""
    def rank(rows):
        return len(reference_rref(rows, p)[0])

    ways = set()
    for a, b in zip(chain, chain[1:]):
        both = rank([*a, *b])
        ways.add({(True, True): "=", (True, False): "<", (False, True): ">"}.get(
            (rank(b) == both, rank(a) == both)))
    if None in ways or {"<", ">"} <= ways:
        return None
    return (ways - {"="} or {"="}).pop()


def test_chain_direction_sees_a_planted_chain():
    # one span, a chain that grows and one that shrinks, and three that
    # are not nested one way: two lines, a line then a plane then another
    # line, and a plane then two lines in it
    e1, e2, e3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    for p in (None, 3):
        assert _chain_direction(p, [[e1], [[2, 0, 0]], [e1]]) == "="
        assert _chain_direction(p, [[], [e1], [e1, e2], [e2, e1], [e1, e2, e3]]) == "<"
        assert _chain_direction(p, [[e1, e2], [[1, 1, 0]], [[1, 1, 0]], []]) == ">"
        assert _chain_direction(p, [[e1], [e2]]) is None
        assert _chain_direction(p, [[e1], [e1, e2], [e2]]) is None
        assert _chain_direction(p, [[e1, e2], [e1], [e2]]) is None


# how each pattern's span chains move when they move, by the lemma in
# _staircase_coranks: "<" grows, ">" shrinks
CHAIN_MOVES = {"P0": "<", "P_ODD": "<", "P_EVEN": "<", "R_EVEN": "<", "R_ODD": "<",
               "I0": ">", "I_ODD": ">", "I_EVEN": ">"}


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_every_staircase_span_chain_is_nested_one_way(field, monkeypatch):
    # a step maps span(S) to f(S) = E (R_W^-1(S) ∩ ker R_own), and f is
    # monotone, so where span(S_0) and span(S_1) are nested the whole
    # chain S_0, S_1, ... is nested the same way; the lemma in
    # _staircase_coranks nests the first two per pattern, growing for P
    # and R, shrinking for I.  Every group of a small list is replayed
    # with _step from the head's state, on the folds hom_vector hands it,
    # for g + 2 steps: with the chain nested one way that passes its
    # fixed point, as the dimension moves at most g times.  Each chain
    # must be nested the way its case key's lemma says, or be one span
    rng = random.Random(0x29)
    lams = _lambdas(field)
    p = getattr(field, "p", None)
    descs = [_far(d) for d in enumerate_descriptors(EnumerationBounds(2, 2, lams))]
    bounds = EnumerationBounds(3, 3, lams)
    cands = enumerate_descriptors(bounds)
    modules = [random_module(field, rng, max_dim=5) for _ in range(5)]
    modules += [structured_module(field, bounds, rng, cands) for _ in range(2)]
    modules += [disguised_sum(field, picks, rng) for picks in (
        [cat.P(2, 1), cat.I(1, 0), cat.R(0, 3, 0)], [cat.I(2, 2), cat.P(1, 0), cat.R(1, 2, 1)])]
    coranks = homdim._staircase_coranks
    groups = []

    def spied(field, plan, top, folds):
        groups.append((plan, folds))
        return coranks(field, plan, top, folds)

    monkeypatch.setattr(homdim, "_staircase_coranks", spied)
    # a group's case key, in the order hom_vector runs the groups
    keys = [cat.case(descs[slots[0][0]], field)[0]
            for _, _, slots in homdim._targets(tuple(descs), field).groups]
    assert set(keys) == set(CASE_SPECS) == set(CHAIN_MOVES)
    seen = set()
    for m in modules:
        groups.clear()
        hom_vector(m, descs)
        assert len(groups) == len(keys)
        for (plan, folds), key in zip(groups, keys):
            _, t = folds[plan.rep]
            s = homdim._step(field, [], t)[1] if plan.head is None else folds[plan.head][1]
            g = len(t[0]) // 2 if t else len(s[0]) if s else 0
            chain = [s]
            for _ in range(g + 2):
                chain.append(homdim._step(field, chain[-1], t)[1])
            direction = _chain_direction(p, chain)
            assert direction in ("=", CHAIN_MOVES[key]), (key, plan, [len(x) for x in chain])
            seen.add((key, direction))
    # every key's chains both stay and move, the way its lemma says
    assert seen == {(key, x) for key, move in CHAIN_MOVES.items() for x in ("=", move)}, seen


def _at_copies(d, k):
    """The member of d's (case key, sigma, lam) group with k copies of its
    rep pattern."""
    fam, params = d
    if fam in (cat.FAMILY_POSTPROJECTIVE, cat.FAMILY_PREINJECTIVE):
        n, j = params
        if j == 0:
            return cat.IndecDescriptor(fam, (k + 1, j))
        # I(2n, j) holds n - 1 copies, every other P(n, j) and I(n, j) n // 2
        shift = fam == cat.FAMILY_PREINJECTIVE and n % 2 == 0
        return cat.IndecDescriptor(fam, (2 * (k + shift) + n % 2, j))
    if fam == cat.FAMILY_REGULAR_HOMOGENEOUS:
        return cat.R(k + 1, params[1])
    s, m, lam = params
    return cat.R(s, 2 * k + 2 - m % 2, lam)


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_a_staircase_law_answers_every_copy_count(field, monkeypatch):
    # a group's law is its coranks below the fixed point k*, then k*,
    # cor(k*) and dz, the corank at j >= k* being cor(k*) + (j - k*) dz.
    # One group per CASE_SPECS key, read at about FAR copies so that it
    # must reach k*: the law must give hom_dim at every copy count up to
    # k* + 3, below k* and past it, and hom_oracle at k* + 1
    rng = random.Random(0x1A)
    lams = _lambdas(field)
    groups = [cat.P(1, 0), cat.P(1, 3), cat.P(2, 2), cat.I(1, 0), cat.I(1, 2), cat.I(2, 4),
              cat.R(1, lams[0]) if lams else cat.R(1, 2, 1), cat.R(1, 1, cat.INF)]
    assert {cat.case(d, field)[0] for d in groups} == set(CASE_SPECS)
    modules = [random_module(field, rng, max_dim=4),
               disguised_sum(field, [cat.P(3, 1), cat.I(1, 0), cat.R(0, 3, 0)], rng)]
    coranks = homdim._staircase_coranks
    laws = []

    def spied(*args):
        laws.append(coranks(*args))
        return laws[-1]

    monkeypatch.setattr(homdim, "_staircase_coranks", spied)
    fixed_points = []
    for d in groups:
        key, sigma, _, lam = cat.case(d, field)
        far = _far(d)
        for m in modules:
            laws.clear()
            hom_vector(m, [far])
            (before, k, cor, dz), = laws
            assert len(before) == k <= m.n0 + 2 and cor is not None, (d.label(), k)
            fixed_points.append(k)
            descs = [_at_copies(d, r) for r in range(k + 4)]
            for r, x in enumerate(descs):
                x_key, x_sigma, size, x_lam = cat.case(x, field)
                assert (x_key, x_sigma, x_lam, CASE_SPECS[key]["reps"](size)) == (
                    key, sigma, lam, r)
            got = hom_vector(m, [*descs, far])
            assert got[:-1] == [hom_dim(m, x) for x in descs], (d.label(), k)
            assert got[: k] == before and got[k] == cor
            assert got[k + 1] == hom_oracle(m, cat.build(descs[k + 1], field)), (d.label(), k)
    # some groups settle at once, others only after a few copies
    assert min(fixed_points) == 1 and max(fixed_points) >= 3, fixed_points


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_hom_vector_on_degenerate_letters(field, monkeypatch):
    # a zero-width letter has all of k^{n_0} as its left kernel, and with
    # n_0 in {0, 1} every kernel is all or nothing; the even exceptional
    # tubes run R_EVEN at lam = 0, where its "-lam" cells vanish
    rng = random.Random(0xD6)
    descs = enumerate_descriptors(EnumerationBounds(8, 4, _lambdas(field)))
    folds = set()
    kernel_fold = homdim._kernel_fold

    def spied(field, plan, scalar, *args):
        lam_cells = any(c == "-lam" for row in plan.blocks for _, _, c in row)
        folds.add((lam_cells, scalar["-lam"] == 0))
        return kernel_fold(field, plan, scalar, *args)

    monkeypatch.setattr(homdim, "_kernel_fold", spied)
    for dims in ((0, 2, 1, 0, 3), (1, 0, 1, 1, 0), (1, 1, 1, 1, 1), (3, 2, 0, 1, 2),
                 (4, 0, 3, 0, 2)):
        m = LambdaModule(*(random_matrix(field, dims[0], n, rng) for n in dims[1:]))
        assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs], dims
    assert (True, True) in folds


def test_hom_vector_shuffled_with_duplicates(field, rng):
    lams = (field.coerce(2), field.coerce(5))
    descs = enumerate_descriptors(EnumerationBounds(6, 4, lams))
    descs = descs + rng.sample(descs, 20) + [cat.P(0, 0), cat.I(0, 3), cat.I(0, 0)]
    rng.shuffle(descs)
    for m in (random_module(field, rng, max_dim=3),
              disguised_sum(field, [cat.R(2, lams[0]), cat.P(2, 1)], rng)):
        assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_hom_vector_reads_p00_from_the_sparse_letters(field, monkeypatch):
    # [M, P(0,0)] = cor([A B C D]) is the zero-row count of the echelon
    # rows _sparse_letters already made: hom_vector eliminates [A B C D]
    # no second time, so no corank runs, and it answers as hom_dim, also
    # for A B C D of full row rank, of rank 0, n_0 = 0 and no columns
    rng = random.Random(0x00)
    modules = [random_module(field, rng, max_dim=3) for _ in range(4)]
    modules += [disguised_sum(field, [cat.P(0, 0), cat.P(1, 0), cat.I(0, 2)], rng),
                disguised_sum(field, [cat.P(0, 0), cat.P(0, 0), cat.R(0, 2, 1)], rng),
                LambdaModule(*(zeros(field, 3, 2) for _ in range(4))),
                LambdaModule(*(zeros(field, 2, 0) for _ in range(4))),
                LambdaModule(*(random_matrix(field, 0, 2, rng) for _ in range(4)))]
    descs = [cat.P(0, 0), cat.I(0, 0), cat.I(0, 3), cat.P(1, 2), cat.P(0, 0)]
    want = [[hom_dim(m, d) for d in descs] for m in modules]
    assert {w[0] for w in want} >= {0, 1, 2, 3}
    coranks = []
    corank = ExactMatrix.corank

    def spied(self):
        coranks.append(self)
        return corank(self)

    monkeypatch.setattr(ExactMatrix, "corank", spied)
    assert [hom_vector(m, descs) for m in modules] == want
    assert coranks == []


def test_hom_vector_at_benchmark_size():
    rng = random.Random(24)
    descs = enumerate_descriptors(EnumerationBounds(24, 12, (GF.coerce(2), GF.coerce(5))))
    m = LambdaModule(*(random_matrix(GF, 8, n, rng) for n in (4, 4, 4, 4)))
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


# Bit length that no entry of an elimination input reaches in the deep QQ
# test below.  Its letters have entries of about 10 bits; a fold eliminates
# products of letter kernels and letters, a step of the recursion what is
# left of S against the transfer basis T, fixed per group, and S holds
# minors of one copy: no input entry passed 100 bits there, at any depth.
QQ_ENTRY_BITS = 512


def _entry_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def test_hom_vector_deep_qq_staircases(rng, monkeypatch):
    # every case at its deepest parameter, over QQ with a fractional lam.
    # If the integer rows of S grew from step to step of the recursion (a
    # kernel without its gcd, say), the run would take minutes; the bound
    # on every elimination's input fails it within a few steps instead.
    # The loop's working rows are Python ints, echelon's and a step's alike
    eliminate = QQ._eliminate

    def bounded(rows, reduced=False):
        bits = _entry_bits(rows)
        assert bits <= QQ_ENTRY_BITS, f"elimination input with a {bits}-bit entry"
        return eliminate(rows, reduced)

    monkeypatch.setattr(QQ, "_eliminate", bounded)
    lam = Fraction(7, 3)
    deepest = {}
    for d in enumerate_descriptors(EnumerationBounds(24, 12, (lam,))):
        if homdim._is_closed_form(d):
            continue
        key, _, param, _ = cat.case(d, QQ)
        reps = CASE_SPECS[key]["reps"](param)
        if reps > deepest.get(key, (-1, None))[0]:
            deepest[key] = (reps, d)
    assert set(deepest) == set(CASE_SPECS)
    descs = [d for _, d in deepest.values()]
    # one sum behind an integer base change, and behind one whose columns
    # lie over 7 and 12797 in turn, so its letters hold Fractions of mixed
    # denominators
    picks = [cat.R(1, lam), cat.P(1, 0), cat.I(1, 0)]
    modules = [disguised_sum(QQ, picks, rng), _over_denominators(picks, rng)]
    denominators = {x.denominator for y in modules[1].mats() for x in y.entries_rowmajor()}
    assert all(any(q % p == 0 for q in denominators) for p in (7, 12797))
    for m in modules:
        assert dim_vector(m) == (8, 4, 4, 4, 4)
        assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]


def _over_denominators(picks, rng):
    """disguised_sum over QQ, but with every random invertible matrix's
    columns over 7 and 12797 in turn, so the letters hold Fractions of mixed
    denominators."""

    def invertible(n):
        d = [[Fraction(1, (7, 12797)[j % 2]) if i == j else 0 for j in range(n)] for i in range(n)]
        return random_invertible(QQ, n, rng) @ ExactMatrix(QQ, d, (n, n))

    m = cat.build(picks[0], QQ)
    for desc in picks[1:]:
        m = module_direct_sum(m, cat.build(desc, QQ))
    u = invertible(m.n0)
    return base_change(m, u, [invertible(x.cols) for x in m.mats()])


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_hom_vector_eliminates_forward_only(field, monkeypatch):
    # the letter kernels and the folds are forward echelon bases, and a
    # step eliminates what is left of S against the transfer basis of a
    # copy, so no elimination of hom_vector asks for the reduced form
    calls = []
    eliminate = field._eliminate

    def spied(rows, reduced=False):
        calls.append(reduced)
        return eliminate(rows, reduced)

    monkeypatch.setattr(field, "_eliminate", spied)
    lams = (field.coerce(2), field.coerce(Fraction(7, 3)))
    m = disguised_sum(field, [cat.R(2, lams[1]), cat.P(2, 1), cat.I(2, 0)], random.Random(3))
    descs = enumerate_descriptors(EnumerationBounds(6, 3, lams))
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
    assert calls and not any(calls)


@pytest.mark.parametrize("field", [QQ, GF], ids=repr)
def test_staircases_stay_in_elimination_rows(field, monkeypatch):
    # rows enter elimination once per call, as the working rows of
    # [A B C D] that _sparse_letters eliminates in place; from there to
    # the last step every elimination runs on working rows, so echelon,
    # which copies and finishes its rows, never runs, whatever is asked
    lams = (field.coerce(2), field.coerce(Fraction(7, 3)))
    m = disguised_sum(field, [cat.R(1, lams[1]), cat.P(2, 1), cat.I(1, 0)], random.Random(5))
    deep = enumerate_descriptors(EnumerationBounds(6, 3, lams))
    assert len(deep) == 112
    calls = []
    echelon, start = field.echelon, field._start

    def spied(a, reduced=False):
        calls.append("echelon")
        return echelon(a, reduced)

    def started(rows):
        calls.append("_start")
        return start(rows)

    for descs in ([], [cat.P(0, 0), cat.I(0, 2)], [cat.R(0, 7, 0)], deep):
        want = [hom_dim(m, d) for d in descs]
        calls.clear()
        with monkeypatch.context() as patched:
            patched.setattr(field, "echelon", spied)
            patched.setattr(field, "_start", started)
            assert hom_vector(m, descs) == want
        assert calls == ["_start"], calls


def test_hom_vector_reads_the_letters_once(monkeypatch):
    # M's four letters are made integral once per call, as the rows of
    # [A B C D] that _sparse_letters eliminates first, and every (case,
    # sigma, lam) group reads them permuted: no group builds a permuted
    # module or converts the letters again
    lam = Fraction(7, 3)
    m = _over_denominators([cat.R(1, lam), cat.P(1, 0), cat.I(1, 0)], random.Random(9))
    descs = [cat.P(3, 2), cat.I(4, 3), cat.R(1, 3, 1), cat.R(2, lam)]
    sigmas = {cat.case(d, QQ)[1] for d in descs}
    assert len(sigmas) == len(descs) and PERM_IDENTITY in sigmas
    want = [hom_dim(m, d) for d in descs]
    whole = hstack(m.mats()).data
    built = []
    converted = []
    integral = QQ.integral

    def spied(rows):
        converted.append(tuple(map(tuple, rows)) == whole)
        return integral(rows)

    new = LambdaModule.__new__

    def spied_new(cls, *letters):
        built.append(letters)
        return new(cls, *letters)

    monkeypatch.setattr(LambdaModule, "__new__", spied_new)
    monkeypatch.setattr(QQ, "integral", spied)
    assert hom_vector(m, descs) == want
    assert built == []
    assert converted.count(True) == 1


@pytest.mark.parametrize("field", HOM_VECTOR_FIELDS.values(), ids=HOM_VECTOR_FIELDS)
def test_sparse_letters_are_an_isomorphic_module(field):
    # U L_t V_t has M's dimension vector and M's hom dimensions, also with
    # n_0 = 0 and with zero-width letters
    rng = random.Random(0x5A)
    targets = [cat.P(0, 0), cat.P(1, 0), cat.P(2, 1), cat.I(0, 0), cat.I(1, 2),
               cat.I(2, 0), cat.R(0, 2, 1), cat.R(1, 3, 0)] + _tubes(field, (1,))
    modules = [
        LambdaModule(*(random_matrix(field, dims[0], n, rng) for n in dims[1:]))
        for dims in ((0, 2, 1, 0, 3), (3, 0, 2, 0, 1), (4, 2, 1, 2, 3), (5, 3, 3, 3, 3))
    ] + [disguised_sum(field, picks, rng) for picks in (
        [cat.P(1, 0), cat.I(2, 1), cat.R(0, 2, 0)],
        [cat.P(2, 1), cat.I(1, 0), cat.I(0, 3)],
    )]
    for m in modules:
        cuts, rows = homdim._sparse_letters(field, m.mats())
        copy = LambdaModule(*(ExactMatrix(field, [row[a:b] for row in rows], (len(rows), b - a))
                              for a, b in zip(cuts, cuts[1:])))
        assert dim_vector(copy) == dim_vector(m)
        for d in targets:
            x = cat.build(d, field)
            assert hom_oracle(copy, x) == hom_oracle(m, x), (d.label(), dim_vector(m))


def test_hom_vector_runs_on_sparse_integer_letters(monkeypatch):
    # a disguised sum's letters are dense; the staircases read those of a
    # sparse isomorphic copy, in Python ints
    m = _over_denominators([cat.R(2, 2), cat.P(2, 1), cat.I(2, 0)], random.Random(3))
    dense = sum(x != 0 for a in m.mats() for x in a.entries_rowmajor())
    seen = []
    kernel_fold = homdim._kernel_fold

    def spied(field, plan, scalar, cuts, kernels, killed):
        # the empty set's rows are [A B C D]'s nonzero ones
        seen.append(kernels[()])
        return kernel_fold(field, plan, scalar, cuts, kernels, killed)

    monkeypatch.setattr(homdim, "_kernel_fold", spied)
    descs = enumerate_descriptors(EnumerationBounds(4, 2, (Fraction(2),)))
    assert hom_vector(m, descs) == [hom_dim(m, d) for d in descs]
    assert seen
    for rows in seen:
        assert 2 * sum(x != 0 for row in rows for x in row) <= dense
        assert all(type(x) is int for row in rows for x in row)


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


# An edit through case_edit reaches hom_vector's recursion as surely as
# hom_dim's one matrix: hom_dim reads CASE_SPECS at call time, and
# hom_vector plans its lists afresh inside the edit.  On the hom_dim route
# a mutation case keeps its bare id.
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
def test_sign_flip_on_cycle_blocks_is_caught(case, part, i, j, route):
    lam = GF.coerce(2)
    rng = random.Random(11)
    m = module_direct_sum(cat.build(cat.R(2, lam), GF),
                          random_module(GF, rng, max_dim=2))
    probes = [cat.R(l, lam) for l in (1, 2, 3)]
    truth = [hom_oracle(m, cat.build(p, GF)) for p in probes]
    with flipped_sign(case, part, i, j):
        mutated = ROUTES[route](m, probes)
    assert mutated != truth


@pytest.mark.parametrize("route", ROUTES)
def test_sign_flip_on_bridge_blocks_is_invisible(route):
    # the lone A block of the tube case hangs off a leaf column: flipping
    # it rescales away, so agreement must survive (this pins the analysis
    # that motivates the structured verify trials)
    rng = random.Random(12)
    mods = [random_module(GF, rng, max_dim=3) for _ in range(4)]
    probe = cat.R(2, GF.coerce(2))
    truth = [hom_oracle(m, cat.build(probe, GF)) for m in mods]
    with flipped_sign("R_EVEN", "head", 1, 3):
        assert [ROUTES[route](m, [probe])[0] for m in mods] == truth


def test_plan_follows_an_edit_to_case_specs(monkeypatch):
    # a list's staircases are compiled when the list is planned
    # (_targets), so a warm call reads no CASE_SPECS: an edit through
    # case_edit reaches a warm list, which is planned afresh inside it; on
    # exit the unedited plan is served again, as a hit with the old
    # answers; and a warm call answers with the table emptied, where
    # hom_dim, which reads it at every call, cannot
    lam = GF.coerce(2)
    m = module_direct_sum(cat.build(cat.R(2, lam), GF),
                          random_module(GF, random.Random(11), max_dim=2))
    probes = [cat.R(l, lam) for l in (1, 2, 3)]
    homdim._targets.cache_clear()
    before = hom_vector(m, probes)
    assert before == [hom_dim(m, d) for d in probes]
    with flipped_sign("R_EVEN", "rep", 0, 0):
        flipped = hom_vector(m, probes)
        assert flipped == [hom_dim(m, d) for d in probes]
        assert flipped != before
    assert hom_vector(m, probes) == before
    info = homdim._targets.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    monkeypatch.setattr(homdim, "CASE_SPECS", {})
    assert hom_vector(m, probes) == before
    with pytest.raises(KeyError):
        hom_dim(m, probes[0])


# the dict methods that change a dict in place
DICT_WRITES = {"update", "pop", "popitem", "clear", "setdefault"}


def case_spec_writes(paths):
    """["file:line", ...]: each write into CASE_SPECS in the files paths:
    an item of it, or of one of its entries, assigned or deleted, setitem
    or delitem on one, or a dict method that changes one.

    A test edits the table through case_edit alone, which also has
    hom_vector plan afresh: past it, hom_vector would be served a plan
    compiled before the edit, and a test that an edit leaves the answers
    alone would pass whatever the edit did.
    """

    def in_table(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return (isinstance(node, ast.Name) and node.id == "CASE_SPECS"
                or isinstance(node, ast.Attribute) and node.attr == "CASE_SPECS")

    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Subscript):
                hit = isinstance(node.ctx, (ast.Store, ast.Del)) and in_table(node.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr
                hit = (name in ("setitem", "delitem") and bool(node.args) and in_table(node.args[0])
                       or name in DICT_WRITES and isinstance(func, ast.Attribute)
                       and in_table(func.value))
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_tests_edit_case_specs_through_case_edit():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert any(path.name == "case_edit.py" for path in tests)
    assert case_spec_writes(path for path in tests if path.name != "case_edit.py") == []


def test_case_spec_guard_sees_a_planted_write(tmp_path):
    planted = tmp_path / "test_planted.py"
    planted.write_text(
        "from fourspace import homdim\n"
        "from fourspace.homdim import CASE_SPECS\n"
        "\n"
        "def test_edits(monkeypatch):\n"
        "    CASE_SPECS['P0'] = dict(CASE_SPECS['P0'])\n"
        "    homdim.CASE_SPECS['I0'], x = {}, CASE_SPECS['I0']\n"
        "    monkeypatch.setitem(CASE_SPECS, 'P0', {})\n"
        "    CASE_SPECS.update(P0={})\n"
        "    del homdim.CASE_SPECS['R_ODD']\n"
        "    CASE_SPECS['P0']['head'][0][1] = None\n"
        "    monkeypatch.delitem(homdim.CASE_SPECS['P0'], 'rep')\n"
        "    CASE_SPECS['P0'].setdefault('kind', 'M2')\n"
        "    copied = dict(CASE_SPECS, P0={})\n"
        "    copied['P0'] = CASE_SPECS.get('P0')\n"
        "    copied.update(CASE_SPECS)\n"
        "    monkeypatch.setattr(homdim, 'CASE_SPECS', {})\n"
    )
    assert case_spec_writes([planted]) == [f"test_planted.py:{n}" for n in range(5, 13)]


def test_one_list_plan_serves_every_module():
    # a descriptor list is planned once per (list, field), and the plan
    # holds nothing of M: two modules with different answers go through
    # one warm plan, and each gets its own
    lam = GF.coerce(2)
    descs = enumerate_descriptors(EnumerationBounds(4, 2, (lam,)))
    rng = random.Random(17)
    modules = [disguised_sum(GF, [cat.R(1, lam), cat.P(1, 1), cat.I(0, 2)], rng),
               random_module(GF, rng, max_dim=3)]
    want = [[hom_dim(m, d) for d in descs] for m in modules]
    assert want[0] != want[1]
    homdim._targets.cache_clear()
    assert hom_vector(modules[0], descs) == want[0]
    info = homdim._targets.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert hom_vector(modules[1], descs) == want[1]
    # an equal list made again is a second call over the same list: one
    # hit, no miss
    assert hom_vector(modules[0], enumerate_descriptors(EnumerationBounds(4, 2, (lam,)))) == want[0]
    info = homdim._targets.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert info.maxsize == homdim._TARGETS_CACHE_SIZE


# (family, params) that IndecDescriptor refuses, each equal to (and hashing
# as) the catalog descriptor beside it, or refused on its own
UNMADE = {
    "float lam": (("RH", (1, 2.0)), cat.R(1, 2)),
    "lam True": (("RH", (1, True)), cat.R(1, 2)),
    "l True": (("RH", (True, 2)), cat.R(1, 2)),
    "float exceptional lam": (("RE", (0, 2, 0.0)), cat.R(0, 2, 0)),
    "float size": (("P", (3.0, 1)), cat.P(3, 1)),
}


@pytest.mark.parametrize("unmade, made", UNMADE.values(), ids=UNMADE)
def test_a_float_lambda_is_rejected_cold_and_warm(unmade, made):
    # R(1, 2.0) == R(1, 2) and both would hash alike, so a plan keyed by the
    # list alone would serve R(1, 2)'s plan to it once warm: it cannot be
    # made, cold or warm, and raises the InvalidParams its family's
    # constructor raises; the warm plan serves an equal list made again
    m = random_module(GF, random.Random(3), max_dim=2)
    make = {"P": cat.P, "RH": cat.R, "RE": cat.R}[unmade[0]]
    homdim._targets.cache_clear()
    with pytest.raises(InvalidParams) as cold:
        cat.IndecDescriptor(*unmade)
    assert hom_vector(m, [made, made]) == [hom_dim(m, made)] * 2
    with pytest.raises(InvalidParams) as warm:
        cat.IndecDescriptor(*unmade)
    with pytest.raises(InvalidParams) as constructor:
        make(*unmade[1])
    assert str(cold.value) == str(warm.value) == str(constructor.value)
    assert hom_vector(m, pickle.loads(pickle.dumps([made, made]))) == [hom_dim(m, made)] * 2
    info = homdim._targets.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), GF], ids=repr)
def test_equal_descriptors_read_one_plan_and_answer_alike(field, monkeypatch):
    # an exact lam names one module over every field, so descriptors equal
    # by value, R(1, Fraction(2)) and R(1, 2), read one plan, and the warm
    # call reads no descriptor through case again; each list's answers are
    # hom_dim's for its own descriptors
    m = random_module(field, random.Random(5), max_dim=3)
    ints = [cat.R(1, 2), cat.R(2, 5), cat.R(1, 3, 0), cat.P(2, 1), cat.I(0, 2)]
    fractions = [cat.R(1, Fraction(2)), cat.R(2, Fraction(10, 2)), cat.R(1, 3, Fraction(0)),
                 cat.P(2, 1), cat.I(0, 2)]
    assert fractions == ints and list(map(type, fractions[0].params)) == [int, Fraction]
    want = [hom_dim(m, d) for d in ints]
    assert [hom_dim(m, d) for d in fractions] == want
    homdim._targets.cache_clear()
    assert hom_vector(m, ints) == want
    read = []
    monkeypatch.setattr(homdim, "case", lambda d, f: read.append(d) or cat.case(d, f))
    assert hom_vector(m, fractions) == want
    assert read == []
    info = homdim._targets.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def _mixed_columns(spec, reps):
    """The block columns of spec's layout with reps copies that hold more
    than one letter."""
    cells = homdim._layout(spec, reps)
    return [j for j, column in enumerate(zip(*cells)) if len({c[0] for c in column if c}) > 1]


def test_every_block_column_holds_one_letter():
    # a block column is as wide as its letter (homdim._widths) and W as wide
    # as its columns' letters (homdim._plan), with no check at run time: the
    # table itself must keep one letter per block column, at every depth
    # (the head, a copy and the cap meet all that more copies repeat)
    for key, spec in CASE_SPECS.items():
        for reps in range(4):
            assert _mixed_columns(spec, reps) == [], (key, reps)
        assert all(any(column) for column in zip(*spec["overlap"])), key
    # an A in the P0 rep's D column mixes A and D, above the overlap's D
    rep = [list(row) for row in CASE_SPECS["P0"]["rep"]]
    assert rep[0][1] == ("D", -1)
    rep[0][1] = ("A", -1)
    assert _mixed_columns(dict(CASE_SPECS["P0"], rep=rep), 0) == []
    assert _mixed_columns(dict(CASE_SPECS["P0"], rep=rep), 1) == [7]


def _cycle_cells(cells):
    """The cells of a grid that lie on a cycle of its block-row/block-column
    graph, whose edges are the cells; every other cell is a bridge."""
    edges = [(i, j) for i, row in enumerate(cells) for j, cell in enumerate(row) if cell]

    def joined(skip):
        # whether skip's row and column stay connected without it
        seen, todo = {("r", skip[0])}, [("r", skip[0])]
        while todo:
            side, x = todo.pop()
            for e in edges:
                if e != skip and e[side == "c"] == x:
                    node = ("c", e[1]) if side == "r" else ("r", e[0])
                    if node not in seen:
                        seen.add(node)
                        todo.append(node)
        return ("c", skip[1]) in seen

    return [cells[i][j] for i, j in edges if joined((i, j))]


def _tagged(spec):
    """spec with each cell (letter, coeff) tagged (letter, (part, i, j))."""
    out = dict(spec)
    for part in ("head", "rep", "overlap"):
        out[part] = [[c and (c[0], (part, i, j)) for j, c in enumerate(row)]
                     for i, row in enumerate(spec[part])]
    return out


def test_cycle_cells_are_the_tube_block():
    # only R_EVEN's 2x2 D/C block, lam cell included, lies on a cycle, in
    # the head and in each copy; every other cell is a bridge, whose sign a
    # -1 scaling of the block rows and columns on one side undoes
    block = [(i, j) for i in (0, 1) for j in (0, 1)]
    for key, spec in CASE_SPECS.items():
        for reps in range(4):
            got = sorted(tag for _, tag in _cycle_cells(homdim._layout(_tagged(spec), reps)))
            want = [] if key != "R_EVEN" else sorted(
                [("head", i, j) for i, j in block] + [("rep", i, j) for i, j in block] * reps)
            assert got == want, (key, reps)


def test_sign_flip_on_every_bridge_cell_is_invisible():
    field, lam = PrimeField(7), 2
    rng = random.Random(13)
    mods = [module_direct_sum(cat.build(cat.R(2, lam), field), random_module(field, rng, 2))]
    mods += [random_module(field, rng, 3) for _ in range(2)]
    descs = {}
    # every case, sigma and depth 0-3
    for d in enumerate_descriptors(EnumerationBounds(7, 4, (lam,))):
        if not homdim._is_closed_form(d):
            key, _, param, _ = cat.case(d, field)
            if CASE_SPECS[key]["reps"](param) <= 3:
                descs.setdefault(key, []).append(d)
    cycle = {(key, *tag) for key in CASE_SPECS for reps in range(4)
             for _, tag in _cycle_cells(homdim._layout(_tagged(CASE_SPECS[key]), reps))}
    bridges = [(key, part, i, j) for key, spec in CASE_SPECS.items()
               for part in ("head", "rep", "overlap")
               for i, row in enumerate(spec[part]) for j, cell in enumerate(row)
               if cell and (key, part, i, j) not in cycle]
    assert len(bridges) == 75
    truth = {key: [hom_vector(m, ds) for m in mods] for key, ds in descs.items()}
    for key, part, i, j in bridges:
        with flipped_sign(key, part, i, j):
            for route in ROUTES.values():
                assert [route(m, descs[key]) for m in mods] == truth[key], (key, part, i, j)


# -- sign-normal form ------------------------------------------------------------
#
# hom_vector plans each spec in a sign-normal form (homdim._signed): its
# block rows and columns flipped, the same way in every copy, which is
# D_r N D_c for every N of the spec and keeps the corank.  hom_dim reads
# the spec as written, so the two routes agree only if the flips are exact.

SIGN_CELLS = [(key, part, i, j) for key, spec in CASE_SPECS.items()
              for part in ("head", "rep", "overlap") for i, row in enumerate(spec[part])
              for j, cell in enumerate(row) if cell and cell[1] != "-lam"]


def _periodic_flips(spec, signed):
    """Whether signed is spec with its block rows and columns flipped the
    way every layout shares them: one flip per row and column of the head
    and of the rep (the head's the rep's when the two are equal), W's row
    i flipped with both the head's and the rep's tail row it sits on, and
    W's column j with the rep's column j; a "-lam" cell and every letter
    kept.  Each flip is found by a walk over the cells, then checked on
    every cell."""
    a, c, e = len(spec["head"]), len(spec["rep"]), len(spec["overlap"])
    h = "r" if spec["head"] == spec["rep"] else "h"
    cells = [((h if part == "head" else "r", i), (h.upper() if part == "head" else "R", j),
              x, signed[part][i][j])
             for part in ("head", "rep") for i, row in enumerate(spec[part])
             for j, x in enumerate(row)]
    for i, row in enumerate(spec["overlap"]):
        cells += [(node, ("R", j), x, signed["overlap"][i][j])
                  for j, x in enumerate(row) for node in ((h, a - e + i), ("r", c - e + i))]
    edges = {}
    for u, v, x, y in cells:
        if (x is None) != (y is None):
            return False
        if x is not None:
            if x[0] != y[0] or "-lam" in (x[1], y[1]) and x != y:
                return False
            edges.setdefault(u, []).append((v, x == y))
            edges.setdefault(v, []).append((u, x == y))
    flip = {}
    for start in edges:
        if start in flip:
            continue
        flip[start], todo = True, [start]
        while todo:
            u = todo.pop()
            for v, kept in edges[u]:
                if v not in flip:
                    flip[v] = flip[u] == kept
                    todo.append(v)
                elif flip[v] != (flip[u] == kept):
                    return False
    return True


def test_periodic_flips_sees_a_broken_tie():
    # the check itself: the table is its own signed form (no flip); a
    # flipped copy of one whole rep column is one, and so is the head's
    # tail row flipped with W's row; W's row flipped on its own is not,
    # nor is a "-lam" cell flipped with its row, nor a letter changed
    spec = CASE_SPECS["P0"]
    assert _periodic_flips(spec, spec)

    def flipped(part, rows=(), cols=()):
        return [[x and (x[0], -x[1] if (i in rows) != (j in cols) else x[1])
                 for j, x in enumerate(row)] for i, row in enumerate(spec[part])]

    assert _periodic_flips(spec, dict(spec, rep=flipped("rep", cols=(0,)),
                                      overlap=flipped("overlap", cols=(0,))))
    assert _periodic_flips(spec, dict(spec, head=flipped("head", rows=(1,)),
                                      rep=flipped("rep", rows=(0,)),
                                      overlap=flipped("overlap", rows=(0,))))
    assert not _periodic_flips(spec, dict(spec, overlap=flipped("overlap", rows=(0,))))
    assert not _periodic_flips(spec, dict(spec, head=flipped("head", rows=(1,))))
    tube = CASE_SPECS["R_EVEN"]
    rows = [[x and (x[0], x[1] if x[1] == "-lam" or i == 0 else -x[1]) for x in row]
            for i, row in enumerate(tube["rep"])]
    assert _periodic_flips(tube, dict(tube, head=rows, rep=rows)) is False
    renamed = [list(row) for row in spec["rep"]]
    renamed[0][1] = ("A", -1)
    assert not _periodic_flips(spec, dict(spec, rep=renamed))


def test_signed_table_has_fewest_minus_signs_where_its_flips_allow():
    # five patterns end with no -1 cell; P0 and I0 keep 2 (one is the
    # least their shared flips allow), and R_EVEN keeps its 3, which its
    # "-lam" cells fix.  W's cells ask for +1 first, as both folds write
    # W: no pattern but R_EVEN keeps a -1 cell there.  CASE_SPECS itself
    # keeps the paper's signs
    before = copy.deepcopy(CASE_SPECS)
    minus = {}
    for key, spec in CASE_SPECS.items():
        signed = homdim._signed(spec)
        assert _periodic_flips(spec, signed), key
        minus[key] = sum(x is not None and x[1] == -1 for part in ("head", "rep", "overlap")
                         for row in signed[part] for x in row)
        in_w = any(x is not None and x[1] == -1 for row in signed["overlap"] for x in row)
        assert in_w == (key == "R_EVEN"), key
    assert minus == {"P0": 2, "P_ODD": 0, "P_EVEN": 0, "I0": 2, "I_ODD": 0, "I_EVEN": 0,
                     "R_EVEN": 3, "R_ODD": 0}
    assert CASE_SPECS == before


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(7), QQ], ids=repr)
def test_sign_normal_form_is_exact_for_every_flipped_cell(field, monkeypatch):
    # every +-1 cell of every pattern, flipped through case_edit: inside
    # the edit hom_vector plans the edited spec in signed form, and it
    # must answer as hom_dim, which reads the edited spec as written, at
    # two and three copies, on a random module and a disguised sum that
    # holds the lam tube.  The signed spec is the edited one with periodic
    # flips, keeps its letters and "-lam" cells, and keeps head == rep
    # wherever it held
    lam = field.coerce(2)
    rng = random.Random(0x5165)
    descs = {}
    for d in enumerate_descriptors(EnumerationBounds(9, 7, (lam,))):
        if not homdim._is_closed_form(d):
            key, _, param, _ = cat.case(d, field)
            if CASE_SPECS[key]["reps"](param) in (2, 3):
                descs.setdefault(key, []).append(d)
    assert set(descs) == set(CASE_SPECS)
    modules = [random_module(field, rng, max_dim=4),
               disguised_sum(field, [cat.R(2, lam), cat.P(1, 0), cat.I(1, 1)], rng)]
    truth = {key: [hom_vector(m, ds) for m in modules] for key, ds in descs.items()}
    signed, seen = homdim._signed, []
    monkeypatch.setattr(homdim, "_signed", lambda spec: seen.append(spec) or signed(spec))
    changed = set()
    for key, part, i, j in SIGN_CELLS:
        with flipped_sign(key, part, i, j):
            spec = CASE_SPECS[key]
            seen.clear()
            got = [hom_vector(m, descs[key]) for m in modules]
            assert seen and all(x is spec for x in seen), (key, part, i, j)
            assert got == [[hom_dim(m, d) for d in descs[key]] for m in modules], (key, part, i, j)
            out = signed(spec)
            assert _periodic_flips(spec, out), (key, part, i, j)
            assert out["head"] == out["rep"] or spec["head"] != spec["rep"], (key, part, i, j)
            if got != truth[key]:
                changed.add((key, part, i, j))
    # some flips move the answers, and hom_vector followed them: those on a
    # cycle, in the tube's D/C block
    assert changed and {(key, i, j) for key, _, i, j in changed} <= {
        ("R_EVEN", i, j) for i in (0, 1) for j in (0, 1)}
