"""End-to-end acceptance checks.

Each `criterion_*` function is self-contained and raises AssertionError on
failure.  They run as ordinary pytest tests below, and
``python3 tests/test_acceptance.py`` prints one PASS/FAIL line per
criterion, without pytest.
"""

import functools
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations

from fourspace import catalog as cat
from fourspace.catalog import EnumerationBounds, declared_dim, enumerate_descriptors
from fourspace.decomp import IncompleteCandidates, decompose
from fourspace.exactmat import QQ, ExactMatrix, PrimeField, block_grid, hstack, zeros
from fourspace.homdim import coeff_matrix, hom_dim, hom_vector
from fourspace.modules import (
    PERM_CYCLE,
    LambdaModule,
    dim_vector,
    euler_form,
    permute_vertices,
    random_module,
)
from fourspace.oracle import hom_oracle
from fourspace.verify import disguised_sum, run_sweep, structured_module

from case_edit import flipped_sign

GF = PrimeField(32003)

MASTER_BOUNDS = EnumerationBounds(4, 4, (2, 5))
DECOMP_BOUNDS = EnumerationBounds(3, 3, (2, 5))
VERIFY_BOUNDS = EnumerationBounds(2, 2, (2, 5))


# -- shared fixtures (computed once, reused by criteria 3, 4, 5 and 7) ----------


@functools.lru_cache(maxsize=1)
def _master_descriptors():
    return tuple(enumerate_descriptors(MASTER_BOUNDS))


@functools.lru_cache(maxsize=1)
def _master_modules():
    rng = random.Random(0x5EED)
    mods = []
    for trial in range(20):
        if trial % 2:
            mods.append(structured_module(GF, MASTER_BOUNDS, rng,
                                          enumerate_descriptors(MASTER_BOUNDS)))
        else:
            mods.append(random_module(GF, rng, max_dim=6))
    return mods


@functools.lru_cache(maxsize=1)
def _master_pairs():
    """(module, descriptor, formula value, oracle value) over the full sweep."""
    out = []
    for m in _master_modules():
        for desc in _master_descriptors():
            out.append((m, desc, hom_dim(m, desc), hom_oracle(m, cat.build(desc, GF))))
    return out


# -- criterion 1: golden coefficient matrices -----------------------------------


def criterion_1_golden_matrices():
    gf101 = PrimeField(101)
    a = ExactMatrix(gf101, [[10], [11]])
    b = ExactMatrix(gf101, [[20, 21], [22, 23]])
    c = ExactMatrix(gf101, [[30], [31]])
    d = ExactMatrix(gf101, [[40, 41], [42, 43]])
    nc = ExactMatrix(gf101, [[-30], [-31]])
    nd = ExactMatrix(gf101, [[-40, -41], [-42, -43]])
    m = LambdaModule(a, b, c, d)
    z = lambda w: zeros(gf101, 2, w)
    za, zb, zc, zd = z(1), z(2), z(1), z(2)

    three_by_eight = block_grid([
        [a,  za, b,  zb, c,  d,  zc, zd],
        [za, za, zb, b,  zc, nd, c,  zd],
        [za, a,  zb, zb, nc, zd, zc, d ],
    ])
    assert coeff_matrix(m, cat.P(1, 0)) == three_by_eight

    five_by_twelve = block_grid([
        [a,  za, b,  zb, c,  d,  zc, zd, za, zb, zc, zd],
        [za, za, zb, b,  zc, nd, c,  zd, za, zb, zc, zd],
        [za, a,  zb, zb, nc, zd, zc, d,  za, zb, zc, zd],
        [za, za, zb, zb, zc, zd, zc, nd, za, b,  c,  zd],
        [za, za, zb, zb, zc, zd, nc, zd, a,  zb, zc, d ],
    ])
    assert coeff_matrix(m, cat.P(2, 0)) == five_by_twelve


# -- criterion 2: catalog dimension vectors --------------------------------------


def criterion_2_catalog_dimension_vectors():
    checked = 0
    for n in range(6):
        for j in range(5):
            for mk in (cat.P, cat.I):
                desc = mk(n, j)
                assert dim_vector(cat.build(desc, GF)) == declared_dim(desc)
                checked += 1
    for field, lams in ((GF, (2, 5)), (QQ, (Fraction(7, 3),))):
        for l in range(1, 6):
            for lam in lams:
                desc = cat.R(l, field.coerce(lam))
                assert dim_vector(cat.build(desc, field)) == declared_dim(desc)
                checked += 1
        for m_param in range(1, 6):
            for s in (0, 1):
                for lam in (0, 1, cat.INF):
                    desc = cat.R(s, m_param, lam)
                    assert dim_vector(cat.build(desc, field)) == declared_dim(desc)
                    checked += 1
    assert checked == 135


# -- criterion 3: formula route agrees with the linear-system oracle -------------


def criterion_3_formula_matches_oracle():
    start = time.perf_counter()
    mods = _master_modules()
    assert len(mods) == 20
    assert all(max(dim_vector(m)) <= 6 for m in mods)
    assert len(_master_descriptors()) == 106
    bad = [(d.label(), f, o) for (_m, d, f, o) in _master_pairs() if f != o]
    assert not bad, f"{len(bad)} disagreements, first: {bad[0]}"
    assert time.perf_counter() - start < 300


# -- criterion 4: closed forms ----------------------------------------------------


def criterion_4_closed_forms():
    for m in _master_modules():
        n = dim_vector(m)
        assert hom_dim(m, cat.I(0, 0)) == n[0]
        for i in range(1, 5):
            assert hom_dim(m, cat.I(0, i)) == n[i]
        assert hom_dim(m, cat.P(0, 0)) == hstack(m.mats()).corank()
        assert hom_dim(m, cat.I(1, 1)) == m.A.corank()


# -- criterion 5: parameter-substitution identities -------------------------------


def criterion_5_substitution_identities():
    for field in (GF, QQ):
        for l in range(1, 5):
            subst = LambdaModule(*cat._r_even_blocks(field, l, field.zero))
            assert cat.build(cat.R(0, 2 * l, 0), field) == subst
    descs = _master_descriptors()
    for l in range(1, 4):
        member = cat.build(cat.R(1, 2 * l, 1), GF)
        subst = LambdaModule(*cat._r_even_blocks(GF, l, GF.one))
        assert hom_vector(member, descs) == hom_vector(subst, descs)


# -- criterion 6: permutation coherence -------------------------------------------


def criterion_6_permutation_coherence():
    for mk in (cat.P, cat.I):
        for n in range(4):
            for i in (1, 2, 3):
                shifted = permute_vertices(cat.build(mk(n, i), GF), PERM_CYCLE)
                assert shifted == cat.build(mk(n, i + 1), GF)
    rng = random.Random(0xC6)
    for _ in range(2):
        m = random_module(GF, rng, max_dim=3)
        x = random_module(GF, rng, max_dim=3)
        base = hom_oracle(m, x)
        for sigma in permutations((1, 2, 3, 4)):
            moved = hom_oracle(permute_vertices(m, sigma), permute_vertices(x, sigma))
            assert moved == base


# -- criterion 7: hom dimension dominates the Euler form --------------------------


def criterion_7_euler_lower_bound():
    for m, desc, _formula, oracle in _master_pairs():
        gap = oracle - euler_form(dim_vector(m), declared_dim(desc))
        assert gap >= 0, f"negative gap at {desc.label()}"
        if desc.family == cat.FAMILY_PREINJECTIVE and desc.params[0] == 0:
            assert gap == 0, f"strict gap at projectively trivial {desc.label()}"


# -- criterion 8: decomposition round trip ----------------------------------------


def criterion_8_decomposition_round_trip():
    rng = random.Random(0xD8)
    pool = enumerate_descriptors(DECOMP_BOUNDS)
    withheld = EnumerationBounds(3, 3, (5,))
    for trial in range(25):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        m = disguised_sum(GF, picks, rng)
        assert decompose(m, DECOMP_BOUNDS) == dict(Counter(picks))
        if trial % 5 == 0:
            with_tube = disguised_sum(GF, picks + [cat.R(1, 2)], rng)
            try:
                decompose(with_tube, withheld)
            except IncompleteCandidates:
                pass
            else:
                raise AssertionError("missing-lambda decomposition returned an answer")


# -- criterion 9: verify catches coefficient-table sign flips ----------------------


SIGN_FLIPS = [
    ("R_EVEN", "head", 0, 0),
    ("R_EVEN", "head", 0, 1),
    ("R_EVEN", "head", 1, 1),
    ("R_EVEN", "rep", 0, 0),
]


def criterion_9_mutation_sensitivity():
    assert run_sweep(GF, VERIFY_BOUNDS, trials=4, seed=0) == []
    for cell in SIGN_FLIPS:
        with flipped_sign(*cell):
            mismatches = run_sweep(GF, VERIFY_BOUNDS, trials=4, seed=0)
        assert mismatches, f"sign flip at {cell} went undetected"
    assert run_sweep(GF, VERIFY_BOUNDS, trials=4, seed=0) == []


# -- drivers -----------------------------------------------------------------------


CRITERIA = [
    ("golden coefficient matrices", criterion_1_golden_matrices),
    ("catalog dimension vectors", criterion_2_catalog_dimension_vectors),
    ("formula agrees with oracle", criterion_3_formula_matches_oracle),
    ("closed forms", criterion_4_closed_forms),
    ("substitution identities", criterion_5_substitution_identities),
    ("permutation coherence", criterion_6_permutation_coherence),
    ("Euler-form lower bound", criterion_7_euler_lower_bound),
    ("decomposition round trip", criterion_8_decomposition_round_trip),
    ("mutation sensitivity", criterion_9_mutation_sensitivity),
]


def test_criterion_1_golden_matrices():
    criterion_1_golden_matrices()


def test_criterion_2_catalog_dimension_vectors():
    criterion_2_catalog_dimension_vectors()


def test_criterion_3_formula_matches_oracle():
    criterion_3_formula_matches_oracle()


def test_criterion_4_closed_forms():
    criterion_4_closed_forms()


def test_criterion_5_substitution_identities():
    criterion_5_substitution_identities()


def test_criterion_6_permutation_coherence():
    criterion_6_permutation_coherence()


def test_criterion_7_euler_lower_bound():
    criterion_7_euler_lower_bound()


def test_criterion_8_decomposition_round_trip():
    criterion_8_decomposition_round_trip()


def test_criterion_9_mutation_sensitivity():
    criterion_9_mutation_sensitivity()


def report(out=print):
    """Run every criterion, emit one PASS/FAIL line each, return failure count."""
    failures = 0
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        started = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # keep going so the report is complete
            failures += 1
            out(f"FAIL  criterion {idx}: {name} -- {exc}")
        else:
            out(f"PASS  criterion {idx}: {name}  [{time.perf_counter() - started:.1f}s]")
    return failures


if __name__ == "__main__":
    sys.exit(1 if report() else 0)
