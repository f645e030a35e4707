import random
from fractions import Fraction

import pytest

from fourspace import catalog as cat
from fourspace import decomp
from fourspace.catalog import EnumerationBounds, InvalidParams, enumerate_descriptors
from fourspace.decomp import (
    AmbiguousSolution,
    IncompleteCandidates,
    decompose,
    is_isomorphic,
)
from fourspace.exactmat import QQ, FieldMismatch, PrimeField, random_invertible
from fourspace.homdim import hom_vector
from fourspace.modules import (
    LambdaModule,
    base_change,
    module_direct_sum,
    zero_module,
)

GF = PrimeField(32003)
BOUNDS = EnumerationBounds(2, 2, (GF.coerce(2), GF.coerce(5)))


def assemble(field, picks, rng=None):
    m = zero_module(field)
    for d in picks:
        m = module_direct_sum(m, cat.build(d, field))
    if rng is not None:
        u = random_invertible(field, m.n0, rng)
        vs = [random_invertible(field, w.cols, rng) for w in m.mats()]
        m = base_change(m, u, vs)
    return m


def test_indecomposable_input():
    m = cat.build(cat.P(1, 0), GF)
    assert decompose(m, BOUNDS) == {cat.P(1, 0): 1}


def test_repeated_summand():
    m = assemble(GF, [cat.I(0, 0), cat.I(0, 0)])
    assert decompose(m, BOUNDS) == {cat.I(0, 0): 2}


def test_zero_module_decomposes_to_nothing(field):
    assert decompose(zero_module(field), EnumerationBounds(1, 1, ())) == {}


def test_shuffled_three_summand_recovery(rng):
    picks = [cat.P(0, 1), cat.R(1, GF.coerce(2)), cat.I(1, 1)]
    m = assemble(GF, picks, rng)
    assert decompose(m, BOUNDS) == {d: 1 for d in picks}


def test_recovery_is_base_change_invariant(rng):
    picks = [cat.P(2, 3), cat.R(0, 3, cat.INF), cat.I(1, 2)]
    plain = assemble(GF, picks)
    shuffled = assemble(GF, picks, rng)
    assert decompose(plain, BOUNDS) == decompose(shuffled, BOUNDS)


def test_random_round_trips(field, rng):
    bounds = EnumerationBounds(2, 2, (field.coerce(2), field.coerce(5)))
    cands = enumerate_descriptors(bounds)
    trials = 6 if field is GF else 2
    for _ in range(trials):
        picks = [rng.choice(cands) for _ in range(rng.randint(1, 6))]
        want = {}
        for d in picks:
            want[d] = want.get(d, 0) + 1
        m = assemble(field, picks, rng)
        assert decompose(m, bounds) == want


def test_dim_vector_conservation(rng):
    picks = [cat.P(1, 4), cat.P(1, 4), cat.R(0, 2, 1)]
    m = assemble(GF, picks, rng)
    out = decompose(m, BOUNDS)
    total = [0] * 5
    for d, mu in out.items():
        for v, x in enumerate(cat.declared_dim(d)):
            total[v] += mu * x
    assert tuple(total) == m.dim_vector()


# -- failure modes -----------------------------------------------------------


def test_missing_lambda_raises_incomplete():
    m = cat.build(cat.R(1, GF.coerce(3)), GF)
    with pytest.raises(IncompleteCandidates, match="residual hom vector"):
        decompose(m, BOUNDS)


def test_too_small_bounds_raise_incomplete():
    m = cat.build(cat.P(5, 0), GF)
    with pytest.raises(IncompleteCandidates):
        decompose(m, BOUNDS)


def test_degenerate_candidate_set_raises_ambiguous(monkeypatch):
    dup = enumerate_descriptors(BOUNDS)
    monkeypatch.setattr(decomp, "enumerate_descriptors", lambda b: dup + dup[:1])
    decomp._gram.cache_clear()
    try:
        with pytest.raises(AmbiguousSolution):
            decompose(cat.build(cat.P(1, 0), GF), BOUNDS)
    finally:
        decomp._gram.cache_clear()


def test_decompose_calls_hom_vector_once_and_builds_nothing(monkeypatch):
    # the Gram is a closed form over descriptors: a cold decompose builds
    # no candidate, and every decompose asks hom_vector for h alone
    bounds = EnumerationBounds(1, 1, (2,))
    m = cat.build(cat.P(1, 0), GF)
    builds, hom_calls = [], []
    build, vector = cat.build, decomp.hom_vector

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def counting_vector(*args):
        hom_calls.append(args)
        return vector(*args)

    assert not hasattr(decomp, "build")
    monkeypatch.setattr(cat, "build", counting_build)
    monkeypatch.setattr(decomp, "hom_vector", counting_vector)
    decomp._gram.cache_clear()
    try:
        assert decompose(m, bounds) == {cat.P(1, 0): 1}
        assert (len(builds), len(hom_calls)) == (0, 1)
        assert decompose(m, bounds) == {cat.P(1, 0): 1}
        assert (len(builds), len(hom_calls)) == (0, 2)
    finally:
        decomp._gram.cache_clear()


def test_gram_cache_is_bounded():
    decomp._gram.cache_clear()
    try:
        for k in range(2, 11):
            decompose(zero_module(GF), EnumerationBounds(0, 0, (k,)))
        assert decomp._gram.cache_info().currsize == 8
    finally:
        decomp._gram.cache_clear()


@pytest.mark.parametrize(
    "field, bounds",
    [(GF, BOUNDS), (QQ, EnumerationBounds(1, 1, (2,)))],
    ids=["GF32003", "QQ"],
)
def test_gram_inverse_is_integral(field, bounds):
    # G is block triangular with unimodular diagonal blocks, so the inverse
    # of G^T is held as Python ints and G^T inv = I holds in integers
    cands, rows, inv = decomp._gram_solver(field, bounds)
    n = len(cands)
    assert all(type(v) is int for r in inv for v in r)
    product = [[sum(rows[k][i] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "field, bounds",
    [
        (PrimeField(2), EnumerationBounds(3, 3, ())),
        (PrimeField(3), EnumerationBounds(3, 3, (2,))),
        (GF, EnumerationBounds(3, 3, (2, 5))),
        (QQ, EnumerationBounds(2, 2, (2, Fraction(7, 3)))),
    ],
    ids=["GF2", "GF3", "GF32003", "QQ"],
)
def test_closed_form_gram_equals_hom_vector_on_built_candidates(field, bounds):
    # a third route to the same numbers: tube combinatorics and the Euler
    # form against staircases run on the built catalog modules
    cands, rows, _ = decomp._gram_solver(field, bounds)
    computed = [hom_vector(cat.build(y, field), cands) for y in cands]
    for y, row, want in zip(cands, rows, computed):
        assert row == want, y


def test_lambdas_congruent_mod_p_name_one_tube():
    # 32005 = 2 in GF(32003): one tube, not two identical candidate rows
    bounds = EnumerationBounds(1, 1, (2, 32005))
    assert decompose(cat.build(cat.P(1, 0), GF), bounds) == {cat.P(1, 0): 1}


@pytest.mark.parametrize("lam", [0, 1, 32004])
def test_bounds_lambda_reducing_to_zero_or_one_is_named(lam):
    # 32004 = 1 in GF(32003)
    bounds = EnumerationBounds(1, 1, (2, lam))
    with pytest.raises(InvalidParams, match=f"lambda {lam} reduces to"):
        decompose(cat.build(cat.P(1, 0), GF), bounds)


# -- isomorphism --------------------------------------------------------------


def test_isomorphic_to_itself(rng):
    m = assemble(GF, [cat.P(0, 2), cat.I(2, 0)], rng)
    assert is_isomorphic(m, m, BOUNDS)


def test_remark_isomorphism_lambda_one():
    for l in (1, 2):
        e1, e2, e3, e4 = cat._r_even_blocks(GF, l, GF.one)
        subst = LambdaModule(e1, e2, e3, e4)
        member = cat.build(cat.R(1, 2 * l, 1), GF)
        assert is_isomorphic(subst, member, BOUNDS)


def test_distinct_vertices_not_isomorphic():
    a = cat.build(cat.P(0, 1), GF)
    b = cat.build(cat.P(0, 2), GF)
    assert not is_isomorphic(a, b, BOUNDS)


def test_isomorphism_across_fields_raises():
    bounds = EnumerationBounds(1, 1, (2,))
    a = cat.build(cat.R(1, 2), QQ)
    b = cat.build(cat.R(1, 2), PrimeField(5))
    with pytest.raises(FieldMismatch):
        is_isomorphic(a, b, bounds)


def test_same_dim_vector_but_different_modules():
    # P(0,0) + I(0,1) and the direct sum catching a regular: equal dims differ
    a = module_direct_sum(cat.build(cat.R(1, GF.coerce(2)), GF), zero_module(GF))
    b = assemble(GF, [cat.R(1, GF.coerce(5))])
    assert a.dim_vector() == b.dim_vector()
    assert not is_isomorphic(a, b, BOUNDS)
