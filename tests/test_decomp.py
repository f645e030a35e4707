import random
from decimal import Decimal
from fractions import Fraction

import pytest

from fourspace import catalog as cat
from fourspace import decomp
from fourspace.catalog import (
    EnumerationBounds,
    InvalidParams,
    enumerate_descriptors,
    tube_lambda,
)
from fourspace.decomp import IncompleteCandidates, decompose, is_isomorphic
from fourspace.exactmat import QQ, FieldMismatch, PrimeField
from fourspace.homdim import hom_vector
from fourspace.modules import LambdaModule, module_direct_sum, zero_module
from fourspace.verify import disguised_sum

GF = PrimeField(32003)
BOUNDS = EnumerationBounds(2, 2, (GF.coerce(2), GF.coerce(5)))


def candidates(field, bounds):
    lambdas = tuple(tube_lambda(field, lam) for lam in bounds.lambdas)
    return enumerate_descriptors(EnumerationBounds(bounds.max_n, bounds.max_l, lambdas))


def assemble(field, picks, rng=None):
    """The sum of picks; with an rng, disguised behind a base change."""
    if rng is not None:
        return disguised_sum(field, picks, rng)
    m = zero_module(field)
    for d in picks:
        m = module_direct_sum(m, cat.build(d, field))
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


def test_decompose_calls_hom_vector_once_and_builds_nothing(monkeypatch):
    # the defect terms and the residual's [Y, X] are descriptors and closed
    # forms: decompose builds no candidate and asks hom_vector once
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
    assert decompose(m, bounds) == {cat.P(1, 0): 1}
    assert (len(builds), len(hom_calls)) == (0, 1)
    assert decompose(m, bounds) == {cat.P(1, 0): 1}
    assert (len(builds), len(hom_calls)) == (0, 2)


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
    cands = candidates(field, bounds)
    for y in cands:
        row = [decomp._hom(y, x) for x in cands]
        assert row == hom_vector(cat.build(y, field), cands), y


def defect_targets(cands):
    return list(dict.fromkeys(d for c in cands for _, d in decomp._defect(c)))


def test_defect_is_delta_on_closed_form_pairs():
    # Auslander's defect formula: mu_C(X) = [X, C] - [X, E] + [X, tau C]
    # counts C in X, so on indecomposables it is the Kronecker delta
    cands = enumerate_descriptors(EnumerationBounds(6, 6, (2, 5)))
    for c in cands:
        terms = decomp._defect(c)
        for x in cands:
            assert sum(sign * decomp._hom(x, d) for sign, d in terms) == (c == x), (c, x)


def test_defect_terms_reach_one_step_past_the_bounds():
    cands = enumerate_descriptors(EnumerationBounds(3, 3, (2, 5)))
    extra = [d for d in defect_targets(cands) if d not in cands]
    assert len(cands) + len(extra) == 95
    assert set(extra) == {cat.I(4, j) for j in range(5)} | {cat.R(4, 2), cat.R(4, 5)} | {
        cat.R(s, 7, lam) for s in (0, 1) for lam in (0, 1, cat.INF)
    }


def test_ar_sequences_add_up():
    # 0 -> tau C -> E -> C -> 0 is exact, so dim E = dim C + dim tau C, and
    # rad P(0, j) = dim P(0, j) - e_j: the middle terms checked by dimension
    # alone, with no hom computed
    for c in enumerate_descriptors(EnumerationBounds(24, 12, (2, 5))):
        terms = decomp._defect(c)
        middle = [cat.declared_dim(d) for sign, d in terms if sign < 0]
        total = tuple(map(sum, zip((0,) * 5, *middle)))
        tau, dim = cat.tau(c), cat.declared_dim(c)
        if tau is None:
            j = c.params[1]
            assert total == tuple(x - (v == j) for v, x in enumerate(dim)), c
            assert [d for sign, d in terms if sign > 0] == [c]
        else:
            assert total == tuple(map(sum, zip(dim, cat.declared_dim(tau)))), c
            assert [d for sign, d in terms if sign > 0] == [c, tau]


@pytest.mark.parametrize("field", [PrimeField(3), GF, QQ], ids=["GF3", "GF32003", "QQ"])
def test_defect_is_delta_on_built_modules(field):
    cands = candidates(field, EnumerationBounds(3, 3, (2, 5)))
    targets = defect_targets(cands)
    for x in cands:
        h = dict(zip(targets, hom_vector(cat.build(x, field), targets)))
        mu = [sum(sign * h[d] for sign, d in decomp._defect(c)) for c in cands]
        assert mu == [int(c == x) for c in cands], x


@pytest.mark.parametrize("field", [GF, QQ], ids=["GF32003", "QQ"])
def test_preinjective_one_past_the_bounds_raises_incomplete(field):
    # I(n+1, j) + I(n, j) and I(n, 0) have equal hom vectors on every
    # in-bounds target; only the terms past the bounds tell them apart
    for n in (1, 2, 3):
        for j in (1, 2, 3, 4):
            m = module_direct_sum(cat.build(cat.I(n + 1, j), field), cat.build(cat.I(n, j), field))
            with pytest.raises(IncompleteCandidates, match="residual hom vector"):
                decompose(m, EnumerationBounds(n, 1, (2, 5)))


def test_lambdas_congruent_mod_p_name_one_tube():
    # 32005 = 2 in GF(32003): one tube, not two identical candidate rows
    bounds = EnumerationBounds(1, 1, (2, 32005))
    assert decompose(cat.build(cat.P(1, 0), GF), bounds) == {cat.P(1, 0): 1}


@pytest.mark.parametrize("lam", [0, 1, 32004])
def test_bounds_lambda_reducing_to_zero_or_one_is_named(lam):
    # 32004 = 1 in GF(32003); a raise is not cached, so the second call,
    # after a plan for (2,) is warm, raises again
    bounds = EnumerationBounds(1, 1, (2, lam))
    m = cat.build(cat.P(1, 0), GF)
    decompose(m, EnumerationBounds(1, 1, (2,)))
    for _ in range(2):
        with pytest.raises(InvalidParams, match=f"lambda {lam} reduces to"):
            decompose(m, bounds)


# -- the per-process plan -----------------------------------------------------


def _counted_defects(monkeypatch):
    """Empty the plan cache; the list of the candidates whose AR terms
    _defect builds from now on."""
    decomp._plan.cache_clear()
    built, defect = [], decomp._defect

    def counted(c):
        built.append(c)
        return defect(c)

    monkeypatch.setattr(decomp, "_defect", counted)
    return built


def test_plan_is_built_once_per_field_and_bounds(monkeypatch, rng):
    built = _counted_defects(monkeypatch)
    picks = [cat.P(0, 1), cat.R(1, GF.coerce(2)), cat.I(1, 1)]
    m, n = assemble(GF, picks), assemble(GF, picks, rng)
    assert decompose(m, BOUNDS) == {d: 1 for d in picks}
    assert decompose(n, BOUNDS) == {d: 1 for d in picks}
    assert is_isomorphic(m, n, BOUNDS)
    assert built == candidates(GF, BOUNDS)


def test_fields_with_equal_bounds_build_separate_plans(monkeypatch):
    built = _counted_defects(monkeypatch)
    bounds = EnumerationBounds(1, 1, (2,))
    for field in (PrimeField(3), GF, PrimeField(3), GF):
        assert decompose(cat.build(cat.R(1, 2), field), bounds) == {cat.R(1, field.coerce(2)): 1}
    assert built == candidates(PrimeField(3), bounds) + candidates(GF, bounds)
    assert decomp._plan.cache_info().currsize == 2


def test_list_lambdas_decompose_cold_and_warm():
    # the key holds the coerced lambdas as a tuple: a list is unhashable
    decomp._plan.cache_clear()
    bounds = EnumerationBounds(1, 1, [2])
    for _ in range(2):
        assert decompose(cat.build(cat.R(1, 2), GF), bounds) == {cat.R(1, 2): 1}


def test_a_float_lambda_is_rejected_cold_and_warm():
    # 2.0 and Decimal("2") == 2 and hash alike, but only 2 is a lambda: a
    # warm plan for (2,) must not answer for either
    m = cat.build(cat.R(1, 2), QQ)
    for lam in (2.0, Decimal("2")):
        decomp._plan.cache_clear()
        with pytest.raises(TypeError, match="floating point"):
            decompose(m, EnumerationBounds(1, 1, (lam,)))
        assert decompose(m, EnumerationBounds(1, 1, (2,))) == {cat.R(1, 2): 1}
        with pytest.raises(TypeError, match="floating point"):
            decompose(m, EnumerationBounds(1, 1, (lam,)))
        for field in (QQ, PrimeField(7)):
            with pytest.raises(TypeError, match="floating point"):
                tube_lambda(field, lam)


def _answer(m, bounds):
    try:
        return decompose(m, bounds)
    except IncompleteCandidates as e:
        return str(e)


def _cold_and_warm(cases):
    """Each case's answer (or IncompleteCandidates text) with the plan
    cache emptied first, then all of them again with the plans warm and
    their rows filled by the cases before."""
    cold = []
    for m, bounds in cases:
        decomp._plan.cache_clear()
        cold.append(_answer(m, bounds))
    return cold, [_answer(m, bounds) for m, bounds in cases]


def test_cold_and_warm_plans_answer_alike_on_the_acceptance_sums():
    # criterion 8's inputs: disguised sums of the (3, 3, {2, 5})
    # candidates, and a tube withheld from the bounds
    rng = random.Random(0xD8)
    bounds = EnumerationBounds(3, 3, (2, 5))
    pool = enumerate_descriptors(bounds)
    cases = []
    for trial in range(10):
        picks = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        cases.append((disguised_sum(GF, picks, rng), bounds))
        if trial % 5 == 0:
            cases.append((disguised_sum(GF, picks + [cat.R(1, 2)], rng),
                          EnumerationBounds(3, 3, (5,))))
    cold, warm = _cold_and_warm(cases)
    assert cold == warm
    assert sum(isinstance(a, str) for a in cold) == 2


@pytest.mark.parametrize("field", [GF, QQ], ids=["GF32003", "QQ"])
def test_cold_and_warm_plans_give_one_incomplete_text(field):
    cases = [(module_direct_sum(cat.build(cat.I(n + 1, j), field), cat.build(cat.I(n, j), field)),
              EnumerationBounds(n, 1, (2, 5)))
             for n in (1, 2, 3) for j in (1, 2, 3, 4)]
    cold, warm = _cold_and_warm(cases)
    assert cold == warm
    assert all(a.endswith("]") and "residual hom vector [" in a for a in cold)


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


def test_preinjective_past_the_bounds_is_not_isomorphic_to_i_n0():
    a = module_direct_sum(cat.build(cat.I(2, 4), GF), cat.build(cat.I(1, 4), GF))
    b = cat.build(cat.I(1, 0), GF)
    assert a.dim_vector() == b.dim_vector()
    with pytest.raises(IncompleteCandidates):
        is_isomorphic(a, b, EnumerationBounds(1, 1, (2, 5)))


def test_same_dim_vector_but_different_modules():
    # P(0,0) + I(0,1) and the direct sum catching a regular: equal dims differ
    a = module_direct_sum(cat.build(cat.R(1, GF.coerce(2)), GF), zero_module(GF))
    b = assemble(GF, [cat.R(1, GF.coerce(5))])
    assert a.dim_vector() == b.dim_vector()
    assert not is_isomorphic(a, b, BOUNDS)
