import pickle
from fractions import Fraction

import pytest

from fourspace import catalog as cat
from fourspace import decompose, hom_vector
from fourspace.catalog import (
    INF,
    EnumerationBounds,
    IndecDescriptor,
    InvalidParams,
    build,
    canonical_form,
    declared_dim,
    enumerate_descriptors,
    parse_descriptor,
)
from fourspace.exactmat import QQ, PrimeField
from fourspace.modules import (
    PERM_CYCLE,
    LambdaModule,
    dim_vector,
    permute_vertices,
)
from fourspace.oracle import hom_oracle

GF = PrimeField(32003)
LAM2 = GF.coerce(2)


def all_descriptors(pmax, field=GF, lambdas=(2, 5)):
    out = []
    for n in range(pmax + 1):
        for j in range(5):
            out.append(cat.P(n, j))
            out.append(cat.I(n, j))
    for l in range(1, pmax + 1):
        for lam in lambdas:
            out.append(cat.R(l, field.coerce(lam)))
        for m in (2 * l - 1, 2 * l):
            for lam in (0, 1, INF):
                for s in (0, 1):
                    out.append(cat.R(s, m, lam))
    return out


# -- dimension vectors (every table row, parameters through 5) --------------


@pytest.mark.parametrize("desc", all_descriptors(5), ids=lambda d: d.label())
def test_dim_vector_matches_declared(desc):
    assert build(desc, GF).dim_vector() == declared_dim(desc)


def test_dim_vector_field_independent():
    for desc in all_descriptors(3, field=QQ):
        assert build(desc, QQ).dim_vector() == declared_dim(desc)


# -- the Coxeter transformation and tau -----------------------------------------


@pytest.mark.parametrize("field", [GF, QQ], ids=["GF32003", "QQ"])
def test_coxeter_maps_each_built_module_to_its_translate(field):
    # dim tau X = Phi(dim X) on the built modules alone, no declared_dim
    # read; the projectives P(0, j) are the only descriptors with no tau
    for desc in all_descriptors(5, field=field):
        tau = cat.tau(desc)
        if tau is None:
            assert desc in [cat.P(0, j) for j in range(5)]
            continue
        assert dim_vector(build(tau, field)) == cat.coxeter(dim_vector(build(desc, field))), desc


def test_coxeter_maps_each_declared_dim_to_its_translate():
    descs = enumerate_descriptors(EnumerationBounds(24, 12, (2, 5)))
    descs += [fam(n, j) for fam in (cat.P, cat.I) for n in (10**9, 10**9 + 1) for j in range(5)]
    descs += [cat.R(s, m, lam) for s in (0, 1) for m in (10**9, 10**9 + 1) for lam in (0, 1, INF)]
    descs += [cat.R(l, 2) for l in (10**9, 10**9 + 1)]
    for desc in descs:
        tau = cat.tau(desc)
        if tau is not None:
            assert cat.coxeter(declared_dim(desc)) == declared_dim(tau), desc


# -- cyclic structure ---------------------------------------------------------


@pytest.mark.parametrize("fam", [cat.P, cat.I])
@pytest.mark.parametrize("n", range(4))
def test_cyclic_shift_is_exact(fam, n):
    for i in (1, 2, 3):
        shifted = permute_vertices(build(fam(n, i), GF), PERM_CYCLE)
        assert shifted == build(fam(n, i + 1), GF)


def test_canonical_form_reproduces_every_member():
    for desc in all_descriptors(3):
        rep, sigma = canonical_form(desc)
        assert permute_vertices(build(rep, GF), sigma) == build(desc, GF)


# -- the class table -----------------------------------------------------------


def _reference_case(desc, field):
    # case as it was derived per descriptor before the class table: from
    # canonical_form's representative, its family, parity and size
    rep, sigma = canonical_form(desc)
    fam, params = rep.family, rep.params
    if fam in (cat.FAMILY_POSTPROJECTIVE, cat.FAMILY_PREINJECTIVE):
        n, j = params
        if j == 0:
            return f"{fam}0", sigma, n, None
        return f"{fam}_{'ODD' if n % 2 else 'EVEN'}", sigma, n // 2, None
    if fam == cat.FAMILY_REGULAR_HOMOGENEOUS:
        l, lam = params
        return "R_EVEN", sigma, l, cat.tube_lambda(field, lam)
    _, m, _ = params
    if m % 2 == 0:
        return "R_EVEN", sigma, m // 2, field.zero
    return "R_ODD", sigma, (m + 1) // 2, None


def _answer(case_fn, desc, field):
    try:
        return case_fn(desc, field)
    except InvalidParams:
        return InvalidParams


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(7), GF], ids=repr)
def test_case_table_matches_the_per_descriptor_derivation(fld):
    # build and hom_vector both read case, so a wrong sigma or size would
    # agree with the oracle; only this and declared_dim can catch it
    descs = enumerate_descriptors(EnumerationBounds(24, 12, (2, 5)))
    descs += [fam(n, j) for fam in (cat.P, cat.I) for n in (10**9, 10**9 + 1) for j in range(5)]
    descs += [cat.R(s, m, lam) for s in (0, 1) for m in range(1, 9) for lam in (0, 1, INF)]
    assert len(cat._CLASSES) == 31
    for d in descs:
        assert _answer(cat.case, d, fld) == _answer(_reference_case, d, fld), d
    # an unknown family is refused when made, by position, by keyword and
    # through _replace, so no per-descriptor reading meets one and falls
    # through to a branch that reads its params as another family's
    for params in ((1, 0), (1, 0, 0)):
        for make in (lambda: IndecDescriptor("Q", params),
                     lambda: IndecDescriptor(family="Q", params=params),
                     lambda: cat.P(1, 0)._replace(family="Q", params=params)):
            with pytest.raises(InvalidParams, match="unknown family"):
                make()


# (family, params) that P, I or R refuse, then a few that no constructor
# makes: the wrong count for the family, or an unknown family
UNMADE = [
    ("P", (1, 7)), ("P", (-1, 1)), ("I", (2, -1)), ("RH", (0, 2)), ("RH", (1, 0)),
    ("RH", (1, INF)), ("RE", (2, 1, 0)), ("RE", (0, 0, 1)), ("RE", (0, 1, 7)),
    ("P", (2.0, 1)), ("P", (True, 1)), ("P", ("2", 1)), ("RH", (1, 2.0)), ("RH", (True, 2)),
    ("RE", (0, 2, 0.0)),
    # a lam that is not exact: "2" would read R(1,2) and name R(1, 2)'s
    # module, yet differ from it; the others would fail later, or bare
    ("RH", (1, "2")), ("RH", (1, "x")), ("RH", (1, 2 + 0j)), ("RE", (0, 2, 0j)),
    ("P", (1, 2, 3)), ("RE", (0, 2)), ("RH", (0, 2, 0)), ("Q", (1, 0)),
]
MAKERS = {"P": (cat.P, 2), "I": (cat.I, 2), "RH": (cat.R, 2), "RE": (cat.R, 3)}


@pytest.mark.parametrize("fam, params", UNMADE, ids=str)
def test_a_descriptor_made_directly_raises_one_error_in_every_reading(fam, params):
    # IndecDescriptor(...) runs the constructors' checks itself, so no
    # reading ever meets such a descriptor: every way of making one raises
    # one InvalidParams, the one the family's constructor raises, where a
    # KeyError, an IndexError, a negative size or a wrong translate came
    # out of the readings once
    messages = set()
    for attempt in (lambda: IndecDescriptor(fam, params),
                    lambda: IndecDescriptor(params=params, family=fam),
                    lambda: IndecDescriptor._make((fam, params)),
                    lambda: cat.P(1, 0)._replace(family=fam, params=params)):
        with pytest.raises(InvalidParams) as raised:
            attempt()
        messages.add(str(raised.value))
    assert len(messages) == 1
    make, count = MAKERS.get(fam, (None, None))
    if len(params) == count:
        with pytest.raises(InvalidParams) as made:
            make(*params)
        assert messages == {str(made.value)}


def test_a_descriptor_made_directly_reads_as_its_constructor_makes_it():
    # what a constructor accepts, IndecDescriptor accepts too, and keeps as
    # the constructor does: R(0, 3, True) is R(0, 3, 1), a plain int lam
    desc, made = IndecDescriptor("RE", (0, 3, True)), cat.R(0, 3, True)
    assert made == cat.R(0, 3, 1)
    for d in (desc, made):
        assert d.params == (0, 3, 1) and list(map(type, d.params)) == [int] * 3
    assert declared_dim(desc) == declared_dim(made)
    assert cat.case(desc, QQ) == cat.case(made, QQ)
    assert canonical_form(desc) == canonical_form(made)
    assert cat.tau(desc) == cat.tau(made)


def test_a_descriptor_is_checked_every_way_it_is_made():
    # by position, by keyword, through _replace and _make, and through a
    # pickle round trip alike, as EnumerationBounds and LambdaModule are
    bad = {"family": cat.FAMILY_POSTPROJECTIVE, "params": (1, 7)}
    # what a tree that checked nothing on construction could pickle
    forged = tuple.__new__(IndecDescriptor, tuple(bad.values()))
    for make in (lambda: IndecDescriptor(*bad.values()),
                 lambda: IndecDescriptor(**bad),
                 lambda: cat.P(1, 1)._replace(params=(1, 7)),
                 lambda: IndecDescriptor._make(bad.values()),
                 lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(InvalidParams, match=r"^P\(1,7\): need n >= 0 and vertex j in 0\.\.4$"):
            make()
    # what is made comes back equal, kept as the constructor keeps it
    for desc in (cat.R(1, 1, INF), cat.R(2, Fraction(7, 3)), cat.I(3, 2)):
        back = pickle.loads(pickle.dumps(desc))
        assert type(back) is IndecDescriptor and back == desc and hash(back) == hash(desc)
        assert list(map(type, back.params)) == list(map(type, desc.params))
    assert pickle.loads(pickle.dumps(cat.R(1, 1, INF))).params[2] is INF
    assert cat.P(1, 1)._replace(params=(2, 1)) == cat.P(2, 1)


def test_warm_case_never_asks_canonical_form(monkeypatch):
    calls = []
    monkeypatch.setattr(cat, "canonical_form", lambda desc: calls.append(desc))
    for d in all_descriptors(4):
        cat.case(d, GF)
    assert calls == []


# -- tube substitution identities --------------------------------------------


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_even_zero_row_is_homogeneous_at_zero(l):
    # substituting lam := 0 into the homogeneous row gives R(0, 2l, 0) exactly
    e1, e2, e3, e4 = cat._r_even_blocks(GF, l, GF.zero)
    assert build(cat.R(0, 2 * l, 0), GF) == LambdaModule(e1, e2, e3, e4)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_even_one_row_isomorphic_to_homogeneous_at_one(l):
    # R(1, 2l, 1) and the lam := 1 substitution agree on all hom dimensions
    e1, e2, e3, e4 = cat._r_even_blocks(GF, l, GF.one)
    subst = LambdaModule(e1, e2, e3, e4)
    member = build(cat.R(1, 2 * l, 1), GF)
    assert dim_vector(subst) == dim_vector(member)
    targets = [build(d, GF) for d in enumerate_descriptors(
        EnumerationBounds(3, 3, (LAM2,)))]
    for x in targets:
        assert hom_oracle(subst, x) == hom_oracle(member, x)
        assert hom_oracle(x, subst) == hom_oracle(x, member)


# -- brick property ------------------------------------------------------------


def test_postprojectives_and_preinjectives_are_bricks():
    for n in range(4):
        for j in range(5):
            for fam in (cat.P, cat.I):
                x = build(fam(n, j), GF)
                assert hom_oracle(x, x) == 1, fam(n, j).label()


# -- parameter validation --------------------------------------------------------


def test_invalid_parameters_rejected():
    for bad in [
        lambda: cat.P(-1, 0),
        lambda: cat.P(0, 5),
        lambda: cat.I(2, -1),
        lambda: cat.R(0, LAM2),
        lambda: cat.R(1, GF.zero),
        lambda: cat.R(1, GF.one),
        lambda: cat.R(2, 1, 0),
        lambda: cat.R(0, 0, 1),
        lambda: cat.R(0, 1, 7),
        lambda: cat.R(1, INF),
        # a float or bool would compare equal to an int and name its module
        lambda: cat.P(2.0, 1),
        lambda: cat.P(2, 1.0),
        lambda: cat.P(True, 1),
        lambda: cat.I(1, 2.0),
        lambda: cat.I(False, 0),
        lambda: cat.R(1, 2.0),
        lambda: cat.R(1.0, LAM2),
        lambda: cat.R(True, LAM2),
        lambda: cat.R(0, 2.0, 0),
        lambda: cat.R(0.0, 2, 0),
        lambda: cat.R(True, 2, 0),
        lambda: cat.R(0, 2, 0.0),
        lambda: cat.P("2", 1),
    ]:
        with pytest.raises(InvalidParams):
            bad()


def test_homogeneous_lambda_reduction_checked_at_build():
    # 8 = 1 in GF(7), so the descriptor only turns invalid on build
    desc = IndecDescriptor(cat.FAMILY_REGULAR_HOMOGENEOUS, (1, 8))
    with pytest.raises(InvalidParams):
        build(desc, PrimeField(7))


@pytest.mark.parametrize("lam", [Fraction(1, 7), Fraction(3, 14), Fraction(-9, 49)], ids=str)
def test_a_lambda_over_the_characteristic_is_invalid_in_every_entry_point(lam):
    # 7 divides the denominator, so lam is no element of GF(7): build,
    # hom_vector and decompose raise one InvalidParams naming lam and the
    # field, as for a lam that reduces to 0 or 1, and not the field's
    # ZeroDivisionError; over QQ and GF(5) the same lam is a tube
    field = PrimeField(7)
    message = rf"lambda {lam} has a denominator divisible by .* GF\(7\)"
    bounds = EnumerationBounds(1, 1, (lam,))
    m = build(cat.P(1, 0), field)
    with pytest.raises(InvalidParams, match=message):
        build(cat.R(1, lam), field)
    with pytest.raises(InvalidParams, match=message):
        hom_vector(m, enumerate_descriptors(bounds))
    with pytest.raises(InvalidParams, match=message):
        decompose(m, bounds)
    for other in (QQ, PrimeField(5)):
        assert dim_vector(build(cat.R(1, lam), other)) == (2, 1, 1, 1, 1)


def test_lambda_zero_message_points_to_exceptional_row():
    with pytest.raises(InvalidParams, match=r"R\(s,2,0\)"):
        cat.R(1, 0)


def test_parse_names_the_typed_lambda():
    # 8 and -6 reduce to 1 in GF(7); the message names what was typed
    for text in ("8", "-6"):
        with pytest.raises(InvalidParams, match=rf"lambda {text} reduces to 1 in GF\(7\)"):
            parse_descriptor(f"R(1,{text})", PrimeField(7))
    with pytest.raises(InvalidParams, match=r"R\(s,2,1\)"):
        parse_descriptor("R(1,1)", PrimeField(7))
    assert parse_descriptor("R(2,9)", PrimeField(7)) == cat.R(2, 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=repr)
def test_parse_points_a_typed_inf_to_the_exceptional_rows(field):
    # inf is no field element: R(l,inf) gets R(l, INF)'s message, not the
    # field's complaint about its literal
    with pytest.raises(InvalidParams, match=r"^R\(l,inf\) is exceptional: use R\(s,m,inf\)"):
        parse_descriptor("R(1,inf)", field)


# -- enumeration ------------------------------------------------------------------


def test_enumerate_minimal_bounds():
    descs = enumerate_descriptors(EnumerationBounds(0, 0, ()))
    labels = [d.label() for d in descs]
    assert labels == [
        "P(0,0)", "P(0,1)", "P(0,2)", "P(0,3)", "P(0,4)",
        "I(0,0)", "I(0,1)", "I(0,2)", "I(0,3)", "I(0,4)",
    ]


def test_enumerate_counts_and_order():
    descs = enumerate_descriptors(EnumerationBounds(4, 4, (LAM2, GF.coerce(5))))
    assert len(descs) == len(set(descs)) == 106
    fams = [d.family for d in descs]
    # one contiguous block per region: P, regulars, I
    first_r = fams.index("RH")
    first_i = fams.index("I")
    assert all(f == "P" for f in fams[:first_r])
    assert all(f in ("RH", "RE") for f in fams[first_r:first_i])
    assert all(f == "I" for f in fams[first_i:])
    # postprojectives ascending, preinjectives descending
    p_params = [d.params[0] for d in descs if d.family == "P"]
    i_params = [d.params[0] for d in descs if d.family == "I"]
    assert p_params == sorted(p_params)
    assert i_params == sorted(i_params, reverse=True)


@pytest.mark.parametrize("max_n, max_l", [(-1, 0), (0, -1), (-1, -1)])
def test_negative_bounds_rejected(max_n, max_l):
    # by position, by keyword and through _replace alike
    for build in (lambda: EnumerationBounds(max_n, max_l, ()),
                  lambda: EnumerationBounds(max_l=max_l, max_n=max_n),
                  lambda: EnumerationBounds(1, 1)._replace(max_n=max_n, max_l=max_l)):
        with pytest.raises(InvalidParams, match="max_n >= 0 and max_l >= 0"):
            build()


@pytest.mark.parametrize("max_n, max_l", [(True, 1), (1, False), (2.5, 1), (1, 1.0), ("1", 1)])
def test_non_integer_bounds_rejected(max_n, max_l):
    # True would enumerate as max_n = 1, and 2.5 fail in range with a TypeError
    for build in (lambda: EnumerationBounds(max_n, max_l, ()),
                  lambda: EnumerationBounds(max_l=max_l, max_n=max_n),
                  lambda: EnumerationBounds(1, 1)._replace(max_n=max_n, max_l=max_l)):
        with pytest.raises(InvalidParams, match="bounds must be ints"):
            build()


def test_enumerate_skips_special_lambdas_and_duplicates():
    descs = enumerate_descriptors(
        EnumerationBounds(0, 1, (GF.zero, GF.one, LAM2, LAM2))
    )
    homogeneous = [d for d in descs if d.family == "RH"]
    assert [d.label() for d in homogeneous] == ["R(1,2)"]


# -- descriptor strings --------------------------------------------------------------


def test_parse_label_roundtrip():
    for text in ["P(1,0)", "P(2,1)", "I(0,0)", "R(1,2)", "R(2,7/3)", "R(0,3,inf)", "R(1,4,0)"]:
        desc = parse_descriptor(text, QQ)
        assert repr(desc) == str(desc) == desc.label() == text
        assert parse_descriptor(desc.label(), QQ) == desc


def test_parse_is_whitespace_insensitive():
    assert parse_descriptor(" R( 0 , 3 , inf )", QQ) == cat.R(0, 3, INF)


def test_parse_rejects_garbage():
    for text in ["", "P", "P(1)", "Q(1,1)", "R(1,2,3,4)", "P(x,0)", "R(1,1/0)"]:
        with pytest.raises(InvalidParams):
            parse_descriptor(text, QQ)


def test_inf_is_a_singleton_label():
    assert INF is type(INF)()
    assert repr(INF) == "inf"
    assert cat.R(0, 3, INF).params[2] is INF
