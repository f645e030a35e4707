import hashlib
import json
import random

import pytest

from fourspace import catalog as cat
from fourspace import verify
from fourspace.catalog import EnumerationBounds, InvalidParams, declared_dim, enumerate_descriptors
from fourspace.exactmat import QQ, ExactMatrix, PrimeField
from fourspace.modules import (
    LambdaModule,
    dim_vector,
    module_direct_sum,
    module_to_record,
    zero_module,
)
from fourspace.oracle import _framed, _source, _target, hom_oracle
from fourspace.verify import disguised_sum, run_sweep, structured_module

BOUNDS = EnumerationBounds(1, 1, ())
FIELDS = {"QQ": QQ, "GF2": PrimeField(2), "GF3": PrimeField(3), "GF32003": PrimeField(32003)}


def test_run_sweep_rejects_negative_trials():
    # a negative count would check nothing and return [], "all agree"
    with pytest.raises(InvalidParams, match="trials must be >= 0"):
        run_sweep(PrimeField(7), BOUNDS, -3, 0)
    assert run_sweep(PrimeField(7), BOUNDS, 0, 0) == []


@pytest.mark.parametrize("trials", [True, 2.5, "2", None])
def test_run_sweep_rejects_a_trial_count_that_is_not_an_int(trials):
    # True would run one trial and read "all agree"; 2.5 would reach range()
    with pytest.raises(InvalidParams, match="trials must be an int"):
        run_sweep(PrimeField(7), BOUNDS, trials, 0)


def test_a_float_lambda_is_rejected_cold_and_warm():
    # R(1, 2.0) must not name R(1, 2): a warm target cache would hand back
    # R(1, 2)'s target, where a cold one fails in build
    verify._catalog_target.cache_clear()
    floats = EnumerationBounds(1, 1, (2.0,))
    with pytest.raises(InvalidParams) as cold:
        run_sweep(QQ, floats, 1, 0)
    assert run_sweep(QQ, EnumerationBounds(1, 1, (2,)), 1, 0) == []
    with pytest.raises(InvalidParams) as warm:
        run_sweep(QQ, floats, 1, 0)
    assert str(cold.value) == str(warm.value) == "R(1, 2.0): lam must be exact, not a float"


# bounds with a lambda that names no homogeneous tube: exactly 0 or 1,
# which enumeration skips, 8, which is 1 in GF(7), and a float; a sweep's
# structured trials draw their tube's lam, so every seed must read alike,
# each running (None) or each raising the one error the bounds raise
SEEDED = {
    "QQ 1 3": (QQ, (1, 3), None),
    "QQ 0 1": (QQ, (0, 1), None),
    "GF7 8 3": (PrimeField(7), (8, 3), "lambda 8 reduces to 1 in GF(7); no homogeneous tube"),
    "QQ 2.0": (QQ, (2.0,), "R(1, 2.0): lam must be exact, not a float"),
}


@pytest.mark.parametrize("field, lambdas, error", SEEDED.values(), ids=SEEDED)
def test_a_sweep_reads_alike_at_every_seed(field, lambdas, error):
    outcomes = []
    for seed in range(6):
        try:
            outcomes.append(run_sweep(field, EnumerationBounds(2, 2, lambdas), 4, seed))
        except InvalidParams as exc:
            outcomes.append(str(exc))
    assert outcomes == [[] if error is None else error] * 6


def _lambdas(field):
    return tuple(x for x in map(field.coerce, (2, 5)) if x not in (field.zero, field.one))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_disguised_sum_is_isomorphic_to_the_plain_sum(field):
    descs = [cat.P(1, 0), cat.I(1, 2), cat.R(0, 3, 1)] + [cat.R(1, lam) for lam in _lambdas(field)[:1]]
    summands = [cat.P(2, 1), cat.R(0, 2, 1), cat.I(1, 3)] + [cat.R(2, lam) for lam in _lambdas(field)]
    plain = zero_module(field)
    for d in summands:
        plain = module_direct_sum(plain, cat.build(d, field))
    m = disguised_sum(field, summands, random.Random(1))
    assert dim_vector(m) == tuple(map(sum, zip(*(declared_dim(d) for d in summands))))
    assert m != plain
    for d in descs:
        x = cat.build(d, field)
        assert hom_oracle(m, x) == hom_oracle(plain, x), d.label()


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_disguised_sum_of_nothing_and_of_an_empty_vertex(field):
    assert disguised_sum(field, [], random.Random(0)) == zero_module(field)
    # vertex 4 stays empty
    m = disguised_sum(field, [cat.P(0, 0), cat.P(0, 1), cat.I(0, 2)], random.Random(0))
    assert dim_vector(m) == (2, 1, 1, 0, 0)
    assert [hom_oracle(m, cat.build(d, field)) for d in (cat.P(0, 0), cat.I(0, 2))] == [1, 1]


# sha256 prefixes of six structured_module draws from random.Random(5) at
# bounds (3, 3, _lambdas(field)), as the inline sum and base change wrote
# them before disguised_sum: the draw order, U and then V_1..V_4, is pinned
STRUCTURED = {
    "QQ": "4c6e9b9ad43217f7",
    "GF2": "761d9fadb52648fe",
    "GF3": "8f8999918838e900",
    "GF32003": "aa72d1a899a31490",
}


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_module_draws_are_unchanged(name):
    field = FIELDS[name]
    bounds = EnumerationBounds(3, 3, _lambdas(field))
    rng = random.Random(5)
    h = hashlib.sha256()
    for _ in range(6):
        m = structured_module(field, bounds, rng, enumerate_descriptors(bounds))
        h.update(json.dumps(module_to_record(m)).encode())
    assert h.hexdigest()[:16] == STRUCTURED[name]


@pytest.mark.parametrize("name", ["QQ", "GF32003"])
def test_sweep_oracle_column_is_the_public_oracle(name, monkeypatch):
    # run_sweep prepares each side of the oracle once; with every formula
    # answer off by one, each pair is a Mismatch, and its oracle value must
    # be hom_oracle's on the recorded module.  Trial 0 is a random module,
    # trial 1 a disguised sum
    field = FIELDS[name]
    hom_vector = verify.hom_vector
    monkeypatch.setattr(verify, "hom_vector",
                        lambda M, descs: [x + 1 for x in hom_vector(M, descs)])
    bounds = EnumerationBounds(2, 2, _lambdas(field))
    descs = cat.enumerate_descriptors(bounds)
    misses = run_sweep(field, bounds, 2, 3)
    assert len(misses) == 2 * len(descs)
    for miss, d in zip(misses, descs * 2):
        assert miss.descriptor == d.label()
        assert miss.formula == miss.oracle + 1
        assert miss.oracle == hom_oracle(miss.module, cat.build(d, field))
    assert [misses[0].trial, misses[-1].trial] == [0, 1]


def _counted_preparations(monkeypatch):
    """Empty the sweep's target cache; (targets, pairings): the modules
    whose targets oracle._target prepares from now on, and the pairing
    of each source oracle._source prepares."""
    verify._catalog_target.cache_clear()
    targets, pairings = [], []
    target, source = verify._target, verify._source

    def counted_target(X):
        targets.append(X)
        return target(X)

    def counted_source(M):
        out = source(M)
        pairings.append(out[0])
        return out

    monkeypatch.setattr(verify, "_target", counted_target)
    monkeypatch.setattr(verify, "_source", counted_source)
    return targets, pairings


def _cached_frames(descs, field):
    # each cached target's frame table, copied: pairing -> frame object
    return [dict(verify._catalog_target(d, field)[3]) for d in descs]


def test_run_sweep_prepares_each_target_once_per_process(monkeypatch):
    # every formula answer off by one, so both lists hold every oracle
    # value.  Each target is prepared once, and framed once per pairing
    # its sources ask for: the trial modules here write two different
    # letters.  The second sweep frames nothing: every target
    # holds the same frame objects
    field = FIELDS["GF32003"]
    hom_vector = verify.hom_vector
    monkeypatch.setattr(verify, "hom_vector",
                        lambda M, descs: [x + 1 for x in hom_vector(M, descs)])
    bounds = EnumerationBounds(2, 2, _lambdas(field))
    descs = cat.enumerate_descriptors(bounds)
    targets, pairings = _counted_preparations(monkeypatch)
    first = run_sweep(field, bounds, 4, 3)
    frames, asked = _cached_frames(descs, field), set(pairings)
    second = run_sweep(field, bounds, 4, 3)
    assert len(asked) >= 2 and set(pairings) == asked
    assert len(targets) == len(descs)
    assert all(set(kept) == asked for kept in frames)
    for kept, now in zip(frames, _cached_frames(descs, field)):
        assert now.keys() == kept.keys()
        assert all(now[p] is kept[p] for p in kept)
    assert len(first) == 4 * len(descs) and first == second


def test_each_field_prepares_its_own_targets(monkeypatch):
    # the descriptors of one bounds are equal over every field, R(1,2)
    # among them: the field is part of the key, and each field's targets
    # are framed at the pairings of its own sources alone
    bounds = EnumerationBounds(2, 2, (2, 5))
    descs = cat.enumerate_descriptors(bounds)
    fields = (PrimeField(7), PrimeField(11), QQ)
    targets, pairings = _counted_preparations(monkeypatch)
    for k, field in enumerate(fields, start=1):
        sources = len(pairings)
        assert run_sweep(field, bounds, 2, k) == []
        assert len(targets) == k * len(descs)
        assert {x.field for x in targets[-len(descs):]} == {field}
        asked = set(pairings[sources:])
        assert all(set(kept) == asked for kept in _cached_frames(descs, field))
    # a hit hands back what a fresh preparation gives, at every pairing
    for field in fields:
        for d in descs:
            cached, fresh = verify._catalog_target(d, field), _target(cat.build(d, field))
            assert cached[:3] == fresh[:3], d.label()
            for pairing in set(pairings):
                assert _framed(field, cached, pairing) == _framed(field, fresh, pairing), d.label()
    assert len(targets) == len(fields) * len(descs)


def test_defaults_fit_the_target_caches_at_every_pairing():
    # `fourspace verify`'s default bounds: each target keeps its frames
    # at every pairing, so the cache needs one entry per descriptor
    descs = cat.enumerate_descriptors(EnumerationBounds(4, 4, (2, 5)))
    assert len(descs) <= verify._TARGET_CACHE_SIZE


def test_the_frame_cache_holds_all_four_pairings_of_its_targets():
    # four sources, each with its one 1-column letter, the smallest image,
    # in another slot, so each writes another relation, against the 242
    # targets of (12, 8, {2, 5}): 242 targets of four frames each.  The
    # second pass misses no target and frames nothing: every target holds
    # the same four frame objects
    field = FIELDS["GF32003"]
    descs = cat.enumerate_descriptors(EnumerationBounds(12, 8, (2, 5)))
    assert len(descs) == 242
    wide, narrow = ExactMatrix(field, [[1, 0], [0, 1], [0, 0]]), ExactMatrix(field, [[1], [1], [1]])
    modules = [LambdaModule(*(narrow if t == s else wide for t in range(4))) for s in range(4)]
    pairings = [_source(m)[0] for m in modules]
    assert [pairing[3] for pairing in pairings] == [0, 1, 2, 3]
    verify._catalog_target.cache_clear()
    first = [list(verify.oracle_vector(m, descs)) for m in modules]
    misses = verify._catalog_target.cache_info().misses
    assert misses == len(descs)
    frames = _cached_frames(descs, field)
    assert all(set(kept) == set(pairings) for kept in frames)
    assert [list(verify.oracle_vector(m, descs)) for m in modules] == first
    assert verify._catalog_target.cache_info().misses == misses
    for kept, now in zip(frames, _cached_frames(descs, field)):
        assert now.keys() == kept.keys()
        assert all(now[p] is kept[p] for p in kept)


# sha256 prefixes of the trial modules of run_sweep(field, (3, 3, lambdas),
# 6 trials, seed 7), as the sweep drew them when structured_module
# enumerated its bounds on every call: passing the sweep's descriptor list
# in draws the same modules
TRIALS = {"GF32003": "a06a864575461b9c", "QQ": "634718ca42123c57", "GF3": "1fcb88580ba100d8"}


@pytest.mark.parametrize("name", TRIALS)
def test_run_sweep_trial_modules_are_unchanged(name, monkeypatch):
    field = FIELDS[name]
    modules, enumerated = [], []
    hom_vector, enumerate_descriptors = verify.hom_vector, verify.enumerate_descriptors

    def spy(M, descs):
        modules.append(M)
        return hom_vector(M, descs)

    def counted(bounds):
        enumerated.append(bounds)
        return enumerate_descriptors(bounds)

    monkeypatch.setattr(verify, "hom_vector", spy)
    monkeypatch.setattr(verify, "enumerate_descriptors", counted)
    lambdas = (2, 5) if name != "GF3" else (2,)
    assert run_sweep(field, EnumerationBounds(3, 3, lambdas), 6, 7) == []
    assert len(enumerated) == 1
    h = hashlib.sha256()
    for m in modules:
        h.update(json.dumps(module_to_record(m)).encode())
    assert len(modules) == 6 and h.hexdigest()[:16] == TRIALS[name]
