"""Randomized formula-vs-oracle agreement sweep.

Draws random modules and checks hom_vector, the route the CLI's homdim and
decompose answer through, against hom_oracle on every in-bounds
descriptor.  This is the package's self-test: the structured
coefficient matrices were derived independently of the brute-force
system, so agreement on random inputs certifies both.

Trial modules alternate between two sources.  Even trials use modules
with uniformly random entries; odd trials use direct sums of in-bounds
catalog modules hidden behind a random base change (disguised_sum).  The
second source matters: a sign error in a tube case computes the hom
dimension of a *different* tube (lam replaced by -lam), which agrees with
the truth on entrywise-random modules with overwhelming probability and
only breaks on inputs actually containing that tube.  Structured trials
therefore always include one homogeneous summand when the bounds provide
lambdas.
"""

from __future__ import annotations

import functools
import json
import random
from collections import namedtuple

from .catalog import InvalidParams, R, build, declared_dim, enumerate_descriptors
from .exactmat import random_invertible
from .homdim import hom_vector
from .modules import (
    base_change,
    module_direct_sum,
    module_to_record,
    random_module,
    zero_module,
)
from .oracle import _nullity, _source, _target

# largest dimension at every vertex of a trial module
MAX_DIM = 6

# targets prepared per process, each holding its kernels and the
# templates of the pairings its sources asked for, four at most, one per
# written relation.  verify's default bounds hold 106 descriptors and
# (24, 12, {2, 5}) 418, whose kernels and four templates take 7.2 MB over
# GF(32003) and 6.7 MB over QQ in all.  Measured by tracemalloc on
# CPython 3.11 as the memory still held once cold calls return, gc run,
# their inputs made before tracing started
_TARGET_CACHE_SIZE = 1024


class Mismatch(namedtuple("Mismatch", "trial descriptor formula oracle module_dim module")):
    """A trial whose formula and oracle dimensions differ; module is the
    trial module, a LambdaModule, to replay the mismatch."""

    __slots__ = ()


def disguised_sum(field, descs, rng):
    """The direct sum of build(d, field) for d in descs, in order, behind a
    random base change U (L_1, ..., L_4) diag(V_1, ..., V_4).

    U is drawn from rng first, then V_1 .. V_4.  This is the equivalence
    the four-subspace problem is posed under (Gelfand & Ponomarev, 1970),
    so the result is isomorphic to the plain sum, but its letters are
    dense.  An empty descs gives the zero module.
    """
    m = zero_module(field)
    for desc in descs:
        m = module_direct_sum(m, build(desc, field))
    u = random_invertible(field, m.n0, rng)
    vs = [random_invertible(field, w.cols, rng) for w in m.mats()]
    return base_change(m, u, vs)


def structured_module(field, bounds, rng, cands):
    """Random direct sum of in-bounds catalog modules, base-changed.

    cands is enumerate_descriptors(bounds), which the caller holds:
    enumerating draws nothing from rng.  The tube's lam is drawn among
    the lambdas enumeration keeps: a lam of exactly 0 or 1 names no
    homogeneous tube, so enumeration skips it and so does the draw.
    """
    budget = [MAX_DIM] * 5
    picks = []
    lams = [lam for lam in bounds.lambdas if lam not in (0, 1)]

    def fits(desc):
        return all(x <= b for x, b in zip(declared_dim(desc), budget))

    def take(desc):
        picks.append(desc)
        for v, x in enumerate(declared_dim(desc)):
            budget[v] -= x

    if lams and bounds.max_l >= 1:
        lam = rng.choice(lams)
        depth = rng.randint(1, min(bounds.max_l, 2))
        tube = R(depth, lam)
        if fits(tube):
            take(tube)
    for _ in range(6):
        if len(picks) >= 3:
            break
        desc = rng.choice(cands)
        if fits(desc):
            take(desc)
    return disguised_sum(field, picks, rng)


@functools.lru_cache(maxsize=_TARGET_CACHE_SIZE)
def _catalog_target(desc, field):
    """oracle._target(build(desc, field)), prepared once per process:
    X's letter ranks, its four left kernels and its frame table.

    A target depends on (desc, field) alone, both hashable by value:
    descriptors are checked when they are made, so equal ones name one
    module over every field.  _nullity only reads its kernels, and frames
    them once per pairing a source asks for (one per relation a source
    writes), each frame's template kept in the target, so one serves
    every sweep that asks for it.  A raise (a target too large to build)
    is not kept.
    """
    return _target(build(desc, field))


def oracle_vector(M, descs):
    """hom_oracle(M, build(d, M.field)) for d in descs, lazily, in order.

    Each side of a pair is prepared once, into the three-subspace frame
    of three of its relations, all but the one where M's letter has the
    smallest image: M's here (oracle._source), which picks it, and each
    target once per process (_catalog_target), framed by _nullity the
    first time a source asks for that pairing.  Each value is then one
    _nullity, which writes that fourth relation alone.  The values
    before a target too large to build come out before its MemoryError.
    """
    field, source = M.field, _source(M)
    return (_nullity(field, source, _catalog_target(d, field)) for d in descs)


def run_sweep(field, bounds, trials, seed, report=None):
    """List of Mismatch records (empty = all agree) over `trials` modules.

    Each record's oracle value is hom_oracle's, through oracle_vector, so
    no target is built before the first trial.

    A trial count that is not an int, or is negative, raises InvalidParams:
    True would run one trial, and a negative count would check nothing and
    still read as "all agree".
    """
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise InvalidParams(f"trials must be an int, got {trials!r}")
    if trials < 0:
        raise InvalidParams(f"trials must be >= 0, got {trials}")
    rng = random.Random(seed)
    descs = enumerate_descriptors(bounds)
    out = []
    for trial in range(trials):
        if trial % 2:
            M = structured_module(field, bounds, rng, descs)
        else:
            M = random_module(field, rng, max_dim=MAX_DIM)
        for d, a, b in zip(descs, hom_vector(M, descs), oracle_vector(M, descs)):
            if a != b:
                miss = Mismatch(trial, d.label(), a, b, M.dim_vector(), M)
                out.append(miss)
                if report is not None:
                    record = json.dumps(module_to_record(miss.module), separators=(",", ":"))
                    report(
                        f"mismatch trial={miss.trial} desc={miss.descriptor} "
                        f"formula={miss.formula} oracle={miss.oracle} "
                        f"dim={list(miss.module_dim)} module={record}"
                    )
    return out
