"""Direct-summand multiplicities by Auslander's defect formula.

For a catalog module C with AR sequence 0 -> tau C -> E -> C -> 0, the
multiplicity of C as a summand of any module M is

    mu_C(M) = [M, C] - [M, E] + [M, tau C],     [M, X] = dim Hom(M, X),

or [M, C] - [M, rad C] for a projective C (End(C)/rad = k, as every
catalog lam is a point of the field).  In the catalog's indexing, with
R(0, lam) = R(s, 0, lam) = 0, m >= 1 and j in 1..4:

    C             tau C           E
    P(0, 0)       projective      rad = 0
    P(0, j)       projective      rad = P(0, 0)
    P(m, 0)       P(m-1, 0)       P(m-1, 1) + ... + P(m-1, 4)
    P(m, j)       P(m-1, j)       P(m, 0)
    I(m, 0)       I(m+1, 0)       I(m+1, 1) + ... + I(m+1, 4)
    I(m, j)       I(m+1, j)       I(m, 0)
    R(l, lam)     R(l, lam)       R(l+1, lam) + R(l-1, lam)
    R(s, m, lam)  R(1-s, m, lam)  R(1-s, m+1, lam) + R(s, m-1, lam)

The tau C column is catalog.tau, which owns the translate (and
dim tau C = catalog.coxeter(dim C)); _defect writes only E, and reads
tau there too: E = tau X(m, 1) + ... + tau X(m, 4) for X(m, 0), X = P
or I, and E = tau X(m+1) + X(m-1) for a row X(m) of a tube.

The terms reach one step past the bounds: I(max_n+1, .), R(max_l+1, lam)
and R(., 2*max_l+1, lam).  decompose asks hom_vector for all of them in
one call.  mu_C(M) counts C whatever else M holds, so
sum_C mu_C * dim C = dim M over the candidates holds exactly when no
summand lies outside them (an unlisted lam, a point of degree > 1, a
module past the bounds).  The residual h - sum_Y mu_Y * [Y, .] on the
candidates, with [Y, X] in closed form, is zero whenever hom_vector is
right: a second certificate, and the text of IncompleteCandidates.

All of that but the hom_vector call depends on (field, bounds) alone, so
_plan prepares it once per process, in a bounded cache: the candidates,
the target list, each candidate's signed target indices and dimension
vector.  The residual's closed-form rows [Y, .] are filled lazily, the
first time Y is picked, with their nonzero entries alone (_row).

With e = <dim Y, dim X> = [Y, X] - dim Ext^1(Y, X) (modules.euler_form):
max(e, 0) inside the directing P and I components; e for P -> R, P -> I
and R -> I, where Ext^1(Y, X) = D Hom(X, tau Y) = 0; 0 backwards and
between tubes; min(l, l') inside a homogeneous tube; and
#{k in 1..min(m, n) : s + m - k = t mod 2} for R(s, m) -> R(t, n) in a
rank-2 exceptional tube.

References: Auslander, "Representation theory of finite dimensional
algebras", Contemp. Math. 13 (1982), for the defect formula; Ringel,
"Tame algebras and integral quadratic forms", LNM 1099 (1984), for the
AR quiver of D~4 and its tubes.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .catalog import (
    FAMILY_POSTPROJECTIVE,
    FAMILY_PREINJECTIVE,
    FAMILY_REGULAR_EXCEPTIONAL,
    FAMILY_REGULAR_HOMOGENEOUS,
    I,
    P,
    R,
    declared_dim,
    enumerate_descriptors,
    tau,
    tube_lambda,
)
from .exactmat import FieldMismatch
from .homdim import hom_vector
from .modules import dim_vector, euler_form


# plans kept per process, one per (field, bounds).  A plan holds 46 kB at
# (3, 3, {2, 5}) and 0.23 MB at (24, 12, {2, 5}) before any row is
# filled, 0.23 and 6.8 MB with every row, over GF(32003) and QQ alike:
# eight stay under 60 MB at the worst.  Measured by tracemalloc on
# CPython 3.11 as the memory still held once a cold call returns, gc run,
# its inputs made before tracing started
_PLAN_CACHE_SIZE = 8


class IncompleteCandidates(ValueError):
    """The candidate set cannot explain the module's hom vector."""


class AmbiguousSolution(ValueError):
    """Kept as a public name; decompose no longer raises it."""


# postprojectives map only forward to regulars and preinjectives, and
# regulars only forward to preinjectives
_COMPONENT = {
    FAMILY_POSTPROJECTIVE: 0,
    FAMILY_REGULAR_HOMOGENEOUS: 1,
    FAMILY_REGULAR_EXCEPTIONAL: 1,
    FAMILY_PREINJECTIVE: 2,
}


def _hom(y, x, dims=None):
    """dim Hom(y, x) for catalog descriptors, in closed form; dims is
    (dim y, dim x) when the caller has them (_row passes the plan's)."""
    cy, cx = _COMPONENT[y.family], _COMPONENT[x.family]
    if cy > cx:
        return 0
    dy, dx = dims or (declared_dim(y), declared_dim(x))
    if cy < cx:
        return euler_form(dy, dx)
    if cy != 1:
        return max(euler_form(dy, dx), 0)
    if y.family != x.family or y.params[-1] != x.params[-1]:
        return 0  # different tubes
    if y.family == FAMILY_REGULAR_HOMOGENEOUS:
        return min(y.params[0], x.params[0])
    s, m, _ = y.params
    t, n, _ = x.params
    return sum((s + m - k - t) % 2 == 0 for k in range(1, min(m, n) + 1))


def _defect(c):
    """[(sign, D), ...] with mu_C(M) = sum sign * [M, D]: the AR table above."""
    fam, params = c.family, c.params
    t = tau(c)
    if t is None:
        return [(1, c), (-1, P(0, 0))] if params[1] else [(1, c)]
    if fam == FAMILY_POSTPROJECTIVE or fam == FAMILY_PREINJECTIVE:
        member = P if fam == FAMILY_POSTPROJECTIVE else I
        m, j = params
        middle = [member(m, 0)] if j else [tau(member(m, k)) for k in range(1, 5)]
    else:  # a tube row X(m): E = tau X(m + 1) + X(m - 1)
        *s, m, lam = params
        middle = [tau(R(*s, m + 1, lam))] + ([R(*s, m - 1, lam)] if m > 1 else [])
    return [(1, c), (1, t)] + [(-1, e) for e in middle]


class _Plan(NamedTuple):
    """What decompose reads of (field, bounds), M aside; see _plan."""

    cands: list  # the in-bounds candidates, in enumeration order
    targets: list  # cands, then the AR terms past the bounds
    defects: list  # per candidate: [(sign, target index), ...]
    dims: list  # per candidate: declared_dim
    rows: dict  # y -> [(x, [Y, X]), ...] where nonzero, filled by _row


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(field, bounds):
    """The _Plan of bounds, whose lambdas are already coerced into field,
    prepared once per process.

    Candidate i is target i, the terms past the bounds follow, and each
    defect is a list of target indices: descriptors are hashed here alone.
    No closed-form row is filled yet (see _row).  The key is by value: a
    field and bounds holding a tuple of field scalars, so equal bounds
    enumerate equal descriptors, which name one module (descriptors are
    checked when they are made).
    """
    cands = enumerate_descriptors(bounds)
    index = {c: i for i, c in enumerate(cands)}
    defects = [[(sign, index.setdefault(d, len(index))) for sign, d in _defect(c)]
               for c in cands]
    return _Plan(cands, list(index), defects, [declared_dim(c) for c in cands], {})


def _row(plan, y):
    """[Y, X] for Y = plan.cands[y] over the candidates X, in closed form,
    as (x, [Y, X]) for each nonzero entry: computed the first time Y is
    picked, then kept in the plan.  A full table would cost |cands|^2
    _hom calls up front (418^2 at (24, 12, {2, 5})), where decompose
    reads a few rows."""
    row = plan.rows.get(y)
    if row is None:
        cy, dy = plan.cands[y], plan.dims[y]
        row = plan.rows[y] = [(x, v) for x, (c, dx) in enumerate(zip(plan.cands, plan.dims))
                              if (v := _hom(cy, c, (dy, dx)))]
    return row


def decompose(M, bounds):
    """Multiplicity dict {descriptor: mu} with M isomorphic to the sum,
    in candidate order.

    Everything but the one hom_vector call depends on (M.field, bounds)
    alone and is read from _plan: the candidates, the target list, the
    defect indices, the dimension vectors and, row by row as summands are
    picked, the closed-form [Y, X] of the residual.  Repeated calls with
    one field and bounds (is_isomorphic makes two) prepare them once.

    Raises IncompleteCandidates when the bounds miss a summand (wrong
    dimension cap or an unlisted homogeneous lam).
    """
    # lambdas congruent in the field name one tube: coerced, enumeration
    # drops the duplicates.  tube_lambda runs on every call, so a lambda
    # it rejects raises each time, and the plan's key holds field scalars
    # alone (2.0 == 2, but only 2 is a lambda)
    lambdas = tuple(tube_lambda(M.field, lam) for lam in bounds.lambdas)
    plan = _plan(M.field, bounds._replace(lambdas=lambdas))
    h = hom_vector(M, plan.targets)
    mu = [sum(sign * h[t] for sign, t in terms) for terms in plan.defects]
    picked = [(y, m) for y, m in enumerate(mu) if m > 0]
    residual = h[: len(plan.cands)]
    for y, m in picked:
        for x, v in _row(plan, y):
            residual[x] -= m * v
    total = tuple(sum(m * plan.dims[y][v] for y, m in picked) for v in range(5))
    if min(mu, default=0) < 0 or any(residual) or total != dim_vector(M):
        raise IncompleteCandidates(
            "candidate set cannot explain the module within the given bounds "
            "(missing summand, typically an unlisted homogeneous lam); "
            f"residual hom vector {residual}"
        )
    return {plan.cands[y]: m for y, m in picked}


def is_isomorphic(M, N, bounds):
    """Krull-Schmidt isomorphism test: equal summand multisets."""
    if M.field != N.field:
        raise FieldMismatch(f"isomorphism test over {M.field} vs {N.field}")
    if dim_vector(M) != dim_vector(N):
        return False
    return decompose(M, bounds) == decompose(N, bounds)
