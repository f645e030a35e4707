"""Direct-summand multiplicities from hom-dimension vectors.

dim Hom(-, X) is additive in the first argument, so the multiplicities
mu_Y of M = (+) mu_Y * Y over a candidate list Y_1, ..., Y_r satisfy

    sum_Y mu_Y * [Y, X] = [M, X]   for every test target X.

Taking X over the same candidate list gives a square integer system with
Gram matrix G[Y][X] = [Y, X] = dim Hom(Y, X).  Between two catalog
indecomposables that number is a closed form in their descriptors, so no
candidate is built.  With e = <dim Y, dim X> (modules.euler_form), which
is dim Hom(Y, X) - dim Ext^1(Y, X):

    P -> P, I -> I            max(e, 0): the components are directing, so
                              Hom and Ext^1 are never both nonzero
    P -> R, P -> I, R -> I    e: Ext^1(Y, X) = D Hom(X, tau Y) = 0
    R -> P, I -> P, I -> R    0
    R -> R, different tubes   0
    R(l, lam) -> R(l', lam)   min(l, l')
    R(s, m, lam) -> R(t, n, lam), rank-2 exceptional tube:
                              #{k in 1..min(m, n) : s + m - k = t mod 2}

References: Ringel, "Tame algebras and integral quadratic forms", LNM
1099 (1984), for tubes and directing components; Gelfand & Ponomarev,
"Problems of linear algebra and classification of quadruples of
subspaces" (1970), for the catalog; Auslander, Reiten & Smalo,
"Representation Theory of Artin Algebras" (1995), for the Ext formula on
a hereditary algebra.

The candidate ordering (postprojectives ascending, regulars by tube depth,
preinjectives descending) makes G block triangular with unimodular
diagonal blocks, so G^T has an integer inverse.  It is computed once per
(field, bounds) and kept as Python ints; each decompose is one hom_vector
call and one integer product mu = inv h.  The answer is accepted only if
mu is non-negative, reproduces h exactly and sums to dim M.

Homogeneous tube parameters are never guessed: a summand R(l, lam) with
lam missing from bounds.lambdas surfaces as IncompleteCandidates, never
as a silently wrong answer (the preinjective targets I(0, v) pin the
total dimension vector, so no phantom solution can slip through).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from .catalog import (
    FAMILY_POSTPROJECTIVE,
    FAMILY_PREINJECTIVE,
    FAMILY_REGULAR_EXCEPTIONAL,
    FAMILY_REGULAR_HOMOGENEOUS,
    declared_dim,
    enumerate_descriptors,
    tube_lambda,
)
from .exactmat import QQ, ExactMatrix, FieldMismatch
from .homdim import hom_vector
from .modules import dim_vector, euler_form


class IncompleteCandidates(ValueError):
    """The candidate set cannot explain the module's hom vector."""


class AmbiguousSolution(ValueError):
    """The Gram system is singular on the candidate set."""


# postprojectives map only forward to regulars and preinjectives, and
# regulars only forward to preinjectives
_COMPONENT = {
    FAMILY_POSTPROJECTIVE: 0,
    FAMILY_REGULAR_HOMOGENEOUS: 1,
    FAMILY_REGULAR_EXCEPTIONAL: 1,
    FAMILY_PREINJECTIVE: 2,
}


def _hom(y, x):
    """dim Hom(y, x) for catalog descriptors, in closed form."""
    cy, cx = _COMPONENT[y.family], _COMPONENT[x.family]
    if cy > cx:
        return 0
    if cy < cx:
        return euler_form(declared_dim(y), declared_dim(x))
    if cy != 1:
        return max(euler_form(declared_dim(y), declared_dim(x)), 0)
    if y.family != x.family or y.params[-1] != x.params[-1]:
        return 0  # different tubes
    if y.family == FAMILY_REGULAR_HOMOGENEOUS:
        return min(y.params[0], x.params[0])
    s, m, _ = y.params
    t, n, _ = x.params
    return sum((s + m - k - t) % 2 == 0 for k in range(1, min(m, n) + 1))


def _gram_solver(field, bounds):
    # lambdas congruent in the field name one tube: coerce them so that
    # enumeration drops the duplicates and the cache sees one key
    lambdas = tuple(tube_lambda(field, lam) for lam in bounds.lambdas)
    return _gram(field, replace(bounds, lambdas=lambdas))


@lru_cache(maxsize=8)
def _gram(field, bounds):
    """(candidates, Gram rows, inverse of G^T as rows of Python ints).

    field enters only the cache key: the candidates carry its canonical
    lambdas, and the closed form is the same over every field.
    """
    cands = enumerate_descriptors(bounds)
    rows = [[_hom(y, x) for x in cands] for y in cands]
    # system reads mu^T G = h, i.e. G^T mu = h
    gt = ExactMatrix(QQ, list(zip(*rows)), shape=(len(cands), len(cands)))
    try:
        inv = gt.invert()
    except ZeroDivisionError:
        raise AmbiguousSolution(
            f"Gram system singular on {len(cands)} candidates; "
            "enlarge or reorder the bounds"
        ) from None
    return cands, rows, [[int(v) for v in r] for r in inv.data.tolist()]


def decompose(M, bounds):
    """Multiplicity dict {descriptor: mu} with M isomorphic to the sum.

    Raises IncompleteCandidates when the bounds miss a summand (wrong
    dimension cap or an unlisted homogeneous lam), AmbiguousSolution when
    the Gram system is singular.
    """
    cands, gram_rows, inv = _gram_solver(M.field, bounds)
    h = hom_vector(M, cands)
    mu = [sum(a * b for a, b in zip(r, h) if a) for r in inv]
    picked = {y: m for y, m in enumerate(mu) if m > 0}
    residual = [
        h[x] - sum(m * gram_rows[y][x] for y, m in picked.items())
        for x in range(len(cands))
    ]
    total = tuple(
        sum(m * declared_dim(cands[y])[v] for y, m in picked.items()) for v in range(5)
    )
    if min(mu, default=0) < 0 or any(residual) or total != dim_vector(M):
        raise IncompleteCandidates(
            "candidate set cannot explain the module within the given bounds "
            "(missing summand, typically an unlisted homogeneous lam); "
            f"residual hom vector {residual}"
        )
    return {cands[y]: m for y, m in picked.items()}


def is_isomorphic(M, N, bounds):
    """Krull-Schmidt isomorphism test: equal summand multisets."""
    if M.field != N.field:
        raise FieldMismatch(f"isomorphism test over {M.field} vs {N.field}")
    if dim_vector(M) != dim_vector(N):
        return False
    return decompose(M, bounds) == decompose(N, bounds)
