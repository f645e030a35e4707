"""Direct-summand multiplicities from hom-dimension vectors.

dim Hom(-, X) is additive in the first argument, so the multiplicities
mu_Y of M = (+) mu_Y * Y over a candidate list Y_1, ..., Y_r satisfy

    sum_Y mu_Y * [Y, X] = [M, X]   for every test target X.

Taking X over the same candidate list gives a square integer system with
Gram matrix G[Y][X] = [Y, X].  The candidate ordering (postprojectives
ascending, regulars by tube depth, preinjectives descending) makes G
block triangular with small unimodular diagonal blocks, so the system is
solved exactly over the rationals and the unique solution is accepted
only if it is a non-negative integer vector reproducing dim M.

Homogeneous tube parameters are never guessed: a summand R(l, lam) with
lam missing from bounds.lambdas surfaces as IncompleteCandidates, never
as a silently wrong answer (the preinjective targets I(0, v) pin the
total dimension vector, so no phantom solution can slip through).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from .catalog import build, declared_dim, enumerate_descriptors, tube_lambda
from .exactmat import QQ, ExactMatrix
from .homdim import hom_vector
from .modules import dim_vector


class IncompleteCandidates(ValueError):
    """The candidate set cannot explain the module's hom vector."""


class AmbiguousSolution(ValueError):
    """The Gram system is singular on the candidate set."""


def _gram_solver(field, bounds):
    # lambdas congruent in the field name one tube: coerce them so that
    # enumeration drops the duplicates and the cache sees one key
    lambdas = tuple(tube_lambda(field, lam) for lam in bounds.lambdas)
    return _gram(field, replace(bounds, lambdas=lambdas))


@lru_cache(maxsize=8)
def _gram(field, bounds):
    """(candidates, Gram rows, inverse of G^T over the rationals)."""
    cands = enumerate_descriptors(bounds)
    built = [build(d, field) for d in cands]
    rows = [hom_vector(m, cands) for m in built]
    # system reads mu^T G = h, i.e. G^T mu = h
    gt = ExactMatrix(QQ, list(zip(*rows)), shape=(len(cands), len(cands)))
    try:
        inv = gt.invert()
    except ZeroDivisionError:
        raise AmbiguousSolution(
            f"Gram system singular on {len(cands)} candidates; "
            "enlarge or reorder the bounds"
        ) from None
    return cands, rows, inv


def decompose(M, bounds):
    """Multiplicity dict {descriptor: mu} with M isomorphic to the sum.

    Raises IncompleteCandidates when the bounds miss a summand (wrong
    dimension cap or an unlisted homogeneous lam), AmbiguousSolution when
    the Gram system is singular.
    """
    cands, gram_rows, inv = _gram_solver(M.field, bounds)
    h = hom_vector(M, cands)
    hcol = ExactMatrix(QQ, [[v] for v in h], shape=(len(h), 1))
    mu = (inv @ hcol).entries_rowmajor()

    good = all(m.denominator == 1 and m >= 0 for m in mu)
    if good:
        total = [0] * 5
        for m, d in zip(mu, cands):
            dv = declared_dim(d)
            for v in range(5):
                total[v] += int(m) * dv[v]
        good = tuple(total) == dim_vector(M)
    if not good:
        integral = [int(m) if m.denominator == 1 and m >= 0 else 0 for m in mu]
        residual = [
            h[x] - sum(integral[y] * gram_rows[y][x] for y in range(len(cands)))
            for x in range(len(cands))
        ]
        raise IncompleteCandidates(
            "candidate set cannot explain the module within the given bounds "
            "(missing summand, typically an unlisted homogeneous lam); "
            f"residual hom vector {residual}"
        )
    return {d: int(m) for d, m in zip(cands, mu) if m > 0}


def is_isomorphic(M, N, bounds):
    """Krull-Schmidt isomorphism test: equal summand multisets."""
    if dim_vector(M) != dim_vector(N):
        return False
    return decompose(M, bounds) == decompose(N, bounds)
