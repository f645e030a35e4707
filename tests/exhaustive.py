"""Every module of small dimension over the smallest fields, read three ways
and counted.

A module whose letters are injective is a quadruple of subspaces of
k^{n_0}: letter t is a basis of U_t = im L_t, in columns.  Base change
on V_1..V_4 leaves each U_t alone, and base change on V_0 moves the
quadruple by an element of GL(n_0, k), so over GF(q) the isomorphism
classes of such modules are the orbits of GL(n_0, q) on quadruples of
subspaces: finitely many, and few at small n_0.  The order of the
letters is not quotiented, so every sigma of the catalog's patterns is
met.  A letter with a kernel adds a summand I(0, t), which every 4th
orbit at the top n_0 covers with a zero column appended to one letter.

The subspaces are enumerated as reduced echelon bases, with the naive
reference_rref of reference.py, which cross-checks the package's
eliminator in the tests: no elimination of the package is used to name
a subspace.  GL(d, q) is generated by a primitive scalar on the
first coordinate, the transvection e_0 += e_1 and the cyclic shift (the
shift conjugates the transvection to every e_i += e_{i+1}, whose
commutators give every elementary transvection, so they generate
SL(d, q), and the scalar reaches every determinant).  The orbits are
found by a depth-first walk from each unseen quadruple over a bytearray
indexed by the quadruple, each orbit named by its least member.

Each module is read three ways (check):
- hom_vector against verify.oracle_vector on every descriptor;
- decompose succeeds, with sum mu * dim = dim M;
- dim End(M), hom_oracle(M, M) through a fresh target, against
  sum mu_Y mu_X [Y, X] in closed form (decomp._hom).

The orbits are counted a fourth way, with no elimination at all.  By
Krull-Schmidt, the modules with injective letters are the multisets of
indecomposables other than I(0, j), j >= 1, the only ones with a letter
kernel.  So the orbit count at each dimension vector is the coefficient
of prod_X (1 - x^{dim X})^{-1} over those catalog modules, with the q - 2
homogeneous tubes at the points of GF(q) other than 0 and 1
(catalog_counts, read from declared_dim and enumerate_descriptors).

The catalog holds the homogeneous tubes R(l, lam) with lam in the field
only, so over GF(q) the (q^2 - q) / 2 tubes at the points of degree 2 have
no descriptor (over GF(2) one, at x^2 + x + 1), and their first modules
R(1, f), of dimension (4, 2, 2, 2, 2) and dim End 2, have no
decomposition into catalog summands.  The count misses exactly those
orbits, and no other difference is expected.  With equal counts, a
fifth reading makes decompose a bijection: no two modules read
decompose to one multiset of summands, so decompose tells the orbits
apart and, the counts being equal, reaches every catalog multiset at
those sizes.  decompose already runs on every module, so this costs no
elimination.  A module on which
decompose raises IncompleteCandidates is counted as incomplete, not as a
failure, when it is one of those: dimension (4, 2, 2, 2, 2),
hom_oracle(M, M) = 2, and formula equal to oracle on every descriptor.  Any other raise is a failure, and so is any other
difference between the orbit counts and the catalog's product.

tests/test_exhaustive.py runs n_0 <= 2 over GF(2), GF(3) and GF(5).  As a
script it takes n_0 and the primes:

    python tests/exhaustive.py 4 2
    python tests/exhaustive.py 3 3

prints, for each field, the orbit count at each n_0 up to the one given,
the catalog's count, the descriptor count, and the failures and
incomplete modules, each named, and exits 1 on any failure.  The
descriptors are taken at (n_0 + 3, n_0 + 3) with every non-exceptional
lambda of the field.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations, product

from fourspace.catalog import I, EnumerationBounds, declared_dim, enumerate_descriptors
from fourspace.decomp import IncompleteCandidates, _hom, decompose
from fourspace.exactmat import ExactMatrix, PrimeField
from fourspace.homdim import hom_vector
from fourspace.modules import LambdaModule, dim_vector
from fourspace.oracle import hom_oracle
from fourspace.verify import oracle_vector

from reference import reference_rref


def rref(rows, q):
    """The reduced echelon basis of span(rows) mod q, a tuple of rows."""
    pivots, rows = reference_rref(rows, q)
    return tuple(map(tuple, rows[:len(pivots)]))


def subspaces(d, q):
    """Every subspace of GF(q)^d as its reduced echelon basis, by
    dimension, then pivots, then the free entries."""
    out = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, d) if c not in pivots]
            for values in product(range(q), repeat=len(free)):
                rows = [[int(c == p) for c in range(d)] for p in pivots]
                for (i, c), x in zip(free, values):
                    rows[i][c] = x
                out.append(tuple(map(tuple, rows)))
    return out


def generators(d, q):
    """Maps of vectors of GF(q)^d that generate GL(d, q): the primitive
    scalar on the first coordinate, the cyclic shift and, for d >= 2, the
    transvection e_0 += e_1."""
    g = next(x for x in range(1, q) if len({pow(x, k, q) for k in range(q - 1)}) == q - 1)
    gens = [lambda v: (v[0] * g % q, *v[1:]), lambda v: (*v[-1:], *v[:-1])]
    if d >= 2:
        gens.append(lambda v: ((v[0] + v[1]) % q, *v[1:]))
    return gens


def orbits(d, q):
    """(spaces, reps): subspaces(d, q), and the least quadruple of
    subspace indices of each GL(d, q) orbit, in order."""
    spaces = subspaces(d, q)
    index = {s: i for i, s in enumerate(spaces)}
    perms = [[index[rref([f(v) for v in s], q)] for s in spaces] for f in generators(d, q)]
    n = len(spaces)
    seen = bytearray(n ** 4)
    reps = []
    for start, quad in enumerate(product(range(n), repeat=4)):
        if seen[start]:
            continue
        seen[start] = 1
        reps.append(quad)
        stack = [quad]
        while stack:
            a, b, c, e = stack.pop()
            for p in perms:
                image = p[a], p[b], p[c], p[e]
                i = ((image[0] * n + image[1]) * n + image[2]) * n + image[3]
                if not seen[i]:
                    seen[i] = 1
                    stack.append(image)
    return spaces, reps


def dimension(d, spaces, quad):
    """The dimension vector of the module of a quadruple of subspaces."""
    return (d, *(len(spaces[i]) for i in quad))


def catalog_counts(q, n0):
    """{dimension vector: count} for n_0 <= n0, nonzero counts only: the
    coefficients of prod_X (1 - x^{dim X})^{-1} over the catalog modules X
    over GF(q) but I(0, 1), ..., I(0, 4)."""
    letter_kernels = {I(0, j) for j in range(1, 5)}
    descs = enumerate_descriptors(EnumerationBounds(n0, n0, tuple(range(2, q))))
    # every X has x_0 >= 1, so a - dim X comes before a in the order of product
    series = dict.fromkeys(product(range(n0 + 1), repeat=5), 0)
    series[0, 0, 0, 0, 0] = 1
    for x in descs:
        if x not in letter_kernels:
            step = declared_dim(x)
            for a, c in series.items():
                b = tuple(u + v for u, v in zip(a, step))
                if b in series:
                    series[b] += c
    return {a: c for a, c in series.items() if c}


def count_differences(q, n0, found):
    """A line for each dimension vector where found, the orbit count at
    each, differs from catalog_counts, but for the orbits of the tubes at
    the points of degree 2 (see the module docstring)."""
    expected = Counter(catalog_counts(q, n0))
    if n0 >= GAP_DIM[0]:
        expected[GAP_DIM] += (q * q - q) // 2
    return [f"count at {dim}: orbits {found[dim]}, catalog {expected[dim]}"
            for dim in sorted(found.keys() | expected.keys()) if found[dim] != expected[dim]]


def module(field, d, bases, widen=None):
    """The module whose letter t is bases[t] in columns, with one zero
    column appended to letter widen (0 for A to 3 for D), if given."""
    def letter(t, basis):
        extra = [0] if t == widen else []
        return ExactMatrix(field, [[v[r] for v in basis] + extra for r in range(d)],
                           shape=(d, len(basis) + len(extra)))
    return LambdaModule(*(letter(t, basis) for t, basis in enumerate(bases)))


# the dimension vector and dim End of R(1, f) at a point f of degree 2,
# such as x^2 + x + 1 over GF(2), which no catalog descriptor names
GAP_DIM, GAP_END = (4, 2, 2, 2, 2), 2


def check(bounds, descs, M):
    """(failures, incomplete, mu): the failures of M's three readings, as
    text, empty when all hold; whether M is the catalog's gap, on which
    decompose raised with no failure (see the module docstring); and the
    multiset decompose gave, None if it raised."""
    out = [f"{d.label()}: formula {a}, oracle {b}"
           for d, a, b in zip(descs, hom_vector(M, descs), oracle_vector(M, descs)) if a != b]
    try:
        mu = decompose(M, bounds)
    except IncompleteCandidates as e:
        if not out and dim_vector(M) == GAP_DIM and hom_oracle(M, M) == GAP_END:
            return out, True, None
        return out + [f"decompose: {e}"], False, None
    total = tuple(sum(m * declared_dim(y)[v] for y, m in mu.items()) for v in range(5))
    if total != dim_vector(M):
        out.append(f"decompose: summands of dimension {total}")
    end = sum(a * b * _hom(y, x) for y, a in mu.items() for x, b in mu.items())
    if (oracle := hom_oracle(M, M)) != end:
        out.append(f"dim End: oracle {oracle}, closed form {end}")
    return out, False, mu


def run(q, n0):
    """(orbit counts at n_0 = 0..n0, descriptor count, failures,
    incomplete) over GF(q), the descriptors at (n0 + 3, n0 + 3) with every
    lambda of the field but 0 and 1; incomplete names the modules check
    finds to be the catalog's gap, and failures holds count_differences
    too, and a line for each module that decomposes to the multiset of
    one read before it.  Every 4th orbit at n0 is read again with a zero
    column appended to one letter, A, B, C, D in turn: another module, as
    its summand I(0, j) tells."""
    field = PrimeField(q)
    bounds = EnumerationBounds(n0 + 3, n0 + 3, tuple(range(2, q)))
    descs = enumerate_descriptors(bounds)
    counts, found, failures, incomplete = [], Counter(), [], []
    named = {}  # the first module read of each multiset decompose gave
    for d in range(n0 + 1):
        spaces, reps = orbits(d, q)
        counts.append(len(reps))
        found.update(dimension(d, spaces, quad) for quad in reps)
        for k, quad in enumerate(reps):
            bases = [spaces[i] for i in quad]
            widened = [k // 4 % 4] if d == n0 and k % 4 == 0 else []
            for widen in [None, *widened]:
                tag = "" if widen is None else f", zero column on {'ABCD'[widen]}"
                name = f"n0={d} orbit {k} {quad}{tag}"
                lines, gap, mu = check(bounds, descs, module(field, d, bases, widen))
                failures += [f"{name}: {line}" for line in lines]
                if gap:
                    incomplete.append(name)
                if mu is not None:
                    first = named.setdefault(frozenset(mu.items()), name)
                    if first != name:
                        failures.append(f"{name}: decomposes as {first} does")
    failures += count_differences(q, n0, found)
    return counts, len(descs), failures, incomplete


def main(argv):
    if len(argv) < 2:
        print("usage: exhaustive.py N0 PRIME [PRIME ...]", file=sys.stderr)
        return 2
    n0, *primes = map(int, argv)
    failed = False
    for q in primes:
        counts, descs, failures, incomplete = run(q, n0)
        product_count = sum(catalog_counts(q, n0).values())
        print(f"GF({q}), n0 <= {n0}: {sum(counts)} orbits ({' + '.join(map(str, counts))}), "
              f"{product_count} in the catalog's product, {descs} descriptors, "
              f"{len(failures)} failures, {len(incomplete)} incomplete",
              flush=True)
        for line in failures:
            print(f"  {line}")
        for name in incomplete:
            print(f"  incomplete: {name}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
