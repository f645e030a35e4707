"""A naive reference eliminator for the tests.

reference_rref is a deliberately plain Gauss-Jordan on Python ints (mod p)
or Fractions: no numpy, nothing shared with the package, so it can check
the package's elimination loop (_Field._eliminate) and every rank or
nullity built on it.  It skips only zero factors, so the ~100-row inputs
of the tests stay affordable.
"""

from fractions import Fraction


def reference_rref(rows, p=None):
    """(pivot columns, reduced row echelon form); p=None means QQ."""
    if p is None:
        a = [[Fraction(x) for x in row] for row in rows]
    else:
        a = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        hits = [i for i in range(r, len(a)) if a[i][c] != 0]
        if not hits:
            continue
        a[r], a[hits[0]] = a[hits[0]], a[r]
        if p is None:
            a[r] = [x / a[r][c] if x else x for x in a[r]]
        else:
            s = pow(a[r][c], p - 2, p)
            a[r] = [x * s % p for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
                if p is not None:
                    a[i] = [x % p for x in a[i]]
        pivots.append(c)
    return pivots, a
