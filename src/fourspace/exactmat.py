"""Exact fields and matrices: construction, block assembly, rank/corank.

Scalars are plain Python values (fractions.Fraction over the rationals,
canonical int residues in [0, p) over a prime field).  A field object owns
the arithmetic and the numpy dtype of its arrays (``object`` holding
Fractions, or int64 residues), and ``field.reduce`` brings an array
expression back to canonical form.  Every matrix is one read-only 2-D
array of that dtype, so zero-row / zero-column shapes are first-class and
cor(1x0) = 1 works.  One Gaussian elimination loop serves both fields,
with two exits: ``field.echelon`` returns the pivots and the echelon
array, from which null space and inverse follow, and ``field.rank``
returns the pivot count alone and builds no array, for callers that need
nothing else.  The loop runs on a list of Python-int rows, so a pivot
costs only the entries it changes: residues over GF(p), and over QQ
fraction-free primitive rows, one gcd pass per updated row.  QQ input
that holds Python ints is taken as it is; an array with a Fraction in it
is scaled to ints first.  Fractions come back only in the reduced form,
which serves nullspace and invert alone.
``field.integral`` scales arrays by one nonzero scalar into the form
elimination runs on (Python ints over QQ, the residues themselves over
GF(p)), ``field.intdot`` multiplies in that form, and
``field.primitive`` divides such an array by one common factor, so a
caller that needs only ranks and kernels keeps its products in small
integers.  Each field has one matrix product, ``field.dot``, and
``ExactMatrix @`` calls it: int64 residues over GF(p); over QQ, intdot
of the integral form, divided by the square of its scale.  No floating
point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class DimensionMismatch(ValueError):
    """Block or operand shapes do not fit together."""


class FieldMismatch(ValueError):
    """Operands live over different fields."""


def _check_same_field(f, g):
    if f != g:
        raise FieldMismatch(f"mixed fields: {f} vs {g}")


def _primitive(row):
    # a row of Python ints over the gcd of its entries
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _Field:
    """What both fields share: elimination, on list rows, of one array."""

    def _eliminate(self, a, reduced):
        """The one pivot loop: (pivot columns, working rows), see echelon."""
        rows = self._start(a)
        m, n = a.shape
        pivots = []
        for c in range(n):
            r = len(pivots)
            hits = [i for i in range(r, m) if rows[i][c]]
            if not hits:
                continue
            i = hits[0]
            rows[r], rows[i] = rows[i], rows[r]
            # the row moved to i had no entry in column c
            targets = [rows[k] for k in hits[1:]]
            if reduced:
                targets += [row for row in rows[:r] if row[c]]
            self._clear(rows[r], c, targets, reduced)
            pivots.append(c)
        return pivots, rows

    def echelon(self, a, reduced=False):
        """Gaussian elimination of a 2-D array of field scalars.

        Returns (pivot columns, echelon array of self.dtype and a's shape):
        each pivot column is cleared below its pivot, and above it too if
        reduced.  The input is copied, never written.  One loop
        (_eliminate) finds the pivots for both fields on list rows of
        Python ints; each field's _start (that working copy), _clear (one
        pivot's row operations on the rows with an entry in its column)
        and _finish hold the arithmetic.  echelon and rank are its two
        exits: echelon finishes the rows and builds the array, rank counts
        the pivots and builds nothing.

        Over GF(p) each pivot row is scaled to a leading 1, and the other
        rows change only in the columns where the pivot row is nonzero.

        Over QQ the elimination is fraction-free on primitive rows of
        Python ints (Rationals._clear): an array of Python ints as it is,
        one holding a Fraction times the lcm of its denominators.  Forward
        elimination returns those integer rows; reduced=True divides each
        row by its pivot, which gives the reduced row echelon form in
        Fractions.
        """
        pivots, rows = self._eliminate(a, reduced)
        return pivots, _from_rows(self, self._finish(rows, pivots, reduced), a.shape)

    def rank(self, a):
        """The rank of a 2-D array of field scalars: the pivot count of the
        forward loop, with no _finish and no array built.  a is not written."""
        return len(self._eliminate(a, False)[0])


class Rationals(_Field):
    """The field of rational numbers; scalars are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    dtype = object

    def coerce(self, x):
        # numpy integers, bare or as a Fraction's parts, wrap at 2^63:
        # every numerator and denominator is made a Python int
        if isinstance(x, Fraction):
            n, d = x.numerator, x.denominator
            return x if type(n) is int and type(d) is int else Fraction(int(n), int(d))
        if isinstance(x, (int, np.integer)):
            return Fraction(int(x))
        if isinstance(x, float):
            raise TypeError("floating point is not allowed; use Fraction or int")
        return Fraction(x)

    def reduce(self, a):
        return a

    def _start(self, a):
        # primitive integer rows of the same row space: the same pivots and
        # rank.  Python-int rows are taken as they are; a Fraction anywhere
        # makes math.gcd raise, and integral scales the array first
        try:
            return [_primitive(row) for row in a.tolist()]
        except TypeError:
            (x,), _ = self.integral([a])
            return [_primitive(row) for row in x.tolist()]

    def _clear(self, pivot_row, c, target_rows, reduced):
        """Clear column c in target_rows, in place, with pivot_row.

        Each target row becomes p * row - f * pivot_row over the gcd of its
        entries, with p the pivot and f the row's entry in column c.  Each
        row stays a multiple of its Bareiss row (Bareiss, Math. Comp. 22,
        1968), whose entries are minors of the input, and is primitive,
        so it is never larger: entries grow no faster than minors.  Unlike
        Bareiss's exact division by the previous pivot, this leaves the
        rows without an entry in column c untouched, so sparse matrices
        stay cheap.  Rows above the pivot change over the full row: their
        own pivots scale too.
        """
        lo = 0 if reduced else c
        p = pivot_row[c]
        tail = pivot_row[lo:]
        for row in target_rows:
            f = row[c]
            row[lo:] = _primitive([p * x - f * y for x, y in zip(row[lo:], tail)])

    def _finish(self, rows, pivots, reduced):
        # forward: the primitive integer rows; reduced: each row over its
        # pivot (1 for the zero rows past the rank), so canonical Fractions
        if reduced:
            leads = [row[c] for row, c in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
            rows = [[Fraction(x, p) if x else self.zero for x in r] for r, p in zip(rows, leads)]
        return rows

    def dot(self, a, b):
        """a @ b for 2-D arrays of Fractions: the intdot of their integral
        form, over the square of its scale."""
        (x, y), s = self.integral([a, b])
        d = s * s
        rows = [[Fraction(v, d) for v in row] for row in self.intdot(x, y).tolist()]
        return _from_rows(self, rows, (a.shape[0], b.shape[1]))

    def integral(self, arrays):
        """(arrays times scale, scale): the one scale is the lcm of every
        denominator in them, and the products are Python ints.

        One nonzero scalar leaves ranks and kernels alone, so an
        elimination can run on these integer arrays instead of Fractions.
        """
        scale = math.lcm(1, *(x.denominator for a in arrays for x in a.flat))
        out = [
            _from_rows(
                self,
                [[x.numerator * (scale // x.denominator) for x in row] for row in a.tolist()],
                a.shape,
            )
            for a in arrays
        ]
        return out, scale

    def primitive(self, a):
        """a over the gcd of all its entries, for an array of Python ints.

        One nonzero scale for the whole array, so a linear map keeps its
        kernels and the spans of its products; rows scaled each by their
        own gcd would not.
        """
        g = math.gcd(*a.flat)
        return a // g if g > 1 else a

    def intdot(self, a, b):
        """a @ b for 2-D arrays of Python ints, left in Python ints.

        These are the arrays of integral and the forward echelon rows made
        from them; dot multiplies Fractions this way too.  numpy's dense
        object product multiplies every pair, which on ints is cheaper than
        a zero-skipping Python sum: 18 us against 134 us for a 6 x 6 times
        a 6 x 18 (2-vCPU virtual machine, numpy 2.4).
        """
        return a @ b

    def parse(self, s):
        """Parse "5", "-3" or "2/7"."""
        s = s.strip()
        if "." in s or "e" in s.lower():
            raise ValueError(f"not an exact rational literal: {s!r}")
        return Fraction(s)

    def format(self, x):
        return str(x)

    def rand(self, rng):
        # small integers keep hand inspection and Fraction growth sane
        return Fraction(rng.randint(-9, 9))

    def spec(self):
        return "rationals"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField(_Field):
    """GF(p) for prime p; scalars are canonical ints in [0, p).

    p <= 2^31 - 1, so a product of two int64 residues stays below 2^62:
    exact in what reduce takes (scale, +, -) and in dot while its sums fit.
    """

    dtype = np.int64

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p <= 2**31 - 1:
            raise ValueError(f"prime field characteristic out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, np.integer):
            return int(x) % self.p
        if isinstance(x, Fraction):
            return x.numerator % self.p * self.inv(x.denominator % self.p) % self.p
        if isinstance(x, float):
            raise TypeError("floating point is not allowed; use int residues")
        raise TypeError(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def reduce(self, a):
        return a % self.p

    def _start(self, a):
        return np.asarray(a, dtype=np.int64).tolist()

    def _clear(self, pivot_row, c, target_rows, reduced):
        # scale the pivot row to a leading 1; each target row changes only
        # where the pivot row is nonzero
        p = self.p
        s = self.inv(pivot_row[c])
        nonzero = [(j, x * s % p) for j, x in enumerate(pivot_row[c:], c) if x]
        for j, x in nonzero:
            pivot_row[j] = x
        for row in target_rows:
            f = row[c]
            for j, x in nonzero:
                row[j] = (row[j] - f * x) % p

    def _finish(self, rows, pivots, reduced):
        return rows

    def integral(self, arrays):
        """(arrays, 1): residues are already the form echelon and dot use."""
        return arrays, self.one

    def dot(self, a, b):
        """a @ b for 2-D arrays of canonical residues, reduced.

        int64 holds the sum of a.shape[1] products below p^2 only while it
        stays under 2^63; past that the product runs on Python ints.
        """
        if a.shape[1] * (self.p - 1) ** 2 < 2**63:
            return (a @ b) % self.p
        return (a.astype(object) @ b.astype(object) % self.p).astype(np.int64)

    intdot = dot

    def primitive(self, a):
        """a itself: residues need no common scale to stay small."""
        return a

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def parse(self, s):
        return int(s.strip(), 10) % self.p

    def format(self, x):
        return str(x)

    def rand(self, rng):
        return rng.randrange(self.p)

    def spec(self):
        return {"prime": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def field_from_spec(spec):
    """Inverse of Field.spec(): "rationals" or {"prime": p}."""
    if spec == "rationals":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        return PrimeField(spec["prime"])
    raise ValueError(f"unrecognized field spec: {spec!r}")


def _from_rows(field, rows, shape):
    # rows of canonical scalars; shape keeps empty dimensions
    return np.array(rows, dtype=field.dtype).reshape(shape)


class ExactMatrix:
    """Immutable m x n matrix over an exact field.

    data is one read-only 2-D numpy array of field.dtype holding canonical
    scalars; rows and cols are its shape, so empty matrices retain their
    dimensions.  Indexing and row-major listing return plain Python
    scalars.
    """

    __slots__ = ("field", "data")

    def __init__(self, field, entries, shape=None):
        entries = [list(r) for r in entries]
        if shape is None:
            shape = (len(entries), len(entries[0]) if entries else 0)
        rows, cols = shape
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"entries do not form a {rows}x{cols} grid")
        data = _from_rows(field, [[field.coerce(x) for x in r] for r in entries], shape)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        data.flags.writeable = False

    @classmethod
    def _raw(cls, field, data):
        # internal: data is a 2-D array of canonical field.dtype scalars
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "data", data)
        data.flags.writeable = False
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.field, self.data.shape, tuple(self.entries_rowmajor())))

    def __repr__(self):
        if self.rows * self.cols <= 16:
            body = ", ".join(
                "[" + " ".join(map(str, r)) + "]" for r in self.data.tolist()
            )
            return f"ExactMatrix({self.rows}x{self.cols} over {self.field}: {body})"
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"

    def __getitem__(self, ij):
        return self.data.item(*ij)

    # -- structure -------------------------------------------------------

    def transpose(self):
        return ExactMatrix._raw(self.field, self.data.T)

    def submatrix(self, r0, r1, c0, c1):
        """Rows [r0, r1) and columns [c0, c1), bounds checked."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise DimensionMismatch(
                f"submatrix [{r0}:{r1}, {c0}:{c1}] out of range for {self.rows}x{self.cols}"
            )
        return ExactMatrix._raw(self.field, self.data[r0:r1, c0:c1])

    def entries_rowmajor(self):
        return self.data.ravel().tolist()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        _check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"add: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return ExactMatrix._raw(self.field, self.field.reduce(self.data + other.data))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix._raw(self.field, self.field.reduce(-self.data))

    def scale(self, c):
        c = self.field.coerce(c)
        return ExactMatrix._raw(self.field, self.field.reduce(c * self.data))

    def __matmul__(self, other):
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return ExactMatrix._raw(self.field, self.field.dot(self.data, other.data))

    # -- rank / kernels --------------------------------------------------

    def rank(self):
        return self.field.rank(self.data)

    def corank(self):
        """rows - rank: the dimension of the left null space."""
        return self.rows - self.rank()

    def nullspace(self):
        """Deterministic basis of the right null space {x : A x = 0}.

        Returns a list of length-cols tuples of field scalars, one per free
        column of the reduced row echelon form, in ascending column order.
        """
        f = self.field
        n = self.cols
        pivots, rref = f.echelon(self.data, reduced=True)
        rref = rref.tolist()
        pivot_set = set(pivots)
        basis = []
        for free in range(n):
            if free in pivot_set:
                continue
            v = [f.zero] * n
            v[free] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.reduce(-rref[i][free])
            basis.append(tuple(v))
        return basis

    def invert(self):
        """Exact inverse of a square matrix; raises on singular input."""
        if self.rows != self.cols:
            raise DimensionMismatch(f"invert: {self.rows}x{self.cols} is not square")
        n = self.rows
        f = self.field
        pivots, rref = f.echelon(hstack([self, identity(f, n)]).data, reduced=True)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return ExactMatrix._raw(f, rref[:, n:])


# -- constructors ---------------------------------------------------------


def mat(field, rows, shape=None):
    """Literal matrix from nested sequences; shape needed when rows == []."""
    return ExactMatrix(field, rows, shape)


def _zero_array(field, m, n):
    return np.full((m, n), field.zero, dtype=field.dtype)


def zeros(field, m, n):
    return ExactMatrix._raw(field, _zero_array(field, m, n))


def identity(field, n):
    a = _zero_array(field, n, n)
    np.fill_diagonal(a, field.one)
    return ExactMatrix._raw(field, a)


def anti_identity(field, n):
    """Exchange matrix: ones on the anti-diagonal."""
    return ExactMatrix._raw(field, identity(field, n).data[::-1])


def jordan(field, n, lam):
    """Upper-triangular n x n Jordan block with eigenvalue lam."""
    a = _zero_array(field, n, n)
    np.fill_diagonal(a, field.coerce(lam))
    np.fill_diagonal(a[:, 1:], field.one)
    return ExactMatrix._raw(field, a)


def pi_drop_last(field, n):
    """n x (n+1) projection [I_n | 0-column] (kills the last coordinate)."""
    return hstack([identity(field, n), zeros(field, n, 1)])


def pi_drop_first(field, n):
    """n x (n+1) projection [0-column | I_n] (kills the first coordinate)."""
    return hstack([zeros(field, n, 1), identity(field, n)])


def hstack(blocks):
    blocks = list(blocks)
    if not blocks:
        raise DimensionMismatch("hstack of no blocks")
    f = blocks[0].field
    m = blocks[0].rows
    for i, b in enumerate(blocks):
        _check_same_field(f, b.field)
        if b.rows != m:
            raise DimensionMismatch(f"hstack block {i}: expected {m} rows, got {b.rows}")
    return ExactMatrix._raw(f, np.hstack([b.data for b in blocks]))


def vstack(blocks):
    blocks = list(blocks)
    if not blocks:
        raise DimensionMismatch("vstack of no blocks")
    f = blocks[0].field
    n = blocks[0].cols
    for i, b in enumerate(blocks):
        _check_same_field(f, b.field)
        if b.cols != n:
            raise DimensionMismatch(f"vstack block {i}: expected {n} cols, got {b.cols}")
    return ExactMatrix._raw(f, np.vstack([b.data for b in blocks]))


def block_grid(grid):
    """Assemble a matrix from a 2-D grid of blocks.

    Block (i, j) must match the height of block row i and the width of
    block column j; zero-size blocks are permitted.
    """
    grid = [list(row) for row in grid]
    if not grid or not grid[0]:
        raise DimensionMismatch("block_grid of no blocks")
    for i, row in enumerate(grid):
        if len(row) != len(grid[0]):
            raise DimensionMismatch(f"block row {i}: ragged grid")
    for i, row in enumerate(grid):
        for j, b in enumerate(row):
            if b.rows != row[0].rows:
                raise DimensionMismatch(
                    f"block ({i},{j}): expected {row[0].rows} rows, got {b.rows}"
                )
            if b.cols != grid[0][j].cols:
                raise DimensionMismatch(
                    f"block ({i},{j}): expected {grid[0][j].cols} cols, got {b.cols}"
                )
    return vstack([hstack(row) for row in grid])


def direct_sum(w1, w2):
    """Block diagonal [[W1, 0], [0, W2]]."""
    _check_same_field(w1.field, w2.field)
    out = _zero_array(w1.field, w1.rows + w2.rows, w1.cols + w2.cols)
    out[: w1.rows, : w1.cols] = w1.data
    out[w1.rows :, w1.cols :] = w2.data
    return ExactMatrix._raw(w1.field, out)


def random_matrix(field, m, n, rng):
    rows = [[field.rand(rng) for _ in range(n)] for _ in range(m)]
    return ExactMatrix._raw(field, _from_rows(field, rows, (m, n)))


# a uniform GF(2) matrix is singular with probability below 0.711, so 100
# singular draws in a row (< 1.5e-15) point to a rank that under-counts
_INVERTIBLE_DRAWS = 100


def random_invertible(field, n, rng):
    """The first of at most _INVERTIBLE_DRAWS random n x n matrices of full
    rank; ArithmeticError if none is."""
    for _ in range(_INVERTIBLE_DRAWS):
        a = random_matrix(field, n, n, rng)
        if a.rank() == n:
            return a
    raise ArithmeticError(
        f"no invertible {n}x{n} matrix over {field} in {_INVERTIBLE_DRAWS} random draws"
    )
