"""Exact fields and matrices: construction, block assembly, rank/corank.

Scalars are plain Python values (fractions.Fraction over the rationals,
canonical int residues in [0, p) over a prime field); a field object owns
the arithmetic, the numpy dtype of its arrays and Gaussian elimination
(``field.echelon``), from which rank, null space and inverse all follow.
No floating point anywhere.  Matrices are immutable and zero-row /
zero-column shapes are first-class, so cor(1x0) = 1 works.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class DimensionMismatch(ValueError):
    """Block or operand shapes do not fit together."""


class FieldMismatch(ValueError):
    """Operands live over different fields."""


def _check_same_field(f, g):
    if f != g:
        raise FieldMismatch(f"mixed fields: {f} vs {g}")


class Rationals:
    """The field of rational numbers; scalars are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    dtype = object

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, float):
            raise TypeError("floating point is not allowed; use Fraction or int")
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

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

    def echelon(self, rows, reduced=False):
        """Gauss-Jordan elimination of equal-length rows of Fractions (or int zeros).

        Returns (pivot columns, echelon rows): each pivot row is scaled to a
        leading 1 and cleared below its pivot, and above it too if reduced.
        """
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if m else 0
        pivots = []
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            pv = rows[r][c]
            rr = rows[r] = [x / pv for x in rows[r]]
            for i in range(0 if reduced else r + 1, m):
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rr)]
            pivots.append(c)
        return pivots, rows

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


class PrimeField:
    """GF(p) for prime p; scalars are canonical ints in [0, p)."""

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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

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

    def echelon(self, rows, reduced=False):
        """Gauss-Jordan elimination mod p of a 2-D integer array or non-empty rows.

        Returns (pivot columns, echelon rows as an int64 array); pivot rows
        are scaled to a leading 1 and cleared below their pivot, and above
        it too if reduced.  Residues stay in [0, p) and p <= 2^31 - 1, so
        every product stays below 2^62 < 2^63 and int64 arithmetic is exact.
        """
        p = self.p
        a = np.asarray(rows, dtype=np.int64) % p
        m, n = a.shape
        pivots = []
        for c in range(n):
            r = len(pivots)
            if r == m:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
            if reduced:
                others = np.nonzero(a[:, c])[0]
                others = others[others != r]
            else:
                others = r + 1 + np.nonzero(a[r + 1 :, c])[0]
            if others.size:
                a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
            pivots.append(c)
        return pivots, a

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


class ExactMatrix:
    """Immutable m x n matrix over an exact field.

    Entries are stored as a tuple of row tuples of field scalars; the
    (rows, cols) shape is kept explicitly so that empty matrices retain
    their dimensions.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, entries, shape=None):
        entries = [list(r) for r in entries]
        if shape is None:
            rows = len(entries)
            cols = len(entries[0]) if rows else 0
        else:
            rows, cols = shape
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"entries do not form a {rows}x{cols} grid")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(
            self, "data", tuple(tuple(field.coerce(x) for x in r) for r in entries)
        )

    @classmethod
    def _raw(cls, field, rows, cols, data):
        # internal: data is already a tuple of canonical row tuples
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows * self.cols <= 16:
            body = ", ".join("[" + " ".join(map(str, r)) + "]" for r in self.data)
            return f"ExactMatrix({self.rows}x{self.cols} over {self.field}: {body})"
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    # -- structure -------------------------------------------------------

    def transpose(self):
        data = tuple(
            tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)
        )
        return ExactMatrix._raw(self.field, self.cols, self.rows, data)

    def submatrix(self, r0, r1, c0, c1):
        """Rows [r0, r1) and columns [c0, c1), bounds checked."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise DimensionMismatch(
                f"submatrix [{r0}:{r1}, {c0}:{c1}] out of range for {self.rows}x{self.cols}"
            )
        data = tuple(r[c0:c1] for r in self.data[r0:r1])
        return ExactMatrix._raw(self.field, r1 - r0, c1 - c0, data)

    def entries_rowmajor(self):
        return [x for r in self.data for x in r]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        _check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"add: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        add = self.field.add
        data = tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )
        return ExactMatrix._raw(self.field, self.rows, self.cols, data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        data = tuple(tuple(neg(x) for x in r) for r in self.data)
        return ExactMatrix._raw(self.field, self.rows, self.cols, data)

    def scale(self, c):
        c = self.field.coerce(c)
        mul = self.field.mul
        data = tuple(tuple(mul(c, x) for x in r) for r in self.data)
        return ExactMatrix._raw(self.field, self.rows, self.cols, data)

    def __matmul__(self, other):
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        f = self.field
        zero, add, mul = f.zero, f.add, f.mul
        ot = other.transpose().data
        data = tuple(
            tuple(
                _dot(ra, rb, zero, add, mul)
                for rb in ot
            )
            for ra in self.data
        )
        return ExactMatrix._raw(f, self.rows, other.cols, data)

    # -- rank / kernels --------------------------------------------------

    def rank(self):
        if self.rows == 0 or self.cols == 0:
            return 0
        return len(self.field.echelon(self.data)[0])

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
        if n == 0:
            return []
        pivots, rref = f.echelon(self.data, reduced=True) if self.rows else ([], [])
        pivot_set = set(pivots)
        basis = []
        for free in range(n):
            if free in pivot_set:
                continue
            v = [f.zero] * n
            v[free] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(f.coerce(rref[i][free]))
            basis.append(tuple(v))
        return basis

    def invert(self):
        """Exact inverse of a square matrix; raises on singular input."""
        if self.rows != self.cols:
            raise DimensionMismatch(f"invert: {self.rows}x{self.cols} is not square")
        n = self.rows
        f = self.field
        if n == 0:
            return self
        pivots, rref = f.echelon(hstack([self, identity(f, n)]).data, reduced=True)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        data = tuple(tuple(f.coerce(x) for x in row[n:]) for row in rref)
        return ExactMatrix._raw(f, n, n, data)


def _dot(ra, rb, zero, add, mul):
    acc = zero
    for a, b in zip(ra, rb):
        if a and b:
            acc = add(acc, mul(a, b))
    return acc


# -- constructors ---------------------------------------------------------


def mat(field, rows, shape=None):
    """Literal matrix from nested sequences; shape needed when rows == []."""
    return ExactMatrix(field, rows, shape)


def zeros(field, m, n):
    z = field.zero
    return ExactMatrix._raw(field, m, n, tuple((z,) * n for _ in range(m)))


def identity(field, n):
    z, o = field.zero, field.one
    return ExactMatrix._raw(
        field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
    )


def anti_identity(field, n):
    """Exchange matrix: ones on the anti-diagonal."""
    z, o = field.zero, field.one
    return ExactMatrix._raw(
        field,
        n,
        n,
        tuple(tuple(o if i + j == n - 1 else z for j in range(n)) for i in range(n)),
    )


def jordan(field, n, lam):
    """Upper-triangular n x n Jordan block with eigenvalue lam."""
    lam = field.coerce(lam)
    z, o = field.zero, field.one
    rows = []
    for i in range(n):
        r = [z] * n
        r[i] = lam
        if i + 1 < n:
            r[i + 1] = o
        rows.append(tuple(r))
    return ExactMatrix._raw(field, n, n, tuple(rows))


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
    cols = sum(b.cols for b in blocks)
    data = tuple(
        tuple(x for b in blocks for x in b.data[i]) for i in range(m)
    )
    return ExactMatrix._raw(f, m, cols, data)


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
    rows = sum(b.rows for b in blocks)
    data = tuple(r for b in blocks for r in b.data)
    return ExactMatrix._raw(f, rows, n, data)


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
    f = w1.field
    return block_grid(
        [
            [w1, zeros(f, w1.rows, w2.cols)],
            [zeros(f, w2.rows, w1.cols), w2],
        ]
    )


def random_matrix(field, m, n, rng):
    return ExactMatrix._raw(
        field, m, n, tuple(tuple(field.rand(rng) for _ in range(n)) for _ in range(m))
    )


def random_invertible(field, n, rng):
    while True:
        a = random_matrix(field, n, n, rng)
        if a.rank() == n:
            return a
