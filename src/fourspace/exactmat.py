"""Exact fields and matrices: construction, block assembly, product,
rank/corank, null space and inverse.

Scalars are plain Python values (fractions.Fraction over the rationals,
canonical int residues in [0, p) over a prime field).  A field object owns
the arithmetic, and ``field.reduce`` brings a scalar expression back to
canonical form.  Every matrix is one tuple of row tuples of those
scalars, its shape stored beside it, so zero-row / zero-column shapes are
first-class and cor(1x0) = 1 works.  The same rows serve storage and
elimination: nothing is converted between them.  One Gaussian
elimination loop serves both fields, with three exits: ``_split``, a
kernel count and the rows past a column, takes every kernel the package
reads (the null space as the split of [A^T | I], and homdim's and the
oracle's); ``field.echelon`` returns the pivots and the echelon rows,
from which the inverse follows; and ``field.rank`` the pivot count
alone.  Split and rank finish no rows.  The loop (``_eliminate``) takes
the rows one at a time: each is reduced against the pivots found so far
(``_reduce``), and its first entry left becomes a new pivot.  A pivot's
form (``_pivot``) is what later rows are reduced with; over GF(p) it is
made, and its row scaled to a leading 1, the first time a later row
reduces against it, so a forward pivot no row reads is never scaled,
while the reduced loop leaves every pivot row with its leading 1; pivot
forms never leave this module.  Once every column holds a pivot, the
rows left are in their span and the loop reads no more of them.  Rows
enter the loop through one working copy (``_start``, of any sequence of
rows); the loop and the split are also called on their own: homdim
eliminates M's letters in place, its folds and the oracle's residual
write their rows from slices of working rows prepared once (``_scaled``:
a row times a scalar), and split and eliminate them, and homdim's
staircase keeps working rows from its first fold to its last step.
The loop runs on a list of Python-int rows, so a reduction costs only
the entries it changes: residues over GF(p), and over QQ fraction-free
primitive rows, one gcd pass per updated row.  QQ rows of Fractions,
Python ints or both are scaled to ints by the lcm of their denominators.
Fractions come back only in the reduced form, which serves invert
alone.  ``field.integral`` scales rows by one nonzero
scalar into the form elimination runs on (Python ints over QQ, the
residues themselves over GF(p)).  Each field has one matrix product,
``field.dot``, on Python ints, and ``ExactMatrix @`` calls it: residues
over GF(p); over QQ, the product of the integral forms, divided by the
product of their scales.  No floating point anywhere.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, islice
from numbers import Integral, Rational, Real
from operator import mul


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
    """What both fields share: the input rules of coerce, value semantics
    (equality and hashing by _key), format, and elimination on list-row
    copies of a matrix's rows.  A field writes its arithmetic, its name
    (__repr__), _key, _exact and _coerce."""

    def coerce(self, x):
        """x as a canonical scalar of this field.  Text reaches a field
        through parse alone, and floating point not at all; every other
        input goes to the field's _coerce."""
        if isinstance(x, str):
            raise TypeError(f"{self!r}.coerce takes no text, got {x!r}; use {self!r}.parse")
        if isinstance(x, Real) and not isinstance(x, Rational):
            raise TypeError("floating point is not allowed; " + self._exact)
        return self._coerce(x)

    def format(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, _Field) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def _eliminate(self, rows, reduced=False):
        """The one pivot loop, in place on working rows (_start's form):
        their pivot columns, see echelon.

        Row by row: each row is reduced against the pivots found so far
        (_reduce), and its first entry left becomes a new pivot.  lead
        maps each column to its pivot, None where there is none: the
        pivot's row as it was found, until _reduce first reduces a later
        row against it and puts the pivot's form (_pivot) there instead.
        Over QQ the form is the row itself; over GF(p) _pivot scales the
        row to a leading 1 then, so a pivot that no later row reads is
        left unscaled.  Once every column holds a pivot, the rows not yet
        read are in their span, and the loop stops.  The rows end as the
        pivot rows in pivot order, then one zero row for each other row,
        read or not.  reduced=True then clears each pivot row past its
        pivot with the forward forms, in ascending pivot order, and
        finishes the rows as forward echelon does (_finish): over GF(p)
        every pivot row ends with a leading 1, so the rows are the reduced
        row echelon form; over QQ they stay Python-int rows, each a
        nonzero multiple of its reduced row.  The forward mode scales no
        row that no later row read.
        """
        width = len(rows[0]) if rows else 0
        lead = [None] * width
        held = {}
        zero = []
        for row in rows:
            c = self._reduce(row, lead)
            if c is None:
                zero.append(row)
            else:
                lead[c] = held[c] = row
                if len(held) == width:
                    zero += [[0] * width for _ in range(len(rows) - width - len(zero))]
                    break
        pivots = sorted(held)
        rows[:] = [held[c] for c in pivots] + zero
        if reduced:
            for c, row in zip(pivots, rows):
                self._reduce(row, lead, c + 1)
            self._finish(rows, pivots, False)
        return pivots

    def _split(self, rows, n):
        """The left kernel of a matrix a, split at column n: (z, images).

        rows are a's working rows (_start's form), eliminated in place,
        forward.  z = rows - rank is the dimension of {y : y a = 0}.
        images are the eliminated rows whose pivot is at or past n, cut to
        the columns from n on, as working rows.  Echelon rows have
        distinct pivots, and those left of n are independent there, so
        images is an echelon basis of {y a[:, n:] : y a[:, :n] = 0}: the
        left kernel of the first n columns, seen through the rest.  Over
        GF(p) a row whose pivot no later row read keeps its pivot entry,
        which need not be 1.
        """
        pivots = self._eliminate(rows)
        lo = bisect_left(pivots, n)
        return len(rows) - len(pivots), [row[n:] for row in rows[lo : len(pivots)]]

    def echelon(self, rows, reduced=False):
        """Gaussian elimination of a matrix, a sequence of rows of field
        scalars.

        Returns (pivot columns, echelon rows): new lists, one per input
        row, the pivot rows in pivot order, then the zero rows; each pivot
        column is zero below its pivot, and above it too if reduced.  The
        input is copied, never written.  One loop (_eliminate) runs for
        both fields on list rows of Python ints, one row at a time; each
        field's _start (that working copy), _reduce (a row against the
        pivots so far), _pivot (a pivot's form, over GF(p)) and _finish
        hold the arithmetic.  echelon, rank and _split are its three
        exits: echelon finishes the rows, rank counts the pivots, and
        _split cuts them at a column, which gives every kernel the package
        takes, nullspace's too.

        Over GF(p) each pivot row is scaled to a leading 1 (a row that has
        one is only read): the first time a later row reads it, or else
        by _finish, which the reduced loop has already run.  A reduction
        changes a row only in the columns where the pivot row is nonzero.

        Over QQ the elimination is fraction-free on primitive rows of
        Python ints (Rationals._reduce): the rows times the lcm of their
        denominators, 1 for rows of Python ints.  Forward elimination
        returns those integer rows; reduced=True divides each row by its
        pivot, which gives the reduced row echelon form in Fractions, the
        form invert reads.
        """
        work = self._start(rows)
        pivots = self._eliminate(work, reduced)
        return pivots, self._finish(work, pivots, reduced)

    def rank(self, rows):
        """The rank of a matrix, a sequence of rows of field scalars: the
        pivot count of the forward loop, with no _finish.  rows are not
        written."""
        return len(self._eliminate(self._start(rows)))


class Rationals(_Field):
    """The field of rational numbers; scalars are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    _key = "rationals"
    _exact = "use Fraction or int"

    def _coerce(self, x):
        # a fixed-width integer from outside may wrap at 2^63, bare or as
        # a Fraction's parts: each is made a Python int
        if isinstance(x, Fraction):
            n, d = x.numerator, x.denominator
            return x if type(n) is int and type(d) is int else Fraction(int(n), int(d))
        if isinstance(x, Integral):
            return Fraction(int(x))
        return Fraction(x)

    def reduce(self, x):
        return x

    def _start(self, rows):
        # primitive integer rows of the same row space: the same pivots and
        # rank.  integral scales rows of Fractions, Python ints or both by
        # the lcm of their denominators (1 for an int)
        return [_primitive(row) for row in self.integral(rows)[0]]

    def _reduce(self, row, lead, start=None):
        """Reduce row, a working row (_start's form), in place and left to
        right, against lead, which maps each of its columns to the form of
        the pivot there or None.

        Forward (start None) it clears the entries in pivot columns until
        the first entry in a column with no pivot, and returns that column
        (None for a row cleared to zero); the entries before it are then
        zero.  From column start on, it clears every entry in a pivot
        column and skips the others: a pivot row back-substituted past its
        pivot.

        The form of a pivot is its row, primitive as every working row
        is, so lead holds it as _eliminate put it.  Each update makes the row
        p * row - f * pivot_row over the gcd of its entries, with p the
        pivot and f the row's entry in its column, on the row from that
        column on (forward) or on the full row.  p and f are divided by
        their own gcd first: that leaves the result alone and keeps the
        products small.  Each row stays a multiple of its Bareiss row
        (Bareiss, Math. Comp. 22, 1968), whose entries are minors of the
        input, and is primitive, so it is never larger: entries grow no
        faster than minors.  Unlike Bareiss's exact division by the
        previous pivot, this leaves a row untouched by the pivots in whose
        columns it has no entry, so sparse matrices stay cheap.
        """
        scan = enumerate(row) if start is None else islice(enumerate(row), start, None)
        for c, f in scan:
            if f:
                form = lead[c]
                if form is None:
                    if start is None:
                        return c
                    continue
                lo = c if start is None else 0
                p = form[c]
                g = math.gcd(p, f)
                p, f = p // g, f // g
                row[lo:] = _primitive([p * x - f * y for x, y in zip(row[lo:], form[lo:])])
        return None

    def _scaled(self, row, c):
        # c times a working row, c a Python int
        return [c * x for x in row]

    def _finish(self, rows, pivots, reduced):
        # forward: the primitive integer rows; reduced: each row over its
        # pivot (1 for the zero rows past the rank), so canonical Fractions
        if reduced:
            leads = [row[c] for row, c in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
            rows = [[Fraction(x, p) if x else self.zero for x in r] for r, p in zip(rows, leads)]
        return rows

    def dot(self, rows, cols):
        """The product of the matrix of rows and the one whose columns are
        cols, as row tuples of Fractions: the product of their integral
        forms, Python ints, over the product of their scales."""
        (x, s), (y, t) = self.integral(rows), self.integral(cols)
        d = s * t
        return tuple(tuple(Fraction(sum(map(mul, r, c)), d) for c in y) for r in x)

    def integral(self, rows):
        """(rows times scale, scale): the scale is the lcm of every
        denominator in rows, and the products are list rows of Python
        ints.

        One nonzero scalar leaves ranks and kernels alone, so an
        elimination can run on these integer rows instead of Fractions.
        """
        scale = math.lcm(1, *(x.denominator for row in rows for x in row))
        return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale

    def parse(self, s):
        """Parse "5", "-3" or "2/7"; a zero denominator is malformed, a
        ValueError like any other."""
        s = s.strip()
        if "." in s or "e" in s.lower():
            raise ValueError(f"not an exact rational literal: {s!r}")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {s!r}") from None

    def rand(self, rng):
        # small integers keep hand inspection and Fraction growth sane
        return Fraction(rng.randint(-9, 9))

    def spec(self):
        return "rationals"

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
    """GF(p) for prime p <= 2^31 - 1; scalars are canonical ints in
    [0, p)."""

    _exact = "use int residues"

    def __init__(self, p):
        # type, not isinstance: a JSON true is a bool, which isinstance
        # counts as an int; a "7" or 7.0 is no characteristic either
        if type(p) is not int:
            raise ValueError(f"prime field characteristic is not an integer: {p!r}")
        if not 2 <= p <= 2**31 - 1:
            raise ValueError(f"prime field characteristic out of range: {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self._key = ("gf", p)

    def _coerce(self, x):
        if isinstance(x, Integral):
            return int(x) % self.p
        if isinstance(x, Fraction):
            return int(x.numerator) % self.p * self.inv(int(x.denominator)) % self.p
        raise TypeError(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def reduce(self, x):
        return x % self.p

    def _start(self, rows):
        return [list(row) for row in rows]

    def _reduce(self, row, lead, start=None):
        """Reduce row, in place, against the pivots of lead; see
        Rationals._reduce.  Each update subtracts f times a pivot's form
        from the row, f the row's entry in its column, and changes only
        the columns where the form is nonzero.  A pivot that lead still
        holds as its row (_eliminate), as wide as row where a form lists
        only the columns past its pivot, is formed (_pivot) the first
        time it is read, and its form replaces it in lead."""
        p, width = self.p, len(row)
        scan = enumerate(row) if start is None else islice(enumerate(row), start, None)
        for c, f in scan:
            if f:
                form = lead[c]
                if form is None:
                    if start is None:
                        return c
                    continue
                if len(form) == width:
                    form = lead[c] = self._pivot(form, c)
                for j, x in form:
                    row[j] = (row[j] - f * x) % p
                row[c] = 0
        return None

    def _pivot(self, row, c):
        """The form of row's pivot in column c: (column, entry) for each
        nonzero past c, over the pivot.  A row whose pivot is 1 is only
        read; another is scaled in place to a leading 1, its pivot
        inverted once.  _reduce makes it the first time a row reads the
        pivot."""
        x = row[c]
        tail = enumerate(row[c + 1 :], c + 1)
        if x == 1:
            return [(j, y) for j, y in tail if y]
        s, p = self.inv(x), self.p
        form = [(j, y * s % p) for j, y in tail if y]
        row[c] = 1
        for j, y in form:
            row[j] = y
        return form

    def _scaled(self, row, c):
        # c times a working row, c a residue
        p = self.p
        return [c * x % p for x in row]

    def _finish(self, rows, pivots, reduced):
        # each pivot row no later row read, scaled to its leading 1 here
        for row, c in zip(rows, pivots):
            if row[c] != 1:
                row[c:] = self._scaled(row[c:], self.inv(row[c]))
        return rows

    def integral(self, rows):
        """(rows, 1): residues are already the form echelon and dot use."""
        return rows, self.one

    def dot(self, rows, cols):
        """The product of the matrix of rows and the one whose columns are
        cols, as row tuples of residues: each entry one Python-int dot
        product, reduced."""
        p = self.p
        return tuple(tuple(sum(map(mul, r, c)) % p for c in cols) for r in rows)

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, -1, self.p)

    def parse(self, s):
        return int(s.strip(), 10) % self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def spec(self):
        return {"prime": self.p}

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

    data is a tuple of `rows` row tuples, each of `cols` canonical scalars
    of the field (Fractions over QQ, ints in [0, p) over GF(p)); rows and
    cols are stored beside it, so empty matrices retain their dimensions.
    Row-major listing returns those scalars.  A matrix offers what the
    package and its benchmark read: its rows, transpose, product (@),
    rank, corank, right null space and inverse.  It has no entrywise
    arithmetic and no indexing; a caller reads an entry as data[i][j].
    """

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field, entries, shape=None):
        data = tuple(tuple(field.coerce(x) for x in r) for r in entries)
        if shape is None:
            shape = (len(data), len(data[0]) if data else 0)
        rows, cols = shape
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"entries do not form a {rows}x{cols} grid")
        self._set(field, data, cols)

    def _set(self, field, data, cols):
        for name, value in (("field", field), ("data", data), ("rows", len(data)), ("cols", cols)):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, field, data, cols):
        # internal: data is a tuple of row tuples of canonical scalars, each
        # cols long
        m = object.__new__(cls)
        m._set(field, data, cols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        # pickle rebuilds it from its parts, not by setting its slots
        return ExactMatrix._raw, (self.field, self.data, self.cols)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field, self.cols, self.data) == (other.field, other.cols, other.data)

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        if self.rows * self.cols <= 16:
            body = ", ".join("[" + " ".join(map(str, r)) + "]" for r in self.data)
            return f"ExactMatrix({self.rows}x{self.cols} over {self.field}: {body})"
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field})"

    # -- structure -------------------------------------------------------

    def transpose(self):
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return ExactMatrix._raw(self.field, data, self.rows)

    def entries_rowmajor(self):
        return list(chain.from_iterable(self.data))

    # -- product ---------------------------------------------------------

    def __matmul__(self, other):
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        data = self.field.dot(self.data, other.transpose().data)
        return ExactMatrix._raw(self.field, data, other.cols)

    # -- rank / kernels --------------------------------------------------

    def rank(self):
        return self.field.rank(self.data)

    def corank(self):
        """rows - rank: the dimension of the left null space."""
        return self.rows - self.rank()

    def nullspace(self):
        """Deterministic basis of the right null space {x : A x = 0}: the
        images of the split of [A^T | I] at A's row count (_Field._split),
        as tuples of cols field scalars.

        Row i of [A^T | I] is column i of A, then the unit vector e_i, so
        a combination y of the rows reads (A y)^T on the left and y itself
        on the right: the images are an echelon basis of the y with
        A y = 0, their leading columns strictly increasing.  Over QQ
        _start scales each row, unit tail included, to a primitive
        integer row.
        """
        f, unit = self.field, [self.field.zero] * self.cols
        rows = f._start([[*col, *unit[:i], f.one, *unit[i + 1 :]]
                         for i, col in enumerate(self.transpose().data)])
        return [tuple(map(f.coerce, row)) for row in f._split(rows, self.rows)[1]]

    def invert(self):
        """Exact inverse of a square matrix; raises on singular input."""
        if self.rows != self.cols:
            raise DimensionMismatch(f"invert: {self.rows}x{self.cols} is not square")
        n = self.rows
        f = self.field
        pivots, rref = f.echelon(hstack([self, identity(f, n)]).data, reduced=True)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return ExactMatrix._raw(f, tuple(tuple(row[n:]) for row in rref), n)


# -- constructors ---------------------------------------------------------

# physical memory in bytes, where the platform reports it
_MEMORY = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf")
           else math.inf)


def _fits(m, n):
    """MemoryError, before any row is built, when an m x n matrix cannot
    fit in physical memory at one 8-byte reference per entry: built row
    by row, it would fill memory first."""
    if 8 * m * n > _MEMORY:
        raise MemoryError(f"a {m}x{n} matrix does not fit in memory")


def zeros(field, m, n):
    _fits(m, n)
    return ExactMatrix._raw(field, ((field.zero,) * n,) * m, n)


def _diagonals(field, n, values):
    # n x n, values[k] on the k-th superdiagonal and zero elsewhere
    _fits(n, n)
    return ExactMatrix._raw(field, tuple(tuple(values.get(j - i, field.zero) for j in range(n))
                                         for i in range(n)), n)


def identity(field, n):
    return _diagonals(field, n, {0: field.one})


def anti_identity(field, n):
    """Exchange matrix: ones on the anti-diagonal."""
    return ExactMatrix._raw(field, identity(field, n).data[::-1], n)


def jordan(field, n, lam):
    """Upper-triangular n x n Jordan block with eigenvalue lam."""
    return _diagonals(field, n, {0: field.coerce(lam), 1: field.one})


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
    data = tuple(tuple(chain.from_iterable(row)) for row in zip(*(b.data for b in blocks)))
    return ExactMatrix._raw(f, data, sum(b.cols for b in blocks))


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
    return ExactMatrix._raw(f, tuple(chain.from_iterable(b.data for b in blocks)), n)


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
    zero = w1.field.zero
    left, right = (zero,) * w1.cols, (zero,) * w2.cols
    data = tuple(r + right for r in w1.data) + tuple(left + r for r in w2.data)
    return ExactMatrix._raw(w1.field, data, w1.cols + w2.cols)


def random_matrix(field, m, n, rng):
    _fits(m, n)
    data = tuple(tuple(field.rand(rng) for _ in range(n)) for _ in range(m))
    return ExactMatrix._raw(field, data, n)


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
