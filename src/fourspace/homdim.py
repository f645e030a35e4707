"""Structured coefficient matrices for dim Hom(M, X), X indecomposable.

For each catalog family the relation system of oracle.py collapses to a
far smaller system  (y_1 ... y_r) * N = 0  in row variables y_i of width
n_0, where N is an almost block diagonal matrix over the letters
A, B, C, D of M (possibly negated or scaled by -lam).  dim Hom(M, X) is
then the corank of N.  Three special targets skip N entirely:

    [M, P(0,0)] = cor([A B C D]),   [M, I(0,0)] = n_0,   [M, I(0,i)] = n_i.

Every N follows one stacking scheme: a head block pattern in the top-left
corner, `reps` copies of a repeating pattern marching down the diagonal,
and a small overlap block W stitching neighbouring copies together.  The
three schemes differ only in where W sits relative to a copy:

    kind "M1": W left of each copy, in its first rows;
    kind "M2": W above each copy, in the previous copy's last rows;
    kind "M3": as "M2", plus one trailing W capping the last rows in
               fresh columns appended on the right.

Vertex-j targets with j > 1 and the exceptional tube arrangements reduce
to the j = 1 / (s, lam) = (0, 0) representative by permuting the slots of
M (hom(M, permute(X, sigma)) = hom(permute(M, sigma^-1), X)), so only
eight block patterns exist, tabulated in CASE_SPECS.

hom_dim(M, X) answers one target: it assembles N and takes its corank.

hom_vector(M, Xs) answers many, using the staircase the way SOLVEBLOK
(de Boor & Weiss, "SOLVEBLOK: a package for solving almost block diagonal
linear systems", ACM TOMS 6(1), 1980) does.  The matrix with k copies is a
leading block of the one with k + 1, so descriptors sharing (case key,
sigma, lam) differ only in k and share one pass.  Per group, M is
permuted once and the head, rep and W arrays are cut once from a small
window matrix (head, at most two copies, the cap), assembled by the same
cell writer and block-width check as N.  The pass runs a transfer
recursion towards the largest k asked for.  Its state is (z, S) for the
left kernel K_k = {y : y N_k = 0}: z counts the kernel vectors whose tail
(the last e block rows, which the next copy's W reaches) is zero, and S
is a basis of the tails of K_k.  Then dim K_k = z + rank S, and one step
takes the left kernel of [[S W], [rep]] and splits it the same way.
Every copy holds the same rep, W and tail size, so the forward echelon
basis B of [rep | E] (E the identity on the tail rows) is eliminated
once per group, and [W | 0] is reduced against B once: each row of B,
in pivot order, clears its pivot column from all rows of W together.
That makes the reduction one linear map WB, zero in every pivot column of
B.  A step multiplies only the rank S rows by WB, one product, and
eliminates that residual: at most e block rows, where the whole step had
rank S plus a copy's rows.  The rows of B and of the residual have
distinct pivots, so those whose pivot lies in the tail columns form the
next S.  Over QQ the window is written integral (the letters times one
common denominator and the coefficients 1 and -lam times another: a
nonzero multiple, which changes no kernel), so B, WB, S and every
product stay Python ints from the cell writer to the last rank, with no
reduced form and no Fraction.  WB is kept over the gcd of all its
entries, each elimination makes its rows primitive, and S stays as small
deep in the staircase as after its first steps instead of growing from
step to step.  A step depends on span(S) alone,
so the pass stops at the first step that returns the span it was given
and extrapolates: every later copy adds the same to z and keeps S.  When
the head pattern is the rep pattern, the head is one more copy from the
empty state, and B already folds it.  "M3" subtracts rank(S W_cap) for
the trailing cap.  "M1" runs the recursion on N^T, which stacks like
"M2", and uses cor(N) = rows(N) - cols(N) + dim K(N^T).

hom_dim keeps the one-matrix corank, the reference the tests hold
hom_vector to.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .catalog import (
    FAMILY_POSTPROJECTIVE,
    FAMILY_PREINJECTIVE,
    FAMILY_REGULAR_HOMOGENEOUS,
    InvalidParams,
    canonical_form,
    tube_lambda,
)
from .exactmat import ExactMatrix, _zero_array, hstack
from .modules import PERM_IDENTITY, perm_inverse, permute_vertices

# Cell grammar: None is a zero block; (letter, coeff) is coeff * letter with
# coeff 1, -1 or "-lam".  Kept as plain nested lists so tests can patch a
# single cell and watch the oracle cross-check catch it.


CASE_SPECS = {
    # P(n, 0), n >= 1
    "P0": {
        "kind": "M3",
        "head": [
            [("A", 1), None, ("B", 1), None, ("C", 1), ("D", 1)],
            [None, None, None, ("B", 1), None, ("D", -1)],
            [None, ("A", 1), None, None, ("C", -1), None],
        ],
        "rep": [
            [None, ("D", -1), None, ("B", 1)],
            [("C", -1), None, ("A", 1), None],
        ],
        "overlap": [
            [("C", 1), None],
            [None, ("D", 1)],
        ],
        "reps": lambda n: n - 1,
    },
    # P(2n+1, 1)
    "P_ODD": {
        "kind": "M3",
        "head": [
            [("A", 1), None, ("C", 1), ("D", 1)],
            [None, ("B", 1), None, ("D", -1)],
        ],
        "rep": [
            [("A", 1), None, ("C", 1), ("D", 1)],
            [None, ("B", 1), None, ("D", -1)],
        ],
        "overlap": [[("A", -1)]],
        "reps": lambda n: n,
    },
    # P(2n, 1)
    "P_EVEN": {
        "kind": "M1",
        "head": [[("B", 1), ("C", 1), ("D", 1)]],
        "rep": [
            [("C", 1), ("A", 1), None, None],
            [("C", -1), None, ("B", 1), ("D", 1)],
        ],
        "overlap": [[("D", -1)]],
        "reps": lambda n: n,
    },
    # I(n, 0), n >= 1
    "I0": {
        "kind": "M2",
        "head": [
            [("D", 1), ("C", 1), None, None],
            [None, ("C", -1), None, ("B", 1)],
            [("D", -1), None, ("A", 1), None],
        ],
        "rep": [
            [None, ("C", -1), None, ("B", 1)],
            [("D", -1), None, ("A", 1), None],
        ],
        "overlap": [
            [("D", 1), None],
            [None, ("C", 1)],
        ],
        "reps": lambda n: n - 1,
    },
    # I(2n+1, 1)
    "I_ODD": {
        "kind": "M2",
        "head": [[("A", 1)]],
        "rep": [
            [("C", 1), ("D", 1), None, ("B", 1)],
            [None, ("D", -1), ("A", 1), None],
        ],
        "overlap": [[("C", -1)]],
        "reps": lambda n: n,
    },
    # I(2n, 1), n >= 1
    "I_EVEN": {
        "kind": "M2",
        "head": [
            [("B", 1), None, ("D", 1)],
            [None, ("C", 1), ("D", -1)],
        ],
        "rep": [
            [("A", 1), ("B", 1), None, ("D", 1)],
            [None, None, ("C", 1), ("D", -1)],
        ],
        "overlap": [[("A", -1)]],
        "reps": lambda n: n - 1,
    },
    # R(l, lam); the even exceptional rows reuse it with lam := 0
    "R_EVEN": {
        "kind": "M2",
        "head": [
            [("D", 1), ("C", 1), ("B", 1), None],
            [("D", "-lam"), ("C", -1), None, ("A", 1)],
        ],
        "rep": [
            [("D", 1), ("C", 1), ("B", 1), None],
            [("D", "-lam"), ("C", -1), None, ("A", 1)],
        ],
        "overlap": [[("D", -1)]],
        "reps": lambda l: l - 1,
    },
    # R(0, 2l-1, 0)
    "R_ODD": {
        "kind": "M2",
        "head": [[("A", 1), ("C", 1)]],
        "rep": [
            [("B", 1), ("D", 1), None, ("A", 1)],
            [None, None, ("C", 1), ("A", -1)],
        ],
        "overlap": [[("B", -1)]],
        "reps": lambda l: l - 1,
    },
}


def _is_closed_form(desc):
    if desc.family == FAMILY_POSTPROJECTIVE:
        return desc.params == (0, 0)
    if desc.family == FAMILY_PREINJECTIVE:
        return desc.params[0] == 0
    return False


_LETTER_INDEX = {"A": 0, "B": 1, "C": 2, "D": 3}


def _layout(raw, reps):
    """Cell grid of the case matrix with `reps` copies of the rep pattern."""
    head, rep, overlap = raw["head"], raw["rep"], raw["overlap"]
    a, b = len(head), len(head[0])
    c, d = len(rep), len(rep[0])
    e = len(overlap)
    kind = raw["kind"]
    total_r = a + reps * c
    total_c = b + reps * d + (e if kind == "M3" else 0)

    cells = [[None] * total_c for _ in range(total_r)]

    def place(pattern, r0, c0):
        for i, row in enumerate(pattern):
            for j, cell in enumerate(row):
                if cell is not None:
                    cells[r0 + i][c0 + j] = cell

    place(head, 0, 0)
    for k in range(1, reps + 1):
        r0 = a + (k - 1) * c
        c0 = b + (k - 1) * d
        place(rep, r0, c0)
        if kind == "M1":
            place(overlap, r0, c0 - e)
        else:
            place(overlap, r0 - e, c0)
    if kind == "M3":
        place(overlap, total_r - e, b + reps * d)
    return cells


def _write(module, cells, lam, integral=False):
    """(array, column offsets) of a cell grid over the letters of module.

    Every block row is n_0 high; a block column is as wide as its letters,
    which must agree.  integral=True writes a nonzero multiple of the grid
    in the form field.integral gives: Python ints over QQ, the same
    residues over GF(p).
    """
    field = module.field
    mats = [x.data for x in module.mats()]
    widths = [None] * len(cells[0])
    for row in cells:
        for ccol, cell in enumerate(row):
            if cell is None:
                continue
            w = mats[_LETTER_INDEX[cell[0]]].shape[1]
            if widths[ccol] is None:
                widths[ccol] = w
            elif widths[ccol] != w:
                raise AssertionError(
                    f"inconsistent block widths in column {ccol}"
                )
    n0 = module.n0
    col0 = [0]
    for w in widths:
        col0.append(col0[-1] + (w or 0))

    one = field.one
    neg_lam = one if lam is None else field.reduce(-lam)
    shape = (len(cells) * n0, col0[-1])
    if integral:
        # every block is one coefficient times one letter: a scale for the
        # letters and one for the coefficients 1 and -lam scale them all
        mats, _ = field.integral(mats)
        (coeffs,), _ = field.integral([np.array([[one, neg_lam]], dtype=field.dtype)])
        one, neg_lam = coeffs.ravel().tolist()
        out = np.zeros(shape, dtype=field.dtype)
    else:
        out = _zero_array(field, *shape)

    def block(letter, coeff):
        base = mats[_LETTER_INDEX[letter]]
        if coeff == "-lam":
            return field.reduce(neg_lam * base)
        if one != 1:
            base = field.reduce(one * base)
        return base if coeff == 1 else field.reduce(-base)

    blocks = {cell: block(*cell) for row in cells for cell in row if cell is not None}
    for r, row in enumerate(cells):
        for ccol, cell in enumerate(row):
            if cell is not None:
                out[r * n0 : (r + 1) * n0, col0[ccol] : col0[ccol + 1]] = blocks[cell]
    return out, col0


def _case(field, desc):
    """(case key, sigma, parameter, lam in field) for a matrix-route desc.

    sigma carries desc to its representative (vertex 1, or tube (0, 0)),
    whose family and parity pick one of the eight patterns.
    """
    if _is_closed_form(desc):
        raise InvalidParams(
            f"{desc.label()} has a closed-form dimension; no coefficient matrix"
        )
    rep_desc, sigma = canonical_form(desc)
    fam, params = rep_desc.family, rep_desc.params
    if fam == FAMILY_POSTPROJECTIVE:
        n, j = params
        if j == 0:
            return "P0", sigma, n, None
        return ("P_ODD" if n % 2 else "P_EVEN"), sigma, n // 2, None
    if fam == FAMILY_PREINJECTIVE:
        n, j = params
        if j == 0:
            return "I0", sigma, n, None
        return ("I_ODD" if n % 2 else "I_EVEN"), sigma, n // 2, None
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        l, lam = params
        return "R_EVEN", sigma, l, tube_lambda(field, lam)
    # exceptional tube: even m reuses R_EVEN with lam := 0
    _, m, _ = params
    if m % 2 == 0:
        return "R_EVEN", sigma, m // 2, field.zero
    return "R_ODD", sigma, (m + 1) // 2, None


def _unpermute(M, sigma):
    return M if sigma == PERM_IDENTITY else permute_vertices(M, perm_inverse(sigma))


def coeff_matrix(M, desc):
    """The coefficient matrix N with [M, X_desc] = cor(N).

    Raises InvalidParams for the closed-form targets P(0,0), I(0,0) and
    I(0,i); hom_dim covers those directly.
    """
    key, sigma, param, lam = _case(M.field, desc)
    raw = CASE_SPECS[key]
    data, _ = _write(_unpermute(M, sigma), _layout(raw, raw["reps"](param)), lam)
    return ExactMatrix._raw(M.field, data)


def hom_dim(M, desc):
    """dim Hom(M, X_desc), by closed form or corank of the case matrix."""
    if _is_closed_form(desc):
        if desc.family == FAMILY_POSTPROJECTIVE:  # P(0,0)
            return hstack(M.mats()).corank()
        return M.dim_vector()[desc.params[1]]  # I(0,j)
    return coeff_matrix(M, desc).corank()


def _augment(x, t):
    """[x | E], E the identity on the last t rows of x, in x's dtype."""
    m, n = x.shape
    aug = np.zeros((m, n + t), dtype=x.dtype)
    aug[:, :n] = x
    np.fill_diagonal(aug[m - t :, n:], 1)
    return aug


def _fold(field, x, t):
    """Left kernel of x, split at its last t rows (the tail).

    Returns (z, s): z is the dimension of the kernel vectors whose tail is
    zero, s an echelon basis of the tails of all kernel vectors.  One
    elimination of [x | E], E the identity on the tail rows, gives both:
    its row space is {(y x, y_tail)}, so the echelon rows past the pivots
    of x span {(0, y_tail) : y x = 0}, and rows without a pivot count z.
    The head of the staircase is folded this way, unless it is a copy of
    the rep pattern; each copy reuses one forward basis of [rep | E] (see
    _staircase_coranks).
    """
    m, n = x.shape
    pivots, ech = field.echelon(_augment(x, t))
    return m - len(pivots), ech[bisect_left(pivots, n) : len(pivots), n:]


def _reduce_rows(field, w, pivots, basis):
    """w reduced against the forward echelon rows basis: one linear map.

    Each basis row B_i, in pivot order, clears its pivot column c_i from
    every row of w at once: w := B_i[c_i] w - w[:, c_i] B_i, over QQ
    then divided by the gcd of all its entries (field.primitive).  B_i is
    zero left of c_i, so the columns already cleared stay zero, and w ends
    up zero in every pivot column.  Every row of w is scaled alike, so the
    result is c w - X B for one nonzero scalar c.
    """
    for c, row in zip(pivots, basis):
        # every pivot is 1 over GF(p), and then w needs no scaling
        scaled = w if row[c] == 1 else row[c] * w
        w = field.primitive(field.reduce(scaled - w[:, c, None] * row))
    return w


def _same_span(field, s, s_next):
    """Whether the echelon bases s and s_next span one row space.

    The rows of each are independent, so equal lengths and a rank of that
    length for the two stacked decide it exactly.  Comparing the arrays
    would not: a forward echelon form is not canonical, so one span has
    many.
    """
    return len(s) == len(s_next) and field.rank(np.vstack([s, s_next])) == len(s)


def _staircase_coranks(M, raw, lam, wanted):
    """{reps: corank of the case matrix with reps copies} for reps in wanted.

    One transfer recursion from the head towards max(wanted) copies; the
    state (z, s) is _fold's split of the left kernel of the matrix so far,
    whose last e block rows meet the next copy's columns through W.

    Every copy holds the same rep block R, overlap W and tail size t, so
    the forward echelon basis B of [R | E] (pivot columns P) is
    eliminated once, and _reduce_rows turns [W | 0] into
    WB = c [W | 0] - X B, zero in every column of P, for one nonzero
    scalar c.  A step adds the rows [s W | 0] to the rows of B.  Reduced
    against B they are s WB / c, which vanishes in the columns P (echelon
    skips zero columns); one elimination of that product, len(s) rows,
    gives the rank the step adds beyond rank B.  The rows of B and of that
    elimination have distinct pivots, so those whose pivot lies in the
    tail columns form the next s.  That needs every row of B in WB, those
    with a pivot in the tail columns too, or the residual could take a
    pivot of B again; and one c for all rows, since rows scaled each by
    their own factor (a diagonal D) would give s D WB, whose span is not
    that of s WB.  The window is written integral (field.integral), so
    over QQ B, s, WB and every product are Python ints, and no
    elimination builds Fractions.

    A step is a function of span(s) alone: it adds
    len(s) + rows(R) - rank B - rank(s WB) to z and maps the span to the
    next one.  So once a step returns the span it was given (_same_span),
    every later copy adds the same to z and keeps the span, and with it
    the "M3" cap's rank: the recursion stops there, and the deeper coranks
    follow by adding that step's increase per copy.  When the head
    pattern is the rep pattern (P_ODD, R_EVEN), the head is one more copy
    from the empty state, and its fold is B's own: z = rows(R) - rank B
    and s the tails of B.
    """
    field = M.field
    kind = raw["kind"]
    top = max(wanted)
    # head, two copies and the cap already meet every block-column width
    # constraint that more copies repeat
    win = min(top, 2)
    data, col0 = _write(M, _layout(raw, win), lam, integral=True)
    a, b = len(raw["head"]), len(raw["head"][0])
    c, d = len(raw["rep"]), len(raw["rep"][0])
    e = len(raw["overlap"])
    row0 = [i * M.n0 for i in range(a + win * c + 1)]
    if kind == "M1":
        # N^T stacks like "M2": W above each copy, in the last e block
        # columns of N's previous segment
        data, row0, col0 = data.T, col0, row0
        a, b, c, d = b, a, d, c

    def block(r0, r1, c0, c1):
        return data[row0[r0] : row0[r1], col0[c0] : col0[c1]]

    def corank(z, s, rows, cols):
        cor = z + len(s)
        if kind == "M3":
            r, q = a + win * c, b + win * d
            cor -= field.rank(field.intdot(s, block(r - e, r, q, q + e)))
        if kind == "M1":
            # cor(N) = rows(N) - rank(N^T) = cols(N^T) - rows(N^T) + dim K(N^T)
            cor += cols - rows
        return cor

    head = block(0, a, 0, b)
    rows, cols = head.shape
    if not top:
        return {0: corank(*_fold(field, head, row0[a] - row0[a - e]), rows, cols)}
    # every copy reads as copy 1 of the window: W in the head's last e
    # block rows, R in its own rows
    rep = block(a, a + c, b, b + d)
    m, n = rep.shape
    t = row0[a + c] - row0[a + c - e]
    pivots, ech = field.echelon(_augment(rep, t))
    basis = ech[: len(pivots)]
    w = np.zeros((t, n + t), dtype=data.dtype)
    w[:, :n] = block(a - e, a, b, b + d)
    wb = _reduce_rows(field, w, pivots, basis)
    basis_tails = basis[bisect_left(pivots, n) :, n:]
    if raw["head"] == raw["rep"]:
        z, s = m - len(pivots), basis_tails
    else:
        z, s = _fold(field, head, row0[a] - row0[a - e])
    out = {0: corank(z, s, rows, cols)} if 0 in wanted else {}
    for k in range(1, top + 1):
        res_pivots, res = field.echelon(field.intdot(s, wb))
        dz = len(s) + m - len(pivots) - len(res_pivots)
        s_next = np.vstack([basis_tails, res[bisect_left(res_pivots, n) : len(res_pivots), n:]])
        z, rows, cols = z + dz, rows + m, cols + n
        if k < top and _same_span(field, s, s_next):
            # fixed point: each further copy adds dz, and "M1" its
            # cols - rows, to the corank
            cor = corank(z, s_next, rows, cols)
            per_copy = dz + (n - m if kind == "M1" else 0)
            out.update((j, cor + (j - k) * per_copy) for j in wanted if j >= k)
            return out
        s = s_next
        if k in wanted:
            out[k] = corank(z, s, rows, cols)
    return out


def hom_vector(M, descs):
    """[hom_dim(M, d) for d in descs], one transfer recursion per case.

    Descriptors sharing (case key, sigma, lam) share one staircase, so one
    pass up to their largest parameter answers all of them.
    """
    out = [None] * len(descs)
    groups = {}
    for i, d in enumerate(descs):
        if _is_closed_form(d):
            out[i] = hom_dim(M, d)
            continue
        key, sigma, param, lam = _case(M.field, d)
        groups.setdefault((key, sigma, lam), []).append((i, param))
    for (key, sigma, lam), members in groups.items():
        raw = CASE_SPECS[key]
        reps = [raw["reps"](param) for _, param in members]
        values = _staircase_coranks(_unpermute(M, sigma), raw, lam, set(reps))
        for (i, _), r in zip(members, reps):
            out[i] = values[r]
    return out
