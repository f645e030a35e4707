"""Ground-truth Hom computation by brute-force linear algebra.

A homomorphism F: M -> X is a 5-tuple of matrices (F_0, ..., F_4), with
F_v of shape m_v x n_v (m = dim X, n = dim M), satisfying

    F_0 A = A' F_1,   F_0 B = B' F_2,   F_0 C = C' F_3,   F_0 D = D' F_4

where (A, B, C, D) belong to M and the primed matrices to X.  Flattening
every F_v row-major, F_0 block first, turns the four relations into one
linear system; dim Hom(M, X) is its nullity.  With row-major vec,

    vec(F_0 L_M) = (I_{m_0} kron L_M^T) vec F_0,
    vec(L_X F_t) = (L_X kron I_{n_t}) vec F_t,

so relation t (L = A, B, C, D for t = 1..4) is the block row
[I kron L_M^T, 0, .., -(L_X kron I), .., 0] of m_0 * n_t equations, with
the second block in the columns of F_t.  hom_system writes that plain
system row by row, each entry by its rule, with no Kronecker product
formed.  Its unknown count is the sum of m_v * n_v: it is the
slow route, kept as the independent reference for the structured
formulas in homdim.

hom_oracle takes the same nullity without writing the system.  The F_t
columns meet relation t alone.  Forward elimination of [L_X | I_{m_0}]
gives an invertible E with E L_X = [R; 0], R of full row rank
r_t = rank L_X; the rows of E below R are C_t, an echelon basis of X's
left kernel.  The row operations E kron I_{n_t} turn relation t into

    [E_R kron L_M^T | -(R kron I)]   over   [C_t kron L_M^T | 0]

(E_R the rows of E above C_t): r_t * n_t rows independent in the F_t
columns, which no other relation's rows share, and rows in F_0's
columns alone.  So

    dim Hom(M, X) = sum_v m_v n_v - sum_t r_t n_t
                    - rank(stack_t C_t kron L_M^T),

and only that residual, m_0 * n_0 columns wide, is left.  Its rows span
sum_t K_t kron W_t, K_t the row space of C_t (X's left kernel of letter
t, in k^{m_0}) and W_t = im L_M^t (in k^{n_0}).

Any two subspaces can be put in coordinate position at once (Halmos,
"Two subspaces", Trans. AMS 144, 1969), and three subspaces have finite
type (D4; Gelfand & Ponomarev 1970, Gabriel 1972): in a suitable basis
each basis vector spans a line, in the subspaces of one letter set S of
{p, q, r} and no other, or is a half of a plane, whose halves a and b
lie in U_p and U_q and whose sum a + b lies in U_r.  The four-subspace problem is hard
only from the fourth one on.  Which three are framed is free: the four
relations are interchangeable, and hom(M, sigma X) = hom(sigma^-1 M, X)
for any permutation sigma of the slots.  A pairing names the three
framed relations p, q, r and the written one, s, and each side is
written in that basis (_frame): X's K_t and M's W_t.  There
V = sum_t K_t kron W_t over t = p, q, r is a direct sum of blocks, one
per line or plane of X times one of M, and the blocks' quotients by V
have bases read off their kinds alone.  With u and w the coordinates of
a vector of k^{m_0} and of k^{n_0}, and S, S' the letter sets of X's
and of M's lines, the quotient keeps

    line x line:    u_i w_j if S and S' are disjoint, else nothing;
    line x plane:   u_i w_a' and u_i w_b' for S empty, u_i w_b' for {p},
                    u_i w_a' for {q}, u_i (w_a' - w_b') for {r}, else
                    nothing;
    plane x line:   the same with the roles swapped;
    plane x plane:  u_a w_b' - u_b w_a'.

(In a plane x plane block, K_p kron W_p and K_q kron W_q are a kron a'
and b kron b', and K_r kron W_r adds a kron b' + b kron a'.)  So V has
dimension m_0 n_0 - width, width the number of those columns, and

    dim Hom(M, X) = sum_v m_v n_v - sum_t r_t n_t - (m_0 n_0 - width)
                    - rank(u kron w, u in K_s', w in W_s', in the kept
                           columns),

K_s' and W_s' bases of K_s and W_s in the two frames: the rank of
K_s kron W_s modulo V.  Any bases give that rank: for a fixed u the rows
u kron w span u kron W_s under any basis of W_s, and the same holds for
w.  So both are reduced echelon bases, each row zero at the other rows'
pivots and over GF(p) leading with 1, which writes sparser rows.
Relations p, q and r need no elimination at all, and only relation s is
written.  Its rows number |K_s| |W_s|, so the source writes the letter
of M with the smallest image.

M's pairing holds for every target, so each side is prepared once:
_source(M) gives the pairing, n, the frame of the W_t, eliminating the
columns of each L_M^t (_Field._eliminate), and each row of W_s' cut to
the columns each class of X keeps; _target(X) gives m, the r_t and the
K_t, splitting [L_X | I] (_Field._split), and a table of frames.
_nullity reads the target's template in M's pairing through _framed,
which frames the K_t the first time a pairing is asked for and keeps, in
the target, the frame's counts and each row of K_s' as its nonzeros,
each by its class of the frame and its index there.  _nullity writes
the kept rows from the two sides, each block of a row at an offset the
counts and the source's kept widths give, and ranks them with the same
loop, which stops once every column holds a pivot; hom_oracle is that
composition.  verify.oracle_vector, which run_sweep and `homdim
--oracle` call, prepares M once and each target once per process, in
one bounded cache, so each target is framed once per pairing its
sources ask for: _source's pairing is a function of s, so at most four
templates.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate
from operator import mul

from .exactmat import ExactMatrix, _check_same_field, hstack, identity
from .modules import dim_vector


class HomSystem(namedtuple("HomSystem", "matrix offsets source_dim target_dim")):
    """Linearized commutativity relations for a pair (M, X).

    matrix has one row per scalar equation and one column per unknown;
    offsets[v] is the column where the flattened F_v block starts, and
    offsets[5] is the total unknown count.
    """

    __slots__ = ()


def hom_system(M, X):
    """Assemble the full relation system as an ExactMatrix (for inspection).

    Relation t's rows are (a, b) for the entry (a, b) of F_0 L_M - L_X F_t,
    a < m_0 and b < n_t, in that order.  Row (a, b) holds L_M[k][b] in
    F_0's column (a, k), -L_X[a][i] in F_t's column (i, b), and zero
    elsewhere: each entry is written by its rule, with no Kronecker
    product.
    """
    _check_same_field(M.field, X.field)
    field = M.field
    n, m = dim_vector(M), dim_vector(X)
    offsets = tuple(accumulate((m[v] * n[v] for v in range(5)), initial=0))
    rows = []
    for t, (lm, lx) in enumerate(zip(M.mats(), X.mats()), start=1):
        columns = lm.transpose().data
        for a, lx_row in enumerate(lx.data):
            negated = [field.reduce(-x) for x in lx_row]
            for b in range(n[t]):
                row = [field.zero] * offsets[5]
                row[a * n[0] : (a + 1) * n[0]] = columns[b]
                row[offsets[t] + b : offsets[t + 1] : n[t]] = negated
                rows.append(tuple(row))
    return HomSystem(matrix=ExactMatrix._raw(field, tuple(rows), offsets[5]), offsets=offsets,
                     source_dim=n, target_dim=m)


def _lead(row):
    # the column of a nonzero row's first nonzero entry
    return next(c for c, x in enumerate(row) if x)


def _frame(field, d, spaces):
    """Subspaces U_p, U_q, U_r, U_s of k^d, in that order, echelon bases
    as working rows, in a three-subspace basis of the first three:
    (counts, U_s'), U_s' reduced.

    The basis lists nine classes of vectors in turn: the lines of each
    letter set S of {p, q, r} (bit 0 for p, 1 for q, 2 for r), S = 0 to
    7, then the U_p halves a of the planes and their U_q halves b, in
    plane order; counts holds the nine numbers, the planes' last.  U_p is
    spanned by the lines with p in S and the a, U_q by those with q and
    the b, and U_r by those with r and the sums a + b.

    First the two-subspace basis Q.  One split (field._split) of
    [[U_p | U_p]; [U_q | 0]] at d gives U_p∩U_q as its images
    (Zassenhaus), and its rows, eliminated in place, U_p+U_q's pivots.
    U_p∩U_q's pivots are a subset of U_p's and of U_q's, so it and the
    rows of U_p's basis and of U_q's whose pivot none of its rows has
    span U_p and U_q, and the unit vectors of the columns that are no
    pivot of U_p+U_q complete them.  Q lists them by place: place 3 the
    unit vectors, place 1 U_p's rows, place 2 U_q's and place 0 U_p∩U_q.
    In Q's coordinates U_p is places 0 and 1 and U_q places 0 and 2, so
    U_r met with a sum or meet of them is U_r with some places zero.

    The split of [[Q | I]; [U_r | 0]] at d gives an echelon basis R of
    span(U_r Q^-1), with no inverse formed; for U_r = k^d, R is the unit
    vectors, with no split.  R's columns run by place in the order 3, 1,
    2, 0, so its rows whose pivot is in place 3 are the lines {r}, and
    the others span U_r∩(U_p+U_q): those with a pivot in place 2 or 0
    span U_r∩U_q, and those in place 0 U_r∩U_p∩U_q, which gives the
    lines {q, r} and {p, q, r}.  The others once more, places 2, 1, 0 in
    that order, eliminated (field._eliminate), give the lines {p, r}: the
    rows with a pivot in place 1, U_r∩U_p modulo U_r∩U_p∩U_q.  A row c of
    R with a pivot in place 1 at a column that no {p, r} row leads is a
    plane, a = c with place 2 cleared and b = c's place 2, so that
    a + b = c is in U_r: the place-1 parts of such rows complete those of
    U_r∩U_p, so the planes complete U_r∩U_p + U_r∩U_q in U_r∩(U_p+U_q).
    Each place is then completed with Q's vectors at the columns no line
    or half of it leads, place 2 by the second elimination's pivots: the
    lines of the sets with no r.  A line or half from R is written in k^d
    as its coordinates times Q.

    U_s' is the images of the split of [[basis | I]; [U_s | 0]] at d,
    eliminated once more, reduced (field._eliminate): its rows are
    already echelon, so the pass only clears each row at the others'
    pivots, and over GF(p) leaves each with a leading 1.  Any basis of
    the span serves _nullity; a reduced one gives it sparser rows.
    """
    u1, u2, u3, u4 = spaces
    zero = [0] * d
    rows = [u + u for u in u1] + [u + zero for u in u2]
    meet = field._split(rows, d)[1]
    pivots = {_lead(u) for u in meet}
    spanned = {_lead(row) for row in rows[: len(rows) - len(meet)]}
    eye = [zero[:c] + [1] + zero[c + 1 :] for c in range(d)]
    places = ([eye[c] for c in range(d) if c not in spanned],
              [u for u in u1 if _lead(u) not in pivots], [u for u in u2 if _lead(u) not in pivots], meet)
    e1, e2, e3 = accumulate(map(len, places[:3]))
    a1, a2 = e2 - e1, e3 - e2
    q = [v for place in places for v in place]
    if len(u3) == d:
        r = eye
    else:
        r = field._split([v + e for v, e in zip(q, eye)] + [u + zero for u in u3], d)[1] if u3 else []
    leads = [_lead(y) for y in r]
    held = set(leads)
    pr = [y[e2:e3] + y[e1:e2] + y[e3:] for y, c in zip(r, leads) if c >= e1]
    found = field._eliminate(pr)
    cols = list(zip(*q))

    def vec(y):
        return [field.reduce(sum(map(mul, y, col))) for col in cols]

    def lines(lo, hi):
        return [vec(y) for y, c in zip(r, leads) if lo <= c < hi]

    planes = [y for y, c in zip(r, leads) if e1 <= c < e2 and c - e1 + a2 not in found]
    classes = ([q[c] for c in range(e1) if c not in held], [q[c] for c in range(e1, e2) if c not in held],
               [q[c] for c in range(e2, e3) if c - e2 not in found],
               [q[c] for c in range(e3, d) if c not in held], lines(0, e1),
               [vec(zero[:e1] + y[a2 : a2 + a1] + y[:a2] + y[a2 + a1 :])
                for y, c in zip(pr, found) if a2 <= c < a2 + a1], lines(e2, e3), lines(e3, d),
               [vec(y[:e2] + zero[e2:e3] + y[e3:]) for y in planes],
               [vec(zero[:e2] + y[e2:e3] + zero[e3:]) for y in planes])
    basis = [v for cls in classes for v in cls]
    coords = field._split([v + e for v, e in zip(basis, eye)] + [u + zero for u in u4], d)[1] if u4 else []
    field._eliminate(coords, reduced=True)
    return tuple(map(len, classes[:9])), coords


def _target(X):
    """X's side of every relation: (m, [r_1, .., r_4], [C_1, .., C_4],
    frames), frames empty until _framed fills it.

    X's letters are read once, as the working rows (field._start) of
    [A' B' C' D' I]; over QQ in one integral scale, each row primitive.
    Relation t cuts [L_X | I] from them and splits it at L_X's width m_t
    (field._split): the images are an echelon basis C_t of K_t, and
    r_t = m_0 - len(C_t) = rank L_X, since [L_X | I] has full row rank.
    """
    field = X.field
    m = dim_vector(X)
    letters = field._start(hstack([*X.mats(), identity(field, m[0])]).data)
    ident = sum(m[1:])
    kernels = []
    c1 = 0
    for t in range(1, 5):
        c0, c1 = c1, c1 + m[t]
        kernels.append(field._split([row[c0:c1] + row[ident:] for row in letters], m[t])[1])
    return m, [m[0] - len(k) for k in kernels], kernels, {}


def _framed(field, target, pairing):
    """A _target's left kernels in a pairing (p, q, r, s), as the template
    _nullity writes its rows from: (counts, T_s).  The counts are those of
    the _frame of the K_t in k^{m_0}, in the pairing's order.  T_s lists,
    for each row u of the reduced basis K_s' in that frame, u's nonzeros
    by class: (i, S, u_i, 0) for the line i of class S (0 to 7), and for
    the plane i, with u_a and u_b the coordinates of its halves,
    (i, 8, u_a, u_b) where u_a is nonzero and else (i, 9, u_b, 0): 8 and
    9 name the source's cuts A and B.

    The template is made the first time its pairing is asked for and
    kept in the target's frames, keyed by the pairing, as decomp._plan
    keeps its rows; the kernels are only read, so one target serves every
    pairing.  _source's pairings are a function of s alone, so a target
    that only its sources read keeps at most four.
    """
    m, _, kernels, frames = target
    frame = frames.get(pairing)
    if frame is None:
        a, span = _frame(field, m[0], [kernels[t] for t in pairing])
        lines = sum(a[:8])
        places = [(i, k) for k in range(8) for i in range(a[k])]
        frame = frames[pairing] = a, [
            [(*places[x], c, 0) for x, c in enumerate(u[:lines]) if c]
            + [(i, 8, c, c2) if c else (i, 9, c2, 0)
               for i, (c, c2) in enumerate(zip(u[lines : lines + a[8]], u[lines + a[8] :])) if c or c2]
            for u in span]
    return frame


def _source(M, pairing=None):
    """M's side of every relation: (pairing, n, counts, kept, cuts).

    M's letters are read once, as the working rows of their columns,
    stacked; over QQ in one integral scale, each row primitive.  B_t is
    L_M^t's columns forward-eliminated (field._eliminate) and cut to the
    pivot rows: an echelon basis of W_t = im L_M^t.  Zero and dependent
    columns drop out there.

    The four relations are interchangeable, so any three may be framed.
    pairing lists the three framed slots p, q, r (0 for A to 3 for D),
    then the written one, s; by default s is the letter with the smallest
    image, ties to the higher slot, and p, q, r are the other three in
    slot order.  The residual that _nullity ranks has |K_s| |W_s| rows,
    so writing the smallest W_s leaves the fewest.  The W_t are framed
    (_frame) in that pairing, counts being the frame's nine class counts,
    and each row w of W_s' is cut once for each class of X, into the
    columns that class keeps (see the module docstring): for a line
    class S, w's entries at M's lines of sets disjoint from S, then at
    M's planes (w_a and w_b for S empty, w_b for {p}, w_a for {q},
    w_a - w_b for {r}); for X's planes two cuts, A(w) and B(w), a plane's
    block being u_a A(w) + u_b B(w).  kept holds the ten widths, A's and
    B's equal.
    """
    field = M.field
    n = dim_vector(M)
    columns = field._start([c for y in M.mats() for c in y.transpose().data])
    bases = []
    b1 = 0
    for t in range(1, 5):
        b0, b1 = b1, b1 + n[t]
        rows = columns[b0:b1]
        bases.append(rows[: len(field._eliminate(rows))])
    if pairing is None:
        s = min(range(3, -1, -1), key=lambda t: len(bases[t]))
        pairing = (*(t for t in range(4) if t != s), s)
    b, span = _frame(field, n[0], [bases[t] for t in pairing])
    ends = list(accumulate((*b, b[8]), initial=0))
    disjoint = [[i for t in range(8) if not k & t for i in range(ends[t], ends[t + 1])] for k in range(8)]
    gap = [[0] * k for k in b[:3]]
    minus = field.reduce(-1)

    def cut(w):
        w0, w1, w2, w4, wa, wb = (w[ends[k] : ends[k + 1]] for k in (0, 1, 2, 4, 8, 9))
        planes = (wa + wb, wb, wa, [], [field.reduce(x - y) for x, y in zip(wa, wb)], [], [], [])
        return (*([w[i] for i in keep] + extra for keep, extra in zip(disjoint, planes)),
                w0 + gap[0] + gap[1] + w2 + w4 + wb, gap[0] + w0 + w1 + gap[2] + field._scaled(w4 + wa, minus))

    kept = [len(x) for x in cut([0] * n[0])]
    return pairing, n, b, kept, [cut(w) for w in span]


def _nullity(field, source, target):
    """dim Hom(M, X) from _source(M) and _target(X), over field, with X's
    template in the source's pairing read through _framed.

    The columns kept of k^{m_0} kron k^{n_0} modulo the three framed
    relations run by X's class, then by the line or plane within it: the
    a_k of class k (a the target's counts) hold a_k kept[k] columns from
    base[k], the sum of those before, and the one at index i its kept[k]
    from base[k] + i kept[k]; width is their sum, so the framed relations
    span m_0 n_0 - width.  Row (u, w) is u kron w in those columns: for
    each entry (i, k, c, c2) of u's template, c times the cut k of w
    (field._scaled, where c is not 1), plus c2 times its cut B for a plane
    with both halves nonzero; a u that is nonzero only where nothing is
    kept gives zero rows, which are left out.  Over QQ a row may share a
    factor; _eliminate takes it as it is, since nonzero scales of rows
    leave every rank alone.  Neither side's rows are written, so each may
    serve many pairs; the target keeps the template of the source's
    pairing.
    """
    (pairing, n, _, kept, cuts), (m, ranks, _, _) = source, target
    a, template = _framed(field, target, pairing)
    base = list(accumulate(map(mul, a, kept), initial=0))
    width = base.pop()
    nullity = sum(map(mul, m, n)) - sum(map(mul, ranks, n[1:])) - m[0] * n[0] + width
    if not width:
        return nullity
    base.append(base[8])  # a plane's cut B writes the plane's block
    residual = []
    for u in template:
        blocks = [(base[k] + i * w, base[k] + (i + 1) * w, k, c, c2) for i, k, c, c2 in u
                  if (w := kept[k])]
        if not blocks:
            continue
        for cut in cuts:
            out = [0] * width
            for s, e, k, c, c2 in blocks:
                x = cut[k] if c == 1 else field._scaled(cut[k], c)
                out[s:e] = [field.reduce(y + z) for y, z in zip(x, field._scaled(cut[9], c2))] if c2 else x
            residual.append(out)
    return nullity - len(field._eliminate(residual))


def hom_oracle(M, X):
    """dim Hom(M, X), the nullity of hom_system's matrix, with each
    relation's F_t columns eliminated once (see the module docstring):
    _nullity of _source(M) and a fresh _target(X), framed once, in the
    source's pairing."""
    _check_same_field(M.field, X.field)
    return _nullity(M.field, _source(M), _target(X))


def hom_basis(M, X):
    """Basis of Hom(M, X), each element a 5-tuple (F_0, ..., F_4)."""
    system = hom_system(M, X)
    n, m, off = system.source_dim, system.target_dim, system.offsets
    out = []
    for vec in system.matrix.nullspace():
        # F_v is vec[off[v] : off[v + 1]], row-major, m_v rows of n_v
        out.append(tuple(
            ExactMatrix._raw(M.field, tuple(vec[off[v] + i * n[v] : off[v] + (i + 1) * n[v]]
                                            for i in range(m[v])), n[v])
            for v in range(5)
        ))
    return out


def check_hom(M, X, mats):
    """True iff the 5-tuple mats satisfies all four relations exactly."""
    f0 = mats[0]
    for t in range(1, 5):
        if f0 @ M.mats()[t - 1] != X.mats()[t - 1] @ mats[t]:
            return False
    return True
