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
"Two subspaces", Trans. AMS 144, 1969); the four-subspace problem is hard
only from the third one on.  Which two is free: the four relations are
interchangeable, and hom(M, sigma X) = hom(sigma^-1 M, X) for any
permutation sigma of the slots.  A pairing names the two framed
relations p, q and the other two, r, s.  Each side is written in a basis
Q whose first a0 vectors span U_p∩U_q, the first a0 + a1 span U_p, and
the first a0 with the next a2 span U_q (_frame).  In the two bases
K_p kron W_p + K_q kron W_q is spanned by the unit tensors of a
coordinate set P, with S_p, T_p and S_q, T_q the coordinates of K_p, W_p
and K_q, W_q:

    P = S_p x T_p  u  S_q x T_q,
    |P| = (a0+a1)(b0+b1) + (a0+a2)(b0+b2) - a0 b0,

since (K_p kron W_p) ∩ (K_q kron W_q) = (K_p∩K_q) kron (W_p∩W_q).  So

    dim Hom(M, X) = sum_v m_v n_v - sum_t r_t n_t - |P|
                    - rank(u kron w, u in K_t', w in W_t', t = r, s,
                           cut to the columns outside P),

K_t' and W_t' bases of K_t and W_t in the two frames.  Any bases give
that rank: for a fixed u the rows u kron w span u kron W_t under any
basis of W_t, and the same holds for w.  So both are reduced echelon
bases, each row zero at the other rows' pivots and over GF(p) leading
with 1, which writes sparser rows.  Relations p and q need no
elimination at all, and only relations r and s are written.  Their rows
number sum_t |K_t| |W_t| over t = r, s, so the source frames the two
letters of M with the largest images.

M's pairing holds for every target, so each side is prepared once:
_source(M) gives the pairing, n, the frame of the W_t, eliminating the
columns of each L_M^t (_Field._eliminate), and each row of W_r', W_s'
cut to the column sets _nullity keeps; _target(X) gives m, the r_t and
the K_t, splitting [L_X | I] (_Field._split), and a table of frames.
_nullity reads the target's template in M's pairing through _framed,
which frames the K_t the first time a pairing is asked for and keeps, in
the target, the frame's counts and each row of K_r', K_s' as its
nonzeros, each by its block of the frame and its index there.  _nullity
writes the cut rows from the two sides, each block of a row at an offset
the counts and the source's cut widths give, and ranks them with the
same loop, which stops once every column holds a pivot; hom_oracle is
that composition.  verify.oracle_vector, which run_sweep and `homdim
--oracle` call, prepares M once and each target once per process, in
one bounded cache, so each target is framed once per pairing its
sources ask for: at most six templates.
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
    """Subspaces U_1..U_4 of k^d, echelon bases as working rows, in the
    two-subspace basis of the first two: ((a0, a1, a2), [U_3', U_4']),
    U_3' and U_4' reduced.  Callers pass a pairing's order, the framed two
    first.

    The basis Q stacks an echelon basis of U_1∩U_2 (a0 rows), the rows of
    U_1's basis and of U_2's whose pivot no row of U_1∩U_2 has (a1 and a2
    rows), then the unit vectors of the columns that are no pivot of
    U_1+U_2.  U_1∩U_2's pivots are a subset of U_1's and of U_2's, so the
    first a0 + a1 rows are a basis of U_1, the first a0 and the next a2
    one of U_2, and all d a basis of k^d.  In those coordinates U_1 and U_2
    are spanned by unit vectors.

    One split (field._split) of [[U_1 | U_1]; [U_2 | 0]] at d gives
    U_1∩U_2 as its images (Zassenhaus), and its rows, eliminated in place,
    U_1+U_2's pivots: the first |U_1| + |U_2| - a0.  U_t' is the images of
    the split of [[Q | I]; [U_t | 0]] at d, an echelon basis of
    span(U_t Q^-1), formed with no inverse.  Each split writes its own
    rows of [Q | I], since the elimination works on its rows in place.
    Each U_t' is then eliminated once more, reduced (field._eliminate):
    its rows are already echelon, so the pass only clears each row at the
    others' pivots, and over GF(p) leaves each with a leading 1.  Any
    basis of the span serves _nullity; a reduced one gives it sparser
    rows.
    """
    u1, u2, *rest = spaces
    zero = [0] * d
    rows = [u + u for u in u1] + [u + zero for u in u2]
    meet = field._split(rows, d)[1]
    counts = (len(meet), len(u1) - len(meet), len(u2) - len(meet))
    pivots = {_lead(u) for u in meet}
    spanned = {_lead(row) for row in rows[: len(rows) - len(meet)]}
    eye = [zero[:c] + [1] + zero[c + 1 :] for c in range(d)]
    basis = (meet + [u for u in u1 if _lead(u) not in pivots]
             + [u for u in u2 if _lead(u) not in pivots]
             + [eye[c] for c in range(d) if c not in spanned])
    coords = [field._split([*(q + e for q, e in zip(basis, eye)), *(u + zero for u in ut)], d)[1]
              if ut else [] for ut in rest]
    for rows in coords:
        field._eliminate(rows, reduced=True)
    return counts, coords


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
    """A _target's left kernels in a pairing, as the template _nullity
    writes its rows from: ((a0, a1, a2), [T_r, T_s]).  The counts are
    those of the _frame of the K_t in k^{m_0}, slots pairing[0] and
    pairing[1] in coordinate position.  T_t lists, for each row u of the
    reduced basis K_t' (t = pairing[2], pairing[3]) in those coordinates,
    u's nonzeros as (index, place, u[i]): place 0 to 3 for the blocks of
    the first a0, the next a1, the next a2 and the last a3 = m_0 - a0 -
    a1 - a2 coordinates, index the place of i within its block.

    The template is made the first time its pairing is asked for and
    kept in the target's frames, keyed by the pairing, as decomp._plan
    keeps its rows; the kernels are only read, so one target serves every
    pairing.
    """
    m, _, kernels, frames = target
    frame = frames.get(pairing)
    if frame is None:
        a, spans = _frame(field, m[0], [kernels[t] for t in pairing])
        ends = [*accumulate(a, initial=0), m[0]]
        places = [(i - ends[k], k) for k in range(4) for i in range(ends[k], ends[k + 1])]
        frame = frames[pairing] = a, [[tuple((*places[i], c) for i, c in enumerate(u) if c)
                                        for u in span] for span in spans]
    return frame


def _source(M, pairing=None):
    """M's side of every relation: (pairing, n, (b0, b1, b2), kept,
    cuts).

    M's letters are read once, as the working rows of their columns,
    stacked; over QQ in one integral scale, each row primitive.  B_t is
    L_M^t's columns forward-eliminated (field._eliminate) and cut to the
    pivot rows: an echelon basis of W_t = im L_M^t.  Zero and dependent
    columns drop out there.

    The four relations are interchangeable, so any two may be framed.
    pairing lists the two framed slots (0 for A to 3 for D), then the two
    others, each pair in slot order; by default the framed two are the
    letters with the largest images, ties to the lower slot.  The
    residual that _nullity ranks has sum |K_t| |W_t| rows over the two
    others, so leaving out the two largest W_t leaves the fewest.  The
    W_t are framed (_frame) in that pairing, and each row w of the two
    others' W_t' is cut once into the four column sets that _nullity
    keeps: (w[s2:], w[s1:], w[b0:s1] + w[s2:], w), with s1 = b0 + b1 and
    s2 = s1 + b2; kept holds their widths.
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
        framed = sorted(sorted(range(4), key=lambda t: -len(bases[t]))[:2])
        pairing = (*framed, *(t for t in range(4) if t not in framed))
    b, spans = _frame(field, n[0], [bases[t] for t in pairing])
    b0, s1, s2 = b[0], b[0] + b[1], sum(b)
    kept = (n[0] - s2, n[0] - s1, b[1] + n[0] - s2, n[0])
    cuts = [[(w[s2:], w[s1:], w[b0:s1] + w[s2:], w) for w in span] for span in spans]
    return pairing, n, b, kept, cuts


def _covered(a, b):
    """|P|, the dimension of K_p kron W_p + K_q kron W_q (p, q the framed
    slots), from the counts of the two frames: the unit tensors of S_p x
    T_p and S_q x T_q, less those of (K_p∩K_q) kron (W_p∩W_q), which both
    hold."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (a0 + a1) * (b0 + b1) + (a0 + a2) * (b0 + b2) - a0 * b0


def _nullity(field, source, target):
    """dim Hom(M, X) from _source(M) and _target(X), over field, with X's
    template in the source's pairing read through _framed.

    With p, q the framed slots and r, s the others: column (i, j), i in
    X's frame and j in M's, is in P if i is in S_p (the first a0 + a1
    coordinates) and j in T_p, or i in S_q and j in T_q.  So by i's place
    in the frame (place: 0 in S_p∩S_q, 1 in S_p alone, 2 in S_q alone, 3
    in neither) the row keeps the j outside T_p and T_q, the j outside
    T_p, the j outside T_q, or every j: kept[place] columns, the four cuts
    _source made of each w.  The row's columns run by place, then by i
    within it: the a_k coordinates of place k (a3 = m_0 - a0 - a1 - a2)
    hold a_k kept[k] columns from base[k], the sum of those before, and
    the one at index x of place k its kept[k] from base[k] + x kept[k].
    Row (t, u, w), t = r, s, is u kron w cut to those columns: for each
    nonzero (index, place, u[i]) of u's template, the cut of w that its
    place keeps, scaled (field._scaled) where u[i] is not 1; a u that is
    nonzero only where nothing is kept gives zero rows, which are left
    out.  Over QQ a cut row may share a factor; _eliminate takes it
    as it is, since nonzero scales of rows leave every rank alone.
    Neither side's rows are written, so each may serve many pairs; the
    target keeps the template of the source's pairing.
    """
    (pairing, n, b, kept, cuts), (m, ranks, _, _) = source, target
    a, templates = _framed(field, target, pairing)
    nullity = sum(map(mul, m, n)) - sum(map(mul, ranks, n[1:])) - _covered(a, b)
    base = list(accumulate(map(mul, (*a, m[0] - sum(a)), kept), initial=0))
    width = base[4]
    if not width:
        return nullity
    residual = []
    for template, span in zip(templates, cuts):
        for u in template:
            blocks = [(base[k] + i * w, base[k] + (i + 1) * w, k, c) for i, k, c in u
                      if (w := kept[k])]
            if not blocks:
                continue
            for cut in span:
                out = [0] * width
                for s, e, k, c in blocks:
                    out[s:e] = cut[k] if c == 1 else field._scaled(cut[k], c)
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
