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
system, each block through a strided view of its rows, with no Kronecker
product formed.  Its unknown count is the sum of m_v * n_v: it is the
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
only from the third one on.  So each side is written in a basis Q whose
first a0 vectors span U_1∩U_2, the first a0 + a1 span U_1, and the first
a0 with the next a2 span U_2 (_frame).  In the two bases K_1 kron W_1 +
K_2 kron W_2 is spanned by the unit tensors of a coordinate set P, with
S_1, T_1 and S_2, T_2 the coordinates of K_1, W_1 and K_2, W_2:

    P = S_1 x T_1  u  S_2 x T_2,
    |P| = (a0+a1)(b0+b1) + (a0+a2)(b0+b2) - a0 b0,

since (K_1 kron W_1) ∩ (K_2 kron W_2) = (K_1∩K_2) kron (W_1∩W_2).  So

    dim Hom(M, X) = sum_v m_v n_v - sum_t r_t n_t - |P|
                    - rank(u kron w, u in K_t', w in W_t', t = 3, 4,
                           cut to the columns outside P),

K_t' and W_t' echelon bases of K_t and W_t in the two frames.  Relations
1 and 2 need no elimination at all, and only relations 3 and 4 are
written.

Each frame depends on one side of the pair alone, so each side is
prepared once, in the same way: _target(X) gives m, the r_t and the frame
of the K_t, splitting [L_X | I] (_Field._split), and _source(M) gives n,
the ranks of M's letters and the frame of the W_t, eliminating the
columns of each L_M^t (_Field._eliminate).  _nullity writes the cut rows
from the two and ranks them with the same loop, and hom_oracle is that
composition.  verify.oracle_vector, which run_sweep and `homdim --oracle`
call, prepares M once and each target once per process, in a bounded cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .exactmat import ExactMatrix, _check_same_field, _zero_array
from .modules import dim_vector


@dataclass(frozen=True)
class HomSystem:
    """Linearized commutativity relations for a pair (M, X).

    matrix has one row per scalar equation and one column per unknown;
    offsets[v] is the column where the flattened F_v block starts, and
    offsets[5] is the total unknown count.
    """

    matrix: ExactMatrix
    offsets: tuple
    source_dim: tuple
    target_dim: tuple


def hom_system(M, X):
    """Assemble the full relation system as an ExactMatrix (for inspection).

    Relation t's rows are (a, b) for the entry (a, b) of F_0 L_M - L_X F_t,
    a < m_0 and b < n_t.  Seen as 4-D, its F_0 block is (a, b, a', k),
    which holds L_M[k, b] where a' = a, and its F_t block (a, b, i, b'),
    which holds -L_X[a, i] where b' = b: each is written through a
    strided view, with no Kronecker product.
    """
    _check_same_field(M.field, X.field)
    field = M.field
    n, m = dim_vector(M), dim_vector(X)
    offsets = tuple(accumulate((m[v] * n[v] for v in range(5)), initial=0))
    system = _zero_array(field, m[0] * sum(n[1:]), offsets[5])
    diag = np.arange(max(m[0], *n[1:]))
    r = 0
    for t, (lm, lx) in enumerate(zip(M.mats(), X.mats()), start=1):
        r0, r = r, r + m[0] * n[t]
        # splitting the axes of a 2-D slice always gives a view
        a, b = diag[: m[0]], diag[: n[t]]
        system[r0:r, : offsets[1]].reshape(m[0], n[t], m[0], n[0])[a, :, a] = lm.data.T
        ft = system[r0:r, offsets[t] : offsets[t + 1]]
        ft.reshape(m[0], n[t], m[t], n[t])[:, b, :, b] = field.reduce(-lx.data)
    return HomSystem(matrix=ExactMatrix._raw(field, system), offsets=offsets,
                     source_dim=n, target_dim=m)


def _lead(row):
    # the column of a nonzero row's first nonzero entry
    return next(c for c, x in enumerate(row) if x)


def _frame(field, d, spaces):
    """Subspaces U_1..U_4 of k^d, echelon bases as working rows, in a
    two-subspace basis: ((a0, a1, a2), [U_3', U_4']).

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
    span(U_t Q^-1), formed with no inverse.

    [Q | I] is eliminated once, for U_3 and U_4 both: the two splits
    stack the same row objects first, and the first split eliminates them
    in place into E, forward echelon rows with every pivot left of d, Q
    being invertible (over GF(p) each with its leading 1).  In the second,
    as in homdim._step with T, each row of E reaches the loop with its
    pivot column still free, so the loop only reads it, and the rows of
    [U_t | 0] meet the pivots that [[Q | I]; [U_t | 0]] would have formed.
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
    qi = [q + e for q, e in zip(basis, eye)]
    coords = [field._split([*qi, *(u + zero for u in ut)], d)[1] if ut else []
              for ut in rest]
    return counts, coords


def _target(X):
    """X's side of every relation: (m, [r_1, .., r_4], (a0, a1, a2),
    [K_3', K_4']), the _frame of X's left kernels K_t in k^{m_0}.

    X's letters are read once, as the working rows (field._start) of
    [A' B' C' D' I]; over QQ in one integral scale, each row primitive.
    Relation t cuts [L_X | I] from them and splits it at L_X's width m_t
    (field._split): the images are an echelon basis C_t of K_t, and
    r_t = m_0 - len(C_t) = rank L_X, since [L_X | I] has full row rank.
    """
    field = X.field
    m = dim_vector(X)
    eye = np.eye(m[0], dtype=field.dtype)
    letters = field._start(np.hstack([y.data for y in X.mats()] + [eye]))
    ident = sum(m[1:])
    kernels = []
    c1 = 0
    for t in range(1, 5):
        c0, c1 = c1, c1 + m[t]
        kernels.append(field._split([row[c0:c1] + row[ident:] for row in letters], m[t])[1])
    return (m, [m[0] - len(k) for k in kernels], *_frame(field, m[0], kernels))


def _source(M):
    """M's side of every relation: (n, [rank L_M^1, ..], (b0, b1, b2),
    [W_3', W_4']), the _frame of the images W_t = im L_M^t in k^{n_0}.

    M's letters are read once, as the working rows of their columns,
    stacked; over QQ in one integral scale, each row primitive.  B_t is
    L_M^t's columns forward-eliminated (field._eliminate) and cut to the
    pivot rows: an echelon basis of W_t.  Zero and dependent columns
    drop out there.
    """
    field = M.field
    n = dim_vector(M)
    columns = field._start(np.vstack([y.data.T for y in M.mats()]))
    bases = []
    b1 = 0
    for t in range(1, 5):
        b0, b1 = b1, b1 + n[t]
        rows = columns[b0:b1]
        bases.append(rows[: len(field._eliminate(rows))])
    return (n, [len(b) for b in bases], *_frame(field, n[0], bases))


def _covered(a, b):
    """|P|, the dimension of K_1 kron W_1 + K_2 kron W_2, from the counts
    of the two frames: the unit tensors of S_1 x T_1 and S_2 x T_2, less
    those of (K_1∩K_2) kron (W_1∩W_2), which both hold."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (a0 + a1) * (b0 + b1) + (a0 + a2) * (b0 + b2) - a0 * b0


def _nullity(field, source, target):
    """dim Hom(M, X) from _source(M) and _target(X), over field.

    Column (i, j), i in X's frame and j in M's, is in P if i is in S_1 (the
    first a0 + a1 coordinates) and j in T_1, or i in S_2 and j in T_2.  So
    by i's place in the frame (place: 0 in S_1∩S_2, 1 in S_1 alone, 2 in
    S_2 alone, 3 in neither) the row keeps the j outside T_1 and T_2, the
    j outside T_1, the j outside T_2, or every j: kept[place] columns.
    Row (t, u, w), t = 3, 4, is u kron w cut to those columns: for each
    nonzero u[i], the cut of w that i keeps, scaled (field._scaled) where
    u[i] is not 1.  Over QQ a cut row may share a factor; _eliminate takes
    it as it is, since nonzero scales of rows leave every rank alone.
    Neither side is written, so each may serve many pairs.
    """
    (n, _, b, spans), (m, ranks, a, kernels) = source, target
    nullity = (sum(mv * nv for mv, nv in zip(m, n))
               - sum(r * nt for r, nt in zip(ranks, n[1:])) - _covered(a, b))
    b0, s1, s2 = b[0], b[0] + b[1], sum(b)
    place = [0] * a[0] + [1] * a[1] + [2] * a[2] + [3] * (m[0] - sum(a))
    kept = [n[0] - s2, n[0] - s1, s1 - b0 + n[0] - s2, n[0]]
    starts = list(accumulate((kept[k] for k in place), initial=0))
    if not starts[-1]:
        return nullity
    residual = []
    for kernel, span in zip(kernels, spans):
        cuts = [(w[s2:], w[s1:], w[b0:s1] + w[s2:], w) for w in span]
        for u in kernel:
            blocks = [(starts[i], place[i], c) for i, c in enumerate(u) if c]
            for cut in cuts:
                out = [0] * starts[-1]
                for s, k, c in blocks:
                    out[s : s + kept[k]] = cut[k] if c == 1 else field._scaled(cut[k], c)
                residual.append(out)
    return nullity - len(field._eliminate(residual))


def hom_oracle(M, X):
    """dim Hom(M, X), the nullity of hom_system's matrix, with each
    relation's F_t columns eliminated once (see the module docstring):
    _nullity of _source(M) and _target(X)."""
    _check_same_field(M.field, X.field)
    return _nullity(M.field, _source(M), _target(X))


def hom_basis(M, X):
    """Basis of Hom(M, X), each element a 5-tuple (F_0, ..., F_4)."""
    system = hom_system(M, X)
    n, m, off = system.source_dim, system.target_dim, system.offsets
    field = M.field
    out = []
    for vec in system.matrix.nullspace():
        vec = np.array(vec, dtype=field.dtype)
        out.append(tuple(
            ExactMatrix._raw(field, vec[off[v] : off[v + 1]].reshape(m[v], n[v]))
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
