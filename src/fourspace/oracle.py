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

and only that residual, m_0 * n_0 columns wide, is ranked.  The rows of
C_t kron L_M^T span K_t kron im L_M^t, K_t the row space of C_t, so the
columns of L_M^t may be replaced by B_t, an echelon basis of im L_M^t:
the residual ranked is stack_t C_t kron B_t, with no row for a zero or
dependent column of a letter.

Each factor depends on one side of the pair alone, so each side is
prepared once: _target(X) gives m and the C_t, splitting [L_X | I]
(_Field._split), and _source(M) gives n and the B_t, eliminating the
columns of each L_M^t (_Field._eliminate).  _nullity writes the residual
from the two and ranks it with the same loop, and hom_oracle is that
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


def _target(X):
    """X's side of every relation: (m, [C_1, .., C_4]).

    X's letters are read once, as the working rows (field._start) of
    [A' B' C' D' I]; over QQ in one integral scale, each row primitive.
    Relation t cuts [L_X | I] from them and splits it at L_X's width m_t
    (field._split): C_t, the images, is an echelon basis of X's left
    kernel, and r_t = m_0 - len(C_t), since [L_X | I] has full row rank.
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
    return m, kernels


def _source(M):
    """M's side of every relation: (n, [B_1, .., B_4]).

    M's letters are read once, as the working rows of their columns,
    stacked; over QQ in one integral scale, each row primitive.  B_t is
    L_M^t's columns forward-eliminated (field._eliminate) and cut to the
    pivot rows: an echelon basis of im L_M^t.  Zero and dependent columns
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
    return n, bases


def _nullity(field, source, target):
    """dim Hom(M, X) from _source(M) and _target(X), over field.

    Residual row (t, j, i) holds, in block a, C_t[j, a] times B_t[i]:
    slice copies of the basis row, scaled (field._scaled) where the entry
    is not 1.  Over QQ it is primitive, since C_t's row and B_t's are.
    Neither side is written, so each may serve many pairs.  Nonzero
    scales of rows leave every rank alone.
    """
    (n, bases), (m, kernels) = source, target
    m0, n0 = m[0], n[0]
    nullity = sum(mv * nv for mv, nv in zip(m, n))
    width = m0 * n0
    residual = []
    for nt, kernel, basis in zip(n[1:], kernels, bases):
        nullity -= (m0 - len(kernel)) * nt
        for row in kernel:
            blocks = [(a * n0, c) for a, c in enumerate(row) if c]
            for b in basis:
                out = [0] * width
                for s, c in blocks:
                    out[s : s + n0] = b if c == 1 else field._scaled(b, c)
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
