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
the second block in the columns of F_t.  This is asymptotically the slow
route (the unknown count is sum of m_v * n_v) and exists as the
independent reference for the structured formulas in homdim.

_system writes those blocks straight into the system's rows, each
through a 4-D view of its strided entries, with no Kronecker product
formed, and puts the F_0 columns last: F_1, .., F_4, then F_0.
hom_oracle takes the rank of that array (field.rank: the shared
elimination loop, no echelon array built).  The loop reduces each row
against the pivots found before it, left to right.  A row of relation t
meets the F_t columns first, which no other relation's rows share, so
its reductions there stay within relation t's own pivots; F_0 meets
every relation, and with its columns first every row would be reduced
against the pivots of all four.  _system also writes each relation with
the opposite sign, as L_X F_t - F_0 L_M: a row's first entry is then an
entry of X's letter, not its negative, and the pivots the loop meets
first in the F_t columns are the catalog's 1s, which need no inverse to
clear below.  Neither rank nor column order changes the null space, so
the answer is the plain system's nullity; hom_system rolls the columns
back and negates the rows back, and it, its offsets and hom_basis keep
the F_0-first layout and the sign above.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _block_layout(M, X):
    n = dim_vector(M)
    m = dim_vector(X)
    offsets = [0]
    for v in range(5):
        offsets.append(offsets[-1] + m[v] * n[v])
    return n, m, tuple(offsets)


def _system(M, X):
    """The relation system as one canonical array of field.dtype, its
    columns in elimination order F_1, .., F_4, F_0, and the offsets of the
    F_0-first layout.

    Relation t's rows are (a, b) for the entry (a, b) of L_X F_t - F_0 L_M,
    a < m_0 and b < n_t: the negated relation, so that each row leads with
    L_X's entry as it is, a unit pivot on the catalog's 0/1 letters.  Seen
    as 4-D, its F_0 block is (a, b, a', k), which holds -L_M[k, b] where
    a' = a, and its F_t block (a, b, i, b'), which holds L_X[a, i] where
    b' = b: each is written through a strided view, with no Kronecker
    product.
    """
    _check_same_field(M.field, X.field)
    field = M.field
    n, m, offsets = _block_layout(M, X)
    total = offsets[5]
    system = _zero_array(field, m[0] * sum(n[1:]), total)
    f0 = system[:, total - offsets[1] :]
    diag = np.arange(max(m[0], *n[1:]))
    r = 0
    for t, (lm, lx) in enumerate(zip(M.mats(), X.mats()), start=1):
        r0, r = r, r + m[0] * n[t]
        # splitting the axes of a 2-D slice always gives a view
        a, b = diag[: m[0]], diag[: n[t]]
        f0[r0:r].reshape(m[0], n[t], m[0], n[0])[a, :, a] = field.reduce(-lm.data.T)
        ft = system[r0:r, offsets[t] - offsets[1] : offsets[t + 1] - offsets[1]]
        ft.reshape(m[0], n[t], m[t], n[t])[:, b, :, b] = lx.data
    return system, offsets


def hom_system(M, X):
    """Assemble the full relation system as an ExactMatrix (for inspection),
    in the F_0-first layout of its offsets and with the sign of
    F_0 L_M - L_X F_t: _system's array with the columns rolled back and
    negated, since _system writes each relation negated for its pivots."""
    system, offsets = _system(M, X)
    return HomSystem(
        matrix=ExactMatrix._raw(M.field, M.field.reduce(-np.roll(system, offsets[1], axis=1))),
        offsets=offsets,
        source_dim=dim_vector(M),
        target_dim=dim_vector(X),
    )


def hom_oracle(M, X):
    """dim Hom(M, X) as the nullity of the assembled system.

    The rank is taken of _system's array as written, its columns in the
    order F_1, .., F_4, F_0 and its relations negated: each F_t column
    meets only relation t and F_0 meets all four, so eliminating F_0 last
    keeps fill-in within each relation, and the negated rows lead with
    X's letter entries, unit pivots on catalog targets.  Rank ignores
    column order and sign; hom_system and its offsets keep F_0 first.
    """
    system, offsets = _system(M, X)
    return offsets[5] - M.field.rank(system)


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
