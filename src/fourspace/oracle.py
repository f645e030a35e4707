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

hom_oracle takes the rank of that system (field.rank: the shared
elimination loop, no echelon array built) with the F_0 columns moved
last.  Each F_t block is nonzero only in the m_0 * n_t rows of its own
relation, so its pivots clear within those rows; F_0 meets every
relation, and eliminating it first would fill in all of them.  Rank
ignores column order, so the answer is the plain system's nullity, and
hom_system, its offsets and hom_basis keep the F_0-first layout above.
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


def _kron(a, b):
    # np.kron, at a fifth of its call overhead on the tiny operands here
    (p, q), (r, s) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def _system(M, X):
    """The relation system as one canonical array of field.dtype, and the offsets."""
    _check_same_field(M.field, X.field)
    field = M.field
    n, m, offsets = _block_layout(M, X)
    system = _zero_array(field, m[0] * sum(n[1:]), offsets[5])
    r = 0
    for t, (lm, lx) in enumerate(zip(M.mats(), X.mats()), start=1):
        rows = slice(r, r + m[0] * n[t])
        system[rows, offsets[0] : offsets[1]] = _kron(
            np.eye(m[0], dtype=np.int64), lm.data.T
        )
        system[rows, offsets[t] : offsets[t + 1]] = field.reduce(
            -_kron(lx.data, np.eye(n[t], dtype=np.int64))
        )
        r = rows.stop
    return system, offsets


def hom_system(M, X):
    """Assemble the full relation system as an ExactMatrix (for inspection)."""
    system, offsets = _system(M, X)
    return HomSystem(
        matrix=ExactMatrix._raw(M.field, system),
        offsets=offsets,
        source_dim=dim_vector(M),
        target_dim=dim_vector(X),
    )


def hom_oracle(M, X):
    """dim Hom(M, X) as the nullity of the assembled system.

    The rank is taken with the columns in the order F_1, .., F_4, F_0:
    each F_t column meets only relation t and F_0 meets all four, so
    eliminating F_0 last keeps fill-in within each relation.  Rank ignores
    column order; _system, hom_system and its offsets keep F_0 first.
    """
    system, offsets = _system(M, X)
    return offsets[5] - M.field.rank(np.roll(system, -offsets[1], axis=1))


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
