from fractions import Fraction
from itertools import accumulate, combinations, permutations
from operator import mul

import pytest

from fourspace import catalog as cat
from fourspace import oracle
from fourspace.exactmat import (
    QQ,
    ExactMatrix,
    FieldMismatch,
    PrimeField,
    identity,
    random_invertible,
    random_matrix,
    zeros,
)
from fourspace.modules import (
    LambdaModule,
    base_change,
    dim_vector,
    euler_form,
    module_direct_sum,
    permute_vertices,
    random_module,
    zero_module,
)
from fourspace.oracle import (
    _framed,
    _nullity,
    _source,
    _target,
    check_hom,
    hom_basis,
    hom_oracle,
    hom_system,
)
from fourspace.verify import disguised_sum

from reference import reference_rref

GF = PrimeField(32003)

# six pairings (p, q, r, s): p and q each pair of slots, which the frame
# puts in coordinate position, then the other two in slot order, r framed
# in lines and planes and s written
PAIRINGS = [(*f, *(t for t in range(4) if t not in f)) for f in combinations(range(4), 2)]


def test_identity_hom_to_center_injective():
    m = cat.build(cat.P(0, 0), QQ)
    x = cat.build(cat.I(0, 0), QQ)
    assert hom_oracle(m, x) == 1


def test_zero_module_absorbs(field, rng):
    m = random_module(field, rng, max_dim=3)
    z = zero_module(field)
    assert hom_oracle(m, z) == 0
    assert hom_oracle(z, m) == 0


def test_distinct_tubes_admit_no_maps():
    # frozen regression values, computed by this oracle at bring-up
    for lam in (2, 3):
        for mu in (2, 3):
            m = cat.build(cat.R(1, GF.coerce(lam)), GF)
            x = cat.build(cat.R(1, GF.coerce(mu)), GF)
            assert hom_oracle(m, x) == (1 if lam == mu else 0)


def test_homogeneous_tube_depth_law():
    lam = GF.coerce(2)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            got = hom_oracle(cat.build(cat.R(a, lam), GF), cat.build(cat.R(b, lam), GF))
            assert got == min(a, b)


def test_field_mismatch_rejected(rng):
    with pytest.raises(FieldMismatch):
        hom_oracle(random_module(QQ, rng, max_dim=1), random_module(GF, rng, max_dim=1))


# -- system layout -------------------------------------------------------------


def test_unknown_count_invariant(field, rng):
    m = random_module(field, rng, max_dim=3)
    x = random_module(field, rng, max_dim=3)
    sys_ = hom_system(m, x)
    want = sum(a * b for a, b in zip(dim_vector(x), dim_vector(m)))
    assert sys_.offsets[5] == want == sys_.matrix.cols
    assert sys_.matrix.rows == dim_vector(x)[0] * sum(dim_vector(m)[1:])


def _low_rank_module(field, rng, max_dim):
    # every map factors through a smaller space, so each has a kernel
    n0 = rng.randint(1, max_dim)
    mats = []
    for _ in range(4):
        nt = rng.randint(1, max_dim)
        k = rng.randint(0, nt - 1)
        mats.append(random_matrix(field, n0, k, rng) @ random_matrix(field, k, nt, rng))
    return LambdaModule(*mats)


def _oracle_targets(field):
    # both tube families; GF(2) has no homogeneous tube
    lams = {QQ: [Fraction(7, 3)], GF: [GF.coerce(2)]}.get(field, [])
    return (
        [cat.P(n, j) for n in (0, 1) for j in range(5)]
        + [cat.I(n, j) for n in (0, 1) for j in range(5)]
        + [cat.R(l, lam) for l in (1, 2) for lam in lams]
        + [cat.R(s, mm, lam) for s in (0, 1) for mm in (1, 2) for lam in (0, 1, cat.INF)]
    )


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), GF], ids=["QQ", "GF2", "GF32003"])
def test_nullity_equals_oracle(fld, rng):
    # hom_oracle eliminates its columns in another order than hom_system's
    # F_0-first layout; the nullity must be that of the layout as built
    sources = [random_module(fld, rng, max_dim=4) for _ in range(6)]
    sources += [_low_rank_module(fld, rng, 4) for _ in range(6)]
    targets = [random_module(fld, rng, max_dim=4) for _ in range(6)]
    targets += [cat.build(d, fld) for d in _oracle_targets(fld)]
    for i, x in enumerate(targets):
        for m in (sources[i % len(sources)], sources[(i + 5) % len(sources)]):
            sys_ = hom_system(m, x)
            n, d = dim_vector(m), dim_vector(x)
            assert sys_.offsets[:2] == (0, d[0] * n[0])
            assert hom_oracle(m, x) == sys_.matrix.cols - sys_.matrix.rank()


# -- basis ---------------------------------------------------------------------


def test_endomorphism_basis_of_smallest_projective():
    m = cat.build(cat.P(0, 0), QQ)
    basis = hom_basis(m, m)
    assert len(basis) == 1
    f0 = basis[0][0]
    assert (f0.rows, f0.cols) == (1, 1) and f0.data[0][0] != QQ.zero
    assert all(b.cols == 0 for b in basis[0][1:])


def test_endomorphism_basis_of_center_injective():
    m = cat.build(cat.I(0, 0), QQ)
    basis = hom_basis(m, m)
    assert len(basis) == 1
    # yA = s with A = [1] forces every component equal to the same scalar
    vals = {basis[0][v].data[0][0] for v in range(5)}
    assert len(vals) == 1


def test_basis_elements_satisfy_relations(field, rng):
    for _ in range(4):
        m = random_module(field, rng, max_dim=2)
        x = random_module(field, rng, max_dim=2)
        basis = hom_basis(m, x)
        assert len(basis) == hom_oracle(m, x)
        for f in basis:
            assert check_hom(m, x, f)
    # F_0 the identity and every F_t zero: F_0 A = A is not 0 F_1
    p = cat.build(cat.P(1, 0), field)
    f0 = identity(field, p.n0)
    assert not check_hom(p, p, [f0] + [zeros(field, y.cols, y.cols) for y in p.mats()])


# -- bilinearity and invariance ---------------------------------------------------


def test_additive_in_both_arguments(field, rng):
    for _ in range(5):
        m = random_module(field, rng, max_dim=3)
        mp = random_module(field, rng, max_dim=3)
        x = random_module(field, rng, max_dim=3)
        assert hom_oracle(module_direct_sum(m, mp), x) == \
            hom_oracle(m, x) + hom_oracle(mp, x)
        assert hom_oracle(m, module_direct_sum(x, mp)) == \
            hom_oracle(m, x) + hom_oracle(m, mp)


def test_equivariant_under_simultaneous_permutation(field, rng):
    m = random_module(field, rng, max_dim=3)
    x = random_module(field, rng, max_dim=3)
    h = hom_oracle(m, x)
    for sigma in permutations((1, 2, 3, 4)):
        assert hom_oracle(permute_vertices(m, sigma), permute_vertices(x, sigma)) == h


def test_invariant_under_base_change(field, rng):
    m = random_module(field, rng, max_dim=3)
    x = random_module(field, rng, max_dim=3)
    h = hom_oracle(m, x)
    u = random_invertible(field, m.n0, rng)
    vs = [random_invertible(field, w.cols, rng) for w in m.mats()]
    assert hom_oracle(base_change(m, u, vs), x) == h


def test_euler_form_lower_bound(field, rng):
    for _ in range(8):
        m = random_module(field, rng, max_dim=3)
        x = random_module(field, rng, max_dim=3)
        assert hom_oracle(m, x) >= euler_form(dim_vector(m), dim_vector(x))


def test_euler_form_exact_on_injectives(field, rng):
    m = random_module(field, rng, max_dim=4)
    for j in range(5):
        x = cat.build(cat.I(0, j), field)
        assert hom_oracle(m, x) == euler_form(dim_vector(m), dim_vector(x))


def test_system_matches_entrywise_relations(field, rng):
    # row (t, i, j) of the system is entry (i, j) of F_0 L_M - L_X F_t
    for _ in range(5):
        m = random_module(field, rng, max_dim=3)
        x = random_module(field, rng, max_dim=3)
        sys_ = hom_system(m, x)
        n, d, off = dim_vector(m), dim_vector(x), sys_.offsets
        want = []
        for t in range(1, 5):
            lm, lx = m.mats()[t - 1], x.mats()[t - 1]
            for i in range(d[0]):
                for j in range(n[t]):
                    row = [field.zero] * off[5]
                    for k in range(n[0]):
                        row[off[0] + i * n[0] + k] = lm.data[k][j]
                    for k in range(d[t]):
                        row[off[t] + k * n[t] + j] = field.reduce(-lx.data[i][k])
                    want.append(tuple(row))
        assert sys_.matrix == ExactMatrix(field, want, shape=(len(want), off[5]))


# -- the block step against an independent nullity -------------------------------


def _reference_nullity(m, x):
    # hom_system's nullity, taken by the naive reference eliminator, which
    # shares nothing with the package's elimination loop
    field, a = m.field, hom_system(m, x).matrix
    p = field.p if isinstance(field, PrimeField) else None
    return a.cols - len(reference_rref(a.data, p)[0])


def _redundant_letter(field, n0, rng):
    # an n_0 x n_t letter, n_t > n_0, whose columns repeat and include 0
    k = rng.randint(1, n0)
    cols = [[field.rand(rng) for _ in range(n0)] for _ in range(k)]
    cols += [rng.choice(cols) for _ in range(n0 - k + rng.randint(1, 3))]
    cols += [[field.zero] * n0] * rng.randint(1, 2)
    rng.shuffle(cols)
    return ExactMatrix(field, [list(row) for row in zip(*cols)], shape=(n0, len(cols)))


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_oracle_equals_reference_nullity(fld, rng):
    # hom_oracle ranks only the residual C_t kron B_t left by eliminating
    # each F_t once; the full system's nullity must agree.  Low-rank
    # targets have letters with 0 < rank < m_0 and rank < m_t, so r_t < m_t
    # and C_t is a kernel whose entries are not all 0 and 1.  Each target
    # is also its own source: the identity has F_0 = I, so the residual
    # drops rank there.  Redundant sources have letters with n_t > n_0,
    # repeated and zero columns: B_t, an echelon basis of im L_M^t, has
    # fewer rows than L_M^t has columns
    sources = [random_module(fld, rng, max_dim=3) for _ in range(4)]
    sources += [_low_rank_module(fld, rng, 3) for _ in range(4)]
    targets = [random_module(fld, rng, max_dim=3) for _ in range(4)]
    targets += [_low_rank_module(fld, rng, 3) for _ in range(8)]
    targets += [cat.build(d, fld) for d in _oracle_targets(fld)]
    redundant = []
    for _ in range(8):
        n0 = rng.randint(1, 3)
        redundant.append(LambdaModule(*(_redundant_letter(fld, n0, rng) for _ in range(4))))
    seen = set()
    for i, x in enumerate(targets):
        for m in (sources[i % len(sources)], x, redundant[i % len(redundant)]):
            assert hom_oracle(m, x) == _reference_nullity(m, x), (i, dim_vector(m), dim_vector(x))
        seen.add(any(0 < y.rank() < min(y.rows, y.cols) for y in x.mats()))
    assert True in seen
    # some letter's columns are dependent, so its B_t drops rows
    assert any(y.rank() < y.cols for m in redundant for y in m.mats())


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_oracle_on_empty_vertices(fld, rng):
    # zero-dimensional vertices give empty blocks: m_0 = 0 (no equations),
    # n_0 = 0 (no F_0 unknowns), n_t = 0 (no rows in relation t) and
    # m_t = 0 (no F_t unknowns, C_t = I); hom_system keeps the F_0-first
    # layout its offsets describe, and hom_oracle its nullity
    seen = set()
    for _ in range(40):
        n, d = ([rng.choice((0, 0, 1, 2, 3)) for _ in range(5)] for _ in range(2))
        m, x = (LambdaModule(*(random_matrix(fld, dims[0], k, rng) for k in dims[1:]))
                for dims in (n, d))
        sys_ = hom_system(m, x)
        offsets = sys_.offsets
        assert list(offsets) == [sum(d[v] * n[v] for v in range(k)) for k in range(6)]
        scalar = int if isinstance(fld, PrimeField) else Fraction
        assert (sys_.matrix.rows, sys_.matrix.cols) == (d[0] * sum(n[1:]), offsets[5])
        assert all(type(x) is scalar for x in sys_.matrix.entries_rowmajor())
        assert hom_oracle(m, x) == _reference_nullity(m, x)
        seen.update({"m_0 = 0": d[0] == 0, "n_0 = 0": n[0] == 0, "n_t = 0": 0 in n[1:],
                     "m_t = 0": 0 in d[1:],
                     "F_0 and F_t": bool(d[0] * n[0]) and offsets[5] > offsets[1]}.items())
    for name in ("m_0 = 0", "n_0 = 0", "n_t = 0", "m_t = 0", "F_0 and F_t"):
        assert (name, True) in seen, seen


# -- the frame of the three framed relations ------------------------------------


def _geometries(d, rng):
    # (kind, S_A, S_B), d >= 3: the basis vectors that span the first
    # framed relation's subspace and the second's, so their meet is spanned
    # by S_A & S_B.  Neither is 0 or everything unless the kind says so
    cols = list(range(d))
    rng.shuffle(cols)
    k = rng.randint(1, d - 2)
    part = cols[:k]
    return [("equal", part, part), ("nested", part, cols[: k + 1]),
            ("nested, reversed", cols[: k + 1], part), ("complementary", part, cols[k:]),
            ("meeting", cols[: k + 1], cols[k : d - 1]),
            ("zero", [], part), ("zero, reversed", part, []),
            ("whole", cols, part), ("whole, reversed", part, cols)]


def _columns(field, h, cols):
    return ExactMatrix(field, [[row[c] for c in cols] for row in h.data],
                       shape=(h.rows, len(cols)))


def _framed_pair(field, h, sa, sb, rng):
    """(M, X) with im A, im B of M spanned by h's columns sa, sb, and the
    left kernels of X's A', B' by the rows sa, sb of h^-1: A' and B' are
    h's other columns.  C is B times a random matrix on both sides, so im C
    lies in im B and X's left kernel of C' holds that of B', which random
    letters would not; D is random.  C and D are 0 to max(d, 2) columns
    wide."""
    d = h.rows
    letters = []
    for cols in (sa, sb), [[c for c in range(d) if c not in s] for s in (sa, sb)]:
        a, b = (_columns(field, h, s) for s in cols)
        c, dd = (random_matrix(field, rows, rng.randint(0, max(d, 2)), rng)
                 for rows in (b.cols, d))
        letters.append(LambdaModule(a, b, b @ c, dd))
    return tuple(letters)


def _placed(m, pairing):
    """m's letters A, B, C, D moved to the slots pairing[0], .., pairing[3]:
    with both sides moved alike, hom is unchanged, and the oracle's frame
    at pairing meets m's A and B in coordinate position, and C third."""
    letters = m.mats()
    return LambdaModule(*(letters[pairing.index(t)] for t in range(4)))


def _reference_framed(m, x):
    # the rank of the rows c kron b, c in X's left kernel of letter t and b
    # in im L_M^t, t = 1, 2, 3, all by the reference eliminator: the span
    # of the three relations the frames at PAIRINGS hold, once moved
    field = m.field
    p = field.p if isinstance(field, PrimeField) else None
    rows = []
    for lm, lx in list(zip(m.mats(), x.mats()))[:3]:
        ident = [[int(i == j) for j in range(lx.rows)] for i in range(lx.rows)]
        pivots, e = reference_rref([[*a, *b] for a, b in zip(lx.data, ident)], p)
        kernel = [row[lx.cols :] for c, row in zip(pivots, e) if c >= lx.cols]
        pivots, e = reference_rref(lm.transpose().data, p)
        rows += [[a * b for a in c for b in w] for c in kernel for w in e[: len(pivots)]]
    return len(reference_rref(rows, p)[0])


def _places(counts):
    """A frame's nine class counts read in its two-subspace places: the
    vectors in U_p∩U_q, in U_p alone, in U_q alone and in neither (a
    plane has a half in each of the middle two)."""
    return (counts[3] + counts[7], counts[1] + counts[5] + counts[8],
            counts[2] + counts[6] + counts[8], counts[0] + counts[4])


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_oracle_frame_geometry(fld, rng):
    # the first two framed relations of each side equal, nested,
    # complementary, meeting in a line inside a proper subspace, one of
    # them zero or the whole space; each source against each target, and
    # against m_0 = 0 and n_0 = 0.  At every pairing, the letters A, B
    # and C are moved to the three framed slots, so the frame puts A and B
    # in coordinate position at once, and its places read the geometry.
    # C lies in B on the source side, and its left kernel holds B's on
    # the target side, so no plane is framed and no line has r without q
    # (source) or q without r (target).  _nullity must still equal the
    # full system's nullity, and m_0 n_0 less the kept width the rank of
    # the three framed relations' rows.  Both are pairing-free: moving
    # both sides' letters alike leaves hom alone
    for d in (3, 4):
        sources, targets = [], []
        for kind, sa, sb in _geometries(d, rng):
            m, x = _framed_pair(fld, random_invertible(fld, d, rng), sa, sb, rng)
            meet = len(set(sa) & set(sb))
            want = (meet, len(sa) - meet, len(sb) - meet, d - len(set(sa) | set(sb)))
            for pairing in PAIRINGS:
                b = _source(_placed(m, pairing), pairing)[2]
                a = _framed(fld, _target(_placed(x, pairing)), pairing)[0]
                assert _places(b) == _places(a) == want, (kind, pairing)
                assert b[4] == b[5] == b[8] == a[2] == a[3] == a[8] == 0, (kind, pairing)
            sources.append((m, kind))
            targets.append((x, kind))
        for _ in range(2):
            m, x = _framed_pair(fld, identity(fld, 0), [], [], rng)
            sources.append((m, "n_0 = 0"))
            targets.append((x, "m_0 = 0"))
        for m, source_kind in sources:
            for x, target_kind in targets:
                want = _reference_nullity(m, x)
                framed = _reference_framed(m, x)
                assert hom_oracle(m, x) == want, (source_kind, target_kind)
                for pairing in PAIRINGS:
                    source = _source(_placed(m, pairing), pairing)
                    target = _target(_placed(x, pairing))
                    where = (source_kind, target_kind, pairing)
                    assert _nullity(fld, source, target) == want, where
                    width = sum(map(mul, _framed(fld, target, pairing)[0], source[3]))
                    assert m.n0 * x.n0 - width == framed, where


# -- the three-subspace normal form ---------------------------------------------


def _planted(field, counts, rng):
    """(d, [U_p, U_q, U_r]): counts[k] copies of each of the nine kinds
    of indecomposable three subspaces (D4), hidden behind a random base
    change h.  Kind S < 8 is a line in U_t for each bit t of S (0 for p,
    1 for q, 2 for r); kind 8 a plane holding three lines, e_a in U_p,
    e_b in U_q and e_a + e_b in U_r.  Each U_t is its generators times h,
    as a forward echelon basis of working rows."""
    d = sum(counts[:8]) + 2 * counts[8]
    gens, i = [[], [], []], 0
    for k, count in enumerate(counts):
        for _ in range(count):
            if k < 8:
                for t in range(3):
                    if k >> t & 1:
                        gens[t].append({i: 1})
                i += 1
            else:
                for t, v in enumerate(({i: 1}, {i + 1: 1}, {i: 1, i + 1: 1})):
                    gens[t].append(v)
                i += 2
    h = random_invertible(field, d, rng)
    spaces = []
    for g in gens:
        span = ExactMatrix(field, [[v.get(j, 0) for j in range(d)] for v in g], shape=(len(g), d))
        pivots, rows = field.echelon((span @ h).data)
        spaces.append(rows[: len(pivots)])
    return d, spaces


def _planted_module(field, counts, s, rng, kernels, copy):
    """A module whose letters at the slots other than s, in slot order,
    hold planted U_p, U_q, U_r (_planted) as their images, or as their
    left kernels if kernels; its letter at s is a copy of the one of them
    at index copy (0 to 2), or else random, 1 to 3 columns wide."""
    d, spaces = _planted(field, counts, rng)
    letters = []
    for u in spaces:
        cols = ExactMatrix(field, u, shape=(len(u), d)).nullspace() if kernels else u
        letters.append(ExactMatrix(field, [[v[i] for v in cols] for i in range(d)],
                                   shape=(d, len(cols))))
    fourth = random_matrix(field, d, rng.randint(1, 3), rng) if copy is None else letters[copy]
    letters.insert(s, fourth)
    return LambdaModule(*letters)


# each kind once, planes alone, and mixes: d from 4 to 10
PLANTED = [(1,) * 9, (0, 0, 0, 0, 0, 0, 0, 0, 2), (2, 0, 1, 0, 1, 0, 0, 1, 1),
           (0, 1, 0, 1, 0, 1, 0, 1, 1), (1, 0, 0, 0, 1, 0, 0, 0, 1)]


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_three_subspace_normal_form(fld, rng):
    # _frame splits three planted subspaces into the nine kinds they were
    # made of, over GF(2) too, where a plane's three lines are all the
    # lines it has.  In the frame, U_r is spanned by the unit vectors of
    # the lines with r and by e_a + e_b for each plane: U_r framed as its
    # own fourth subspace is those rows, reduced, and nothing else
    for counts in PLANTED + [tuple(rng.randint(0, 2) for _ in range(8)) + (1,)]:
        d, (up, uq, ur) = _planted(fld, counts, rng)
        got, rows = oracle._frame(fld, d, [up, uq, ur, ur])
        assert got == counts
        starts = list(accumulate((*counts, counts[8]), initial=0))
        r_lines = {c for k in (4, 5, 6, 7) for c in range(starts[k], starts[k + 1])}
        assert len(rows) == len(ur) == len(r_lines) + counts[8]
        for row in rows:
            support = [c for c, x in enumerate(row) if x]
            if len(support) == 1:
                assert support[0] in r_lines, (counts, row)
            else:
                a, b = support
                assert starts[8] <= a < starts[9] and b == a + counts[8] and row[a] == row[b], row


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_nullity_on_planted_frames(fld, rng):
    # modules whose three framed letters are planted with planes and
    # lines of every kind, M by their images and X by their left kernels,
    # with the fourth letter at each slot s in turn: random, or a copy of
    # the letter at r, p or q on both sides, so that K_s kron W_s lies in
    # the framed span and every kept column must read it as zero.  Both
    # frames find the planted counts, and _nullity at the pairing that
    # writes s equals the full system's nullity
    pairs = [(PLANTED[0], PLANTED[4]), (PLANTED[4], PLANTED[0]), (PLANTED[1], PLANTED[2]),
             (PLANTED[3], PLANTED[1])]
    for s in range(4):
        pairing = (*(t for t in range(4) if t != s), s)
        for j, (source_counts, target_counts) in enumerate(pairs):
            copy = (None, 2, 0, 1)[(j + s) % 4]
            m = _planted_module(fld, source_counts, s, rng, False, copy)
            x = _planted_module(fld, target_counts, s, rng, True, copy)
            source, target = _source(m, pairing), _target(x)
            assert source[2] == source_counts
            assert _framed(fld, target, pairing)[0] == target_counts
            want = _reference_nullity(m, x)
            assert _nullity(fld, source, target) == want, (s, copy, source_counts, target_counts)
            assert hom_oracle(m, x) == want


# -- the pairing: which three relations are framed ------------------------------------


def _letter(field, n0, rank, width, rng):
    # an n0 x width letter of the given rank, dense: rank random columns,
    # then combinations of them (zero columns if the rank is 0)
    basis = random_matrix(field, n0, rank, rng)
    while basis.rank() < rank:
        basis = random_matrix(field, n0, rank, rng)
    return basis @ ExactMatrix(field, [[rng.choice((0, 1, 2)) if j >= rank else int(i == j)
                                        for j in range(width)] for i in range(rank)],
                               shape=(rank, width))


def _ranked_module(field, n0, ranks, rng):
    # letters of the given ranks, each one or two columns wider than its
    # rank, so the rank and not the width must decide the pairing
    return LambdaModule(*(_letter(field, n0, r, r + rng.randint(1, 2), rng) for r in ranks))


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_nullity_at_every_pairing(fld, rng):
    # the four relations are interchangeable, so _nullity at each of the
    # six pairings must equal the full system's nullity: random and
    # disguised modules, letters of tied ranks, and letters 0 columns wide
    lam = [cat.R(1, lam) for lam in map(fld.coerce, (2, 5)) if lam not in (fld.zero, fld.one)]
    sums = [[cat.P(1, 0), cat.I(0, 2)], [cat.R(0, 2, 1), cat.P(0, 3)] + lam[:1],
            [cat.I(1, 1), cat.R(1, 2, cat.INF)]]
    modules = [random_module(fld, rng, max_dim=3) for _ in range(3)]
    modules += [disguised_sum(fld, descs, rng) for descs in sums]
    modules += [_ranked_module(fld, 3, ranks, rng) for ranks in ((2, 2, 2, 2), (1, 2, 2, 1))]
    modules += [LambdaModule(*(random_matrix(fld, 2, k, rng) for k in widths))
                for widths in ((0, 2, 0, 1), (1, 0, 2, 0), (0, 0, 0, 0))]
    seen = set()
    for i, m in enumerate(modules):
        for x in (modules[(i + 3) % len(modules)], modules[(i + 7) % len(modules)]):
            want = _reference_nullity(m, x)
            for pairing in PAIRINGS:
                target = _target(x)
                got = _nullity(fld, _source(m, pairing), target)
                assert got == want, (i, pairing, dim_vector(m), dim_vector(x))
                assert list(target[3]) == [pairing]
        ranks = [y.rank() for y in m.mats()]
        seen.update({"tied": len(set(ranks)) < 4, "zero width": 0 in dim_vector(m)[1:],
                     "rank < width": any(y.rank() < y.cols for y in m.mats())}.items())
    assert {("tied", True), ("zero width", True), ("rank < width", True)} <= seen


@pytest.mark.parametrize("fld", [QQ, PrimeField(3), GF], ids=repr)
def test_one_target_serves_every_pairing(fld, rng):
    # a prepared target owns its frames: one _target(x), read by sources
    # of all six pairings in turn, gives the full system's nullity at
    # each, ends with one frame per pairing, and hands back the kept
    # frame when a pairing is asked for again
    sources = [random_module(fld, rng, max_dim=3), _ranked_module(fld, 3, (1, 3, 2, 0), rng)]
    for x in (disguised_sum(fld, [cat.P(1, 0), cat.I(0, 2), cat.R(0, 2, 1)], rng),
              _ranked_module(fld, 3, (2, 1, 0, 2), rng)):
        target = _target(x)
        for m in sources:
            want = _reference_nullity(m, x)
            for pairing in PAIRINGS:
                assert _nullity(fld, _source(m, pairing), target) == want, pairing
        frames = dict(target[3])
        assert sorted(frames) == sorted(PAIRINGS)
        assert all(_framed(fld, target, p) is frames[p] for p in PAIRINGS)


@pytest.mark.parametrize("fld", [QQ, PrimeField(3), GF], ids=repr)
def test_source_writes_the_smallest_image(fld, rng):
    # the residual has |K_s| |W_s| rows, s the one relation left out of
    # the frame, so the source writes the letter of M of the smallest
    # rank, ties to the higher slot, and frames the other three in slot
    # order; equal ranks write D
    cases = {(2, 2, 2, 2): (0, 1, 2, 3), (1, 3, 2, 0): (0, 1, 2, 3), (1, 2, 2, 2): (1, 2, 3, 0),
             (3, 1, 1, 3): (0, 1, 3, 2), (0, 0, 1, 1): (0, 2, 3, 1), (0, 0, 0, 0): (0, 1, 2, 3),
             (1, 1, 3, 1): (0, 1, 2, 3), (2, 1, 3, 3): (0, 2, 3, 1)}
    for ranks, pairing in cases.items():
        m = _ranked_module(fld, 3, ranks, rng)
        assert [y.rank() for y in m.mats()] == list(ranks)
        assert _source(m)[0] == pairing, ranks
        # the written relation is the smallest image
        assert ranks[pairing[3]] == min(ranks)
    # zero-width letters, and n_0 = 0
    m = LambdaModule(*(_letter(fld, 2, k, k, rng) for k in (0, 2, 0, 1)))
    assert _source(m)[0] == (0, 1, 3, 2)
    assert _source(LambdaModule(*(zeros(fld, 0, k) for k in (1, 0, 2, 1))))[0] == (0, 1, 2, 3)


def _reduced_echelon(field, rows):
    """True iff rows, working rows, are a reduced echelon basis: nonzero,
    pivots ascending, each row zero in the other rows' pivot columns;
    over GF(p) each leads with 1, over QQ each holds Python ints."""
    leads = [next((c for c, x in enumerate(row) if x), None) for row in rows]
    if None in leads or leads != sorted(set(leads)):
        return False
    if any(row[c] for i, row in enumerate(rows) for j, c in enumerate(leads) if i != j):
        return False
    if isinstance(field, PrimeField):
        return all(row[c] == 1 for row, c in zip(rows, leads))
    return all(type(x) is int for row in rows for x in row)


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(3), GF], ids=repr)
def test_frames_are_reduced_and_templates_read_them(fld, rng, monkeypatch):
    # every U_s' that _frame hands back, on the source side (W_s') and on
    # the target side (K_s'), at every pairing, is in reduced echelon
    # form, and the target's template lists exactly the nonzeros of its
    # K_s' rows, each by its class and its index there, a plane's two
    # halves in one entry: catalog targets, random and disguised modules
    framed = []
    frame = oracle._frame

    def spied(field, d, spaces):
        out = frame(field, d, spaces)
        framed.append(out)
        return out

    monkeypatch.setattr(oracle, "_frame", spied)
    lam = [cat.R(2, lam) for lam in map(fld.coerce, (2, 5)) if lam not in (fld.zero, fld.one)]
    modules = [cat.build(d, fld) for d in _oracle_targets(fld) + lam[:1]
               + [cat.P(4, 1), cat.I(3, 2), cat.R(1, 5, cat.INF), cat.R(0, 4, 0)]]
    modules += [random_module(fld, rng, max_dim=4) for _ in range(4)]
    modules += [_low_rank_module(fld, rng, 4) for _ in range(2)]
    modules += [disguised_sum(fld, descs, rng) for descs in (
        [cat.P(2, 1), cat.I(1, 0), cat.R(0, 2, 1)], [cat.P(1, 0), cat.P(1, 0), cat.I(2, 3)],
        [cat.R(1, 3, cat.INF), cat.I(1, 1)] + lam[:1])]
    sets = 0
    for m in modules:
        for pairing in PAIRINGS:
            framed.clear()
            source = _source(m, pairing)
            target = _target(m)
            a, template = _framed(fld, target, pairing)
            (_, w_rows), (counts, k_rows) = framed
            assert counts == a
            for rows in (w_rows, k_rows):
                assert _reduced_echelon(fld, rows), (dim_vector(m), pairing, rows)
                sets += bool(rows)
            # the source cuts its W_s' rows as _frame returned them: the
            # cut of the empty letter set keeps every column
            assert [cut[0] for cut in source[4]] == w_rows
            starts = list(accumulate((*a, a[8]), initial=0))
            assert len(template) == len(k_rows)
            for entries, row in zip(template, k_rows):
                u = [0] * len(row)
                for i, k, c, c2 in entries:
                    assert c and 0 <= i < a[min(k, 8)] and (k == 8 or not c2)
                    u[starts[k] + i] = c
                    if c2:
                        u[starts[9] + i] = c2
                assert u == row and sum(1 + bool(e[3]) for e in entries) == sum(map(bool, row))
    assert sets > 100
