"""Structured coefficient matrices for dim Hom(M, X), X indecomposable.

For each catalog family the relation system of oracle.py collapses to a
far smaller system  (y_1 ... y_r) * N = 0  in row variables y_i of width
n_0, where N is an almost block diagonal matrix over the letters
A, B, C, D of M (possibly negated or scaled by -lam).  dim Hom(M, X) is
then the corank of N.  Three special targets skip N entirely:

    [M, P(0,0)] = cor([A B C D]),   [M, I(0,0)] = n_0,   [M, I(0,i)] = n_i.

Every N follows one stacking scheme: a head block pattern in the top-left
corner, `reps` copies of a repeating pattern marching down the diagonal,
and a small overlap block W above each copy, in the last rows of the one
before it.  The two kinds differ only at the end:

    kind "M2": nothing follows the last copy;
    kind "M3": one trailing W caps the last rows, in fresh columns
               appended on the right.

Vertex-j targets with j > 1 and the exceptional tube arrangements reduce
to the j = 1 / (s, lam) = (0, 0) representative by permuting the slots of
M (hom(M, permute(X, sigma)) = hom(permute(M, sigma^-1), X)), so only
eight block patterns exist, tabulated in CASE_SPECS under the keys
catalog.case picks: the one dispatch on family, parity and size, which
build reads too.

hom_dim(M, X) answers one target: it assembles N and takes its corank.

hom_vector(M, Xs) answers many, using the staircase the way SOLVEBLOK
(de Boor & Weiss, "SOLVEBLOK: a package for solving almost block diagonal
linear systems", ACM TOMS 6(1), 1980) does.  The matrix with k copies is a
leading block of the one with k + 1, so descriptors sharing (case key,
sigma, lam) differ only in k and share one pass.  What does not depend
on M is planned once per process, for each descriptor list and field
(_targets): the closed-form targets, and for each (case key, sigma, lam)
group its staircase, the copy counts its members ask for and where each
answer goes, and the list's distinct folds, each with its integral
coefficient table (field.integral).  A staircase is compiled from the
layout coeff_matrix writes, in sign-normal form (_plan), down to the
ids of its two folds (the head's, none where the head is the rep, and
the rep's) and whether it is capped; a fold is its kernel keys, kept
columns and blocks, its cells mapped to M's letter slots.  M's letters
enter elimination once per call, as one working copy (_start) of
[A B C D], which _sparse_letters eliminates in place and whose zero rows
then count [M, P(0,0)]; each distinct fold writes its rows from the
call's kernel cache and is split (_Field._split) once per call.  From
there on
the pass holds the working rows of the field's elimination, lists of
Python ints: a fold writes its rows in that form and returns its images
as those rows, and every step runs on them, so no result goes back
into a matrix.  The pass runs
a transfer recursion towards the largest k asked for.  The next copy
reads a vector y of the left kernel K_k = {y : y N_k = 0} only through
its image y_tail W, y_tail the last e block rows of y.  So the state is
(z, S): z counts the kernel vectors whose image is zero, and S is a
basis of the images, as wide as W's letters.  Then dim K_k = z + rank S.
Every copy holds the same rep R and W, so R is split once per group, its
own columns eliminated before the g columns it shares with W
(SOLVEBLOK's order): T, an echelon basis of {u [R_W | E] : u R_own = 0}
(E the next W on R's tail rows), and rep_z, the vectors u whose u R and
u_tail W both vanish.  A step is then the split of [T; [S 0]] at g
(_Field._split), copies of T's rows first: T is a forward echelon basis,
so the loop takes its rows as pivots as they stand and reduces S's rows
against them, forming (over GF(p), scaling) only the pivots S reads.
T's rows are [R_W | E], W's columns twice, so a step reads g from them
(or from S's rows), and the plan holds no width.

Most own block columns hold a single cell, +-L in block row i, and ask
y_i L = 0: y_i = v_i K, K a basis of the left kernel of the single-cell
letters of row i.  Every group reads the same four letters, so one call
keeps the nonzero working rows of K [A B C D] in a cache keyed by M's
letter slots (the empty set's K is I, so its rows are [A B C D]'s), and
makes each letter set's rows once, from its parent's, the set without
its last letter L: K [A B C D] spans the rows v K' [A B C D] with
v K' L = 0, K' the parent's kernel, and L's columns are among those of
[A B C D].  So one split of the parent's rows, each with its L columns
first, at L's width, gives them, with no identity block and no product
(_kernel).  A fold (of R, or of the head with W on its tail rows) then
eliminates only the grid of blocks scalar * K L over the coupled own
columns and the columns that meet the next copy: each of its rows is
one cached row cut into those blocks, the way oracle._nullity writes
its rows.  That is the local elimination SOLVEBLOK does per block, done
once per letter set.  A "-lam" cell stays coupled, since lam may be 0.
Over QQ the letters, kernels and the coefficients 1, -1 and -lam are
integral (a nonzero multiple changes no kernel), so T, S and every
elimination stay Python ints from the letters to the last rank, with no
reduced form and no Fraction; each elimination divides its rows by
their gcds, so S stays as small deep in the staircase as after its
first steps.  A step depends
on span(S) alone, through a monotone map of spans, and every pattern's
first two states are nested, so a pass's spans are nested one way (the
lemma in _staircase_coranks: P and R passes grow, I passes shrink).  So
the first step whose images have as many rows as the state it was given
returned that span, within g + 1 steps: the pass stops there and
extrapolates, as every later copy adds the same to z and keeps S.  When
the head pattern is the rep pattern, the head is the step from the
empty state, whatever the copy count.  The "M3" cap is one
more W on the last tail rows, so it asks exactly y_tail W = 0: a capped
staircase's corank is z, an uncapped one's z + rank S.

Three savings rest on the corank alone.  Negating a block row or a
block column of N, the same one in every copy, is D_r N D_c, D_r and
D_c diagonal of +-1, which keeps the corank; so _plan compiles each
pattern in a sign-normal form (_signed), periodic flips that leave
most +-1 cells at +1, while CASE_SPECS, coeff_matrix and hom_dim keep
the paper's signs.  A "-lam" cell keeps its sign.  A cell at +1 is
written from its cached row as it stands, with no scaled copy, and
folds of several groups that differed only in signs become one.  So
a list's plan numbers its distinct folds, and a call keeps one list of
their results, each split once.  And the kernel cache holds no zero
row: the n_0 - rank [A B C D] vectors that [A B C D] kills lie in every
K, and each would write a zero row into a fold, a kernel vector with
image 0.  hom_vector counts them once, as [M, P(0,0)], and each fold
adds that count to its z once per block row, so no split meets them.

A call also reads two results with no elimination of their own.  T is
forward echelon, so a step from the empty state is z = 0 and T's rows
whose left half is zero, cut at g, and one from a full state (g rows,
all of k^g) is the split of T's right halves alone (_step).
And a pass returns its group's law, the coranks below the fixed point
k*, then k*, cor(k*) and dz, from which hom_vector reads every copy
count its members ask for (_staircase_coranks).

Before any pass, hom_vector trades M for an isomorphic copy with sparse
letters.  dim Hom(M, X) depends on M's isomorphism class alone, and
U (A, B, C, D) diag(V_1, ..., V_4), U and the V_t invertible, is the
base change the four-subspace problem is posed under (Gelfand &
Ponomarev, Colloq. Math. Soc. J. Bolyai 5, 1970).  _sparse_letters
takes U from a two-way echelon of [A B C D] (forward, then forward again
on the result read backwards) and each V_t from the same on the
transpose of letter t.  Both passes eliminate forward only, so over QQ
the copy is Python ints like the letters it came from.  A disguised
sum's letters are dense, and its copy keeps about a third of their
nonzero entries, so the folds of every group eliminate far fewer.

hom_dim keeps the one-matrix corank on M as given, the reference the
tests hold hom_vector to.
"""

from __future__ import annotations

import functools
from itertools import accumulate, chain
from typing import NamedTuple

from .catalog import FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE, InvalidParams, case
from .exactmat import ExactMatrix, hstack
from .modules import perm_inverse, permute_slots

# descriptor lists planned per process (_targets), one per (list, field).
# A plan holds 78 kB besides its descriptors for the 418 of (24, 12,
# {2, 5}) and 103 kB for the 690 of (40, 20, {2, 5}), over GF(32003) and
# QQ alike: eight stay under 2 MB.  Measured by tracemalloc on CPython
# 3.11 as the memory still held once a cold call returns, gc run, its
# inputs made before tracing started
_TARGETS_CACHE_SIZE = 8

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
        "kind": "M3",
        "head": [[("B", 1), ("C", 1)]],
        "rep": [
            [("D", -1), ("C", 1), ("A", 1), None],
            [None, ("C", -1), None, ("B", 1)],
        ],
        "overlap": [[("D", 1)]],
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
    """Cell grid of the case matrix with `reps` copies of the rep pattern.

    Copy k sits right of and below copy k - 1 (the head for k = 1), and W
    above it, in the e rows that end where the copy starts.  "M3" places
    one more W where copy reps + 1 would start, in e fresh columns.
    """
    head, rep, overlap = raw["head"], raw["rep"], raw["overlap"]
    a, b = len(head), len(head[0])
    c, d = len(rep), len(rep[0])
    e = len(overlap)
    caps = 1 if raw["kind"] == "M3" else 0
    cells = [[None] * (b + reps * d + caps * e) for _ in range(a + reps * c)]

    def place(pattern, r0, c0):
        for i, row in enumerate(pattern):
            for j, cell in enumerate(row):
                if cell is not None:
                    cells[r0 + i][c0 + j] = cell

    place(head, 0, 0)
    for k in range(reps):
        place(rep, a + k * c, b + k * d)
    for k in range(reps + caps):
        place(overlap, a + k * c - e, b + k * d)
    return cells


def _coefficients(field, lam, integral=False):
    """{1, -1, "-lam"} -> the field scalar each cell coefficient stands for.

    integral=True puts the table through field.integral: a nonzero multiple
    of all three, in Python ints over QQ, the same residues over GF(p).
    """
    one = field.one
    coeffs = [one, field.reduce(-one), one if lam is None else field.reduce(-lam)]
    if integral:
        [coeffs], _ = field.integral([coeffs])
    return dict(zip((1, -1, "-lam"), coeffs))


def _columns(cells):
    """The letter of each block column of a cell grid, None where it holds
    no cell.  Every block column of every CASE_SPECS layout holds a single
    letter, so a column is as wide as that letter."""
    return [next((row[j][0] for row in cells if row[j]), None) for j in range(len(cells[0]))]


def _widths(letters, cells):
    """The width of each block column of a cell grid over the four
    letters, 0 where the column holds no cell."""
    width = {x: letters[i].cols for x, i in _LETTER_INDEX.items()}
    return [0 if x is None else width[x] for x in _columns(cells)]


def _write(field, letters, cells, lam):
    """The ExactMatrix of a cell grid over the four letters.

    Every block row is n_0 high; a block column is as wide as its letters
    (_widths).  The coefficients 1, -1 and -lam resolve once into a scalar
    table, so each distinct cell is one scalar times one letter.  Row i of
    a block row starts as zeros, and each of its cells writes row i of its
    block into its columns, as oracle.hom_system writes its rows.
    """
    col0 = list(accumulate(_widths(letters, cells), initial=0))
    scalar = _coefficients(field, lam)
    blocks = {cell: [[field.reduce(scalar[cell[1]] * x) for x in r]
                     for r in letters[_LETTER_INDEX[cell[0]]].data]
              for cell in set(chain.from_iterable(cells)) - {None}}
    data = []
    for row in cells:
        placed = [(col0[j], col0[j + 1], blocks[cell]) for j, cell in enumerate(row) if cell]
        for i in range(letters[0].rows):
            out = [field.zero] * col0[-1]
            for a, b, block in placed:
                out[a:b] = block[i]
            data.append(tuple(out))
    return ExactMatrix._raw(field, tuple(data), col0[-1])


def coeff_matrix(M, desc):
    """The coefficient matrix N with [M, X_desc] = cor(N).

    Raises InvalidParams for the closed-form targets P(0,0), I(0,0) and
    I(0,i); hom_dim covers those directly.
    """
    if _is_closed_form(desc):
        raise InvalidParams(
            f"{desc.label()} has a closed-form dimension; no coefficient matrix"
        )
    key, sigma, param, lam = case(desc, M.field)
    raw = CASE_SPECS[key]
    letters = permute_slots(M.mats(), perm_inverse(sigma))
    return _write(M.field, letters, _layout(raw, raw["reps"](param)), lam)


def hom_dim(M, desc):
    """dim Hom(M, X_desc), by closed form or corank of the case matrix."""
    if _is_closed_form(desc):
        if desc.family == FAMILY_POSTPROJECTIVE:  # P(0,0)
            return hstack(M.mats()).corank()
        return M.dim_vector()[desc.params[1]]  # I(0,j)
    return coeff_matrix(M, desc).corank()


def _kernel(field, cuts, kernels, key):
    """The nonzero working rows of K [A B C D], K a basis of the left
    kernel of the letters in slots key: rank [A B C D] - rank L_key
    independent rows.  The n_0 - rank [A B C D] vectors of K that
    [A B C D] kills would be zero rows; the call counts them once
    (hom_vector) and no entry holds them.

    cuts is where each letter starts in [A B C D], then its width, and
    kernels the call's cache of these rows by letter set, the sorted
    slots of its letters; the empty set's K is I, so its entry is
    [A B C D]'s independent nonzero rows.  Letter set key is one split of
    its parent, key without its last slot s, made first and kept: each
    parent row v K' [A B C D] is written as its L_s columns, then itself,
    and field._split at L_s's width gives a basis of
    {v K' [A B C D] : v K' L_s = 0}, which K [A B C D] spans.  The
    parent's rows are independent, so the split's z is 0.  Every group
    reads the same four letters, so a letter set is split once per call,
    whatever its case and sigma.
    """
    if key not in kernels:
        a, b = cuts[key[-1]], cuts[key[-1] + 1]
        parent = _kernel(field, cuts, kernels, key[:-1])
        kernels[key] = field._split([row[a:b] + row for row in parent], b - a)[1]
    return kernels[key]


class _FoldPlan(NamedTuple):
    """What _kernel_fold reads of a cell grid split at its first `own`
    block columns; see _fold_plan."""

    keys: tuple  # per block row, the slots of its single-cell letters
    widths: tuple  # per kept block column, the slot giving its width, or None
    blocks: tuple  # per block row, (kept column, slot, coefficient) of each cell
    coupled: int  # how many kept columns are own columns


def _fold_plan(cells, own):
    """The pattern-only part of a fold of cells at its first `own` block
    columns.

    cells hold (slot of M's letter, coefficient) or None.  An own column
    whose only cell is +-L in block row i asks y_i L = 0, so it is
    substituted (y_i = v_i K, K the kernel of row i's single-cell letters,
    keyed by their slots); the other own columns stay coupled, and so does
    one whose lone cell is "-lam", since lam may be 0.  The kept columns
    are the coupled ones, then the columns from own on, each as wide as
    the letter of its first cell (0 if it holds none).
    """
    singles = [set() for _ in cells]
    coupled = []
    for j, column in enumerate(zip(*cells)):
        if j == own:
            break
        hits = [i for i, cell in enumerate(column) if cell is not None]
        if len(hits) == 1 and column[hits[0]][1] != "-lam":
            singles[hits[0]].add(column[hits[0]][0])
        else:
            coupled.append(j)
    keep = coupled + list(range(own, len(cells[0])))
    first = _columns(cells)
    return _FoldPlan(
        tuple(tuple(sorted(x)) for x in singles),
        tuple(first[j] for j in keep),
        tuple(tuple((jj, *row[j]) for jj, j in enumerate(keep) if row[j]) for row in cells),
        len(coupled),
    )


def _kernel_fold(field, plan, scalar, cuts, kernels, zeros):
    """field._split of a cell grid at its own block columns, by its
    _fold_plan: (z, images).

    scalar maps each coefficient to an integral scalar, and cuts and
    kernels are the call's letter cuts and kernel cache (_kernel), zeros
    the count n_0 - rank [A B C D].  The folded grid has block rows v_i,
    as high as row i's kernel K (n_0 if row i has no single-cell letter),
    and block columns the plan's kept columns; block (i, j) is the scalar
    times K L_ij.  y <-> v is one to one, so its split at the coupled
    columns has the z of the grid's split at its own columns, and images
    of the same span.  Each row of the folded grid is written as a
    working row from one nonzero row of K [A B C D] (_kernel), as
    oracle._nullity writes its rows: each cell's block is the slice of
    L_ij's columns, scaled (field._scaled) where its scalar is not 1, and
    the rest is zeros.  Each K also holds the zeros vectors that
    [A B C D] kills, which would write zero rows, kernel vectors with
    image 0: they add zeros to z once per block row, and no row is
    written for them.
    """
    col0 = list(accumulate((0 if x is None else cuts[x + 1] - cuts[x] for x in plan.widths),
                           initial=0))
    rows = []
    for key, blocks in zip(plan.keys, plan.blocks):
        cells = [(col0[jj], cuts[slot], cuts[slot + 1], scalar[c]) for jj, slot, c in blocks]
        for kl in _kernel(field, cuts, kernels, key):
            row = [0] * col0[-1]
            for s, a, b, c in cells:
                row[s : s + b - a] = kl[a:b] if c == 1 else field._scaled(kl[a:b], c)
            rows.append(row)
    z, images = field._split(rows, col0[plan.coupled])
    return z + zeros * len(plan.keys), images


def _step(field, s, t):
    """One copy of the staircase: field._split of [T; [s 0]] at g, W's
    width.

    s is the state, independent rows g wide, and t the transfer basis T,
    rows 2g wide ([R_W | E], two copies of W's columns), both in the
    working form of the field's elimination.  So g is half the width of
    T's rows, or else the width of s's rows; with neither there is
    nothing to split, and g = 0.
    T comes from a fold's split, so it is in forward echelon form: each
    row's first nonzero is its pivot and no two share one, but over
    GF(p) a row may lack a leading 1 (the split scales a pivot row only
    when a later row reads it).  Stacked first, each row of T reaches
    the loop with its pivot column still free, so it becomes a pivot as
    it stands; the rows of [s 0] are then reduced against T's pivots by
    the loop's own forward reduction, which over GF(p) scales a pivot's
    row in place the first time it reads it.  So the stack holds copies
    of T's rows, and one T, never written, serves every step of a group.
    Returns (z, images), as field._split does.

    Two states need no stack.  From the empty state the split is T's
    alone: its rows are independent, so z = 0, and the images are the
    rows with no pivot left of g, those whose left half is zero, cut at
    g.  From a full state (g rows, so all of k^g) each x has exactly one
    y with x T_left + y s = 0, so the kernel is x's space, its images the
    x T_right: z and the images are those of the split of T's right
    halves at 0, |T| rows g wide in place of |T| + g rows 2g wide.
    """
    g = len(t[0]) // 2 if t else len(s[0]) if s else 0
    if not s:
        return 0, [row[g:] for row in t if not any(row[:g])]
    if len(s) == g:
        return field._split([row[g:] for row in t], 0)
    return field._split([*map(list, t), *(row + [0] * g for row in s)], g)


def _signed(spec):
    """spec in its sign-normal form: the same cells, each +-1 coefficient
    times the flips of its block row and block column.

    Flipping block rows and block columns of the case matrix N is
    D_r N D_c, D_r and D_c diagonal of +-1, which keeps the corank.  The
    flips are periodic, so the result is again a head, a rep and a W: every
    copy takes the rep's flips, W's row i those of the head's and the rep's
    tail row it sits on (which are tied), its column j those of the rep's
    column j (and so the cap's), and the head's equal the rep's when the
    two patterns are equal.  A "-lam" cell keeps its sign: its row and
    column flip alike.  Those ties come first; then each +-1 cell in turn
    asks for +1, a tie of its row and column that a union-find with parity
    grants unless the ties so far fix the product.  W's cells ask first:
    both folds write W (the rep fold twice, as R_W and as E), the rep's
    own cells only the rep fold, so a -1 left in the rep costs fewer
    scaled blocks than one left in W.
    """
    head, rep, e = spec["head"], spec["rep"], len(spec["overlap"])
    (a, b), c = (len(head), len(head[0])), len(rep)
    # nodes: head rows, head columns, rep rows, rep columns; W's rows are rep rows
    at = {"overlap": (a + b + c - e, a + b + c), "head": (0, a), "rep": (a + b, a + b + c)}
    cells = [(r0 + i, c0 + j, cell) for part, (r0, c0) in at.items()
             for i, row in enumerate(spec[part]) for j, cell in enumerate(row) if cell]
    ties = [(a - e + i, a + b + c - e + i, 0) for i in range(e)]
    ties += [(x, a + b + x, 0) for x in range(a + b) if head == rep]
    ties += [(x, y, k == -1) for x, y, (_, k) in sorted(cells, key=lambda t: t[2][1] != "-lam")]
    up = {}

    def root(x):
        p = 0
        while x in up:
            x, q = up[x]
            p ^= q
        return x, p

    for x, y, p in ties:
        (x, px), (y, py) = root(x), root(y)
        if x != y:
            up[x] = (y, px ^ py ^ p)
    return dict(spec, **{part: [[(x[0], -x[1]) if x and x[1] != "-lam"
                                 and root(r0 + i)[1] != root(c0 + j)[1] else x
                                 for j, x in enumerate(row)] for i, row in enumerate(spec[part])]
                         for part, (r0, c0) in at.items()})


class _Plan(NamedTuple):
    """One compiled staircase, by the ids of its folds in a list's
    _Targets.folds; see _targets."""

    head: int | None  # [H | E]'s fold; None where the signed head is the rep
    rep: int  # [R_own | R_W | E]'s fold
    capped: bool  # kind "M3"


def _plan(spec, sigma):
    """(head, rep, capped): the _FoldPlans of a CASE_SPECS entry's two
    folds read through sigma, in its sign-normal form (_signed), and
    whether its kind is "M3".

    Letter t of the pattern is M's letter in slot
    permute_slots(range(4), sigma^-1)[t].  Both folds are windows of the
    layout with two copies (_layout), so W sits where coeff_matrix puts
    it: the head with W on its tail rows, [H | E], is the first a block
    rows cut to b + f block columns, and the first copy with its own
    columns first, [R_own | R_W | E], is the next c block rows read at
    columns [b + f, b + d), then [b, b + f), then [b + d, b + d + f).
    So the rep fold's kept columns after its coupled ones are W's twice,
    and the head fold's W's once: a step reads W's width from its rows.
    head is None where the signed head is the rep pattern (P_ODD,
    R_EVEN): the head is then the step from the empty state.
    """
    spec = _signed(spec)
    slots = permute_slots(range(4), perm_inverse(sigma))
    slot = {x: slots[i] for x, i in _LETTER_INDEX.items()}
    (a, b), (c, d) = ((len(spec[part]), len(spec[part][0])) for part in ("head", "rep"))
    f = len(spec["overlap"][0])
    cells = [[None if x is None else (slot[x[0]], x[1]) for x in row]
             for row in _layout(spec, 2)]
    keep = [*range(b + f, b + d), *range(b, b + f), *range(b + d, b + d + f)]
    head = None if spec["head"] == spec["rep"] else _fold_plan(
        [row[: b + f] for row in cells[:a]], b)
    rep = _fold_plan([[row[j] for j in keep] for row in cells[a : a + c]], d - f)
    return head, rep, spec["kind"] == "M3"


def _staircase_coranks(field, plan, top, folds):
    """The law of a group's coranks up to top copies: (coranks, k, cor,
    dz), the corank with j copies being coranks[j] for j < k and
    cor + (j - k) dz for j >= k.

    plan is the group's compiled staircase (_Plan), top the most copies
    its members ask for, and folds the call's list of fold results:
    folds[i] is the _kernel_fold of fold i, (z, images).  A group reads
    its folds and eliminates: nothing else.

    One transfer recursion from the head towards top copies; the
    state (z, s) splits the left kernel of the matrix so far by y_tail W,
    y_tail the last e block rows, which the next copy's columns meet
    through W: z counts the kernel vectors whose image is zero and s is a
    basis of the images, as rows of the elimination's working form.  The
    head's state is the _kernel_fold of [H | E], E the W on the head's
    tail rows.

    Every copy holds the same rep block R and overlap W, so R is folded
    once per group, its own columns before the columns of W it shares
    with the copy before it (as SOLVEBLOK does): the _kernel_fold of
    [R_own | R_W | E], E the next W on R's tail rows, gives rep_z and the
    echelon basis T of {u [R_W | E] : u R_own = 0}.  Appending a copy to
    kernel vectors whose images span s gives the vectors (x, u) with
    x s + u R_W = 0 and u R_own = 0, whose image is u E.  Those with
    u [R_W | E] = 0 add rep_z; for the others u [R_W | E] = t T for one
    t, the rows of T being independent.  So a step is the left kernel of
    [[s 0], T] split at the width g of W: its z plus rep_z is what the
    copy adds to z, and its images the next s.  A step (_step) is that
    split, copies of T's rows first, g read from the rows; T is echelon,
    so its rows are pivots as they stand, and one T, never written,
    serves every step.
    The letters, kernels and coefficients are integral, so over QQ T and
    s are Python ints and no elimination
    builds Fractions; each divides its rows by their gcds, so s stays as
    small deep in the staircase as after its first steps.

    A step is a function of span(s) alone: it adds the same to z and
    maps span(S) to f(S) = {u_tail W : u R_own = 0, u R_W in S}.  f is
    monotone (S in S' gives f(S) in f(S')), so once S_0, the head's
    state, and S_1 are nested, the whole chain S_0, S_1, ... is nested
    the same way, and it stops moving exactly where its dimension stops
    changing.  So the recursion stops at the first step, to copy k,
    whose images have as many rows as the state it was given (both are
    independent): it returned that span, and every later copy adds its
    dz to z and keeps the span.  k is the fixed point k*, at most g + 1
    for W's width g, as the dimension moves at most g times; the
    recursion returns the law's coranks below it, k, cor(k) and dz.
    Where no step before top stops, the law is its coranks up to top
    alone: k is top + 1, cor and dz None.

    S_0 and S_1 are nested for every pattern.  In CASE_SPECS' letters
    and signs, with y a row vector over the head's block rows,
    u = (u_0, u_1) one over the rep's and x one of k^(n_0):
      P_ODD, R_EVEN  the head is the rep, so S_0 = f(0), in f(S_0);
      P_EVEN, R_ODD  y in the head's left kernel gives u = (0, y), with
                     image y W, so S_0 lies in f(0);
      P0             S_0 = f(T_0), T_0 = {(xC, xD) : xA = xB = 0}, and
                     y = (x, x, x) puts T_0 in S_0;
      I_EVEN         S_0 = f(k^g), which holds f(S_0);
      I_ODD          every f(S) lies in {yC : yA = 0} = S_0;
      I0             S_0 = f(T_0), T_0 = {(xD, xC)}, and
                     x' = u_0 + u_1 - x puts S_0 in T_0.
    So P and R chains grow and I chains shrink.  A sigma only relabels
    the letters, and the sign-normal form (_signed) scales W's columns
    by the same +-1 in every copy, one invertible map of k^g: neither
    changes which chains are nested.

    The corank after k copies is z + rank s; "M3"'s trailing cap is one
    more W on the tail rows, which asks for image 0, so its corank is z.
    When the head pattern is the rep pattern (P_ODD, R_EVEN), the head is
    the step from the empty state, at any copy count, and the plan holds
    no head fold (None).  Every plan holds its rep fold, which a group
    with a head fold that asks for no copies does not read.
    """
    def corank(z, s):
        return z if plan.capped else z + len(s)

    rep_z, t = folds[plan.rep]
    if plan.head is None:
        z, s = _step(field, [], t)
        z += rep_z
    else:
        z, s = folds[plan.head]
    coranks = [corank(z, s)]
    for k in range(1, top + 1):
        dz, s_next = _step(field, s, t)
        dz += rep_z
        z += dz
        if k < top and len(s_next) == len(s):
            return coranks, k, corank(z, s_next), dz
        s = s_next
        coranks.append(corank(z, s))
    return coranks, top + 1, None, None


def _sparse_letters(field, letters):
    """(cuts, rows): the working rows of [A B C D] for the letters
    U L_t V_t of a module isomorphic to the one of letters, and the column
    where each letter starts in it, then its width.

    letters are M's four letters.  flip eliminates working rows in
    place (_Field._eliminate, forward) and reads them backwards, rows and
    columns reversed, and a two-way echelon is flip(flip(a)): the second
    elimination clears most entries above the first one's pivots.
    Reversing the rows is a row permutation and the column reversal is
    undone, so it is U a for an invertible U; both reversals are list
    slices.  The row pass takes the two-way echelon of [A B C D]'s rows
    (U, a base change of the vertex-0 space); the column pass writes that
    of each letter's transpose, a zip of the rows' slices at its cuts
    made lists, back into those slices (V_t, one of vertex t).  Hom
    dimensions depend on the isomorphism class alone.  The rows enter
    elimination once, as the working copy (_start) of [A B C D], which
    over QQ scales it by the lcm of its denominators to primitive rows,
    and every pass eliminates forward only, so the rows stay Python ints,
    with no Fraction; a is returned as the passes leave it.  A column
    pass makes its columns primitive, not the rows they are written back
    into, so a row may keep a common factor, which changes no kernel.
    """

    def flip(rows):
        field._eliminate(rows)
        return [row[::-1] for row in rows[::-1]]

    cuts = list(accumulate((x.cols for x in letters), initial=0))
    a = flip(flip(field._start(hstack(letters).data)))
    for c0, c1 in zip(cuts, cuts[1:]):
        columns = flip(flip([list(col) for col in zip(*(row[c0:c1] for row in a))]))
        for row, new in zip(a, zip(*columns)):
            row[c0:c1] = new
    return cuts, a


class _Targets(NamedTuple):
    """What hom_vector reads of a descriptor list over a field, M aside;
    see _targets."""

    closed: tuple  # the indices of the closed-form descriptors
    groups: tuple  # per (case key, sigma, lam): (_Plan, top, slots)
    folds: tuple  # per distinct fold: (_FoldPlan, scalar)


@functools.lru_cache(maxsize=_TARGETS_CACHE_SIZE)
def _targets(descs, field):
    """The _Targets of descs, a tuple of descriptors, over field, planned
    once per process.

    The key is the list by value: descriptors are checked when they are
    made, so equal ones name one module over every field, and an equal
    list made again reads the same plan.  Every descriptor is read
    through case, so a lam that reduces to 0 or 1 in field raises
    InvalidParams here, and no plan is kept.  The closed forms are
    listed by index; the others are grouped by (case key, sigma, lam),
    each group with its staircase compiled from CASE_SPECS[key] in
    sign-normal form (_plan), the most copies its members ask for (top),
    and (index, copy count) per member (slots).  The folds of
    all groups are numbered once: a fold is its _FoldPlan and its
    group's lam (None but in R_EVEN groups, every fold of which writes a
    "-lam" block), and it keeps the integral coefficient table of that
    lam (_coefficients).  A group's _Plan holds
    the id of its head fold unless its head is the step from the empty
    state (None), that of its rep fold, and its cap; so equal folds of
    several groups are split once per call.  A plan holds no answer and
    nothing of M, and a warm call reads neither CASE_SPECS nor a pattern:
    an edit to CASE_SPECS reaches hom_vector only through a list planned
    after it.
    """
    closed, groups, folds = [], {}, {}
    for i, d in enumerate(descs):
        key, sigma, param, lam = case(d, field)
        if _is_closed_form(d):
            closed.append(i)
        else:
            groups.setdefault((key, sigma, lam), []).append((i, CASE_SPECS[key]["reps"](param)))

    def fold(plan, lam):
        return folds.setdefault((plan, lam), len(folds))

    staircases = []
    for (key, sigma, lam), slots in groups.items():
        head, rep, capped = _plan(CASE_SPECS[key], sigma)
        top = max(r for _, r in slots)
        head = None if head is None else fold(head, lam)
        plan = _Plan(head, fold(rep, lam), capped)
        staircases.append((plan, top, tuple(slots)))
    return _Targets(tuple(closed), tuple(staircases), tuple(
        (plan, _coefficients(field, lam, integral=True)) for plan, lam in folds))


def hom_vector(M, descs):
    """[hom_dim(M, d) for d in descs], one transfer recursion per case.

    Descriptors sharing (case key, sigma, lam) share one staircase, so one
    pass up to their largest parameter answers all of them.  Which
    descriptors share one, and what each pass asks for, depends on the
    list and the field alone: _targets plans it once per process, and
    any list equal to a planned one reads that plan.  Per call, M's
    letters are made integral and sparse (_sparse_letters) once, each
    pass runs the staircase its list's plan compiled, all passes share
    one kernel cache (_kernel), started with the nonzero working rows of
    [A B C D], and one list of fold results, indexed by the plan's fold
    ids, so each distinct fold is split once.  Those rows are
    U [A B C D] V, U and V invertible, and the echelon passes leave all
    but rank [A B C D] of them zero, so [M, P(0,0)] = cor([A B C D]) is
    their count of zero rows, read with no elimination of its own; the
    folds add it to their z (_kernel_fold).  I(0,j) are the dimensions
    hom_dim reads.  A pass returns its group's law (_staircase_coranks),
    and each member's answer is read from it.
    """
    field = M.field
    descs = tuple(descs)
    plan = _targets(descs, field)
    out = [None] * len(descs)
    cuts, rows = _sparse_letters(field, M.mats())
    kernels = {(): [row for row in rows if any(row)]}
    zeros = len(rows) - len(kernels[()])
    for i in plan.closed:
        out[i] = zeros if descs[i].family == FAMILY_POSTPROJECTIVE else hom_dim(M, descs[i])
    folds = [_kernel_fold(field, *fold, cuts, kernels, zeros) for fold in plan.folds]
    for staircase, top, slots in plan.groups:
        coranks, k, cor, dz = _staircase_coranks(field, staircase, top, folds)
        for i, r in slots:
            out[i] = coranks[r] if r < k else cor + (r - k) * dz
    return out
