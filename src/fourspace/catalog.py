"""Constructors for the indecomposable modules of the four subspace algebra.

The indecomposables fall into four families: postprojectives P(n, j),
preinjectives I(n, j) (j the vertex, 0 the center), regular homogeneous
modules R(l, lam) with lam outside {0, 1}, and regular exceptional modules
R(s, m, lam) with s in {0, 1} and lam in {0, 1, inf}.  Every constructor
assembles its quadruple from identity / zero / exchange / Jordan /
projection blocks.  canonical_form names the one placement: each
subspace-vertex member (j = 1..4) of the P/I families, and each exceptional
row, is a representative (the j = 1 member, R(0, m, 0)) with its slots
permuted by a vertex permutation sigma.  case is the one dispatch on
family, parity, size and lam: it names the representative's pattern by
one of eight keys.  build reads the slot builder of that key, and homdim
the staircase of that key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import (
    anti_identity,
    identity,
    jordan,
    pi_drop_first,
    pi_drop_last,
    vstack,
    zeros,
)
from .modules import PERM_CYCLE, PERM_IDENTITY, LambdaModule, perm_compose, permute_slots


class InvalidParams(ValueError):
    """Descriptor parameters violate a family invariant."""


class _Infinity:
    """Label for the lam = inf exceptional tube; never enters a matrix."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

FAMILY_POSTPROJECTIVE = "P"
FAMILY_PREINJECTIVE = "I"
FAMILY_REGULAR_HOMOGENEOUS = "RH"
FAMILY_REGULAR_EXCEPTIONAL = "RE"


@dataclass(frozen=True)
class IndecDescriptor:
    """Symbolic name of a catalog module: family tag plus parameters.

    params is (n, j) for P/I, (l, lam) for RH, (s, m, lam) for RE.  lam is
    stored canonically (Fraction over the rationals, residue over GF(p),
    or the INF label), so descriptors hash and compare by value.
    """

    family: str
    params: tuple

    def label(self):
        if self.family in (FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE):
            n, j = self.params
            return f"{self.family}({n},{j})"
        if self.family == FAMILY_REGULAR_HOMOGENEOUS:
            l, lam = self.params
            return f"R({l},{lam})"
        s, m, lam = self.params
        return f"R({s},{m},{lam})"

    def __repr__(self):
        return self.label()


def P(n, j):
    if n < 0 or j not in (0, 1, 2, 3, 4):
        raise InvalidParams(f"P({n},{j}): need n >= 0 and vertex j in 0..4")
    return IndecDescriptor(FAMILY_POSTPROJECTIVE, (n, j))


def I(n, j):
    if n < 0 or j not in (0, 1, 2, 3, 4):
        raise InvalidParams(f"I({n},{j}): need n >= 0 and vertex j in 0..4")
    return IndecDescriptor(FAMILY_PREINJECTIVE, (n, j))


def R(*params):
    """R(l, lam) homogeneous, or R(s, m, lam) exceptional with lam in {0,1,inf}."""
    if len(params) == 2:
        l, lam = params
        if l < 1:
            raise InvalidParams(f"R({l},{lam}): need l >= 1")
        if lam is INF:
            raise InvalidParams(
                "R(l,inf) is exceptional: use R(s,m,inf) with s in {0,1}"
            )
        if lam == 0 or lam == 1:
            raise InvalidParams(
                f"R({l},{lam}): lam in {{0,1}} lives in the exceptional family; "
                f"use R(s,{2 * l},{lam}) with s in {{0,1}}"
            )
        return IndecDescriptor(FAMILY_REGULAR_HOMOGENEOUS, (l, lam))
    if len(params) == 3:
        s, m, lam = params
        if s not in (0, 1) or m < 1:
            raise InvalidParams(f"R({s},{m},{lam}): need s in {{0,1}} and m >= 1")
        if not (lam is INF or lam == 0 or lam == 1):
            raise InvalidParams(f"R({s},{m},{lam}): exceptional lam must be 0, 1 or inf")
        lam = INF if lam is INF else int(lam)
        return IndecDescriptor(FAMILY_REGULAR_EXCEPTIONAL, (s, m, lam))
    raise InvalidParams(f"R takes 2 or 3 parameters, got {len(params)}")


def parse_descriptor(text, field):
    """Parse "P(n,j)", "I(n,j)", "R(l,lam)" or "R(s,m,lam)"; lam in the field."""
    s = "".join(text.split())
    if len(s) < 4 or s[1] != "(" or s[-1] != ")":
        raise InvalidParams(f"malformed descriptor: {text!r}")
    name, args = s[0], s[2:-1].split(",")
    try:
        if name == "P" and len(args) == 2:
            return P(int(args[0]), int(args[1]))
        if name == "I" and len(args) == 2:
            return I(int(args[0]), int(args[1]))
        if name == "R" and len(args) == 2:
            # R points a lam typed as 0 or 1 to the exceptional rows;
            # tube_lambda names one that only reduces to 0 or 1 as typed
            lam = int(args[1]) if args[1] in ("0", "1") else tube_lambda(field, args[1])
            return R(int(args[0]), lam)
        if name == "R" and len(args) == 3:
            lam = INF if args[2] == "inf" else int(args[2])
            return R(int(args[0]), int(args[1]), lam)
    except InvalidParams:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"malformed descriptor {text!r}: {exc}") from None
    raise InvalidParams(f"malformed descriptor: {text!r}")


# -- construction -----------------------------------------------------------


def _p0_slots(field, n):
    i_n, ai = identity(field, n), anti_identity(field, n)
    return (
        vstack([i_n, zeros(field, n + 1, n)]),
        vstack([zeros(field, n + 1, n), i_n]),
        vstack([zeros(field, 1, n), i_n, ai]),
        vstack([i_n, ai, zeros(field, 1, n)]),
    )


def _p_odd_slots(field, n):
    i1 = identity(field, n + 1)
    return (
        vstack([zeros(field, 1, n), identity(field, n), identity(field, n), zeros(field, 1, n)]),
        vstack([i1, zeros(field, n + 1, n + 1)]),
        vstack([zeros(field, n + 1, n + 1), i1]),
        vstack([i1, i1]),
    )


def _p_even_slots(field, n):
    i_n = identity(field, n)
    return (
        vstack([identity(field, n + 1), zeros(field, n, n + 1)]),
        vstack([zeros(field, n + 1, n), i_n]),
        vstack([zeros(field, 1, n), i_n, i_n]),
        vstack([i_n, zeros(field, 1, n), i_n]),
    )


def _i0_slots(field, n):
    i1 = identity(field, n + 1)
    ai = anti_identity(field, n + 1)
    return (
        vstack([zeros(field, n, n + 1), i1]),
        vstack([i1, zeros(field, n, n + 1)]),
        vstack([ai, pi_drop_last(field, n)]),
        vstack([pi_drop_first(field, n), ai]),
    )


def _i_odd_slots(field, n):
    i1 = identity(field, n + 1)
    return (
        vstack([zeros(field, n + 1, n), identity(field, n)]),
        vstack([i1, zeros(field, n, n + 1)]),
        vstack([i1, pi_drop_first(field, n)]),
        vstack([i1, pi_drop_last(field, n)]),
    )


def _i_even_slots(field, n):
    i_n = identity(field, n)
    return (
        vstack([pi_drop_last(field, n), pi_drop_first(field, n)]),
        vstack([zeros(field, n, n), i_n]),
        vstack([i_n, zeros(field, n, n)]),
        vstack([i_n, i_n]),
    )


def _r_even_blocks(field, l, lam):
    i_l = identity(field, l)
    return (
        vstack([i_l, zeros(field, l, l)]),          # E1 = [I; 0]
        vstack([zeros(field, l, l), i_l]),          # E2 = [0; I]
        vstack([i_l, i_l]),                         # E3 = [I; I]
        vstack([jordan(field, l, lam), i_l]),       # E4 = [J(lam); I]
    )


def _r_odd_blocks(field, l):
    i_s = identity(field, l - 1)
    return (
        vstack([i_s, zeros(field, 1, l - 1), i_s]),        # T1
        vstack([pi_drop_last(field, l - 1), identity(field, l)]),  # T2
        vstack([i_s, zeros(field, l, l - 1)]),             # T3
        vstack([zeros(field, l - 1, l), identity(field, l)]),  # T4
    )


# sigma with build(R(s, m, lam)) == permute_vertices(build(R(0, m, 0)), sigma),
# the same for the even and odd rows of each (s, lam): the one table that
# places the exceptional rows, read by canonical_form and so by build
_EXCEPTIONAL_SIGMA = {
    (0, 0): PERM_IDENTITY,
    (1, 0): (2, 1, 4, 3),
    (0, 1): (3, 1, 4, 2),
    (1, 1): (1, 3, 2, 4),
    (0, "inf"): (2, 1, 3, 4),
    (1, "inf"): (1, 2, 4, 3),
}


def _lam_key(lam):
    return "inf" if lam is INF else int(lam)


def tube_lambda(field, lam):
    """lam coerced into field, or parsed there if it is the typed text;
    InvalidParams, naming lam as given, if it reduces to 0 or 1 there (8 in
    GF(7)), the points of the exceptional tubes R(s, m, lam)."""
    value = field.parse(lam) if isinstance(lam, str) else field.coerce(lam)
    if value == field.zero or value == field.one:
        raise InvalidParams(f"lambda {lam} reduces to {value} in {field}; no homogeneous tube")
    return value


_SLOTS = {
    "P0": _p0_slots,
    "P_ODD": _p_odd_slots,
    "P_EVEN": _p_even_slots,
    "I0": _i0_slots,
    "I_ODD": _i_odd_slots,
    "I_EVEN": _i_even_slots,
    "R_EVEN": _r_even_blocks,
    "R_ODD": _r_odd_blocks,
}


def case(desc, field):
    """(key, sigma, size, lam): the one choice of pattern for desc.

    sigma carries desc to its canonical_form representative, whose family
    and parity pick one of eight keys, each naming one slot builder here
    and one staircase pattern in homdim.CASE_SPECS.  size is the builder's
    block size, lam the tube parameter in field (0 for the even exceptional
    rows, which are R_EVEN at lam = 0), None where the pattern has none.
    """
    rep, sigma = canonical_form(desc)
    fam, params = rep.family, rep.params
    if fam in (FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE):
        # keys "P0", "P_ODD", "P_EVEN" and their "I" twins
        n, j = params
        if j == 0:
            return f"{fam}0", sigma, n, None
        return f"{fam}_{'ODD' if n % 2 else 'EVEN'}", sigma, n // 2, None
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        l, lam = params
        return "R_EVEN", sigma, l, tube_lambda(field, lam)
    _, m, _ = params
    if m % 2 == 0:
        return "R_EVEN", sigma, m // 2, field.zero
    return "R_ODD", sigma, (m + 1) // 2, None


def build(desc, field):
    """Assemble the catalog module for desc over the given field: the slots
    of case's key, permuted by its sigma."""
    key, sigma, size, lam = case(desc, field)
    args = (field, size) if lam is None else (field, size, lam)
    return LambdaModule(*permute_slots(_SLOTS[key](*args), sigma))


def canonical_form(desc):
    """(representative descriptor, sigma) with build(desc) = permute(build(rep), sigma).

    The representative of a P/I member at vertex j >= 1 is its vertex-1
    member, and sigma the 4-cycle applied j - 1 times; that of an
    exceptional row R(s, m, lam) is R(0, m, 0), with sigma from
    _EXCEPTIONAL_SIGMA.  Every other module is its own representative.
    """
    fam, params = desc.family, desc.params
    if fam in (FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE):
        n, j = params
        if j == 0:
            return desc, PERM_IDENTITY
        sigma = PERM_IDENTITY
        for _ in range(j - 1):
            sigma = perm_compose(PERM_CYCLE, sigma)
        rep = P(n, 1) if fam == FAMILY_POSTPROJECTIVE else I(n, 1)
        return rep, sigma
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        return desc, PERM_IDENTITY
    if fam == FAMILY_REGULAR_EXCEPTIONAL:
        s, m, lam = params
        return R(0, m, 0), _EXCEPTIONAL_SIGMA[(s, _lam_key(lam))]
    raise InvalidParams(f"unknown family {fam!r}")


# -- declared dimension vectors ----------------------------------------------
#
# Transcribed row by row from the catalog table (not recomputed from the
# constructors), so tests comparing build().dim_vector() against these
# formulas exercise an independent source.


def declared_dim(desc):
    fam, params = desc.family, desc.params
    if fam == FAMILY_POSTPROJECTIVE:
        m, j = params
        if j == 0:
            return (2 * m + 1, m, m, m, m)
        n = m // 2
        if m % 2:
            base = {
                1: (2 * n + 2, n, n + 1, n + 1, n + 1),
                2: (2 * n + 2, n + 1, n, n + 1, n + 1),
                3: (2 * n + 2, n + 1, n + 1, n, n + 1),
                4: (2 * n + 2, n + 1, n + 1, n + 1, n),
            }
        else:
            base = {
                1: (2 * n + 1, n + 1, n, n, n),
                2: (2 * n + 1, n, n + 1, n, n),
                3: (2 * n + 1, n, n, n + 1, n),
                4: (2 * n + 1, n, n, n, n + 1),
            }
        return base[j]
    if fam == FAMILY_PREINJECTIVE:
        m, j = params
        if j == 0:
            return (2 * m + 1, m + 1, m + 1, m + 1, m + 1)
        n = m // 2
        if m % 2:
            base = {
                1: (2 * n + 1, n, n + 1, n + 1, n + 1),
                2: (2 * n + 1, n + 1, n, n + 1, n + 1),
                3: (2 * n + 1, n + 1, n + 1, n, n + 1),
                4: (2 * n + 1, n + 1, n + 1, n + 1, n),
            }
        else:
            base = {
                1: (2 * n, n + 1, n, n, n),
                2: (2 * n, n, n + 1, n, n),
                3: (2 * n, n, n, n + 1, n),
                4: (2 * n, n, n, n, n + 1),
            }
        return base[j]
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        l, _ = params
        return (2 * l, l, l, l, l)
    s, m, lam = params
    if m % 2 == 0:
        l = m // 2
        return (2 * l, l, l, l, l)
    l = (m + 1) // 2
    base = {
        (0, 0): (2 * l - 1, l - 1, l, l - 1, l),
        (1, 0): (2 * l - 1, l, l - 1, l, l - 1),
        (0, 1): (2 * l - 1, l, l, l - 1, l - 1),
        (1, 1): (2 * l - 1, l - 1, l - 1, l, l),
        (0, "inf"): (2 * l - 1, l, l - 1, l - 1, l),
        (1, "inf"): (2 * l - 1, l - 1, l, l, l - 1),
    }
    return base[(s, _lam_key(lam))]


# -- enumeration --------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationBounds:
    """Finite truncation of the infinite families.

    max_n bounds the printed first parameter of P(n, j) / I(n, j); max_l
    bounds the tube depth l, so exceptional rows R(s, 2l-1, lam) and
    R(s, 2l, lam) appear for l <= max_l; lambdas supplies the homogeneous
    parameters.  Enumeration skips only values equal to 0 or 1 (those
    points live in the exceptional rows) and repeats; it knows no field,
    so EnumerationBounds(1, 1, (4,)) yields R(1,4), though 4 reduces to 1
    in GF(3).  tube_lambda(field, lam) decides that: decompose rejects
    such bounds through it up front, and the CLI skips such lambdas.  A
    negative max_n or max_l raises InvalidParams.
    """

    max_n: int
    max_l: int
    lambdas: tuple = ()

    def __post_init__(self):
        if self.max_n < 0 or self.max_l < 0:
            raise InvalidParams(
                f"bounds need max_n >= 0 and max_l >= 0, got {self.max_n} and {self.max_l}"
            )


def enumerate_descriptors(bounds):
    """All in-bounds descriptors, duplicate-free, in the decomposition order:
    postprojectives by n ascending, regulars by l ascending, preinjectives
    by n descending.
    """
    out = []
    for n in range(bounds.max_n + 1):
        for j in range(5):
            out.append(P(n, j))
    seen_lams = []
    for lam in bounds.lambdas:
        if lam == 0 or lam == 1 or lam in seen_lams:
            continue
        seen_lams.append(lam)
    for l in range(1, bounds.max_l + 1):
        for lam in seen_lams:
            out.append(R(l, lam))
        for m in (2 * l - 1, 2 * l):
            for lam in (0, 1, INF):
                for s in (0, 1):
                    out.append(R(s, m, lam))
    for n in range(bounds.max_n, -1, -1):
        for j in range(5):
            out.append(I(n, j))
    return out
