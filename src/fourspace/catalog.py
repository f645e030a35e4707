"""Constructors for the indecomposable modules of the four subspace algebra.

The indecomposables fall into four families: postprojectives P(n, j),
preinjectives I(n, j) (j the vertex, 0 the center), regular homogeneous
modules R(l, lam) with lam outside {0, 1}, and regular exceptional modules
R(s, m, lam) with s in {0, 1} and lam in {0, 1, inf}.  A descriptor is
checked once, when it is made (IndecDescriptor), so case, canonical_form,
declared_dim and tau read it as it stands.  Every constructor assembles
its quadruple from identity / zero / exchange / Jordan / projection
blocks.  Two tables state the one placement: each
subspace-vertex member (j = 1..4) of the P/I families, and each exceptional
row, is a representative (the j = 1 member, R(0, m, 0)) with its slots
permuted by a vertex permutation sigma, from _CYCLE_POWERS and
_EXCEPTIONAL_SIGMA.  A pattern depends only on a descriptor's class: its
family, its vertex or exceptional row, and the parity of its size.
_CLASSES holds the 31 classes, each with its key (one of eight: the
family, then that parity) and its sigma from the two tables, which
canonical_form reads too.  case is the one dispatch per descriptor: it
reads its class's entry and works out only its size and lam.  build reads
the slot builder of case's key, and homdim the staircase of that key.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import partial
from itertools import accumulate
from numbers import Rational

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


class IndecDescriptor(namedtuple("IndecDescriptor", "family params")):
    """Symbolic name of a catalog module: family tag plus parameters.

    params is (n, j) for P/I, (l, lam) for RH, (s, m, lam) for RE.  A
    descriptor is checked when it is made, by position, by keyword,
    through _replace or _make and by unpickling alike: InvalidParams for
    an unknown family, a wrong parameter count, or what the family's
    constructor refuses (_CHECKS), with that constructor's message.  The
    params are kept as the check returns them: sizes, vertices and s as
    plain ints, an exceptional lam as 0, 1 or the INF label, and a
    homogeneous lam as the exact number given (an int, a Fraction or a
    residue).  So no descriptor names a module that no constructor
    makes, and equal descriptors, which hash alike, name one module over
    every field.
    """

    __slots__ = ()

    def __new__(cls, family, params):
        check, count = _CHECKS.get(family, (None, None))
        if check is None:
            raise InvalidParams(f"unknown family {family!r}")
        if len(params) != count:
            raise InvalidParams(f"{family} takes {count} parameters, got {params!r}")
        return tuple.__new__(cls, (family, check(*params)))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: the new descriptor is checked too
        return cls(*iterable)

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


def _integers(name, *xs):
    """xs as plain ints, so that equal descriptors name one module, as
    P(2.0, 1) would equal P(2, 1); InvalidParams for a bool or what
    operator.index refuses.  Callers skip it for a plain int."""
    try:
        if bool not in map(type, xs):
            return tuple(map(operator.index, xs))
    except TypeError:
        pass
    raise InvalidParams(f"{name}: need integer sizes, vertices and s, got {xs}")


def _sizes(name, n, j):
    """(n, j) as plain ints, or InvalidParams: what P and I check."""
    if type(n) is not int or type(j) is not int:
        n, j = _integers(name, n, j)
    if n < 0 or j not in (0, 1, 2, 3, 4):
        raise InvalidParams(f"{name}({n},{j}): need n >= 0 and vertex j in 0..4")
    return n, j


def _exact(params):
    """InvalidParams unless lam, the last of R's params, is INF or a
    numbers.Rational.  A float, complex or text lam compares or prints
    as an exact one (R(1, 2.0) == R(1, 2), and R(1, "2") reads R(1,2)),
    so two descriptors that differ would name one module, or one
    that no field can read.  Callers skip it for a plain int."""
    lam = params[-1]
    if not (lam is INF or isinstance(lam, Rational)):
        raise InvalidParams(f"R{params}: lam must be exact, not a {type(lam).__name__}")


def _homogeneous(l, lam):
    """(l, lam), l a plain int, or InvalidParams: what R(l, lam) checks."""
    if type(lam) is not int:
        _exact((l, lam))
    if type(l) is not int:
        (l,) = _integers("R", l)
    if l < 1:
        raise InvalidParams(f"R({l},{lam}): need l >= 1")
    if lam is INF:
        raise InvalidParams("R(l,inf) is exceptional: use R(s,m,inf) with s in {0,1}")
    if lam == 0 or lam == 1:
        raise InvalidParams(
            f"R({l},{lam}): lam in {{0,1}} lives in the exceptional family; "
            f"use R(s,{2 * l},{lam}) with s in {{0,1}}"
        )
    return l, lam


def _exceptional(s, m, lam):
    """(s, m, lam), lam an int or INF, or InvalidParams: what
    R(s, m, lam) checks."""
    if type(lam) is not int:
        _exact((s, m, lam))
    if type(s) is not int or type(m) is not int:
        s, m = _integers("R", s, m)
    if s not in (0, 1) or m < 1:
        raise InvalidParams(f"R({s},{m},{lam}): need s in {{0,1}} and m >= 1")
    if not (lam is INF or lam == 0 or lam == 1):
        raise InvalidParams(f"R({s},{m},{lam}): exceptional lam must be 0, 1 or inf")
    return s, m, INF if lam is INF else int(lam)


# family -> (the check IndecDescriptor makes, its parameter count)
_CHECKS = {
    FAMILY_POSTPROJECTIVE: (partial(_sizes, "P"), 2),
    FAMILY_PREINJECTIVE: (partial(_sizes, "I"), 2),
    FAMILY_REGULAR_HOMOGENEOUS: (_homogeneous, 2),
    FAMILY_REGULAR_EXCEPTIONAL: (_exceptional, 3),
}


def P(n, j):
    return IndecDescriptor(FAMILY_POSTPROJECTIVE, (n, j))


def I(n, j):
    return IndecDescriptor(FAMILY_PREINJECTIVE, (n, j))


def R(*params):
    """R(l, lam) homogeneous, or R(s, m, lam) exceptional with lam in {0,1,inf};
    a lam that is not exact, as R(1, 2.0) would equal R(1, 2), raises
    InvalidParams."""
    if len(params) == 2:
        return IndecDescriptor(FAMILY_REGULAR_HOMOGENEOUS, params)
    if len(params) == 3:
        return IndecDescriptor(FAMILY_REGULAR_EXCEPTIONAL, params)
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
            # R points a lam typed as 0, 1 or inf to the exceptional rows;
            # tube_lambda names one that only reduces to 0 or 1 as typed
            if args[1] == "inf":
                lam = INF
            elif args[1] in ("0", "1"):
                lam = int(args[1])
            else:
                lam = tube_lambda(field, args[1])
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


# the 4-cycle applied 0, 1, 2 and 3 times: sigma of the vertex-j P/I
# members, j = 1..4, read by canonical_form and _CLASSES
_CYCLE_POWERS = tuple(
    accumulate(range(3), lambda sigma, _: perm_compose(PERM_CYCLE, sigma), initial=PERM_IDENTITY)
)

# sigma with build(R(s, m, lam)) == permute_vertices(build(R(0, m, 0)), sigma),
# the same for the even and odd rows of each (s, lam): the one table that
# places the exceptional rows, read by canonical_form and _CLASSES
_EXCEPTIONAL_SIGMA = {
    (0, 0): PERM_IDENTITY,
    (1, 0): (2, 1, 4, 3),
    (0, 1): (3, 1, 4, 2),
    (1, 1): (1, 3, 2, 4),
    (0, INF): (2, 1, 3, 4),
    (1, INF): (1, 2, 4, 3),
}

# class -> (key, sigma), read by case: P/I at the center, P/I at vertex j
# by size parity, the homogeneous tubes, an exceptional row (s, lam) by the
# parity of m.  The key is the family, then that parity; sigma is the tables'
_PARITY = ("EVEN", "ODD")
_CLASSES = {
    **{(fam, 0, 0): (f"{fam}0", PERM_IDENTITY)
       for fam in (FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE)},
    **{(fam, j, parity): (f"{fam}_{_PARITY[parity]}", sigma)
       for fam in (FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE)
       for j, sigma in enumerate(_CYCLE_POWERS, start=1)
       for parity in (0, 1)},
    FAMILY_REGULAR_HOMOGENEOUS: ("R_EVEN", PERM_IDENTITY),
    **{(FAMILY_REGULAR_EXCEPTIONAL, s, lam, parity): (f"R_{_PARITY[parity]}", sigma)
       for (s, lam), sigma in _EXCEPTIONAL_SIGMA.items()
       for parity in (0, 1)},
}


def tube_lambda(field, lam):
    """lam coerced into field, or parsed there if it is the typed text;
    InvalidParams, naming lam as given, if it is the text "inf" or reduces
    to 0 or 1 there (8 in GF(7)): the points of the exceptional tubes
    R(s, m, lam), as parse_descriptor reads them.  So is a lam whose
    denominator the characteristic divides (1/7 in GF(7)): it names no
    element of field.  Text the field cannot parse ("x", "1/0") raises
    its ValueError."""
    if lam == "inf":
        raise InvalidParams(f"lambda {lam} is an exceptional point; no homogeneous tube")
    try:
        value = field.parse(lam) if isinstance(lam, str) else field.coerce(lam)
    except ZeroDivisionError:
        raise InvalidParams(f"lambda {lam} has a denominator divisible by the characteristic "
                            f"of {field}; no homogeneous tube") from None
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

    (key, sigma) is desc's class entry in _CLASSES: one of eight keys, each
    naming one slot builder here and one staircase pattern in
    homdim.CASE_SPECS, and the sigma of _CYCLE_POWERS or _EXCEPTIONAL_SIGMA
    that carries desc to its representative.  Only size and lam are read
    off desc itself: size is the builder's block size, lam the tube
    parameter in field (0 for the even exceptional rows, which are R_EVEN
    at lam = 0), None where the pattern has none.
    """
    fam, params = desc
    if fam == FAMILY_POSTPROJECTIVE or fam == FAMILY_PREINJECTIVE:
        n, j = params
        if j == 0:
            return (*_CLASSES[fam, 0, 0], n, None)
        return (*_CLASSES[fam, j, n % 2], n // 2, None)
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        l, lam = params
        return (*_CLASSES[fam], l, tube_lambda(field, lam))
    s, m, lam = params  # FAMILY_REGULAR_EXCEPTIONAL
    if m % 2 == 0:
        return (*_CLASSES[fam, s, lam, 0], m // 2, field.zero)
    return (*_CLASSES[fam, s, lam, 1], (m + 1) // 2, None)


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
    case reads the same placement through _CLASSES, never through here.
    """
    fam, params = desc
    if fam in (FAMILY_POSTPROJECTIVE, FAMILY_PREINJECTIVE):
        n, j = params
        if j == 0:
            return desc, PERM_IDENTITY
        rep = P(n, 1) if fam == FAMILY_POSTPROJECTIVE else I(n, 1)
        return rep, _CYCLE_POWERS[j - 1]
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        return desc, PERM_IDENTITY
    s, m, lam = params  # FAMILY_REGULAR_EXCEPTIONAL
    return R(0, m, 0), _EXCEPTIONAL_SIGMA[s, lam]


# -- dimension vectors and tau ------------------------------------------------
#
# Derived from the Coxeter transformation, never from the constructors or
# from the sigma tables that build reads, so tests comparing
# build().dim_vector() against declared_dim exercise an independent source.
# The data are delta = (2, 1, 1, 1, 1), the projectives P(0, j) and the
# injectives I(0, j) (arrows j -> 0), and the quasi-simples R(0, 1, lam) of
# the three exceptional tubes.  Three rules give the rest:
# - dim P(1, j) = coxeter^-1(dim P(0, j)) and dim I(1, j) = coxeter(dim I(0, j));
# - dim X(m + 2) = dim X(m) + |defect X| * delta along each P and I family,
#   with defect X = <delta, dim X> = x_1 + ... + x_4 - 2 x_0;
# - dim R(1, 1, lam) = coxeter(dim R(0, 1, lam)), and a tube row R(s, m, lam)
#   is (m // 2) * delta plus, for odd m, its quasi-simple; R(l, lam) = l * delta.
# Each rule is a few integer operations at any depth.

_P0 = ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 0, 1))
_I0 = ((1, 1, 1, 1, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
_QUASI_SIMPLE = {0: (1, 0, 1, 0, 1), 1: (1, 1, 1, 0, 0), INF: (1, 1, 0, 0, 1)}


def coxeter(x):
    """Phi(x) = (s; s - x_1, ..., s - x_4) with s = x_1 + ... + x_4 - x_0,
    the Coxeter transformation: dim tau(X) = coxeter(dim X) for every
    catalog X but the projectives P(0, j)."""
    s = sum(x) - 2 * x[0]
    return (s, *(s - v for v in x[1:]))


def _coxeter_inverse(y):
    return (4 * y[0] - sum(y), *(y[0] - v for v in y[1:]))


# key -> ((dim X(even), dim X(odd)), c): dim X(m) is the base of m's parity
# plus (m // 2) * c * delta, for key (family, j) of P(m, j) and I(m, j),
# (family, s, lam) of R(s, m, lam), and the homogeneous family, read at m = 2l;
# c is |defect| = |x_1 + ... + x_4 - 2 x_0| along P and I, 1 in the tubes
_DIM_RULES = {
    **{(fam, j): ((x, step(x)), abs(sum(x) - 3 * x[0]))
       for fam, bases, step in ((FAMILY_POSTPROJECTIVE, _P0, _coxeter_inverse),
                                (FAMILY_PREINJECTIVE, _I0, coxeter))
       for j, x in enumerate(bases)},
    **{(FAMILY_REGULAR_EXCEPTIONAL, s, lam): (((0,) * 5, coxeter(q) if s else q), 1)
       for lam, q in _QUASI_SIMPLE.items() for s in (0, 1)},
    FAMILY_REGULAR_HOMOGENEOUS: (((0,) * 5, None), 1),
}


def declared_dim(desc):
    """The dimension vector of desc, by the rules above."""
    fam, params = desc
    if fam == FAMILY_POSTPROJECTIVE or fam == FAMILY_PREINJECTIVE:
        m, j = params
        key = fam, j
    elif fam == FAMILY_REGULAR_EXCEPTIONAL:
        s, m, lam = params
        key = fam, s, lam
    else:
        m, key = 2 * params[0], fam  # R(l, lam) = l * delta, an even tube row
    bases, c = _DIM_RULES[key]
    t = m // 2 * c
    x0, x1, x2, x3, x4 = bases[m % 2]
    return (x0 + 2 * t, x1 + t, x2 + t, x3 + t, x4 + t)  # the base + t * delta


def tau(desc):
    """The Auslander-Reiten translate of desc, None for a projective P(0, j):
    P(m, j) -> P(m - 1, j), I(m, j) -> I(m + 1, j), R(l, lam) fixed and
    R(s, m, lam) -> R(1 - s, m, lam)."""
    fam, params = desc
    if fam == FAMILY_POSTPROJECTIVE:
        m, j = params
        return IndecDescriptor(fam, (m - 1, j)) if m else None
    if fam == FAMILY_PREINJECTIVE:
        m, j = params
        return IndecDescriptor(fam, (m + 1, j))
    if fam == FAMILY_REGULAR_HOMOGENEOUS:
        return desc
    s, m, lam = params  # FAMILY_REGULAR_EXCEPTIONAL
    return IndecDescriptor(fam, (1 - s, m, lam))


# -- enumeration --------------------------------------------------------------


class EnumerationBounds(namedtuple("EnumerationBounds", "max_n max_l lambdas")):
    """Finite truncation of the infinite families.

    max_n bounds the printed first parameter of P(n, j) / I(n, j); max_l
    bounds the tube depth l, so exceptional rows R(s, 2l-1, lam) and
    R(s, 2l, lam) appear for l <= max_l; lambdas supplies the homogeneous
    parameters.  Enumeration skips only values equal to 0 or 1 (those
    points live in the exceptional rows) and repeats; it knows no field,
    so EnumerationBounds(1, 1, (4,)) yields R(1,4), though 4 reduces to 1
    in GF(3).  tube_lambda(field, lam) decides that: decompose rejects
    such bounds through it up front, and the CLI skips such lambdas.  A
    max_n or max_l that is not an int, or is negative, raises InvalidParams.
    """

    __slots__ = ()

    def __new__(cls, max_n, max_l, lambdas=()):
        if {type(max_n), type(max_l)} != {int}:  # rejects True as well as 2.5
            raise InvalidParams(f"bounds must be ints, got {max_n!r} and {max_l!r}")
        if max_n < 0 or max_l < 0:
            raise InvalidParams(
                f"bounds need max_n >= 0 and max_l >= 0, got {max_n} and {max_l}"
            )
        return tuple.__new__(cls, (max_n, max_l, lambdas))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: the new bounds are checked too
        return cls(*iterable)


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
