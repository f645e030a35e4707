"""End-to-end checks of the installed `fourspace` console script.

Run with the package installed and `fourspace` on PATH:

    python .github/console_checks.py

Every check runs `fourspace` as a subprocess in a temporary directory and
prints one line, "ok <check>" or "FAIL <check>: <why>".  The script exits
1 if any check failed.  The checks are:

- `fourspace verify` runs, and one QQ run_sweep in-process, twice: the
  second reads every target from the cache the first filled, with no
  miss (verify._catalog_target.cache_info());
- hom_oracle against the nullity of hom_system's full matrix, both ways,
  and hom_basis, as many maps as that nullity and each one a
  homomorphism (check_hom), between random small modules, one of them
  with the three letters the oracle frames equal, and seven DIFFS
  modules: w5 and q5 (n_0 = 22), w9 (n_0 = 44), z4 (an empty vertex, a
  letter of rank 1 on 2 columns), e7 (exceptional tubes), c6 (A and B
  with the smallest images, so B, the higher slot, written) and p5
  (planes in the frame of its three framed letters);
- hom_vector of one module over a `homdim --all` list in-process, three
  times: the second call, over an equal list made again, and the third,
  over the first list round-tripped through pickle (equal descriptors,
  not the same objects), read the plan the first made, with no miss
  (homdim._targets.cache_info()), and answer the same; so does a fourth,
  on the module read back from its JSON record, over a fresh
  PrimeField(32003) equal to the first by value;
- formula against oracle: each DIFFS row writes a module file and runs
  `fourspace homdim` on it with and without --oracle, and the two outputs
  must be equal and have the expected number of lines; t3 is a GF(3) sum
  with tubes, where the signs of the case matrices show (over GF(2) no
  sign does); h3 holds and asks for only members at no copies of a
  pattern whose head is its rep; v3 is a GF(3) sum on which hom_vector
  steps from a full state (an in-process check holds it to that); q5's
  descriptor row also runs with --oracle before its descriptors, which
  must read as they do after them;
- `fourspace homdim` of a GF(3) and a QQ disguised sum against FAR,
  members about 10^9 copies deep of four patterns, held to hom_vector
  in-process: a staircase stops at its fixed point within g + 1 steps,
  W's width g, so no copy count runs away;
- `fourspace decompose` of catalog modules and of a disguised sum;
- decompose of a QQ and a GF(32003) disguised sum in-process, twice, and
  is_isomorphic against the plain sum: the later calls read the plan the
  first filled;
- error paths that must print one `error:` line and no traceback;
- `fourspace homdim --oracle` before a target too large to build: the
  lines before it are printed, then one `error: too-large:` line.

A new formula/oracle scenario is one DIFFS row.
"""

from __future__ import annotations

import json
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from typing import NamedTuple

from fourspace import (
    QQ,
    EnumerationBounds,
    LambdaModule,
    PrimeField,
    build,
    check_hom,
    decompose,
    enumerate_descriptors,
    hom_basis,
    hom_oracle,
    hom_vector,
    is_isomorphic,
    module_direct_sum,
    module_from_record,
    module_to_record,
    parse_descriptor,
    random_module,
    run_sweep,
    zero_module,
)
from fourspace.exactmat import ExactMatrix, random_invertible, random_matrix
from fourspace import homdim
from fourspace.homdim import _targets
from fourspace.oracle import _source, hom_system
from fourspace.verify import _catalog_target, disguised_sum

VERIFY = [
    "--trials 2",
    "--trials 2 --prime 2",
    "--trials 2 --prime 2147483647",
    "--trials 4 --max-n 16 --max-l 8",
    "--trials 4 --max-n 16 --max-l 8 --prime 3",
]

NON_EMPTY = None


class Diff(NamedTuple):
    """`fourspace homdim file args` against the same with --oracle.

    The module is the sum of summands over field, disguised by
    disguised_sum with random.Random(seed) (seed None: the plain sum), its
    letters A, B, C, D then scaled by the four entries of `scale`; it must
    have dimension vector dim.
    """

    file: str
    field: object
    summands: str
    seed: int | None
    dim: tuple
    args: str
    lines: int | None  # expected line count, or NON_EMPTY
    no_zero: bool = False  # no line may read 0
    scale: tuple = (Fraction(1),) * 4
    oracle_first: bool = False  # --oracle also before the descriptors


GF2, GF3, GF5, GF7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
GF32003 = PrimeField(32003)
DEEP = " ".join(f"P({n},{j}) I({n},{j})" for n in (8, 10, 12) for j in (1, 2, 3, 4))
WIDE = "P(4,0) P(5,2) I(5,0) I(6,3) R(1,2) R(2,2) R(1,3,0) R(0,4,1)"
ZERO_COPY = "P(1,1) P(1,3) R(1,2) R(0,2,inf) R(1,2,1)"
BOUNDARY = "R(1,2) P(2,0) I(1,3)"
# about 10^9 copies of P0, I_ODD, R_EVEN and R_ODD
FAR = "P(1000000000,0) I(1000000001,2) R(1000000000,2) R(1,1999999999,inf)"
# (file, field, summands, disguise seed) that FAR is asked of
FAR_MODULES = [
    ("f3.json", GF3, "R(2,2) R(0,3,0) P(3,0) I(2,2)", 3),
    ("fq.json", QQ, "R(2,2) R(1,3,inf) P(2,0) I(3,2)", 5),
]

DIFFS = [
    Diff("r.json", QQ, "R(2,7/3)", None, (4, 2, 2, 2, 2),
         "--all --max-n 3 --max-l 2 --lambda 7/3", NON_EMPTY),
    # scaled by 1/7, s.json's letters hold Fractions
    Diff("s.json", QQ, "R(2,7/3) P(3,1) I(2,0)", 7, (13, 6, 7, 7, 7),
         "--all --max-n 6 --max-l 3 --lambda 7/3", 109, scale=(Fraction(1, 7),) * 4),
    Diff("s.json", QQ, "R(2,7/3) P(3,1) I(2,0)", 7, (13, 6, 7, 7, 7),
         DEEP, 24, no_zero=True, scale=(Fraction(1, 7),) * 4),
    # one scale per letter: d.json's letters hold Fractions of unequal
    # denominators, which hom_vector hands its first elimination unscaled
    Diff("d.json", QQ, "R(2,7/3) P(3,1) I(2,0)", 7, (13, 6, 7, 7, 7),
         "--all --max-n 6 --max-l 3 --lambda 7/3", 109,
         scale=(Fraction(1, 7), Fraction(1, 12797), Fraction(1), Fraction(2, 3))),
    Diff("g3.json", GF3, "I(1,0) P(2,1)", 1, (6, 4, 3, 3, 3),
         "P(4,3) P(6,2) I(8,3) P(8,4)", 4),
    Diff("g3.json", GF3, "I(1,0) P(2,1)", 1, (6, 4, 3, 3, 3),
         "--all --max-n 8 --max-l 4 --lambda 2", NON_EMPTY),
    Diff("g2.json", GF2, "P(7,2) I(6,1) R(0,3,1)", 3, (17, 10, 8, 8, 8),
         "--all --max-n 12 --max-l 4", 178),
    Diff("w5.json", GF32003, "P(4,0) I(5,0) R(1,2)", 4, (22, 11, 11, 11, 11),
         "--all --max-n 8 --max-l 4 --lambda 2", 142),
    # --oracle before the descriptors too: argparse alone would match them,
    # empty, before the flag
    Diff("q5.json", QQ, "P(4,0) I(5,0) R(1,2)", 4, (22, 11, 11, 11, 11), WIDE, 8,
         oracle_first=True),
    # n_0 = 44: hom_vector's folds write rows from K [A B C D] at twice w5's n_0
    Diff("w9.json", GF32003, "R(3,2) P(8,0) I(10,0)", 9, (44, 22, 22, 22, 22),
         "--all --lambda 2", 102),
    # exceptional tubes as summands, an even row among them
    Diff("e7.json", GF7, "R(0,2,0) R(1,4,inf) R(1,2,1) P(3,2) I(2,4)", 5, (14, 7, 6, 7, 8),
         "--all --max-n 5 --max-l 3 --lambda 3", 99),
    # signs that show over GF(3), which GF(2) cannot have: the "-lam" cells
    # at lam = 2, where -lam = 1, and the -1 cells the sign-normal form
    # keeps in P0, I0 and R_EVEN
    Diff("t3.json", GF3, "R(2,2) R(0,4,0) R(1,3,inf) P(2,0) I(2,0)", 3, (21, 10, 11, 11, 10),
         "--all --max-n 6 --max-l 4 --lambda 2", 122),
    # only members at no copies of a pattern whose head is its rep (P_ODD,
    # R_EVEN): each group's head is the step from the empty state, read
    # from its rep fold alone
    Diff("h3.json", GF3, ZERO_COPY, 2, (10, 4, 5, 4, 5), ZERO_COPY, 5, no_zero=True),
    # steps from a full state, which split T's right halves alone, with no
    # stacked split
    Diff("v3.json", GF3, BOUNDARY, 5, (8, 4, 4, 3, 4), "--all --max-n 8 --max-l 4", 142),
    # an empty vertex
    Diff("z4.json", GF32003, "P(0,0) P(0,0) P(0,1) P(0,2) P(0,3) I(0,1)", 2, (5, 2, 1, 1, 0),
         "--all --max-n 6 --max-l 3", 112),
    # letter ranks (5, 5, 6, 6): the oracle writes B, the higher slot of
    # the two smallest images, and frames A, C and D
    Diff("c6.json", GF32003, "I(4,3) I(4,4) R(1,2)", 6, (10, 5, 5, 6, 6),
         "--all --max-n 8 --max-l 4 --lambda 2", 142),
    # the frame of A, B and D, the oracle writing C, holds five planes (a
    # pair of lines in A and B whose sum is in D), over a field with signs
    Diff("p5.json", GF5, "R(2,3) P(2,4) R(1,4,0)", 3, (11, 5, 5, 5, 6),
         "--all --max-n 5 --max-l 3 --lambda 3", 99),
]

# the DIFFS modules check_oracle_nullity holds to the full system: n_0 = 22
# in w5 and q5; w9, n_0 = 44 over GF(32003), where the reduced frames
# thin the residual rows the most; z4, whose A has rank 1 on 2 columns, so
# its oracle source drops a dependent column; e7, exceptional tubes on
# either side; c6, whose A and B tie for the smallest image, so the oracle
# writes B; p5, whose frame holds planes
ORACLE_NULLITY = ("w5.json", "q5.json", "w9.json", "z4.json", "e7.json", "c6.json", "p5.json")

# decompose in-process: (field, summands, disguise seed, bounds)
DECOMPOSE_TWICE = [
    (QQ, "R(2,7/3) P(3,1) I(2,0)", 7, EnumerationBounds(6, 3, (Fraction(7, 3),))),
    (PrimeField(32003), "P(4,0) I(5,0) R(1,2)", 4, EnumerationBounds(6, 3, (2,))),
]

# `fourspace decompose` of a module written by `fourspace catalog` names it
DECOMPOSE = [("R(2,7/3)", "--max-n 2 --max-l 2 --lambda 7/3")] + [
    (d, "--max-n 3 --max-l 2")
    for d in ("R(0,3,0)", "R(1,3,0)", "R(0,3,1)", "R(1,3,1)", "R(0,3,inf)", "R(1,4,inf)",
              "P(3,4)", "I(2,3)")
]

failures = []


def check(name, ok, why=""):
    print(f"ok {name}" if ok else f"FAIL {name}: {why}", flush=True)
    if not ok:
        failures.append(name)


def fourspace(args):
    """(exit status, stdout, stderr) of the console script."""
    proc = subprocess.run(["fourspace", *args], capture_output=True, encoding="utf-8")
    return proc.returncode, proc.stdout, proc.stderr


def write_module(path, m):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(module_to_record(m), fh)


def module(field, summands, seed=None):
    """The sum of the summands, disguised with random.Random(seed) unless
    seed is None."""
    descs = [parse_descriptor(s, field) for s in summands.split()]
    if seed is not None:
        return disguised_sum(field, descs, random.Random(seed))
    m = zero_module(field)
    for d in descs:
        m = module_direct_sum(m, build(d, field))
    return m


def scaled(x, c):
    """x times the scalar c, each entry through x's field."""
    c = x.field.coerce(c)
    return ExactMatrix(x.field, [[c * e for e in r] for r in x.data], (x.rows, x.cols))


def run_diff(row):
    name = f"homdim {row.file} {row.args}"
    m = module(row.field, row.summands, row.seed)
    m = LambdaModule(*(scaled(x, c) for x, c in zip(m.mats(), row.scale)))
    if m.dim_vector() != row.dim:
        return check(name, False, f"dimension vector {m.dim_vector()}, expected {row.dim}")
    write_module(row.file, m)
    args = ["homdim", row.file, *row.args.split()]
    code, formula, err = fourspace(args)
    if code:
        return check(name, False, err.strip())
    code, oracle, err = fourspace(args + ["--oracle"])
    if code:
        return check(name, False, f"--oracle: {err.strip()}")
    lines = formula.splitlines()
    if formula != oracle:
        return check(name, False, "formula and oracle differ")
    if row.oracle_first:
        code, first, err = fourspace(["homdim", row.file, "--oracle", *row.args.split()])
        if code or first != oracle:
            return check(name, False, f"--oracle first: {err.strip() or 'output differs'}")
    if row.lines is NON_EMPTY and not lines:
        return check(name, False, "no output")
    if row.lines is not NON_EMPTY and len(lines) != row.lines:
        return check(name, False, f"{len(lines)} lines, expected {row.lines}")
    if row.no_zero and any(x.endswith("\t0") for x in lines):
        return check(name, False, "a line reads 0")
    check(name, True)


def check_far(file, field, summands, seed):
    """`fourspace homdim file FAR` against hom_vector in-process."""
    m = module(field, summands, seed)
    write_module(file, m)
    descs = [parse_descriptor(x, field) for x in FAR.split()]
    want = "".join(f"{d.label()}\t{v}\n" for d, v in zip(descs, hom_vector(m, descs)))
    code, out, err = fourspace(["homdim", file, *FAR.split()])
    check(f"homdim {file} {FAR}", code == 0 and out == want,
          err.strip() or f"{out!r}, in-process {want!r}")


def full_steps(m, descs):
    """How many steps (homdim._step) of hom_vector(m, descs) start from a
    full state, g rows g wide."""
    count = 0
    step = homdim._step

    def spied_step(field, s, t):
        nonlocal count
        count += bool(s) and len(s) == len(s[0])
        return step(field, s, t)

    homdim._step = spied_step
    try:
        hom_vector(m, descs)
    finally:
        homdim._step = step
    return count


def equal_framed_partner(field, framed, rng):
    """A module whose letters in the three framed slots are one invertible
    n_0 x n_0 matrix, 2 <= n_0 <= 4, and whose fourth letter is a single
    column: it frames the equal three as a source, and is framed there as
    a target of a source that frames the same slots."""
    n0 = rng.randint(2, 4)
    same = random_invertible(field, n0, rng)
    return LambdaModule(*(same if t in framed else random_matrix(field, n0, 1, rng)
                          for t in range(4)))


def check_oracle_nullity(row, partners):
    """hom_oracle, which ranks only what is left after each F_t is
    eliminated, against the nullity of hom_system's full matrix: between
    row's module and each partner, both ways.  hom_basis, the split of
    that matrix's [N^T | I], must give as many homomorphisms, each one
    passing check_hom."""
    m = module(row.field, row.summands, row.seed)
    for x in partners:
        for a, b in ((m, x), (x, m)):
            full = hom_system(a, b).matrix
            got, want = hom_oracle(a, b), full.cols - full.rank()
            basis = hom_basis(a, b)
            if got != want or len(basis) != want or not all(check_hom(a, b, f) for f in basis):
                return check(f"oracle nullity {row.file}", False,
                             f"{a.dim_vector()} -> {b.dim_vector()}: {got}, nullity {want}, "
                             f"{len(basis)} basis maps")
    check(f"oracle nullity {row.file}", True)


def one_error_line(name, args, pattern, status=None):
    """The command exits nonzero (with status, if given) and prints one
    stderr line, which matches pattern."""
    code, _, err = fourspace(args)
    failed = code == status if status else code != 0
    lines = err.splitlines()
    check(name, failed and len(lines) == 1 and re.search(pattern, lines[0]),
          f"exit {code}, stderr {err.strip()!r}")


def main():
    for args in VERIFY:
        code, out, err = fourspace(["verify", *args.split()])
        check(f"verify {args}", code == 0, (out + err).strip().rpartition("\n")[2])
    bounds = EnumerationBounds(3, 3, (2, Fraction(7, 3)))
    check("run_sweep QQ", run_sweep(QQ, bounds, 4, 0) == [], "mismatches")
    # the same sweep again reads every target from the per-process cache:
    # equal answers, and not one cache miss
    misses = _catalog_target.cache_info().misses
    again = run_sweep(QQ, bounds, 4, 0)
    missed = _catalog_target.cache_info().misses - misses
    check("run_sweep QQ, targets cached", again == [] and not missed,
          f"{len(again)} mismatches, {missed} targets prepared again")
    # hom_vector over w5.json's module and the list `homdim --all --max-n 8
    # --max-l 4 --lambda 2` asks for, then over that list made again, then
    # over the first list through pickle: the later calls read the plan the
    # first made, and answer the same
    m = module(GF32003, "P(4,0) I(5,0) R(1,2)", 4)
    bounds = EnumerationBounds(8, 4, (GF32003.coerce(2),))
    descs = enumerate_descriptors(bounds)
    first = hom_vector(m, descs)
    misses = _targets.cache_info().misses
    again = hom_vector(m, enumerate_descriptors(bounds))
    unpickled = pickle.loads(pickle.dumps(descs))
    fresh = unpickled == descs and not any(map(operator.is_, unpickled, descs))
    third = hom_vector(m, unpickled)
    missed = _targets.cache_info().misses - misses
    check("hom_vector GF(32003) --all thrice, plan cached",
          len(first) == 142 and again == first and fresh and third == first and not missed,
          f"{len(first)} answers, {'equal' if again == first else 'different'} again, "
          f"{'equal' if third == first else 'different'} through pickle "
          f"({'fresh' if fresh else 'not fresh'} descriptors), {missed} plans made again")
    # the same module through its JSON record, whose field is a new
    # PrimeField(32003): equal by value, it reads the same plan
    back = module_from_record(module_to_record(m))
    misses = _targets.cache_info().misses
    fourth = hom_vector(back, descs)
    missed = _targets.cache_info().misses - misses
    check("hom_vector GF(32003) --all through a JSON record, plan cached",
          back.field is not m.field and fourth == first and not missed,
          f"{'equal' if fourth == first else 'different'} answers, {missed} plans made again")
    # 4 random modules of dimension at most 4 per ORACLE_NULLITY module,
    # then one more each whose three letters in the slots the oracle frames
    # for that module are equal, so that hom_oracle's frame meets its three
    # subspaces equal on the partner's side, both ways
    rng = random.Random(0)
    rows = [row for row in DIFFS if row.file in ORACLE_NULLITY]
    partners = [[random_module(row.field, rng, max_dim=4) for _ in range(4)] for row in rows]
    for row, drawn in zip(rows, partners):
        pairing, _, counts, _, _ = _source(module(row.field, row.summands, row.seed))
        drawn.append(equal_framed_partner(row.field, pairing[:3], rng))
        if row.file == "c6.json":
            check("oracle writes B of c6.json", pairing[3] == 1, f"writes slot {pairing[3]}")
        if row.file == "p5.json":
            check("oracle frames five planes in p5.json", pairing[3] == 2 and counts[8] == 5,
                  f"writes slot {pairing[3]}, {counts[8]} planes")
    for row, drawn in zip(rows, partners):
        check_oracle_nullity(row, drawn)

    full = full_steps(module(GF3, BOUNDARY, 5),
                      enumerate_descriptors(EnumerationBounds(8, 4, (GF3.coerce(2),))))
    check("v3.json steps from a full state", full > 0, f"{full} such steps")
    for row in DIFFS:
        run_diff(row)
    for far in FAR_MODULES:
        check_far(*far)

    for desc, bounds in DECOMPOSE:
        _, record, _ = fourspace(["catalog", desc])
        with open("c.json", "w", encoding="utf-8") as fh:
            fh.write(record)
        code, out, err = fourspace(["decompose", "c.json", *bounds.split()])
        check(f"decompose {desc}", code == 0 and out == f"1 × {desc}\n", (out + err).strip())
    # s.json as the DIFFS rows left it
    code, out, err = fourspace(["decompose", "s.json", "--max-n", "6", "--max-l", "3",
                                "--lambda", "7/3"])
    want = ["1 × I(2,0)", "1 × P(3,1)", "1 × R(2,7/3)"]
    check("decompose s.json", code == 0 and sorted(out.splitlines()) == want, (out + err).strip())
    for field, summands, seed, bounds in DECOMPOSE_TWICE:
        name = f"decompose {field} {summands}"
        m = module(field, summands, seed)
        want = {parse_descriptor(s, field): 1 for s in summands.split()}
        check(name, decompose(m, bounds) == want, "wrong summands")
        # the same call again, and is_isomorphic's two, read the plan the
        # first call filled
        check(f"{name}, plan cached", decompose(m, bounds) == want, "wrong summands")
        check(f"is_isomorphic {field} {summands}",
              is_isomorphic(m, module(field, summands), bounds), "not isomorphic")
    write_module("m.json", module(QQ, "I(3,1) I(2,1)"))
    one_error_line("decompose m.json", ["decompose", "m.json", "--max-n", "2", "--max-l", "1"],
                   "^error: incomplete-candidates:", status=1)

    # a reader that leaves early gets no traceback
    proc = subprocess.Popen(["fourspace", "catalog", "P(40,0)"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, encoding="utf-8")
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait()
    check("catalog P(40,0) | head -1", "Traceback" not in err, err.strip().rpartition("\n")[2])
    one_error_line("verify --trials x", ["verify", "--trials", "x"], "^error: parse-error:")
    _, record, _ = fourspace(["catalog", "P(1,0)", "--field", "prime:7"])
    record = json.loads(record)
    record["field_spec"] = {"prime": "7"}
    with open("p7.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    one_error_line("homdim p7.json", ["homdim", "p7.json", "P(0,0)"], "is not an integer")

    # --oracle yields its values one target at a time (verify.oracle_vector)
    _, small, _ = fourspace(["homdim", "m.json", "P(1,1)"])
    code, out, err = fourspace(["homdim", "m.json", "P(1,1)", "P(100000000,0)", "--oracle"])
    check("homdim m.json P(1,1) P(100000000,0) --oracle",
          code == 1 and out == small and re.fullmatch(r"P\(1,1\)\t\d+\n", small)
          and len(err.splitlines()) == 1 and err.startswith("error: too-large:"),
          f"exit {code}, stdout {out!r}, stderr {err.strip()!r}")

    if failures:
        print(f"{len(failures)} failed: {'; '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        status = main()
    sys.exit(status)
