"""Command-line front end.

Subcommands:
    catalog    print a catalog module as a JSON module file
    homdim     hom dimensions from a module file against descriptors
    decompose  direct-summand multiplicities of a module file
    verify     randomized formula-vs-oracle agreement sweep

Module files are JSON: {"field_spec": "rationals" | {"prime": p},
"A": {"rows": int, "cols": int, "entries": [...]}, ..., "D": {...}} with
entries as strings ("numerator/denominator" over the rationals, decimal
residues over a prime field).  Every error path, usage errors included,
prints a single line "error: <code>: <message>" to stderr and exits
nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import (
    EnumerationBounds,
    InvalidParams,
    build,
    enumerate_descriptors,
    parse_descriptor,
    tube_lambda,
)
from .decomp import IncompleteCandidates, decompose
from .exactmat import FieldMismatch, field_from_spec
from .homdim import hom_vector
from .modules import dim_vector, module_from_record, module_to_record
from .verify import oracle_vector, run_sweep

DEFAULT_VERIFY_PRIME = 32003
DEFAULT_LAMBDAS = ("2", "5")


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _field(spec):
    """field_from_spec(spec); a spec it rejects is a parse-error."""
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise CliError("parse-error", f"bad field: {exc}") from None


def _parse_field(text):
    """The field of a --field value: rationals or prime:p."""
    if not text.startswith("prime:"):
        return _field(text)
    p = text[len("prime:"):]
    try:
        p = int(p)
    except ValueError:
        pass  # PrimeField names the p that is not an integer
    return _field({"prime": p})


def _load_module(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
    except OSError as exc:
        raise CliError("io-error", f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError("parse-error", f"{path}: invalid JSON: {exc}") from None
    try:
        return module_from_record(rec)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError("parse-error", f"{path}: {exc}") from None


def _nonnegative(args, *names):
    for name in names:
        if getattr(args, name) < 0:
            raise CliError("parse-error", f"--{name.replace('_', '-')} must be >= 0")


def _bounds(args, field):
    _nonnegative(args, "max_n", "max_l")
    lams = []
    for text in args.lambdas if args.lambdas is not None else DEFAULT_LAMBDAS:
        try:
            lams.append(tube_lambda(field, text))
        except InvalidParams:
            continue  # exceptional rows are enumerated unconditionally
        except ValueError as exc:
            raise CliError("parse-error", f"bad lambda {text!r}: {exc}") from None
    return EnumerationBounds(args.max_n, args.max_l, tuple(lams))


def _cmd_catalog(args):
    field = _parse_field(args.field)
    desc = parse_descriptor(args.descriptor, field)
    module = build(desc, field)
    rec = module_to_record(module)
    rec["dim_vector"] = list(dim_vector(module))  # informational; ignored on load
    print(json.dumps(rec, indent=2))
    return 0


def _cmd_homdim(args):
    module = _load_module(args.module_file)
    field = module.field
    if args.all and args.descriptors:
        raise CliError("parse-error", "give descriptor arguments or --all, not both")
    if args.all:
        descs = enumerate_descriptors(_bounds(args, field))
    elif args.descriptors:
        descs = [parse_descriptor(s, field) for s in args.descriptors]
    else:
        raise CliError("parse-error", "give descriptor arguments or --all")
    values = (oracle_vector if args.oracle else hom_vector)(module, descs)
    for d, value in zip(descs, values):
        print(f"{d.label()}\t{value}")
    return 0


def _cmd_decompose(args):
    module = _load_module(args.module_file)
    summands = decompose(module, _bounds(args, module.field))
    for desc, mu in summands.items():
        print(f"{mu} × {desc.label()}")
    return 0


def _cmd_verify(args):
    _nonnegative(args, "trials")
    field = _field({"prime": args.prime})
    bounds = _bounds(args, field)
    mismatches = run_sweep(
        field, bounds, args.trials, args.seed, report=print
    )
    descs = len(enumerate_descriptors(bounds))
    if mismatches:
        print(f"{len(mismatches)} mismatches over {args.trials} trials x {descs} descriptors")
        return 1
    print(f"all agree ({args.trials} trials x {descs} descriptors)")
    return 0


def _add_bounds_flags(sub):
    sub.add_argument("--max-n", type=int, default=4, metavar="N",
                     help="largest first parameter of P/I descriptors (default 4)")
    sub.add_argument("--max-l", type=int, default=4, metavar="L",
                     help="largest tube depth (default 4)")
    sub.add_argument("--lambda", dest="lambdas", action="append", metavar="V",
                     help="homogeneous tube parameter, repeatable (default 2 and 5)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are parse-error lines too."""

    def error(self, message):
        raise CliError("parse-error", message)


class _Subparser(_Parser):
    """A subcommand's _Parser, whose positionals may also follow its
    flags, as in `homdim m.json --oracle P(1,0)`.  parse_known_args alone
    matches homdim's nargs="*" descriptors, empty, before the first flag
    and leaves the rest unrecognized.  parse_known_intermixed_args parses
    the flags first, then the positionals, calling parse_known_args for
    each pass: those inner calls parse as argparse does.  It refuses a
    parser with subcommands, so the top-level parser is a plain _Parser."""

    _inner = False

    def parse_known_args(self, args=None, namespace=None):
        if self._inner:
            return super().parse_known_args(args, namespace)
        self._inner = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._inner = False


def build_parser():
    parser = _Parser(
        prog="fourspace",
        description="Exact Hom computations for four subspace quiver representations.",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)

    p_cat = subs.add_parser("catalog", help="print a catalog module as JSON")
    p_cat.add_argument("descriptor")
    p_cat.add_argument("--field", default="rationals", metavar="F",
                       help="rationals (default) or prime:p")
    p_cat.set_defaults(func=_cmd_catalog)

    p_hom = subs.add_parser("homdim", help="hom dimensions against descriptors")
    p_hom.add_argument("module_file")
    # not required: --all stands in for the descriptors; they may follow
    # the flags (_Subparser)
    p_hom.add_argument("descriptors", nargs="*", default=[])
    p_hom.add_argument("--all", action="store_true",
                       help="sweep every descriptor within the bounds flags")
    p_hom.add_argument("--oracle", action="store_true",
                       help="use the linearized relation system (three relations framed in a "
                            "three-subspace basis, the fourth ranked) instead of the formulas")
    _add_bounds_flags(p_hom)
    p_hom.set_defaults(func=_cmd_homdim)

    p_dec = subs.add_parser("decompose", help="direct-summand multiplicities")
    p_dec.add_argument("module_file")
    _add_bounds_flags(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = subs.add_parser("verify", help="formula-vs-oracle random sweep")
    p_ver.add_argument("--trials", type=int, default=20)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--prime", type=int, default=DEFAULT_VERIFY_PRIME,
                       help=f"field characteristic (default {DEFAULT_VERIFY_PRIME})")
    _add_bounds_flags(p_ver)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


_ERROR_CODES = (
    (InvalidParams, "invalid-params"),
    (IncompleteCandidates, "incomplete-candidates"),
    (FieldMismatch, "field-mismatch"),
    (MemoryError, "too-large"),
)


def main(argv=None):
    try:
        # --help still prints and exits 0: parse_args raises SystemExit
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError as exc:
        # the reader left early: point stdout at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: io-error: stdout: {exc}", file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except tuple(e for e, _ in _ERROR_CODES) as exc:
        code = next(c for e, c in _ERROR_CODES if isinstance(exc, e))
        print(f"error: {code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
