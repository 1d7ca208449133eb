"""Command-line driver.

    steinberg verify all [--format json] [--seed S] [--trials T]
    steinberg verify bwb-tables --l 5
    steinberg verify identities --char 0
    steinberg verify span --char 5
    steinberg verify ideal --case n3-z --char 5 --degree-bound 5 [--trials T --seed S --symbolic]
    steinberg verify dims | multiplicities | classgroup
    steinberg compute chi --rep "wedge^2(b)*b"
    steinberg compute psupp --rep "wedge^2(b)*b" --i 2 --l 5
    steinberg compute hilbert --case n3-z --degree-bound 4 [--char 5]
    steinberg compute snf --file matrix.txt

Exit status: 0 when no check fails, 1 when any check fails, 2 on usage or
parse errors.  Reports go to standard output as json or markdown.
"""

from __future__ import annotations

import argparse
import sys

from . import bwb, campaigns
from .breps import RepParseError, build_rep
from .cases import CASE_TAGS, IdealCase, UnsupportedCase, case_hilbert
from .liealg import CharacteristicError
from .polyalg import IntMatrix, TruncationError, snf
from .report import Emitter, Report


def _int_at_least(low: int):
    """The argparse type of an integer >= low (--degree-bound, --trials)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "markdown"), default="markdown")
    common.add_argument("--seed", type=int, default=0)

    top = argparse.ArgumentParser(prog="steinberg")
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify").add_subparsers(dest="campaign", required=True)
    p = verify.add_parser("all", parents=[common])
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p = verify.add_parser("bwb-tables", parents=[common])
    p.add_argument("--l", type=int, required=True)
    p = verify.add_parser("identities", parents=[common])
    p.add_argument("--char", type=int, default=0)
    p = verify.add_parser("span", parents=[common])
    p.add_argument("--char", type=int, default=0)
    p = verify.add_parser("ideal", parents=[common])
    p.add_argument("--case", dest="case_tag", choices=CASE_TAGS, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--degree-bound", type=_int_at_least(0), default=5)
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--symbolic", action="store_true")
    verify.add_parser("dims", parents=[common])
    verify.add_parser("multiplicities", parents=[common])
    verify.add_parser("classgroup", parents=[common])

    compute = sub.add_parser("compute").add_subparsers(dest="computation", required=True)
    p = compute.add_parser("chi", parents=[common])
    p.add_argument("--rep", required=True)
    p = compute.add_parser("psupp", parents=[common])
    p.add_argument("--rep", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p = compute.add_parser("hilbert", parents=[common])
    p.add_argument("--case", dest="case_tag", choices=CASE_TAGS, required=True)
    p.add_argument("--degree-bound", type=_int_at_least(0), required=True)
    p.add_argument("--char", type=int, default=0)
    p = compute.add_parser("snf", parents=[common])
    p.add_argument("--file", required=True)
    return top


def _verify(args) -> int:
    em = Emitter()
    if args.campaign == "all":
        campaigns.verify_all(em, seed=args.seed, trials=args.trials)
    elif args.campaign == "bwb-tables":
        campaigns.bwb_tables_campaign(em, args.l)
    elif args.campaign == "identities":
        campaigns.identities_campaign(em, args.char)
    elif args.campaign == "span":
        campaigns.span_campaign(em, args.char)
    elif args.campaign == "ideal":
        campaigns.ideal_campaign(em, args.case_tag, args.char, args.degree_bound,
                                 args.trials, args.seed, args.symbolic)
    elif args.campaign == "dims":
        campaigns.dims_campaign(em)
    elif args.campaign == "multiplicities":
        campaigns.multiplicities_campaign(em)
    elif args.campaign == "classgroup":
        campaigns.classgroup_campaign(em)
    report = Report(em.entries, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_markdown())
        if args.campaign in ("all", "bwb-tables"):
            sys.stdout.write("\n" + campaigns.tables_markdown())
    return report.exit_code


def _compute(args) -> int:
    if args.computation == "chi":
        rep = build_rep(args.rep)
        sys.stdout.write(str(bwb.euler_char(rep)) + "\n")
        return 0
    if args.computation == "psupp":
        rep = build_rep(args.rep)
        ms = bwb.psupp(rep, args.i, args.l)
        sys.stdout.write(campaigns.fmt_multiset(ms) + "\n")
        return 0
    if args.computation == "hilbert":
        case = IdealCase(args.case_tag, args.char)
        sys.stdout.write(str(case_hilbert(case, args.degree_bound)) + "\n")
        return 0
    if args.computation == "snf":
        with open(args.file, "r", encoding="utf-8") as fh:
            matrix = IntMatrix.from_text(fh.read())
        sys.stdout.write("[" + ", ".join(str(d) for d in snf(matrix)) + "]\n")
        return 0
    raise AssertionError


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args)
        return _compute(args)
    except RepParseError as e:
        sys.stderr.write(f"steinberg: bad rep expression: {e}\n")
        return 2
    except (UnsupportedCase, CharacteristicError, bwb.NotBWBGood, bwb.NotDecidable,
            TruncationError) as e:
        sys.stderr.write(f"steinberg: {type(e).__name__}: {e}\n")
        return 2
    except (OSError, ValueError) as e:
        sys.stderr.write(f"steinberg: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
