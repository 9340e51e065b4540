"""Command-line surface: census, classification, invariants, presentations,
coloring counts, and the indistinguishability verifier.

Reports are deterministic for a fixed config; the only varying output is a
single timestamped header line, suppressed by ``--no-header``.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from math import factorial

from . import __version__
from .census import MAX_ENUM_ORDER, census_counts
from .coloring import (
    brute_force_colorings,
    count_colorings,
    verify_indistinguishability,
)
from .fourleg import classify_structures, make_fourleg
from .front import (
    FrontError,
    classical_invariants,
    fundamental_presentation,
    load_front,
)
from .perms import cycle_string, parse_cycles
from .racks import load_rack

# The largest order ``verify`` sweeps.  The limit is not rack enumeration:
# the trivial rack of order 7 alone has 7!^2 = 25,401,600 structures, too
# many to sweep and report.
MAX_VERIFY_ORDER = 6


def _census_order(text: str) -> int:
    if text not in map(str, range(MAX_ENUM_ORDER + 1)):
        raise argparse.ArgumentTypeError(
            f"expected an order from 0 to {MAX_ENUM_ORDER}, got {text!r}")
    return int(text)


def _verify_order(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    if value > MAX_VERIFY_ORDER:
        raise argparse.ArgumentTypeError(
            f"expected an order of at most {MAX_VERIFY_ORDER}, got {text!r}: "
            f"the trivial rack of order {MAX_VERIFY_ORDER + 1} alone has "
            f"{factorial(MAX_VERIFY_ORDER + 1) ** 2:,} structures, too many "
            f"to sweep and report")
    return value


def _csv_name(name: str, what: str) -> str:
    """``name``, checked to need no quoting in a CSV field: a comma, a
    double quote, CR or LF would shift or split the row it is written to."""
    if any(c in name for c in ',"\r\n'):
        raise ValueError(f"{what} {name!r} holds a comma, a double quote or "
                         f"a line break, which the CSV report cannot hold")
    return name


def _emit(lines, args) -> None:
    """Write ``lines``, any iterable, one at a time as they come."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    else:
        sys.stdout.writelines(line + "\n" for line in lines)


def _header(args, echo: str) -> list[str]:
    """The timestamped header line echoing the command ``echo``, or none
    under ``--no-header``.  Only a path argument can bring CR or LF into
    the echo, and either would split the line, so it raises instead."""
    if args.no_header:
        return []
    if "\r" in echo or "\n" in echo:
        raise ValueError(f"the header line would echo {echo!r}, whose line "
                         f"break would split it: use a path without CR or "
                         f"LF, or --no-header")
    # imported here, the one place that reads the clock, to keep it out of
    # start-up
    from datetime import datetime, timezone
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"# legrack {__version__} | {stamp} | {echo}"]


def _cmd_census(args) -> int:
    lines = _header(args, f"census --max-order {args.max_order}")
    lines.append("order,family,rack_classes,structure_classes")
    for order in range(args.max_order + 1):
        for row in census_counts(order):
            lines.append(f"{row.order},{row.family},{row.rack_count},"
                         f"{row.structure_count}")
    _emit(lines, args)
    return 0


def _cmd_classify(args) -> int:
    rack_id = _csv_name(os.path.basename(args.rack), "rack file name")
    lines = _header(args, f"classify --rack {args.rack}")
    classes = classify_structures(load_rack(args.rack))
    lines.append("rack_id,class_index,ul,ur,orbit_size")
    for i, cls in enumerate(classes):
        lines.append(f"{rack_id},{i},{cycle_string(cls.ul)},"
                     f"{cycle_string(cls.ur)},{cls.orbit_size}")
    _emit(lines, args)
    return 0


def _cmd_invariants(args) -> int:
    inv = classical_invariants(load_front(args.front))
    _emit([f"tb={inv.tb} rot={inv.rot}"], args)
    return 0


def _cmd_presentation(args) -> int:
    pres = fundamental_presentation(load_front(args.front))
    lines = [f"generators={pres.generators}"]
    if pres.closure_word:
        lines.append("closure: " + " ".join(pres.closure_word))
    for rel in pres.relations:
        word = " ".join(rel.word) if rel.word else "-"
        sign = "+" if rel.sign == 1 else "-"
        lines.append(f"x{rel.out_arc} = [{word}](x{rel.in_arc}) >^{sign}1 "
                     f"x{rel.over_arc}  (crossing {rel.crossing})")
    _emit(lines, args)
    return 0


def _cmd_colorings(args) -> int:
    code = load_front(args.front)
    rack = load_rack(args.rack)
    ul = parse_cycles(args.ul, rack.n)
    ur = parse_cycles(args.ur, rack.n)
    fl = make_fourleg(rack, ul, ur)
    pres = fundamental_presentation(code)
    if args.brute_force:
        count = brute_force_colorings(pres, fl)
    else:
        count = count_colorings(pres, fl)
    _emit([str(count)], args)
    return 0


def _cmd_verify(args) -> int:
    header = _header(args, f"verify --fronts {args.fronts} "
                           f"--max-order {args.max_order}")
    codes = {}
    for name in sorted(os.listdir(args.fronts)):
        if name.endswith(".front"):
            _csv_name(name, "front file name")
            codes[name[:-len(".front")]] = load_front(
                os.path.join(args.fronts, name))
    if not codes:
        raise FrontError(f"no .front files in {args.fronts}")
    report = verify_indistinguishability(codes, args.max_order)
    _emit(_verify_lines(report, header), args)
    return 0 if report.passed else 3


def _verify_lines(report, header: list[str]):
    """The verify report after ``header``, each row written as it is
    counted; the group and violation lines follow once every row is out."""
    yield from header
    yield "code_name,tb,rot,rack_id,ul,ur,count"
    for row in report.rows:
        yield (f"{row.code_name},{row.tb},{row.rot},{row.rack_id},"
               f"{row.ul},{row.ur},{row.count}")
    for key, members in sorted(report.groups.items()):
        status = "PASS" if report.group_passed(key) else "FAIL"
        yield (f"# group tb={key[0]} rot={key[1]} "
               f"[{' '.join(members)}]: {status}")
    for _, v in report.violations:
        yield f"# violation: {v}"


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: its objects hold
    each other in cycles, so a parser per call would leave them to the
    cyclic collector.  Parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="legrack",
        description="Finite racks, 4-Legendrian structures, and Legendrian "
                    "front coloring invariants.")
    parser.add_argument("--version", action="version",
                        version=f"legrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, header=False):
        p.add_argument("--output", help="write the report to a file")
        if header:
            p.add_argument("--no-header", action="store_true",
                           help="suppress the timestamped header line")

    p = sub.add_parser("census", help="per-order, per-family census CSV")
    p.add_argument("--max-order", type=_census_order, required=True)
    p.add_argument("--jobs", type=int, choices=[1], default=1,
                   help="accepted for existing scripts; the census runs in "
                        "one process, so only 1 is valid")
    common(p, header=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("classify", help="4-Legendrian structure classes of a rack")
    p.add_argument("--rack", required=True)
    common(p, header=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("invariants", help="tb/rot of a front code")
    p.add_argument("--front", required=True)
    common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("presentation", help="fundamental presentation of a front")
    p.add_argument("--front", required=True)
    common(p)
    p.set_defaults(func=_cmd_presentation)

    p = sub.add_parser("colorings", help="coloring count of a front by a rack")
    p.add_argument("--front", required=True)
    p.add_argument("--rack", required=True)
    p.add_argument("--ul", default="()")
    p.add_argument("--ur", default="()")
    p.add_argument("--brute-force", action="store_true",
                   help="use the exhaustive assignment scan")
    common(p)
    p.set_defaults(func=_cmd_colorings)

    p = sub.add_parser("verify", help="indistinguishability report over a front set")
    p.add_argument("--fronts", required=True)
    p.add_argument("--max-order", type=_verify_order, default=3)
    common(p, header=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"legrack: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
