"""Command line front end.

    hopfmonad verify <file> [--checks ...] [--json|--text] [--seed N]
    hopfmonad integrals <file>
    hopfmonad maschke <file>
    hopfmonad drinfeld <file>
    hopfmonad report <file> --json
    hopfmonad example <name> [-o out.json]

Exit codes: 0 all requested checks pass, 1 axiom failure (report still
emitted), 2 malformed input, 3 internal error (an exact-arithmetic
failure during verification, such as a product (a chain's pairwise
intermediate or result, or a block of `@`) that stores more than
exactla.MAX_STATE_ENTRIES entries, the nonzeros of a sparse one unless it
must be made dense, or an allocation the host cannot make; no report).  Running out of memory is
never a verdict, so it never ends in exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import zoo
from .exactla import ExactError, FieldSpec
from .presentation import SchemaError, load
from .report import Report
from .verify import SUITES, verify_model

EXAMPLES = {
    "trivial": lambda: zoo.build_trivial(FieldSpec.rationals()),
    "kz2": lambda: zoo.build_group_algebra(
        zoo.cyclic_group_table(2), FieldSpec.rationals(), "kz2",
        with_rmatrix=True),
    "ks3": lambda: zoo.build_group_algebra(
        zoo.symmetric3_table(), FieldSpec.rationals(), "ks3"),
    "ks3_f3": lambda: zoo.build_group_algebra(
        zoo.symmetric3_table(), FieldSpec.prime(3), "ks3_f3"),
    "sweedler": lambda: zoo.build_sweedler(FieldSpec.rationals()),
    "taft3": lambda: zoo.build_taft(3, 7),
    "double_z2": lambda: zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(2), FieldSpec.rationals(), "double_z2"),
    "double_z2_f3": lambda: zoo.build_drinfeld_double_group(
        zoo.cyclic_group_table(2), FieldSpec.prime(3), "double_z2_f3"),
    "double_s3_f7": lambda: zoo.build_drinfeld_double_group(
        zoo.symmetric3_table(), FieldSpec.prime(7), "double_s3_f7"),
    "pair_groupoid": lambda: zoo.build_pair_groupoid(FieldSpec.rationals()),
    "disconnected_groupoid": lambda: zoo.build_disconnected_groupoid(
        FieldSpec.rationals()),
}


def _read_presentation(path: str) -> dict:
    if path in EXAMPLES:
        return EXAMPLES[path]()
    with open(path) as fh:
        return json.load(fh)


def _load_model(path: str):
    try:
        return load(_read_presentation(path))
    except (OSError, json.JSONDecodeError, SchemaError, ExactError, KeyError,
            TypeError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        sys.exit(2)


def _emit(rep: Report, as_json: bool):
    if as_json:
        print(rep.dumps())
    else:
        print("\n".join(rep.lines()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hopfmonad",
        description="Exact verification of tensoring bimonad structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="presentation JSON (or a builtin example name)")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the redundant randomized spot checks")

    p_verify = sub.add_parser("verify", help="run the applicable check suites")
    add_common(p_verify)
    p_verify.add_argument("--checks", nargs="+", choices=list(SUITES),
                          default=list(SUITES))
    p_verify.add_argument("--samples", type=int, default=3,
                          help="randomized instances per sampled check")

    for name, blurb in [("integrals", "solve the one-sided integral spaces"),
                        ("maschke", "semisimplicity verdict"),
                        ("drinfeld", "canonical element of the R-matrix"),
                        ("report", "full report (all suites)")]:
        p = sub.add_parser(name, help=blurb)
        add_common(p)

    p_ex = sub.add_parser("example", help="emit a builtin example presentation")
    p_ex.add_argument("name", choices=sorted(EXAMPLES))
    p_ex.add_argument("-o", "--output", default=None)

    args = parser.parse_args(argv)

    if args.command == "example":
        payload = json.dumps(EXAMPLES[args.name](), indent=2, sort_keys=True)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as e:
                print(f"output error: {e}", file=sys.stderr)
                return 2
        else:
            print(payload)
        return 0

    model = _load_model(args.file)

    try:
        if args.command == "verify":
            rep = verify_model(model, checks=tuple(args.checks), seed=args.seed,
                               samples=args.samples)
        elif args.command == "report":
            rep = verify_model(model, seed=args.seed)
        elif args.command == "integrals":
            rep = verify_model(model, checks=("integrals",), seed=args.seed)
        elif args.command == "maschke":
            rep = verify_model(model, checks=("maschke",), seed=args.seed)
        else:  # drinfeld
            rep = verify_model(model, checks=("quasitriangular",), seed=args.seed)
    except ExactError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        detail = " ".join(str(e).split())
        print(f"internal error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return 3
    if args.command == "drinfeld" and "u" in rep.built:
        f = model.t.base.field
        rep.info["drinfeld_element"] = [
            f.show(x) for x in rep.built["u"][(0, 0)].block(0, 0).ravel().tolist()] \
            if model.t.base.is_vector else "componentwise"

    _emit(rep, args.json)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
