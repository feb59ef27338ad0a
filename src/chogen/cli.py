"""Command-line surface: generate, verify, table.

Exit codes: 0 success (certified design / matching table), 2
certification failure or unexpected table deviation, 3 unsupported
parameters (including those too large to allocate or to plan, and a
generate whose every candidate fails to build), 4 I/O or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import serialization
from .catalog import (EXPECTED_DEVIATIONS, T1_KINDS, TABLE1, candidate_recipes,
                      first_certified, reproduce_table1, t1_generator_recipe)
from .designs import bits_string
from .errors import BelowRankBound, ChogenError, FormatError, Unsupported
from .models import ModelKind, ModelSpec
from .optimality import verify

# `table --block` names: the kinds of TABLE1, main-effects shortened to main
_BLOCK_KINDS = {("main" if kind is ModelKind.MAIN_EFFECTS else kind.value): kind
                for kind in TABLE1}


class _Parser(argparse.ArgumentParser):
    # bad flags are unsupported parameters, not certification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _require_group_size(kind, r) -> None:
    if r is None and kind == ModelKind.SPECIFIED_GROUP:
        raise Unsupported(
            f"{ModelKind.SPECIFIED_GROUP.value} needs a group size --r")


def _parse_bits(text: str) -> tuple:
    parts = text.split(",")
    if any(not p or p.strip("01") for p in parts):
        raise Unsupported(f"bad --generators value {text!r}")
    return tuple(tuple(int(c) for c in p) for p in parts)


def _parse_columns(text: str) -> tuple:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise Unsupported(f"bad --seed-columns value {text!r}") from None


def _generate_recipes(args) -> list:
    kind, m, n = ModelKind(args.model), args.m, args.n
    columns = (None if args.seed_columns is None
               else _parse_columns(args.seed_columns))
    if args.generators is not None:
        if kind not in T1_KINDS:
            raise Unsupported("--generators applies to "
                              + " and ".join(k.value for k in T1_KINDS))
        if m < 2:
            raise Unsupported(f"--generators needs m >= 2, got m={m}")
        gens = _parse_bits(args.generators)
        return [t1_generator_recipe(ModelSpec.family(kind, n), m, gens,
                                    columns)]
    _require_group_size(kind, args.r)
    recipes = list(candidate_recipes(kind, m, n, args.r))
    if columns is not None:
        # candidates that differed only in their columns become one recipe
        unique = {}
        for r in recipes:
            if r.id != "T2-direct-add":
                r = dataclasses.replace(r, columns=columns)
                unique.setdefault(dataclasses.replace(r, note=""), r)
        recipes = list(unique.values())
    if not recipes:
        raise Unsupported(
            f"no applicable construction for model={args.model}, m={m}, n={n}")
    return recipes


def _cmd_generate(args) -> int:
    chosen, rejected = first_certified(_generate_recipes(args))
    if chosen is None:
        for recipe, reason in rejected:
            if not isinstance(reason, ChogenError):
                reason = reason.verdict.value
            print(f"not certified: {recipe.describe()}: {reason}",
                  file=sys.stderr)
        # no verdict and no rank-bound refusal: every build failed
        unbuilt = all(isinstance(x, ChogenError)
                      and not isinstance(x, BelowRankBound) for _, x in rejected)
        print("error: no construction " + ("could be built" if unbuilt else
              "certified") + " for these parameters", file=sys.stderr)
        return 3 if unbuilt else 2
    recipe, design, report = chosen
    meta = {"construction": recipe.describe(), "model": args.model}
    gens = [bits_string(g) for g in recipe.applied_generators()]
    if gens:
        meta["generators"] = gens
    if recipe.model.r is not None:
        meta["r"] = recipe.model.r
    if args.format == "csv":
        payload = serialization.design_to_csv(design)
    else:
        payload = serialization.dumps(design, meta)
    summary = f"construction: {recipe.describe()}\n{report.summary()}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out}")
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    design, meta = serialization.load(args.file)
    name = args.model or meta.get("model")
    if not name:
        raise Unsupported(
            "no --model given and the file's meta block names none")
    r = args.r if args.r is not None else meta.get("r")
    _require_group_size(name, r)
    report = verify(design, ModelSpec.family(name, design.n, r))
    print(report.summary())
    return 0 if report.certified else 2


def _cmd_table(args) -> int:
    if args.block == "all":
        kinds = tuple(TABLE1)
    else:
        kinds = (_BLOCK_KINDS[args.block],)
    report = reproduce_table1(kinds)
    if args.format == "csv":
        payload = report.to_csv()
    elif args.format == "json":
        payload = json.dumps([{
            "model": e.kind.value, "m": e.m, "n": e.n,
            "table_N": e.table_N, "achieved_N": e.achieved_N,
            "status": e.status.value, "certified": e.certified,
            "recipe": e.recipe.describe() if e.recipe else None,
            "note": e.note,
        } for e in report.entries], indent=2) + "\n"
    else:
        payload = report.to_text() + "\n" + report.summary() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.out}")
        print(report.summary())
    else:
        sys.stdout.write(payload)
    got = {(e.kind, e.m, e.n): e.achieved_N for e in report.deviations()}
    want = {key: N for key, N in EXPECTED_DEVIATIONS.items() if key[0] in kinds}
    return 0 if got == want else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="chogen",
                     description="Build and certify two-level choice designs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    models = sorted(kind.value for kind in ModelKind
                    if kind is not ModelKind.CUSTOM)
    r_help = f"group size for {ModelKind.SPECIFIED_GROUP.value}"

    gen = sub.add_parser("generate",
                         help="construct a certified design and emit it")
    gen.add_argument("--model", required=True, choices=models)
    gen.add_argument("--m", type=int, required=True, help="options per set")
    gen.add_argument("--n", type=int, required=True, help="number of factors")
    gen.add_argument("--r", type=int, help=r_help)
    gen.add_argument("--generators",
                     help="comma-separated generator bitstrings")
    gen.add_argument("--seed-columns",
                     help="comma-separated 1-based seed column indices")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify",
                         help="certify a design stored in a JSON file")
    ver.add_argument("file", help="design JSON path")
    ver.add_argument("--model", choices=models,
                     help="model to certify against (default: file meta)")
    ver.add_argument("--r", type=int, help=r_help)

    tab = sub.add_parser("table",
                         help="reproduce the reference N table and diff it")
    tab.add_argument("--block", choices=sorted(_BLOCK_KINDS) + ["all"],
                     default="all")
    tab.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")
    tab.add_argument("--out", help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": _cmd_generate, "verify": _cmd_verify,
                "table": _cmd_table}
    try:
        return handlers[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ChogenError, MemoryError, OverflowError) as exc:
        # MemoryError: the parameters need more memory than there is;
        # OverflowError: a number too large for a float, such as the square
        # root that plans a Hadamard order past 10^308
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
