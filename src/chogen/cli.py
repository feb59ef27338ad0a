"""Command-line surface: generate, verify, table.

Exit codes: 0 success (certified design / matching table), 2
certification failure or unexpected table deviation, 3 unsupported
parameters, 4 I/O or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import serialization
from .catalog import (EXPECTED_DEVIATIONS, ModelKind, Table1Report,
                      candidate_recipes, first_certified, reproduce_table1)
from .constructions import ConstructionRecipe
from .designs import bits_string
from .errors import ChogenError, FormatError, Unsupported
from .hadamard import least_hadamard_order
from .models import ModelSpec
from .optimality import verify

_KINDS = {
    "main-effects": ModelKind.MAIN_EFFECTS,
    "broader": ModelKind.BROADER_MAIN_EFFECTS,
    "spec-2f": ModelKind.SPECIFIED_TWO_FACTOR,
    "spec-all": ModelKind.SPECIFIED_ONE_FACTOR,
    "spec-group": ModelKind.SPECIFIED_GROUP,
}

_BLOCKS = {
    "main": ModelKind.MAIN_EFFECTS,
    "broader": ModelKind.BROADER_MAIN_EFFECTS,
    "spec-2f": ModelKind.SPECIFIED_TWO_FACTOR,
    "spec-all": ModelKind.SPECIFIED_ONE_FACTOR,
}


class _Parser(argparse.ArgumentParser):
    # bad flags are unsupported parameters, not certification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _model_for(name: str, n: int, r=None) -> ModelSpec:
    if name == "main-effects":
        return ModelSpec.main_effects(n)
    if name == "broader":
        return ModelSpec.broader_main_effects(n)
    if name == "spec-2f":
        return ModelSpec.specified_two_factor(n)
    if name == "spec-all":
        return ModelSpec.specified_one_factor(n)
    if name == "spec-group":
        if r is None:
            raise Unsupported("spec-group needs a group size --r")
        return ModelSpec.specified_group(n, r)
    raise Unsupported(f"unknown model {name!r}")


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
    name, m, n = args.model, args.m, args.n
    columns = _parse_columns(args.seed_columns) if args.seed_columns else None
    if args.generators:
        if name not in ("main-effects", "broader"):
            raise Unsupported("--generators applies to main-effects and broader")
        if m < 2:
            raise Unsupported(f"--generators needs m >= 2, got m={m}")
        gens = _parse_bits(args.generators)
        model = _model_for(name, n)
        nu = least_hadamard_order(n)
        if name == "main-effects":
            return [ConstructionRecipe("T1-generator", n, m, model, nu,
                                       variant="half", generators=gens,
                                       columns=columns)]
        claimed = nu if m % 2 == 0 else 2 * nu
        return [ConstructionRecipe("T1-generator", n, m, model, claimed,
                                   generators=gens, columns=columns)]
    if name == "spec-group" and args.r is None:
        raise Unsupported("spec-group needs a group size --r")
    recipes = list(candidate_recipes(_KINDS[name], m, n, args.r))
    if columns is not None:
        recipes = [dataclasses.replace(r, columns=columns)
                   for r in recipes if r.id != "T2-direct-add"]
    if not recipes:
        raise Unsupported(
            f"no applicable construction for model={name}, m={m}, n={n}")
    return recipes


def _cmd_generate(args) -> int:
    chosen, rejected = first_certified(_generate_recipes(args))
    if chosen is None:
        for recipe, reason in rejected:
            if not isinstance(reason, ChogenError):
                reason = reason.verdict.value
            print(f"not certified: {recipe.describe()}: {reason}",
                  file=sys.stderr)
        print("error: no construction certified for these parameters",
              file=sys.stderr)
        return 2
    recipe, design, report = chosen
    meta = {"construction": recipe.describe(), "model": args.model}
    gens = [bits_string(g) for g in recipe.applied_generators()]
    if gens:
        meta["generators"] = gens
    if args.model == "spec-group":
        meta["r"] = args.r
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
    if name not in _KINDS:
        raise Unsupported(f"unknown model {name!r}")
    r = args.r if args.r is not None else meta.get("r")
    model = _model_for(name, design.n, r)
    report = verify(design, model)
    print(report.summary())
    return 0 if report.certified else 2


def _cmd_table(args) -> int:
    if args.block == "all":
        kinds = None
    else:
        kinds = (_BLOCKS[args.block],)
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
    if args.block == "all":
        return 0 if report.deviations_expected else 2
    expected = _expected_within(report, _BLOCKS[args.block])
    return 0 if expected else 2


def _expected_within(report: Table1Report, kind: ModelKind) -> bool:
    got = {(e.kind, e.m, e.n): e.achieved_N for e in report.deviations()}
    want = {k: v for k, v in EXPECTED_DEVIATIONS.items() if k[0] is kind}
    return got == want


def _build_parser() -> _Parser:
    parser = _Parser(prog="chogen",
                     description="Build and certify two-level choice designs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("generate",
                         help="construct a certified design and emit it")
    gen.add_argument("--model", required=True, choices=sorted(_KINDS))
    gen.add_argument("--m", type=int, required=True, help="options per set")
    gen.add_argument("--n", type=int, required=True, help="number of factors")
    gen.add_argument("--r", type=int, help="group size for spec-group")
    gen.add_argument("--generators",
                     help="comma-separated generator bitstrings")
    gen.add_argument("--seed-columns",
                     help="comma-separated 1-based seed column indices")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify",
                         help="certify a design stored in a JSON file")
    ver.add_argument("file", help="design JSON path")
    ver.add_argument("--model", choices=sorted(_KINDS),
                     help="model to certify against (default: file meta)")
    ver.add_argument("--r", type=int, help="group size for spec-group")

    tab = sub.add_parser("table",
                         help="reproduce the reference N table and diff it")
    tab.add_argument("--block", choices=sorted(_BLOCKS) + ["all"],
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
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ChogenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
