"""JSON and CSV encodings for choice designs.

The JSON document is the interchange format: n, m, the sets as lists of
bit strings (factor 1 leftmost), and a free-form meta object.  CSV is a
flat export with one option per row.
"""

from __future__ import annotations

import csv
import io
import json

from .designs import ChoiceDesign, treatment
from .errors import ChogenError, FormatError


def _bit_strings(design: ChoiceDesign) -> list:
    """The options as bit strings, one list per set, from the index array."""
    fmt = f"0{design.n}b"
    return [[format(v, fmt) for v in s] for s in design.array.tolist()]


def design_to_dict(design: ChoiceDesign, meta: dict = None) -> dict:
    doc = {
        "n": design.n,
        "m": design.m,
        "sets": _bit_strings(design),
    }
    if meta:
        doc["meta"] = dict(meta)
    return doc


def design_from_dict(doc) -> tuple:
    """Decode a design document; returns (design, meta)."""
    if not isinstance(doc, dict):
        raise FormatError("design document must be a JSON object")
    try:
        sets_field = doc["sets"]
    except KeyError:
        raise FormatError("design document lacks the 'sets' field") from None
    if not isinstance(sets_field, list) or not sets_field:
        raise FormatError("'sets' must be a non-empty list")
    for s in sets_field:
        if not isinstance(s, list):
            raise FormatError("each choice set must be a list of bit strings")
        for opt in s:
            if not isinstance(opt, str):
                raise FormatError(f"option {opt!r} is not a bit string")
            if opt.strip("01") or not opt:
                # not plain bits: treatment() judges it, and names the fault
                try:
                    treatment(opt)
                except (ChogenError, ValueError) as exc:
                    raise FormatError(f"bad option {opt!r}: {exc}") from None
    # every option is now known to decode; the design reads the strings
    # straight into its index array
    try:
        design = ChoiceDesign.from_sets(sets_field)
    except (ChogenError, ValueError) as exc:
        raise FormatError(f"sets do not form a design: {exc}") from None
    for field in ("n", "m"):
        if field in doc and doc[field] != getattr(design, field):
            raise FormatError(
                f"declared {field}={doc[field]!r} but sets give "
                f"{field}={getattr(design, field)}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("'meta' must be an object")
    return design, meta


def dumps(design: ChoiceDesign, meta: dict = None) -> str:
    return json.dumps(design_to_dict(design, meta), indent=2) + "\n"


def loads(text: str) -> tuple:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integer literals past Python's digit
        # limit, and nesting deeper than the recursion limit
        raise FormatError(f"invalid JSON: {exc}") from None
    return design_from_dict(doc)


def save(design: ChoiceDesign, path, meta: dict = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(design, meta))


def load(path) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def design_to_csv(design: ChoiceDesign) -> str:
    """One option per row: set index, option index (both 1-based), bits."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["set", "option", "treatment"])
    for p, s in enumerate(_bit_strings(design), start=1):
        for i, t in enumerate(s, start=1):
            writer.writerow([p, i, t])
    return out.getvalue()


def save_csv(design: ChoiceDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design_to_csv(design))
