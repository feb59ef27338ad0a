"""Layer spans for the traced benchmark run, recorded from outside chogen.

install() wraps the public functions of each layer.  The modules bind many
of these names with `from ... import`, so every module of the package that
holds the original function object gets the wrapper.  The package attribute
`chogen.hadamard` is the function, not the submodule, so modules are reached
through sys.modules.

Spans nest: each records its name, start, end, parent and a few counts, and
they stay in memory until dumped.  summarize() turns spans into the
per-layer totals; merge() adds the totals of several processes.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# (module, function, span name, attributes taken from the call and result)
TARGETS = (
    ("chogen.cli", "main", "cli.main", None),
    ("chogen.catalog", "catalog_lookup", "catalog.lookup", None),
    ("chogen.catalog", "candidate_recipes", "catalog.candidate_recipes",
     lambda a, r: {"recipes": len(r)}),
    ("chogen.hadamard", "hadamard", "hadamard.hadamard",
     lambda a, r: {"order": int(a[0])}),
    ("chogen.hadamard", "is_hadamard", "hadamard.is_hadamard",
     lambda a, r: {"ops": len(a[0]) ** 3}),
    ("chogen.constructions", "build", "constructions.build",
     lambda a, r: {"options": r.N * r.m}),
    ("chogen.contrasts", "option_sign_matrix", "contrasts.option_sign_matrix",
     lambda a, r: {"bytes": int(r.nbytes)}),
    ("chogen.contrasts", "int_product", "contrasts.int_product",
     lambda a, r: {"ops": int(a[0].shape[0] * a[0].shape[1] * a[1].shape[-1])}),
    ("chogen.contrasts", "cross_block_star", "contrasts.cross_block_star", None),
    ("chogen.contrasts", "exact_schur_cstar", "contrasts.exact_schur_cstar",
     None),
    ("chogen.optimality", "verify", "optimality.verify",
     lambda a, r: {"certified": int(r.certified)}),
    ("chogen.ratlinalg", "is_positive_definite", "ratlinalg.pd",
     lambda a, r: {"dim": len(a[0])}),
    ("chogen.ratlinalg", "to_integer_matrix", "ratlinalg.to_integer", None),
    ("chogen.ratlinalg", "leading_principal_minors", "ratlinalg.minors",
     lambda a, r: {"steps": len(r)}),
    ("chogen.ratlinalg", "solve_consistent", "ratlinalg.solve", None),
    ("chogen.serialization", "load", "serialization.load", None),
    ("chogen.serialization", "loads", "serialization.loads",
     lambda a, r: {"bytes": len(a[0]), "options": r[0].N * r[0].m}),
    ("chogen.serialization", "dumps", "serialization.dumps",
     lambda a, r: {"bytes": len(r)}),
    ("chogen.serialization", "design_to_csv", "serialization.design_to_csv",
     lambda a, r: {"bytes": len(r)}),
)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []

    def wrap(self, fn, name, attrs):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[4] = attrs(args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        """Replace every binding of each target function in chogen modules."""
        import importlib
        for modname, fname, span, attrs in TARGETS:
            importlib.import_module(modname)
            original = getattr(sys.modules[modname], fname)
            wrapper = self.wrap(original, span, attrs)
            for name, mod in list(sys.modules.items()):
                if (name == "chogen" or name.startswith("chogen.")) and \
                        getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)

    def take(self) -> list:
        """Hand over the finished spans and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.take(), fh)


# per-layer metrics, each with its unit and better direction
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("catalog.lookups", "count", "lower"),
    ("catalog.recipes", "count", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("hadamard.calls", "count", "lower"),
    ("hadamard.max_order", "count", "lower"),
    ("hadamard.build_s", "s", "lower"),
    ("hadamard.check_s", "s", "lower"),
    ("hadamard.check_ops", "count", "lower"),
    ("constructions.builds", "count", "lower"),
    ("constructions.build_s", "s", "lower"),
    ("designs.options", "count", "lower"),
    ("contrasts.signs_s", "s", "lower"),
    ("contrasts.sign_bytes_max", "B", "lower"),
    ("contrasts.product_s", "s", "lower"),
    ("contrasts.product_ops", "count", "lower"),
    ("contrasts.cross_block_s", "s", "lower"),
    ("contrasts.schur_s", "s", "lower"),
    ("optimality.verify_calls", "count", "lower"),
    ("optimality.certified", "count", "higher"),
    ("optimality.certified_ratio", "ratio", "higher"),
    ("optimality.self_s", "s", "lower"),
    ("optimality.rejected_s", "s", "lower"),
    ("ratlinalg.pd_calls", "count", "lower"),
    ("ratlinalg.pd_dim", "count", "lower"),
    ("ratlinalg.to_integer_s", "s", "lower"),
    ("ratlinalg.minors_s", "s", "lower"),
    ("ratlinalg.minors_steps", "count", "lower"),
    ("ratlinalg.solve_s", "s", "lower"),
    ("serialization.dump_s", "s", "lower"),
    ("serialization.load_s", "s", "lower"),
    ("serialization.bytes", "B", "lower"),
)

_MAX_KEYS = ("hadamard.max_order", "contrasts.sign_bytes_max")


def summarize(spans) -> dict:
    """Per-layer totals of one process's spans (certified_ratio excluded)."""
    out = {name: 0 for name, _, _ in LAYER_METRICS}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def add(key, value):
        out[key] += value

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "cli.main":
            add("cli.self_s", own)
        elif name.startswith("catalog."):
            add("catalog.self_s", own)
            if name == "catalog.lookup":
                add("catalog.lookups", 1)
            else:
                add("catalog.recipes", attrs.get("recipes", 0))
        elif name == "hadamard.hadamard":
            add("hadamard.calls", 1)
            add("hadamard.build_s", own)
            out["hadamard.max_order"] = max(out["hadamard.max_order"],
                                            attrs.get("order", 0))
        elif name == "hadamard.is_hadamard":
            add("hadamard.check_s", dur)
            add("hadamard.check_ops", attrs.get("ops", 0))
        elif name == "constructions.build":
            add("constructions.builds", 1)
            add("constructions.build_s", own)
            add("designs.options", attrs.get("options", 0))
        elif name == "contrasts.option_sign_matrix":
            add("contrasts.signs_s", own)
            out["contrasts.sign_bytes_max"] = max(
                out["contrasts.sign_bytes_max"], attrs.get("bytes", 0))
        elif name == "contrasts.int_product":
            add("contrasts.product_s", dur)
            add("contrasts.product_ops", attrs.get("ops", 0))
        elif name == "contrasts.cross_block_star":
            add("contrasts.cross_block_s", own)
        elif name == "contrasts.exact_schur_cstar":
            add("contrasts.schur_s", own)
        elif name == "optimality.verify":
            add("optimality.verify_calls", 1)
            add("optimality.self_s", own)
            if attrs.get("certified"):
                add("optimality.certified", 1)
            else:
                add("optimality.rejected_s", dur)
        elif name == "ratlinalg.pd":
            add("ratlinalg.pd_calls", 1)
            add("ratlinalg.pd_dim", attrs.get("dim", 0))
        elif name == "ratlinalg.to_integer":
            add("ratlinalg.to_integer_s", dur)
        elif name == "ratlinalg.minors":
            add("ratlinalg.minors_s", dur)
            add("ratlinalg.minors_steps", attrs.get("steps", 0))
        elif name == "ratlinalg.solve":
            add("ratlinalg.solve_s", dur)
        elif name in ("serialization.dumps", "serialization.design_to_csv"):
            add("serialization.dump_s", dur)
            add("serialization.bytes", attrs.get("bytes", 0))
        elif name in ("serialization.load", "serialization.loads"):
            if not parent_name.startswith("serialization."):
                add("serialization.load_s", dur)
            if name == "serialization.loads":
                add("serialization.bytes", attrs.get("bytes", 0))
                add("designs.options", attrs.get("options", 0))
    del out["optimality.certified_ratio"]
    return out


def merge(totals) -> dict:
    """Add the totals of several processes and derive the ratios."""
    out = {name: 0 for name, _, _ in LAYER_METRICS}
    del out["optimality.certified_ratio"]
    for t in totals:
        for key, value in t.items():
            out[key] = max(out[key], value) if key in _MAX_KEYS else out[key] + value
    calls = out["optimality.verify_calls"]
    out["optimality.certified_ratio"] = out["optimality.certified"] / calls if calls else 0.0
    return out
