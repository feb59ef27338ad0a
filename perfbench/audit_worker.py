"""Warm chogen process for the audit workload.

Imports chogen once, then reads one JSON request per line on stdin and
answers each on stdout:

  {"family": "spec-all", "n": 8, "r": null, "sets": [[int, ...], ...]}
      -> {"verdict": ..., "cpu": seconds of CPU this request used}
  {"cmd": "spans"}  (traced only)
      -> {"layers": per-layer totals since the previous request of this kind}

Option k of a set is an integer whose bits are the factor levels, factor 1
the most significant.  The process exits at end of input.  Pass --trace
to record layer spans.
"""

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _model(chogen, family, n, r):
    if family == "spec-all":
        return chogen.ModelSpec.specified_one_factor(n)
    if family == "spec-group":
        return chogen.ModelSpec.specified_group(n, r)
    if family == "broader":
        return chogen.ModelSpec.broader_main_effects(n)
    raise ValueError(f"unknown family {family!r}")


def _design(chogen, n, sets):
    return chogen.ChoiceDesign.from_sets(
        [tuple((x >> (n - 1 - k)) & 1 for k in range(n)) for x in s]
        for s in sets)


def main() -> int:
    import chogen
    from chogen import optimality

    tracer = None
    if "--trace" in sys.argv[1:]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    # first-call set-up inside numpy and the package, outside any timing
    optimality.verify(_design(chogen, 3, [[0, 7], [1, 6]]),
                      chogen.ModelSpec.broader_main_effects(3))
    if tracer is not None:
        tracer.take()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("cmd") == "spans":
            reply = {"layers": tracing.summarize(tracer.take())}
        else:
            start = _cpu()
            design = _design(chogen, req["n"], req["sets"])
            model = _model(chogen, req["family"], req["n"], req.get("r"))
            report = optimality.verify(design, model)
            reply = {"verdict": report.verdict.value, "cpu": _cpu() - start}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
