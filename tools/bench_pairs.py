#!/usr/bin/env python3
"""Paired parent/change runs of perfbench/run.py, written to one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_seed.json \\
        --seed 303 table:10 generate:10 verify:6 audit:6

PARENT and CHANGE are the roots of two chogen checkouts.  For each
WORKLOAD:PAIRS argument the script runs

    python3 perfbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0

in both checkouts PAIRS times, T being the `run_seconds` of the change
checkout's BENCHMARK.json, the parent first in even pairs and the
change first in odd ones.  The file records the machine, each checkout's
commit and source hash, every run's end-to-end metrics, and per metric the
median and quartiles of each side, the number of pairs the change won
(strictly better, in the direction BENCHMARK.json declares), and whether a
gain could be claimed: over at least 10 pairs, the change wins at least 9
in 10 of them and its median beats the parent's by more than the parent's
interquartile range.  Each
end-to-end metric also records whether it regressed: the change's median is
worse than the parent's by more than the metric's relative `bound`.  It is
unresolved when the parent's interquartile range is wider than that bound,
unless every change run beats every parent run.  The file is rewritten after
every pair, so an interrupted run keeps the pairs it finished, and the
regressed and unresolved metrics, and those whose claim holds, are printed
at the end, with a warning for a side whose checkout has no commit.

The script exits 1 when any run reports `correct: false` or a failed
operation; those runs stay in the file and are listed under "problems".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 3600
CLAIM_SHARE = 0.9  # least share of pairs the change must win for a claim
CLAIM_PAIRS = 10  # least number of pairs a claim rests on


def git_state(root: Path) -> dict:
    """HEAD of the checkout and whether its src/ differs from HEAD."""
    def git(*args):
        res = subprocess.run(["git", "-C", str(root), *args],
                             capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "--", "src"))}


def machine() -> dict:
    info = {"cpus": os.cpu_count()}
    try:
        info["memory_gb"] = round(os.sysconf("SC_PAGE_SIZE")
                                  * os.sysconf("SC_PHYS_PAGES") / 2**30, 1)
    except (ValueError, OSError, AttributeError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py process; its machine record and its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{res.returncode}:\n{res.stderr[-2000:]}")
    record = next(json.loads(line[2:]) for line in lines
                  if line.startswith("# {"))
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return {"record": record, **out}


def spread(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, better: dict, bounds: dict) -> dict:
    """Per metric: each side's median and quartiles, pairs won, the claim,
    and for the metrics with a relative bound, regressed and unresolved."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        before = [p["parent"]["metrics"][name] for p in pairs]
        after = [p["change"]["metrics"][name] for p in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        won = sum(sign * a < sign * b for a, b in zip(after, before))
        parent, change = spread(before), spread(after)
        gap = sign * (parent["median"] - change["median"])
        iqr = parent["q3"] - parent["q1"]
        out[name] = {"parent": parent, "change": change,
                     "change_won": won, "pairs": len(pairs),
                     "median_gap": gap, "parent_iqr": iqr,
                     "claim_holds": (len(pairs) >= CLAIM_PAIRS and gap > iqr
                                     and won >= CLAIM_SHARE * len(pairs))}
        if name in bounds:
            allowed = bounds[name] * abs(parent["median"])
            apart = max(sign * a for a in after) < min(sign * b for b in before)
            out[name]["regressed"] = -gap > allowed
            out[name]["unresolved"] = iqr > allowed and not apart
    return out


def flag_lines(doc: dict) -> list:
    """The `regressed:`, `unresolved:` and `claims holding:` lines: the
    workload and name of each metric whose summary sets that flag; then a
    `no commit:` line naming each side whose checkout recorded none."""
    lines = []
    for label, flag in (("regressed", "regressed"), ("unresolved", "unresolved"),
                        ("claims holding", "claim_holds")):
        names = [f"{workload} {name}"
                 for workload, entry in doc["workloads"].items()
                 for name, stats in entry["summary"].items() if stats.get(flag)]
        lines.append(f"{label}: {', '.join(names) or 'none'}")
    missing = [side for side, state in doc.get("checkouts", {}).items()
               if not state.get("commit")]
    if missing:
        lines.append(f"no commit: {', '.join(missing)} (not a git checkout; "
                     "only the source hash identifies it)")
    return lines


def run_problem(workload: str, side: str, result: dict):
    """A description of what went wrong in one run, or None."""
    if result.get("correct") is True and not result.get("failed"):
        return None
    return (f"{workload} {side}: correct={result.get('correct')}, "
            f"failed={result.get('failed')} of {result.get('attempted')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=303)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    plan = []
    for spec in args.runs:
        workload, _, count = spec.partition(":")
        plan.append((workload, int(count or 1)))
    spec_doc = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec_doc["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec_doc["end_to_end"]}
    seconds = spec_doc["run_seconds"]

    doc = {
        "command": (f"perfbench/run.py --workload W --seed {args.seed} "
                    f"--seconds {seconds:g} --trace 0"),
        "machine": machine(),
        "checkouts": {side: git_state(root) for side, root in sides.items()},
        "workloads": {},
        "problems": [],
    }
    for workload, count in plan:
        entry = doc["workloads"].setdefault(workload, {"pairs": []})
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                result = run_once(sides[side], workload, args.seed, seconds)
                doc["checkouts"][side]["run_record"] = result.pop("record")
                pair[side] = result
                problem = run_problem(workload, side, result)
                if problem:
                    doc["problems"].append(problem)
                print(f"{workload} pair {i + 1}/{count} {side}: "
                      f"run_s={result['metrics'].get('run_s', 0):.3f} "
                      f"correct={result['correct']} "
                      f"failed={result.get('failed')}", flush=True)
            entry["pairs"].append(pair)
            entry["summary"] = summarize(entry["pairs"], better, bounds)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in flag_lines(doc):
        print(line)
    for problem in doc["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if doc["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
