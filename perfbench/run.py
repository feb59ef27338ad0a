#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of chogen.

Run from the root of a chogen checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads: table, generate, verify, audit (see perfbench/README.md).  The
program runs from ./src in separate processes; this harness never imports
it.  Every output is checked with perfbench/certifier.py, which shares no
code with chogen.  Whole rounds of the workload's operations are repeated
until S seconds have passed.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
again with every layer wrapped (tracer.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# The harness's own BLAS stays single-threaded, so that no idle BLAS thread
# of the harness competes with the program process that runs next.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import certifier  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
# what the installed `chogen` console script runs
ENTRY = "import sys; from chogen.cli import main; sys.exit(main())"
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3  # cold imports before the rounds and after each
DOCUMENTED_EXITS = (0, 2, 3, 4)

# (name, family, m, n, r).  In generate, spec-all m=4 n=11 stands in for
# the spec-all n=12 cells: its cheap recipe also has N(m-1) < Q and still
# goes through classification, but a cold run takes about 10 s, not 40-70 s,
# so that a comparison of 92 runs (4 + 22 per workload) fits within an hour.
GENERATE_CELLS = (
    ("broader-m6-n8", "broader", 6, 8, None),
    ("spec-group-m4-n10-r3", "spec-group", 4, 10, 3),
    ("spec-all-m4-n11", "spec-all", 4, 11, None),
)
VERIFY_CELLS = (
    ("broader-m6-n8", "broader", 6, 8, None),
    ("spec-group-m4-n10-r3", "spec-group", 4, 10, 3),
    ("spec-all-m4-n12", "spec-all", 4, 12, None),
    ("spec-all-m3-n12", "spec-all", 3, 12, None),
)
# 64 factors, N(m-1) = 2 < Q = 64: the only correct verdict is NotConnected
WIDE_DESIGN = "main-effects-m2-n64"

# One audit round: (family, n, m, N, r, linked).  Random designs of these
# sizes take 0.9-3 s each and none certifies.  A linked design covers every
# treatment and its sets link all treatments into one component, so its C*
# has full rank: a combination of contrasts that is constant on every set is
# then constant everywhere, hence zero.
AUDIT_ROUND = (
    ("spec-all", 8, 3, 128, None, False),   # almost always NotConnected: C* rank-deficient
    ("spec-group", 8, 4, 24, 2, False),     # NotConnected: N(m-1) < Q
    ("spec-all", 8, 4, 256, None, True),    # ConnectedNotOptimal: all Q minors
    ("broader", 12, 3, 48, None, False),    # nonzero cross block: Schur route
)
TABLE_SAMPLE = 3
TABLE_SAMPLE_MAX_OPTIONS = 4096

PER_CELL = tuple(f"generate.{c[0]}_s" for c in GENERATE_CELLS) + \
    tuple(f"verify.{c[0]}_s" for c in VERIFY_CELLS)


def cell_args(family, m, n, r) -> list:
    args = ["--model", family, "--m", str(m), "--n", str(n)]
    return args + (["--r", str(r)] if r is not None else [])


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CHOGEN_", "OPENBLAS_"))}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Op:
    """One timed operation of the program."""

    name: str
    wall: float
    cpu: float
    rss_mb: float = 0.0
    failed: bool = False
    layers: dict = field(default_factory=dict)


class Programs:
    """Starts cold chogen processes and takes their rusage from wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.env = program_env()
        self.count = 0
        self.stdin = work / "empty"
        self.stdin.touch()

    def fresh(self, suffix) -> Path:
        self.count += 1
        return self.work / f"{self.count:04d}{suffix}"

    def spawn(self, argv) -> tuple:
        out, err = self.fresh(".out"), self.fresh(".err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, str(self.stdin), os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        return (wall, ru, os.waitstatus_to_exitcode(status),
                out.read_text(errors="replace"), err.read_text(errors="replace"))

    def cli(self, name, args, traced):
        """One cold `chogen ARGS`; returns (op, exit code, stdout, stderr)."""
        if traced:
            spans = self.fresh(".spans.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        else:
            argv = [sys.executable, "-c", ENTRY]
        wall, ru, code, out, err = self.spawn(argv + list(args))
        op = Op(name, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024)
        if traced and spans.exists():  # absent if the process was killed
            op.layers = tracing.summarize(json.loads(spans.read_text()))
        op.failed = code not in DOCUMENTED_EXITS or "Traceback" in err
        return op, code, out, err


def import_times(progs: Programs, count: int) -> list:
    """Wall times of cold interpreters that only import chogen."""
    times = []
    for _ in range(count):
        wall, _, code, _, err = progs.spawn([sys.executable, "-c", "import chogen"])
        if code != 0:
            raise SystemExit(f"error: `import chogen` failed:\n{err}")
        times.append(wall)
    return times


class Workload:
    """Rounds of operations plus the checks on their outputs."""

    min_rounds = 1

    def __init__(self, progs: Programs, seed: int):
        self.progs = progs
        self.rng = random.Random(seed)
        self.problems = []
        self.notes = []

    def prepare(self):
        pass

    def round(self, traced: bool) -> list:
        raise NotImplementedError

    def peak_rss_mb(self, rounds) -> float:
        return max(op.rss_mb for ops in rounds for op in ops)

    def close(self):
        pass

    def finish(self):
        """Checks that need every round."""

    def note_failure(self, op, code, err):
        tail = err.strip().splitlines()[-1:] or [""]
        self.notes.append(f"{op.name}: exit {code}: {tail[0]}")


class TableWorkload(Workload):
    def __init__(self, progs, seed):
        super().__init__(progs, seed)
        self.sampled = False

    def round(self, traced):
        path = self.progs.work / "table.json"
        op, code, out, err = self.progs.cli(
            "table", ["table", "--block", "all", "--format", "json",
                      "--out", str(path)], traced)
        if op.failed:
            self.note_failure(op, code, err)
        elif code != 0:
            self.problems.append(f"table exited {code}")
        else:
            self.check(json.loads(path.read_text()))
        return [op]

    def check(self, entries):
        cells = [e for e in entries if e["status"] != "BlankCell"]
        if not cells:
            self.problems.append("table has no non-blank cell")
        for e in cells:
            where = f"table {e['model']} m={e['m']} n={e['n']}"
            if not e["certified"] or e["achieved_N"] is None:
                self.problems.append(f"{where}: not certified")
                continue
            Q = len(certifier.effect_masks(e["model"], e["n"])[0])
            if e["achieved_N"] * (e["m"] - 1) < Q:
                self.problems.append(f"{where}: N(m-1) < Q={Q}")
        if not self.sampled:
            self.sampled = True
            self.check_sample(cells)

    def check_sample(self, cells):
        """Rebuild a seed-chosen sample of cells and certify them here."""
        small = [e for e in cells if e["certified"] and e["achieved_N"]
                 and e["achieved_N"] * e["m"] <= TABLE_SAMPLE_MAX_OPTIONS]
        sample = self.rng.sample(small, min(TABLE_SAMPLE, len(small)))
        out = self.progs.work / "rebuilt.json"
        keys = [f"{e['model']}:{e['m']}:{e['n']}" for e in sample]
        argv = [sys.executable, str(HERE / "rebuild_cells.py"), str(out)]
        _, _, code, _, err = self.progs.spawn(argv + keys)
        if code != 0:
            self.problems.append(f"rebuilding {keys} failed: {err[-300:]}")
            return
        for e, built in zip(sample, json.loads(out.read_text())):
            options, n = certifier.parse_sets(built["sets"], e["n"])
            rep = certifier.certify(options, n, e["model"])
            if built["recipe"] != e["recipe"] or len(options) != e["achieved_N"]:
                self.problems.append(f"{built['cell']}: rebuilt recipe differs")
            elif not rep.optimal:
                self.problems.append(f"{built['cell']}: certifier rejects "
                                     f"the rebuilt design")
        self.notes.append("sampled cells: " + ", ".join(keys))


class GenerateWorkload(Workload):
    # A round is one cold process per cell, about 12 s.  Single rounds read
    # up to 30 % apart on a machine whose speed drifts from minute to minute;
    # three rounds per run average more of that drift.
    min_rounds = 3

    def round(self, traced):
        ops = []
        for name, family, m, n, r in GENERATE_CELLS:
            path = self.progs.work / f"generate-{name}.json"
            path.unlink(missing_ok=True)
            args = ["generate"] + cell_args(family, m, n, r) + ["--out", str(path)]
            op, code, out, err = self.progs.cli(f"generate.{name}", args, traced)
            ops.append(op)
            if op.failed:
                self.note_failure(op, code, err)
            elif code != 0:
                self.problems.append(f"generate {name} exited {code}")
            else:
                self.check(name, family, m, n, r, path)
        return ops

    def check(self, name, family, m, n, r, path):
        try:
            doc = json.loads(path.read_text())
            if doc.get("n") != n or doc.get("m") != m:
                raise ValueError(f"wrote n={doc.get('n')}, m={doc.get('m')}")
            options, _ = certifier.parse_sets(doc["sets"], n)
            if options.shape[1] != m:
                raise ValueError(f"sets of {options.shape[1]} options")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"generate {name}: bad output: {exc}")
            return
        if not certifier.certify(options, n, family, r).optimal:
            self.problems.append(f"generate {name}: certifier rejects output")


class VerifyWorkload(Workload):
    def prepare(self):
        """Relabel each stored cell design by the seed and certify it here.

        Sets are shuffled, options shuffled within sets, and a seed-chosen
        set of factors has its levels swapped; none of this changes the
        certificate or the work.  The 64-factor design stays fixed.
        """
        self.files = []
        for name, family, m, n, r in VERIFY_CELLS:
            doc = json.loads((INPUTS / f"{name}.json").read_text())
            options, _ = certifier.parse_sets(doc["sets"], n)
            options = options[self.rng.sample(range(len(options)), len(options))]
            for row in options:
                self.rng.shuffle(row)
            options ^= self.rng.getrandbits(n)
            doc["sets"] = [[format(int(x), f"0{n}b") for x in row]
                           for row in options]
            path = self.progs.work / f"verify-{name}.json"
            path.write_text(json.dumps(doc))
            verdict = certifier.certify(options, n, family, r).verdict()
            if verdict != certifier.UNIVERSALLY_OPTIMAL:
                self.problems.append(f"input {name} is {verdict}")
            self.files.append((f"verify.{name}", path, verdict))
        path = INPUTS / f"{WIDE_DESIGN}.json"
        doc = json.loads(path.read_text())
        if len(doc["sets"]) * (doc["m"] - 1) >= doc["n"]:
            self.problems.append(f"{WIDE_DESIGN} is not below the rank bound")
        self.files.append((f"verify.{WIDE_DESIGN}", path, certifier.NOT_CONNECTED))

    def round(self, traced):
        ops = []
        for name, path, expected in self.files:
            op, code, out, err = self.progs.cli(name, ["verify", str(path)],
                                                traced)
            ops.append(op)
            if op.failed:
                self.note_failure(op, code, err)
                continue
            got = next((line.split(":", 1)[1].strip() for line in out.splitlines()
                        if line.startswith("verdict:")), None)
            if expected == certifier.UNIVERSALLY_OPTIMAL:
                ok = code == 0 and got == expected
            else:
                ok = (code == 2 and got == expected) or code == 3
            if not ok:
                self.problems.append(f"{name}: exit {code}, verdict {got}, "
                                     f"certifier says {expected}")
        return ops


class AuditWorkload(Workload):
    def __init__(self, progs, seed):
        super().__init__(progs, seed)
        self.workers = {}
        self.peak = 0.0
        self.routes = set()
        self.drawn = []  # designs of each round; traced rounds replay them
        self.done = {False: 0, True: 0}

    def worker(self, traced):
        if traced not in self.workers:
            argv = [sys.executable, str(HERE / "audit_worker.py")]
            err = open(self.progs.work / f"audit-worker-{int(traced)}.err", "w")
            proc = subprocess.Popen(argv + (["--trace"] if traced else []),
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=err, env=self.progs.env, text=True)
            err.close()
            self.workers[traced] = proc
            if json.loads(proc.stdout.readline() or "{}").get("ready") is not True:
                raise RuntimeError("audit worker did not start")
        return self.workers[traced]

    def ask(self, proc, request) -> dict:
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        return json.loads(line) if line else {}

    def draw(self, n, m, N, linked) -> list:
        """N sets of m distinct options; linked ones chain whole permutations."""
        size = 1 << n
        if not linked:
            return [self.rng.sample(range(size), m) for _ in range(N)]
        while True:
            sets = []
            while len(sets) < N:
                perm = self.rng.sample(range(size), size)
                sets += [perm[i:i + m] for i in range(0, size - m + 1, m)]
            sets = sets[:N]
            root = list(range(size))

            def find(x):
                while root[x] != x:
                    root[x] = root[root[x]]
                    x = root[x]
                return x

            for s in sets:
                for x in s[1:]:
                    root[find(x)] = find(s[0])
            if len({find(x) for x in range(size)}) == 1:
                return sets

    def round(self, traced):
        proc = self.worker(traced)
        index = self.done[traced]
        self.done[traced] += 1
        if index == len(self.drawn):
            self.drawn.append([self.draw(n, m, N, linked)
                               for _, n, m, N, _, linked in AUDIT_ROUND])
        ops, checks = [], []
        for (family, n, m, N, r, _), sets in zip(AUDIT_ROUND, self.drawn[index]):
            start = time.perf_counter()
            reply = self.ask(proc, {"family": family, "n": n, "r": r, "sets": sets})
            wall = time.perf_counter() - start
            name = f"audit.{family}-n{n}-m{m}-N{N}"
            op = Op(name, wall, reply.get("cpu", 0.0), failed="verdict" not in reply)
            ops.append(op)
            if op.failed:
                self.notes.append(f"{name}: worker gave no verdict")
            else:
                checks.append((name, family, n, r, sets, reply["verdict"]))
        if traced:
            ops[-1].layers = self.ask(proc, {"cmd": "spans"}).get("layers", {})
        for name, family, n, r, sets, got in checks:
            rep = certifier.certify(np.array(sets), n, family, r)
            want = rep.verdict()
            if got != want:
                self.problems.append(f"{name}: verdict {got}, certifier says {want}")
            elif rep.route == "schur":
                self.routes.add("schur")
            elif want == certifier.NOT_CONNECTED:
                self.routes.add("rank-deficient")
            elif want == certifier.CONNECTED_NOT_OPTIMAL:
                self.routes.add("full-rank")
        return ops

    def peak_rss_mb(self, rounds):
        return self.peak

    def close(self):
        for traced, proc in self.workers.items():
            proc.stdin.close()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            if not traced:
                self.peak = ru.ru_maxrss / 1024
        self.workers = {}

    def finish(self):
        missing = {"rank-deficient", "full-rank", "schur"} - self.routes
        if missing:
            self.problems.append(f"audit routes never taken: {sorted(missing)}")


WORKLOADS = {"table": TableWorkload, "generate": GenerateWorkload,
             "verify": VerifyWorkload, "audit": AuditWorkload}


def machine_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chogen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": BLAS_THREADS,
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def median_layers(rounds) -> dict:
    per_round = [tracing.merge(op.layers for op in ops if op.layers)
                 for ops in rounds]
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


def per_op_median(rounds, attr) -> dict:
    """Median over rounds of each operation's wall or CPU time.

    The operation at one position in a round is the same in every round.
    """
    return {ops[0].name: statistics.median(getattr(op, attr) for op in ops)
            for ops in zip(*rounds)}


def measure(args, work: Path) -> dict:
    progs = Programs(work)
    import_times(progs, 1)  # writes the bytecode cache
    # set-up is sampled across the whole run, so that it sees the same
    # changes in machine speed as the rounds do
    setup = import_times(progs, SETUP_REPEATS)
    workload = WORKLOADS[args.workload](progs, args.seed)
    plain, traced = [], []
    try:
        workload.prepare()
        deadline = time.perf_counter() + args.seconds
        while True:
            plain.append(workload.round(traced=False))
            setup += import_times(progs, SETUP_REPEATS)
            if (len(plain) >= workload.min_rounds
                    and time.perf_counter() >= deadline):
                break
        if args.trace:
            traced = [workload.round(traced=True) for _ in plain]
    finally:
        workload.close()
    workload.finish()

    walls = per_op_median(plain, "wall")
    run_s = sum(walls.values())
    print(f"# {json.dumps(machine_record())}")
    print(f"# workload={args.workload} seed={args.seed} rounds={len(plain)} "
          f"traced_rounds={len(traced)}")
    for note in workload.notes:
        print(f"# {note}")
    for problem in workload.problems:
        print(f"# WRONG: {problem}")
    for name, wall in walls.items():
        print(f"# {name}_s = {wall:.4f} s (median of {len(plain)})")

    if args.trace:
        layers = median_layers(traced)
        traced_s = sum(per_op_median(traced, "wall").values())
        metrics = {name: (layers[name], unit) for name, unit, _ in
                   tracing.LAYER_METRICS}
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        for name in PER_CELL:
            metrics[name] = (walls.get(name[:-2], 0.0), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "cpu_s": (sum(per_op_median(plain, "cpu").values()), "s"),
            "peak_rss_mb": (workload.peak_rss_mb(plain), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    ops = [op for r in plain + traced for op in r]
    failed = sum(op.failed for op in ops)
    print(f"operations: {len(ops)} attempted, {failed} failed")
    return {"correct": not workload.problems, "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "chogen" / "__init__.py").is_file():
        print(f"error: no chogen sources under {SRC}; run from the root of a "
              f"chogen checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
