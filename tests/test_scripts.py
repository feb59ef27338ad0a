"""The demos, the benchmark tracer and the measuring tools run against the
package as it is."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_certify_reference_designs.py", "02_reproduce_reference_table.py",
         "03_wider_seeds_for_interaction_models.py")


def _run(argv, timeout):
    # no bytecode caches written next to the scripts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    proc = _run([str(ROOT / "demos" / demo)], 120)
    assert proc.returncode == 0, proc.stderr


# Installs every tracer wrapper, then lists the names that do not resolve:
# package exports missing from chogen, and targets left unwrapped.
TRACER_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import chogen
from tracer import TARGETS, Tracer
Tracer().install()
missing = [name for name in chogen.__all__ if not hasattr(chogen, name)]
missing += [f"{mod}.{fn}" for mod, fn, _, _ in TARGETS
            if not hasattr(getattr(sys.modules[mod], fn), "__wrapped__")]
print(" ".join(missing))
"""


def test_tracer_targets_and_package_exports_resolve():
    proc = _run(["-c", TRACER_CHECK, str(ROOT / "perfbench")], 60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_own_peak_reports_a_cold_verify():
    design = ROOT / "perfbench" / "inputs" / "broader-m6-n8.json"
    proc = _run([str(ROOT / "tools" / "own_peak.py"), "-k", "1",
                 "verify", str(design)], 120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == {"command", "runs", "exit_codes", "wall_s",
                           "peak_rss_mb"}
    assert report["command"] == ["verify", str(design)]
    assert report["runs"] == 1 and report["exit_codes"] == [0]
    assert report["wall_s"] > 0 and report["peak_rss_mb"] > 0


def _bench_pairs():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_prints_the_claims_that_hold():
    bench_pairs = _bench_pairs()
    pairs = [{"parent": {"metrics": {"run_s": 1.0 + k / 100, "cpu_s": 1.0}},
              "change": {"metrics": {"run_s": 0.5, "cpu_s": 2.0}}}
             for k in range(10)]
    better = {"run_s": "lower", "cpu_s": "lower"}
    summary = bench_pairs.summarize(pairs, better, {"run_s": 0.25, "cpu_s": 0.25})
    doc = {"workloads": {"audit": {"summary": summary}}}
    assert bench_pairs.flag_lines(doc) == [
        "regressed: audit cpu_s", "unresolved: none",
        "claims holding: audit run_s"]


def test_bench_pairs_claims_need_ten_pairs():
    # 6 of 6 pairs won, by far, is not yet a claim; 10 of 10 is
    bench_pairs = _bench_pairs()
    better = {"run_s": "lower"}
    for count, holds in ((6, False), (9, False), (10, True)):
        pairs = [{"parent": {"metrics": {"run_s": 1.0 + k / 100}},
                  "change": {"metrics": {"run_s": 0.5}}} for k in range(count)]
        stats = bench_pairs.summarize(pairs, better, {})["run_s"]
        assert stats["change_won"] == count
        assert stats["claim_holds"] is holds


def test_bench_pairs_flags_a_side_with_no_commit():
    bench_pairs = _bench_pairs()
    doc = {"workloads": {},
           "checkouts": {"parent": {"commit": None, "src_modified": False},
                         "change": {"commit": "ab12", "src_modified": False}}}
    lines = bench_pairs.flag_lines(doc)
    assert lines[:3] == ["regressed: none", "unresolved: none",
                         "claims holding: none"]
    assert len(lines) == 4 and lines[3].startswith("no commit: parent ")
    doc["checkouts"]["parent"]["commit"] = "cd34"
    assert len(bench_pairs.flag_lines(doc)) == 3
