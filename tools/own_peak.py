#!/usr/bin/env python3
"""Median wall time and peak RSS of a cold chogen command.

    python3 tools/own_peak.py [-k K] CMD...

runs `chogen CMD...` K times (default 5), from the src/ of the checkout
that holds this script, each time in a new process made by fork and exec.
It prints one JSON object: the command, the runs, each run's exit code, the
median wall time in seconds and the median of the children's ru_maxrss in
MB, as wait4 reports them.

A child's ru_maxrss counts the high-water mark its process had before exec,
and that is the parent's own at fork.  A parent that has imported numpy and
loaded designs (perfbench/run.py) so lifts every child's reading to its own
mark.  This script imports no numpy and stays well below the memory that
`import chogen` takes, so the peak it prints is the command's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# what the installed `chogen` console script runs
ENTRY = "import sys; from chogen.cli import main; sys.exit(main())"


def run_once(argv: list, env: dict) -> tuple:
    """(wall seconds, ru_maxrss in MB, exit code) of one cold child."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, ru.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="median wall time and peak RSS of a cold chogen command")
    parser.add_argument("-k", type=int, default=5, help="runs (default 5)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="chogen arguments, e.g. verify design.json")
    args = parser.parse_args()
    if not args.command or args.k < 1:
        parser.error("need a chogen command and k >= 1")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", ENTRY, *args.command]
    runs = [run_once(argv, env) for _ in range(args.k)]
    print(json.dumps({
        "command": args.command,
        "runs": args.k,
        "exit_codes": [code for _, _, code in runs],
        "wall_s": round(statistics.median(w for w, _, _ in runs), 4),
        "peak_rss_mb": round(statistics.median(p for _, p, _ in runs), 2),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
