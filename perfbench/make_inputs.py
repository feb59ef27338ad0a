#!/usr/bin/env python3
"""Write the verify workload's design files into perfbench/inputs/.

Run from the root of a chogen checkout:

    python3 perfbench/make_inputs.py

Each cell design is what a cold `chogen generate --out` writes for that
cell, so the files come from the library's own constructions; the run
takes about two minutes.  The 64-factor main-effects design is fixed by
hand: two sets of two options, N(m-1) = 2 < Q = 64.
"""

import json
import os
import sys

from run import ENTRY, INPUTS, VERIFY_CELLS, WIDE_DESIGN, cell_args, program_env


def main() -> int:
    INPUTS.mkdir(exist_ok=True)
    env = program_env()
    for name, family, m, n, r in VERIFY_CELLS:
        out = INPUTS / f"{name}.json"
        argv = [sys.executable, "-c", ENTRY, "generate"] + \
            cell_args(family, m, n, r) + ["--out", str(out)]
        pid = os.posix_spawn(sys.executable, argv, env)
        _, status, _ = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            print(f"error: generate {name} failed", file=sys.stderr)
            return 1
    wide = {"n": 64, "m": 2,
            "sets": [["0" * 64, "1" * 64], ["01" * 32, "10" * 32]],
            "meta": {"model": "main-effects"}}
    (INPUTS / f"{WIDE_DESIGN}.json").write_text(json.dumps(wide, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
