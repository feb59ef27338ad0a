"""Run the chogen command line with layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_JSON chogen-arguments...

Installs the wrappers of tracer.py, calls chogen.cli.main with the
remaining arguments, and writes the spans to SPANS_JSON when the process
exits, however it exits.
"""

import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    atexit.register(tracer.dump, out)
    from chogen import cli
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
