"""Traced stand-in for `python -m spinpic.cli ARGS...`, used by traced verify-sweep runs.

Usage: python3 bench/child.py TRACE_OUT.json ARGS...

Imports spinpic (PYTHONPATH must hold the checkout's src/), installs the
tracer, runs the CLI as one op, and writes the trace as JSON for the parent
run to merge.
"""

import json
import sys

from spans import Tracer

from spinpic import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.current_op = 0
    tracer.active = True
    try:
        rc = cli.run(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
