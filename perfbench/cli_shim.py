"""Traced child process of the ``temporal_cli`` workload.

Usage: ``python3 perfbench/cli_shim.py TRACE_OUT <fracspec arguments...>``

Wraps the same entry points as the parent's tracer, runs
``fracspec.cli.main`` with the remaining arguments, writes the spans and
counts to ``TRACE_OUT`` (JSON) and exits with the command's exit code.
"""

import json
import sys

import fracspec.cli  # the parent sets PYTHONPATH and the BLAS thread pin

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = fracspec.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({"aggregate": tracer.aggregate(), "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
