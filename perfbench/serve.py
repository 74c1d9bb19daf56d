"""Server launcher of the benchmark: ``repro serve`` in a process it owns.

Installs the server-side span wrappers when ``--trace-out`` is given,
turns SIGTERM into the CLI's orderly shutdown, then hands the remaining
arguments to ``repro.cli.main(["serve", ...])``.  On exit it writes the
recorded spans to ``--trace-out``.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 perfbench/serve.py [--trace-out spans.json] \\
        -- --port 0
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]
    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install_server(tracer)
    from repro import cli

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        if tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
