"""The daemon process of the service phase.

Runs the shipped entry point — ``repro.tools.cli.main(["serve", ...])``
— unchanged.  With ``--trace-dump`` the wrappers of ``trace.py`` are
installed first and this process's part of the per-layer fold is
written there after the daemon has shut down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--unix", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--max-queued-events", required=True)
    parser.add_argument("--memory-mb", required=True)
    parser.add_argument("--trace-dump", default=None)
    args = parser.parse_args(argv)
    # Not the script's own directory: its module names (trace, stats)
    # must not shadow the standard library's.
    sys.path[0:1] = [_ROOT, os.path.join(_ROOT, "src")]
    from repro.tools import cli

    serve = [
        "serve", "--unix", args.unix, "--store", args.store,
        "--max-queued-events", args.max_queued_events, "--memory-mb", args.memory_mb,
    ]
    if args.trace_dump is None:
        return cli.main(serve)

    import repro.service  # noqa: F401  (holders of the wrapped functions)
    from benchmarks.perf import layers, trace

    tracer = trace.Tracer()
    installed = trace.install(tracer, in_daemon=True)
    try:
        code = cli.main(serve)
    finally:
        installed.restore()
    record = layers.process_record(tracer)
    record["span_rows"] = tracer.dump()
    with open(args.trace_dump, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
