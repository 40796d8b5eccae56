"""The command in ``BENCHMARK.json``.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.  Puts the checkout and its
``src/`` on the import path (the package is not installed), pins
``PYTHONHASHSEED`` by re-executing once, and hands over to
``runner.main``.  Without ``src/repro`` it exits non-zero and prints no
result.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Dict and set order feed allocation patterns; one fixed hash
        # seed takes that out of the run-to-run spread.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    # Not the script's own directory: its module names (trace, stats)
    # must not shadow the standard library's.
    sys.path[0:1] = [_ROOT, os.path.join(_ROOT, "src")]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under test from src/: {error}", file=sys.stderr)
        return 2
    from benchmarks.perf import runner

    return runner.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
