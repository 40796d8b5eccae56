"""The CLI and the daemon import only what the invoked command runs.

``repro.tools.cli`` is the entry point of every ``repro-scap`` command,
the daemon's included, so whatever it imports at module level every
command pays for at start-up.  The analysis models (numpy), the apps
and pattern matcher, and the figure and baseline harnesses are each
imported by the commands that use them; ``http.server`` by none (the
daemon's loop answers HTTP itself).  A fresh interpreter is the only place where ``sys.modules``
shows what an import pulled in.
"""

import os
import subprocess
import sys

import repro

DEFERRED = (
    "numpy",
    "http.server",
    "repro.analysis",
    "repro.matching",
    "repro.bench",
    "repro.baselines",
)

_PROBE = """
import sys
import repro.tools.cli
import repro.service.daemon
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def test_cli_and_daemon_import_without_deferred_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *DEFERRED],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []
