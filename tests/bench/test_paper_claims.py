"""The paper's claims (Figs. 3-12, the ablations, cost-model sensitivity)
hold at the ``tiny`` scale.

The assertions live once, in ``benchmarks/bench_*.py``; this runs those
files under ``REPRO_BENCH_SCALE=tiny`` in a child pytest.  CI runs the
same files at ``small`` on every push and at ``standard`` nightly.  The
four claims that need ``small``'s flows carry ``needs_small_scale`` and
are skipped here; each says why in its docstring.
"""

import os
import re
import subprocess
import sys

_REPO = os.path.join(os.path.dirname(__file__), "..", "..")
_BENCH_DIR = os.path.join(_REPO, "benchmarks")

_CLAIM_FILES = sorted(
    name
    for name in os.listdir(_BENCH_DIR)
    if name.startswith(("bench_fig", "bench_ablation_", "bench_sensitivity_"))
)


def test_paper_claims_hold_at_tiny():
    src = os.path.join(_REPO, "src")
    env = dict(
        os.environ,
        REPRO_BENCH_SCALE="tiny",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-o", "addopts=", "-q", "-p", "no:cacheprovider",
         *(os.path.join(_BENCH_DIR, name) for name in _CLAIM_FILES)],
        cwd=_REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    summary = result.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|skipped)", summary)}
    # 18 claims: 14 hold at tiny, 4 are small-or-larger only.
    assert len(_CLAIM_FILES) == 16
    assert counts == {"passed": 14, "skipped": 4}, summary
