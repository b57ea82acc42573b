"""The microbenchmarks in ``benchmarks/`` still run, as plain tests.

They call private helpers of ``qmlkit.dynamics`` (``_krylov_span``,
``_rhs``, ``_rk4_step``, ...) and unpack their results, so a change to
one of those can break them without failing any test here. This runs
the whole directory once with timing off (``--benchmark-disable``), in a
subprocess so that its collection stays separate from this suite's.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmarks_pass_with_timing_disabled():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", "benchmarks"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
