"""Every demo script runs to completion against the source tree and prints
its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; it does not depend on PYTHONHASHSEED
_STDOUT_SHA256 = {
    "01_patch_theory.py": "2aa733b1e254e97f609c6e7ead0674c0670db11b7d534a92d4f879d53b3afb14",
    "02_merging_policies.py": "6eeeb78e5920931545c11d790b7a0f1650f602347d921ab7fd79c9c3436757da",
    "03_integrity_and_convergence.py":
        "005e91d520e14fe87fe03ad589367354eee77f57272c32698c73581925c4a566",
    "04_data_market.py": "4bcec860620e4e8a96631063f1c7271444656cffeff83cdfbaf21ac7e1ee8fd4",
    "05_fleet_scenarios.py": "a84158fc981241f2b33b4c513449b729a65b9eb047199a1d4502e3133a4c2c5a",
}


def test_demos_exist():
    assert [p.name for p in _DEMOS] == sorted(_STDOUT_SHA256)


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == _STDOUT_SHA256[demo.name], \
        proc.stdout.decode(errors="replace")
