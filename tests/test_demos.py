"""Every demo script runs clean from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "demo produced no output"


def test_benchmark_audit_demo_reads_a_present_csv(tmp_path):
    # a Taiwan-credit-shaped stand-in for the prepared CSV of data/README.md
    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    gen.write_taiwan(tmp_path / "taiwan_credit.csv", 1, n=600)
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / "06_benchmark_audit.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "FAIRDEP_DATA_DIR": str(tmp_path)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("=== taiwan_credit: n=600 "), result.stdout
    assert "sensitive features: " in result.stdout
