import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parents[1]


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    manifest = BENCH.parent / "BENCHMARK.json"
    if manifest.exists():
        shutil.copy(manifest, tmp_path)
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "audit-adult"]
    cmd += ["--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_verdicts():
    spec = {"better": "lower", "bound": 0.1, "unit": "s"}
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert "better" in run.verdict("wall_s", spec, base, [x * 0.8 for x in base])
    assert "worse" in run.verdict("wall_s", spec, base, [x * 1.3 for x in base])
    assert "within bound" in run.verdict("wall_s", spec, base, base[::-1])
    noisy = [5.0, 15.0] * 5
    assert "unresolved" in run.verdict("wall_s", spec, noisy, noisy[::-1])


def test_manifest_lists_the_reported_metrics():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(run.METRICS)
    plain = run.summarize([], [1.0], trace=False)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == [
        (name, m["unit"]) for name, m in plain.items()
    ]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
