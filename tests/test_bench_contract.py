"""perfbench's result line: a traced run ends in JSON with a finite figure for every layer."""

import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_traced_study_run_prints_every_per_layer_metric(tmp_path):
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
