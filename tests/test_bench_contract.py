"""perfbench's result line: each run ends in JSON with a finite figure for every declared metric."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


# layers that a traced run's rounds must reach themselves, not only the
# sweep that fills in unloaded layers
ROUND_LAYERS = {
    "study": ("stats.two_way_anova_us_per_obs", "stats.mean_sem_us_per_value",
              "stats.f_upper_tail_us", "profiling.window_profile_us_per_sample"),
    # the columnar loaders and writers, still reached through ingest.load_session and save_session
    "convert": ("ingest.load_binary_us_per_frame", "ingest.load_csv_us_per_frame",
                "ingest.save_csv_us_per_frame", "ingest.save_binary_us_per_frame"),
}


@pytest.mark.parametrize("workload, trace, metrics", [
    ("study", 1, "per_layer"),
    ("convert", 1, "per_layer"),
    ("capture", 0, "end_to_end"),
    ("convert", 0, "end_to_end"),
], ids=["study-traced", "convert-traced", "capture", "convert"])
def test_run_ends_in_a_complete_result_line(tmp_path, workload, trace, metrics):
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((REPO / "BENCHMARK.json").read_text())[metrics]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
    if trace:
        rounds = json.loads((tmp_path / ".perfbench_run" / workload / "worker.json").read_text())
        for name in ROUND_LAYERS[workload]:
            value = rounds["layers"][name]
            assert isinstance(value, (int, float)) and math.isfinite(value), name
