import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import run

BENCH = Path(__file__).resolve().parent.parent
DEFINITION = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_definition_lists_the_metrics_the_driver_prints():
    assert {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DEFINITION["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in DEFINITION["workloads"]] == list(inputs.WORKLOADS)


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
