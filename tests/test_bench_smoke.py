"""A short run of every benchmark workload, untraced and traced.

Each run is `python3 bench/run.py --workload W --seed 7919 --seconds 0.5
--trace T`, as the benchmark itself starts it, so a change that breaks a
workload, its checks or a traced name fails here.  A traced run writes
`bench/out/spans-W-7919.tsv.gz`; the test deletes that file afterwards.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
SEED = 7919


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_runs_correctly(workload, trace):
    out_dir = REPO / "bench" / "out"
    spans = out_dir / f"spans-{workload}-{SEED}.tsv.gz"
    made_dir = not out_dir.exists()
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", "0.5", "--trace", str(trace)]
    try:
        run = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=300)
        wrote_spans = spans.exists()
    finally:
        if trace:
            spans.unlink(missing_ok=True)
            if made_dir and not any(out_dir.iterdir()):
                out_dir.rmdir()
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stderr
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert wrote_spans or not trace
