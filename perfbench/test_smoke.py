"""Smoke test of the benchmark: every workload's code path at a 16x16 geometry.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload must exercise; full_build must not train.
EXERCISED = {
    "desk_pipeline": ("training.step_p50_ms", "net.backbone.0.fwd_ms", "net.backbone.0.bwd_ms",
                      "net.backbone.0.infer_ms", "baseline.regressor_ms",
                      "metrics.loss_pass_ms", "features.local_extrema_ms",
                      "checkpoint.save_ms", "assessment.assess_us_per_sample"),
    "full_build": ("threats.generate_sample_ms", "ofdm.qam_demodulate_ms",
                   "features.local_extrema_ms", "dataset.load_arrays_ms",
                   "dataset.bytes_per_sample"),
    "full_train": ("training.step_p50_ms", "net.conv_mflop_per_sample",
                   "net.activation_mb_per_sample", "stage.assess_samples_per_s"),
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXERCISED))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_metric_with_its_unit(workload, trace, kind):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values())
    else:
        assert all(values[name] > 0 for name in EXERCISED[workload])
    if workload == "full_build" and trace == 1:
        assert values["training.step_p50_ms"] == 0


def copy_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_reference_digest_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["sha256"]["tiny"] = "0" * 64
    path.write_text(json.dumps(reference))
    done = run("full_build", 0, cwd=tmp_path)
    assert done.returncode != 0
    result = result_of(done)
    assert not result["correct"] and result["failed"] >= 1
    assert "golden tiny set" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    done = run("desk_pipeline", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
