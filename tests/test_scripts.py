"""The scripts under scripts/, run as a user runs them: in a fresh interpreter."""

import json
import os
import subprocess
import sys

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_script(repo_root, name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(repo_root / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )


def test_run_comparison_small_survey(repo_root):
    result = _run_script(
        repo_root, "run_comparison.py", "--times", "4", "--votes", "2", "--multistarts", "2"
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "synthesized 192 records" in out
    assert "factorized fit: cost=" in out and "baseline fit:   cost=" in out
    assert "Factorized" in out and "Non-factorized" in out
    assert "Functions needed as the vocabulary grows:" in out


def test_write_reference_model_reproduces_committed_file(repo_root, tmp_path):
    out = tmp_path / "reference_model.json"
    result = _run_script(repo_root, "write_reference_model.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (repo_root / "reference_model.json").read_bytes()


def test_bench_writes_medians_and_quartiles(repo_root, tmp_path):
    result = _run_script(
        repo_root, "bench.py", "--pr", "0", "--seeds", "1", "--seconds", "1",
        "--workload", "model-queries", "--out-dir", str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert set(doc) == {"command", "seconds", "seeds", "cores", "python", "numpy", "workloads"}
    assert doc["seeds"] == [1] and doc["seconds"] == 1.0
    spec = json.loads((repo_root / "BENCHMARK.json").read_text())
    metrics = doc["workloads"]["model-queries"]
    assert set(metrics) == {"end_to_end", "per_layer"}
    assert set(metrics["end_to_end"]) == {metric["name"] for metric in spec["end_to_end"]}
    assert set(metrics["per_layer"]) == {metric["name"] for metric in spec["per_layer"]}
    for summary in (*metrics["end_to_end"].values(), *metrics["per_layer"].values()):
        assert set(summary) == {"median", "q1", "q3", "n", "unit"}
        assert summary["n"] == 1 and summary["q1"] == summary["median"] == summary["q3"]
