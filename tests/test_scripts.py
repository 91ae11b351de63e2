"""The scripts under scripts/, run as a user runs them: in a fresh interpreter."""

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
