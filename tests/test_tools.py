"""tools/ab_passes.py, run as a script the way a benchmark pair runs it."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_passes(parent, change, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_passes.py"), "--parent", str(parent),
         "--change", str(change), "--seed", "1", "--passes", "1", *args],
        capture_output=True, text=True, timeout=600)


def test_a_checkout_against_itself_agrees():
    proc = ab_passes(ROOT, ROOT, "--workload", "long-context")
    assert proc.returncode == 0, proc.stderr
    assert "long-context ouroboros seed 1: ratio" in proc.stdout
    assert "won 0/1 pairs" in proc.stdout or "won 1/1 pairs" in proc.stdout


def test_outputs_that_differ_exit_one(tmp_path):
    # a shorter default draft keeps the greedy tokens but changes the forwards
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engines = tmp_path / "src" / "ouroboros" / "engines.py"
    text = engines.read_text(encoding="utf-8")
    assert "    gamma: int = 5 " in text
    engines.write_text(text.replace("    gamma: int = 5 ", "    gamma: int = 4 "),
                       encoding="utf-8")
    proc = ab_passes(ROOT, tmp_path, "--workload", "long-context",
                     "--engine", "speculative")
    assert proc.returncode == 1
    assert proc.stderr == "ab_passes: the two sides' outputs differ\n"
