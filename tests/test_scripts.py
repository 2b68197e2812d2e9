"""The scripts under scripts/ run end to end from the repository root."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_run_corpus_cross_checks_real_quadratic():
    # every verdict against brute_force, every certificate replayed
    out = run_script(
        "scripts/run_corpus.py", "--family", "real-quadratic", "--count", "40", "--seed", "7"
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "40 instances" in out.stdout
    assert "0 oracle mismatches, 0 unverified certificates" in out.stdout


def test_reproduce_worked_example_verifies_every_certificate():
    out = run_script("scripts/reproduce_worked_example.py")
    assert out.returncode == 0, out.stdout + out.stderr
    verdicts = [line for line in out.stdout.splitlines() if "->" in line]
    assert len(verdicts) == 5
    assert all(line.endswith("verify=ok") for line in verdicts), out.stdout
