"""The scripts under scripts/ run end to end from the repository root, and
the benchmark's tracer finds every function it wraps."""

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


def test_every_traced_function_resolves(monkeypatch):
    # the traced benchmark run wraps these functions by name; one that is
    # gone would drop its per-layer metrics
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("hgbench_tracing", os.path.join(ROOT, "hgbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up
    spec.loader.exec_module(tracing)
    for module in {m for m, _ in tracing.TARGETS} | {"sequence"}:
        importlib.import_module(f"{tracing.PACKAGE}.{module}")
    tracer = tracing.Tracer()
    tracer.resolve()
    assert tracer.missing == []
