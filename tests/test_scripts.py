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


def test_bench_records_digests_and_every_metric(tmp_path):
    # the tiny plans at seed 11: four digests, every metric BENCHMARK.json
    # names, end to end per workload and per layer, and the 256-bit row of
    # the enclosure kernels' timings
    import json

    out = tmp_path / "bench.json"
    proc = run_script("scripts/bench.py", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = {w["name"] for w in bench["workloads"]}
    assert record["seeds"] == [11]
    digests = record["cert_stream_sha256"]["11"]
    assert set(digests) == workloads
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    # the certificate streams of the smoke plans: a refactor leaves them
    # alone, and a deliberate certificate change updates these pins with
    # the golden corpus digest (test_certs_cli.py).  The near-tie and
    # deep-scan plans reach certificates the golden corpus never sees
    assert digests == {
        "corpus-unconditional": "b248b42f40ca534157bbca3408495b239f3c4d146675c1a8a74df4a081a232c1",
        "corpus-conditional": "ecee10627a6220e52fd1d65d1b051679a286e0c0d5f5e663bfee33e0ed4f218f",
        "near-tie": "4e10d0e35d9f113d1e586cb3ca4f0e7b2aefcdf1c81cc542360ae442b8d1032a",
        "deep-scan": "4ef3ea081a5033680d14774e9d1b54305c69c516296088c5cf1322d27015f2ff",
    }
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    assert {w: set(m) for w, m in record["end_to_end"]["11"].items()} == {w: e2e for w in workloads}
    assert {w: set(m) for w, m in record["per_layer"].items()} == {w: layer for w in workloads}
    kernels = {"pi_interval", "exp_interval", "sin_interval", "cos_interval"}
    assert {bits: set(row) for bits, row in record["kernels"].items()} == {"256": kernels}
    assert all(ms > 0 for ms in record["kernels"]["256"].values())
    assert record["python"] and record["cpu_count"] >= 1


def test_ab_compares_two_checkouts():
    # both sides the repository itself: one pair of smoke runs of one workload
    out = run_script("scripts/ab.py", ROOT, ROOT, "--workload", "deep-scan", "--pairs", "1", "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "pair 1: A decide_s" in out.stdout
    for name in ("decide_s", "verify_s", "setup_s", "peak_rss_mb", "decided_frac"):
        assert f"  {name} " in out.stdout
    assert "certificate streams: identical" in out.stdout


def test_ab_runs_each_benchmark_on_an_empty_bytecode_cache(monkeypatch):
    # a checkout's leftover __pycache__ must not reach the import it times:
    # each run reads bytecode from its own fresh, empty prefix and writes none
    import argparse
    import importlib.util
    import json

    spec = importlib.util.spec_from_file_location("ab_script", os.path.join(ROOT, "scripts", "ab.py"))
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    seen = []

    def fake_run(cmd, **kwargs):
        env = kwargs["env"]
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((prefix, os.path.isdir(prefix) and os.listdir(prefix), env["PYTHONDONTWRITEBYTECODE"]))
        result = {"correct": True, "metrics": {"decide_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    args = argparse.Namespace(workload="deep-scan", seed=1, smoke=True)
    for _ in range(2):
        assert ab.run_once(ROOT, args) == ({"decide_s": 1.0}, "")
    assert [(listing, flag) for _, listing, flag in seen] == [([], "1"), ([], "1")]
    prefixes = [prefix for prefix, _, _ in seen]
    assert prefixes[0] != prefixes[1] and not any(os.path.exists(p) for p in prefixes)
    assert not any(p.startswith(ROOT) for p in prefixes)
