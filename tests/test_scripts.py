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


def load_script(name: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location(f"{name}_script", os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_package_imports_at_module_top_without_a_cycle():
    # every import runs when its module loads, and the intra-package
    # `from .x import` edges form no cycle, so any module can load first
    import ast
    import glob

    nested, edges = set(), {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hgdecide", "*.py"))):
        name = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{name}:{node.lineno}" for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
                }
        edges[name] = {
            target.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module] if node.module else [alias.name for alias in node.names])
        }
    assert sorted(nested) == []
    # strip modules that import no remaining module until none is left
    graph = {name: deps & edges.keys() for name, deps in edges.items()}
    while leaves := {name for name, deps in graph.items() if not deps}:
        graph = {name: deps - leaves for name, deps in graph.items() if name not in leaves}
    assert graph == {}


def test_every_cache_is_bounded():
    # every functools.lru_cache in the package is called with a finite
    # maxsize, an integer literal or a module constant bound to one, and
    # functools.cache, which never evicts, is not used at all
    import ast
    import glob

    bounded, unbounded = [], []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hgdecide", "*.py"))):
        name = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        constants = {
            target.id: node.value.value
            for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets if isinstance(target, ast.Name)
        }

        def size(node):
            value = constants.get(node.id) if isinstance(node, ast.Name) else getattr(node, "value", None)
            return value if type(value) is int and value > 0 else None

        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [f"{name}:{node.lineno} imports cache" for a in node.names if a.name == "cache"]
            if isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", "") == "functools":
                unbounded.append(f"{name}:{node.lineno} functools.cache")
            if getattr(node, "id", getattr(node, "attr", None)) != "lru_cache":
                continue
            call = calls.get(id(node))
            args = call and ([kw.value for kw in call.keywords if kw.arg == "maxsize"] or call.args[:1])
            if args and size(args[0]):
                bounded.append(f"{name}:{node.lineno}")
            else:
                unbounded.append(f"{name}:{node.lineno} lru_cache without a positive finite maxsize")
    assert unbounded == []
    assert len(bounded) == 12, bounded


def test_only_gammacanon_builds_a_canonical_constant():
    # `canonicalize` is the one construction of a CanonicalConstant (its
    # `scale` copies one), and verify rebuilds every equality record
    # through `equality.limit_oracle`, so no other module calls the
    # constructor and `certs` imports nothing from `gammacanon`, `schanuel`
    # or `recognize`
    import ast
    import glob

    builders, certs_imports = [], set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hgdecide", "*.py"))):
        name = os.path.basename(path)[:-3]
        with open(path) as fh:
            source = fh.read()
        if "CanonicalConstant(" in source:
            builders.append(name)
        if name == "certs":
            certs_imports = {
                target
                for node in ast.walk(ast.parse(source, path)) if isinstance(node, (ast.Import, ast.ImportFrom))
                for target in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            }
    assert builders == ["gammacanon"]
    assert "equality" in certs_imports
    assert not [t for t in certs_imports for m in ("gammacanon", "schanuel", "recognize") if m in t]


def test_reasons_are_declared_once():
    # `verdicts` declares the reasons, the justification each reason's
    # bound carries, the verdict names, the equality rationales and the
    # conditional label; `sequence` and `equality` write them as members
    # and `certs` reads the members: none of the three holds a string
    # literal equal to one of them (docstrings aside; comments never reach
    # the syntax tree).  "unconditional" is also a document mode, so it is
    # left out.  Conditionality is derived, so `equality` never names it.
    import ast

    from hgdecide.verdicts import Conditionality, Justification, Rationale, Reason, VerdictName

    values = {member.value for enum in (Reason, Justification, VerdictName, Rationale) for member in enum}
    values.add(Conditionality.CONDITIONAL_ON_SCHANUEL.value)
    found = []
    for name in ("sequence", "equality", "certs"):
        path = os.path.join(ROOT, "src", "hgdecide", f"{name}.py")
        with open(path) as fh:
            source = fh.read()
        assert name != "equality" or "Conditionality" not in source
        tree = ast.parse(source, path)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
        }
        found += [
            f"{name}:{node.lineno} {node.value}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in values and id(node) not in docstrings
        ]
    assert len(values) == 15 + 3 + 4 + 5 + 1 and found == []


def test_bench_records_digests_and_every_metric(tmp_path):
    # the tiny plans at seed 11: four digests, every metric BENCHMARK.json
    # names, end to end per workload and per layer, the 256-bit row of
    # the enclosure kernels' timings, the scan's at depth 10^4 and the
    # cold calls on the smoke corpus-unconditional and corpus-conditional plans
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
        "corpus-unconditional": "48d7ae1f0b99bbabc39f5f11f146d95250172baa61674c4f9aeaf1ce263ab285",
        "corpus-conditional": "f653314611d28dec44163bfe3b3b91eedcbcdebe22361cf86e876c22f0f1f8e7",
        "near-tie": "2f1f882871b47b8fda56ebc747e2451296f6b8c36c5c7bbdab08c5971c30050f",
        "deep-scan": "7f18f99fe7e8fc745574d36f77978ec69664e5663c52a2b39d9edb6b51581530",
    }
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    assert {w: set(m) for w, m in record["end_to_end"]["11"].items()} == {w: e2e for w in workloads}
    assert {w: set(m) for w, m in record["per_layer"].items()} == {w: layer for w in workloads}
    kernels = {"pi_interval", "exp_interval", "sin_interval", "cos_interval"}
    assert {bits: set(row) for bits, row in record["kernels"].items()} == {"256": kernels}
    assert all(ms > 0 for ms in record["kernels"]["256"].values())
    # the scan table: ns per index of jump and first_hit at depth 10^4
    assert len(record["scan"]) == 3
    for row in record["scan"].values():
        assert set(row) == {"jump", "first_hit"}
        assert all(set(by_depth) == {"10000"} and min(by_depth.values()) > 0 for by_depth in row.values())
    # the cold table: decide and verify summed over each plan, each call
    # with every per-pair cache cleared first, on the plan with no limit
    # oracle to build and on the plan that builds them
    cold = record["cold"]
    assert set(cold) == {"corpus-unconditional", "corpus-conditional"}
    for row in cold.values():
        assert set(row) == {"calls", "decide_ms", "verify_ms"} and row["calls"] > 0
        assert row["decide_ms"] > 0 and row["verify_ms"] > 0
    assert record["python"] and record["cpu_count"] >= 1


def test_ab_compares_two_checkouts():
    # both sides the repository itself: one pair of smoke runs of one workload
    out = run_script("scripts/ab.py", ROOT, ROOT, "--workload", "deep-scan", "--pairs", "1", "--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "pair 1: A decide_s" in out.stdout
    for name in ("decide_s", "verify_s", "setup_s", "peak_rss_mb", "decided_frac"):
        assert f"  {name} " in out.stdout
    assert "certificate streams: identical" in out.stdout


def test_ab_labels_a_difference_within_either_sides_spread_unresolved():
    # a 5-pair deep-scan set read decide_s 0.0352 -> 0.0396 s with A's IQR
    # 0.0005 s, while a 10-pair rerun of the same code read 0.0369 -> 0.0366
    # s: B's spread covers the first difference, A's the second
    summary = load_script("ab").summary
    a = [0.0348, 0.0350, 0.0352, 0.0355, 0.0360]
    b = [0.0340, 0.0350, 0.0396, 0.0420, 0.0450]
    s = summary(a, b, "lower")
    assert s["median"] == (0.0352, 0.0396) and s["min"] == (0.0348, 0.0340) and s["lower"] == 1
    assert round(s["iqr"][0], 6) == 0.0005 and round(s["iqr"][1], 6) == 0.0070
    assert s["label"] == "unresolved"
    rerun_a = [0.0335, 0.0340, 0.0348, 0.0352, 0.0366, 0.0372, 0.0374, 0.0378, 0.0385, 0.0390]
    rerun_b = [0.0350, 0.0358, 0.0362, 0.0364, 0.0365, 0.0367, 0.0369, 0.0371, 0.0373, 0.0375]
    s = summary(rerun_a, rerun_b, "lower")
    assert (round(s["median"][0], 6), round(s["median"][1], 6)) == (0.0369, 0.0366)
    assert round(s["iqr"][0], 6) == 0.0028
    assert s["label"] == "unresolved"
    # a shift past both spreads is resolved, in the metric's own direction
    assert summary(a, [x + 0.01 for x in a], "lower")["label"] == "B worse"
    assert summary(a, [x + 0.01 for x in a], "higher")["label"] == "B better"
    assert summary(a, [x - 0.01 for x in a], "lower")["label"] == "B better"


def test_ab_runs_each_benchmark_on_one_stdlib_bytecode_prefix(monkeypatch, tmp_path):
    # neither a checkout's leftover __pycache__ nor the compilation of the
    # standard library may reach the import a run times: every run, on both
    # sides, reads the one prefix that holds the standard library's
    # bytecode and nothing of either checkout, and writes nothing to it
    import argparse
    import json
    import shutil
    import sysconfig

    ab = load_script("ab")
    prefix = str(tmp_path / "prefix")
    ab.fill_stdlib_bytecode(prefix)

    def listing():
        return sorted(os.path.join(d, f) for d, _, files in os.walk(prefix) for f in files)

    def under(path, root):
        return path.startswith(os.path.join(prefix, root.lstrip(os.sep)) + os.sep)

    stdlib = sysconfig.get_paths()["stdlib"]
    filled = listing()
    assert os.path.join(prefix, stdlib.lstrip(os.sep), "json", f"__init__.{sys.implementation.cache_tag}.pyc") in filled
    assert all(under(path, stdlib) for path in filled)

    other = tmp_path / "other"
    shutil.copytree(os.path.join(ROOT, "src"), other / "src")
    checkouts = [ROOT, str(other)]
    real_run = subprocess.run
    seen = []

    def fake_run(cmd, **kwargs):
        # import the engine as the run would, from the checkout's source
        env = kwargs["env"]
        seen.append((env["PYTHONPYCACHEPREFIX"], env["PYTHONDONTWRITEBYTECODE"]))
        src = os.path.join(kwargs["cwd"], "src")
        code = f"import hgdecide.cli; assert hgdecide.cli.__file__.startswith({src!r})"
        real_run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src}, check=True)
        result = {"correct": True, "metrics": {"decide_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    args = argparse.Namespace(workload="deep-scan", seed=1, smoke=True)
    for checkout in checkouts:
        assert ab.run_once(checkout, args, prefix) == ({"decide_s": 1.0}, "")
    assert seen == [(prefix, "1")] * 2
    assert listing() == filled
    assert not any(under(path, checkout) for path in filled for checkout in checkouts)
