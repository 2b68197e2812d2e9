#!/usr/bin/env python3
"""Compare two checkouts on one hgbench workload in alternating pairs.

    python3 scripts/ab.py ../parent . --workload deep-scan --seed 1 --pairs 10
    python3 scripts/ab.py . . --workload deep-scan --pairs 1 --smoke

Pair k runs `python3 DIR/hgbench/run.py --workload W --seed S` once in each
checkout, A first in odd pairs and B first in even ones, so that neither
side always runs second on a warmed host.  A is the baseline and B the
change.  For every end-to-end metric BENCHMARK.json names, it prints both
sides' median, interquartile distance (IQR) and minimum, in how many pairs
B read lower than A, and a label: `unresolved` when the medians differ by
no more than the larger IQR, else `B better` or `B worse`.  Last it says
whether the two certificate streams are the same.
Every run reads bytecode from one prefix (PYTHONPYCACHEPREFIX, with
PYTHONDONTWRITEBYTECODE=1) that holds the standard library's, compiled
once per invocation, and nothing else: both sides compile the checkout
from source as two fresh clones do, whatever `__pycache__` a checkout
holds, and no run times the compilation of the standard library or
writes anything.  Exits 1 when a run fails or reports a wrong verdict.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import sysconfig
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = re.compile(r"^\s+cert_stream_sha256 ([0-9a-f]{64})", re.M)
# standard-library directories no benchmark imports (and lib2to3's test
# data does not compile)
STDLIB_SKIP = r"/(test|idlelib|lib2to3|tkinter|ensurepip|site-packages)/"


def fill_stdlib_bytecode(prefix: str) -> None:
    """Compile the standard library's bytecode into the prefix `prefix`."""
    subprocess.run([sys.executable, "-X", f"pycache_prefix={prefix}", "-m", "compileall", "-q",
                    "-j", "2", "-x", STDLIB_SKIP, sysconfig.get_paths()["stdlib"]], check=True)


def run_once(checkout: str, args, prefix: str) -> tuple[dict, str]:
    """(metrics, digest) of one hgbench run in `checkout`, reading bytecode
    from `prefix` and writing none."""
    cmd = [sys.executable, os.path.join(checkout, "hgbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=checkout,
                          capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    digest = DIGEST.search(proc.stdout)
    return {k: v["value"] for k, v in result["metrics"].items()}, digest.group(1) if digest else ""


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(a: list[float], b: list[float], better: str) -> dict:
    """Both sides' median, IQR and minimum for one metric, the pairs in
    which B read lower, and the label of the difference."""
    out = {"median": (statistics.median(a), statistics.median(b)), "iqr": (iqr(a), iqr(b)),
           "min": (min(a), min(b)), "lower": sum(y < x for x, y in zip(a, b))}
    (med_a, med_b), spread = out["median"], max(out["iqr"])
    if abs(med_b - med_a) <= spread:
        out["label"] = "unresolved"
    else:
        out["label"] = "B better" if (med_b < med_a) == (better == "lower") else "B worse"
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="baseline checkout")
    ap.add_argument("b", help="checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--smoke", action="store_true", help="hgbench's tiny plans")
    args = ap.parse_args()
    dirs = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    with open(os.path.join(dirs["A"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as prefix:
        fill_stdlib_bytecode(prefix)
        for k in range(1, args.pairs + 1):
            for side in ("A", "B") if k % 2 else ("B", "A"):
                runs[side].append(run_once(dirs[side], args, prefix))
            print(f"pair {k}: " + ", ".join(
                f"{side} decide_s {runs[side][-1][0]['decide_s']:.4f}" for side in ("A", "B")), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, A = {dirs['A']}, B = {dirs['B']}")
    print(f"  {'metric':<16} {'A median':>10} {'B median':>10} {'A IQR':>8} {'B IQR':>8} {'A min':>10}"
          f" {'B min':>10}  B lower  label")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        s = summary([m[name] for m, _ in runs["A"]], [m[name] for m, _ in runs["B"]], metric["better"])
        print(f"  {name:<16} {s['median'][0]:10.4f} {s['median'][1]:10.4f} {s['iqr'][0]:8.4f} {s['iqr'][1]:8.4f}"
              f" {s['min'][0]:10.4f} {s['min'][1]:10.4f}  {s['lower']}/{args.pairs}  {s['label']}"
              f"  ({metric['better']} is better)")
    digests = {d for side in runs.values() for _, d in side}
    print("  certificate streams: " + ("identical" if len(digests) == 1 else f"{len(digests)} different"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
