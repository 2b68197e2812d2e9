#!/usr/bin/env python3
"""Record the benchmark in BENCH_<pr>.json.

    python3 scripts/bench.py --pr 26
    python3 scripts/bench.py --smoke --out /tmp/bench.json

Runs `hgbench/run.py --workload all` at seeds 11 and 53 for the end-to-end
metrics and the certificate-stream digests, then once more at seed 11 with
`--trace 1` for the per-layer metrics.  Each run's report is parsed: the
digest and the host's pace from every `workload ... trace 0:` block, the
metrics from its last line.  Metric names and units are BENCHMARK.json's.
The `kernels` table holds the enclosure kernels' cost in this process:
the least of 5 timed calls, in ms, of `pi_interval`, and of `exp_interval`,
`sin_interval` and `cos_interval` at 3 * 355/113, at 256, 1024, 4096 and
16384 bits.  Each call starts with the timed kernel's own cache cleared;
sin and cos find the pi of their angle reduction cached, as in a decision.
The `scan` table holds the exact scan's cost in this process, in ns per
index: the least of 5 calls of `ExactScan.jump(N)`, and of `first_hit(N)`
with u0 = -1 and Threshold t = -2|u_N| (no witness before N, so the
search skips towards t all the way), for N = 10^4 and 10^5 on three
growing pairs: p = x + 3, q = x + 4, which telescopes; p = 2x + 3,
q = 2x + 4 and p = x^2 + 1, q = x^2 + 2x + 3, which do not.
The `cold` table holds what decide and verify cost when a pair is met for
the first time: the seed-11 corpus-unconditional and corpus-conditional
plans (hgbench's own, at their 20-second size; the second is where limit
oracles are built), each document parsed and decided, and its
certificate verified, with every cache keyed by the pair or by one of
its polynomials cleared before each call (the record
`sequence.recurrence`, the limit oracle `equality._pair_oracle`, the
symmetry graph and the factor and root caches of `polys`); the sums over
each plan, in ms, the least of 5 passes.  hgbench verifies every
certificate right after deciding it, so none of its workloads meets a
pair cold at verify.
`--smoke` runs hgbench's tiny plans once, at seed 11 (both trace modes in
one run), times the kernels at 256 bits and the scans at 10^4 only, and
the cold calls on the smoke plans, to check the plumbing; its numbers are
no baseline.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (11, 53)
TRACE_SEED = 11

HEADER = re.compile(r"^workload (\S+) seed (\d+) trace (\d):")
DIGEST = re.compile(r"^\s+cert_stream_sha256 ([0-9a-f]{64})")
PACE = re.compile(r"the kernel ran ([0-9.]+)x its reference time")
KERNEL_BITS = (256, 1024, 4096, 16384)
KERNEL_REPEATS = 5
SCAN_DEPTHS = (10**4, 10**5)
SCAN_PAIRS = {
    "p = x + 3, q = x + 4": ((3, 1), (4, 1)),
    "p = 2x + 3, q = 2x + 4": ((3, 2), (4, 2)),
    "p = x^2 + 1, q = x^2 + 2x + 3": ((1, 0, 1), (3, 2, 1)),
}
COLD_PLANS = ("corpus-unconditional", "corpus-conditional")


def run_hgbench(seed: int, trace: int, smoke: bool) -> tuple[dict, dict, dict, bool]:
    """(digests, pace, metrics, correct) of one `--workload all` run: the
    trace-0 digest and kernel slowdown per workload, and every metric as
    {workload: {name: value}}."""
    cmd = [sys.executable, "hgbench/run.py", "--workload", "all", "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    digests, pace, block = {}, {}, None
    for line in lines[:-1]:
        head = HEADER.match(line)
        if head:
            block = head.group(1) if head.group(3) == "0" else None
            continue
        if block is None:
            continue
        found = DIGEST.match(line)
        if found:
            digests[block] = found.group(1)
        found = PACE.search(line)
        if found:
            pace[block] = float(found.group(1))
    merged = json.loads(lines[-1])
    metrics = {}
    for key, val in merged["metrics"].items():
        workload, name = key.split("/", 1)
        metrics.setdefault(workload, {})[name] = val["value"]
    return digests, pace, metrics, proc.returncode == 0 and merged["correct"]


def time_kernels(bits_list) -> dict:
    """{bits: {kernel: ms}}, the least of KERNEL_REPEATS calls each."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hgdecide import enclosure
    from hgdecide.dyadic import DyadicInterval

    table = {}
    for bits in bits_list:
        x = DyadicInterval.from_fraction(Fraction(3 * 355, 113), bits)
        row = {}
        for name in ("pi_interval", "exp_interval", "sin_interval", "cos_interval"):
            kernel = getattr(enclosure, name)
            args = (bits,) if name == "pi_interval" else (x, bits)
            best = float("inf")
            for _ in range(KERNEL_REPEATS):
                enclosure._cos_sin_point.cache_clear()  # sin and cos share it
                if name == "pi_interval":
                    enclosure.pi_interval.cache_clear()
                start = time.perf_counter()
                kernel(*args)
                best = min(best, time.perf_counter() - start)
            row[name] = round(1e3 * best, 4)
        table[str(bits)] = row
    return table


def time_scans(depths) -> dict:
    """{pair: {"jump" or "first_hit": {N: ns per index}}}, the least of
    KERNEL_REPEATS calls each, on one instance per pair and N."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hgdecide.polys import IntPoly
    from hgdecide.sequence import ExactScan, HGInstance, Problem

    table = {}
    for label, (p, q) in SCAN_PAIRS.items():
        row = table[label] = {"jump": {}, "first_hit": {}}
        for n in depths:
            scan = ExactScan(HGInstance(IntPoly(p), IntPoly(q), Fraction(-1), Fraction(0), Problem.THRESHOLD))
            scan.jump(n)
            t = -2 * Fraction(math.exp(scan.logabs))
            inst = HGInstance(IntPoly(p), IntPoly(q), Fraction(-1), t, Problem.THRESHOLD)
            for name in row:
                best = float("inf")
                for _ in range(KERNEL_REPEATS):
                    scan = ExactScan(inst, n)
                    start = time.perf_counter()
                    found = scan.jump(n) if name == "jump" else scan.first_hit(n)
                    best = min(best, time.perf_counter() - start)
                    if found is not None or scan.n != n:
                        raise SystemExit(f"{label}: {name}({n}) left the scan at {scan.n}, found {found}")
                row[name][str(n)] = round(1e9 * best / n, 2)
    return table


def time_cold(smoke: bool) -> dict:
    """{plan: {"calls", "decide_ms", "verify_ms"}}: the COLD_PLANS at seed
    TRACE_SEED, each call with every per-pair cache cleared first, summed
    per pass, the least of KERNEL_REPEATS passes."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "hgbench"))
    import workloads
    from hgdecide import certs, cli, corpus, equality, polys, recognize, sequence
    from hgdecide.config import DEFAULT_CONFIG
    from hgdecide.errors import DecideError

    # the caches keyed by a pair (p, q) or by one of its polynomials
    caches = (
        sequence.recurrence, equality._pair_oracle, recognize.build_symmetry_graph,
        polys.factor_monic, polys.integer_roots, polys._squarefree_part,
    )

    def clear():
        for cache in caches:
            cache.cache_clear()

    table = {}
    for workload in COLD_PLANS:
        plan = workloads.build_plan(workload, TRACE_SEED, 20.0, corpus, smoke=smoke)
        best_decide = best_verify = float("inf")
        for _ in range(KERNEL_REPEATS):
            decide_s = verify_s = 0.0
            for item in plan:
                clear()
                start = time.perf_counter()
                try:
                    cert = cli.decide_document(certs.parse_instance(item.doc), DEFAULT_CONFIG)
                except DecideError:
                    cert = None
                decide_s += time.perf_counter() - start
                if cert is None:
                    continue
                cert = json.loads(certs.serialize_certificate(cert))  # as hgbench replays it
                clear()
                start = time.perf_counter()
                failures = certs.verify_certificate(cert)
                verify_s += time.perf_counter() - start
                if failures:
                    raise SystemExit(f"cold verify failed on {item.doc}: {failures}")
            best_decide, best_verify = min(best_decide, decide_s), min(best_verify, verify_s)
        table[workload] = {
            "calls": len(plan), "decide_ms": round(1e3 * best_decide, 3), "verify_ms": round(1e3 * best_verify, 3),
        }
    return table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, help="writes BENCH_<pr>.json at the repository root")
    ap.add_argument("--out", help="output path (default BENCH_<pr>.json)")
    ap.add_argument("--smoke", action="store_true", help="tiny plans at seed 11 only")
    args = ap.parse_args()
    if args.out is None and args.pr is None:
        ap.error("give --pr or --out")
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    e2e_names = {m["name"] for m in bench["end_to_end"]}

    seeds = (TRACE_SEED,) if args.smoke else SEEDS
    record = {
        "pr": args.pr, "smoke": args.smoke, "seeds": list(seeds),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "cert_stream_sha256": {}, "pace_slowdown": {}, "end_to_end": {}, "per_layer": {},
        "per_layer_seed": TRACE_SEED, "units": units, "correct": True,
    }
    runs = [(seed, 0) for seed in seeds] + ([] if args.smoke else [(TRACE_SEED, 1)])
    for seed, trace in runs:
        digests, pace, metrics, correct = run_hgbench(seed, trace, args.smoke)
        record["correct"] &= correct
        if trace == 0:
            record["cert_stream_sha256"][str(seed)] = digests
            record["pace_slowdown"][str(seed)] = pace
        for workload, values in metrics.items():
            e2e = {k: v for k, v in values.items() if k in e2e_names}
            layer = {k: v for k, v in values.items() if k not in e2e_names}
            if e2e:
                record["end_to_end"].setdefault(str(seed), {})[workload] = e2e
            if layer:
                record["per_layer"][workload] = layer
    record["kernels"] = time_kernels(KERNEL_BITS[:1] if args.smoke else KERNEL_BITS)
    record["scan"] = time_scans(SCAN_DEPTHS[:1] if args.smoke else SCAN_DEPTHS)
    record["cold"] = time_cold(args.smoke)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for seed, digests in record["cert_stream_sha256"].items():
        print(f"seed {seed}: " + " / ".join(d[:8] for d in digests.values()))
    print(f"wrote {out}" + ("" if record["correct"] else " (some verdicts were wrong)"))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
