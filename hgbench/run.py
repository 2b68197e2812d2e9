"""hgdecide benchmark: decide and replay-verify seeded workloads.

    python3 hgbench/run.py --workload near-tie --seed 7 --seconds 20 --trace 0
    python3 hgbench/run.py --workload all --seed 7 --seconds 20
    python3 hgbench/run.py --smoke

Each workload runs in its own process as a closed loop: one caller decides
one instance at a time with `cli.decide_document`, waits for the
certificate, then replay-verifies it with `certs.verify_certificate`.  Every
verdict is checked against an independent reference (reference.py, or the
construction itself for deep scans) outside the timed region.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones (tracing.py).  Every instance is decided
and verified workloads.REPEATS times, in rounds over the whole plan, and
its time is the mean of its rounds; `--seconds` sets the plan size
(workloads.py).  Times are reported at the reference pace of the host
(pace.py); the human-readable report also gives them as measured.  The
engine is imported from `src/` next to this directory.  Spans, the
certificate-stream digest and a full result record go to `.hgbench-out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".hgbench-out")

import pace  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# a run stops starting instances after this many seconds, and no alarm
# reaches past the hard deadline, so every run ends well inside 180 s
RUN_DEADLINE_S = 140.0
HARD_DEADLINE_S = 165.0
TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 60.0, 55.0, 50.0)

UNDECIDED = ("resource", "internal", "unsupported", "budget")

END_TO_END_UNITS = {
    "decide_s": "s",
    "decide_ms_p50": "ms",
    "decide_ms_tail": "ms",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_frac": "frac",
}


class BudgetExpired(BaseException):
    """Raised by SIGALRM when a decide or verify call outlives its budget.

    A BaseException, so no `except Exception` in the engine swallows it."""


def _on_alarm(signum, frame):
    raise BudgetExpired()


@contextmanager
def budget(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure_setup(samples: int) -> float:
    """Median time to import hgdecide.cli in a fresh interpreter.  It is
    reported as measured: over runs of one seed it moved with less than a
    fifth of the power of the pace kernel's slowdown, so scaling it by the
    pace would add more noise than it removes."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hgdecide.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code, SRC], cwd=ROOT, capture_output=True, text=True, check=True
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least 10 samples beyond it."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, statistics.quantiles(samples, n=1000, method="inclusive")[round(pct * 10) - 1]
    return None


def classify_error(exc, errors) -> str:
    if isinstance(exc, BudgetExpired):
        return "budget"
    if isinstance(exc, (errors.PrecisionExceeded, errors.ScanCapExceeded)):
        return "resource"
    if isinstance(exc, errors.UnsupportedInstance):
        return "unsupported"
    return "internal"


def check_verdict(item, cert: dict, expected) -> str | None:
    """Why the certificate disagrees with the reference, or None."""
    result = cert["verdict"] in ("member", "holds")
    if result != expected.result:
        return f"verdict {cert['verdict']}, reference says {'yes' if expected.result else 'no'}"
    if expected.index is not None and cert.get("witness") != expected.index:
        return f"witness {cert.get('witness')}, reference index {expected.index}"
    if item.bound is not None and (cert.get("bound") or {}).get("n") != item.bound:
        return f"bound {cert.get('bound')}, construction bound {item.bound}"
    return None


@dataclass
class Record:
    """What the loop learned about one plan item."""

    kind: str | None = None  # "verdict" or an UNDECIDED kind, from round 0
    cert: dict | None = None
    text: str | None = None  # serialized certificate, timing_ms stripped
    failures: list | None = None  # replay failures from round 0
    decide_ms: list = field(default_factory=list)  # (ms as measured, perf_counter midpoint) until scaled
    verify_ms: list = field(default_factory=list)
    traced_ms: tuple | float | None = None
    problem: str | None = None  # why it counts as wrong


def run_workload(args) -> int:
    started = time.perf_counter()
    setup_s = measure_setup(3 if args.smoke else SETUP_SAMPLES)
    clock = pace.Pace()
    exponent = workloads.PACE_EXPONENT[args.workload]

    sys.path.insert(0, SRC)
    from hgdecide import certs, cli, corpus, errors
    from hgdecide.config import EngineConfig

    config = EngineConfig()
    if args.workload == "near-tie":
        config = EngineConfig(scan_cap=workloads.NEAR_TIE_SCAN_CAP)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.resolve()
        tracer.install()
    try:
        plan = workloads.build_plan(args.workload, args.seed, args.seconds, corpus, smoke=args.smoke)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.take_scans()

    planned = time.perf_counter()
    # reference verdicts, outside every timed region
    expected = []
    for item in plan:
        try:
            expected.append(item.expect or reference.expected_verdict(item.doc, item.bits, item.hunt))
        except reference.Undetermined as e:
            expected.append(e)

    checked = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    per_call = workloads.BUDGET_SECONDS[args.workload]
    # a traced run needs an untraced round to fill caches, the traced one,
    # and an untraced one to compare it with
    repeats = max(workloads.REPEATS[args.workload], 3 if tracer else 1)
    records = [Record() for _ in plan]
    counters = dict(
        scan_steps=0, decide_scan_steps=0, decide_scan_index=0, stress_instances=0,
        stress_useful=0, traced_decide_s=0.0, untraced_decide_s=0.0,
    )
    # every instance is decided and verified `repeats` times, in rounds over
    # the whole plan; with --trace 1 the second round is the traced one
    loop_started = time.perf_counter()
    for rnd in range(repeats):
        for i, item in enumerate(plan):
            rec = records[i]
            now = time.perf_counter() - started
            if now > RUN_DEADLINE_S:
                rec.kind = rec.kind or "budget"
                continue
            if rnd > 0 and rec.kind == "budget":
                continue
            traced = tracer is not None and rnd == 1
            if traced:
                tracer.instance = i
                first_span = len(tracer.spans)
                tracer.install()
            try:
                one_round(rec, rnd, item, args.workload, certs, cli, errors, config,
                          min(per_call, HARD_DEADLINE_S - now), started, tracer if traced else None, counters, clock)
                if traced:
                    stress = sum(1 for s in tracer.spans[first_span:] if s[0] == "schanuel.stress_check_identity")
                    if stress:
                        counters["stress_instances"] += 1
                        counters["stress_useful"] += bool(rec.cert and rec.cert.get("equality_rationale"))
            finally:
                if traced:
                    tracer.uninstall()
    clock.sample()
    loop_ended = time.perf_counter()
    loop_slowdown = clock.slowdown(loop_started, loop_ended)
    raw_decide_s = sum(statistics.fmean(ms for ms, _ in r.decide_ms) for r in records if r.decide_ms) / 1000.0
    measured = [[item.label, rec.decide_ms, rec.verify_ms] for item, rec in zip(plan, records)]
    for rec in records:
        if rec.traced_ms is not None:
            rec.traced_ms = clock.scale(*rec.traced_ms, exponent)
        rec.decide_ms = [clock.scale(ms, at, exponent) for ms, at in rec.decide_ms]
        rec.verify_ms = [clock.scale(ms, at, exponent) for ms, at in rec.verify_ms]
    if tracer is not None:
        for rec in records:
            # the traced round against the untraced one after it: both run
            # with the caches round 0 filled
            if rec.traced_ms is not None and len(rec.decide_ms) == repeats - 1:
                counters["traced_decide_s"] += rec.traced_ms / 1000.0
                counters["untraced_decide_s"] += rec.decide_ms[-1] / 1000.0

    digest = hashlib.sha256()
    wrong = []
    for item, rec, ref in zip(plan, records, expected):
        if rec.kind != "verdict":
            digest.update(f"undecided {rec.kind}\n".encode())
            continue
        digest.update(rec.text.encode())
        if rec.problem is None:
            if isinstance(ref, reference.Undetermined):
                rec.problem = f"reference undetermined: {ref}"
            elif rec.failures:
                rec.problem = "; ".join(rec.failures)
            else:
                rec.problem = check_verdict(item, rec.cert, ref)
        if rec.problem:
            wrong.append((item, rec))

    attempted = len(plan)
    outcomes = {k: sum(1 for r in records if r.kind == k) for k in ("verdict",) + UNDECIDED}
    undecided = attempted - outcomes["verdict"]
    decide_ms = [statistics.fmean(r.decide_ms) for r in records if r.decide_ms]
    verify_ms = [statistics.fmean(r.verify_ms) for r in records if r.verify_ms]
    e2e = {
        "decide_s": sum(decide_ms) / 1000.0,
        "decide_ms_p50": statistics.median(decide_ms) if decide_ms else 0.0,
        "verify_s": sum(verify_ms) / 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_frac": outcomes["verdict"] / attempted,
    }
    tail = tail_percentile(decide_ms)
    if tail is not None:
        e2e["decide_ms_tail"] = tail[1]

    for item, rec in wrong:
        print(f"MISMATCH [{item.label}] {rec.problem}")
        print(f"  instance: {json.dumps(item.doc, sort_keys=True)}")
        print(f"  engine: verdict={rec.cert['verdict']} witness={rec.cert.get('witness')} reason={rec.cert.get('reason')}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} instances, "
          f"each decided and verified {repeats} times" + ("; per-instance times are the mean of those"
                                                           if repeats > 1 else ""))
    print(f"  decide and verify times are at the reference pace (pace.py, exponent {exponent:g}); the kernel "
          f"ran {loop_slowdown:.3f}x its reference time over the loop; decide_s as measured {raw_decide_s:.4f} s")
    print(f"  wall: setup and plan {planned - started:.1f} s, reference {checked - planned:.1f} s, "
          f"loop {loop_ended - loop_started:.1f} s")
    strata = {}
    for item, rec in zip(plan, records):
        strata.setdefault(item.label, []).append(statistics.fmean(rec.decide_ms) if rec.decide_ms else float("nan"))
    print("  strata (count, median decide ms): "
          + ", ".join(f"{k} x{len(v)} {statistics.median(v):.1f}" for k, v in strata.items()))
    for name in ("decide_s", "decide_ms_p50", "decide_ms_tail", "verify_s"):
        if name in e2e:
            print(f"  {name:<16} {e2e[name]:12.4f} {END_TO_END_UNITS[name]}")
        else:
            print(f"  {name:<16} {'omitted':>12}    (fewer than 20 samples)")
    if tail is not None:
        print(f"    decide_ms_tail is p{tail[0]:g} of {len(decide_ms)} samples")
    print(f"  {'wrong_frac':<16} {len(wrong) / attempted:12.4f} frac  ({len(wrong)} wrong of {attempted})")
    kinds = ", ".join(f"{k} {outcomes[k]}" for k in UNDECIDED)
    print(f"  {'undecided_frac':<16} {undecided / attempted:12.4f} frac  ({kinds})")
    for name in ("setup_s", "peak_rss_mb", "decided_frac"):
        print(f"  {name:<16} {e2e[name]:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  cert_stream_sha256 {digest.hexdigest()}  (timing_ms stripped)")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        metrics_raw, missing = tracing.layer_metrics(tracer, counters)
        for name in missing:
            print(f"  per-layer metric {name}: missing (wrapped function not found)")
        by_module = tracing.self_time_by_module(tracer)
        print("  self time by module: " + ", ".join(
            f"{m} {t:.3f}s" for m, t in sorted(by_module.items(), key=lambda kv: -kv[1])))
        print(f"  exact scan steps {metrics_raw.get('sequence.exactscan.steps', 0)}, "
              f"trace overhead {metrics_raw['trace.overhead_frac']:+.3f}")
        tracer.write(stem + ".spans.jsonl")
        units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics_raw.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    with open(stem + ".json", "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "attempted": attempted, "outcomes": outcomes, "wrong": len(wrong),
            "wrong_frac": len(wrong) / attempted, "undecided_frac": undecided / attempted,
            "tail_percentile": tail[0] if tail else None, "samples": len(decide_ms),
            "cert_stream_sha256": digest.hexdigest(), "metrics": metrics,
            "pace_exponent": exponent, "loop_slowdown": loop_slowdown, "decide_s_as_measured": raw_decide_s,
            "pace_samples": [[t - started, k] for t, k in zip(clock.times, clock.kernel_s)],
            "instances": [[item.label] + [statistics.fmean(ms) if ms else None for ms in (rec.decide_ms, rec.verify_ms)]
                          for item, rec in zip(plan, records)],
            "measured": [[label, [[ms, at - started] for ms, at in dec], [[ms, at - started] for ms, at in ver]]
                         for label, dec, ver in measured],
        }, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(wrong), "metrics": metrics}))
    return 1 if wrong else 0


def one_round(rec, rnd, item, workload, certs, cli, errors, config, call_budget, started, tracer, counters,
              clock) -> None:
    """Decide and verify one instance once, recording into `rec`."""
    cert = None
    clock.tick()
    t0 = time.perf_counter()
    try:
        docin = certs.parse_instance(item.doc)
        t0 = time.perf_counter()
        with budget(call_budget):
            cert = cli.decide_document(docin, config)
        kind = "verdict"
    except (Exception, BudgetExpired) as e:
        kind = classify_error(e, errors)
    t1 = time.perf_counter()
    dt = ((t1 - t0) * 1000.0, (t0 + t1) / 2.0)
    if tracer is not None:
        rec.traced_ms = dt
        steps, top = tracer.take_scans()
        counters["scan_steps"] += steps
        counters["decide_scan_steps"] += steps
        counters["decide_scan_index"] += top
    else:
        rec.decide_ms.append(dt)
    if rnd == 0:
        rec.kind = kind
    if cert is None:
        # a later round that runs out of time is the host's doing; any other
        # change of outcome between rounds is a defect
        if kind not in (rec.kind, "budget") and rec.problem is None:
            rec.problem = f"round {rnd} ended {kind}, round 0 ended {rec.kind}"
        return
    cert.pop("timing_ms", None)
    text = certs.serialize_certificate(cert)
    if rnd == 0:
        rec.cert, rec.text = cert, text
    elif text != rec.text and rec.problem is None:
        rec.problem = f"certificate of round {rnd} differs from round 0"
    # short replays are verified several times back to back, each from its
    # own parsed copy, and timed as their mean (the traced round once)
    replays = [json.loads(text) for _ in range(1 if tracer else workloads.VERIFY_REPEATS[workload])]
    clock.tick()
    t0 = time.perf_counter()
    try:
        with budget(min(call_budget, HARD_DEADLINE_S - (time.perf_counter() - started))):
            for replay in replays:
                failures = certs.verify_certificate(replay, config)
    except BudgetExpired:
        if rnd == 0:
            rec.kind = "budget"
        return
    except Exception as e:  # a crash in replay is a failed verification
        failures = [f"verify raised {type(e).__name__}: {e}"]
    if tracer is not None:
        counters["scan_steps"] += tracer.take_scans()[0]
    else:
        t1 = time.perf_counter()
        rec.verify_ms.append(((t1 - t0) * 1000.0 / len(replays), (t0 + t1) / 2.0))
    if rnd == 0:
        rec.failures = failures


def run_all(args) -> int:
    """Every workload, each in its own process, passing its report through;
    the last line merges their results."""
    status, results = 0, {}
    for name in workloads.WORKLOADS:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} (trace {trace}) exited {proc.returncode}")
                status = 1
                continue
            results[(name, trace)] = json.loads(lines[-1])
    if args.smoke:
        status |= smoke_check(results)
        print("smoke: " + ("ok" if status == 0 else "FAILED"))
    merged = {"correct": status == 0, "attempted": 0, "failed": 0, "metrics": {}}
    for (name, trace), res in results.items():
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["correct"] &= res["correct"]
        for metric, val in res["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(merged))
    return status


def smoke_check(results) -> int:
    """The reported metric names must be exactly those BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    if want[1] != set(tracing.LAYER_METRICS):
        print("smoke: BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
        return 1
    status = 0
    for (name, trace), res in results.items():
        got = set(res["metrics"])
        if got != want[trace]:
            print(f"smoke: {name} trace {trace} metrics differ: "
                  f"missing {sorted(want[trace] - got)}, extra {sorted(got - want[trace])}")
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help=f"one of {workloads.WORKLOADS} or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instance sets, both modes, name checks")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hgdecide", "__init__.py")):
        print(f"error: no engine sources at {SRC}/hgdecide", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
