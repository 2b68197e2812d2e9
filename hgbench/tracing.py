"""Span tracing for the traced run, installed from outside the engine.

Each wrapped public function records a span (name, start, end, parent) in
memory while tracing is on.  A wrapper is installed in every `hgdecide.*`
namespace that binds the function, not only in the defining module, and is
removed again after each traced instance, so untraced decisions run the
engine's own code.  A function that no longer exists is reported as
missing; end-to-end metrics never go through these wrappers.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "hgdecide"

# (module, attribute) of every wrapped function; a dotted attribute is a
# method on a class
TARGETS = (
    ("sequence", "divergence_bound"),
    ("sequence", "shrink_bound"),
    ("certs", "parse_instance"),
    ("certs", "certificate_dict"),
    ("certs", "serialize_certificate"),
    ("certs", "verify_certificate"),
    ("enclosure", "eval_enclosure"),
    ("enclosure", "pi_interval"),
    ("enclosure", "exp_interval"),
    ("enclosure", "sin_interval"),
    ("enclosure", "cos_interval"),
    ("equality", "decide"),
    ("equality", "decide_equal"),
    ("equality", "compare"),
    ("gammacanon", "limit_as_gamma"),
    ("gammacanon", "canonicalize"),
    ("polys", "roots_quadratic"),
    ("polys", "factor_monic"),
    ("recognize", "find_symmetric_matching"),
    ("schanuel", "build_basis"),
    ("schanuel", "build_identity"),
    ("schanuel", "decide_identity"),
    ("schanuel", "stress_check_identity"),
    ("schanuel", "evaluate_identity"),
    ("schanuel", "ConditionalLimitOracle.compare"),
    ("schanuel", "ConditionalLimitOracle.limit_enclosure"),
    ("corpus", "generate_documents"),
)

# wrapped for a call count only, without a span, so the time stays in the
# caller's self time
COUNT_ONLY = {"schanuel.evaluate_identity"}

# per-layer metric -> (unit, better, the end-to-end metric on the workload
# it should move)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {}


def _layer(names, unit, better, moves):
    for name in names:
        LAYER_METRICS[name] = (unit, better, moves)


def _stats(prefix, stats=("calls", "total_s", "self_s")):
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    return [(f"{prefix}.{s}", units[s]) for s in stats]


def _group(prefixes, moves, stats=("calls", "total_s", "self_s")):
    for prefix in prefixes:
        for name, unit in _stats(prefix, stats):
            _layer([name], unit, "lower", moves)


_layer(["sequence.exactscan.steps"], "count", "lower", "decide_s, verify_s on deep-scan")
_layer(["sequence.exactscan.steps_per_index"], "ratio", "lower", "decide_s on deep-scan")
_group(["sequence.divergence_bound", "sequence.shrink_bound"], "decide_s on deep-scan", ("total_s",))
_group(
    ["certs.parse_instance", "certs.certificate_dict", "certs.serialize_certificate", "certs.verify_certificate"],
    "verify_s on deep-scan; decide_ms_p50 on corpus-unconditional",
)
_layer(["certs.cert_bytes"], "bytes", "lower", "verify_s on deep-scan")
_group(["enclosure.eval_enclosure"], "decide_s on near-tie, corpus-conditional", ("calls", "total_s"))
_layer(["enclosure.eval_enclosure.max_bits"], "bits", "lower", "decide_s on near-tie")
_group(
    ["enclosure.pi_interval", "enclosure.exp_interval", "enclosure.sin_interval", "enclosure.cos_interval"],
    "decide_s on near-tie, corpus-conditional",
    ("self_s",),
)
_group(["equality.decide", "equality.decide_equal"], "decide_s on near-tie")
_group(["equality.compare"], "decide_s on near-tie", ("calls", "total_s"))
_layer(["equality.compare.ladder_steps"], "count", "lower", "decide_s on near-tie")
_group(
    ["gammacanon.limit_as_gamma", "gammacanon.canonicalize", "polys.roots_quadratic", "polys.factor_monic"],
    "decide_ms_p50 on corpus-unconditional",
)
_group(["recognize.find_symmetric_matching"], "decide_s on corpus-conditional")
_group(
    ["schanuel.build_basis", "schanuel.build_identity", "schanuel.decide_identity"],
    "decide_s, decide_ms_tail on corpus-conditional",
)
_group(["schanuel.stress_check_identity"], "decide_s, decide_ms_tail on corpus-conditional", ("calls", "self_s"))
_group(["schanuel.evaluate_identity"], "decide_s on corpus-conditional", ("calls",))
_layer(["schanuel.stress_check_identity.useful_frac"], "frac", "higher", "decide_s on corpus-conditional")
_group(
    ["schanuel.ConditionalLimitOracle.compare", "schanuel.ConditionalLimitOracle.limit_enclosure"],
    "decide_s, decide_ms_tail on corpus-conditional",
)
_group(["corpus.generate_documents"], "none (set-up of the corpus workloads, outside every timed metric)", ("total_s",))
_layer(["trace.overhead_frac"], "frac", "lower", "none (cost of the traced run itself)")


@dataclass
class Tracer:
    """In-memory span store plus the installed wrappers."""

    spans: list = field(default_factory=list)  # [name, start, end, parent, instance, extra]
    stack: list = field(default_factory=list)
    scans: list = field(default_factory=list)  # ExactScan objects made while on
    counts: dict = field(default_factory=dict)  # COUNT_ONLY name -> calls
    missing: list = field(default_factory=list)
    instance: int = -1
    _originals: dict = field(default_factory=dict)  # span name -> function
    _patches: list = field(default_factory=list)  # (owner, attr, original)
    _sites: list | None = None

    def resolve(self) -> None:
        """Find every target; remember the ones that are gone."""
        for module, attr in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            fn = owner
            for part in attr.split("."):
                fn = getattr(fn, part, None)
            if owner is None or fn is None:
                self.missing.append(f"{module}.{attr}")
            else:
                self._originals[f"{module}.{attr}"] = (module, attr, fn)
        seq = sys.modules.get(f"{PACKAGE}.sequence")
        self._scan_cls = getattr(seq, "ExactScan", None)
        if self._scan_cls is None or "steps" not in getattr(self._scan_cls, "__slots__", ("steps",)):
            self.missing.append("sequence.ExactScan")
            self._scan_cls = None

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._binding_sites()
        for owner, attr, new in self._sites:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _binding_sites(self) -> list:
        """(owner, attribute, wrapper) for every place a target is bound."""
        namespaces = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        sites = []
        for span, (module, attr, fn) in self._originals.items():
            wrapper = self._wrap(span, fn)
            if "." in attr:
                cls_name, meth = attr.split(".")
                sites.append((getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name), meth, wrapper))
                continue
            for ns in namespaces:
                sites.extend((ns, key, wrapper) for key, val in vars(ns).items() if val is fn)
        if self._scan_cls is not None:
            init = self._scan_cls.__init__
            scans = self.scans

            def traced_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                scans.append(obj)

            sites.append((self._scan_cls, "__init__", traced_init))
        return sites

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        if name in COUNT_ONLY:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "enclosure.eval_enclosure":
                rec[5] = args[1] if len(args) > 1 else kwargs.get("precision_bits")
            elif name == "certs.serialize_certificate":
                rec[5] = len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def take_scans(self) -> tuple[int, int]:
        """(steps, largest index) over the scans made since the last call."""
        steps = sum(getattr(s, "steps", 0) for s in self.scans)
        top = max((getattr(s, "n", 0) for s in self.scans), default=0)
        self.scans.clear()
        return steps, top

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, inst, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "instance": inst}
                if extra is not None:
                    rec["extra"] = extra
                fh.write(json.dumps(rec) + "\n")


def _child_time(spans) -> list[float]:
    """Per span, the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def self_time_by_module(tracer: Tracer) -> dict[str, float]:
    """Seconds of span self time per engine module, over the decided
    instances (corpus generation is left out)."""
    out: dict[str, float] = {}
    for (name, start, end, _, inst, _), child in zip(tracer.spans, _child_time(tracer.spans)):
        if inst < 0:
            continue
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + (end - start) - child
    return out


def layer_metrics(tracer: Tracer, counters: dict) -> tuple[dict, list]:
    """Per-layer metrics from the recorded spans and the loop's counters.

    Returns (metrics, missing metric names)."""
    spans = tracer.spans
    child_time = _child_time(spans)
    by_name: dict[str, dict] = {}
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []})
        dur = end - start
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[i]
        # total time counts only the outermost of nested same-name spans
        j = parent
        while j >= 0 and spans[j][0] != name:
            j = spans[j][3]
        if j < 0:
            agg["total_s"] += dur
        if extra is not None:
            agg["extras"].append(extra)

    values: dict[str, float] = {}
    missing_spans = set(tracer.missing)
    missing = []
    for metric in LAYER_METRICS:
        prefix, _, stat = metric.rpartition(".")
        if prefix in missing_spans or (metric.startswith("sequence.exactscan") and "sequence.ExactScan" in missing_spans):
            missing.append(metric)
            continue
        if prefix in COUNT_ONLY:
            values[metric] = tracer.counts.get(prefix, 0)
        elif stat in ("calls", "total_s", "self_s"):
            values[metric] = by_name.get(prefix, {}).get(stat, 0 if stat == "calls" else 0.0)
    enc = by_name.get("enclosure.eval_enclosure", {"extras": []})
    values["enclosure.eval_enclosure.max_bits"] = max(enc["extras"], default=0)
    ser = by_name.get("certs.serialize_certificate", {"extras": []})
    values["certs.cert_bytes"] = sum(ser["extras"]) / len(ser["extras"]) if ser["extras"] else 0.0
    values["equality.compare.ladder_steps"] = sum(
        1 for name, _, _, parent, _, _ in spans
        if name == "enclosure.eval_enclosure" and parent >= 0 and spans[parent][0] == "equality.compare"
    )
    values["sequence.exactscan.steps"] = counters["scan_steps"]
    values["sequence.exactscan.steps_per_index"] = (
        counters["decide_scan_steps"] / counters["decide_scan_index"] if counters["decide_scan_index"] else 0.0
    )
    checks = counters["stress_instances"]
    values["schanuel.stress_check_identity.useful_frac"] = counters["stress_useful"] / checks if checks else 0.0
    untraced = counters["untraced_decide_s"]
    values["trace.overhead_frac"] = counters["traced_decide_s"] / untraced - 1.0 if untraced else 0.0
    for metric in missing:
        values.pop(metric, None)
    return values, missing
