"""Instance and certificate documents: parsing, serialization, replay.

Documents are JSON with rationals as strings ("a/b"), so no numeric type
in transport can lose precision.  Certificates are replayable: `verify`
re-checks every exact claim (witness values, first violations, bound
guarantees, matching validity, canonical-tuple invariants) without
re-deriving the decision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DecideError, ParseError, ScanCapExceeded
from .exactnum import format_rat, parse_rat
from .gammacanon import CanonicalConstant
from .polys import IntPoly
from .sequence import ExactScan, HGInstance, Problem
from .verdicts import Conditionality, Verdict

FORMAT = "hgdecide-certificate/1"
BOUND_RECHECK_SPAN = 50


@dataclass(frozen=True)
class InstanceDocument:
    inst: HGInstance
    mode: str  # auto | unconditional | conditional

    def to_dict(self) -> dict:
        return {
            "p": list(self.inst.p.coeffs),
            "q": list(self.inst.q.coeffs),
            "u0": format_rat(self.inst.u0),
            "t": format_rat(self.inst.t),
            "problem": self.inst.problem.value,
            "mode": self.mode,
        }


def _json_int(val, key: str) -> int:
    """`val` if it is a JSON integer; true and false are not integers."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise ParseError(f"must be an integer, not {val!r}", key)
    return val


def _json_bool(val, key: str) -> bool:
    """`val` if it is JSON true or false."""
    if not isinstance(val, bool):
        raise ParseError(f"must be true or false, not {val!r}", key)
    return val


def _json_rat(val, key: str) -> Fraction:
    """Fraction from a JSON string 'a' or 'a/b'."""
    if not isinstance(val, str):
        raise ParseError(f"must be a rational string, not {val!r}", key)
    try:
        return parse_rat(val)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational: {e}", key) from None


def _json_poly(val, key: str) -> IntPoly:
    """IntPoly from a nonempty JSON list of integer coefficients."""
    if not isinstance(val, list) or not val:
        raise ParseError("must be a nonempty list of integers", key)
    return IntPoly(tuple(_json_int(c, key) for c in val))


def parse_instance(doc: dict) -> InstanceDocument:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("p", "q", "u0", "t", "problem"):
        if key not in doc:
            raise ParseError("missing field", key)
    p = _json_poly(doc["p"], "p")
    q = _json_poly(doc["q"], "q")
    try:
        u0 = parse_rat(str(doc["u0"]))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational: {e}", "u0") from None
    try:
        t = parse_rat(str(doc["t"]))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational: {e}", "t") from None
    problem_raw = doc["problem"]
    try:
        problem = Problem(problem_raw)
    except ValueError:
        raise ParseError(f"unknown problem kind {problem_raw!r}", "problem") from None
    mode = doc.get("mode", "auto")
    if mode not in ("auto", "unconditional", "conditional"):
        raise ParseError(f"unknown mode {mode!r}", "mode")
    try:
        inst = HGInstance(p, q, u0, t, problem)
    except DecideError as e:
        raise ParseError(str(e), "p/q") from None
    return InstanceDocument(inst, mode)


def load_instance(path: str) -> InstanceDocument:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", path) from None
    return parse_instance(doc)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

_VERDICT_NAMES = {
    (Problem.MEMBERSHIP, True): "member",
    (Problem.MEMBERSHIP, False): "not_member",
    (Problem.THRESHOLD, True): "holds",
    (Problem.THRESHOLD, False): "fails",
}


def certificate_dict(docin: InstanceDocument, verdict: Verdict, timing_ms: float | None = None) -> dict:
    out = {
        "format": FORMAT,
        "instance": docin.to_dict(),
        "verdict": _VERDICT_NAMES[(verdict.problem, verdict.result)],
        "reason": verdict.reason,
        "conditionality": verdict.conditionality.value,
        "witness": verdict.witness,
        "scanned_up_to": verdict.scanned_up_to,
        "bound": (
            {"n": verdict.bound.n, "justification": verdict.bound.justification}
            if verdict.bound
            else None
        ),
        "asymptotic": (
            {
                "variant": verdict.asymptotic.variant.value,
                "ratio_limit": (
                    format_rat(verdict.asymptotic.ratio_limit)
                    if verdict.asymptotic.ratio_limit is not None
                    else None
                ),
                "exponent": (
                    format_rat(verdict.asymptotic.exponent)
                    if verdict.asymptotic.exponent is not None
                    else None
                ),
            }
            if verdict.asymptotic
            else None
        ),
        "canonical": verdict.canonical,
        "equality_rationale": verdict.equality_rationale.value if verdict.equality_rationale else None,
        "compare": (
            {"relation": verdict.compare_relation, "precision_bits": verdict.compare_precision_bits}
            if verdict.compare_relation
            else None
        ),
        "matching": verdict.matching,
        "identity": verdict.identity,
        "notes": list(verdict.notes),
        "exit_code": verdict.exit_code,
    }
    if timing_ms is not None:
        out["timing_ms"] = round(timing_ms, 3)
    return out


def serialize_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------


def verify_certificate(cert: dict, config: EngineConfig = DEFAULT_CONFIG) -> list[str]:
    """Re-check every exact claim in a certificate; returns failures."""
    problems: list[str] = []
    if cert.get("format") != FORMAT:
        return [f"unknown format {cert.get('format')!r}"]
    try:
        docin = parse_instance(cert["instance"])
    except ParseError as e:
        return [f"instance does not parse: {e}"]
    inst = docin.inst
    verdict_name = cert.get("verdict")
    expected = {"member", "not_member", "holds", "fails"}
    if verdict_name not in expected:
        return [f"unknown verdict {verdict_name!r}"]
    result = verdict_name in ("member", "holds")
    if _VERDICT_NAMES[(inst.problem, result)] != verdict_name:
        problems.append("verdict name inconsistent with problem kind")
    cond = cert.get("conditionality")
    if cond not in (c.value for c in Conditionality):
        problems.append(f"unknown conditionality {cond!r}")
    base = 0 if result else 1
    want_exit = base + (10 if cond == Conditionality.CONDITIONAL_ON_SCHANUEL.value else 0)
    if cert.get("exit_code") != want_exit:
        problems.append("exit code inconsistent with verdict/conditionality")

    witness = cert.get("witness")
    scan = None  # the witness scan, left at the witness for the bound replay
    if witness is not None and verdict_name in ("member", "fails"):
        # a member verdict claims the least u_n = t, a fails verdict the
        # first u_n < t: exactly the scan's witness test
        if result:
            what, least, rel, not_rel = "witness", "least", "=", "!="
        else:
            what, least, rel, not_rel = "violation", "first", "<", ">="
        try:
            # the scan may go on to a bound's recheck span; the witness
            # replay itself stays within the scan cap
            scan = ExactScan(inst, config.scan_cap + BOUND_RECHECK_SPAN)
            n = scan.first_hit(min(witness, config.scan_cap + 1))
            if n is not None:
                problems.append(f"{what} {witness} is not {least}: u_{n} {rel} t")
            if witness > config.scan_cap:
                raise ScanCapExceeded(f"scan index {witness} exceeds cap {config.scan_cap}")
            scan.jump(witness)
            if not scan.hit():
                problems.append(f"claimed {what} u_{witness} {not_rel} t")
        except DecideError as e:
            problems.append(f"witness replay failed: {e}")
            scan = None

    bound = cert.get("bound")
    if bound is not None:
        problems.extend(_verify_bound(inst, bound, config, scan))

    canonical = cert.get("canonical")
    if canonical is not None:
        problems.extend(_verify_canonical(canonical))

    matching = cert.get("matching")
    if matching is not None:
        problems.extend(_verify_matching(matching))
    return problems


def _verify_bound(
    inst: HGInstance, bound: dict, config: EngineConfig, scan: ExactScan | None = None
) -> list[str]:
    """Replay a bound; `scan`, if given and not past the bound index,
    carries on from where it is (its exact anchor included)."""
    n0 = bound.get("n")
    just = bound.get("justification")
    if not isinstance(n0, int) or n0 < 0:
        return ["bound index invalid"]
    if just not in ("ratio_exceeds_target", "tail_below_target", "product_monotone_beyond"):
        return [f"unknown bound justification {just!r}"]
    if n0 > config.scan_cap:
        return [f"bound replay failed: bound index {n0} exceeds cap {config.scan_cap}"]
    # a bound at the cap is rechecked BOUND_RECHECK_SPAN terms beyond it
    if scan is None or scan.n > n0:
        scan = ExactScan(inst, config.scan_cap + BOUND_RECHECK_SPAN)
    scan.jump(n0)
    t = inst.t
    for n in range(n0, n0 + BOUND_RECHECK_SPAN + 1):
        if n > n0:
            scan.step()
        if just == "ratio_exceeds_target":
            if scan.abs_cmp(t) <= 0:
                return [f"|u_{n}| <= |t| inside a divergence bound"]
            if abs(inst.q(n)) <= abs(inst.p(n)):
                return [f"|r({n})| <= 1 inside a divergence bound"]
        elif just == "tail_below_target":
            if scan.abs_cmp(t) >= 0:
                return [f"|u_{n}| >= |t| inside a shrink bound"]
            if abs(inst.q(n)) >= abs(inst.p(n)):
                return [f"|r({n})| >= 1 inside a shrink bound"]
        elif scan.hit():
            if inst.problem is Problem.THRESHOLD:
                return [f"u_{n} < t inside a monotone-tail bound"]
            return [f"u_{n} = t beyond the exclusion bound"]
    return []


def _verify_canonical(desc: dict) -> list[str]:
    try:
        theta = desc["theta"]
        if not isinstance(theta, list) or len(theta) != 2:
            raise ParseError("must be a list of two rational strings", "theta")
        CanonicalConstant(
            _json_rat(theta[0], "theta"),
            _json_rat(theta[1], "theta"),
            _json_int(desc["ell"], "ell"),
            _json_poly(desc["f"], "f"),
            _json_poly(desc["g"], "g"),
            _json_int(desc["m"], "m"),
            _json_int(desc["D"], "D"),
            _json_bool(desc["base_trivial"], "base_trivial"),
        )
    except (KeyError, ValueError, DecideError) as e:
        return [f"canonical tuple invalid: {e}"]
    return []


def _verify_matching(desc: dict) -> list[str]:
    from .recognize import MatchingCertificate, NoMatching, find_symmetric_matching

    out = []
    for side in ("p", "q"):
        entry = desc.get(side)
        if entry is None:
            continue
        try:
            poly = IntPoly(tuple(entry["source"]))
            fresh = find_symmetric_matching(poly)
        except (KeyError, DecideError) as e:
            out.append(f"matching for {side} not replayable: {e}")
            continue
        if isinstance(fresh, NoMatching):
            out.append(f"{side} no longer admits a perfect matching")
            continue
        if len(fresh.pairs) != len(entry.get("pairs", [])):
            out.append(f"{side} matching size mismatch")
    return out
