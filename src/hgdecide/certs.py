"""Instance and certificate documents: parsing, serialization, replay.

Documents are JSON with rationals as strings ("a/b"), so no numeric type
in transport can lose precision.  Certificates are replayable: `verify`
re-checks every exact claim (witness values, first violations, bound
guarantees, matching validity, canonical-tuple invariants) without
re-deriving the decision.  A certificate holds only the keys that carry
a value, on one compact line; replay reads an absent key as no claim.
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
from .recognize import NoMatching, find_symmetric_matching
from .sequence import ExactScan, HGInstance, Problem
from .verdicts import Conditionality, Verdict

FORMAT = "hgdecide-certificate/3"


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


def _json_index(val, key: str) -> int:
    """`val` if it is a nonnegative JSON integer (a term index)."""
    if _json_int(val, key) < 0:
        raise ParseError(f"must be nonnegative, not {val!r}", key)
    return val


def _json_bool(val, key: str) -> bool:
    """`val` if it is JSON true or false."""
    if not isinstance(val, bool):
        raise ParseError(f"must be true or false, not {val!r}", key)
    return val


def _json_rat(val, key: str, integers: bool = False) -> Fraction:
    """Fraction from a JSON string 'a' or 'a/b', or, with `integers`, from a
    JSON integer.  A float is refused: it has already rounded the rational
    it stands for."""
    if integers and isinstance(val, int) and not isinstance(val, bool):
        return Fraction(val)
    if not isinstance(val, str):
        kinds = "a rational string or an integer" if integers else "a rational string"
        raise ParseError(f"must be {kinds}, not {val!r}", key)
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
    u0 = _json_rat(doc["u0"], "u0", integers=True)
    t = _json_rat(doc["t"], "t", integers=True)
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


def read_json(path: str):
    """The JSON document in a file; an unreadable file, invalid JSON or an
    integer longer than the interpreter converts is a ParseError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {e}", path) from None
    except OSError as e:
        raise ParseError(f"cannot read: {e.strerror or e}", path) from None


def load_instance(path: str) -> InstanceDocument:
    return parse_instance(read_json(path))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

_VERDICT_NAMES = {
    (Problem.MEMBERSHIP, True): "member",
    (Problem.MEMBERSHIP, False): "not_member",
    (Problem.THRESHOLD, True): "holds",
    (Problem.THRESHOLD, False): "fails",
}


# every reason `equality.decide` writes, with the one result it gives, or
# None where it gives either
_REASON_RESULTS = {
    "zero_sequence": None, "constant_sequence": None, "zero_tail": None, "sign_analysis": None,
    "divergence_bound": None, "shrink_bound": None,
    "prefix_witness": True, "increasing_tail": True, "decreasing_tail_above_target": True,
    "decreasing_tail_limit_equals_target": True,
    "terms_never_zero": False, "prefix_violation": False, "decreasing_tail_below_target": False,
    "monotone_tail_excludes_target": False, "limit_equals_target_not_attained": False,
}


def _present(fields: dict) -> dict:
    """The entries of `fields` with a value: not None and not [] (0 stays)."""
    return {k: v for k, v in fields.items() if v is not None and v != []}


def _rat_or_none(q: Fraction | None) -> str | None:
    return None if q is None else format_rat(q)


def certificate_dict(docin: InstanceDocument, verdict: Verdict) -> dict:
    """A verdict's certificate: only the keys that carry a value."""
    bound, asym, rel = verdict.bound, verdict.asymptotic, verdict.compare_relation
    return _present({
        "format": FORMAT,
        "instance": docin.to_dict(),
        "verdict": _VERDICT_NAMES[(verdict.problem, verdict.result)],
        "reason": verdict.reason,
        "conditionality": verdict.conditionality.value,
        "witness": verdict.witness,
        "scanned_up_to": verdict.scanned_up_to,
        "bound": bound and {"n": bound.n, "justification": bound.justification},
        "asymptotic": asym and _present({
            "variant": asym.variant.value,
            "ratio_limit": _rat_or_none(asym.ratio_limit),
            "exponent": _rat_or_none(asym.exponent),
        }),
        "canonical": verdict.canonical,
        "equality_rationale": verdict.equality_rationale and verdict.equality_rationale.value,
        "compare": rel and {"relation": rel, "precision_bits": verdict.compare_precision_bits},
        "matching": verdict.matching,
        "identity": verdict.identity,
        "exit_code": verdict.exit_code,
    })


def serialize_certificate(cert: dict) -> str:
    """One compact line: sorted keys, no spaces, a final newline."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------


def verify_certificate(cert: dict, config: EngineConfig = DEFAULT_CONFIG) -> list[str]:
    """Re-check every exact claim in a certificate; returns failures."""
    problems: list[str] = []
    if not isinstance(cert, dict):
        return ["certificate must be a JSON object"]
    if cert.get("format") != FORMAT:
        return [f"unknown format {cert.get('format')!r}"]
    try:
        docin = parse_instance(cert.get("instance"))
    except ParseError as e:
        return [f"instance does not parse: {e}"]
    inst = docin.inst
    verdict_name = cert.get("verdict")
    # a tuple: a malformed verdict may be a list or an object, not hashable
    if verdict_name not in ("member", "not_member", "holds", "fails"):
        return [f"unknown verdict {verdict_name!r}"]
    result = verdict_name in ("member", "holds")
    if _VERDICT_NAMES[(inst.problem, result)] != verdict_name:
        problems.append("verdict name inconsistent with problem kind")
    try:
        cond = Conditionality(cert.get("conditionality"))
    except ValueError:
        problems.append(f"unknown conditionality {cert.get('conditionality')!r}")
        cond = Conditionality.UNCONDITIONAL
    conditional_oracle = cond is not Conditionality.UNCONDITIONAL or cert.get("matching") is not None
    if docin.mode == "unconditional" and conditional_oracle:
        problems.append("mode 'unconditional' never builds the conditional oracle")
    code = cert.get("exit_code")  # a JSON integer: true and 1.0 compare equal to 1
    if type(code) is not int or code != Verdict(inst.problem, result, cond, "").exit_code:
        problems.append("exit code inconsistent with verdict/conditionality")

    reason = cert.get("reason")
    if not isinstance(reason, str) or reason not in _REASON_RESULTS:
        problems.append(f"unknown reason {reason!r}")
    elif _REASON_RESULTS[reason] not in (None, result):
        problems.append(f"reason {reason} never gives a {verdict_name} verdict")
    elif reason in ("zero_sequence", "constant_sequence"):
        # u_n = u0 for every n, so u0 alone gives the result
        constant = inst.u0 == 0 if reason == "zero_sequence" else inst.u0 != 0 and inst.p == inst.q
        held = inst.u0 == inst.t if inst.problem is Problem.MEMBERSHIP else inst.u0 >= inst.t
        if not constant or result != held:
            problems.append(f"the instance gives no {reason} {verdict_name} verdict")

    scan = None  # the witness scan, left at the witness for the bound replay
    if verdict_name in ("member", "fails"):
        # a member verdict claims the least u_n = t, a fails verdict the
        # first u_n < t: exactly the scan's witness test
        if result:
            what, least, rel, not_rel = "witness", "least", "=", "!="
        else:
            what, least, rel, not_rel = "violation", "first", "<", ">="
        try:
            witness = _json_index(cert.get("witness"), "witness")
            scan = ExactScan(inst, config.scan_cap)
            # the search stops at the witness, which is tested once; past
            # the cap it tests u_cap last, so only an earlier hit is known
            n = scan.first_hit(min(witness, config.scan_cap))
            if n is None and scan.hit():
                n = scan.n
            if n is not None and n < witness:
                problems.append(f"{what} {witness} is not {least}: u_{n} {rel} t")
            if witness > config.scan_cap:
                raise ScanCapExceeded(f"scan index {witness} exceeds cap {config.scan_cap}")
            if n is None:
                problems.append(f"claimed {what} u_{witness} {not_rel} t")
        except ParseError as e:
            problems.append(f"witness invalid: {e}")
        except DecideError as e:
            problems.append(f"witness replay failed: {e}")
            scan = None

    bound = cert.get("bound")
    if bound is not None:
        problems.extend(_verify_bound(inst, bound, cert.get("compare"), config, scan))
    elif reason in ("divergence_bound", "shrink_bound"):
        problems.append(f"a {reason} certificate carries no bound")

    canonical = cert.get("canonical")
    if canonical is not None:
        problems.extend(_verify_canonical(canonical))

    matching = cert.get("matching")
    if matching is not None:
        problems.extend(_verify_matching(matching, inst))
    return problems


def _verify_bound(
    inst: HGInstance,
    bound: dict,
    compare: dict | None,
    config: EngineConfig,
    scan: ExactScan | None = None,
) -> list[str]:
    """Prove a bound's claim for every n >= n0.

    n0 must be at least the certified index k1 = inst.monotonicity_index
    (the Cauchy bound, never the scan's skip index): past k1, q, p,
    q - p and q + p keep their signs, so sign r(k) and sign(|r(k)| - 1)
    are those at k1, the record inst.tail_signs that the decision read,
    and |u_n| is monotone from n0 on.  One exact comparison of u_{n0}
    with t then settles the whole tail; a monotone-tail bound passes the
    balanced verdicts' own test, scan.tail_misses(), or an order claim.
    `scan`, if given and not past n0, carries on from where it is (its
    exact anchor included).
    """
    if not isinstance(bound, dict):
        return ["bound invalid"]
    try:
        n0 = _json_index(bound.get("n"), "bound.n")
    except ParseError as e:
        return [f"bound index invalid: {e}"]
    just = bound.get("justification")
    if just not in ("ratio_exceeds_target", "tail_below_target", "product_monotone_beyond"):
        return [f"unknown bound justification {just!r}"]
    if n0 > config.scan_cap:
        return [f"bound replay failed: bound index {n0} exceeds cap {config.scan_cap}"]
    k1 = inst.monotonicity_index
    if n0 < k1:
        return [f"bound index {n0} is below the monotonicity index {k1}"]
    if scan is None or scan.n > n0:
        scan = ExactScan(inst, config.scan_cap)
    scan.jump(n0)
    t = inst.t
    ratio, grow = inst.tail_signs
    if just != "product_monotone_beyond":
        # the bound search's own past exit: |r| and |u_{n0}| - |t| on `side`
        side = 1 if just == "ratio_exceeds_target" else -1
        rel, kind = ("<=", "divergence") if side > 0 else (">=", "shrink")
        if grow != side:
            return [f"|r(k)| {rel} 1 for k >= {k1} under a {kind} bound"]
        if scan.abs_cmp(t) != side:
            return [f"|u_{n0}| {rel} |t| at a {kind} bound"]
        return []
    # product_monotone_beyond: past k1 r(k) > 0 keeps the sign of the terms
    # and moves them monotonically, which alone may settle the tail
    if ratio < 0:
        return [f"r(k) < 0 for k >= {k1} under a monotone-tail bound"]
    if scan.hit():
        if inst.problem is Problem.THRESHOLD:
            return [f"u_{n0} < t at a monotone-tail bound"]
        return [f"u_{n0} = t at the exclusion bound"]
    if scan.tail_misses():
        return []
    if inst.problem is Problem.THRESHOLD:
        return [f"the tail falls from u_{n0} under a monotone-tail bound"]
    # the tail moves towards t and misses it only if its limit stays on
    # u_{n0}'s side of t: the order claim (read here, not replayed)
    side = scan.cmp(t)
    relation = compare.get("relation") if isinstance(compare, dict) else None
    if inst.asymptotic.is_balanced and relation == ("less" if side < 0 else "greater"):
        return []
    return [f"the tail moves from u_{n0} towards t and no order claim keeps it off t"]


def _verify_canonical(desc: dict) -> list[str]:
    if not isinstance(desc, dict):
        return ["canonical tuple invalid: must be an object"]
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


def _verify_matching(desc: dict, inst: HGInstance) -> list[str]:
    """Each side's entry is the record the matching search writes again for
    the instance's own p or q, compared as JSON text (1.0 is not 1)."""
    if not isinstance(desc, dict):
        return ["matching invalid: must be an object"]
    out = []
    for side, poly in (("p", inst.p), ("q", inst.q)):
        try:
            fresh = find_symmetric_matching(poly)
        except DecideError as e:
            out.append(f"matching for {side} not replayable: {e}")
            continue
        if isinstance(fresh, NoMatching):
            out.append(f"{side} no longer admits a perfect matching")
        elif json.dumps(desc.get(side), sort_keys=True) != json.dumps(fresh.describe(), sort_keys=True):
            out.append(f"{side} matching differs from the replayed matching")
    return out
