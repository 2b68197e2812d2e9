"""Instance and certificate documents: parsing, serialization, replay.

Documents are JSON with rationals as strings ("a/b"), so no numeric type
in transport can lose precision.  Certificates are replayable: `verify`
checks the witness, rebuilds the equality records (canonical tuple, or
matching and identity) from the limit oracle `decide` reads
(`equality.limit_oracle`), and checks the claim `verdicts.Reason` names
for the reason and verdict (a case, bound, order or equality) without
re-deriving the decision; it recomputes the fields the others give
(`derived_fields`): equality rationale, conditionality, exit code and
asymptotic record.  A certificate holds only the keys that carry a
value, on one compact line; replay reads an absent key as no claim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DecideError, ParseError, ScanCapExceeded
from .exactnum import format_rat, parse_rat
from .equality import case_prefix_end, constant_result, instance_case, limit_oracle
from .polys import IntPoly
from .sequence import AsymptoticClass, ExactScan, HGInstance, Problem
from .verdicts import Claim, Justification, Rationale, Reason, Verdict, VerdictName, conditionality, exit_code

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


def _json_rat(val, key: str) -> Fraction:
    """Fraction from a JSON string 'a' or 'a/b', or from a JSON integer.  A
    float is refused: it has already rounded the rational it stands for."""
    if isinstance(val, int) and not isinstance(val, bool):
        return Fraction(val)
    if not isinstance(val, str):
        raise ParseError(f"must be a rational string or an integer, not {val!r}", key)
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
    u0 = _json_rat(doc["u0"], "u0")
    t = _json_rat(doc["t"], "t")
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

def _present(fields: dict) -> dict:
    """The entries of `fields` with a value: not None and not [] (0 stays)."""
    return {k: v for k, v in fields.items() if v is not None and v != []}


def _rat_or_none(q: Fraction | None) -> str | None:
    return None if q is None else format_rat(q)


def _asymptotic_record(asym: AsymptoticClass | None) -> dict | None:
    return asym and _present({
        "variant": asym.variant.value,
        "ratio_limit": _rat_or_none(asym.ratio_limit),
        "exponent": _rat_or_none(asym.exponent),
    })


def derived_fields(inst: HGInstance, name: VerdictName, reason: Reason, rationale: Rationale | None) -> dict:
    """The fields a certificate's other fields give: equality rationale,
    conditionality, exit code and asymptotic record.  `certificate_dict`
    writes them and `verify_certificate` recomputes them, both from here."""
    cond = conditionality(reason.claims.get(name, Claim.NONE), rationale)
    return {
        "equality_rationale": rationale and rationale.value,
        "conditionality": cond.value,
        "exit_code": exit_code(name.result, cond),
        "asymptotic": _asymptotic_record(reason.asymptotic(inst)),
    }


def certificate_dict(docin: InstanceDocument, verdict: Verdict) -> dict:
    """A verdict's certificate: only the keys that carry a value; a bound
    with its reason's justification, and the derived fields."""
    bound, eq = verdict.bound, verdict.equality
    return _present({
        "format": FORMAT,
        "instance": docin.to_dict(),
        "verdict": verdict.name.value,
        "reason": verdict.reason.value,
        "witness": verdict.witness,
        "scanned_up_to": verdict.scanned_up_to,
        "bound": None if bound is None else {"n": bound, "justification": verdict.reason.justification.value},
        "canonical": eq and eq.canonical,
        "compare": verdict.compare,
        "matching": eq and eq.matching,
        "identity": eq and eq.identity,
        **derived_fields(docin.inst, verdict.name, verdict.reason, eq and eq.rationale),
    })


def serialize_certificate(cert: dict) -> str:
    """One compact line: sorted keys, no spaces, a final newline."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Replay verification
# ---------------------------------------------------------------------------

# the equality records a certificate can carry, and their names in failures
_RECORDS = {"canonical": "canonical tuple", "identity": "identity", "matching": "matching"}
# a record as JSON text with sorted keys, so 1.0 and true are not 1
_json_text = json.JSONEncoder(sort_keys=True).encode


def verify_certificate(cert: dict, config: EngineConfig = DEFAULT_CONFIG) -> list[str]:
    """Check the claims a certificate's reason and verdict rest on, and
    recompute the fields they give; returns failures."""
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
    try:
        verdict_name = VerdictName(cert.get("verdict"))
    except ValueError:
        return [f"unknown verdict {cert.get('verdict')!r}"]
    result = verdict_name.result
    if verdict_name.problem is not inst.problem:
        problems.append("verdict name inconsistent with problem kind")
    try:
        if _json_index(cert.get("scanned_up_to", 0), "scanned_up_to") > config.scan_cap:
            problems.append(f"scanned_up_to exceeds the scan cap {config.scan_cap}")
    except ParseError as e:
        problems.append(f"scan claim invalid: {e}")

    try:
        reason = Reason(cert.get("reason"))
    except ValueError:
        return problems + [f"unknown reason {cert.get('reason')!r}"]
    if verdict_name not in reason.claims:
        problems.append(f"reason {reason.value} never gives a {verdict_name.value} verdict")
    claim = reason.claims.get(verdict_name, Claim.NONE)
    if (Claim.CASE in claim and instance_case(inst) is not reason
            or Claim.CONSTANT in claim and result != constant_result(inst)):
        problems.append(f"the instance gives no {reason.value} {verdict_name.value} verdict")

    scan = None  # the witness scan, left at the witness for the bound replay
    # a member verdict claims the least u_n = t, a fails verdict the first
    # u_n < t: exactly the scan's witness test
    membership = verdict_name.problem is Problem.MEMBERSHIP
    what, least, rel, not_rel = ("witness", "least", "=", "!=") if membership else ("violation", "first", "<", ">=")
    if result == membership:
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
    elif Claim.CASE in claim and (end := case_prefix_end(inst)) is not None:
        # a witness-less zero tail or t = 0 verdict: the prefix that holds
        # the case's answer holds no witness
        try:
            n = ExactScan(inst, config.scan_cap).first_hit(end)
            if n is not None:
                problems.append(f"{what} u_{n} {rel} t lies in the prefix through u_{end - 1}")
        except DecideError as e:
            problems.append(f"prefix replay failed: {e}")

    bound, compare = cert.get("bound"), cert.get("compare")
    if compare is not None:
        problems.extend(_verify_compare(compare, config))
    relation = compare.get("relation") if isinstance(compare, dict) else None
    if bound is not None:
        problems.extend(_verify_bound(inst, bound, reason, relation, config, scan))
    elif Claim.BOUND in claim:
        problems.append(f"a {reason.value} certificate carries no bound")
    # the order claim the verdict rests on; an oracle-free GREATER verdict rests on its bound
    side = "less" if Claim.LESS in claim else "greater" if Claim.GREATER in claim and bound is None else None
    if side and relation != side:
        problems.append(f"a {reason.value} certificate does not claim that L is {side} than t")

    # each equality record must be the one `decide`'s oracle, rebuilt from
    # the instance, writes (none under u0 = 0 or t = 0, nor outside the
    # mode's oracles); a nonzero identity's stress_separated is the
    # decision's own evidence, read and not rebuilt
    claimed = {key: cert.get(key) for key in _RECORDS}
    carried = [name for key, name in _RECORDS.items() if claimed[key] is not None]
    rationale, found = None, False
    if carried:
        try:
            eq = limit_oracle(inst, config, docin.mode != "unconditional").decide_equal(inst.t)
        except DecideError as e:
            problems.append(f"{carried[0]} not rebuilt: {e}")
        else:
            rationale, found = eq.rationale, eq.equal
            identity = claimed["identity"]
            if rationale is Rationale.IDENTITY_NONZERO and isinstance(identity, dict):
                stress = identity.get("stress_separated")
                if type(stress) is not bool:
                    problems.append(f"identity stress_separated {stress!r} is not a JSON bool")
                claimed["identity"] = {k: v for k, v in identity.items() if k != "stress_separated"}
            for key, record in eq.records.items():
                if (claimed[key], record) != (None, None) and _json_text(claimed[key]) != _json_text(record):
                    problems.append(f"{_RECORDS[key]} differs from the one rebuilt from the instance")
    if found != (Claim.EQUAL in claim):
        verb = "does not find" if Claim.EQUAL in claim else "finds"
        problems.append(f"the equality record {verb} L = t under {reason.value}")
    # only a limit that is not t is ordered against it
    if (compare is not None) != (bool(carried) and not found):
        problems.append("a compare record comes exactly with an equality record that does not find L = t")

    for key, want in derived_fields(inst, verdict_name, reason, rationale).items():
        got = cert.get(key)  # of the recomputed JSON kind: true and 1.0 are not 1
        if got != want or type(got) is not type(want):
            problems.append(f"{key.replace('_', ' ')} {got!r} is not the recomputed {want!r}")
    return problems


def _verify_compare(compare, config: EngineConfig) -> list[str]:
    """A compare record: the relation `less` or `greater`, and the
    precision of the ladder rung that separated L from t, a JSON integer
    from the first rung, 64 bits, to the precision cap."""
    if not isinstance(compare, dict) or set(compare) != {"relation", "precision_bits"}:
        return ["compare invalid: must be an object of relation and precision_bits"]
    out = []
    if compare["relation"] not in ("less", "greater"):
        out.append(f"compare relation {compare['relation']!r} is neither less nor greater")
    try:
        bits = _json_int(compare["precision_bits"], "precision_bits")
        if not 64 <= bits <= config.precision_cap_bits:
            out.append(f"compare precision_bits {bits} lies outside 64 .. {config.precision_cap_bits}")
    except ParseError as e:
        out.append(f"compare invalid: {e}")
    return out


def _verify_bound(
    inst: HGInstance,
    bound: dict,
    reason: Reason,
    relation: str | None,
    config: EngineConfig,
    scan: ExactScan | None = None,
) -> list[str]:
    """Prove the claim of the justification `reason` writes for every n >= n0.

    n0 must be at least the certified index k1 of the pair's record
    rec = inst.recurrence (the Cauchy bound, never the scan's skip
    index): past k1, q, p, q - p and q + p keep their signs, so sign r(k)
    and sign(|r(k)| - 1) are those at k1, rec.tail_signs, which the
    decision read, and |u_n| is monotone from n0 on.  One exact
    comparison of u_{n0} with t then settles the whole tail; a
    monotone-tail bound passes the balanced verdicts' own test,
    scan.tail_misses(), or an order claim.  `scan`, if given and not past
    n0, carries on from where it is (its exact anchor included).  The
    certificate's justification must be the reason's own, and a reason
    that writes no bound carries none.
    """
    if not isinstance(bound, dict):
        return ["bound invalid"]
    just = reason.justification
    if just is None:
        return [f"reason {reason.value} never writes a bound"]
    try:
        n0 = _json_index(bound.get("n"), "bound.n")
    except ParseError as e:
        return [f"bound index invalid: {e}"]
    if bound.get("justification") != just.value:
        return [f"bound justification {bound.get('justification')!r} is not {reason.value}'s {just.value}"]
    if n0 > config.scan_cap:
        return [f"bound replay failed: bound index {n0} exceeds cap {config.scan_cap}"]
    rec = inst.recurrence
    k1 = rec.monotonicity_index
    if n0 < k1:
        return [f"bound index {n0} is below the monotonicity index {k1}"]
    if scan is None or scan.n > n0:
        scan = ExactScan(inst, config.scan_cap)
    scan.jump(n0)
    t = inst.t
    ratio, grow = rec.tail_signs
    if just is not Justification.PRODUCT_MONOTONE_BEYOND:
        # the bound search's own past exit: |r| and |u_{n0}| - |t| on `side`
        side = 1 if just is Justification.RATIO_EXCEEDS_TARGET else -1
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
    if rec.asymptotic.is_balanced and relation == ("less" if side < 0 else "greater"):
        return []
    return [f"the tail moves from u_{n0} towards t and no order claim keeps it off t"]

