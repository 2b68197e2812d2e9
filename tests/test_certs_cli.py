import functools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import hgdecide
from hgdecide.certs import (
    FORMAT,
    certificate_dict,
    load_instance,
    parse_instance,
    serialize_certificate,
    verify_certificate,
)
from hgdecide.cli import decide_document, main
from hgdecide.corpus import FAMILIES, cross_check, generate_documents
from hgdecide.errors import ParseError
from hgdecide.polys import IntPoly
from hgdecide.sequence import HGInstance, Problem


def doc(p, q, u0, t, problem="membership", mode="auto"):
    return {"p": p, "q": q, "u0": u0, "t": t, "problem": problem, "mode": mode}


WORKED = doc([13, -4, 1], [5, -4, 1], "1", "1/13")
# a Schanuel-conditional holds: decreasing_tail_above_target, exit code 10
COND = doc([7, 0, 8, 0, 1], [6, 0, 5, 0, 1], "1", "1/100", "threshold")
# the worked pair's u_20, past k0 + 2 = 17: a prefix witness found after the order test
CROSSED = {**WORKED, "t": "37820626940981/502276968004066749"}
# u_n = 3 * 2^n passes 50: a divergence_bound verdict
DIVERGING = doc([1], [2], "3", "50")
# every key certificate_dict can write; a certificate holds those with a value
CERT_KEYS = (
    "format", "instance", "verdict", "reason", "conditionality", "witness", "scanned_up_to", "bound",
    "asymptotic", "canonical", "equality_rationale", "compare", "matching", "identity", "exit_code",
)
# the worked pair's canonical tuple: sinh(pi)/(39 sinh 3pi) = (1/39) x^2/(x^4 + x^2 + 1), x = e^pi
WORKED_TUPLE = {"theta": ["1/39", "0"], "ell": 0, "f": [0, 0, 1], "g": [1, 0, 1, 0, 1], "m": 1, "D": 1,
                "base_trivial": False}
# equality records that are not the ones verify rebuilds from the instance
REBUILT = "canonical tuple differs from the one rebuilt from the instance"
IDENTITY_REBUILT = "identity differs from the one rebuilt from the instance"
MATCHING_REBUILT = "matching differs from the one rebuilt from the instance"
# the product of two primes near 2^100
PQ = (2**100 + 277) * (2**100 + 331)


@functools.lru_cache(maxsize=1)
def seed_7_conditional_certificates():
    """(config, certificates): the Schanuel-conditional certificates of the
    seed-7 real-quadratic corpus, 300 documents decided under a scan cap of
    2 * 10^4; each carries a nonzero identity"""
    from hgdecide.config import EngineConfig

    config = EngineConfig(scan_cap=2 * 10**4)
    certs = [decide_document(parse_instance(d), config) for d in generate_documents(7, 300, "real-quadratic")]
    return config, [c for c in certs if c["conditionality"] == "conditional_on_schanuel"]


class TestDocuments:
    def test_round_trip(self):
        d = parse_instance(WORKED)
        assert d.to_dict() == WORKED
        again = parse_instance(d.to_dict())
        assert again.inst == d.inst and again.mode == d.mode

    @pytest.mark.parametrize(
        "broken,needle",
        [
            ({**WORKED, "t": "1/0"}, "t"),
            ({**WORKED, "u0": "x"}, "u0"),
            ({**WORKED, "p": []}, "p"),
            ({**WORKED, "p": [1, "a"]}, "p"),
            ({**WORKED, "problem": "reachability"}, "problem"),
            ({**WORKED, "mode": "magic"}, "mode"),
            ({**WORKED, "p": [-3, 1]}, "p/q"),
            ({**WORKED, "p": [13, -4, True]}, "p"),
            ({**WORKED, "q": [5, -4, True]}, "q"),
        ],
    )
    def test_diagnostics_name_the_field(self, broken, needle):
        with pytest.raises(ParseError) as exc:
            parse_instance(broken)
        assert needle in str(exc.value)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_instance({"p": [1, 1]})

    # a JSON float has already rounded the rational it stands for: 1/13
    # read through str() became 7692307692307693/10^17, a "not member"
    @pytest.mark.parametrize("key", ["u0", "t"])
    @pytest.mark.parametrize("val", [0.07692307692307692, 1.0, True])
    def test_float_or_bool_rational_refused(self, key, val):
        with pytest.raises(ParseError, match=f"{key}: must be a rational string or an integer"):
            parse_instance({**WORKED, key: val})

    def test_integer_rationals_parse(self):
        d = parse_instance({**WORKED, "u0": 3, "t": -2})
        assert d.inst.u0 == 3 and d.inst.t == -2

    # p = x - PQ: its root is found without factoring PQ
    def test_root_at_a_large_semiprime_is_refused(self, tmp_path, capsys):
        bad = {**WORKED, "p": [-PQ, 1]}
        with pytest.raises(ParseError, match=f"p vanishes at nonnegative integer {PQ}"):
            parse_instance(bad)
        f = tmp_path / "in.json"
        f.write_text(json.dumps(bad))
        assert main(["decide", str(f)]) == 3
        capsys.readouterr()

    def test_negative_root_at_a_large_semiprime_parses(self):
        d = parse_instance({**WORKED, "p": [3 * PQ, PQ + 3, 1]})
        assert d.inst.recurrence.p_roots == (-PQ, -3)


class TestCertificates:
    def test_engine_output_verifies(self):
        for d in [
            WORKED,
            doc([13, -4, 1], [5, -4, 1], "1", "1/26", "threshold"),
            doc([1], [2], "3", "48"),
            doc([2, 1], [1, 1], "1", "1/7"),
            doc([-1, -2, 1], [-4, -2, 1], "1", "3/7", mode="conditional"),
            doc([1, 1], [-3, 1], "2", "-6"),
        ]:
            din = parse_instance(d)
            cert = decide_document(din, __import__("hgdecide.config", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG)
            assert verify_certificate(cert) == [], (d, verify_certificate(cert))

    def test_tampered_witness_rejected(self):
        din = parse_instance(WORKED)
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(din, DEFAULT_CONFIG)
        cert["witness"] = 3
        assert verify_certificate(cert)

    # once a TypeError out of the replay ("2", 2.0) or read as 1 (true)
    @pytest.mark.parametrize("witness", ["2", 2.0, True, -1])
    def test_malformed_witness_rejected(self, witness):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(WORKED), DEFAULT_CONFIG)
        assert cert["witness"] == 2 and verify_certificate(cert) == []
        cert["witness"] = witness
        failures = verify_certificate(cert)
        assert any(f.startswith("witness invalid: ") for f in failures), failures

    def test_tampered_far_witness_ends_at_scan_cap(self):
        # u_0 = t, so the prefix check stops at once; the claimed index
        # 10^8 must then end the replay at the cap, not be scanned to
        from hgdecide.config import EngineConfig

        din = parse_instance(doc([1], [2], "3", "3"))
        cert = decide_document(din, EngineConfig(scan_cap=1000))
        assert cert["witness"] == 0
        cert["witness"] = 10**8
        failures = verify_certificate(cert, EngineConfig(scan_cap=1000))
        assert any("is not least" in f for f in failures)
        assert any("witness replay failed" in f and "exceeds cap" in f for f in failures)

    def test_witness_past_the_cap_is_not_called_unequal(self):
        # u_n = n + 1 meets t = 1501 at 1500: under cap 1000 the replay
        # tests u_1000 last, not u_1500, so it can only report the cap
        from hgdecide.config import EngineConfig

        cert = decide_document(parse_instance(doc([1, 1], [2, 1], "1", "1501")), EngineConfig(scan_cap=2000))
        assert (cert["verdict"], cert["witness"]) == ("member", 1500)
        assert verify_certificate(cert, EngineConfig(scan_cap=2000)) == []
        failures = verify_certificate(cert, EngineConfig(scan_cap=1000))
        assert any("witness replay failed" in f and "exceeds cap" in f for f in failures), failures
        assert not any("!= t" in f for f in failures), failures

    @pytest.mark.parametrize(
        "d,key,needle",
        [
            (WORKED, "witness", "witness invalid"),  # member
            (doc([13, -4, 1], [5, -4, 1], "1", "1/26", "threshold"), "witness", "witness invalid"),  # fails
            (doc([1], [2], "3", "50"), "bound", "carries no bound"),  # divergence_bound
            (doc([2, 1], [1, 1], "1", "1/7"), "bound", "carries no bound"),  # shrink_bound
        ],
    )
    def test_a_verdict_carries_what_it_rests_on(self, d, key, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert key in cert and verify_certificate(cert) == []
        del cert[key]
        failures = verify_certificate(cert)
        assert any(needle in f for f in failures), failures

    def test_flipped_and_stripped_certificates_fail(self):
        # every honest certificate verifies; flip its verdict and exit code,
        # strip its witness and bound, and write it under each of the 15
        # reasons in turn, and it must fail: each reason's own claim is
        # checked (521 of these 2250 rewrites once verified)
        from hgdecide.config import EngineConfig
        from hgdecide.verdicts import Reason

        config = EngineConfig(scan_cap=2 * 10**4)
        flip = {"member": "not_member", "not_member": "member", "holds": "fails", "fails": "holds"}
        tried, still = 0, []
        for family in FAMILIES:
            for d in generate_documents(7, 30, family):
                cert = decide_document(parse_instance(d), config)
                assert verify_certificate(cert, config) == [], d
                cert = {**cert, "verdict": flip[cert["verdict"]], "exit_code": cert["exit_code"] ^ 1}
                cert.pop("witness", None)
                cert.pop("bound", None)
                for reason in Reason:
                    tried += 1
                    if not verify_certificate({**cert, "reason": reason.value}, config):
                        still.append((reason.value, cert["verdict"]))
        assert tried == 2250 and still == []

    def test_canonical_class_rewritten_to_limit_equality_fails(self):
        # the same corpus: each balanced certificate whose pair has a
        # canonical constant, rewritten to its limit-equality verdict with
        # a trivial tuple whose theta is t and the derived fields to match.
        # verify rebuilds the tuple from the instance, so none verifies
        # (all 69 once did, 38 of them with the verdict flipped)
        from hgdecide.config import EngineConfig
        from hgdecide.equality import instance_case, limit_oracle
        from hgdecide.errors import DecideError

        config = EngineConfig(scan_cap=2 * 10**4)
        tried, flipped, still = 0, 0, []
        for family in FAMILIES:
            for d in generate_documents(7, 30, family):
                docin = parse_instance(d)
                inst = docin.inst
                if instance_case(inst) is not None or not inst.recurrence.asymptotic.is_balanced:
                    continue
                try:
                    limit_oracle(inst, config, False)
                except DecideError:
                    continue
                cert = decide_document(docin, config)
                membership = inst.problem is Problem.MEMBERSHIP
                forged = {k: v for k, v in cert.items() if k not in ("witness", "bound", "compare")}
                forged.update(
                    verdict="not_member" if membership else "holds",
                    reason="limit_equals_target_not_attained" if membership else "decreasing_tail_limit_equals_target",
                    canonical={"theta": [d["t"], "0"], "ell": 0, "f": [1], "g": [1], "m": 1, "D": 1,
                               "base_trivial": True},
                    equality_rationale="rational_identity", exit_code=1 if membership else 0,
                )
                tried += 1
                flipped += forged["verdict"] != cert["verdict"]
                if not verify_certificate(forged, config):
                    still.append(d)
        assert (tried, flipped, still) == (69, 38, [])

    def test_conditional_certificate_rewritten_to_identity_cancellation_fails(self):
        # the seed-7 real-quadratic corpus: each Schanuel-conditional
        # certificate rewritten to its limit-equality verdict, its identity's
        # term_count set to 0 and the derived fields to match, witness, bound
        # and compare removed.  verify rebuilds the identity from the
        # instance, so none verifies (all 26 once did)
        config, certs = seed_7_conditional_certificates()
        still = []
        for cert in certs:
            membership = cert["instance"]["problem"] == "membership"
            forged = {k: v for k, v in cert.items() if k not in ("witness", "bound", "compare")}
            forged.update(
                verdict="not_member" if membership else "holds",
                reason="limit_equals_target_not_attained" if membership else "decreasing_tail_limit_equals_target",
                identity={**cert["identity"], "term_count": 0}, equality_rationale="identity_cancellation",
                conditionality="unconditional", exit_code=1 if membership else 0,
            )
            if not verify_certificate(forged, config):
                still.append(cert["instance"])
        assert (len(certs), still) == (26, [])

    def test_nonzero_identity_of_another_count_or_pair_fails(self):
        # the same 26 certificates, each keeping its verdict and its
        # identity nonzero: the term count one higher, or the identity of
        # the next certificate whose pair differs.  A nonzero identity is
        # rebuilt from the instance, so none verifies (all 52 once did)
        config, certs = seed_7_conditional_certificates()
        pair = [(c["instance"]["p"], c["instance"]["q"]) for c in certs]
        still = []
        for k, cert in enumerate(certs):
            other = next(certs[j % 26] for j in range(k + 1, k + 26) if pair[j % 26] != pair[k])
            for identity in ({**cert["identity"], "term_count": cert["identity"]["term_count"] + 1},
                             other["identity"]):
                forged = {**cert, "identity": identity}
                if not verify_certificate(forged, config):
                    still.append((cert["instance"], identity))
        assert (len(certs), still) == (26, [])

    # a cancelling identity is rebuilt from the instance: the honest one of
    # p = f (x + 1)(x + 4), q = f (x + 2)(x + 3), f = x^2 - 2x - 1, at t = 3 u0
    # verifies, and is refused with another target; on a pair outside the
    # conditional oracle's class the rebuild fails, which is a failure of
    # the certificate, not a crash
    @pytest.mark.parametrize(
        "d,tamper,needle",
        [
            (doc([-4, -13, -7, 3, 1], [-6, -17, -5, 3, 1], "2", "6"), lambda c: c["identity"].update(target="7"),
             IDENTITY_REBUILT),
            (DIVERGING, lambda c: c.update(
                verdict="not_member", reason="limit_equals_target_not_attained", bound=None, asymptotic=None,
                identity={"term_count": 0}, equality_rationale="identity_cancellation",
            ), "identity not rebuilt: balanced instances need monic coefficients"),
        ],
        ids=["other-target", "non-monic"],
    )
    def test_forged_cancelling_identity_fails(self, d, tamper, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        tamper(cert)
        failures = verify_certificate({k: v for k, v in cert.items() if v is not None})
        assert needle in failures, failures

    # a nonzero identity is rebuilt from the instance too: the conditional
    # holds of COND (exit 10, an 8-term identity) once verified with its
    # identity cut to a term count.  stress_separated, the decision's own
    # evidence, is read and not rebuilt: a JSON bool on a nonzero identity,
    # absent from a cancelling one
    @pytest.mark.parametrize(
        "d,tamper,needle",
        [
            (COND, lambda c: c.update(identity={"term_count": 3}), IDENTITY_REBUILT),
            (COND, lambda c: c["identity"].update(stress_separated=1),
             "identity stress_separated 1 is not a JSON bool"),
            (COND, lambda c: c["identity"].pop("stress_separated"),
             "identity stress_separated None is not a JSON bool"),
            (doc([-4, -13, -7, 3, 1], [-6, -17, -5, 3, 1], "2", "6"),
             lambda c: c["identity"].update(stress_separated=True), IDENTITY_REBUILT),
        ],
        ids=["term-count-only", "stress-one", "stress-absent", "stress-on-cancelling"],
    )
    def test_forged_nonzero_identity_fails(self, d, tamper, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        if d is COND:
            assert (cert["verdict"], cert["exit_code"], cert["identity"]["term_count"]) == ("holds", 10, 8)
        tamper(cert)
        failures = verify_certificate(cert)
        assert needle in failures, failures

    def test_relabelled_conditionality_and_stripped_asymptotic_fail(self):
        # the same corpus: each certificate relabelled with the other
        # conditionality and its exit code moved by 10 to match, and each
        # asymptotic record stripped.  verify recomputes both fields, so
        # none verifies (all 150 and all 147 once did)
        from hgdecide.config import EngineConfig

        config = EngineConfig(scan_cap=2 * 10**4)
        other = {
            "unconditional": ("conditional_on_schanuel", 10), "conditional_on_schanuel": ("unconditional", -10),
        }
        relabelled, stripped = [], []
        for family in FAMILIES:
            for d in generate_documents(7, 30, family):
                cert = decide_document(parse_instance(d), config)
                label, move = other[cert["conditionality"]]
                relabelled.append(verify_certificate(
                    {**cert, "conditionality": label, "exit_code": cert["exit_code"] + move}, config,
                ))
                if "asymptotic" in cert:
                    stripped.append(verify_certificate({k: cert[k] for k in cert if k != "asymptotic"}, config))
        assert (len(relabelled), len(stripped)) == (150, 147)
        assert all(relabelled) and all(stripped)

    # honest certificates whose derived fields are rewritten: the
    # conditional holds of p = x^4 + 8x^2 + 7, q = x^4 + 5x^2 + 6 at
    # Threshold t = 1/100 (its identity has 8 terms), the worked pair's
    # monotone tail at t = 1/100, and a zero tail given a class
    @pytest.mark.parametrize(
        "d,tamper,needle",
        [
            (COND, lambda c: c.update(conditionality="unconditional", exit_code=0),
             "conditionality 'unconditional' is not the recomputed 'conditional_on_schanuel'"),
            (COND, lambda c: c.update(equality_rationale="identity_cancellation"),
             "equality rationale 'identity_cancellation' is not the recomputed 'identity_nonzero'"),
            (COND, lambda c: c.update(equality_rationale="pi_power_obstruction"),
             "equality rationale 'pi_power_obstruction' is not the recomputed 'identity_nonzero'"),
            (COND, lambda c: c.update(equality_rationale="no_such_rationale"),
             "equality rationale 'no_such_rationale' is not the recomputed 'identity_nonzero'"),
            (COND, lambda c: c.pop("equality_rationale"), "equality rationale None is not the recomputed"),
            ({**WORKED, "t": "1/100"}, lambda c: c["asymptotic"].update(variant="diverges_to_infinity"),
             "asymptotic {'variant': 'diverges_to_infinity', 'exponent': '0'} is not the recomputed"),
            (doc([1, 1], [-3, 1], "1", "5"), lambda c: c.update(asymptotic={"variant": "ratio_limit_one"}),
             "asymptotic {'variant': 'ratio_limit_one'} is not the recomputed None"),
        ],
        ids=["relabelled-unconditional", "cancellation", "pi-power", "unknown-rationale", "no-rationale",
             "diverging-class", "zero-tail-class"],
    )
    def test_derived_field_rewritten_fails(self, d, tamper, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        assert cert["reason"] in ("decreasing_tail_above_target", "monotone_tail_excludes_target", "zero_tail")
        assert cert["exit_code"] == (10 if d is COND else 1)
        tamper(cert)
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    NO_INTEGER = "compare invalid: precision_bits: must be an integer"

    # a compare record names less or greater and a ladder rung from 64 bits
    # to the precision cap, and comes exactly with an equality record that
    # does not find L = t: each of these once verified (CROSSED rests on
    # no compare record)
    @pytest.mark.parametrize(
        "d,tamper,needle",
        [
            (COND, lambda c: c["compare"].update(precision_bits="x"), NO_INTEGER),
            (COND, lambda c: c["compare"].update(precision_bits=10**9), "compare precision_bits 1000000000 lies"),
            (COND, lambda c: c["compare"].update(precision_bits=3), "compare precision_bits 3 lies outside 64"),
            (COND, lambda c: c["compare"].update(precision_bits=True), NO_INTEGER),
            (COND, lambda c: c["compare"].update(precision_bits=64.0), NO_INTEGER),
            (COND, lambda c: c["compare"].update(precision_bits=None), NO_INTEGER),
            (COND, lambda c: c["compare"].pop("precision_bits"), "compare invalid: must be an object"),
            (COND, lambda c: c["compare"].update(relation="equal"), "compare relation 'equal' is neither"),
            (CROSSED, lambda c: c.pop("compare"), "a compare record comes exactly with"),
            (DIVERGING, lambda c: c.update(compare={"relation": "greater", "precision_bits": 64}),
             "a compare record comes exactly with"),
        ],
        ids=["string", "past-the-cap", "below-64", "true", "float", "null", "missing", "equal", "dropped",
             "divergence-bound"],
    )
    def test_compare_record_of_the_wrong_shape_fails(self, d, tamper, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        assert ("compare" in cert) == (d is not DIVERGING)
        tamper(cert)
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    def test_canonical_and_identity_records_together_fail(self):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance({**WORKED, "t": "1/100000"}), DEFAULT_CONFIG)
        assert "canonical" in cert and verify_certificate(cert) == []
        cert["identity"] = decide_document(parse_instance(COND), DEFAULT_CONFIG)["identity"]
        assert verify_certificate(cert) == [IDENTITY_REBUILT]

    def test_worked_member_rewritten_with_a_trivial_tuple_fails(self):
        # the worked pair's member at 2, rewritten as not_member by
        # limit_equals_target_not_attained with the tuple theta = t = 1/13
        # (this once verified)
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(WORKED), DEFAULT_CONFIG)
        assert (cert["verdict"], cert["witness"]) == ("member", 2)
        del cert["witness"]
        cert.update(
            verdict="not_member", exit_code=1, reason="limit_equals_target_not_attained",
            equality_rationale="rational_identity",
            canonical={"theta": ["1/13", "0"], "ell": 0, "f": [1], "g": [1], "m": 1, "D": 1, "base_trivial": True},
        )
        assert REBUILT in verify_certificate(cert)

    def test_canonical_record_of_another_instance_fails(self):
        # the worked pair's monotone tail at t = 10^-5 carrying the record of
        # another Gaussian pair, p = x^2 - 4x + 8, q = x^2 - 4x + 5, whose
        # limit is not t either (this once verified)
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance({**WORKED, "t": "1/100000"}), DEFAULT_CONFIG)
        other = decide_document(parse_instance(doc([8, -4, 1], [5, -4, 1], "1", "1/100000")), DEFAULT_CONFIG)
        assert cert["canonical"] == WORKED_TUPLE and other["canonical"] != WORKED_TUPLE
        assert other["equality_rationale"] == cert["equality_rationale"] == "transcendence_obstruction"
        assert verify_certificate(other) == []
        assert verify_certificate({**cert, "canonical": other["canonical"]}) == [REBUILT]

    # a witness-less verdict of a zero tail or a Threshold t = 0 replays
    # the prefix that holds the case's answer: p = x + 1, q = x - 3,
    # Membership t = 3 is member at 2 (its zero tail starts past u_4), and
    # p = 16x^4 + x^3 + x^2 + x + 1, q = (2x - 3)(2x - 5)(2x - 9)(2x - 11),
    # Threshold t = 0 fails at 3 (k1 = 139).  Rewritten as not_member and as
    # holds with the bound k1, each once verified
    @pytest.mark.parametrize(
        "d,verdict,needle",
        [
            (doc([1, 1], [-3, 1], "1", "3"), "not_member", "witness u_2 = t lies in the prefix through u_4"),
            (
                doc([1, 1, 1, 1, 16], [1485, -2184, 1096, -224, 16], "1", "0", "threshold"), "holds",
                "violation u_3 < t lies in the prefix through u_139",
            ),
        ],
        ids=["zero-tail", "sign-analysis"],
    )
    def test_witness_less_case_verdict_replays_its_prefix(self, d, verdict, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert cert["reason"] in ("zero_tail", "sign_analysis") and verify_certificate(cert) == []
        del cert["witness"]
        cert.update(verdict=verdict, exit_code=1 - cert["exit_code"])
        if verdict == "holds":
            cert.update(bound={"n": 139, "justification": "product_monotone_beyond"}, scanned_up_to=139)
        assert verify_certificate(cert) == [needle]

    def test_case_prefix_past_the_cap_is_a_resource_limit(self):
        # the worked pair at Threshold t = 0 holds with the bound k1 = 15;
        # under a cap of 10 neither its prefix nor its bound is replayed
        from hgdecide.config import DEFAULT_CONFIG, EngineConfig

        cert = decide_document(parse_instance({**WORKED, "t": "0", "problem": "threshold"}), DEFAULT_CONFIG)
        assert (cert["verdict"], cert["bound"]["n"]) == ("holds", 15) and verify_certificate(cert) == []
        failures = verify_certificate(cert, EngineConfig(scan_cap=10))
        assert "prefix replay failed: scan index 11 exceeds cap 10" in failures, failures

    # the worked pair's member certificate, rewritten as not_member with no
    # witness: each of these reasons once verified it
    @pytest.mark.parametrize(
        "reason,needle",
        [
            ("terms_never_zero", "the instance gives no terms_never_zero not_member verdict"),
            ("monotone_tail_excludes_target", "a monotone_tail_excludes_target certificate carries no bound"),
            ("limit_equals_target_not_attained", "the equality record does not find L = t"),
            ("sign_analysis", "reason sign_analysis never gives a not_member verdict"),
            ("zero_tail", "the instance gives no zero_tail not_member verdict"),
        ],
    )
    def test_member_rewritten_as_not_member_fails(self, reason, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(WORKED), DEFAULT_CONFIG)
        assert (cert["verdict"], cert["witness"]) == ("member", 2)
        cert = {**cert, "verdict": "not_member", "exit_code": 1, "reason": reason}
        del cert["witness"]
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    # one honest certificate per reason, and the claim it rests on taken
    # away: the instance's case (an instance the reason does not fit), a
    # bound, an order claim or an equality record (a witness for the two
    # prefix reasons)
    CLAIMS = [
        (doc([5, 1], [5, 1], "0", "8"), "zero_sequence", "not_member", lambda c: c["instance"].update(u0="1")),
        (doc([5, 1], [5, 1], "7", "7"), "constant_sequence", "member", lambda c: c["instance"].update(q=[6, 1])),
        (doc([1, 1], [-3, 1], "2", "5"), "zero_tail", "not_member", lambda c: c["instance"].update(q=[-3, 2])),
        ({**WORKED, "t": "0"}, "terms_never_zero", "not_member", lambda c: c["instance"].update(t="1/7")),
        ({**WORKED, "t": "0", "problem": "threshold"}, "sign_analysis", "holds", lambda c: c.pop("bound")),
        (
            {**WORKED, "u0": "-1", "t": "0", "problem": "threshold"}, "sign_analysis", "fails",
            lambda c: c["instance"].update(t="-1/2"),
        ),
        (doc([1], [2], "3", "50"), "divergence_bound", "not_member", lambda c: c.pop("bound")),
        (doc([2, 1], [1, 1], "1", "1/7"), "shrink_bound", "member", lambda c: c.pop("bound")),
        (WORKED, "prefix_witness", "member", lambda c: c.pop("witness")),
        ({**WORKED, "t": "1/26", "problem": "threshold"}, "prefix_violation", "fails", lambda c: c.pop("witness")),
        (doc([4, 5, 1], [6, 5, 1], "1", "1/2", "threshold"), "increasing_tail", "holds", lambda c: c.pop("bound")),
        ({**WORKED, "t": "1/100000"}, "monotone_tail_excludes_target", "not_member", lambda c: c.pop("bound")),
        (
            doc([6, 5, 1], [4, 5, 1], "1", "1/4", "threshold"), "decreasing_tail_above_target", "holds",
            lambda c: c.pop("compare"),
        ),
        (
            {**WORKED, "t": "-1", "problem": "threshold"}, "decreasing_tail_above_target", "holds",
            lambda c: c.pop("bound"),
        ),
        (
            doc([6, 5, 1], [4, 5, 1], "1", "1001/3000", "threshold"), "decreasing_tail_below_target", "fails",
            lambda c: c["compare"].update(relation="greater"),
        ),
        (
            doc([6, 5, 1], [4, 5, 1], "1", "1/3", "threshold"), "decreasing_tail_limit_equals_target", "holds",
            lambda c: c.pop("canonical"),
        ),
        (
            doc([4, 5, 1], [6, 5, 1], "1", "3"), "limit_equals_target_not_attained", "not_member",
            lambda c: c.pop("canonical"),
        ),
        (
            doc([-4, -13, -7, 3, 1], [-6, -17, -5, 3, 1], "2", "6"), "limit_equals_target_not_attained",
            "not_member", lambda c: c.pop("identity"),
        ),
    ]

    @pytest.mark.parametrize("d,reason,verdict,remove", CLAIMS, ids=[f"{r}-{v}" for _, r, v, _ in CLAIMS])
    def test_each_reason_rests_on_its_claim(self, d, reason, verdict, remove):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert (cert["reason"], cert["verdict"]) == (reason, verdict)
        assert verify_certificate(cert) == []
        remove(cert)
        assert verify_certificate(cert)

    # forged equality records: a count that only compares equal to 0, a
    # canonical tuple of another limit (not the one rebuilt from the
    # instance), and a canonical tuple where the instance has no canonical
    # constant: under t = 0 (which decide_equal refuses), u0 = 0 (which
    # scale refuses) or roots in several quadratic fields (COND's pair,
    # whose rebuilt oracle is the conditional one).  Each fails and never
    # raises
    @pytest.mark.parametrize(
        "d,tamper,needle",
        [
            (
                doc([-4, -13, -7, 3, 1], [-6, -17, -5, 3, 1], "2", "6"),
                lambda c: c["identity"].update(term_count=False), IDENTITY_REBUILT,
            ),
            (
                doc([-4, -13, -7, 3, 1], [-6, -17, -5, 3, 1], "2", "6"),
                lambda c: c["identity"].update(term_count=0.0), IDENTITY_REBUILT,
            ),
            (
                doc([4, 5, 1], [6, 5, 1], "1", "3"),
                lambda c: c["canonical"].update(theta=["4", "0"]), REBUILT,
            ),
            (
                doc([6, 5, 1], [4, 5, 1], "1", "1/4", "threshold"),
                lambda c: c["canonical"].update(theta=["1/4", "0"]), REBUILT,
            ),
            (
                doc([4, 5, 1], [6, 5, 1], "1", "3"),
                lambda c: c["instance"].update(t="0"), "canonical tuple not rebuilt: decide_equal expects a nonzero",
            ),
            (
                doc([4, 5, 1], [6, 5, 1], "1", "3"),
                lambda c: c["instance"].update(u0="0"),
                "canonical tuple not rebuilt: scaling a canonical constant by zero",
            ),
            (COND, lambda c: c.update(identity=None, canonical=WORKED_TUPLE), REBUILT),
        ],
    )
    def test_forged_equality_record_fails(self, d, tamper, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        tamper(cert)
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    @pytest.mark.parametrize("value", [True, -1, "5", 10**6 + 1])
    def test_scanned_up_to_is_an_index_within_the_cap(self, value):
        # README: scanned_up_to never passes the scan cap; verify once never read it
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(WORKED), DEFAULT_CONFIG)
        assert cert["scanned_up_to"] == 2 and verify_certificate(cert) == []
        cert["scanned_up_to"] = value
        failures = verify_certificate(cert)
        assert failures and all(f.startswith("scan") for f in failures), failures

    # each once verified: a prefix witness claims a member, p != q is no
    # constant sequence, and no decision writes the reason "bogus"
    @pytest.mark.parametrize(
        "d,reason,needle",
        [
            ({**WORKED, "t": "1/7"}, "prefix_witness", "reason prefix_witness never gives a not_member verdict"),
            ({**WORKED, "t": "1/7"}, "constant_sequence", "the instance gives no constant_sequence"),
            (doc([5, 1], [5, 1], "7", "8"), "bogus", "unknown reason 'bogus'"),
            (doc([5, 1], [5, 1], "0", "8"), "constant_sequence", "the instance gives no constant_sequence"),
            (doc([5, 1], [5, 1], "7", "8"), "zero_sequence", "the instance gives no zero_sequence"),
        ],
    )
    def test_reason_binds_its_verdict(self, d, reason, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert cert["verdict"] == "not_member" and verify_certificate(cert) == []
        cert["reason"] = reason
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    @pytest.mark.parametrize(
        "p,u0,t,problem,verdict",
        [
            ([5, 1], "7", "7", "membership", "member"),
            ([5, 1], "7", "8", "threshold", "fails"),
            ([5, 1], "-7", "-8", "threshold", "holds"),
        ],
    )
    def test_constant_sequence_verdict_is_recomputed(self, p, u0, t, problem, verdict):
        # u_n = u0: the flipped verdict, with its witness 0 kept where it
        # needs one, fails against u0 itself
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(doc(p, p, u0, t, problem)), DEFAULT_CONFIG)
        assert (cert["reason"], cert["verdict"]) == ("constant_sequence", verdict)
        assert verify_certificate(cert) == []
        flip = {"member": "not_member", "holds": "fails", "fails": "holds"}[verdict]
        cert = {**cert, "verdict": flip, "exit_code": cert["exit_code"] ^ 1, "witness": 0}
        assert "the instance gives no constant_sequence " + flip + " verdict" in verify_certificate(cert)

    def test_crossing_witness_at_the_scan_cap(self, tmp_path, capsys):
        # the worked pair's balanced crossing meets t = u_25 at the cap
        # itself: the witness ends the search there.  u_n = (n + 3)/3 meets
        # t = 11 at the cap 30 too, but its divergence bound lies at 31;
        # u_n = 2^n meets t = 32 at 5, but with p = x + 10^7 its bound lies
        # past k1 = 10^7 + 2, far past the cap
        from hgdecide.config import EngineConfig
        from hgdecide.sequence import BruteKind, BruteResult, brute_force, term

        config = EngineConfig(scan_cap=25)
        din = parse_instance({**WORKED, "t": str(term(parse_instance(WORKED).inst, 25))})
        cert = decide_document(din, config)
        assert (cert["verdict"], cert["witness"]) == ("member", 25)
        assert brute_force(din.inst, 26) == BruteResult(BruteKind.FOUND_MEMBERSHIP, index=25)
        assert verify_certificate(cert, config) == []
        f = tmp_path / "in.json"
        for p, q, t, cap in (([3, 1], [4, 1], "11", 30), ([10**7, 1], [2 * 10**7, 2], "32", 1000)):
            f.write_text(json.dumps(doc(p, q, "1", t)))
            assert main(["--scan-cap", str(cap), "decide", str(f)]) == 4
            assert f"scan index {cap + 1} exceeds cap {cap}" in capsys.readouterr().err

    def test_tampered_far_bound_ends_at_scan_cap(self, tmp_path, capsys):
        from hgdecide.config import EngineConfig

        din = parse_instance(doc([1], [2], "3", "50"))  # u_n = 3 * 2^n
        cert = decide_document(din, EngineConfig(scan_cap=1000))
        assert cert["bound"]["justification"] == "ratio_exceeds_target"
        n0 = cert["bound"]["n"]
        # a true bound at the cap still verifies
        assert verify_certificate(cert, EngineConfig(scan_cap=n0)) == []
        cert["bound"]["n"] = 200_000
        failures = verify_certificate(cert, EngineConfig(scan_cap=1000))
        assert any("bound replay failed" in f and "exceeds cap" in f for f in failures)
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(cert))
        assert main(["--scan-cap", "1000", "verify", str(f)]) == 1
        assert "exceeds cap" in capsys.readouterr().out

    def test_tampered_exit_code_rejected(self):
        din = parse_instance(WORKED)
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(din, DEFAULT_CONFIG)
        cert["exit_code"] = 11
        assert any("exit code" in p for p in verify_certificate(cert))

    # JSON true and 1.0 compare equal to 1, false and 0.0 to 0: the worked
    # pair's not_member (t = 1/7) and member (t = 1/13) certificates once
    # verified with these in place of their exit codes
    @pytest.mark.parametrize("t,value", [("1/7", True), ("1/7", 1.0), ("1/13", False), ("1/13", 0.0)])
    def test_exit_code_must_be_a_json_integer(self, t, value):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance({**WORKED, "t": t}), DEFAULT_CONFIG)
        assert cert["exit_code"] == value and verify_certificate(cert) == []
        cert["exit_code"] = value
        assert any("exit code" in p for p in verify_certificate(cert))

    def test_conditional_oracle_under_unconditional_mode_rejected(self):
        # a decision under mode "unconditional" never builds the
        # conditional oracle, so the rebuild under that mode refuses each
        # certificate that carries its records: two seed-11 conditional
        # verdicts, and an unconditional Equal of that oracle,
        # p = f (x + 1)(x + 4), q = f (x + 2)(x + 3), f = x^2 - 2x - 1,
        # with the limit 3 u0 = t
        from hgdecide.config import DEFAULT_CONFIG

        docs = generate_documents(11, 20, "real-quadratic")
        docs.append(doc([-4, -13, -7, 3, 1], [-6, -17, -5, 3, 1], "2", "6"))
        certs = [decide_document(parse_instance(d), DEFAULT_CONFIG) for d in docs]
        built = [c for c in certs if "matching" in c]
        assert [c["exit_code"] for c in built] == [11, 11, 1]
        assert built[-1]["equality_rationale"] == "identity_cancellation"
        for cert in built:
            assert verify_certificate(cert) == []
            cert["instance"]["mode"] = "unconditional"
            failures = verify_certificate(cert)
            assert failures[0].startswith("identity not rebuilt: "), failures

    # int() would read each of these as a well-formed tuple of the worked
    # example (f = x^2 or 1, ell = 1, m = D = 1); the malformed theta and
    # base_trivial entries once escaped replay as TypeError, AttributeError
    # or ZeroDivisionError, or read the string "no" as true.  The record is
    # compared as JSON text with the one rebuilt from the instance, so each
    # differs from it
    @pytest.mark.parametrize(
        "key,value",
        [
            ("f", [0.5, 0, 1.9]),
            ("f", "100"),
            ("f", [True, False, True]),
            ("g", [1, 0, 1, 0, 1.0]),
            ("ell", 1.7),
            ("m", True),
            ("D", 1.0),
            ("theta", [1, 0]),
            ("theta", 5),
            ("theta", ["1", "0", "0"]),
            ("theta", ["1/0", "0"]),
            ("base_trivial", "no"),
        ],
    )
    def test_tampered_canonical_entry_rejected(self, key, value):
        from hgdecide.config import DEFAULT_CONFIG

        # the worked pair falls to L ~ 4.78e-5, so t = 10^-5 below it is
        # excluded by the limit (monotone_tail_excludes_target), and the
        # certificate carries it
        cert = decide_document(parse_instance({**WORKED, "t": "1/100000"}), DEFAULT_CONFIG)
        assert cert["canonical"] is not None
        assert verify_certificate(cert) == []
        cert["canonical"][key] = value
        assert REBUILT in verify_certificate(cert)

    # each of these once crashed `verify` (exit 5): a top-level value that
    # is not an object (AttributeError), no instance (KeyError), a verdict
    # that cannot be hashed (TypeError) and a canonical entry that is not
    # an object (TypeError in the canonical replay); the last row, a
    # verdict of the other problem, fails only the verdict name check
    @pytest.mark.parametrize(
        "tamper",
        [
            lambda cert: None,
            lambda cert: [cert],
            lambda cert: {k: v for k, v in cert.items() if k != "instance"},
            lambda cert: {**cert, "verdict": ["member"]},
            lambda cert: {**cert, "verdict": {"member": True}},
            lambda cert: {**cert, "canonical": "theta"},
            lambda cert: {**cert, "canonical": ["1", "0"]},
            lambda cert: {**cert, "verdict": "holds"},
        ],
        ids=[
            "null", "list", "no-instance", "verdict-list", "verdict-object", "canonical-string",
            "canonical-list", "verdict-of-the-other-problem",
        ],
    )
    def test_malformed_certificate_fails(self, tmp_path, capsys, tamper):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(WORKED), DEFAULT_CONFIG)
        assert cert["verdict"] == "member" and verify_certificate(cert) == []
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(tamper(cert)))
        assert main(["verify", str(f)]) == 1
        assert capsys.readouterr().out.startswith("FAIL: ")

    def test_no_field_value_crashes_the_replay(self):
        # a member, a canonical and a matching certificate, each field in
        # turn (every key a certificate can hold, present or not, and those
        # of instance, bound, compare, canonical and identity) set to each
        # JSON kind
        from hgdecide.config import DEFAULT_CONFIG

        certs = [
            decide_document(parse_instance(d), DEFAULT_CONFIG)
            for d in (WORKED, {**WORKED, "t": "1/100000"}, doc([-1, -2, 1], [-4, -2, 1], "1", "-3"))
        ]
        assert certs[1]["canonical"] and certs[1]["compare"] and certs[1]["bound"] and certs[2]["matching"]
        for cert in certs:
            assert set(cert) <= set(CERT_KEYS)
            paths = [(key,) for key in CERT_KEYS] + [
                (key, sub)
                for key in ("instance", "bound", "compare", "canonical", "identity")
                if isinstance(cert.get(key), dict)
                for sub in cert[key]
            ]
            for path in paths:
                for value in (None, 0, -1, "x", [], {}, True, 1.5):
                    tampered = json.loads(json.dumps(cert))
                    entry = tampered
                    for key in path[:-1]:
                        entry = entry[key]
                    entry[path[-1]] = value
                    assert isinstance(verify_certificate(tampered), list), (cert["verdict"], path, value)

    # the conditional certificate of p = x^2 - 2x - 1, q = x^2 - 2x - 4,
    # t = -3 carries a matching per side; a malformed source once crashed
    # replay (exit 5), a float was truncated, and any source verified.
    # Each entry is the record the search writes again, so a bad source
    # is a record that differs
    @pytest.mark.parametrize(
        "side,entry",
        [("p", {"source": ["x", 1]}), ("p", 5), ("p", {"source": [-1.5, -2, 1]}), ("q", {"source": [1, 0, 1]})],
        ids=["string-coefficient", "not-an-object", "fractional-coefficient", "another-source"],
    )
    def test_tampered_matching_entry_rejected(self, side, entry):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(doc([-1, -2, 1], [-4, -2, 1], "1", "-3")), DEFAULT_CONFIG)
        assert cert["matching"] is not None
        assert verify_certificate(cert) == []
        cert["matching"][side] = {**cert["matching"][side], **entry} if isinstance(entry, dict) else entry
        assert verify_certificate(cert) == [MATCHING_REBUILT]

    # the same certificate; a matching once verified on its pair count alone
    @pytest.mark.parametrize(
        "side,tamper",
        [
            ("p", lambda pairs: [{**pairs[0], "rho": "7/2"}]),
            ("q", lambda pairs: [{**pairs[0], "u": "f0.r0.c1"}]),
            ("p", lambda pairs: [{**pairs[0], "v": "bogus"}]),
            ("q", lambda pairs: pairs[1:]),
            ("p", lambda pairs: 5),
        ],
        ids=["rho", "label", "bogus-label", "dropped-pair", "not-a-list"],
    )
    def test_tampered_matching_pairs_rejected(self, side, tamper):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(doc([-1, -2, 1], [-4, -2, 1], "1", "-3")), DEFAULT_CONFIG)
        entry = cert["matching"][side]
        assert len(entry["pairs"]) == 1 and verify_certificate(cert) == []
        entry["pairs"] = tamper(entry["pairs"])
        failures = verify_certificate(cert)
        assert MATCHING_REBUILT in failures, failures

    # the same certificate: a side with no entry once went unchecked, so an
    # empty matching verified; 1.0 and true compare equal to 1 in Python
    @pytest.mark.parametrize(
        "tamper",
        [
            lambda m: {},
            lambda m: {"p": m["p"]},
            lambda m: {**m, "p": {**m["p"], "source": [-1.0, -2, 1]}},
            lambda m: {**m, "q": {**m["q"], "source": [-4, -2, True]}},
        ],
        ids=["empty", "no-q", "float-source", "bool-source"],
    )
    def test_matching_must_hold_both_records(self, tamper):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(doc([-1, -2, 1], [-4, -2, 1], "1", "-3")), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        cert["matching"] = tamper(cert["matching"])
        assert verify_certificate(cert) == [MATCHING_REBUILT]

    @pytest.mark.parametrize(
        "p,q,t,problem,n,justification,failure",
        [
            # q - p = 10^6 (1055 - x) changes sign at 1055: |u_n| exceeds
            # t = 2^4009 on 1000..1050 but is below it at n = 1133
            (
                [1, 0, 0, 1], [1 + 1055 * 10**6, -(10**6), 0, 1], str(2**4009), "threshold",
                1000, "ratio_exceeds_target", "below the monotonicity index",
            ),
            # u_n = 1/(n + 1) falls below 1/1000, u_n = n + 1 passes 1000
            ([2, 1], [1, 1], "1/1000", "membership", 10, "ratio_exceeds_target", "|r(k)| <= 1"),
            ([1, 1], [2, 1], "1000", "membership", 10, "tail_below_target", "|r(k)| >= 1"),
            # u_n = (-1)^n (n + 1): u_4 = 5 >= t, but the odd terms pass -1000
            ([1, 1], [-2, -1], "-1000", "threshold", 4, "product_monotone_beyond", "r(k) < 0"),
            # bounds before the crossing: u_n = 2^n passes t = 50 at 6,
            # u_n = 2^-n passes t = 1/50 at 6
            ([1], [2], "50", "membership", 3, "ratio_exceeds_target", "|u_3| <= |t| at a divergence bound"),
            ([2], [1], "1/50", "membership", 3, "tail_below_target", "|u_3| >= |t| at a shrink bound"),
            # a monotone-tail bound on a witness: u_10 = 11 for u_n = n + 1
            ([1, 1], [2, 1], "11", "membership", 10, "product_monotone_beyond", "u_10 = t at the exclusion"),
            ([1, 1], [2, 1], "12", "threshold", 10, "product_monotone_beyond", "u_10 < t at a monotone-tail"),
            # u_n = 2^n passes 50 from n = 6 on, but the index is no integer
            ([1], [2], "50", "membership", True, "ratio_exceeds_target", "bound index invalid"),
            ([1], [2], "50", "membership", "10", "ratio_exceeds_target", "bound index invalid"),
            ([1], [2], "50", "membership", 10.0, "ratio_exceeds_target", "bound index invalid"),
        ],
    )
    def test_forged_bound_rejected(self, p, q, t, problem, n, justification, failure):
        from hgdecide.verdicts import Reason, Verdict

        din = parse_instance(doc(p, q, "1", t, problem))
        # holds or not_member: the bound claims no witness from n on, under
        # the reason that writes its justification
        result = din.inst.problem.value == "threshold"
        reason = {
            "ratio_exceeds_target": "divergence_bound",
            "tail_below_target": "shrink_bound",
            "product_monotone_beyond": "increasing_tail" if result else "monotone_tail_excludes_target",
        }[justification]
        forged = Verdict(din.inst.problem, result, Reason(reason), bound=n, scanned_up_to=n)
        cert = certificate_dict(din, forged)
        assert cert["bound"]["justification"] == justification
        failures = verify_certificate(cert)
        assert any(failure in f for f in failures), failures

    # honest certificates whose bound is rewritten: a justification that is
    # not the reason's own, and a bound under a reason that writes none
    @pytest.mark.parametrize(
        "d,reason,n,tamper,needle",
        [
            (
                doc([1, 1], [3, 1], "1", "1000"), "divergence_bound", 44,
                lambda c: c["bound"].update(justification="product_monotone_beyond"),
                "bound justification 'product_monotone_beyond' is not divergence_bound's ratio_exceeds_target",
            ),
            (
                {**WORKED, "t": "1/100"}, "monotone_tail_excludes_target", 17,
                lambda c: c["bound"].update(justification="tail_below_target"),
                "bound justification 'tail_below_target' is not monotone_tail_excludes_target's",
            ),
            (
                WORKED, "prefix_witness", None,
                lambda c: c.update(bound={"n": 17, "justification": "product_monotone_beyond"}),
                "reason prefix_witness never writes a bound",
            ),
        ],
        ids=["divergence-as-monotone", "monotone-as-shrink", "witness-with-bound"],
    )
    def test_bound_its_reason_never_writes_rejected(self, d, reason, n, tamper, needle):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
        assert (cert["reason"], cert.get("bound", {}).get("n")) == (reason, n)
        assert verify_certificate(cert) == []
        tamper(cert)
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    # a matching whose source is the instance's own p, but which the
    # matching search cannot rebuild: p of degree 17 is past its cap, and
    # x^4 - 4x^2 - 8x + 2 has no perfect matching
    @pytest.mark.parametrize(
        "p,q,needle",
        [
            ([7] + [0] * 16 + [1], [5] + [0] * 16 + [1],
             "matching not rebuilt: factorization supported up to degree 16; got 17"),
            ([2, -8, -4, 0, 1], [6, -8, -4, 0, 1], "matching not rebuilt: p lacks a perfect root matching"),
        ],
    )
    def test_matching_the_search_cannot_rebuild_rejected(self, p, q, needle):
        from hgdecide.verdicts import Reason, Verdict

        din = parse_instance(doc(p, q, "1", "1/2"))
        claimed = Verdict(din.inst.problem, False, Reason.LIMIT_EQUALS_TARGET_NOT_ATTAINED)
        cert = certificate_dict(din, claimed)
        cert["matching"] = {"p": {"source": p, "pairs": []}}
        failures = verify_certificate(cert)
        assert any(f.startswith(needle) for f in failures), failures

    def test_falling_positive_tail_above_zero_target_verifies(self):
        # t = 0: the worked pair's tail falls but stays positive
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(
            parse_instance({**WORKED, "t": "0", "problem": "threshold"}), DEFAULT_CONFIG
        )
        assert cert["verdict"] == "holds"
        assert cert["bound"]["justification"] == "product_monotone_beyond"
        assert verify_certificate(cert) == []

    def test_tail_moving_towards_target_needs_the_order_claim(self):
        # the worked pair falls towards its limit, about 4.8e-5 > t = 10^-5:
        # only the limit's side of t keeps the tail past the bound off t
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(parse_instance({**WORKED, "t": "1/100000"}), DEFAULT_CONFIG)
        assert cert["reason"] == "monotone_tail_excludes_target"
        assert cert["compare"]["relation"] == "greater"
        assert verify_certificate(cert) == []
        cert["compare"]["relation"] = "less"
        assert any("no order claim" in f for f in verify_certificate(cert))
        for malformed in (None, "greater"):
            cert["compare"] = malformed
            assert any("no order claim" in f for f in verify_certificate(cert))
        cert["bound"] = [cert["bound"]["n"]]
        assert "bound invalid" in verify_certificate(cert)

    def test_monotone_bound_on_falling_threshold_tail_rejected(self):
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(
            parse_instance({**WORKED, "t": "1/100000", "problem": "threshold"}), DEFAULT_CONFIG
        )
        assert cert["reason"] == "decreasing_tail_above_target" and "bound" not in cert
        cert["bound"] = {"n": cert["scanned_up_to"], "justification": "product_monotone_beyond"}
        assert any("the tail falls" in f for f in verify_certificate(cert))

    def test_serialization_deterministic(self):
        from hgdecide.config import DEFAULT_CONFIG

        din = parse_instance(WORKED)
        a = certificate_dict(din, __import__("hgdecide.equality", fromlist=["decide"]).decide(din.inst, DEFAULT_CONFIG))
        b = certificate_dict(din, __import__("hgdecide.equality", fromlist=["decide"]).decide(din.inst, DEFAULT_CONFIG))
        assert serialize_certificate(a) == serialize_certificate(b)


GOLDEN_SEED_11 = "4c360edf372f438d0904f512122e08ccf89ba1b3dbb17ceb2beb5a62fd8d14fc"


class TestCorpus:
    def test_deterministic(self):
        a = generate_documents(7, 20, "all")
        b = generate_documents(7, 20, "all")
        assert a == b
        c = generate_documents(8, 20, "all")
        assert a != c

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_parse_and_decide(self, family):
        from hgdecide.config import DEFAULT_CONFIG

        for d in generate_documents(3, 6, family):
            din = parse_instance(d)
            cert = decide_document(din, DEFAULT_CONFIG)
            assert cert["verdict"] in ("member", "not_member", "holds", "fails")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_certificates_claim_no_more_scanning_than_was_done(self, family):
        from hgdecide.config import DEFAULT_CONFIG

        for d in generate_documents(7, 40, family):
            cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
            scanned = cert.get("scanned_up_to")
            # constant and zero sequences scan nothing and claim nothing
            assert scanned is None or scanned <= DEFAULT_CONFIG.scan_cap, d
            if cert["reason"] in ("prefix_witness", "prefix_violation"):
                assert scanned == cert.get("witness"), d

    def test_modes_share_one_decider(self):
        # "conditional" and "auto" give one certificate; "unconditional"
        # gives it too, or is unsupported exactly where the conditional
        # oracle was built (the certificate carries a matching)
        from hgdecide.config import DEFAULT_CONFIG
        from hgdecide.errors import UnsupportedInstance

        def decide_as(d, mode):
            cert = decide_document(parse_instance({**d, "mode": mode}), DEFAULT_CONFIG)
            del cert["instance"]["mode"]
            return serialize_certificate(cert)

        unsupported = 0
        for family in FAMILIES:
            for d in generate_documents(11, 20, family):
                auto = decide_as(d, "auto")
                assert decide_as(d, "conditional") == auto, d
                built = "matching" in json.loads(auto)
                try:
                    assert decide_as(d, "unconditional") == auto, d
                except UnsupportedInstance:
                    assert built, d
                    unsupported += 1
                else:
                    assert not built, d
        assert unsupported == 2

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_documents(1, 1, "sextic")

    def test_golden_certificate_digest(self):
        """sha256 of the seed-11 certificates (20 per family, each decided
        in its own mode): a refactor leaves it alone.  A
        deliberate change to verdicts or the certificate format updates the
        pin and says why in CHANGES.md."""
        import hashlib

        from hgdecide.config import DEFAULT_CONFIG

        digest = hashlib.sha256()
        for family in FAMILIES:
            for d in generate_documents(11, 20, family):
                cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
                digest.update(serialize_certificate(cert).encode())
        assert digest.hexdigest() == GOLDEN_SEED_11

    def test_certificates_hold_only_present_keys_on_one_line(self):
        """The worked example and the golden plans: no null and no timing
        anywhere, one compact line, the same bytes from two decisions, and
        a format the replay names."""
        from hgdecide.config import DEFAULT_CONFIG

        def nulls(value):
            if isinstance(value, dict):
                return sum(nulls(v) for v in value.values())
            if isinstance(value, list):
                return sum(nulls(v) for v in value)
            return value is None

        docs = [WORKED] + [d for family in FAMILIES for d in generate_documents(11, 20, family)]
        for d in docs:
            cert = decide_document(parse_instance(d), DEFAULT_CONFIG)
            text = serialize_certificate(cert)
            assert nulls(cert) == 0 and "timing_ms" not in cert, d
            assert text == json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n", d
            assert text.count("\n") == 1 and json.loads(text) == cert, d
            assert serialize_certificate(decide_document(parse_instance(d), DEFAULT_CONFIG)) == text, d
            relabelled = {**cert, "format": "hgdecide-certificate/2"}
            assert verify_certificate(relabelled) == ["unknown format 'hgdecide-certificate/2'"], d


class TestCrossCheck:
    # u_n = n + 1 (Membership t = 51: witness 50) and u_n = 1/(n + 1)
    # (Threshold t = 1/10: first violation 10)
    RISING = HGInstance(IntPoly.of(1, 1), IntPoly.of(2, 1), F(1), F(51), Problem.MEMBERSHIP)
    FALLING = HGInstance(IntPoly.of(2, 1), IntPoly.of(1, 1), F(1), F(1, 10), Problem.THRESHOLD)

    @pytest.mark.parametrize(
        "which,result,witness,depth,consistent",
        [
            ("RISING", True, 50, 100, True),
            ("RISING", True, 49, 100, False),
            ("RISING", False, None, 100, False),
            ("RISING", True, 50, 50, True),  # past the depth: the scan sees none
            ("RISING", False, None, 50, True),
            ("FALLING", False, 10, 20, True),
            ("FALLING", False, 11, 20, False),
            ("FALLING", True, None, 20, False),
            ("FALLING", False, 10, 10, True),
            ("FALLING", True, None, 10, True),
        ],
    )
    def test_rules(self, which, result, witness, depth, consistent):
        mismatch = cross_check(getattr(self, which), result, witness, depth)
        assert (mismatch is None) == consistent, mismatch


class TestCLI:
    def test_decide_exit_codes(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["decide", str(f)]) == 0
        capsys.readouterr()
        f.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", "1/7")))
        assert main(["decide", str(f)]) == 1
        capsys.readouterr()
        f.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "-3")))
        assert main(["decide", str(f)]) == 11
        capsys.readouterr()
        f.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "4")))
        assert main(["decide", str(f)]) == 0  # witness at 1, unconditional
        capsys.readouterr()
        f.write_text("{bad json")
        assert main(["decide", str(f)]) == 3
        capsys.readouterr()
        f.write_text(json.dumps(doc([2, -8, -4, 0, 1], [6, -8, -4, 0, 1], "1", "3/2")))
        assert main(["decide", str(f)]) == 2  # no matching: unsupported
        capsys.readouterr()

    def test_cubic_factor_refusal_names_the_polynomial(self, tmp_path, capsys):
        # monic and balanced, with no violation up to k1 + 2: the verdict
        # needs the limit, and x^3 - 2 does not split over a quadratic field
        f = tmp_path / "inst.json"
        for cmd in ("decide", "canon"):
            f.write_text(json.dumps(doc([-2, 0, 0, 1], [-3, 0, 0, 1], "1", "1/10", "threshold", "unconditional")))
            assert main([cmd, str(f)]) == 2
            err = capsys.readouterr().err
            assert "IntPoly(-2 + 1*x^3) has an irreducible factor of degree 3" in err
        # the conditional oracle refuses it for want of a root matching
        f.write_text(json.dumps(doc([-2, 0, 0, 1], [-3, 0, 0, 1], "1", "1/10", "threshold")))
        assert main(["decide", str(f)]) == 2
        assert "p lacks a perfect root matching" in capsys.readouterr().err

    def test_decide_verify_round_trip(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        out = tmp_path / "cert.json"
        f.write_text(json.dumps(WORKED))
        assert main(["decide", str(f), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()

    def test_eval_and_oracle(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["eval", str(f), "--terms", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1, 5/13, 1/13, 1/117"
        assert main(["oracle", str(f), "--upto", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"kind": "found_membership", "index": 2, "up_to": None}

    def test_canon(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["canon", str(f), "--bits", "96"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta"] == ["1/39", "0"] and out["f"] == [0, 0, 1]
        assert abs(float(out["enclosure"]["approx"]) - 4.7793728e-05) < 1e-10

    @pytest.mark.parametrize(
        "argv,content,code,needle",
        [
            # roots 2 +- 1025i over 2 +- i: one pair past the x-power cap
            (
                ["canon", "{f}"], doc([1050629, -4, 1], [5, -4, 1], "1", "1"), 2,
                "pair exponent 1025 exceeds the cap 1024 on x^e in the canonical form",
            ),
            (["recognize"], None, 3, "give a JSON file or --coeffs"),
            (["recognize", "--coeffs", "1,x"], None, 3, "--coeffs: bad coefficients"),
        ],
        ids=["canon-x-power-cap", "recognize-no-input", "recognize-bad-coefficient"],
    )
    def test_refusal_names_its_cause(self, tmp_path, capsys, argv, content, code, needle):
        f = tmp_path / "inst.json"
        if content is not None:
            f.write_text(json.dumps(content))
        assert main([a.format(f=f) for a in argv]) == code
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("p, q", [([1001, 0, 1], [2**8 * 1001, 0, 1]), ([2**20, 0, 1], [1, 0, 1])])
    def test_canon_prints_limits_past_the_double_range(self, tmp_path, capsys, p, q):
        """Limits near 2^2154 and 2^-4647: "approx" is the midpoint to 17
        significant digits."""
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc(p, q, "1", "1")))
        assert main(["canon", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)["enclosure"]
        mid = (F(out["lo"]) + F(out["hi"])) / 2
        assert abs(F(out["approx"]) - mid) <= abs(mid) / 10**16
        assert len(out["approx"].split("e")[0]) == 18

    def test_recognize(self, capsys):
        assert main(["recognize", "--coeffs", "1,0,0,-1,0,0,1"]) == 0
        out = capsys.readouterr().out
        assert "symmetric pairing: NO (max matching size 0 of 6 vertices)" in out
        assert "cyclotomic index 18" in out
        assert main(["recognize", "--coeffs", "13,-4,1"]) == 0
        out = capsys.readouterr().out
        assert "symmetric pairing: YES (1 pairs)" in out

    def test_recognize_negative_leading_coefficient(self, capsys):
        # x^8 - 2: the value of --coeffs starts with a minus sign
        assert main(["recognize", "--coeffs=-2,0,0,0,0,0,0,0,1"]) == 0
        joined = capsys.readouterr()
        assert main(["recognize", "--coeffs", "-2,0,0,0,0,0,0,0,1"]) == 0
        assert capsys.readouterr() == joined
        assert "radical family: x^8 - (2)" in joined.out

    def test_closed_pipe_is_not_a_crash(self, tmp_path):
        # the reader takes one line and closes the pipe while decide still
        # has certificates to write (more than a pipe buffer holds)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc([1, 1], [2, 1], "1", "3")))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hgdecide.__file__))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "hgdecide.cli", "decide", *[str(f)] * 400],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert json.loads(proc.stdout.readline())["format"] == FORMAT
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 141
        assert err == b""

    def test_unconditional_mode_rejects_real_quadratic(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "-3", mode="unconditional")))
        assert main(["decide", str(f)]) == 2
        capsys.readouterr()

    def test_scan_cap_on_near_tie_is_resource_error(self, tmp_path, capsys, monkeypatch):
        # t = L * (1 + 2^-60) rounded down to a multiple of 2^-140, where
        # L = sinh(pi)/(39 sinh(3 pi)) is the worked example's limit: the
        # decreasing tail drops below t only about 2^60 terms in, so the
        # threshold hunt must end at the scan cap as a resource error
        t = "66614734727671937059123508434769531341/1393796574908163946345982392040522594123776"
        f = tmp_path / "tie.json"
        f.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", t, "threshold")))
        monkeypatch.setenv("HG_SCAN_CAP", "3000")
        assert main(["decide", str(f)]) == 4
        assert "resource limit" in capsys.readouterr().err

    def test_oversized_pair_exponent_is_not_a_verdict(self, tmp_path, capsys):
        # k0 is about 2^252, so the prefix scan meets the scan cap before
        # either engine builds its oracle (the canonical form would need
        # x^e with e = 2^126)
        big = doc([2**250, 0, 1], [2**252, 0, 1], "1", "1/1000000", "threshold")
        f = tmp_path / "big.json"
        f.write_text(json.dumps({**big, "mode": "unconditional"}))
        assert main(["--scan-cap", "1000", "decide", str(f)]) == 4
        assert "resource limit" in capsys.readouterr().err
        f.write_text(json.dumps(big))
        assert main(["--scan-cap", "1000", "decide", str(f)]) == 4
        capsys.readouterr()

    def test_uncaught_exception_exits_internal(self, tmp_path, capsys, monkeypatch):
        def crash(docin, config):
            raise OverflowError("cannot fit 'int'\ninto an index-sized integer")

        monkeypatch.setattr("hgdecide.cli.decide_document", crash)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["decide", str(f)]) == 5
        assert capsys.readouterr().err == "internal error: OverflowError: cannot fit 'int'\n"

    def test_decide_many_files(self, tmp_path, capsys):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        f1.write_text(json.dumps(WORKED))
        f2.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", "1/7")))
        assert main(["decide", str(f1), str(f2)]) == 1
        capsys.readouterr()

    def test_decide_many_files_error_beats_verdict(self, tmp_path, capsys):
        # a conditional verdict (11) must not hide a parse (3) or an
        # unsupported (2) error, whatever the order of the files
        cond = tmp_path / "cond.json"
        bad = tmp_path / "bad.json"
        unsupported = tmp_path / "unsupported.json"
        cond.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "-3")))
        bad.write_text("{bad json")
        unsupported.write_text(json.dumps(doc([2, -8, -4, 0, 1], [6, -8, -4, 0, 1], "1", "3/2")))
        assert main(["decide", str(cond), str(unsupported)]) == 2
        assert main(["decide", str(bad), str(cond)]) == 3
        assert main(["decide", str(unsupported), str(cond), str(bad)]) == 3
        capsys.readouterr()

    def test_decide_out_refuses_many_files(self, tmp_path, capsys):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        out = tmp_path / "cert.json"
        f1.write_text(json.dumps(WORKED))
        f2.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", "1/7")))
        assert main(["decide", str(f1), str(f2), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "--out takes a single instance file" in captured.err
        assert captured.out == "" and not out.exists()

    def test_corpus_round_trip(self, tmp_path, capsys):
        outdir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "7", "--count", "10",
                     "--family", "quadratic-imaginary", "--outdir", str(outdir)]) == 0
        paths = capsys.readouterr().out.split()
        assert len(paths) == 10
        from hgdecide.config import DEFAULT_CONFIG

        for p in paths:
            din = load_instance(p)
            assert din.inst.p.is_monic
        # every emitted file is accepted by decide
        cert = decide_document(load_instance(paths[0]), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []


# the worked pair's limit times 1 + 2^-60, rounded down: the decreasing
# tail drops below it only about 2^60 terms in
NEAR_TIE = doc(
    [13, -4, 1], [5, -4, 1], "1",
    "66614734727671937059123508434769531341/1393796574908163946345982392040522594123776",
    "threshold",
)
NO_MATCHING = doc([2, -8, -4, 0, 1], [6, -8, -4, 0, 1], "1", "3/2")
# balanced, monic, degree 17: the verdict reads L, whose oracle factors p
DEGREE_17 = doc([7] + [0] * 16 + [1], [5] + [0] * 16 + [1], "1", "1/2", "threshold")
# p = Phi5 * Phi10 and q = x^8 - 6x^6 + 11x^4 - 6x^2 + 1, L ~ 7.75455e-4:
# the roots of Phi5 and Phi10 once sat in two towers of one field (exit 5)
PHI5_PHI10 = [1, 0, 1, 0, 1, 0, 1, 0, 1]
ONE_FIELD_Q = [1, 0, -6, 0, 11, 0, -6, 0, 1]
ONE_FIELD_HOLDS = doc(PHI5_PHI10, ONE_FIELD_Q, "1", "7/10000", "threshold")
ONE_FIELD_FAILS = doc(PHI5_PHI10, ONE_FIELD_Q, "1", "1/1000", "threshold")
ONE_FIELD_NOT_MEMBER = doc(PHI5_PHI10, ONE_FIELD_Q, "1", "7/10000")
# p = x^4 + x^2 + 2 has no exact roots; t is near the limit, so the
# verdict reads it
OPAQUE_ROOTS = doc([2, 0, 1, 0, 1], [6, 0, -5, 0, 1], "1", "10233/961898")
X17_PLUS_7 = ",".join(map(str, [7] + [0] * 16 + [1]))
X33_PLUS_1 = ",".join(map(str, [1] + [0] * 32 + [1]))


class TestExitCodes:
    """Subcommand x {ok, bad JSON, missing file, unsupported, resource cap},
    plus bad command lines; `{f}` is a file holding the row's content,
    `{missing}` a path that does not exist.  A verify row with an instance
    as content gets that instance's certificate.  Leading NAME=value items
    set environment variables for the row; a row that exits through
    SystemExit (--help) reads its code."""

    @pytest.mark.parametrize(
        "argv,content,code",
        [
            pytest.param(["decide", "{f}"], WORKED, 0, id="decide-ok"),
            pytest.param(["decide", "{f}"], "{bad json", 3, id="decide-bad-json"),
            pytest.param(["decide", "{missing}"], None, 3, id="decide-missing"),
            pytest.param(["decide", "{f}"], NO_MATCHING, 2, id="decide-unsupported"),
            pytest.param(["decide", "{f}"], DEGREE_17, 2, id="decide-unsupported-degree-17"),
            pytest.param(
                ["--scan-cap", "3000", "decide", "{f}"], NEAR_TIE, 4, id="decide-resource"
            ),
            pytest.param(["eval", "{f}"], WORKED, 0, id="eval-ok"),
            pytest.param(["eval", "{f}"], "{bad json", 3, id="eval-bad-json"),
            pytest.param(["eval", "{missing}"], None, 3, id="eval-missing"),
            pytest.param(
                ["--scan-cap", "10", "eval", "{f}", "--terms", "20"], WORKED, 4,
                id="eval-resource",
            ),
            pytest.param(["oracle", "{f}"], WORKED, 0, id="oracle-ok"),
            pytest.param(["oracle", "{f}"], "{bad json", 3, id="oracle-bad-json"),
            pytest.param(["oracle", "{missing}"], None, 3, id="oracle-missing"),
            pytest.param(
                ["--scan-cap", "10", "oracle", "{f}", "--upto", "20"], WORKED, 4,
                id="oracle-resource",
            ),
            pytest.param(["canon", "{f}"], WORKED, 0, id="canon-ok"),
            pytest.param(["canon", "{f}"], "{bad json", 3, id="canon-bad-json"),
            pytest.param(["canon", "{missing}"], None, 3, id="canon-missing"),
            pytest.param(
                ["canon", "{f}"], doc([1, 1], [1, 0, 1], "1", "1"), 2,
                id="canon-unsupported-not-balanced",
            ),
            pytest.param(
                ["canon", "{f}"], doc([6, 2], [8, 2], "1", "1"), 2,
                id="canon-unsupported-not-monic",
            ),
            pytest.param(
                ["canon", "{f}"], doc([1, 1], [-3, 1], "1", "1"), 2,
                id="canon-unsupported-zero-tail",
            ),
            pytest.param(
                ["canon", "{f}"], doc([-1, -2, 1], [-4, -2, 1], "1", "1"), 2,
                id="canon-unsupported-real-quadratic",
            ),
            pytest.param(["canon", "{f}"], NO_MATCHING, 2, id="canon-unsupported-quartic"),
            # balanced, and q(0) = 0 puts Gamma(0) among the gamma arguments
            pytest.param(
                ["canon", "{f}"], doc([2, 3, 1], [0, 3, 1], "1", "1"), 2,
                id="canon-unsupported-nonpositive-gamma-argument",
            ),
            # g has degree 2046: an expression tree of its terms once
            # overflowed the interpreter's recursion (exit 5); q = x^2 +
            # 1023^2 keeps the limit, (1023/1024) e^-pi, in the float range
            pytest.param(
                ["canon", "{f}"], doc([2**20, 0, 1], [1023**2, 0, 1], "1", "1"), 0, id="canon-ok-degree-2046"
            ),
            pytest.param(
                ["--precision-cap", "64", "canon", "{f}", "--bits", "4096"], WORKED, 4,
                id="canon-resource",
            ),
            # limits of huge magnitude once crashed (exit 5): an endpoint
            # past the interpreter's 4300-digit string conversion and a
            # Horner sum past the dyadic alignment limit are refused
            pytest.param(
                ["canon", "{f}"], doc([2**20 * 11701, 0, 1], [11701, 0, 1], "1", "1"), 4,
                id="canon-resource-too-long-to-print",
            ),
            pytest.param(
                ["canon", "{f}"], doc([2**20 * 13003, 0, 1], [13003, 0, 1], "1", "1"), 4,
                id="canon-resource-alignment-overflow",
            ),
            # limits past the double range (about 2^2154 and 2^-2154) print:
            # "approx" is a decimal string
            pytest.param(
                ["canon", "{f}"], doc([1001, 0, 1], [2**8 * 1001, 0, 1], "1", "1"), 0,
                id="canon-resource-past-float-range",
            ),
            pytest.param(
                ["canon", "{f}"], doc([2**8 * 1001, 0, 1], [1001, 0, 1], "1", "1"), 0,
                id="canon-resource-below-float-range",
            ),
            # p = (x + 1)(x + 20000), q = (x + 10000)(x + 10001): theta is
            # about 2^19992, whose str() once crashed `describe` (exit 5)
            pytest.param(
                ["canon", "{f}"], doc([20000, 20001, 1], [100010000, 20001, 1], "1", "1"), 4,
                id="canon-resource-theta-too-long-to-print",
            ),
            # p = (x + 1)(x + 2N), q = (x + N)(x + N + 1): theta is about
            # 2^(2N), refused before it is multiplied
            *(
                pytest.param(
                    ["canon", "{f}"],
                    doc([2 * n, 2 * n + 1, 1], [n * (n + 1), 2 * n + 1, 1], "1", "1"),
                    4,
                    id=f"canon-resource-gamma-ratio-{label}",
                )
                for n, label in ((10**6, "1e6"), (2**100, "2-to-100"))
            ),
            pytest.param(["recognize", "--coeffs", "13,-4,1"], None, 0, id="recognize-ok"),
            # a degree-16 product of two octics
            pytest.param(
                ["recognize", "--coeffs", "1,0,-1,0,0,0,1,0,-1,0,1,0,0,0,-1,0,1"], None, 0,
                id="recognize-phi15-phi30",
            ),
            # x^2 + x + (PQ + 1)/4: the discriminant -PQ has no factor
            # within the Pollard rho budget
            pytest.param(
                ["recognize", "--coeffs", f"{(PQ + 1) // 4},1,1"], None, 4,
                id="recognize-resource-semiprime-discriminant",
            ),
            pytest.param(["recognize", "{f}"], {"coeffs": [13, -4, 1]}, 0, id="recognize-ok-file"),
            pytest.param(["recognize", "{f}"], "{bad json", 3, id="recognize-bad-json"),
            pytest.param(["recognize", "--coeffs", "1,0,1,0,1,0,1,0,1"], None, 0, id="recognize-phi5-phi10"),
            pytest.param(["recognize", "--coeffs=-4,0,0,0,0,0,1"], None, 0, id="recognize-x6-minus-4"),
            pytest.param(
                ["recognize", "--coeffs", "5,-5,5,0,1,-4,6,-4,1"], None, 0, id="recognize-phi5-mirrored"
            ),
            pytest.param(["decide", "{f}"], ONE_FIELD_HOLDS, 10, id="decide-one-field-holds"),
            pytest.param(["decide", "{f}"], ONE_FIELD_FAILS, 11, id="decide-one-field-fails"),
            pytest.param(["decide", "{f}"], ONE_FIELD_NOT_MEMBER, 11, id="decide-one-field-not-member"),
            pytest.param(["decide", "{f}"], OPAQUE_ROOTS, 2, id="decide-unsupported-opaque-roots"),
            pytest.param(["recognize", "{missing}"], None, 3, id="recognize-missing"),
            pytest.param(["recognize", "--coeffs", "1,2"], None, 3, id="recognize-not-monic"),
            pytest.param(
                ["recognize", "--coeffs", X17_PLUS_7], None, 2, id="recognize-unsupported-degree-17"
            ),
            pytest.param(
                ["recognize", "--coeffs", X33_PLUS_1], None, 2, id="recognize-unsupported-degree-33"
            ),
            pytest.param(["verify", "{f}"], WORKED, 0, id="verify-ok"),
            pytest.param(["verify", "{f}"], "{bad json", 3, id="verify-bad-json"),
            pytest.param(["verify", "{missing}"], None, 3, id="verify-missing"),
            pytest.param(
                ["corpus", "--seed", "1", "--count", "1", "--family", "sextic", "--outdir", "{d}"],
                None, 3, id="corpus-unknown-family",
            ),
            pytest.param(["recognize", "{f}"], {"coeffs": [1.5, 0, 1]}, 3, id="recognize-float-coefficient"),
            pytest.param(["recognize", "{f}"], [13, -4, 1], 3, id="recognize-not-an-object"),
            pytest.param(["--precision-cap", "10", "decide", "{f}"], WORKED, 3, id="precision-cap-below-64"),
            pytest.param(["--scan-cap", "0", "decide", "{f}"], WORKED, 3, id="scan-cap-zero"),
            pytest.param(["--scan-cap", "abc", "decide", "{f}"], WORKED, 3, id="scan-cap-not-an-integer"),
            pytest.param(["HG_SCAN_CAP=abc", "decide", "{f}"], WORKED, 3, id="env-scan-cap-not-an-integer"),
            pytest.param(["HG_PRECISION_CAP=10", "eval", "{f}"], WORKED, 3, id="env-precision-cap-below-64"),
            pytest.param(["decide"], None, 3, id="decide-no-file"),
            pytest.param(["canon", "{f}", "--bits", "many"], WORKED, 3, id="canon-bits-not-an-integer"),
            pytest.param(["canon", "{f}", "--bits", "-40"], WORKED, 3, id="canon-bits-negative"),
            pytest.param(["oracle", "{f}", "--upto", "-3"], WORKED, 3, id="oracle-upto-negative"),
            pytest.param(["eval", "{f}", "--terms", "-3"], WORKED, 3, id="eval-terms-negative"),
            pytest.param(
                ["corpus", "--seed", "1", "--count", "-2", "--outdir", "{d}"], None, 3, id="corpus-count-negative"
            ),
            pytest.param(["decide", "{f}"], {**WORKED, "t": 0.07692307692307692}, 3, id="decide-float-target"),
            pytest.param(["frobnicate"], None, 3, id="unknown-subcommand"),
            pytest.param([], None, 3, id="no-subcommand"),
            pytest.param(["--help"], None, 0, id="help"),
            pytest.param(["decide", "--help"], None, 0, id="decide-help"),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, monkeypatch, argv, content, code):
        from hgdecide.config import DEFAULT_CONFIG

        while argv and "=" in argv[0]:
            name, value = argv[0].split("=", 1)
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        f = tmp_path / "in.json"
        if isinstance(content, str):
            f.write_text(content)
        elif content is not None and argv[0] == "verify":
            cert = decide_document(parse_instance(content), DEFAULT_CONFIG)
            f.write_text(serialize_certificate(cert))
        elif content is not None:
            f.write_text(json.dumps(content))
        args = [a.format(f=f, missing=tmp_path / "missing.json", d=tmp_path / "out") for a in argv]
        try:
            got = main(args)
        except SystemExit as e:
            got = e.code
        assert got == code
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["unconditional", "conditional"])
    def test_degree_17_is_unsupported_in_both_modes(self, tmp_path, capsys, mode):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({**DEGREE_17, "mode": mode}))
        assert main(["decide", str(f)]) == 2
        assert capsys.readouterr().err.startswith("unsupported instance: ")

    def test_opaque_roots_name_the_missing_representation(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text(json.dumps(OPAQUE_ROOTS))
        assert main(["decide", str(f)]) == 2
        assert "matched roots lack an exact tower representation" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [ONE_FIELD_HOLDS, ONE_FIELD_FAILS, ONE_FIELD_NOT_MEMBER])
    def test_one_field_verdicts_agree_with_the_gamma_limit(self, d):
        """Each certificate verifies, agrees with brute force, and sides
        with the mpmath gamma-product limit L = prod Gamma(-a) / prod
        Gamma(-b) over the roots a of p and b of q."""
        import mpmath

        from hgdecide.config import DEFAULT_CONFIG

        din = parse_instance(d)
        cert = decide_document(din, DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
        result = cert["verdict"] in ("member", "holds")
        assert cross_check(din.inst, result, cert.get("witness"), 2000) is None
        with mpmath.workdps(30):
            limit = mpmath.mpf(1)
            for f, e in ((d["p"], 1), (d["q"], -1)):
                for r in mpmath.polyroots(f[::-1], maxsteps=200, extraprec=200):
                    limit *= mpmath.gamma(-r) ** e
            assert abs(limit.imag) < 1e-20 and abs(limit.real - 7.75455e-4) < 1e-9
            t = mpmath.mpf(din.inst.t.numerator) / din.inst.t.denominator
            # the sequence falls to L, so Threshold holds exactly when L >= t
            expected = limit.real > t if din.inst.problem is Problem.THRESHOLD else False
        assert result == expected

    def test_missing_file_does_not_stop_the_others(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(WORKED))
        b.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", "1/7")))
        assert main(["decide", str(a), str(tmp_path / "missing.json"), str(b)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: ") and "missing.json" in captured.err
        assert captured.out.count('"verdict":"member"') == 1
        assert captured.out.count('"verdict":"not_member"') == 1

    # hostile numbers in a few bytes are bad input, never a crash or a
    # stall: a JSON integer past the interpreter's 4300-digit conversion
    # limit, and the target "1e10000000", a 33-million-bit rational
    @pytest.mark.parametrize("command", ["decide", "verify"])
    def test_an_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys, command):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({**WORKED, "u0": "N"}).replace('"N"', "7" * 5000))
        assert main([command, str(f)]) == 3
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_an_exponent_target_is_refused_at_once(self, tmp_path, capsys):
        from hgdecide.config import DEFAULT_CONFIG

        f = tmp_path / "in.json"
        f.write_text(json.dumps({**WORKED, "t": "1e10000000"}))
        start = time.perf_counter()
        assert main(["decide", str(f)]) == 3
        assert "t: bad rational" in capsys.readouterr().err
        # a certificate whose instance does not parse fails its replay
        cert = decide_document(parse_instance(WORKED), DEFAULT_CONFIG)
        cert["instance"]["t"] = "1e10000000"
        f.write_text(serialize_certificate(cert))
        assert main(["verify", str(f)]) == 1
        assert capsys.readouterr().out.startswith("FAIL: instance does not parse: t: bad rational")
        assert time.perf_counter() - start < 1.0
