"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion; pytest failure
semantics carry the verdict.  Criteria pin exact identities on the worked
Gaussian example, the matching suite, recognizer recovery, oracle
equivalence on a 500-instance corpus with bound re-checks, conditional
path consistency, and byte-level determinism.
"""

import time
from fractions import Fraction as F

import pytest

from hgdecide import enclosure
from hgdecide.certs import parse_instance, serialize_certificate, verify_certificate
from hgdecide.cli import decide_document
from hgdecide.config import DEFAULT_CONFIG
from hgdecide.corpus import generate_documents
from hgdecide.dyadic import DyadicInterval
from hgdecide.enclosure import eval_enclosure
from hgdecide.equality import _unconditional_oracle, decide
from hgdecide.errors import UnsupportedInstance
from hgdecide.gammacanon import canonicalize, limit_as_gamma
from hgdecide.polys import IntPoly, QPoly, cyclotomic, roots_quadratic
from hgdecide.recognize import (
    MatchingCertificate,
    NoMatching,
    find_symmetric_matching,
    recognize_shifted_square,
    validate_matching,
)
from hgdecide.schanuel import decide_conditional
from hgdecide.sequence import (
    BruteKind,
    ExactScan,
    HGInstance,
    Problem,
    brute_force,
)
from hgdecide.verdicts import Conditionality, Rationale

from gammaforms import tail_log_bound
from intervals import overlaps

P13 = IntPoly.of(13, -4, 1)
Q13 = IntPoly.of(5, -4, 1)
ORACLE_DEPTH = 10**4


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{tag}  {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def worked_instance(t, problem=Problem.MEMBERSHIP):
    return HGInstance(P13, Q13, F(1), F(t), problem)


class TestCriterion1:
    def test_worked_example_canonicalization(self):
        start = time.perf_counter()
        c = canonicalize(limit_as_gamma(P13, Q13, roots_quadratic(P13), roots_quadratic(Q13)))

        # (a) symbolic: theta*f/g against X^3 (X^2-1) / (39 X (X^6-1)) in
        # X = exp(pi): cross-multiplied polynomial identity over Q
        theta = c.theta_a
        lhs = (
            QPoly.of(theta) * c.f.to_q()
            * (IntPoly.of(0, 39) * (IntPoly((-1,) + (0,) * 5 + (1,)))).to_q()
        )
        rhs = (
            (IntPoly.x_power(3) * (IntPoly.of(-1, 0, 1))).to_q()
            * c.g.to_q()
        )
        symbolic_ok = (
            c.theta_b == 0 and c.ell == 0 and c.m == 1 and c.D == 1
            and (lhs - rhs).is_zero
        )

        # (b) numeric: 128-bit enclosure of the tuple vs the K = 10^3
        # partial product within the computed tail envelope
        k_terms = 10**3
        num = den = 1
        for k in range(k_terms):
            num *= Q13(k)
            den *= P13(k)
        partial = F(num, den)
        tail = tail_log_bound(P13, Q13, k_terms)
        tuple_iv = eval_enclosure(c.value_expr(), 128)
        env_lo = eval_enclosure(enclosure.Rc(partial) * enclosure.Exp(enclosure.Rc(-tail)), 128)
        env_hi = eval_enclosure(enclosure.Rc(partial) * enclosure.Exp(enclosure.Rc(tail)), 128)
        envelope = DyadicInterval(
            env_lo.lo_man, env_lo.lo_exp, env_hi.hi_man, env_hi.hi_exp
        )
        numeric_ok = overlaps(tuple_iv, envelope)
        elapsed = time.perf_counter() - start
        report(
            "criterion-1 worked-example canonical tuple",
            symbolic_ok and numeric_ok and elapsed < 1.0,
            f"symbolic={symbolic_ok} numeric={numeric_ok} {elapsed:.3f}s",
        )


class TestCriterion2:
    def test_worked_example_verdicts(self):
        cases = [
            (F(1, 13), Problem.MEMBERSHIP, True, 2),
            (F(5, 13), Problem.MEMBERSHIP, True, 1),
            (F(1, 7), Problem.MEMBERSHIP, False, None),
            (F(1, 26), Problem.THRESHOLD, False, 3),
        ]
        ok = True
        details = []
        for t, problem, want_result, want_witness in cases:
            start = time.perf_counter()
            docin = parse_instance(
                {
                    "p": list(P13.coeffs), "q": list(Q13.coeffs),
                    "u0": "1", "t": f"{t.numerator}/{t.denominator}",
                    "problem": problem.value, "mode": "auto",
                }
            )
            cert = decide_document(docin, DEFAULT_CONFIG)
            elapsed = time.perf_counter() - start
            good = (
                cert["verdict"] in ("member", "holds") if want_result
                else cert["verdict"] in ("not_member", "fails")
            )
            good &= cert["witness"] == want_witness
            good &= cert["conditionality"] == "unconditional"
            good &= elapsed < 1.0
            good &= verify_certificate(cert) == []
            ok &= good
            details.append(f"t={t}:{'ok' if good else 'BAD'}")
        report("criterion-2 worked-example verdicts + verify", ok, " ".join(details))


class TestCriterion3:
    def test_equality_is_numerics_free(self):
        import random

        oracle = _unconditional_oracle(worked_instance(F(1, 13)), DEFAULT_CONFIG)
        rng = random.Random(20260808)
        before = enclosure.evaluation_count()
        all_not_equal = True
        for _ in range(1000):
            t = F(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            r = oracle.decide_equal(t)
            all_not_equal &= not r.equal
        evals = enclosure.evaluation_count() - before
        report(
            "criterion-3 equality decisions numerics-free",
            all_not_equal and evals == 0,
            f"1000 targets, interval evaluations = {evals}",
        )


class TestCriterion4:
    def test_matching_suite(self):
        positives = [
            cyclotomic(12), cyclotomic(16), cyclotomic(20), cyclotomic(24),
            IntPoly((-2, 0, 0, 0, 1)), IntPoly((-3, 0, 0, 0, 0, 0, 1)),
            IntPoly.of(1, -1, 1), IntPoly.of(13, -4, 1),
        ]
        negatives = [
            cyclotomic(18),
            IntPoly((2, -8, -4, 0, 1)),
            IntPoly((1044, 120, -71, -5, 1)),
            IntPoly((-17, 37, -16, -1, 1)),
        ]
        find_symmetric_matching(IntPoly.of(2, 0, 1))  # pay import/caches once
        ok = True
        worst = 0.0
        for f in positives:
            start = time.perf_counter()
            r = find_symmetric_matching(f)
            dt = time.perf_counter() - start
            worst = max(worst, dt)
            good = isinstance(r, MatchingCertificate) and dt < 0.1
            if good:
                validate_matching(f, r)
            ok &= good
        for f in negatives:
            start = time.perf_counter()
            r = find_symmetric_matching(f)
            dt = time.perf_counter() - start
            worst = max(worst, dt)
            ok &= isinstance(r, NoMatching) and dt < 0.1
        report("criterion-4 matching suite", ok, f"12 polynomials, worst {worst*1000:.0f} ms")


def _corpus_500():
    docs = []
    for family in ("rational", "gaussian", "quadratic-imaginary", "mixed"):
        docs.extend(generate_documents(20260808, 125, family))
    return docs


def _decide_auto(inst):
    try:
        return decide(inst, DEFAULT_CONFIG)
    except UnsupportedInstance:
        return decide_conditional(inst, DEFAULT_CONFIG)


class TestCriterion5and6:
    def test_oracle_equivalence_and_bounds(self):
        docs = _corpus_500()
        assert len(docs) == 500
        mismatches = []
        bounds = []
        for idx, doc in enumerate(docs):
            inst = parse_instance(doc).inst
            v = _decide_auto(inst)
            if v.bound is not None:
                bounds.append((inst, v))
            bf = brute_force(inst, ORACLE_DEPTH)
            if inst.problem is Problem.MEMBERSHIP:
                if v.result:
                    good = (
                        (v.witness <= ORACLE_DEPTH and bf.kind is BruteKind.FOUND_MEMBERSHIP
                         and bf.index == v.witness)
                        or (v.witness > ORACLE_DEPTH and bf.kind is BruteKind.NONE_UP_TO)
                    )
                else:
                    good = bf.kind is BruteKind.NONE_UP_TO
            else:
                if v.result:
                    good = bf.kind is BruteKind.THRESHOLD_HOLDS_UP_TO
                else:
                    good = (
                        (v.witness <= ORACLE_DEPTH and bf.kind is BruteKind.THRESHOLD_VIOLATION
                         and bf.index == v.witness)
                        or (v.witness > ORACLE_DEPTH and bf.kind is BruteKind.THRESHOLD_HOLDS_UP_TO)
                    )
            if not good:
                mismatches.append((idx, doc, v.reason, bf.kind.value))
        report(
            "criterion-5 oracle equivalence on 500 corpus instances",
            not mismatches,
            f"discrepancies = {len(mismatches)}" + (f" first = {mismatches[0]}" if mismatches else ""),
        )

        # criterion 6: every emitted bound re-checked at N..N+50
        bad_bounds = 0
        for inst, v in bounds:
            if not _bound_holds(inst, v):
                bad_bounds += 1
        report(
            "criterion-6 bound soundness at N..N+50",
            bad_bounds == 0,
            f"{len(bounds)} bounds re-checked",
        )


def _bound_holds(inst, verdict) -> bool:
    n0 = verdict.bound.n
    just = verdict.bound.justification
    scan = ExactScan(inst)
    for _ in range(n0):
        scan.step()
    for n in range(n0, n0 + 51):
        if just == "ratio_exceeds_target":
            if scan.abs_cmp(inst.t) <= 0 or abs(inst.q(n)) <= abs(inst.p(n)):
                return False
        elif just == "tail_below_target":
            if scan.abs_cmp(inst.t) >= 0 or abs(inst.q(n)) >= abs(inst.p(n)):
                return False
        elif just == "product_monotone_beyond":
            if inst.problem is Problem.THRESHOLD:
                if scan.cmp(inst.t) < 0:
                    return False
            else:
                if scan.equals(inst.t):
                    return False
        else:
            return False
        scan.step()
    return True


class TestCriterion7:
    def test_shifted_square_recognizer(self):
        import random

        rng = random.Random(77)
        recovered = 0
        attempts = 0
        while recovered < 100 and attempts < 500:
            attempts += 1
            rho = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4]))
            if rng.random() < 0.5:
                g = QPoly.of(F(rng.randint(1, 30)), 1)
            else:
                # monic irreducible quadratic with a verified negative root:
                # (y + a)(y - b) with irrational split avoided; use y^2+by+c
                # with negative real root via b > 0, c < 0 (roots of mixed sign)
                b_ = F(rng.randint(1, 9))
                c_ = F(-rng.randint(1, 9))
                g = QPoly.of(c_, b_, 1)
                from hgdecide.polys import has_negative_real_root

                if not has_negative_real_root(g):
                    continue
            f = g.substitute_square().compose_linear(-rho, F(1))
            w = recognize_shifted_square(f)
            if w is None or w.rho != rho or w.g != g:
                report("criterion-7 shifted-square recognizer", False, f"failed on rho={rho}, g={g}")
            recovered += 1
        quartics_rejected = (
            recognize_shifted_square(IntPoly((1044, 120, -71, -5, 1))) is None
            and recognize_shifted_square(IntPoly((-17, 37, -16, -1, 1))) is None
        )
        report(
            "criterion-7 shifted-square recognizer",
            recovered == 100 and quartics_rejected,
            f"{recovered} recoveries, counterexample quartics rejected = {quartics_rejected}",
        )


class TestCriterion8:
    def test_conditional_consistency(self):
        imag_docs = generate_documents(4040, 80, "quadratic-imaginary") + generate_documents(
            4041, 20, "gaussian"
        )
        agree = 0
        for doc in imag_docs:
            inst = parse_instance(doc).inst
            try:
                v1 = decide(inst, DEFAULT_CONFIG)
            except UnsupportedInstance:
                v1 = None
            v2 = decide_conditional(inst, DEFAULT_CONFIG)
            if v1 is not None:
                same = (
                    v1.result == v2.result
                    and v1.witness == v2.witness
                    and v1.conditionality == v2.conditionality
                )
            else:
                same = True  # genuinely outside the unconditional class
            agree += same
        imag_ok = agree == len(imag_docs)

        real_docs = generate_documents(5050, 44, "real-quadratic")
        # deterministic cancellation cases: a shared irreducible factor drops
        # out syntactically and the target hits the rational remainder limit
        for shared, u0 in [
            ((-1, -2, 1), "2"), ((-4, -2, 1), "1"), ((-1, -2, 1), "-3"),
            ((-6, -4, 1), "1"), ((-2, -4, 1), "5"), ((-4, -2, 1), "1/2"),
        ]:
            f = IntPoly(shared)
            p = f * IntPoly.of(1, 1) * IntPoly.of(4, 1)
            q = f * IntPoly.of(2, 1) * IntPoly.of(3, 1)
            # limit of prod q/p = Gamma(1)Gamma(4)/(Gamma(2)Gamma(3)) = 3
            real_docs.append(
                {
                    "p": list(p.coeffs), "q": list(q.coeffs),
                    "u0": u0, "t": str(3 * F(u0)),
                    "problem": "membership", "mode": "conditional",
                }
            )
        assert len(real_docs) == 50
        flags_ok = True
        stress_failures = 0
        exercised = 0
        cancellations = 0
        for doc in real_docs:
            inst = parse_instance(doc).inst
            try:
                v = decide_conditional(inst, DEFAULT_CONFIG)
            except UnsupportedInstance:
                continue
            if v.equality_rationale is Rationale.IDENTITY_NONZERO:
                exercised += 1
                flags_ok &= v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL or (
                    v.reason in ("prefix_witness", "prefix_violation")
                )
                if v.identity is not None and v.identity.get("stress_separated") is False:
                    stress_failures += 1
            elif v.equality_rationale is Rationale.IDENTITY_CANCELLATION:
                exercised += 1
                cancellations += 1
                if v.reason in (
                    "limit_equals_target_not_attained",
                    "decreasing_tail_limit_equals_target",
                ):
                    flags_ok &= v.conditionality is Conditionality.UNCONDITIONAL
        report(
            "criterion-8 conditional-path consistency",
            imag_ok and flags_ok and stress_failures == 0
            and exercised >= 10 and cancellations >= 3,
            f"imaginary agreement {agree}/{len(imag_docs)}, equality branches {exercised}"
            f" ({cancellations} cancellations), stress cases {stress_failures}",
        )


class TestCriterion9:
    def test_determinism(self):
        docs = _corpus_500()

        def run():
            blobs = []
            for doc in docs:
                docin = parse_instance(doc)
                cert = decide_document(docin, DEFAULT_CONFIG)
                cert.pop("timing_ms", None)
                blobs.append(serialize_certificate(cert))
            return "".join(blobs)

        a = run()
        b = run()
        report(
            "criterion-9 byte-identical certificates (timing excluded)",
            a == b,
            f"{len(docs)} certificates, {len(a)} bytes",
        )
