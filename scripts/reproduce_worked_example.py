#!/usr/bin/env python3
"""Reproduce the Gaussian worked example end to end.

For p = x^2 - 4x + 13, q = x^2 - 4x + 5, u0 = 1 the sequence limit is
sinh(pi)/(39 sinh(3 pi)); this script prints the exact canonical tuple, a
high-precision enclosure, the membership/threshold verdicts around the
limit, and replay-verifies every emitted certificate.
"""

import json
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from hgdecide.certs import parse_instance, verify_certificate
from hgdecide.cli import decide_document
from hgdecide.config import DEFAULT_CONFIG
from hgdecide.enclosure import eval_enclosure
from hgdecide.gammacanon import canonicalize, limit_as_gamma
from hgdecide.polys import IntPoly, roots_quadratic

P = IntPoly.of(13, -4, 1)
Q = IntPoly.of(5, -4, 1)


def main() -> int:
    constant = canonicalize(limit_as_gamma(P, Q, roots_quadratic(P), roots_quadratic(Q)))
    print("canonical tuple:", json.dumps(constant.describe()))
    iv = eval_enclosure(constant, 192)
    print(f"enclosure at 192 bits: [{float(iv.lo):.17e}, {float(iv.hi):.17e}]")
    print(f"limit ~ {float(iv.mid()):.12e}  (sinh(pi)/(39 sinh 3pi))")
    print()

    cases = [
        ("1/13", "membership"),
        ("5/13", "membership"),
        ("1/7", "membership"),
        ("1/26", "threshold"),
        ("0", "threshold"),
    ]
    for t, problem in cases:
        doc = {
            "p": list(P.coeffs), "q": list(Q.coeffs),
            "u0": "1", "t": t, "problem": problem, "mode": "auto",
        }
        cert = decide_document(parse_instance(doc), DEFAULT_CONFIG)
        failures = verify_certificate(cert)
        print(
            f"{problem:10s} t={t:5s} -> {cert['verdict']:10s}"
            f" witness={cert.get('witness')} reason={cert['reason']}"
            f" verify={'ok' if not failures else failures}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
