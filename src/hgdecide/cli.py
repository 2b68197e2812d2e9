"""Command-line front end.

Exit codes for `decide`: 0 member/holds and 1 not-member/fails when the
verdict is unconditional; 10/11 for the same outcomes conditional on
Schanuel's Conjecture; 2 unsupported instance class; 3 parse error; 4
resource cap exceeded; 5 internal error.  With several files an error
code wins over every verdict code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .certs import (
    InstanceDocument,
    certificate_dict,
    load_instance,
    parse_instance,
    serialize_certificate,
    verify_certificate,
)
from .config import EngineConfig
from .corpus import FAMILIES, generate_documents
from .enclosure import eval_enclosure
from .equality import decide
from .errors import (
    DecideError,
    ParseError,
    PrecisionExceeded,
    ScanCapExceeded,
    UnsupportedInstance,
)
from .exactnum import format_rat
from .gammacanon import canonicalize, limit_as_gamma
from .polys import IntPoly, NotSplitting, roots_quadratic
from .recognize import (
    MatchingCertificate,
    check_radical_family,
    detect_shifted_even,
    find_symmetric_matching,
    recognize_shifted_square,
)
from .schanuel import decide_conditional
from .sequence import brute_force, terms

EXIT_UNSUPPORTED = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _config(args) -> EngineConfig:
    return EngineConfig.from_env().with_overrides(
        precision_cap_bits=getattr(args, "precision_cap", None),
        scan_cap=getattr(args, "scan_cap", None),
    )


def decide_document(docin: InstanceDocument, config: EngineConfig) -> dict:
    """Decide one parsed instance and wrap the verdict as a certificate."""
    start = time.perf_counter()
    if docin.mode == "unconditional":
        verdict = decide(docin.inst, config)
    else:
        # "auto" is "conditional": its oracle builder tries the
        # unconditional oracle first
        verdict = decide_conditional(docin.inst, config)
    elapsed = (time.perf_counter() - start) * 1000.0
    return certificate_dict(docin, verdict, timing_ms=elapsed)


def _cmd_decide(args) -> int:
    """Decide each file in turn.  Several files exit with the largest error
    code (2-5) if any file failed, else with the largest verdict code."""
    if args.out and len(args.files) > 1:
        print("parse error: --out takes a single instance file", file=sys.stderr)
        return EXIT_PARSE
    config = _config(args)
    codes = []
    for path in args.files:
        try:
            docin = load_instance(path)
            cert = decide_document(docin, config)
        except ParseError as e:
            print(f"parse error: {e}", file=sys.stderr)
            codes.append(EXIT_PARSE)
            continue
        except UnsupportedInstance as e:
            print(f"unsupported instance: {e}", file=sys.stderr)
            codes.append(EXIT_UNSUPPORTED)
            continue
        except (PrecisionExceeded, ScanCapExceeded) as e:
            print(f"resource limit: {e}", file=sys.stderr)
            codes.append(EXIT_RESOURCE)
            continue
        except DecideError as e:
            print(f"internal error: {e}", file=sys.stderr)
            codes.append(EXIT_INTERNAL)
            continue
        text = serialize_certificate(cert)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        codes.append(cert["exit_code"])
    errors = [c for c in codes if EXIT_UNSUPPORTED <= c <= EXIT_INTERNAL]
    return max(errors or codes)


def _cmd_eval(args) -> int:
    config = _config(args)
    try:
        docin = load_instance(args.file)
        values = list(terms(docin.inst, args.terms, config))
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScanCapExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    print(", ".join(format_rat(v) for v in values))
    return 0


def _cmd_oracle(args) -> int:
    config = _config(args)
    try:
        docin = load_instance(args.file)
        result = brute_force(docin.inst, args.upto, config)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScanCapExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    out = {"kind": result.kind.value, "index": result.index, "up_to": result.up_to}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_canon(args) -> int:
    config = _config(args)
    try:
        docin = load_instance(args.file)
        inst = docin.inst
        rp = roots_quadratic(inst.p)
        rq = roots_quadratic(inst.q)
        if isinstance(rp, NotSplitting) or isinstance(rq, NotSplitting):
            print("unsupported: coefficients do not split over a quadratic field", file=sys.stderr)
            return EXIT_UNSUPPORTED
        constant = canonicalize(limit_as_gamma(inst.p, inst.q, rp, rq)).scale(inst.u0)
        enclosure = eval_enclosure(constant.value_expr(), args.bits, config)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedInstance as e:
        print(f"unsupported instance: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except PrecisionExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except DecideError as e:
        print(f"cannot canonicalize: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    doc = constant.describe()
    doc["enclosure"] = {
        "lo": _frac_str(enclosure.lo),
        "hi": _frac_str(enclosure.hi),
        "approx": float(enclosure.mid()),
        "bits": args.bits,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _frac_str(q: Fraction) -> str:
    return format_rat(q)


def _cmd_recognize(args) -> int:
    try:
        if args.coeffs:
            coeffs = tuple(int(c) for c in args.coeffs.split(","))
        else:
            with open(args.file) as fh:
                doc = json.load(fh)
            coeffs = tuple(doc["coeffs"])
        poly = IntPoly(coeffs)
        if not poly.is_monic:
            raise ParseError("polynomial must be monic")
    except (ParseError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        matching = find_symmetric_matching(poly)
    except DecideError as e:
        print(f"cannot analyze: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if isinstance(matching, MatchingCertificate):
        print(f"symmetric pairing: YES ({len(matching.pairs)} pairs)")
        for p in matching.pairs:
            print(f"  {p.u.label()} <-> {p.v.label()}  center rho = {p.rho}")
    else:
        print(
            f"symmetric pairing: NO (max matching size {matching.best_size}"
            f" of {matching.vertex_count} vertices)"
        )
    rho = detect_shifted_even(poly)
    print(f"shifted-even center: {rho if rho is not None else 'none'}")
    witness = recognize_shifted_square(poly)
    if witness:
        print(f"shifted-square form: rho = {witness.rho}, g = {list(map(str, witness.g.coeffs))}")
    else:
        print("shifted-square form: none")
    fam = check_radical_family(poly)
    if fam.kind == "x_power_minus_a":
        print(
            f"radical family: x^{fam.d} - ({fam.a}), irreducible={fam.irreducible},"
            f" eligible={fam.eligible}"
        )
    elif fam.kind == "cyclotomic":
        print(f"radical family: cyclotomic index {fam.n}, eligible={fam.eligible}")
    else:
        print("radical family: none")
    return 0


def _cmd_corpus(args) -> int:
    try:
        docs = generate_documents(args.seed, args.count, args.family)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    import os

    os.makedirs(args.outdir, exist_ok=True)
    for i, doc in enumerate(docs):
        path = os.path.join(args.outdir, f"corpus_{args.family}_{args.seed}_{i:04d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(path)
    return 0


def _cmd_verify(args) -> int:
    config = _config(args)
    try:
        with open(args.file) as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    failures = verify_certificate(cert, config)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("certificate verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hgdecide",
        description="Membership and Threshold decisions for hypergeometric sequences",
    )
    ap.add_argument("--precision-cap", type=int, help="interval precision cap in bits")
    ap.add_argument("--scan-cap", type=int, help="exact term scan cap")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="decide an instance file; emits a certificate")
    d.add_argument("files", nargs="+", help="instance JSON files")
    d.add_argument("--out", help="write the certificate here instead of stdout")
    d.set_defaults(func=_cmd_decide)

    e = sub.add_parser("eval", help="print exact initial terms")
    e.add_argument("file")
    e.add_argument("--terms", type=int, default=8)
    e.set_defaults(func=_cmd_eval)

    o = sub.add_parser("oracle", help="brute-force scan result")
    o.add_argument("file")
    o.add_argument("--upto", type=int, default=1000)
    o.set_defaults(func=_cmd_oracle)

    c = sub.add_parser("canon", help="canonical constant of the sequence limit")
    c.add_argument("file")
    c.add_argument("--bits", type=int, default=128)
    c.set_defaults(func=_cmd_canon)

    r = sub.add_parser("recognize", help="root-symmetry recognizers for a polynomial")
    r.add_argument("file", nargs="?", help='JSON file {"coeffs": [...]} (ascending)')
    r.add_argument("--coeffs", help="comma-separated ascending coefficients")
    r.set_defaults(func=_cmd_recognize)

    g = sub.add_parser("corpus", help="emit deterministic instance files")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--family", default="all", help=f"one of {FAMILIES + ('all',)}")
    g.add_argument("--outdir", default="corpus")
    g.set_defaults(func=_cmd_corpus)

    v = sub.add_parser("verify", help="replay-check a certificate")
    v.add_argument("file")
    v.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
