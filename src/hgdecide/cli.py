"""Command-line front end.

Exit codes, shared by every subcommand:

  0 / 1    member or holds / not member or fails, unconditionally (for
           `verify`: the certificate replays / a claim fails)
  10 / 11  the same verdicts, conditional on Schanuel's Conjecture
  2        the instance is outside the class a decider handles
  3        parse error: bad JSON (or an integer too long to read), a bad
           field, an unreadable file, or a bad command line (a usage error,
           a negative count, a bad cap in a flag or in HG_PRECISION_CAP / HG_SCAN_CAP)
  4        resource cap exceeded (scan cap or precision cap), or a number
           too large to align or to print
  5        internal error, i.e. a crash; never a verdict
  141      standard output was closed by its reader (`... | head -1`): the
           command stops writing, as a filter ended by SIGPIPE does, and
           exits with the status a shell gives one (128 + SIGPIPE)

Subcommands raise; `_exit_code` maps the error to its code and label.
`decide` writes each certificate on one line, so several files give JSON
Lines; it goes on past a failed file, and an error code wins over every
verdict code.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys

from .certs import (
    InstanceDocument,
    _json_poly,
    certificate_dict,
    load_instance,
    read_json,
    serialize_certificate,
    verify_certificate,
)
from .config import EngineConfig
from .corpus import FAMILIES, generate_documents
from .enclosure import eval_enclosure
from .equality import decide, limit_oracle
from .errors import ParseError, PrecisionExceeded, ScanCapExceeded, UnsupportedInstance
from .exactnum import format_rat
from .polys import IntPoly
from .recognize import (
    MatchingCertificate,
    check_radical_family,
    detect_shifted_even,
    find_symmetric_matching,
    recognize_shifted_square,
)
from .sequence import brute_force, terms

EXIT_UNSUPPORTED = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5
EXIT_CLOSED_PIPE = 141


def _config(args) -> EngineConfig:
    try:
        return EngineConfig.from_env().with_overrides(
            precision_cap_bits=args.precision_cap, scan_cap=args.scan_cap
        )
    except ValueError as e:
        raise ParseError(f"bad engine configuration: {e}") from None


# error type -> (exit code, stderr label); anything else is a crash
_ERRORS = (
    (ParseError, EXIT_PARSE, "parse error"),
    (UnsupportedInstance, EXIT_UNSUPPORTED, "unsupported instance"),
    ((PrecisionExceeded, ScanCapExceeded), EXIT_RESOURCE, "resource limit"),
)


def _exit_code(e: Exception) -> tuple[int, str]:
    """The exit code and stderr label of an error, for every subcommand.

    A crash exits 5, never 1, which would read as a "not member" or
    "fails" verdict.
    """
    for kind, code, label in _ERRORS:
        if isinstance(e, kind):
            return code, label
    return EXIT_INTERNAL, "internal error"


def _report(e: Exception) -> int:
    """Print an error's one-line diagnostic and return its exit code."""
    code, label = _exit_code(e)
    detail = f"{type(e).__name__}: {e}" if code == EXIT_INTERNAL else str(e)
    print(f"{label}: {detail}".splitlines()[0], file=sys.stderr)
    return code


def decide_document(docin: InstanceDocument, config: EngineConfig) -> dict:
    """Decide one parsed instance and wrap the verdict as a certificate."""
    # "auto" is "conditional": the canonical oracle is tried first either way
    return certificate_dict(docin, decide(docin.inst, config, conditional=docin.mode != "unconditional"))


def _cmd_decide(args) -> int:
    """Decide each file in turn.  Several files exit with the largest error
    code (2-5) if any file failed, else with the largest verdict code."""
    if args.out and len(args.files) > 1:
        raise ParseError("--out takes a single instance file")
    codes = []
    for path in args.files:
        try:
            cert = decide_document(load_instance(path), args.config)
        except Exception as e:
            codes.append(_report(e))
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
    docin = load_instance(args.file)
    values = list(terms(docin.inst, args.terms, args.config))
    print(", ".join(format_rat(v) for v in values))
    return 0


def _cmd_oracle(args) -> int:
    result = brute_force(load_instance(args.file).inst, args.upto, args.config)
    out = {"kind": result.kind.value, "index": result.index, "up_to": result.up_to}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_canon(args) -> int:
    constant = limit_oracle(load_instance(args.file).inst, args.config, conditional=False).constant
    enclosure = eval_enclosure(constant, args.bits, args.config)
    doc = constant.describe()
    lo, hi = format_rat(enclosure.lo), format_rat(enclosure.hi)
    mid = enclosure.mid()  # to 17 significant digits, correctly rounded: no float range
    approx = f"{decimal.Context(prec=17).divide(mid.numerator, mid.denominator):.16e}"
    doc["enclosure"] = {"lo": lo, "hi": hi, "approx": approx, "bits": args.bits}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_recognize(args) -> int:
    if args.coeffs is None and args.file is None:
        raise ParseError("give a JSON file or --coeffs")
    if args.coeffs:
        try:
            poly = IntPoly(tuple(int(c) for c in args.coeffs.split(",")))
        except ValueError as e:
            raise ParseError(f"bad coefficients: {e}", "--coeffs") from None
    else:
        doc = read_json(args.file)
        if not isinstance(doc, dict) or "coeffs" not in doc:
            raise ParseError('must be a JSON object {"coeffs": [...]}', args.file)
        poly = _json_poly(doc["coeffs"], "coeffs")
    if poly.degree < 1 or not poly.is_monic:
        raise ParseError("polynomial must be monic of degree >= 1")
    matching = find_symmetric_matching(poly)
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
        raise ParseError(str(e)) from None

    os.makedirs(args.outdir, exist_ok=True)
    for i, doc in enumerate(docs):
        path = os.path.join(args.outdir, f"corpus_{args.family}_{args.seed}_{i:04d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(path)
    return 0


def _cmd_verify(args) -> int:
    failures = verify_certificate(read_json(args.file), args.config)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("certificate verified")
    return 0


def nonnegative_int(text: str) -> int:
    """argparse type of the count flags (--terms, --upto, --bits, --count):
    a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {n}")
    return n


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error raises ParseError, so it exits 3 like any other bad
    input instead of argparse's 2, which would read as "unsupported"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
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
    e.add_argument("--terms", type=nonnegative_int, default=8)
    e.set_defaults(func=_cmd_eval)

    o = sub.add_parser("oracle", help="brute-force scan result")
    o.add_argument("file")
    o.add_argument("--upto", type=nonnegative_int, default=1000)
    o.set_defaults(func=_cmd_oracle)

    c = sub.add_parser("canon", help="canonical constant of the sequence limit")
    c.add_argument("file")
    c.add_argument("--bits", type=nonnegative_int, default=128)
    c.set_defaults(func=_cmd_canon)

    r = sub.add_parser("recognize", help="root-symmetry recognizers for a polynomial")
    r.add_argument("file", nargs="?", help='JSON file {"coeffs": [...]} (ascending)')
    r.add_argument("--coeffs", help="comma-separated ascending coefficients")
    r.set_defaults(func=_cmd_recognize)

    g = sub.add_parser("corpus", help="emit deterministic instance files")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--count", type=nonnegative_int, required=True)
    g.add_argument("--family", default="all", help=f"one of {FAMILIES + ('all',)}")
    g.add_argument("--outdir", default="corpus")
    g.set_defaults(func=_cmd_corpus)

    v = sub.add_parser("verify", help="replay-check a certificate")
    v.add_argument("file")
    v.set_defaults(func=_cmd_verify)
    return ap


def _join_coeffs(argv: list[str]) -> list[str]:
    """`--coeffs -2,0,1` as `--coeffs=-2,0,1`: argparse takes a value with
    a leading minus for an option unless it is a single number."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--coeffs" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--coeffs={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_coeffs(sys.argv[1:] if argv is None else argv))
        args.config = _config(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to /dev/null, so the flush at exit
        # cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except Exception as e:
        return _report(e)


if __name__ == "__main__":
    sys.exit(main())
