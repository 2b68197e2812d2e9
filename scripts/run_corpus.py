#!/usr/bin/env python3
"""Generate a corpus, decide every instance, and cross-check the oracle.

Workers fan out per instance (decisions are pure functions of the
document); results merge back in input order, so the emitted certificate
stream is deterministic for a fixed seed regardless of --jobs.
"""

import argparse
import json
import multiprocessing
import sys
import time

sys.path.insert(0, "src")

from hgdecide.certs import parse_instance, serialize_certificate, verify_certificate
from hgdecide.cli import decide_document
from hgdecide.config import EngineConfig
from hgdecide.corpus import cross_check, generate_documents
from hgdecide.verdicts import VerdictName

# brute-force depth of the consistency check
ORACLE_DEPTH = 10**4


def run_one(doc: dict) -> tuple[dict, str]:
    config = EngineConfig.from_env()
    docin = parse_instance(doc)
    cert = decide_document(docin, config)
    result = VerdictName(cert["verdict"]).result
    mismatch = cross_check(docin.inst, result, cert.get("witness"), ORACLE_DEPTH, config)
    return cert, "consistent" if mismatch is None else f"MISMATCH {mismatch}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--family", default="all")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--certs-out", help="write the certificate stream here")
    args = ap.parse_args()

    docs = generate_documents(args.seed, args.count, args.family)
    start = time.time()
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(run_one, docs)
    else:
        results = [run_one(d) for d in docs]
    elapsed = time.time() - start

    mismatches = 0
    unverified = 0
    stream = []
    for (cert, status), doc in zip(results, docs):
        if status != "consistent":
            mismatches += 1
            print(f"MISMATCH: {json.dumps(doc)} -> {cert['verdict']} ({status})")
        if verify_certificate(cert):
            unverified += 1
        stream.append(serialize_certificate(cert))
    if args.certs_out:
        with open(args.certs_out, "w") as fh:
            fh.writelines(stream)
    print(
        f"{len(docs)} instances in {elapsed:.1f}s: "
        f"{mismatches} oracle mismatches, {unverified} unverified certificates"
    )
    return 1 if (mismatches or unverified) else 0


if __name__ == "__main__":
    sys.exit(main())
