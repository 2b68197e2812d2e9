"""Decision engine for the Membership and Threshold Problems of
hypergeometric sequences p(n) u_{n+1} = q(n) u_n with quadratic parameters.

Public surface: exact scalars and intervals (exactnum, dyadic, enclosure),
polynomial algebra (polys, towers), sequence analysis (sequence), the
gamma-product canonicalizer (gammacanon), the one decider `decide`
(equality; `conditional=False` keeps it unconditional) and the symbolic
identities of its conditional oracle (schanuel), recognizers
(recognize), and the document/CLI layer (certs, corpus, cli).
"""

from .config import DEFAULT_CONFIG, EngineConfig
from .enclosure import compare
from .equality import decide, decide_equal
from .gammacanon import CanonicalConstant, canonicalize, limit_as_gamma
from .polys import IntPoly, QPoly, cyclotomic, roots_quadratic
from .recognize import (
    check_radical_family,
    detect_shifted_even,
    find_symmetric_matching,
    recognize_shifted_square,
)
from .schanuel import build_basis, build_identity, decide_identity
from .sequence import (
    AsymptoticClass,
    HGInstance,
    Problem,
    brute_force,
    classify,
    divergence_bound,
    shrink_bound,
    term,
    terms,
)
from .verdicts import Conditionality, Rationale, Verdict

__all__ = [
    "DEFAULT_CONFIG",
    "EngineConfig",
    "AsymptoticClass",
    "CanonicalConstant",
    "Conditionality",
    "HGInstance",
    "IntPoly",
    "Problem",
    "QPoly",
    "Rationale",
    "Verdict",
    "brute_force",
    "build_basis",
    "build_identity",
    "canonicalize",
    "check_radical_family",
    "classify",
    "compare",
    "cyclotomic",
    "decide",
    "decide_equal",
    "decide_identity",
    "detect_shifted_even",
    "divergence_bound",
    "find_symmetric_matching",
    "limit_as_gamma",
    "recognize_shifted_square",
    "roots_quadratic",
    "shrink_bound",
    "term",
    "terms",
]

__version__ = "0.1.0"
