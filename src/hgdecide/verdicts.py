"""Verdict and certificate-facing result types, and the rules that give a
certificate's conditionality, exit code, equality rationale and
asymptotic record from its other fields: `decide` stores none of them,
and `certs.verify_certificate` recomputes each."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .sequence import AsymptoticClass, HGInstance, Problem


class Conditionality(enum.Enum):
    UNCONDITIONAL = "unconditional"
    CONDITIONAL_ON_SCHANUEL = "conditional_on_schanuel"


def exit_code(result: bool, conditionality: Conditionality) -> int:
    """0 for member or holds, else 1; plus 10 when conditional on Schanuel's conjecture."""
    return (0 if result else 1) + (10 if conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL else 0)


class Claim(enum.Flag):
    """What a verdict rests on besides the witness every member or fails verdict names."""

    NONE = 0
    CASE = enum.auto()  # the instance alone picks the reason: u0, q's roots, t = 0, p = q
    CONSTANT = enum.auto()  # u_n = u0 for every n, so u0 alone gives the result
    BOUND = enum.auto()  # a bound past which the tail holds no witness
    LESS = enum.auto()  # the order claim L < t
    GREATER = enum.auto()  # the order claim L > t, or a bound that needs no limit
    EQUAL = enum.auto()  # an equality record that finds L = t


class VerdictName(str, enum.Enum):
    """A certificate's `verdict`: the problem it answers and its result."""

    def __new__(cls, value: str, problem: Problem, result: bool):
        member = str.__new__(cls, value)
        member._value_, member.problem, member.result = value, problem, result
        return member

    MEMBER = "member", Problem.MEMBERSHIP, True
    NOT_MEMBER = "not_member", Problem.MEMBERSHIP, False
    HOLDS = "holds", Problem.THRESHOLD, True
    FAILS = "fails", Problem.THRESHOLD, False


_ANY = " ".join(VerdictName)
_NAMES = {(name.problem, name.result): name for name in VerdictName}


class Justification(str, enum.Enum):
    """What a certificate's bound N claims for every n >= N: the bound
    replay `certs._verify_bound` proves it."""

    RATIO_EXCEEDS_TARGET = "ratio_exceeds_target"  # |r(n)| > 1 and |u_n| > |t|
    TAIL_BELOW_TARGET = "tail_below_target"  # |r(n)| < 1 and |u_n| < |t|
    PRODUCT_MONOTONE_BEYOND = "product_monotone_beyond"  # r(n) > 0: u_n keeps its sign, |u_n| is monotone


_MONOTONE = Justification.PRODUCT_MONOTONE_BEYOND


class Reason(str, enum.Enum):
    """A verdict's case, its certificate's `reason`.  Each member names the
    justification of the bound it writes (`justification`, None for a
    reason that writes none) and maps every verdict name it gives to the
    claim that verdict rests on: `equality.decide` writes the members and
    `certs.verify_certificate` checks the claims."""

    def __new__(cls, value: str, justification: Justification | None, *gives: tuple[str, Claim]):
        member = str.__new__(cls, value)
        member._value_, member.justification = value, justification
        member.claims = {name: claim for names, claim in gives for name in names.split()}
        return member

    ZERO_SEQUENCE = "zero_sequence", None, (_ANY, Claim.CASE | Claim.CONSTANT)
    CONSTANT_SEQUENCE = "constant_sequence", None, (_ANY, Claim.CASE | Claim.CONSTANT)
    ZERO_TAIL = "zero_tail", None, (_ANY, Claim.CASE)
    TERMS_NEVER_ZERO = "terms_never_zero", None, ("not_member", Claim.CASE)
    SIGN_ANALYSIS = "sign_analysis", _MONOTONE, ("holds", Claim.CASE | Claim.BOUND), ("fails", Claim.CASE)
    DIVERGENCE_BOUND = "divergence_bound", Justification.RATIO_EXCEEDS_TARGET, (_ANY, Claim.BOUND)
    SHRINK_BOUND = "shrink_bound", Justification.TAIL_BELOW_TARGET, (_ANY, Claim.BOUND)
    PREFIX_WITNESS = "prefix_witness", None, ("member", Claim.NONE)
    PREFIX_VIOLATION = "prefix_violation", None, ("fails", Claim.NONE)
    INCREASING_TAIL = "increasing_tail", _MONOTONE, ("holds", Claim.BOUND)
    MONOTONE_TAIL_EXCLUDES_TARGET = "monotone_tail_excludes_target", _MONOTONE, ("not_member", Claim.BOUND)
    DECREASING_TAIL_ABOVE_TARGET = "decreasing_tail_above_target", _MONOTONE, ("holds", Claim.GREATER)
    DECREASING_TAIL_BELOW_TARGET = "decreasing_tail_below_target", None, ("fails", Claim.LESS)
    DECREASING_TAIL_LIMIT_EQUALS_TARGET = "decreasing_tail_limit_equals_target", None, ("holds", Claim.EQUAL)
    LIMIT_EQUALS_TARGET_NOT_ATTAINED = "limit_equals_target_not_attained", None, ("not_member", Claim.EQUAL)

    def asymptotic(self, inst: HGInstance) -> AsymptoticClass | None:
        """The certificate's asymptotic record: the instance's class, but
        for the four reasons `decide` gives before it classifies."""
        return None if self in _UNCLASSIFIED else inst.recurrence.asymptotic


_UNCLASSIFIED = {Reason.ZERO_SEQUENCE, Reason.ZERO_TAIL, Reason.TERMS_NEVER_ZERO, Reason.SIGN_ANALYSIS}


class Rationale(enum.Enum):
    RATIONAL_IDENTITY = "rational_identity"
    PI_POWER_OBSTRUCTION = "pi_power_obstruction"
    TRANSCENDENCE_OBSTRUCTION = "transcendence_obstruction"
    IDENTITY_CANCELLATION = "identity_cancellation"
    IDENTITY_NONZERO = "identity_nonzero"


def conditionality(claim: Claim, rationale: Rationale | None) -> Conditionality:
    """Schanuel's conjecture carries a verdict exactly when the limit's
    identity is nonzero and the verdict rests on a claim besides its
    witness (a bound, an order or an equality): a prefix witness found
    after the oracle stays unconditional."""
    if rationale is Rationale.IDENTITY_NONZERO and claim != Claim.NONE:
        return Conditionality.CONDITIONAL_ON_SCHANUEL
    return Conditionality.UNCONDITIONAL


@dataclass(frozen=True)
class EqualityDecision:
    """An oracle's equality verdict with the certificate records it rests
    on (`records`): `canonical` for the canonical constant, `matching` and
    `identity` for the symbolic identity.  A nonzero identity's record
    also holds `stress_separated`, evidence and no claim, which
    `stress_check` gives when `identity` is first read."""

    equal: bool
    rationale: Rationale
    canonical: dict | None = None
    matching: dict | None = None
    identity_claim: dict | None = None
    stress_check: Callable[[], bool] | None = field(default=None, compare=False)

    @property
    def records(self) -> dict:
        return {"canonical": self.canonical, "matching": self.matching, "identity": self.identity_claim}

    @cached_property
    def identity(self) -> dict | None:
        if self.stress_check is None:
            return self.identity_claim
        return {**self.identity_claim, "stress_separated": self.stress_check()}


@dataclass(frozen=True)
class Verdict:
    """Decision outcome plus everything a certificate needs to replay it;
    its conditionality, like the certificate's other derived fields, comes
    from `certs.derived_fields`.

    `result` means "target is a member" for membership problems and
    "u_n >= t holds for all n" for threshold problems.
    """

    problem: Problem
    result: bool
    reason: Reason
    witness: int | None = None
    bound: int | None = None  # written with reason.justification
    scanned_up_to: int | None = None
    equality: EqualityDecision | None = None  # the limit oracle's, for a verdict that read it
    compare: dict | None = None  # {relation, precision_bits}

    @property
    def name(self) -> VerdictName:
        return _NAMES[self.problem, self.result]

