"""Verdict and certificate-facing result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .sequence import AsymptoticClass, Problem, SearchBound


class Conditionality(enum.Enum):
    UNCONDITIONAL = "unconditional"
    CONDITIONAL_ON_SCHANUEL = "conditional_on_schanuel"


class Rationale(enum.Enum):
    RATIONAL_IDENTITY = "rational_identity"
    PI_POWER_OBSTRUCTION = "pi_power_obstruction"
    TRANSCENDENCE_OBSTRUCTION = "transcendence_obstruction"
    IDENTITY_CANCELLATION = "identity_cancellation"
    IDENTITY_NONZERO = "identity_nonzero"


@dataclass(frozen=True)
class EqualityDecision:
    """An oracle's equality verdict with the certificate fields it rests
    on: `canonical` for the canonical constant, `matching` and `identity`
    for the symbolic identity."""

    equal: bool
    rationale: Rationale
    canonical: dict | None = None
    matching: dict | None = None
    identity: dict | None = None


@dataclass(frozen=True)
class Verdict:
    """Decision outcome plus everything a certificate needs to replay it.

    `result` means "target is a member" for membership problems and
    "u_n >= t holds for all n" for threshold problems.
    """

    problem: Problem
    result: bool
    conditionality: Conditionality
    reason: str
    witness: int | None = None
    bound: SearchBound | None = None
    scanned_up_to: int | None = None
    asymptotic: AsymptoticClass | None = None
    canonical: dict | None = None
    equality_rationale: Rationale | None = None
    compare_relation: str | None = None
    compare_precision_bits: int | None = None
    matching: dict | None = None
    identity: dict | None = None

    @property
    def exit_code(self) -> int:
        base = 0 if self.result else 1
        if self.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL:
            return base + 10
        return base
