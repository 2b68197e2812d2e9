"""The conditional limit oracle for root-symmetric instances, which
`equality.limit_oracle` builds for a `conditional` decision (the one
decider, `equality.decide`) where the canonical oracle does not apply.

For balanced instances whose polynomials admit a perfect matching on the
root-symmetry graph, the limit is a product of conjugate-style pair values

    Gamma(rho+w) Gamma(rho-w) = A * 2*pi*i * M / (w (1 - M^2))   (rho in Z)
                              = A * 2*pi   * M / (1 + M^2)       (rho in Z+1/2)

with M = exp(i*pi*w) and A an exact tower element.  Writing every w as an
integer combination over a normalized basis {1, i} u S with pi*{1, i} u
pi*S rationally independent turns "limit == t" into a Laurent-polynomial
identity in the symbols PI, E = exp(pi), Y_j = exp(i*pi*s_j), whose
coefficients are elements of one tower that holds i: the offsets' common
tower, with i adjoined (`towers.IAdjoinedTower`) where it lacks it.  The
identity either cancels to 0 == 0 (an unconditional Equal) or is a
nonzero polynomial relation that Schanuel's Conjecture rules out, giving
a NotEqual labeled conditional.  Order comparisons and search bounds stay
unconditional, and a completed NotEqual run also carries a separating
enclosure, so correctness never actually rests on the conjecture; only
termination does.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import ComplexInterval, DyadicInterval
from .enclosure import (
    compare,
    cos_interval,
    exp_interval,
    pi_interval,
    precision_ladder,
    sin_interval,
)
from .errors import DecideError, PrecisionExceeded, UnsupportedInstance
from .exactnum import format_rat, is_half_integer
from .gammacanon import integer_gamma_ratio, translation_squares
from .linalg import Eliminator
from .polys import IntPoly, factor_monic
from .recognize import MatchingCertificate, NoMatching, _tower, find_symmetric_matching
from .sequence import HGInstance
from .towers import CyclotomicTower, IAdjoinedTower, MultiquadraticTower, Tower, TowerElem
from .verdicts import EqualityDecision, Rationale

logger = logging.getLogger("hgdecide.schanuel")

STRESS_CHECK_BITS = 256


# ---------------------------------------------------------------------------
# Basis over {1, i} u S
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisResult:
    """Normalized basis S with integer reconstruction of every w.

    w_k = one_part[k] + i_part[k]*i + sum_j coeffs[k][j] * s[j], with
    one_part in (1/2)Z, i_part in Z, and integer coeffs.  `lcms` records
    the provenance: s_j is the j-th independent w over lcms_j.
    """

    tower: Tower
    s: tuple[TowerElem, ...]
    lcms: tuple[int, ...]
    one_part: tuple[Fraction, ...]
    i_part: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]

    def describe(self) -> dict:
        return {
            "basis_size": len(self.s),
            "lcms": list(self.lcms),
            "coeffs": [list(row) for row in self.coeffs],
        }


def build_basis(ws: list[TowerElem], tower: Tower) -> BasisResult:
    """Greedy maximal independent subset of the w's over {1, i} (the
    tower holds i), then the lcm normalization that makes every
    reconstruction integral."""
    elim = Eliminator(tower.degree)
    elim.try_add(tower.one().nums)
    i = tower.i_element()
    elim.try_add(i.nums, i.den)
    independent = [w for w in ws if elim.try_add(w.nums, w.den)]
    raw_rows = []
    for w in ws:
        coeffs = elim.express(w.nums, w.den)
        if coeffs is None:
            raise DecideError("internal: w outside its own span")
        raw_rows.append(coeffs)
    m = len(independent)
    lcms = [math.lcm(*(row[2 + j].denominator for row in raw_rows)) for j in range(m)]
    s = tuple(w * Fraction(1, l) for w, l in zip(independent, lcms))
    one_part = []
    i_part = []
    coeffs = []
    for row in raw_rows:
        r, ri = row[0], row[1]
        if not is_half_integer(r):
            raise UnsupportedInstance(f"rational offset {r} outside (1/2)Z")
        if ri.denominator != 1:
            raise UnsupportedInstance(f"imaginary offset {ri} not integral")
        one_part.append(r)
        i_part.append(int(ri))
        coeffs.append(tuple(int(row[2 + j] * lcms[j]) for j in range(m)))
    return BasisResult(tower, s, tuple(lcms), tuple(one_part), tuple(i_part), tuple(coeffs))


# ---------------------------------------------------------------------------
# Symbolic identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicIdentity:
    """Laurent polynomial over symbols (PI, E, Y_1..Y_m) asserting
    "limit - t = 0" after clearing denominators."""

    basis: BasisResult
    target: Fraction
    terms: dict  # tuple[int, ...] -> nonzero TowerElem of basis.tower

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def symbols_used(self) -> tuple[str, ...]:
        names = ["PI", "E"] + [f"Y{j+1}" for j in range(len(self.basis.s))]
        return tuple(sorted({names[k] for exps in self.terms for k, e in enumerate(exps) if e}))

    def describe(self) -> dict:
        return {
            "symbols": list(self.symbols_used()),
            "term_count": len(self.terms),
            "basis": self.basis.describe(),
            "target": format_rat(self.target),
        }


def _add_term(terms: dict, exps: tuple[int, ...], c: TowerElem) -> None:
    """Add the term c * X^exps; a sum that cancels leaves no term."""
    acc = terms.get(exps)
    total = c if acc is None else acc + c
    if total.is_zero:
        terms.pop(exps, None)
    else:
        terms[exps] = total


def _times(x: dict, y: dict) -> dict:
    """The product of two term maps."""
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


@dataclass(frozen=True)
class GammaPair:
    """One Gamma(rho+w)Gamma(rho-w) factor with w expanded over the basis.

    `translation` is the exact factor prod_j (c_j - w^2) over
    `translation_squares(rho)` that takes the pair down to its base center;
    it multiplies the pair's value when `rising` and divides it otherwise.
    """

    rho: Fraction  # in (1/2)Z
    w: TowerElem
    index: int  # row in the basis tables
    translation: TowerElem = field(init=False, compare=False)
    rising: bool = field(init=False, compare=False)

    def __post_init__(self):
        squares, rising = translation_squares(self.rho)
        tower = self.w.tower
        w2 = self.w * self.w
        factor = tower.one()
        for c in squares:
            factor = factor * (tower.rational(c) - w2)
        object.__setattr__(self, "translation", factor)
        object.__setattr__(self, "rising", rising)


def _pair_terms(pair: GammaPair, basis: BasisResult, nvars: int) -> tuple[dict, dict]:
    """The pair value's numerator A * 2 * pi * i^delta * M and denominator
    B * w*(1 - M^2) (integer rho) or B * (1 + M^2) (half-integer rho) as
    term maps, where the translation factor is A when it multiplies and B
    when it divides, and the other is 1."""
    tower = basis.tower
    integer_rho = pair.rho.denominator == 1
    a, b = (pair.translation, tower.one()) if pair.rising else (tower.one(), pair.translation)
    if integer_rho:
        b = pair.w * b
    ri = basis.i_part[pair.index]
    cs = basis.coeffs[pair.index]
    # M = exp(i pi w) = i^(2r) * E^(-ri) * prod Y_j^(c_j), so the numerator
    # carries i^k with k = 2r + delta; M^2 = (-1)^(2r) * E^(-2 ri) * prod
    # Y_j^(2 c_j) enters the denominator as (-1)^k M^2
    k = (int(2 * basis.one_part[pair.index]) + integer_rho) % 4
    num: dict = {}
    _add_term(num, (1, -ri) + cs, a * 2 * tower.i_element() ** k)
    den: dict = {}
    _add_term(den, (0,) * nvars, b)
    _add_term(den, (0, -2 * ri) + tuple(2 * c for c in cs), b * tower.rational(-1 if k % 2 else 1))
    return num, den


def build_identity(
    num_pairs: list[GammaPair],
    den_pairs: list[GammaPair],
    rational_factor: Fraction,
    t: Fraction,
    basis: BasisResult,
) -> SymbolicIdentity:
    """Cleared-denominator Laurent identity for "limit == t".

    limit = rational_factor * prod(num)/prod(den) of pair values; the
    returned map holds lhs - rhs after multiplying through by every pair
    denominator, with exp(i*pi) = -1 already substituted so only PI, E and
    the Y_j symbols remain.  A translation factor that divides a pair
    value is multiplied into the other side instead (`_pair_terms`), so
    the build never divides: that scales lhs - rhs by a nonzero field
    element, which keeps its term keys and its zero-ness.
    """
    tower = basis.tower
    nvars = 2 + len(basis.s)
    lhs: dict = {}
    rhs: dict = {}
    _add_term(lhs, (0,) * nvars, tower.rational(rational_factor))
    _add_term(rhs, (0,) * nvars, tower.rational(t))
    for pair in num_pairs:
        num, den = _pair_terms(pair, basis, nvars)
        lhs, rhs = _times(lhs, num), _times(rhs, den)
    for pair in den_pairs:
        num, den = _pair_terms(pair, basis, nvars)
        lhs, rhs = _times(lhs, den), _times(rhs, num)
    for exps, c in rhs.items():
        _add_term(lhs, exps, -c)
    return SymbolicIdentity(basis, t, lhs)


def decide_identity(ident: SymbolicIdentity) -> bool:
    """True iff all terms cancelled (exact tower arithmetic); a nonzero
    identity cannot hold under Schanuel's Conjecture."""
    return ident.is_zero


# ---------------------------------------------------------------------------
# Numeric evaluation (stress checks and order comparisons)
# ---------------------------------------------------------------------------


def _exp_i_pi_times(x: ComplexInterval, prec: int) -> ComplexInterval:
    """exp(i*pi*(a+bi)) = exp(-pi b) * (cos(pi a) + i sin(pi a))."""
    pi_iv = pi_interval(prec + 8)
    mag = exp_interval(pi_iv.mul(x.im, prec + 8).neg(), prec + 8)
    ang = pi_iv.mul(x.re, prec + 8)
    return ComplexInterval(
        cos_interval(ang, prec).mul(mag, prec),
        sin_interval(ang, prec).mul(mag, prec),
    )


def evaluate_identity(ident: SymbolicIdentity, prec: int) -> ComplexInterval:
    """Enclosure of the identity's value at the true constants."""
    pi_iv = pi_interval(prec + 8)
    pi_c = ComplexInterval.from_real(pi_iv)
    e_c = ComplexInterval.from_real(exp_interval(pi_iv, prec + 8))
    symbols = [pi_c, e_c] + [
        _exp_i_pi_times(s.embed(prec + 8), prec)
        for s in ident.basis.s
    ]
    powers: dict[tuple[int, int], ComplexInterval] = {}
    total = ComplexInterval.from_real(DyadicInterval.from_int(0))
    for exps, coeff in ident.terms.items():
        term = coeff.embed(prec)
        for k, e in enumerate(exps):
            if not e:
                continue
            power = powers.get((k, e))
            if power is None:
                power = powers[k, e] = symbols[k].pow_int(e, prec)
            term = term.mul(power, prec)
        total = total.add(term, prec)
    return total


def stress_check_identity(ident: SymbolicIdentity, config: EngineConfig = DEFAULT_CONFIG) -> bool:
    """Confirm a nonzero identity is numerically bounded away from zero.

    Returns True when separated; logs and returns False on a persistent
    near-zero at the precision cap (a conjecture stress case -- never
    silently dropped).
    """
    try:
        precision_ladder(
            lambda bits: not evaluate_identity(ident, bits).contains_zero() or None,
            STRESS_CHECK_BITS, config,
        )
        return True
    except PrecisionExceeded as e:
        logger.warning(
            "conjecture stress case: identity with %d terms not separated from zero: %s",
            len(ident.terms), e,
        )
        return False


# ---------------------------------------------------------------------------
# Conditional oracle and decider
# ---------------------------------------------------------------------------


def matched_gamma_pairs(cert: MatchingCertificate) -> list[tuple[Fraction, object]]:
    """Gamma-argument pairs from a root matching: roots u = rho + w pair
    into arguments -u = (-rho) - w, so the argument center is -rho."""
    if any(p.w is None for p in cert.pairs):
        raise UnsupportedInstance("matched roots lack an exact tower representation")
    return [(-p.rho, p.w) for p in cert.pairs]


def _rational_gamma_args(f: IntPoly) -> list[int]:
    """Gamma arguments -r at the rational roots r of f, with multiplicity."""
    return [g.coeffs[0] for g, mult in factor_monic(f) if g.degree == 1 for _ in range(mult)]


class ConditionalLimitOracle:
    """Equality via the symbolic identity; order by `enclosure.compare` over
    `limit_enclosure`, the product of the pair-value enclosures.

    A pure function of its instance: nothing is stored after construction,
    so every call answers the same in any order.
    """

    def __init__(self, inst: HGInstance, config: EngineConfig):
        self.config = config
        certs = []
        for side, poly in (("p", inst.p), ("q", inst.q)):
            cert = find_symmetric_matching(poly)
            if isinstance(cert, NoMatching):
                raise UnsupportedInstance(f"{side} lacks a perfect root matching")
            certs.append(cert)
        self.cert_p, self.cert_q = certs
        # Gamma at -roots(p) over Gamma at -roots(q), one basis row per pair
        raw = matched_gamma_pairs(self.cert_p) + matched_gamma_pairs(self.cert_q)
        self.tower = self._common_tower([w for _, w in raw])
        ws = [self._lift(w) for _, w in raw]
        if self.tower.i_element() is None:
            # the identity's coefficients hold powers of i
            self.tower = _tower(IAdjoinedTower, self.tower)
            ws = [self.tower.lift(w) for w in ws]
        pairs = [GammaPair(rho, w, k) for k, ((rho, _), w) in enumerate(zip(raw, ws))]
        self.basis = build_basis([pair.w for pair in pairs], self.tower)
        split = len(self.cert_p.pairs)
        self.num_pairs, self.den_pairs = pairs[:split], pairs[split:]
        self.rational_factor = Fraction(inst.u0) * integer_gamma_ratio(
            _rational_gamma_args(inst.p), _rational_gamma_args(inst.q)
        )

    def _common_tower(self, ws: list[TowerElem]) -> Tower:
        quad_ds = set()
        towers = set()
        for w in ws:
            if isinstance(w.tower, MultiquadraticTower):
                quad_ds.update(w.tower.radicands[1:])
            else:
                towers.add(w.tower)
        if len(towers) > 1:
            raise UnsupportedInstance("pair offsets span several towers")
        if towers:
            tower = next(iter(towers))
            if quad_ds and not isinstance(tower, CyclotomicTower):
                raise UnsupportedInstance("quadratic offsets mix only into cyclotomic towers")
            return tower
        return _tower(MultiquadraticTower, tuple(sorted(quad_ds | {-1})))

    def _lift(self, w: TowerElem) -> TowerElem:
        """w in the common tower; an offset outside it is multiquadratic and
        is rewritten one radicand at a time."""
        if w.tower == self.tower:
            return w
        radicands = w.tower.radicands
        return sum(
            (self._sqrt(d) * c for d, c in zip(radicands[1:], w.coords[1:])),
            self.tower.rational(w.coords[0]),
        )

    def _sqrt(self, d: int) -> TowerElem:
        """sqrt(d) in the common tower, on the multiquadratic embedding's
        branch (positive real for d > 0, positive imaginary for d < 0)."""
        if isinstance(self.tower, MultiquadraticTower):
            return self.tower.sqrt_elem(d)
        root = self.tower.sqrt_of(d)
        if root is None:
            raise UnsupportedInstance(f"sqrt({d}) does not embed in the conductor-{self.tower.n} tower")
        return root

    def decide_equal(self, t: Fraction) -> EqualityDecision:
        """The identity's verdict with the matching and identity it rests
        on; a nonzero identity also records its stress check."""
        ident = build_identity(
            self.num_pairs, self.den_pairs, self.rational_factor, t, self.basis
        )
        matching = {"p": self.cert_p.describe(), "q": self.cert_q.describe()}
        identity = ident.describe()
        if decide_identity(ident):
            return EqualityDecision(True, Rationale.IDENTITY_CANCELLATION, matching=matching, identity=identity)
        identity["stress_separated"] = stress_check_identity(ident, self.config)
        return EqualityDecision(False, Rationale.IDENTITY_NONZERO, matching=matching, identity=identity)

    # -- numeric limit value ------------------------------------------------

    def _pair_value(self, pair: GammaPair, prec: int) -> ComplexInterval:
        """Gamma(rho+w)Gamma(rho-w) enclosure from M = exp(i*pi*w), by the
        module docstring's formulas: A * 2*pi*i * M / (w (1 - M^2)) for
        integer rho, A * 2*pi * M / (1 + M^2) for half-integer rho, with A
        the embedded translation factor (or 1/A when it divides)."""
        wv = pair.w.embed(prec + 8)
        one = ComplexInterval.from_real(DyadicInterval.from_int(1))
        m = _exp_i_pi_times(wv, prec + 8)
        m2 = m.mul(m, prec + 8)
        two_pi = ComplexInterval.from_real(pi_interval(prec + 8).scale(Fraction(2), prec + 8))
        if pair.rho.denominator == 1:
            two_pi_i_m = two_pi.mul(ComplexInterval(m.im.neg(), m.re), prec + 8)
            core = two_pi_i_m.div(wv.mul(one.sub(m2, prec + 8), prec + 8), prec)
        else:
            core = two_pi.mul(m, prec + 8).div(one.add(m2, prec + 8), prec)
        a_val = pair.translation.embed(prec + 8)
        return a_val.mul(core, prec) if pair.rising else core.div(a_val, prec)

    def limit_enclosure(self, prec: int) -> DyadicInterval:
        total = ComplexInterval.from_real(
            DyadicInterval.from_fraction(self.rational_factor, prec + 8)
        )
        for pair in self.num_pairs:
            total = total.mul(self._pair_value(pair, prec), prec)
        for pair in self.den_pairs:
            total = total.div(self._pair_value(pair, prec), prec)
        # the limit is real (conjugate-closed data); the real-part interval
        # is a valid enclosure regardless of the imaginary slack
        return total.re

    def compare(self, t: Fraction) -> tuple[int, int, DyadicInterval]:
        return compare(self, t, self.config)
