"""Conditional decision procedure for root-symmetric instances.

For balanced instances whose polynomials admit a perfect matching on the
root-symmetry graph, the limit is a product of conjugate-style pair values

    Gamma(rho+w) Gamma(rho-w) = A * 2*pi*i * M / (w (1 - M^2))   (rho in Z)
                              = A * 2*pi   * M / (1 + M^2)       (rho in Z+1/2)

with M = exp(i*pi*w) and A an exact tower element.  Writing every w as an
integer combination over a normalized basis {1, i} u S with pi*{1, i} u
pi*S rationally independent turns "limit == t" into a Laurent-polynomial
identity in the symbols PI, E = exp(pi), Y_j = exp(i*pi*s_j).  The
identity either cancels to 0 == 0 (an unconditional Equal) or is a
nonzero polynomial relation that Schanuel's Conjecture rules out, giving
a NotEqual labeled conditional.  Order comparisons and search bounds stay
unconditional, and a completed NotEqual run also carries a separating
enclosure, so correctness never actually rests on the conjecture; only
termination does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import ComplexInterval, DyadicInterval
from .enclosure import (
    cos_interval,
    exp_interval,
    pi_interval,
    precision_ladder,
    sin_interval,
)
from .equality import _unconditional_oracle, decide
from .errors import DecideError, PrecisionExceeded, UnsupportedInstance
from .exactnum import QuadElem, is_half_integer
from .linalg import Eliminator
from .polys import IntPoly, factor_monic
from .recognize import MatchingCertificate, NoMatching, find_symmetric_matching
from .sequence import HGInstance
from .towers import MultiquadraticTower, Tower, TowerElem
from .verdicts import EqualityDecision, Rationale, Verdict

logger = logging.getLogger("hgdecide.schanuel")

STRESS_CHECK_BITS = 256


# ---------------------------------------------------------------------------
# Coefficients: tower elements with an adjoined formal i when needed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CElem:
    """re + i*im over a tower.

    When the tower already contains i the imaginary part is folded into
    `re` eagerly, so the zero test stays a plain coordinate check in both
    shapes (the fold is what keeps cancellation sound: 1 + i*i must be 0).
    """

    re: TowerElem
    im: TowerElem

    @classmethod
    def make(cls, tower: Tower, re: TowerElem, im: TowerElem | None = None) -> "CElem":
        if im is None:
            im = tower.zero()
        if not im.is_zero and tower.coords_of_i() is not None:
            re = re + tower.i_element() * im
            im = tower.zero()
        return cls(re, im)

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def add(self, other: "CElem") -> "CElem":
        return CElem(self.re + other.re, self.im + other.im)

    def neg(self) -> "CElem":
        return CElem(-self.re, -self.im)

    def mul(self, other: "CElem") -> "CElem":
        return CElem(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def mul_i_power(self, k: int) -> "CElem":
        k %= 4
        tower = self.re.tower
        if tower.coords_of_i() is not None:
            return CElem(self.re * tower.i_element() ** k, self.im)
        out = self
        for _ in range(k):
            out = CElem(-out.im, out.re)
        return out

    def embed(self, prec: int) -> ComplexInterval:
        re = self.re.embed(prec)
        im = self.im.embed(prec)
        rot = ComplexInterval(im.im.neg(), im.re)  # i * im
        return re.add(rot, prec)


# ---------------------------------------------------------------------------
# Basis over {1, i} u S
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisResult:
    """Normalized basis S with integer reconstruction of every w.

    w_k = one_part[k] + i_part[k]*i + sum_j coeffs[k][j] * s[j], with
    one_part in (1/2)Z, i_part in Z, and integer coeffs.  `sprime` and
    `lcms` record the provenance: s_j = sprime_j / lcms_j.
    """

    tower: Tower
    s: tuple[TowerElem, ...]
    sprime: tuple[TowerElem, ...]
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
    """Greedy maximal independent subset of the w's over {1, i}, then the
    lcm normalization that makes every reconstruction integral."""
    elim = Eliminator(tower.degree)
    one = tower.one()
    elim.try_add(list(one.coords))
    i_coords = tower.coords_of_i()
    has_i = i_coords is not None
    if has_i:
        elim.try_add(list(i_coords))
    sprime: list[TowerElem] = []
    for w in ws:
        if elim.try_add(list(w.coords)):
            sprime.append(w)
    raw_rows = []
    for w in ws:
        coeffs = elim.express(list(w.coords))
        if coeffs is None:
            raise DecideError("internal: w outside its own span")
        raw_rows.append(coeffs)
    m = len(sprime)
    base = 2 if has_i else 1
    lcms = []
    for j in range(m):
        lcm = 1
        for row in raw_rows:
            den = row[base + j].denominator
            lcm = lcm * den // __import__("math").gcd(lcm, den)
        lcms.append(lcm)
    s = tuple(sp * Fraction(1, l) for sp, l in zip(sprime, lcms))
    one_part = []
    i_part = []
    coeffs = []
    for row in raw_rows:
        r = row[0]
        if not is_half_integer(r):
            raise UnsupportedInstance(f"rational offset {r} outside (1/2)Z")
        one_part.append(r)
        if has_i:
            ri = row[1]
            if ri.denominator != 1:
                raise UnsupportedInstance(f"imaginary offset {ri} not integral")
            i_part.append(int(ri))
        else:
            i_part.append(0)
        coeffs.append(tuple(int(row[base + j] * lcms[j]) for j in range(m)))
    return BasisResult(
        tower, s, tuple(sprime), tuple(lcms),
        tuple(one_part), tuple(i_part), tuple(coeffs),
    )


# ---------------------------------------------------------------------------
# Symbolic identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicIdentity:
    """Laurent polynomial over symbols (PI, E, Y_1..Y_m) asserting
    "limit - t = 0" after clearing denominators."""

    tower: Tower
    basis: BasisResult
    target: Fraction
    terms: dict  # tuple[int, ...] -> CElem

    @property
    def nvars(self) -> int:
        return 2 + len(self.basis.s)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def symbols_used(self) -> tuple[str, ...]:
        names = ["PI", "E"] + [f"Y{j+1}" for j in range(len(self.basis.s))]
        used = set()
        for exps in self.terms:
            for k, e in enumerate(exps):
                if e:
                    used.add(names[k])
        return tuple(sorted(used))

    def describe(self) -> dict:
        return {
            "symbols": list(self.symbols_used()),
            "term_count": len(self.terms),
            "basis": self.basis.describe(),
            "target": str(self.target),
        }


class _Laurent:
    """Mutable helper for building term maps."""

    def __init__(self, nvars: int, tower: Tower):
        self.nvars = nvars
        self.tower = tower
        self.terms: dict = {}

    @classmethod
    def constant(cls, nvars: int, tower: Tower, c: CElem) -> "_Laurent":
        out = cls(nvars, tower)
        if not c.is_zero:
            out.terms[(0,) * nvars] = c
        return out

    def mul(self, other: "_Laurent") -> "_Laurent":
        out = _Laurent(self.nvars, self.tower)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                ne = tuple(a + b for a, b in zip(e1, e2))
                nc = c1.mul(c2)
                acc = out.terms.get(ne)
                s = nc if acc is None else acc.add(nc)
                if s.is_zero:
                    out.terms.pop(ne, None)
                else:
                    out.terms[ne] = s
        return out

    def sub(self, other: "_Laurent") -> "_Laurent":
        out = _Laurent(self.nvars, self.tower)
        out.terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.terms.get(e)
            s = c.neg() if acc is None else acc.add(c.neg())
            if s.is_zero:
                out.terms.pop(e, None)
            else:
                out.terms[e] = s
        return out


@dataclass(frozen=True)
class GammaPair:
    """One Gamma(rho+w)Gamma(rho-w) factor with w expanded over the basis."""

    rho: Fraction  # in (1/2)Z
    w: TowerElem
    index: int  # row in the basis tables


def _pair_numerator(pair: GammaPair, basis: BasisResult, tower: Tower, nvars: int) -> _Laurent:
    """A * 2 * pi * i^delta * M as a one-term Laurent polynomial."""
    rho, w = pair.rho, pair.w
    integer_rho = rho.denominator == 1
    a_elem = tower.one()
    if integer_rho:
        n = int(rho)
        if n > 0:
            for j in range(n):
                a_elem = a_elem * (tower.rational(j * j) - w * w)
        elif n < 0:
            for j in range(1, -n + 1):
                a_elem = a_elem / (tower.rational(j * j) - w * w)
    else:
        n = int(rho - Fraction(1, 2))
        if n > 0:
            for j in range(n):
                a_elem = a_elem * (tower.rational(Fraction(2 * j + 1, 2) ** 2) - w * w)
        elif n < 0:
            for j in range(1, -n + 1):
                a_elem = a_elem / (tower.rational(Fraction(2 * j - 1, 2) ** 2) - w * w)
    r = basis.one_part[pair.index]
    ri = basis.i_part[pair.index]
    cs = basis.coeffs[pair.index]
    # M = exp(i pi w) = i^(2r) * E^(-ri) * prod Y_j^(c_j)
    exps = (1, -ri) + cs
    coeff = CElem.make(tower, a_elem * 2).mul_i_power((int(2 * r) + (1 if integer_rho else 0)) % 4)
    out = _Laurent(nvars, tower)
    if not coeff.is_zero:
        out.terms[exps] = coeff
    return out


def _pair_denominator(pair: GammaPair, basis: BasisResult, tower: Tower, nvars: int) -> _Laurent:
    """w*(1 - M^2) for integer rho, (1 + M^2) for half-integer rho."""
    rho = pair.rho
    integer_rho = rho.denominator == 1
    r = basis.one_part[pair.index]
    ri = basis.i_part[pair.index]
    cs = basis.coeffs[pair.index]
    msq_exps = (0, -2 * ri) + tuple(2 * c for c in cs)
    msq_coeff = CElem.make(tower, tower.one()).mul_i_power(int(4 * r) % 4)  # (-1)^(2r)
    out = _Laurent(nvars, tower)
    zero_exps = (0,) * nvars
    if integer_rho:
        w_c = CElem.make(tower, pair.w)
        out.terms[zero_exps] = w_c
        m2 = w_c.mul(msq_coeff).neg()
        acc = out.terms.get(msq_exps)
        out.terms[msq_exps] = m2 if acc is None else acc.add(m2)
        if out.terms[msq_exps].is_zero:
            del out.terms[msq_exps]
    else:
        out.terms[zero_exps] = CElem.make(tower, tower.one())
        acc = out.terms.get(msq_exps)
        s = msq_coeff if acc is None else acc.add(msq_coeff)
        if s.is_zero:
            out.terms.pop(msq_exps, None)
        else:
            out.terms[msq_exps] = s
    return out


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
    the Y_j symbols remain.
    """
    tower = basis.tower
    nvars = 2 + len(basis.s)
    lhs = _Laurent.constant(nvars, tower, CElem.make(tower, tower.rational(rational_factor)))
    rhs = _Laurent.constant(nvars, tower, CElem.make(tower, tower.rational(t)))
    for pair in num_pairs:
        lhs = lhs.mul(_pair_numerator(pair, basis, tower, nvars))
        rhs = rhs.mul(_pair_denominator(pair, basis, tower, nvars))
    for pair in den_pairs:
        lhs = lhs.mul(_pair_denominator(pair, basis, tower, nvars))
        rhs = rhs.mul(_pair_numerator(pair, basis, tower, nvars))
    diff = lhs.sub(rhs)
    return SymbolicIdentity(tower, basis, t, diff.terms)


@dataclass(frozen=True)
class IdentityVerdict:
    holds: bool
    unconditional_reason: str | None = None  # fast-path transcendence note


def decide_identity(ident: SymbolicIdentity, config: EngineConfig = DEFAULT_CONFIG) -> IdentityVerdict:
    """Zero iff all terms cancelled (exact tower arithmetic).

    A nonzero identity cannot hold under Schanuel's Conjecture; when it
    mentions only PI (or only PI and E) the failure is already
    unconditional by classical transcendence, recorded as a note.
    """
    if ident.is_zero:
        return IdentityVerdict(True)
    used = set(ident.symbols_used())
    reason = None
    if used <= {"PI"}:
        reason = "pi_transcendence"
    elif used <= {"E"}:
        reason = "gelfond_schneider"
    elif used <= {"PI", "E"}:
        reason = "nesterenko_pi_exp_pi"
    return IdentityVerdict(False, reason)


def identity_norm(ident: SymbolicIdentity) -> dict:
    """Galois-norm audit artifact: rational-coefficient polynomial that
    vanishes wherever the identity's own polynomial does."""
    from .towers import MPoly, galois_norm_poly

    tower = ident.tower
    has_i = tower.coords_of_i() is not None
    nvars = ident.nvars if has_i else ident.nvars + 1
    terms: dict = {}
    shift = min((e for exps in ident.terms for e in exps), default=0)
    for exps, c in ident.terms.items():
        base = tuple(e - shift for e in exps)
        if has_i:
            terms[base] = c.re
        else:
            # adjoin a formal variable for i (exact over the real tower)
            for extra, part in ((0, c.re), (1, c.im)):
                if not part.is_zero:
                    terms[base + (extra,)] = part
    mp = MPoly(tower, nvars, terms)
    return galois_norm_poly(mp)


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
    ys = [
        _exp_i_pi_times(s.embed(prec + 8), prec)
        for s in ident.basis.s
    ]
    total = ComplexInterval.from_real(DyadicInterval.from_int(0))
    for exps, coeff in ident.terms.items():
        term = coeff.embed(prec)
        term = term.mul(pi_c.pow_int(exps[0], prec), prec)
        term = term.mul(e_c.pow_int(exps[1], prec), prec)
        for y, e in zip(ys, exps[2:]):
            term = term.mul(y.pow_int(e, prec), prec)
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
    out = []
    for p in cert.pairs:
        if p.w is None:
            raise UnsupportedInstance(
                "matched roots lack an exact tower representation", cert.describe()
            )
        out.append((-p.rho, p.w))
    return out


def _rational_roots_with_mult(f: IntPoly) -> list[tuple[int, int]]:
    return [
        (-g.coeffs[0], mult) for g, mult in factor_monic(f) if g.degree == 1
    ]


class ConditionalLimitOracle:
    """Equality via the symbolic identity; order via pair-value enclosures."""

    def __init__(self, inst: HGInstance, config: EngineConfig):
        self.inst = inst
        self.config = config
        cert_p = find_symmetric_matching(inst.p)
        if isinstance(cert_p, NoMatching):
            raise UnsupportedInstance("p lacks a perfect root matching", cert_p.describe())
        cert_q = find_symmetric_matching(inst.q)
        if isinstance(cert_q, NoMatching):
            raise UnsupportedInstance("q lacks a perfect root matching", cert_q.describe())
        self.cert_p, self.cert_q = cert_p, cert_q

        num_raw = matched_gamma_pairs(cert_p)  # numerator: Gamma at -roots(p)
        den_raw = matched_gamma_pairs(cert_q)
        self.tower = self._common_tower(
            [w for _, w in num_raw] + [w for _, w in den_raw]
        )
        num_lift = [(rho, self._lift(w)) for rho, w in num_raw]
        den_lift = [(rho, self._lift(w)) for rho, w in den_raw]
        ws = [w for _, w in num_lift] + [w for _, w in den_lift]
        self.basis = build_basis(ws, self.tower)
        self.num_pairs = [
            GammaPair(rho, w, k) for k, (rho, w) in enumerate(num_lift)
        ]
        self.den_pairs = [
            GammaPair(rho, w, len(num_lift) + k) for k, (rho, w) in enumerate(den_lift)
        ]
        # rational gamma arguments: -root for each rational root, absorbed
        # into the prefactor as factorials
        import math

        factor = Fraction(inst.u0)
        for root, mult in _rational_roots_with_mult(inst.p):
            arg = -root
            if arg < 1:
                raise DecideError(f"gamma argument {arg} out of range")
            factor *= Fraction(math.factorial(arg - 1)) ** mult
        for root, mult in _rational_roots_with_mult(inst.q):
            arg = -root
            if arg < 1:
                raise DecideError(f"gamma argument {arg} out of range")
            factor /= Fraction(math.factorial(arg - 1)) ** mult
        self.rational_factor = factor
        self.last_identity: SymbolicIdentity | None = None
        self.stress_ok: bool | None = None

    def _common_tower(self, ws: list) -> Tower:
        from .towers import CyclotomicTower

        quad_ds = set()
        towers = set()
        for w in ws:
            if isinstance(w, QuadElem):
                quad_ds.add(w.d)
            elif isinstance(w, TowerElem):
                towers.add(w.tower)
            else:
                raise UnsupportedInstance(f"unrepresentable pair offset {w!r}")
        if len(towers) > 1:
            raise UnsupportedInstance("pair offsets span several towers")
        if towers:
            tower = next(iter(towers))
            if quad_ds:
                if not isinstance(tower, CyclotomicTower):
                    raise UnsupportedInstance(
                        "quadratic offsets mix only into cyclotomic towers"
                    )
                for d in quad_ds:
                    if tower.sqrt_of(d) is None:
                        raise UnsupportedInstance(
                            f"sqrt({d}) does not embed in the conductor-{tower.n} tower"
                        )
            return tower
        return MultiquadraticTower(tuple(sorted(quad_ds | {-1})))

    def _lift(self, w) -> TowerElem:
        if isinstance(w, QuadElem):
            if isinstance(self.tower, MultiquadraticTower):
                return self.tower.from_quad(w)
            root = self.tower.sqrt_of(w.d)
            # match the quadratic embedding convention (positive real branch
            # for d > 0, positive imaginary for d < 0)
            emb = root.embed(64)
            coord = emb.re if w.d > 0 else emb.im
            if coord.is_negative():
                root = -root
            elif not coord.is_positive():
                raise DecideError("internal: ambiguous sqrt branch at 64 bits")
            return self.tower.rational(w.a) + root * w.b
        return w

    def decide_equal(self, t: Fraction) -> EqualityDecision:
        ident = build_identity(
            self.num_pairs, self.den_pairs, self.rational_factor, t, self.basis
        )
        self.last_identity = ident
        verdict = decide_identity(ident, self.config)
        if verdict.holds:
            # replay with freshly constructed terms before trusting Equal
            replay = build_identity(
                self.num_pairs, self.den_pairs, self.rational_factor, t, self.basis
            )
            if not replay.is_zero:
                raise DecideError("internal: identity cancellation not reproducible")
            return EqualityDecision(True, Rationale.IDENTITY_CANCELLATION, conditional=False)
        self.stress_ok = stress_check_identity(ident, self.config)
        return EqualityDecision(False, Rationale.IDENTITY_NONZERO, conditional=True)

    # -- numeric limit value ------------------------------------------------

    def _pair_value(self, pair: GammaPair, prec: int) -> ComplexInterval:
        """Gamma(rho+w)Gamma(rho-w) enclosure via the reflection formulas."""
        rho, w = pair.rho, pair.w
        integer_rho = rho.denominator == 1
        wv = w.embed(prec + 8)
        pi_iv = pi_interval(prec + 8)
        pi_c = ComplexInterval.from_real(pi_iv)
        pw = ComplexInterval(
            pi_iv.mul(wv.re, prec + 8), pi_iv.mul(wv.im, prec + 8)
        )
        a_val = ComplexInterval.from_real(DyadicInterval.from_int(1))
        if integer_rho:
            n = int(rho)
            for j in range(abs(n)):
                jj = j if n > 0 else j + 1
                f = ComplexInterval.from_real(DyadicInterval.from_int(jj * jj)).sub(
                    wv.mul(wv, prec), prec
                )
                a_val = a_val.mul(f, prec) if n > 0 else a_val.div(f, prec)
            sin_pw = _complex_sin_or_cos(pw, prec, cos=False)
            core = pi_c.div(wv.mul(sin_pw, prec + 8), prec).neg()
        else:
            n = int(rho - Fraction(1, 2))
            for j in range(abs(n)):
                # (j+1/2)^2 going up, (j+1-1/2)^2 going down: both (2j+1)/2
                hv = Fraction(2 * j + 1, 2)
                sq = ComplexInterval.from_real(DyadicInterval.from_fraction(hv * hv, prec + 8))
                f = sq.sub(wv.mul(wv, prec), prec)
                a_val = a_val.mul(f, prec) if n > 0 else a_val.div(f, prec)
            core = pi_c.div(_complex_sin_or_cos(pw, prec, cos=True), prec)
        return a_val.mul(core, prec)

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

    def compare(self, t: Fraction) -> tuple[int, int]:
        return precision_ladder(
            lambda bits: self.limit_enclosure(bits).compare_fraction(Fraction(t)),
            self.config.compare_start_bits, self.config,
        )

    def verdict_extras(self) -> dict:
        extras = {
            "matching": {
                "p": self.cert_p.describe(),
                "q": self.cert_q.describe(),
            },
        }
        if self.last_identity is not None:
            ident = self.last_identity.describe()
            if self.stress_ok is not None:
                ident["stress_separated"] = self.stress_ok
            extras["identity"] = ident
        return extras


def _complex_sin_or_cos(z: ComplexInterval, prec: int, cos: bool) -> ComplexInterval:
    """sin(x+iy) = sin x cosh y + i cos x sinh y, or
    cos(x+iy) = cos x cosh y - i sin x sinh y."""
    ey = exp_interval(z.im, prec + 8)
    ey_inv = ey.inv(prec + 8)
    half = Fraction(1, 2)
    cosh = ey.add(ey_inv, prec + 8).scale(half, prec + 8)
    sinh = ey.sub(ey_inv, prec + 8).scale(half, prec + 8)
    sin_x, cos_x = sin_interval(z.re, prec), cos_interval(z.re, prec)
    if cos:
        return ComplexInterval(cos_x.mul(cosh, prec), sin_x.mul(sinh, prec).neg())
    return ComplexInterval(sin_x.mul(cosh, prec), cos_x.mul(sinh, prec))


def conditional_oracle_builder(inst: HGInstance, config: EngineConfig):
    """Route to the unconditional machinery when it applies (the imaginary
    quadratic degeneration), otherwise build the identity oracle."""
    try:
        return _unconditional_oracle(inst, config)
    except UnsupportedInstance:
        return ConditionalLimitOracle(inst, config)


def decide_conditional(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG) -> Verdict:
    """Same pipeline as the unconditional decider with the equality oracle
    swapped; only NotEqual outcomes that came from the symbolic-identity
    path carry the conditional label."""
    return decide(inst, config, oracle_builder=conditional_oracle_builder)
