"""Exact interval relations, the interval kernels' reference formulas, and
an enclosure probe, that only the tests need."""

from fractions import Fraction


def record_enclosures(monkeypatch) -> list[str]:
    """The name of every `CanonicalConstant.limit_enclosure` and enclosure
    kernel call from now on, wherever the kernel is bound."""
    from hgdecide import enclosure, gammacanon, schanuel, towers

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    cls = gammacanon.CanonicalConstant
    monkeypatch.setattr(cls, "limit_enclosure", counting("limit_enclosure", cls.limit_enclosure))
    for name in ("pi_interval", "root_int_interval", "exp_interval", "sin_interval", "cos_interval"):
        kernel = getattr(enclosure, name)
        for module in (enclosure, gammacanon, schanuel, towers):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counting(name, kernel))
    return calls


def overlaps(a, b) -> bool:
    """Two DyadicIntervals share a point."""
    return a.lo <= b.hi and b.lo <= a.hi


def round_down(man: int, exp: int, prec: int) -> tuple[int, int]:
    """Largest dyadic with <= prec mantissa bits that is <= man*2**exp."""
    extra = man.bit_length() - prec
    if extra <= 0 or man == 0:
        return man, exp
    return man >> extra, exp + extra  # >> floors toward -inf


def round_up(man: int, exp: int, prec: int) -> tuple[int, int]:
    extra = man.bit_length() - prec
    if extra <= 0 or man == 0:
        return man, exp
    return -((-man) >> extra), exp + extra


def outward(lo, hi, prec):
    """The checked interval of lo rounded down and hi rounded up, each a
    (mantissa, exponent) pair: the reference for every rounded result."""
    from hgdecide.dyadic import DyadicInterval

    return DyadicInterval(*round_down(*lo, prec), *round_up(*hi, prec))


def reference_round(a, prec):
    return outward((a.lo_man, a.lo_exp), (a.hi_man, a.hi_exp), prec)


def reference_add(a, b, prec):
    from hgdecide.dyadic import _add

    return outward(
        _add(a.lo_man, a.lo_exp, b.lo_man, b.lo_exp),
        _add(a.hi_man, a.hi_exp, b.hi_man, b.hi_exp),
        prec,
    )


def reference_neg(a):
    from hgdecide.dyadic import DyadicInterval

    return DyadicInterval(-a.hi_man, a.hi_exp, -a.lo_man, a.lo_exp)


def reference_sub(a, b, prec):
    return reference_add(a, reference_neg(b), prec)


def reference_inv(a, prec):
    from hgdecide.dyadic import DyadicInterval, _div_down, _div_up
    from hgdecide.errors import IntervalStraddlesZero

    if a.lo_man <= 0 <= a.hi_man:
        raise IntervalStraddlesZero("interval reciprocal across zero")
    return DyadicInterval(*_div_down(1, 0, a.hi_man, a.hi_exp, prec), *_div_up(1, 0, a.lo_man, a.lo_exp, prec))


def _corners(a, b):
    """The four corner products as (mantissa, exponent), and their values."""
    corners = [
        (m1 * m2, e1 + e2)
        for m1, e1 in ((a.lo_man, a.lo_exp), (a.hi_man, a.hi_exp))
        for m2, e2 in ((b.lo_man, b.lo_exp), (b.hi_man, b.hi_exp))
    ]
    return corners, [Fraction(m) * Fraction(2) ** e for m, e in corners]


def corner_product(a, b, prec):
    """DyadicInterval product from all four corners, picked by exact
    Fraction comparison (the first of equal corners wins): the reference
    for the sign-case `DyadicInterval.mul`."""
    corners, values = _corners(a, b)
    lo = corners[values.index(min(values))]
    hi = corners[values.index(max(values))]
    return outward(lo, hi, prec)


def corner_products(a, b, prec) -> set:
    """The ends of every product `corner_product` could give under another
    tie-break: the least and the greatest corner may each be written with
    more than one exponent (a zero end, or a point written two ways), and
    the rounded bits follow the representation."""
    corners, values = _corners(a, b)
    lows = [c for c, v in zip(corners, values) if v == min(values)]
    highs = [c for c, v in zip(corners, values) if v == max(values)]
    return {tuple(outward(lo, hi, prec)) for lo in lows for hi in highs}


def corner_complex_div(z, w, prec):
    """`ComplexInterval.div` built on `corner_product`, with the reciprocal
    of |w|^2 taken once per part as the four-corner kernel did."""
    from hgdecide.dyadic import ComplexInterval, DyadicInterval
    from hgdecide.errors import IntervalStraddlesZero

    def cmul(x, y, p):
        re = corner_product(x.re, y.re, p).sub(corner_product(x.im, y.im, p), p)
        im = corner_product(x.re, y.im, p).add(corner_product(x.im, y.re, p), p)
        return ComplexInterval(re, im)

    def square(iv, p):
        s = corner_product(iv, iv, p)
        return DyadicInterval(0, 0, s.hi_man, s.hi_exp) if s.lo_man < 0 else s

    p = prec + 8
    d = square(w.re, p + 8).add(square(w.im, p + 8), p + 8)
    if d.contains_zero():
        raise IntervalStraddlesZero("complex interval reciprocal across zero")
    inv = ComplexInterval(
        corner_product(w.re, d.inv(p + 8), p), corner_product(w.im.neg(), d.inv(p + 8), p)
    )
    return cmul(z, inv, prec)
