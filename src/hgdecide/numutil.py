"""Integer helpers: factorization, squarefree decomposition, roots.

Desk-scale inputs only; Pollard rho covers the occasional 64-bit cofactor
within a step budget, past which factoring is a resource error.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import PrecisionExceeded

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the first 13 primes: no composite below psi_13 = 3317044064679887385961981
# is a strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
# 86, 2017); the first 12 stop at psi_12 = 318665857834031151167461
_WITNESSES = _SMALL_PRIMES + (41,)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < psi_13 ~ 3.3e24 (`_WITNESSES`)."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# total steps of `_pollard_rho`: about 0.3 s on a 200-bit n; products of
# two primes near 2^31 took at most 81500 in 40 random draws
_RHO_STEPS = 2**17


def _pollard_rho(n: int) -> int:
    """A proper divisor of the odd composite n by Floyd's cycle search on
    x^2 + c, c = 1, 2, ...; PrecisionExceeded after _RHO_STEPS steps."""
    x, y, c = 2, 2, 1
    for _ in range(_RHO_STEPS):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        d = math.gcd(x - y, n)
        if d == n:  # the cycle closed on n itself: the next c
            x = y = 2
            c += 1
        elif d > 1:
            return d
    raise PrecisionExceeded(f"no factor of a {n.bit_length()}-bit integer in {_RHO_STEPS} steps")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; 0 and ±1 give {}."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * d with d squarefree (sign carried by d).

    Returns (s, d); n must be nonzero.
    """
    if n == 0:
        raise ValueError("zero has no squarefree part")
    s, d = 1, 1 if n > 0 else -1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def perfect_power_root(a: int, k: int) -> int | None:
    """Integer r with r**k == a, else None.  k >= 1; a may be negative."""
    if k == 1:
        return a
    if a < 0:
        if k % 2 == 0:
            return None
        r = perfect_power_root(-a, k)
        return -r if r is not None else None
    r = int_nthroot_floor(a, k)
    return r if r**k == a else None


# every n that cyclotomic_index tries for a degree-32 polynomial
@lru_cache(maxsize=4096)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def int_nthroot_floor(a: int, k: int) -> int:
    """floor(a ** (1/k)) for a >= 0, k >= 1, by Newton on integers."""
    if a < 0:
        raise ValueError("negative radicand")
    if a == 0:
        return 0
    if k == 1:
        return a
    x = 1 << (-(-a.bit_length() // k))
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > a:
        x -= 1
    return x
