"""Integer helpers: factorization, squarefree decomposition, divisors.

Desk-scale inputs only; Pollard rho covers the occasional 64-bit cofactor.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DecideError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed witness set)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise DecideError(f"factorization stalled on {n}")


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


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return squarefree_decompose(n)[0] == 1


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n| (n nonzero)."""
    fac = factorize(n)
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def perfect_power_root(a: int, k: int) -> int | None:
    """Integer r with r**k == a, else None.  k >= 1; a may be negative."""
    if k == 1:
        return a
    if a < 0:
        if k % 2 == 0:
            return None
        r = perfect_power_root(-a, k)
        return -r if r is not None else None
    if a in (0, 1):
        return a
    r = round(a ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == a:
            return cand
    return None


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
