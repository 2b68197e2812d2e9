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
_PSI_13 = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the `_WITNESSES`, deterministic for n < psi_13; from
    psi_13 up (psi_13 itself passes them) also a strong Lucas test, which
    with the base-2 test makes Baillie-PSW, with no known pseudoprime."""
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
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n with no factor below 42,
    with Selfridge's parameters: the first D of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35,
    1980).  U and V run over the bits of the odd part d of n + 1."""
    if math.isqrt(n) ** 2 == n:  # no D with (D/n) = -1 exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    # U_1 = 1, V_1 = P = 1; doubling U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k,
    # and one step U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


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
    if k == 2:
        return math.isqrt(a)
    x = 1 << (-(-a.bit_length() // k))
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > a:
        x -= 1
    return x
