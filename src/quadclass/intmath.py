"""Arbitrary-precision integer arithmetic substrate.

A prime sieve, Miller-Rabin primality, trial-division plus Brent-rho
factoring, square-free decomposition, the field discriminant of a
square-free d, Tonelli-Shanks square roots modulo odd primes, and the
Kronecker symbol.

All operations are pure functions of their arguments: each factorization
draws its rho parameters from its own fixed-seed generator, and each
primality test above 3.3e24 draws its extra rounds from another, so an
answer and the budget it spends never depend on earlier calls or on what
the cache holds.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cache as result_cache
from .errors import InputError, ResourceCapError

TRIAL_DIVISION_BOUND = 10**5
DEFAULT_FACTOR_BUDGET = 4_000_000  # rho steps on 64-bit words; generous for ~80-bit composites
_DEFAULT_SEED = 0x5EED

# Fixed Miller-Rabin witness set, deterministic for n below this bound
# (comfortably above 2^64).
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 40

# Largest power, in bits, that a family or witness builds before factoring
# it.  ``factor`` refuses numbers too long for str() (4300 decimal digits,
# about 14300 bits, by default) anyway; this keeps hopeless powers from
# being built at all.
MAX_POWER_BITS = 1 << 16


def _mr_composite_witness(a: int, d: int, s: int, n: int) -> bool:
    """True if base a proves n composite."""
    a %= n
    if a <= 1 or a == n - 1:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic (fixed witness set) for n below ~3.3e24, which covers all
    of [0, 2^64).  Above that, 40 extra random rounds bring the error
    probability under 4**-40; the rounds draw from a generator with a fixed
    seed made for this call, so the answer depends on n alone.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if _mr_composite_witness(a, d, s, n):
            return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(_DEFAULT_SEED)
        for _ in range(_MR_RANDOM_ROUNDS):
            if _mr_composite_witness(rng.randrange(2, n - 1), d, s, n):
                return False
    return True


def _primes_below(n: int) -> np.ndarray:
    """Primes below n, ascending, by the sieve of Eratosthenes."""
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


@lru_cache(maxsize=1)
def _small_prime_array() -> np.ndarray:
    """Primes below TRIAL_DIVISION_BOUND, read-only."""
    primes = _primes_below(TRIAL_DIVISION_BOUND)
    primes.flags.writeable = False
    return primes


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below TRIAL_DIVISION_BOUND."""
    return tuple(_small_prime_array().tolist())


def primes_through(n: int) -> np.ndarray:
    """The primes <= n, ascending: a slice of the cached primes below
    TRIAL_DIVISION_BOUND, or a fresh sieve when n reaches that bound."""
    if n >= TRIAL_DIVISION_BOUND:
        return _primes_below(n + 1)
    primes = _small_prime_array()
    return primes[: int(np.searchsorted(primes, n, side="right"))]


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """Brent-cycle rho with batched gcds.

    Returns (nontrivial factor or None, remaining budget).  n must be odd,
    composite and > 1.  Each advance of the iteration costs one unit of
    budget per started 64 bits of n, so the budget bounds the work of a
    step, not only the count of steps.
    """
    batch = 128
    cost = -(-n.bit_length() // 64)
    while budget > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        g = r = q = 1
        x = ys = y
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r * cost
            k = 0
            while k < r and g == 1 and budget > 0:
                ys = y
                steps = min(batch, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget -= steps * cost
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # The batch overshot; replay single steps from the last checkpoint.
            g = 1
            while g == 1 and budget > 0:
                ys = (ys * ys + c) % n
                budget -= cost
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g, budget
        # g in (1, n): bad parameters, retry with a fresh (y, c)
    return None, budget


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e) == n, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]
    sign: int


def _cofactor_text(v: int) -> str:
    """v in full when it has at most 60 digits, else its sign, bit length and
    last 12 digits (no str() of the whole number)."""
    if abs(v) < 10**60:
        return str(v)
    text = f"of {v.bit_length()} bits ending in ...{abs(v) % 10**12:012d}"
    return text if v > 0 else f"negative, {text}"


def _budget_exhausted(v: int) -> ResourceCapError:
    return ResourceCapError(
        f"factoring budget exhausted; unfactored cofactor {_cofactor_text(v)}", detail=v
    )


def _charged_is_prime(v: int, budget: int) -> tuple[bool, int]:
    """``is_prime(v)`` and the budget left.  Above the deterministic limit the
    test is charged first, at every Miller-Rabin round of the worst case,
    each a modular power of bits squarings costing one unit per started
    64 bits; a budget that cannot cover it raises ResourceCapError."""
    if v >= _MR_DETERMINISTIC_LIMIT:
        bits = v.bit_length()
        budget -= (len(_MR_BASES) + _MR_RANDOM_ROUNDS) * bits * -(-bits // 64)
        if budget < 0:
            raise _budget_exhausted(v)
    return is_prime(v), budget


def _factor_impl(n: int, budget: int) -> Factorization:
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}
    stack: list[int] = []
    for p in _small_primes():
        if p * p > m:
            # no prime below p divides m, so m is 1 or prime
            if m > 1:
                counts[m] = 1
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    else:
        if m > 1:
            stack.append(m)
    rng = None
    while stack:
        v = stack.pop()
        prime, budget = _charged_is_prime(v, budget)
        if prime:
            counts[v] = counts.get(v, 0) + 1
            continue
        if rng is None:
            rng = random.Random(_DEFAULT_SEED)
        f, budget = _brent_rho(v, rng, budget)
        if f is None:
            raise _budget_exhausted(v)
        stack.append(f)
        stack.append(v // f)
    factors = tuple(sorted(counts.items()))
    check = sign
    for p, e in factors:
        check *= p**e
    if check != n:
        raise RuntimeError(f"factorization of {n} failed to reassemble")  # pragma: no cover
    return Factorization(n=n, factors=factors, sign=sign)


def _is_factorization(n: int, sign: int, factors, budget: int) -> bool:
    """True iff sign * prod(p**e) == n with increasing primes p and e >= 1.

    Each primality test above the deterministic limit is charged to budget
    as ``factor`` charges it, and raises the same ResourceCapError when the
    budget cannot cover it."""
    limit = abs(n)
    value = sign
    prev = 1
    for p, e in factors:
        # p <= |n| and e <= bit length keep a bad entry from costing more
        # than factoring n would
        if not prev < p <= limit or not 1 <= e <= limit.bit_length():
            return False
        prime, budget = _charged_is_prime(p, budget)
        if not prime:
            return False
        value *= p**e
        prev = p
    return value == n


def _read_factor(file: result_cache.ResultCache, n: int, budget: int) -> Factorization | None:
    """The factorization of n stored in the cache file, if it is one."""
    entry = file.get_factor(n)
    if entry is None:
        return None
    sign, factors = entry
    if _is_factorization(n, sign, factors, budget):
        return Factorization(n=n, factors=factors, sign=sign)
    print(f"warning: cache entry factor:{_cofactor_text(n)} is wrong; recomputing", file=sys.stderr)
    return None


def factor(
    n: int,
    budget: int | None = None,
    use_cache: bool = True,
) -> Factorization:
    """Factor n completely: trial division below 10^5, then Brent rho.

    Rho draws from a generator with a fixed seed made for this call, so the
    factorization, and whether it fits the budget, depend on (n, budget)
    alone.  ``budget`` caps the rho work: each iteration costs one unit per started
    64 bits of the cofactor it splits, so operands of up to 64 bits pay one
    unit.  A primality test on a cofactor above ~3.3e24 is charged first, at
    its worst case of 52 Miller-Rabin rounds of bits * ceil(bits / 64) units
    each, so the default budget covers cofactors of up to about 2,200 bits.
    Exhausting it raises ResourceCapError naming the unfactored
    cofactor: in full up to 60 digits, else by its bit length and last 12
    digits.  Since the value is canonical, results are kept in the result
    cache (memo, and file when one is active).  A memo hit costs no budget;
    an entry read from the file is checked first, and each primality test
    of that check above ~3.3e24 is charged as above, so a cached prime
    factor too long for the budget raises as a fresh one does.
    ``use_cache=False`` forces a fresh computation.  A cached n must fit in
    str() (``sys.get_int_max_str_digits()`` decimal digits); a longer one
    raises ResourceCapError naming its bit length.
    """
    if n == 0:
        raise InputError("cannot factor 0")

    if budget is None:
        budget = DEFAULT_FACTOR_BUDGET

    def compute() -> Factorization:
        return _factor_impl(n, budget)

    if not use_cache:
        return compute()
    digits = sys.get_int_max_str_digits()
    # 10**digits has over 3.3 * digits bits: shorter n skip the exact test
    if digits and n.bit_length() > 3 * digits and abs(n) >= 10**digits:
        raise ResourceCapError(
            f"cannot factor a {n.bit_length()}-bit number: more than {digits} decimal digits",
            detail=n.bit_length(),
        )
    return result_cache.lookup(
        f"factor:{n}",
        compute,
        read=lambda file: _read_factor(file, n, budget),
        write=lambda file, fac: file.put_factor(n, fac.sign, fac.factors),
    )


def check_power(base: int, exponent: int, what: str) -> None:
    """Raise ResourceCapError before base**exponent is built when its bound
    exponent * bit_length(base) exceeds MAX_POWER_BITS; |base| <= 1 passes."""
    if abs(base) > 1 and exponent * base.bit_length() > MAX_POWER_BITS:
        raise ResourceCapError(
            f"{what} would have more than {MAX_POWER_BITS} bits", detail=what
        )


def check_odd_exponent(n: int) -> None:
    """Raise InputError unless n is odd and >= 3, as the n of x^2 - y^n is."""
    if n < 3 or n % 2 == 0:
        raise InputError(f"n must be odd and >= 3, got {n}")


@dataclass(frozen=True)
class SquarefreeDecomp:
    """n == d * t**2 with d square-free and sign(d) == sign(n), t >= 1."""

    d: int
    t: int


def squarefree_part(n: int, budget: int | None = None) -> SquarefreeDecomp:
    """Split n as d * t**2 with d square-free (sign carried by d)."""
    fac = factor(n, budget)
    d = fac.sign
    t = 1
    for p, e in fac.factors:
        if e % 2:
            d *= p
        t *= p ** (e // 2)
    return SquarefreeDecomp(d=d, t=t)


def field_discriminant(d_sf: int) -> int:
    """Discriminant of Q(sqrt(d_sf)) for square-free d_sf: d_sf itself when
    d_sf = 1 mod 4, else 4 d_sf.  The caller guarantees square-freeness."""
    return d_sf if d_sf % 4 == 1 else 4 * d_sf


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the standard extension of Jacobi to all n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    # peel factors of 2 from n
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            result = -result
    # Jacobi step for odd positive n
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Square root of a modulo an odd prime p, or None when a is a nonresidue.

    Tonelli-Shanks; the returned root is canonicalized to min(r, p - r).
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InputError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)
