"""Independent brute-force oracles used to derive expected values.

Everything here is deliberately written against the definitions, not against
the production algorithms: reduced forms come from an exhaustive triple
search or from trial division of each (b^2 + |disc|)/4, Legendre symbols
from counting residues, factorizations from plain trial division.  Slow but
unarguable.  The one sieve here, ``window_counts``, generates the
class-number table that qform ships; the tests hold it against those
per-discriminant routes.  ``residue_table`` generates qform's other shipped
table, the squares mod each prime.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from quadclass.errors import InputError
from quadclass.qform import QuadForm


def brute_reduced_forms(disc: int) -> set[tuple[int, int, int]]:
    """All primitive reduced forms of disc by exhaustive (a, b, c) search."""
    assert disc < 0 and disc % 4 in (0, 1)
    abs_d = -disc
    out = set()
    a = 1
    while 3 * a * a <= abs_d:
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.add((a, b, c))
        a += 1
    # a = c = 1 corner when |disc| < 3 is impossible for valid negative discs,
    # but the loop above also misses nothing: 3a^2 <= 4ac - b^2 = |disc| holds
    # for every reduced form.
    return out


def window_counts(lo: int, hi: int) -> np.ndarray:
    """Numbers of primitive reduced forms of discriminant -X for X = lo..hi,
    read-only, in one numpy pass over the (a, b) pairs; entries of X = 1 or
    2 (mod 4) are 0.  ``test_class_number_table`` builds the shipped table
    of ``qform.count_reduced`` from its blocks of 256 values.

    For each pair 0 <= b <= a <= sqrt(hi/3), the least X >= max(lo, 4a^2 - b^2)
    with X = -b^2 (mod 4a) gives c = (X + b^2)/(4a) >= a, and X steps by 4a
    up to hi.  A primitive form counts twice when 0 < b < a < c, because
    (a, -b, c) is then reduced too.
    """
    a, b = np.tril_indices(math.isqrt(hi // 3) + 1)  # the pairs b <= a
    a, b = a[1:], b[1:]  # a >= 1
    start = np.maximum(4 * a * a - b * b, lo)
    x = start + (-b * b - start) % (4 * a)
    keep = x <= hi
    a, b, x = a[keep], b[keep], x[keep]
    steps = (hi - x) // (4 * a) + 1
    a, b, x = (np.repeat(v, steps) for v in (a, b, x))
    x += 4 * a * (np.arange(x.size) - np.repeat(np.cumsum(steps) - steps, steps))
    c = (x + b * b) // (4 * a)
    primitive = np.gcd(np.gcd(a, b), c) == 1
    twice = primitive & (b > 0) & (b < a) & (a < c)
    width = hi - lo + 1
    counts = np.bincount(x[primitive] - lo, minlength=width)
    counts += np.bincount(x[twice] - lo, minlength=width)
    counts.flags.writeable = False
    return counts


def divisor_pairs(abs_d: int, lo: int, hi: int):
    """The triples (a, b, c), b >= 0 and 1 <= lo <= a <= hi, with
    4ac - b^2 = abs_d and b <= a <= c, by trial division of each (b^2 + abs_d)/4."""
    for b in range(abs_d & 1, hi + 1, 2):
        m = (b * b + abs_d) // 4
        top = math.isqrt(m)
        # conditional expressions cost less than max and min calls here
        for a in range(b if b > lo else lo, (top if top < hi else hi) + 1):
            if m % a == 0:
                yield a, b, m // a


def brute_legendre(a: int, p: int) -> int:
    """Legendre symbol by counting square roots mod an odd prime."""
    a %= p
    if a == 0:
        return 0
    roots = sum(1 for x in range(p) if x * x % p == a)
    return 1 if roots else -1


def residue_table(top: int) -> bytes:
    """The squares mod each prime p <= top, the primes found by trial
    division: one ceil(p/8)-byte segment per prime in ascending order, bit
    r & 7 of byte r >> 3 set when r is a square mod p (0 included).
    ``test_qform`` builds qform's shipped residues.bits from it."""
    segments = []
    for p in range(2, top + 1):
        if trial_factor(p) == [(p, 1)]:
            square = np.zeros(p, dtype=bool)
            k = np.arange(p // 2 + 1, dtype=np.int64)
            square[k * k % p] = True
            segments.append(np.packbits(square, bitorder="little").tobytes())
    return b"".join(segments)


def brute_prime_form(disc: int, q: int) -> tuple[int, int, int] | None:
    """(q, B, C) with B the smallest in [0, 2q) such that B^2 = disc (mod 4q)
    and C = (B^2 - disc) / 4q, by trying every B; None when there is no such
    B; InputError when gcd(q, B, C) > 1, as no primitive form has norm q."""
    for b in range(2 * q):
        if (b * b - disc) % (4 * q) == 0:
            c = (b * b - disc) // (4 * q)
            if math.gcd(math.gcd(q, b), c) > 1:
                raise InputError(f"no primitive form of norm {q} for {disc}")
            return q, b, c
    return None


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Plain trial division; fine for |n| up to ~10^12."""
    assert n != 0
    m = abs(n)
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def is_fundamental(disc: int) -> bool:
    """Whether disc is a negative fundamental discriminant: disc = 1 (mod 4)
    and square-free, or disc = 4m with m = 2 or 3 (mod 4) and m square-free;
    squares found by trial division."""
    if disc >= 0:
        return False
    if disc % 4 == 1:
        m = disc
    elif disc % 16 in (8, 12):  # m = disc/4 = 2 or 3 (mod 4)
        m = disc // 4
    else:
        return False
    return all(e == 1 for _, e in trial_factor(m))


def apply_unimodular(form, p: int, q: int, r: int, s: int):
    """Change of variable (X, Y) -> (pX + qY, rX + sY) with ps - qr = 1.

    Returns the raw transformed (a, b, c) triple.
    """
    assert p * s - q * r == 1
    a, b, c = form.a, form.b, form.c
    a2 = a * p * p + b * p * r + c * r * r
    b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    c2 = a * q * q + b * q * s + c * s * s
    return a2, b2, c2


def dirichlet_compose(f, g) -> QuadForm:
    """The composite of the primitive forms f and g of one discriminant D by
    Dirichlet's rule (Cox, Primes of the Form x^2 + ny^2, Lemma 3.2): move g
    to a form (a2, b2, c2) with gcd(a1, a2) = 1, find the one B mod 2*a1*a2
    with B = b1 (mod 2*a1), B = b2 (mod 2*a2) and B^2 = D (mod 4*a1*a2) by
    trying each, and return (a1*a2, B, (B^2 - D)/(4*a1*a2)) reduced by
    ``QuadForm.reduced``, which the tests check on its own.

    g is moved by the change of variable whose first column is the first
    coprime (x, y) (by |x| + y, with y >= 0) at which gcd(g(x, y), a1) = 1."""
    disc = f.discriminant
    a1, b1 = f.a, f.b
    columns = (
        (x, t - abs(x))
        for t in itertools.count(1)
        for x in range(t, -t - 1, -1)
        if math.gcd(x, t - abs(x)) == 1
    )
    x, y = next(
        (x, y) for x, y in columns if math.gcd(g.a * x * x + g.b * x * y + g.c * y * y, a1) == 1
    )
    # the second column (q, s) has x*s - q*y = 1
    s = pow(x, -1, y) if y else x
    q = (x * s - 1) // y if y else 0
    a2, b2, _ = apply_unimodular(g, x, q, y, s)
    a3 = a1 * a2
    roots = [
        b
        for b in range(b1 % (2 * a1), 2 * a3, 2 * a1)
        if (b - b2) % (2 * a2) == 0 and (b * b - disc) % (4 * a3) == 0
    ]
    assert len(roots) == 1, (f, g, a2, b2, roots)
    b3 = roots[0]
    return QuadForm(a3, b3, (b3 * b3 - disc) // (4 * a3)).reduced()


def random_unimodular(rng, bound: int = 12) -> tuple[int, int, int, int]:
    """A random SL2(Z) matrix with small entries, built from shear generators."""
    p, q, r, s = 1, 0, 0, 1
    for _ in range(rng.randrange(1, 6)):
        k = rng.randrange(-bound, bound + 1)
        if rng.getrandbits(1):
            # right shear: columns (p, r), (q + kp, s + kr)
            q, s = q + k * p, s + k * r
        else:
            p, r = p + k * q, r + k * s
    assert p * s - q * r == 1
    return p, q, r, s


def invariant_factors_by_count(forms) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... of the class group whose classes are
    forms, all h reduced forms of one disc.

    For each p^a exactly dividing h, counts the classes killed by p^j with
    ``QuadForm.power``: there are p^(sum_i min(lambda_i, j)) of them, where
    p^lambda_i are the p-parts of the divisors.  The differences of those
    exponents over j give how many lambda_i are at least j, hence the
    lambda_i themselves.
    """
    identity = next(f for f in forms if f.a == 1)  # the principal form
    desc: list[int] = []
    for p, a in trial_factor(len(forms)):
        logs = []
        for j in range(a + 1):
            count = sum(1 for f in forms if f.power(p**j) == identity)
            e = 0
            while p**e < count:
                e += 1
            assert p**e == count, (count, p)
            logs.append(e)
        at_least = [logs[j] - logs[j - 1] for j in range(1, a + 1)]
        for i in range(at_least[0]):
            if i == len(desc):
                desc.append(1)
            desc[i] *= p ** sum(1 for r in at_least if r > i)
    return tuple(reversed(desc))
