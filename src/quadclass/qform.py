"""Primitive positive-definite binary quadratic forms.

A form (a, b, c) stands for a*X^2 + b*XY + c*Y^2 with b^2 - 4ac < 0, a > 0 and
gcd(a, b, c) = 1.  Equivalence classes of such forms under SL2(Z) model the
ideal classes of the imaginary quadratic order of the same discriminant;
Gauss composition is the group law.  Reduction picks the unique canonical
representative per class (|b| <= a <= c, b >= 0 at the boundaries), so class
arithmetic is plain value arithmetic on reduced triples.

Class numbers are counts of reduced forms.  ``count_reduced`` reads
|disc| < 2^16 from the table shipped with the package, class_numbers.u16,
read on first use and checked against its pinned size and SHA-256; the
tests regenerate it byte for byte by a numpy pass over the (a, b) pairs of
reduced forms.  From 2^16 on it splits the a in two.  The head,
4a^2 < |disc|, has c > a for every form, so a adds the number N(a) of
b mod 2a with b^2 = disc (mod 4a) that give a primitive form; N is
multiplicative, and one numpy sieve over the primes finds it for every
a <= sqrt(|disc|/3).
``_root_counts`` reads the Legendre symbols of the unramified primes by one
gather from a bit-packed table of the squares mod every prime up to the
largest a asked for so far, grown lazily and kept read-only: 253 KB once it
holds every prime up to sqrt(DEFAULT_DISC_CAP/3).  A ramified prime p at
which disc is fundamental, an odd p with p || disc or p = 2 with |disc| = 4
or 8 (mod 16), only zeroes the multiples of p^2; ``_apply_ramified`` counts
the other ramified primes, those at which disc is not fundamental.
The tail, sqrt(|disc|)/2 <= a <= sqrt(|disc|/3), is scanned by ``_forms``:
numpy tests a block of b at a time against the tail a with N(a) > 0.  No
form is counted from 2^61 on, where int64 no longer holds (b^2 + |disc|)/4.
``reduced_forms`` streams the forms in (a, b, c) order from the same scan,
one block of a at a time, head included, at every |disc|;
``enumerate_reduced`` lists it.  Below 2^16 the forms and the table's count
are thus found by two different algorithms.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

import numpy as np

from .errors import InconsistencyError, InputError, ResourceCapError
from . import intmath

# hashlib loads OpenSSL, about 3 ms and 3.5 MB of RSS, so the table's
# SHA-256 comes from the builtin module where there is one, as the random
# module's SHA-512 does.
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

DEFAULT_DISC_CAP = 10**8

# count_reduced reads h(-X) for X = |disc| below this from the shipped
# table, entry X // 4 * 2 + (X % 4 == 3) of little-endian uint16s (entry 0,
# X = 0, is 0), and counts each larger X on its own by the head-and-tail
# count.  The largest h there is 424.
_TABLE_TOP = 1 << 16
_TABLE_FILE = "class_numbers.u16"
_TABLE_BYTES = _TABLE_TOP  # two bytes for each X = 0 or 3 (mod 4)
_TABLE_SHA256 = "ddb323e8aadaef92b58bcddc629b1c2847f0da117814311e1f184a3479959031"
# Guard for the int64 kernels; (b^2 + |disc|) / 4 must fit in int64.
_NUMPY_MAX_DISC = 1 << 61


def validate_discriminant(disc: int) -> None:
    """Reject values that are not negative discriminants (0 or 1 mod 4)."""
    if disc >= 0:
        raise InputError(f"discriminant must be negative, got {disc}")
    if disc % 4 not in (0, 1):
        raise InputError(f"discriminant must be 0 or 1 mod 4, got {disc}")


@dataclass(frozen=True, order=True)
class QuadForm:
    """An integral binary quadratic form; immutable and totally ordered by (a, b, c)."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.b * self.b - 4 * self.a * self.c >= 0:
            raise InputError(f"form ({self.a},{self.b},{self.c}) is not positive definite")
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise InputError(f"form ({self.a},{self.b},{self.c}) is not primitive")

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if abs(b) > a or a > c:
            return False
        if b < 0 and (-b == a or a == c):
            return False
        return True

    def reduced(self) -> "QuadForm":
        """The unique reduced representative of this form's class."""
        return QuadForm(*_reduce(self.a, self.b, self.c))

    def inverse(self) -> "QuadForm":
        """Reduced representative of the opposite class."""
        return QuadForm(*_reduce(self.a, -self.b, self.c))

    def compose(self, other: "QuadForm") -> "QuadForm":
        """Gauss composition; reduced output, well-defined on classes.

        Cohen's Algorithm 5.4.7 (A Course in Computational Algebraic Number
        Theory, GTM 138, sec. 5.4): one gcd pair and two modular inverses.
        It needs two primitive forms of one discriminant, reduced or not, so
        the inputs are used as they are.  As pow(x, -1, 1) is 0, the
        algorithm's special cases a1 | a2 (y1 = 0) and d | s (x2 = 0,
        y2 = -1) are its general lines."""
        if self.discriminant != other.discriminant:
            raise InputError(
                f"discriminant mismatch: {self.discriminant} vs {other.discriminant}"
            )
        f, g = (self, other) if self.a <= other.a else (other, self)
        a1, a2, b2, c2 = f.a, g.a, g.b, g.c
        s = (f.b + b2) // 2
        n = b2 - s
        d = math.gcd(a1, a2)
        y1 = pow(a2 // d, -1, a1 // d)
        d1 = math.gcd(s, d)
        x2 = pow(s // d1, -1, d // d1)
        y2 = (x2 * s - d1) // d
        v1, v2 = a1 // d1, a2 // d1
        r = (y1 * y2 * n - x2 * c2) % v1
        return QuadForm(
            *_reduce(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)
        )

    def power(self, k: int) -> "QuadForm":
        """Reduced k-th power of the class, square-and-multiply; k >= 0.

        No composition has the principal class as an operand: that is the
        one reduced form with a = 1.  The squaring stops once the running
        square is principal, since every later bit adds nothing, and a
        principal or empty product takes the square as it is."""
        if k < 0:
            raise InputError(f"exponent must be non-negative, got {k}")
        result = None
        base = self.reduced()
        while k and base.a != 1:
            if k & 1:
                result = base if result is None or result.a == 1 else result.compose(base)
            k >>= 1
            if k:
                base = base.compose(base)
        return identity_form(self.discriminant) if result is None else result


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced triple equivalent to the positive-definite form (a, b, c),
    on plain ints: translate so that -a < b <= a, then swap the outer
    coefficients and re-translate in one step while a > c, or a = c and b < 0."""
    if not -a < b <= a:
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    return a, b, c


def identity_form(disc: int) -> QuadForm:
    """The principal form: (1, 0, -disc/4) or (1, 1, (1-disc)/4)."""
    validate_discriminant(disc)
    k = disc % 2
    return QuadForm(1, k, (k * k - disc) // 4)


def abs_disc(disc: int, max_disc: int) -> int:
    """|disc|, once disc is a discriminant and |disc| is within max_disc
    and below _NUMPY_MAX_DISC: the one |disc| check of the form count, the
    character sum and ``classgroup.class_number_of_squarefree``."""
    validate_discriminant(disc)
    if -disc > max_disc:
        raise ResourceCapError(
            f"|discriminant| {-disc} exceeds enumeration cap {max_disc}", detail=disc
        )
    if -disc >= _NUMPY_MAX_DISC:
        raise ResourceCapError(
            f"|discriminant| {-disc} is not below 2^61, the forms' int64 limit", detail=disc
        )
    return -disc


class _Residues(NamedTuple):
    """The squares mod each prime p <= top, one bit per residue 0 <= r < p:
    the i-th prime's ceil(p/8)-byte segment starts at bits[off[i]], packed
    little-endian, so r is a square mod p (0 included) exactly when bit
    r & 7 of bits[off[i] + (r >> 3)] is set."""

    top: int
    off: np.ndarray
    bits: np.ndarray


# The one residue table, read-only; _residue_table replaces it by a larger one.
_residues = _Residues(0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8))
_residues_lock = threading.Lock()
# The residue table holds the primes through this, the largest a_max of a
# |disc| within DEFAULT_DISC_CAP: 757 primes in 253 KB, built in about 5 ms
# (2-core x86-64 host).  Its size grows as a_max^2 / log(a_max), about 19 MB
# at |disc| = 1e10, so the primes past it, which only a larger max_disc
# reaches, take their symbols from intmath.kronecker instead.
_RESIDUE_TOP = math.isqrt(DEFAULT_DISC_CAP // 3)


def _residue_table(a_max: int) -> _Residues:
    """The residue table through min(a_max, _RESIDUE_TOP) at least.  When
    it stops short it grows to exactly that: the old segments are copied
    once, and each new prime's squares are packed on their own."""
    global _residues
    top = min(a_max, _RESIDUE_TOP)
    table = _residues
    if table.top >= top:
        return table
    with _residues_lock:
        table = _residues
        if table.top >= top:
            return table
        new = intmath.primes_through(top)[table.off.size :]
        segments = [table.bits]
        for p in new.tolist():
            square = np.zeros(p, dtype=bool)
            k = np.arange(p // 2 + 1, dtype=np.int64)
            square[k * k % p] = True
            segments.append(np.packbits(square, bitorder="little"))
        size = (new + 7) // 8
        off = np.concatenate([table.off, table.bits.size + np.cumsum(size) - size])
        bits = np.concatenate(segments)
        off.flags.writeable = bits.flags.writeable = False
        _residues = table = _Residues(top, off, bits)
    return table


@lru_cache(maxsize=1)
def _root_counts(abs_d: int, a_max: int) -> np.ndarray:
    """N[a] for 0 <= a <= a_max, read-only: the number of b mod 2a with
    b^2 = -abs_d (mod 4a) and gcd(a, b, (b^2 + abs_d)/4a) = 1; N[0] = 0.
    The last array is kept, so a class group's count and its form stream
    sieve once.

    N is multiplicative, N(a) = prod L_p(k) over p^k || a (Cohen, A Course
    in Computational Algebraic Number Theory, sec. 5.3; Cox, Primes of the
    Form x^2 + ny^2, sec. 2).  For p not dividing abs_d,
    L_p(k) = 1 + (-abs_d | p) for every k >= 1; for p = 2 that is 2 when
    abs_d = 7 (mod 8) and 0 when abs_d = 3 (mod 8).  The odd symbols are one
    gather from the residue table (``_residue_table``) at r = -abs_d mod p;
    only primes above _RESIDUE_TOP, which a max_disc above DEFAULT_DISC_CAP
    reaches, take theirs from ``intmath.kronecker``.  These unramified primes
    <= a_max are applied by one unbuffered scatter over all their multiples,
    so an a with several of them as factors takes each factor once.  N(a) = 0
    means that no form has this a.

    A ramified p at which the discriminant is fundamental, an odd p with
    p || abs_d or p = 2 with abs_d = 4 or 8 (mod 16), has L_p = (1, 0, 0, ...),
    so one strided write zeroes every multiple of p^2.  For odd p, a root b
    of b^2 = -abs_d (mod 4p^k) is a multiple of p: at k = 1 that is one b mod
    2p, and p does not divide c as p^2 does not divide b^2 + abs_d; at k >= 2
    it would need p^2 | abs_d.  For p = 2 write
    abs_d = 4m with m = 1 or 2 (mod 4).  At a = 2, b^2 = -4m (mod 8) leaves
    b = 2b' with b' = m (mod 2), one b mod 4, and c = (b^2 + 4m)/8 is
    (1 + m)/2 or m/2, both odd, so the form is primitive: L_2(1) = 1.  At
    a = 2^k, k >= 2, b' would need b'^2 = -m (mod 4), but -m = 3 or 2 (mod 4)
    is no square mod 4: L_2(k) = 0.  Only the ramified p at which the
    discriminant is not fundamental, an odd p with p^2 | abs_d or p = 2 with
    abs_d = 0 or 12 (mod 16), have L_p(k) counted over x mod p^k
    (``_apply_ramified``).
    """
    roots = np.ones(a_max + 1, dtype=np.int32)
    roots[0] = 0
    p = intmath.primes_through(a_max)
    ramified = abs_d % p == 0
    for q in p[ramified].tolist():
        fundamental = abs_d % 16 in (4, 8) if q == 2 else abs_d // q % q != 0
        if fundamental:
            roots[q * q :: q * q] = 0
        else:
            _apply_ramified(roots, abs_d, q)
    table = _residue_table(a_max)
    held = p[: table.off.size]
    r = (-abs_d) % held
    square = (table.bits[table.off[: held.size] + (r >> 3)] >> (r & 7)) & 1
    if held.size < p.size:
        beyond = [intmath.kronecker(-abs_d, q) == 1 for q in p[held.size :].tolist()]
        square = np.concatenate([square, beyond])
    f = 2 * square.astype(np.int32)
    f[p == 2] = 2 if abs_d % 8 == 7 else 0
    q, f = p[~ramified], f[~ramified]
    n = a_max // q  # multiples of each q up to a_max
    k = np.arange(1, int(n.sum()) + 1) - np.repeat(np.cumsum(n) - n, n)
    np.multiply.at(roots, np.repeat(q, n) * k, np.repeat(f, n))
    roots.flags.writeable = False
    return roots


def _apply_ramified(roots: np.ndarray, abs_d: int, p: int) -> None:
    """Multiply roots[a] by L_p(k) for p^k || a, where p divides abs_d and
    -abs_d is not fundamental at p: p^2 | abs_d for odd p, abs_d = 0 or 12
    (mod 16) for p = 2.  ``_root_counts`` zeroes the multiples of p^2 itself
    at the other ramified p, so no fundamental discriminant reaches here.

    L_p(k) counts the x mod p^k (b mod 2^(k+1) for p = 2) with
    x^2 = -abs_d (mod p^k, or 2^(k+2)) that leave (a, b, c) primitive at p.
    As p | abs_d, each such x is a multiple of p, and it is primitive
    exactly when p^(k+1) (2^(k+3)) does not divide x^2 + abs_d: so L_p(k)
    counts the multiples x of p whose x^2 + abs_d has p-adic valuation k
    (k + 2 for p = 2).
    """
    levels = 0
    while p ** (levels + 1) < roots.size:
        levels += 1
    lift, width = (2, 2) if p == 2 else (0, 1)
    x = np.arange(0, width * p**levels, p, dtype=np.int64)
    powers = p ** np.arange(levels + lift + 2, dtype=np.int64)
    # the p-adic valuation of x^2 + abs_d, capped above every level's
    valuation = np.searchsorted(powers, np.gcd(x * x + abs_d, powers[-1]))
    # factor[t - 1] multiplies roots[p t]: L_p(k) once p^(k-1) | t, the
    # highest such k written last
    factor = np.empty((roots.size - 1) // p, dtype=roots.dtype)
    for k in range(1, levels + 1):
        # level k counts the x below width * p^k, the first width * p^(k-1)
        local = np.count_nonzero(valuation[: width * p ** (k - 1)] == k + lift)
        factor[p ** (k - 1) - 1 :: p ** (k - 1)] = local
    roots[p::p] *= factor


# b rows times candidate a per numpy block of _forms.
_PAIR_BLOCK = 1 << 14


def _forms(abs_d: int, roots: np.ndarray, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The primitive reduced forms (a, b, c) of discriminant -abs_d with
    lo <= a <= hi, unsorted.  Only the candidates, the a with roots[a] > 0,
    are tried: each numpy block tests about _PAIR_BLOCK (b, a) cells, the
    rows m_b = (b^2 + abs_d)/4 of a run of b >= 0 against the candidates in
    [b_first, isqrt(m_b_last)], and keeps b <= a <= m_b / a.  A primitive
    divisor pair gives (a, b, c), and (a, -b, c) too when 0 < b < a < c.
    """
    cand = np.flatnonzero(roots[lo : hi + 1]) + lo
    forms = []
    b = abs_d & 1
    b_max = int(cand[-1]) if cand.size else -1  # b <= a
    while b <= b_max:
        first = int(np.searchsorted(cand, max(b, 1)))
        rows = max(1, _PAIR_BLOCK // (cand.size - first))
        b_row = np.arange(b, min(b + 2 * rows, b_max + 1), 2, dtype=np.int64)
        b_last = int(b_row[-1])
        last = int(np.searchsorted(cand, math.isqrt((b_last * b_last + abs_d) // 4), side="right"))
        a = cand[first:last]
        m = (b_row * b_row + abs_d) // 4
        hits = np.flatnonzero(m[:, None] % a == 0)
        if hits.size:
            row, col = np.divmod(hits, a.size)
            a, b_hit, m = a[col], b_row[row], m[row]
            keep = (a >= b_hit) & (a * a <= m)
            a, b_hit, m = a[keep], b_hit[keep], m[keep]
            # a few hits per block: math.gcd costs less than numpy calls here
            for x, y, z in zip(a.tolist(), b_hit.tolist(), (m // a).tolist()):
                if math.gcd(x, y, z) == 1:
                    forms.append((x, y, z))
                    if 0 < y < x < z:
                        forms.append((x, -y, z))
        b += 2 * rows
    return forms


def reduced_forms(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> Iterator[QuadForm]:
    """The primitive reduced forms of disc, in canonical (a, b, c) order,
    found one block of a at a time as they are drawn: a < 64, then each
    lo <= a < 2 lo.  Each block is one ``_forms`` scan over the a with
    N(a) > 0, at every |disc|.
    """
    abs_d = abs_disc(disc, max_disc)
    a_max = math.isqrt(abs_d // 3)  # 3a^2 <= |disc| for every reduced form
    roots = _root_counts(abs_d, a_max)
    lo, hi = 1, 63  # fewer numpy calls than blocks that double from a = 1
    while lo <= a_max:
        hi = min(hi, a_max)
        # sorting the tuples orders the forms as QuadForm's (a, b, c) order does,
        # without a generated __lt__ call per comparison
        for a, b, c in sorted(_forms(abs_d, roots, lo, hi)):
            yield QuadForm(a, b, c)
        lo, hi = hi + 1, 2 * hi + 1


def enumerate_reduced(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> list[QuadForm]:
    """All primitive reduced forms of the given discriminant, in canonical
    (a, b, c)-lexicographic order.  Their number is the class number."""
    return list(reduced_forms(disc, max_disc))


def count_reduced(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> int:
    """len(enumerate_reduced(disc)) without building the forms.

    Below 2^16 it is read from the shipped table, ``_class_numbers``.
    From there on the head a <= A = isqrt(|disc| - 1) // 2 adds its
    root counts N(a): as 4a^2 < |disc|, each of its forms has c > a.  Only
    the tail a > A is scanned, by ``_forms``.
    """
    abs_d = abs_disc(disc, max_disc)
    if abs_d < _TABLE_TOP:
        return int(_class_numbers()[abs_d // 4 * 2 + (abs_d % 4 == 3)])
    a_max = math.isqrt(abs_d // 3)
    roots = _root_counts(abs_d, a_max)
    a_min = math.isqrt(abs_d - 1) // 2 + 1
    return int(roots[:a_min].sum()) + len(_forms(abs_d, roots, a_min, a_max))


@lru_cache(maxsize=1)
def _class_numbers() -> np.ndarray:
    """The shipped table of h(-X), X < _TABLE_TOP, read-only, read once per
    process on first use.  A file that is missing, or whose size or SHA-256
    is not the pinned one, raises InconsistencyError, so no h is read from
    a damaged table."""
    try:
        data = resources.files(__package__).joinpath(_TABLE_FILE).read_bytes()
    except OSError as exc:
        raise InconsistencyError(
            f"cannot read the class-number table {_TABLE_FILE}: {exc.strerror or exc}"
        ) from exc
    if len(data) != _TABLE_BYTES or sha256(data).hexdigest() != _TABLE_SHA256:
        raise InconsistencyError(
            f"the class-number table {_TABLE_FILE} ({len(data)} bytes) does not "
            "match its pinned size and SHA-256"
        )
    return np.frombuffer(data, dtype="<u2")


def prime_form(disc: int, q: int) -> QuadForm | None:
    """A form (q, B, C) of discriminant disc with 0 <= B < 2q, or None when q
    is inert (kronecker(disc, q) = -1).

    Ramified q (q | disc) yields the unique form of norm q when a primitive
    one exists.  Of the admissible square roots B, the smallest is chosen, so
    the output is deterministic; the other root would give the inverse class,
    which has the same order.  For odd q, with r <= q/2 the square root of
    disc mod q from ``intmath.sqrt_mod_prime``, B is r when r = disc (mod 2),
    else q - r: r and q - r differ in parity, and the other lifts q + r and
    2q - r are larger.
    """
    validate_discriminant(disc)
    if q == 2:
        rem = disc % 8
        if rem == 1:
            b = 1
        elif rem == 0:
            b = 0
        elif rem == 4:
            b = 2
        else:  # disc = 5 mod 8
            return None
    else:
        try:  # its primality test is the only one q gets
            r = intmath.sqrt_mod_prime(disc, q)
        except InputError:
            raise InputError(f"q must be prime, got {q}") from None
        if r is None:
            return None
        b = r if (r - disc) % 2 == 0 else q - r
    num = b * b - disc
    if num % (4 * q):
        raise InconsistencyError(f"B^2 != disc (mod 4q) for disc={disc}, q={q}")
    c = num // (4 * q)
    if math.gcd(math.gcd(q, b), c) != 1:
        raise InputError(
            f"no primitive form of norm {q} for discriminant {disc} (ramified in the conductor)"
        )
    return QuadForm(q, b, c)
