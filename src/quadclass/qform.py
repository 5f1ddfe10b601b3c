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
a <= c_top = (a_min^2 + |disc|) // 4a_min, a_min the least a of the tail.
``_root_counts`` reads the Legendre symbols of the unramified primes by one
gather from the second table shipped with the package, residues.bits: the
squares mod every prime up to c_top at DEFAULT_DISC_CAP, bit-packed in
294 KB, read on the first count that needs them and checked as the first
table is.  A ramified prime p at which disc is fundamental, an odd p with
p || disc or p = 2 with |disc| = 4 or 8 (mod 16), only zeroes the multiples
of p^2; ``_apply_ramified`` counts the other ramified primes, those at
which disc is not fundamental.
The tail, sqrt(|disc|)/2 <= a <= sqrt(|disc|/3), is counted by
``_tail_count`` over pairs (a, c) of candidates, both with N > 0, whose
4ac - |disc| is a square b^2 <= a^2; c runs up to c_top.  No form is
counted from 2^61 on, where int64 no longer holds 4ac.
``reduced_forms`` streams the forms in (a, b, c) order from ``_forms``, a
scan of (b, a) cells, one block of a at a time, head included, at every
|disc|; ``enumerate_reduced`` lists it.  The forms and the count are thus
found by two different algorithms: below 2^16 the table's, above it the
head's root counts and the tail's pairs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

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


def _tail_start(abs_d: int) -> tuple[int, int]:
    """(a_min, c_top): the least a of the tail, 4a^2 >= abs_d, and the
    largest c of a reduced form whose a is in it, (a_min^2 + abs_d) // 4a_min,
    as b^2 = 4ac - abs_d <= a^2 bounds c by (a^2 + abs_d) / 4a, which falls
    as a grows.  c_top >= a_max = isqrt(abs_d // 3)."""
    a_min = math.isqrt(abs_d - 1) // 2 + 1
    return a_min, (a_min * a_min + abs_d) // (4 * a_min)


# _root_counts reads the squares mod each prime p <= _RESIDUE_TOP from the
# second shipped table: one ceil(p/8)-byte segment per prime in ascending
# order, r a square mod p (0 included) exactly when bit r & 7 of the
# segment's byte r >> 3 is set.  _RESIDUE_TOP is c_top at DEFAULT_DISC_CAP =
# 4 * 5000^2, 5 * 5000 // 4 = 6250, the largest c_top of any |disc| within
# it.  The size grows as c_top^2 / log(c_top), about 22 MB at |disc| = 1e10,
# so the primes past it, which only a larger max_disc reaches, take their
# symbols from intmath.kronecker instead.
_RESIDUE_TOP = _tail_start(DEFAULT_DISC_CAP)[1]
_RESIDUE_FILE = "residues.bits"
_RESIDUE_BYTES = 294_439  # the 812 primes through 6250
_RESIDUE_SHA256 = "125d88c1a5902af8b7bd597223cad7843b8376a5f6919a3c0d6581c931bfc265"
# Guard for the int64 kernels; 4ac and (b^2 + |disc|) / 4 must fit in int64.
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


@lru_cache(maxsize=1)
def _root_counts(abs_d: int, a_max: int) -> np.ndarray:
    """N[a] for 0 <= a <= a_max, read-only: the number of b mod 2a with
    b^2 = -abs_d (mod 4a) and gcd(a, b, (b^2 + abs_d)/4a) = 1; N[0] = 0.
    ``count_reduced`` and ``reduced_forms`` both sieve to c_top
    (``_tail_start``), whose N the tail's pairs read, and the last array is
    kept, so a class group's count and its form stream sieve once.

    N is multiplicative, N(a) = prod L_p(k) over p^k || a (Cohen, A Course
    in Computational Algebraic Number Theory, sec. 5.3; Cox, Primes of the
    Form x^2 + ny^2, sec. 2).  For p not dividing abs_d,
    L_p(k) = 1 + (-abs_d | p) for every k >= 1; for p = 2 that is 2 when
    abs_d = 7 (mod 8) and 0 when abs_d = 3 (mod 8).  The odd symbols are one
    gather from the shipped residue table (``_residue_table``) at r = -abs_d mod p;
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
    held = p[p <= _RESIDUE_TOP]
    size = (held + 7) // 8  # each prime's segment starts after those below it
    r = (-abs_d) % held
    square = (_residue_table()[np.cumsum(size) - size + (r >> 3)] >> (r & 7)) & 1
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


# Cells per numpy block: b rows times candidate a in _forms, candidate a
# rows times candidate c in _tail_count.
_PAIR_BLOCK = 1 << 14


def _tail_count(abs_d: int, roots: np.ndarray, a_min: int, a_max: int) -> int:
    """The number of primitive reduced forms of discriminant -abs_d with
    a_min <= a <= a_max, 4 a_min^2 >= abs_d, counted by pairs (a, c).

    A form (a, b, c) with b >= 0 there is exactly a pair
    a <= c <= (a^2 + abs_d) // 4a whose v = 4ac - abs_d is a square b^2;
    c >= a >= a_min keeps v >= 0, and c's bound is b <= a.  Both ends are
    candidates, roots[x] > 0: (c, -b, a) is a primitive form too, so it
    gives c a root.  So roots must reach c_top (``_tail_start``).  A pair
    with gcd(a, b, c) = 1 counts (a, b, c), and (a, -b, c) too when
    0 < b < a < c.

    Each numpy block takes a run of rows a from the i-th candidate on
    against the columns c up to row i's bound, the largest of the block,
    about _PAIR_BLOCK cells; the few squares there are checked one by one.
    The square test is exact: s = rint(sqrt(v)) is b when v = b^2, and
    s * s == v decides in int64, which holds 4ac < 1.45 abs_d below 2^61.
    """
    cand = np.flatnonzero(roots[a_min:]) + a_min
    rows = int(np.searchsorted(cand, a_max, side="right"))
    count = 0
    i = 0
    while i < rows:
        a = cand.item(i)
        hi = int(np.searchsorted(cand, (a * a + abs_d) // (4 * a), side="right"))
        j = min(rows, i + max(1, _PAIR_BLOCK // (hi - i)))
        c = cand[i:hi]
        v = 4 * cand[i:j, None] * c - abs_d
        s = np.rint(np.sqrt(v)).astype(np.int64)
        # a few squares per block: math.gcd costs less than numpy calls here
        for k in np.flatnonzero(s * s == v).tolist():
            row, col = divmod(k, hi - i)
            x, y, z = cand.item(i + row), s.item(k), c.item(col)
            if y <= x <= z and math.gcd(x, y, z) == 1:
                count += 1 + (0 < y < x < z)
        i = j
    return count


def _forms(abs_d: int, roots: np.ndarray, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The primitive reduced forms (a, b, c) of discriminant -abs_d with
    lo <= a <= hi, unsorted, for ``reduced_forms``; the count takes its
    tail from ``_tail_count`` instead.  Only the candidates, the a with
    roots[a] > 0, are tried: each numpy block tests about _PAIR_BLOCK (b, a)
    cells, the rows m_b = (b^2 + abs_d)/4 of a run of b >= 0 against the
    candidates in [b_first, isqrt(m_b_last)], and keeps b <= a <= m_b / a.
    A primitive divisor pair gives (a, b, c), and (a, -b, c) too when
    0 < b < a < c.
    The cells are int32 below |disc| = 2^30, where b <= a_max keeps
    b^2 + abs_d <= 4 abs_d / 3 below 2^31, and int64 from there on.
    """
    cell = np.int32 if abs_d < 1 << 30 else np.int64
    cand = (np.flatnonzero(roots[lo : hi + 1]) + lo).astype(cell, copy=False)
    forms = []
    b = abs_d & 1
    b_max = int(cand[-1]) if cand.size else -1  # b <= a
    while b <= b_max:
        first = int(np.searchsorted(cand, max(b, 1)))
        rows = max(1, _PAIR_BLOCK // (cand.size - first))
        b_row = np.arange(b, min(b + 2 * rows, b_max + 1), 2, dtype=cell)
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
    N(a) > 0, at every |disc|.  It sieves to c_top, as ``count_reduced``
    does, so that a class group's count and stream share one sieve.
    """
    abs_d = abs_disc(disc, max_disc)
    a_max = math.isqrt(abs_d // 3)  # 3a^2 <= |disc| for every reduced form
    roots = _root_counts(abs_d, _tail_start(abs_d)[1])
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
    From there on the head a < a_min adds its root counts N(a): as
    4a^2 < |disc|, each of its forms has c > a.  The tail
    a_min <= a <= isqrt(|disc| / 3) is counted by pairs of candidates
    (a, c), ``_tail_count``, with N sieved to c_top (``_tail_start``).
    """
    abs_d = abs_disc(disc, max_disc)
    if abs_d < _TABLE_TOP:
        return int(_class_numbers()[abs_d // 4 * 2 + (abs_d % 4 == 3)])
    a_min, c_top = _tail_start(abs_d)
    roots = _root_counts(abs_d, c_top)
    return int(roots[:a_min].sum()) + _tail_count(abs_d, roots, a_min, math.isqrt(abs_d // 3))


@lru_cache(maxsize=1)
def _class_numbers() -> np.ndarray:
    """The shipped table of h(-X), X < _TABLE_TOP, read-only, read once per
    process on first use."""
    data = _shipped(_TABLE_FILE, _TABLE_BYTES, _TABLE_SHA256, "class-number table")
    return np.frombuffer(data, dtype="<u2")


@lru_cache(maxsize=1)
def _residue_table() -> np.ndarray:
    """The shipped squares mod each prime through _RESIDUE_TOP, read-only
    bytes, read once per process on first use."""
    data = _shipped(_RESIDUE_FILE, _RESIDUE_BYTES, _RESIDUE_SHA256, "residue table")
    return np.frombuffer(data, dtype=np.uint8)


def _shipped(name: str, size: int, digest: str, what: str) -> bytes:
    """The bytes of the package file name.  A file that is missing, or whose
    size or SHA-256 is not the pinned one, raises InconsistencyError, so
    nothing is read from a damaged table."""
    try:
        data = resources.files(__package__).joinpath(name).read_bytes()
    except OSError as exc:
        raise InconsistencyError(f"cannot read the {what} {name}: {exc.strerror or exc}") from exc
    if len(data) != size or sha256(data).hexdigest() != digest:
        raise InconsistencyError(
            f"the {what} {name} ({len(data)} bytes) does not match its pinned size and SHA-256"
        )
    return data


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
