"""Class numbers and class-group structure of imaginary quadratic fields.

Two independent routes to h: counting reduced forms (the primary path) and
Dirichlet's finite character sum over half the range,

    h = w/(2*(2 - chi(2))) * sum_{0<k<|D|/2} chi(k),   chi = kronecker(D, .),

for fundamental D, with w = 6, 4, 2 for D = -3, -4 and everything else.  chi
is the product of the periodic characters of the prime discriminants
dividing D, each multiplied into a block of chi a period at a time with no
tiled copy; the Legendre tables of the small primes are cached across calls
for the sweeps that run the sum.
The sum's result must pass the genus-theory rule (2^(mu-1) | h for mu prime
discriminants, h odd when mu = 1), which any sum off by one fails.  Below
2^16 the form count reads qform's shipped table, which acceptance criterion 1
proves equal to the sum at every fundamental discriminant there: no run
repeats that proof, and a cached h there must equal the table's entry.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import cache as result_cache
from . import intmath, qform
from .errors import InconsistencyError, InputError, ResourceCapError
from .qform import DEFAULT_DISC_CAP, QuadForm

DEFAULT_STRUCTURE_CAP = 10**4


def class_number_forms(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> int:
    """Class number of the order of discriminant disc, by counting reduced forms."""
    return qform.count_reduced(disc, max_disc)


# The Kronecker characters of the prime discriminants -4, 8 and -8, on k mod 8.
_TWO_PART = {
    -4: np.array([0, 1, 0, -1, 0, 1, 0, -1], dtype=np.int8),
    8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
    -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
}
# Block length of the character sum and of a Legendre table's squares: no
# temporary outgrows it.
_STEP = 1 << 22


def _legendre_table(p: int) -> np.ndarray:
    """The Legendre symbol (k|p) for k = 0..p-1, p an odd prime; read-only."""
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    half = (p + 1) // 2
    for lo in range(1, half, _STEP):
        squares = np.arange(lo, min(half, lo + _STEP), dtype=np.int64)
        squares *= squares
        squares %= p
        table[squares] = 1
    table.setflags(write=False)
    return table


# The tables of the primes that trial division finds, kept across calls: such
# a p has p^2 <= |disc| <= max_disc, so at max_disc = 1e8 the cache holds at
# most 256 tables of under 10^4 bytes each, under 3 MB in the worst case.
# No serving path runs the sum; the cache shortens the sweeps of the tests and
# the benchmark's second route, criterion 1's by about 8%.
_small_legendre_table = functools.lru_cache(maxsize=256)(_legendre_table)


def _times_periodic(chi: np.ndarray, table: np.ndarray, start: int) -> None:
    """chi[j] *= table[(start + j) % p] for every j, p = table.size, in place
    and without tiling: the table's tail from start % p up to the next
    multiple of p, then whole periods as rows of p, then the rest."""
    p = table.size
    r = start % p
    if r:
        head = min(p - r, chi.size)
        chi[:head] *= table[r : r + head]
        chi = chi[head:]
    full = chi.size - chi.size % p
    periods = chi[:full].reshape(-1, p)  # a view: chi is contiguous
    periods *= table
    chi[full:] *= table[: chi.size - full]


def _genus_ok(h: int, mu: int) -> bool:
    """Whether h can be the class number of a fundamental discriminant with
    mu prime discriminants: by genus theory 2^(mu-1) divides it, and it is
    odd when mu = 1."""
    return h % (1 << (mu - 1)) == 0 and (mu > 1 or h % 2 == 1)


def _class_number_from_sum(disc: int, total: int, chi2: int, mu: int) -> int:
    """h = w * total / (2 * (2 - chi(2))), checked against what any class
    number of disc satisfies: it is a positive integer, and by genus theory
    2^(mu-1) divides it, mu being the number of prime discriminants dividing
    disc, and it is odd when mu = 1.  A sum off by one fails one of these:
    when chi(2) is -1 or 0 the division, when chi(2) = 1 the parity."""
    w = 6 if disc == -3 else 4 if disc == -4 else 2
    den = 2 * (2 - chi2)
    h, rem = divmod(w * total, den)
    if total <= 0 or rem or not _genus_ok(h, mu):
        raise InconsistencyError(
            f"character sum {total} for disc {disc} does not yield its class number"
        )
    return h


def class_number_analytic(disc: int) -> int:
    """Class number of a fundamental discriminant via Dirichlet's half-range sum

        h = w / (2 * (2 - chi(2))) * sum_{0 < k < |disc|/2} chi(k),

    chi = kronecker(disc, .), with w = 6, 4, 2 for disc = -3, -4 and the rest.

    A fundamental disc is a product of prime discriminants: -4, 8 or -8 for
    its 2-part, read off disc mod 16, and p* = +-p for each odd prime p
    dividing it.  chi is then the product of their characters, each periodic:
    a fixed table mod 8 for the 2-part and the Legendre symbol (k|p) for odd
    p.  The odd part of disc is split by trial division, which also checks
    that disc is fundamental (no odd square divides it); the tables of the
    primes it finds are cached, the cofactor's is built afresh.  Each table is
    multiplied into chi in place, a period at a time, block by block, and
    chi(2) is the product of the tables' entries at 2.  The result must be a
    positive integer, divisible by 2^(mu-1) and odd when mu = 1, mu being the
    number of prime discriminants (genus theory); otherwise it raises
    InconsistencyError.  |disc| above DEFAULT_DISC_CAP raises
    ResourceCapError, by the same ``qform.abs_disc`` check as the form count.
    Neither the form code nor ``intmath.factor`` nor ``intmath.kronecker``
    nor the result cache is used, so this stays an independent route to h.
    """
    abs_d = qform.abs_disc(disc, DEFAULT_DISC_CAP)
    not_fundamental = InputError(f"{disc} is not a fundamental discriminant")
    if disc % 4 == 1:
        chars = []
        odd = abs_d
    elif disc % 16 == 12:
        chars = [_TWO_PART[-4]]
        odd = abs_d // 4
    elif disc % 16 == 8:
        chars = [_TWO_PART[8 if (disc // 8) % 4 == 1 else -8]]
        odd = abs_d // 8
    else:
        raise not_fundamental
    p = 3
    while p * p <= odd:
        if odd % p == 0:
            odd //= p
            if odd % p == 0:
                raise not_fundamental
            chars.append(_small_legendre_table(p))
        p += 2
    if odd > 1:
        chars.append(_legendre_table(odd))
    half = (abs_d + 1) // 2  # k = 0..half-1 are the k < |disc|/2
    total = 0
    for lo in range(0, half, _STEP):
        chi = np.ones(min(half, lo + _STEP) - lo, dtype=np.int8)
        for table in chars:
            _times_periodic(chi, table, lo)
        total += int(chi.sum(dtype=np.int64))
    chi2 = math.prod(int(table[2 % table.size]) for table in chars)
    return _class_number_from_sum(disc, total, chi2, len(chars))


class FieldClassNumber(NamedTuple):
    h: int
    disc: int
    d_sf: int


# Set by the first h from 2^16 up that ``_read_h`` reads from a cache file,
# never cleared: a single bool assignment, and one per process, since a set of
# discs would grow with the file and a mark kept with the memo would be lost
# when the memo drops the value.
_genus_read = False


def _read_h(file: result_cache.ResultCache, d_sf: int, disc: int) -> int | None:
    """h(disc) from the file, checked, disc being the discriminant of d_sf;
    None when it is missing or below 1, which no class number is, so that
    it is counted again.

    Below 2^16 it must equal the shipped table's, ``qform.count_reduced``.
    From there on it must pass the genus rule, mu being the number of primes
    dividing |disc|, read from ``intmath.factor(d_sf, use_cache=False)``,
    which files nothing: that catches every h +- 1, but not an error that is
    a multiple of 2^max(1, mu-1), so such a read sets ``_genus_read`` for the
    rest of the process (see ``h_needs_recount``).  A value that fails raises
    InconsistencyError."""
    global _genus_read
    h = file.get_h(disc)
    if h is None or h < 1:
        return None
    if -disc < qform._TABLE_TOP:
        table = qform.count_reduced(disc)
        wrong = "" if h == table else f"differs from the table's {table}"
    else:
        _genus_read = True
        # 2 divides |disc| = 4|d_sf| but not d_sf exactly when disc = 4 (mod 8)
        mu = len(intmath.factor(d_sf, use_cache=False).factors) + (disc % 8 == 4)
        wrong = "" if _genus_ok(h, mu) else f"fails the genus rule (mu = {mu})"
    if wrong:
        raise InconsistencyError(f"cached class number {h} of disc {disc} {wrong}")
    return h


def class_number_of_field(
    d: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> FieldClassNumber:
    """Class number of Q(sqrt(d)) for any negative integer d.

    Normalizes through the square-free part and the fundamental discriminant,
    so d may carry square factors (h(-343) is h of Q(sqrt(-7))).  h is the
    form count, or a value read from the cache file, which must equal the
    table's count when |disc| < 2^16 and pass the genus rule from there on.
    """
    if d >= 0:
        raise InputError(f"only imaginary quadratic fields are supported, got d={d}")
    return class_number_of_squarefree(intmath.squarefree_part(d, budget).d, max_disc)


def class_number_of_squarefree(d_sf: int, max_disc: int = DEFAULT_DISC_CAP) -> FieldClassNumber:
    """``class_number_of_field`` for a square-free d_sf < 0 the caller
    already holds: h from the memo, else the file through ``_read_h``, which
    checks it, else the form count; then memoized and filed."""
    disc = intmath.field_discriminant(d_sf)
    qform.abs_disc(disc, max_disc)
    h = result_cache.lookup(
        f"h:{disc}",
        lambda: class_number_forms(disc, max_disc),
        read=lambda file: _read_h(file, d_sf, disc),
        write=lambda file, value: file.put_h(disc, value),
    )
    return FieldClassNumber(h=h, disc=disc, d_sf=d_sf)


def h_needs_recount(disc: int) -> bool:
    """Whether the h that ``class_number_of_squarefree`` gave for disc may be
    a cache file's value that only the genus rule checked: |disc| is at least
    2^16 and ``_read_h`` has read an h from 2^16 up from a cache file in this
    process, also one deactivated since or whose value the memo has dropped.
    Any other h equals the shipped table's entry or the form count."""
    return -disc >= qform._TABLE_TOP and _genus_read


def order_of_class(f: QuadForm, h: int, budget: int | None = None) -> int:
    """Multiplicative order of the class [f], given a multiple h of it.

    h may be a class number, or the n of a witness whose n-th power is
    principal.  Factors h and strips primes while the corresponding power
    stays principal.  Raises InconsistencyError if h is not actually a
    multiple of the order (e.g. a wrong class number was supplied).
    """
    if h < 1:
        raise InputError(f"h must be positive, got {h}")
    ident = qform.identity_form(f.discriminant)
    if f.power(h) != ident:
        raise InconsistencyError(f"power(f, {h}) is not principal; {h} is not a multiple of the order")
    m = h
    for p, _ in intmath.factor(h, budget, use_cache=False).factors:
        while m % p == 0 and f.power(m // p) == ident:
            m //= p
    return m


@dataclass(frozen=True)
class ClassGroupInfo:
    """Certificate for the group of classes of one discriminant.

    elementary_divisors is the ascending divisibility chain d1 | d2 | ... with
    product h; generators[i] has order elementary_divisors[i] and together
    they generate the whole group.
    """

    discriminant: int
    h: int
    elementary_divisors: tuple[int, ...]
    generators: tuple[QuadForm, ...]


def _checked(x: QuadForm, disc: int) -> QuadForm:
    """x, once it is a reduced form of discriminant disc."""
    if x.discriminant != disc or not x.is_reduced():
        raise InconsistencyError(f"{x} is not a reduced form of disc {disc}")
    return x


def _walk(g: QuadForm, ident: QuadForm, bound: int) -> list[QuadForm]:
    """g, g^2, ..., g^n = 1 for n = ord(g), one composition a step.

    A power that is not a reduced form of g's discriminant, a walk that runs
    ``bound`` steps without closing, and one that closes at an n not
    dividing ``bound``, raise InconsistencyError.
    """
    walk = [g]
    while walk[-1] != ident:
        if len(walk) == bound:
            raise InconsistencyError(f"power(f, {bound}) is not principal for f = {g}")
        walk.append(_checked(walk[-1].compose(g), ident.discriminant))
    if bound % len(walk):
        raise InconsistencyError(f"class {g} has order {len(walk)}, which does not divide {bound}")
    return walk


def _grown(subgroup: set[QuadForm], steps: list[QuadForm], by: QuadForm) -> set[QuadForm]:
    """subgroup * {1, steps...}, checked to have |subgroup| * (len(steps) + 1)
    classes: the steps lie in distinct cosets of the subgroup.  The principal
    form is the one reduced form with a = 1, and its row of products is the
    steps themselves, so the growth makes (|subgroup| - 1) * len(steps)
    compositions: none while the subgroup is trivial."""
    grown = subgroup | {x if s.a == 1 else s.compose(x) for s in subgroup for x in steps}
    target = len(subgroup) * (len(steps) + 1)
    if len(grown) != target:
        raise InconsistencyError(
            f"{by} grows a subgroup of {len(subgroup)} classes to {len(grown)}, not {target}"
        )
    return grown


class _Sylow:
    """The p-Sylow subgroup G_p of a class group of order h, p^a || h, and
    the p-part H_p of the subgroup generated so far.

    G_p is built from the p-parts f^(h/p^a) of the forms, drawn in form
    order: each new p-part g is walked, each power checked to be reduced,
    and G_p grows by the cosets of <g> until it has p^a classes.  Each walk
    places the classes it meets (``_place``), one record per class holding
    its walk, its place in it and its order; then the classes of G_p that
    no walk has placed are walked, in sorted order.  A walk of n classes
    places every generator of its cyclic subgroup for the first time, at
    least phi(n) classes, so the walks make at most p^a * p/(p - 1) <= 2 p^a
    compositions, and the growth under p^a.
    """

    def __init__(self, p: int, q: int, h: int, forms: Iterable[QuadForm], ident: QuadForm):
        self.p, self.q = p, q
        self._cofactor = h // q
        self._disc = ident.discriminant
        self._parts: dict[QuadForm, QuadForm] = {}
        self._places: dict[QuadForm, tuple[list[QuadForm], int, int]] = {}
        group = {ident}
        for f in forms:
            if len(group) == q:
                break
            g = self.part(f)
            if g in group:
                continue
            walk = _walk(g, ident, q)
            self._place(walk)
            # g^j, the first power of g in the group, closes the cosets of <g>
            j = next(j for j, x in enumerate(walk, 1) if x in group)
            group = _grown(group, walk[: j - 1], g)
            if len(group) > q:
                raise InconsistencyError(
                    f"the {p}-part of disc {ident.discriminant} outgrows {q} classes"
                )
        if len(group) < q:
            raise InconsistencyError(
                f"the classes of disc {ident.discriminant} ran out at a {p}-subgroup "
                f"of order {len(group)} < {q}"
            )
        for g in sorted(group):
            if g not in self._places:
                self._place(_walk(g, ident, q))
        self.group = group
        self.subgroup = {ident}

    def _place(self, walk: list[QuadForm]) -> None:
        """Record (walk, k, ord(g)) for each class g = walk[k-1] = f^k of f's
        walk, n = ord(f) = len(walk), unless an earlier walk met g: ord(g) =
        n / gcd(k, n), and g^j = walk[(k*j - 1) % n] with no further
        composition.  A class met with two different orders raises
        InconsistencyError."""
        n = len(walk)
        for k, g in enumerate(walk, 1):
            order = n // math.gcd(k, n)
            placed = self._places.setdefault(g, (walk, k, order))[2]
            if placed != order:
                raise InconsistencyError(f"class {g} met with orders {placed} and {order}")

    def part(self, f: QuadForm) -> QuadForm:
        """f^(h/p^a), memoized; it must be a reduced form."""
        g = self._parts.get(f)
        if g is None:
            g = f if self._cofactor == 1 else f.power(self._cofactor)
            self._parts[f] = g = _checked(g, self._disc)
        return g

    def order(self, g: QuadForm) -> int:
        place = self._places.get(g)
        if place is None:
            raise InconsistencyError(f"{g} is not in the {self.p}-part of its class group")
        return place[2]

    def _power(self, g: QuadForm, j: int) -> QuadForm:
        """g^j, read off g's walk: g = walk[k-1] = f^k gives g^j = f^(kj)."""
        walk, k, _ = self._places[g]
        return walk[(k * j - 1) % len(walk)]

    def powers(self, g: QuadForm) -> list[QuadForm]:
        """g, g^2, ..., g^(n-1) for n = ord(g)."""
        return [self._power(g, j) for j in range(1, self._places[g][2])]

    def free(self, g: QuadForm) -> bool:
        """Whether <g> meets H_p only in 1.  Every nontrivial subgroup of the
        cyclic p-group <g> holds g^(n/p), n = ord(g), so one lookup decides."""
        n = self._places[g][2]
        return n == 1 or self._power(g, n // self.p) not in self.subgroup

    def exponent(self) -> int:
        """exp(G_p/H_p), the largest order of a g in G_p with <g> meeting H_p
        only in 1, since H_p stays a direct summand of G_p."""
        return max(n for g, (_, _, n) in self._places.items() if self.free(g))


def group_structure(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> ClassGroupInfo:
    """Elementary divisors and matching generators of the form class group.

    h is the form count; an h above DEFAULT_STRUCTURE_CAP raises
    ResourceCapError before any form is built.  Below |disc| = 2^16 h is
    read from qform's shipped table, while the forms come from the root-count
    scan, so the two routes check each other.  G is the direct sum of its
    Sylow subgroups G_p, p^a || h, each built from the p-parts f^(h/p^a) of
    the forms (see ``_Sylow``); element orders and powers are read off the
    walks that build G_p and those of the classes they miss, no cyclic
    subgroup walked twice.  Each pass re-reads the forms drawn so far from
    one lazy ``qform.reduced_forms`` stream (a copy of one tee of it), so
    only the prefix the passes read is ever built.

    Generators are picked greedily, one per round, as in (-order, form)
    order over all classes: with H the subgroup generated so far and H_p
    its p-parts, the pick is the first form f, in form order, whose order is
    t = exp(G/H) = prod_p exp(G_p/H_p) and whose cyclic subgroup meets H only
    in 1, that is <f_p> meets H_p only in 1 for each p-part f_p of f.  A
    cyclic subgroup of maximal order in a finite abelian group is a direct
    summand, so while H is a direct summand every f with <f> meeting H only
    in 1 has order dividing t, some f reaches t, and adding any such f keeps
    the sum direct; the orders t of the picks are the elementary divisors,
    largest first.  A form is tested first by whether f^t is principal, then
    by ord(f) = prod_p ord(f_p) and the p-parts; one that fails the power
    test, or whose <f> meets H, fails in every later round too, and its
    order is recorded as 0, which no t is.  The first round skips the power
    test: with H = 1 every order divides t = exp(G).  A form of order 1 is
    skipped, so t = 1 while H < G ends in "ran out".

    Each H_p grows by composing its classes other than 1 with f_p, ...,
    f_p^(ord(f_p)-1), read off f_p's walk, and checks that the sum is direct;
    at the end every H_p must be G_p, so the certificate is self-checking.
    Over all rounds that makes (p^a - 1) - sum_i (p^e_i - 1) compositions,
    the p^e_i being the p-parts of the elementary divisors: none for a
    cyclic G_p.  With the walks of G_p, at most 2 p^a, and its growth, under
    p^a, each Sylow subgroup costs fewer than 4 p^a compositions besides the
    p-parts f^(h/p^a).  None of these compositions, nor any inside
    ``QuadForm.power``, has the principal class as an operand.
    """
    h = class_number_forms(disc, max_disc)
    if h > DEFAULT_STRUCTURE_CAP:
        raise ResourceCapError(
            f"class number {h} exceeds structure cap {DEFAULT_STRUCTURE_CAP}", detail=h
        )
    ident = qform.identity_form(disc)
    (forms,) = itertools.tee(qform.reduced_forms(disc, max_disc), 1)
    sylows = [
        _Sylow(p, p**a, h, copy.copy(forms), ident)
        for p, a in intmath.factor(h, use_cache=False).factors
    ]
    # ord(f) in G for each form f tried, 0 once f can never be picked
    orders: dict[QuadForm, int] = {}
    picks: list[tuple[QuadForm, int]] = []
    while any(len(s.subgroup) < s.q for s in sylows):
        t = math.prod(s.exponent() for s in sylows)
        for f in copy.copy(forms):
            n = orders.get(f)
            if n is None:
                if picks and f.power(t) != ident:
                    orders[f] = 0
                    continue
                n = orders[f] = math.prod(s.order(s.part(f)) for s in sylows)
            if n != t or n == 1:
                continue
            if all(s.free(s.part(f)) for s in sylows):
                break
            orders[f] = 0
        else:
            raise InconsistencyError(
                f"the classes of disc {disc} ran out at a subgroup of order "
                f"{math.prod(len(s.subgroup) for s in sylows)} < h = {h}"
            )
        picks.append((f, t))
        for s in sylows:
            s.subgroup = _grown(s.subgroup, s.powers(s.part(f)), f)
    if any(s.subgroup != s.group for s in sylows):
        raise InconsistencyError("generated subgroup does not exhaust the class group")

    picks.reverse()
    return ClassGroupInfo(
        disc, h, tuple(t for _, t in picks), tuple(f for f, _ in picks)
    )
