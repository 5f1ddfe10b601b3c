"""Class numbers and class-group structure of imaginary quadratic fields.

Two independent routes to h: counting reduced forms (the primary path) and
the exact finite character sum

    h = w/(2|D|) * |sum_{k=1}^{|D|-1} kronecker(D, k) * k|

for fundamental D, with w = 6, 4, 2 for D = -3, -4 and everything else.  The
two must agree exactly; ``class_number_of_field`` cross-checks them at most
once per discriminant and process, while |D| <= ANALYTIC_CROSS_CHECK_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cache as result_cache
from . import intmath, qform
from .errors import InconsistencyError, InputError, ResourceCapError
from .qform import DEFAULT_DISC_CAP, QuadForm

DEFAULT_STRUCTURE_CAP = 10**4
# |disc| up to which class_number_of_field runs the analytic cross-check.
ANALYTIC_CROSS_CHECK_LIMIT = 20_000


def is_fundamental_discriminant(disc: int, budget: int | None = None) -> bool:
    """True iff disc < 0 is the discriminant of a maximal imaginary order."""
    if disc >= 0:
        return False
    r = disc % 4
    if r == 1:
        return intmath.squarefree_part(disc, budget).t == 1
    if r == 0:
        q = disc // 4
        return q % 4 in (2, 3) and intmath.squarefree_part(q, budget).t == 1
    return False


def class_number_forms(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> int:
    """Class number of the order of discriminant disc, by counting reduced forms."""
    return qform.count_reduced(disc, max_disc)


# The Kronecker characters of the prime discriminants -4, 8 and -8, on k mod 8.
_TWO_PART = {
    -4: np.array([0, 1, 0, -1, 0, 1, 0, -1], dtype=np.int8),
    8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
    -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
}
# Block length of the character sum: no int64 temporary outgrows it.
_STEP = 1 << 22


def _legendre_table(p: int) -> np.ndarray:
    """The Legendre symbol (k|p) for k = 0..p-1, p an odd prime."""
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    half = (p + 1) // 2
    for lo in range(1, half, _STEP):
        squares = np.arange(lo, min(half, lo + _STEP), dtype=np.int64)
        squares *= squares
        squares %= p
        table[squares] = 1
    return table


def _tiled(table: np.ndarray, abs_d: int, block: int) -> tuple[np.ndarray, int]:
    """The table, repeated up to min(period + block, abs_d) entries, and its
    period: then each block lo..lo+block-1 of 0..abs_d-1 is one slice,
    starting at lo % period."""
    period = table.size
    length = min(period + block, abs_d)
    if length > period:
        reps, extra = divmod(length, period)
        table = np.concatenate((np.tile(table, reps), table[:extra]))
    return table, period


def class_number_analytic(disc: int, max_disc: int = DEFAULT_DISC_CAP) -> int:
    """Class number of a fundamental discriminant via the exact character sum.

    A fundamental disc is a product of prime discriminants: -4, 8 or -8 for
    its 2-part, read off disc mod 16, and p* = +-p for each odd prime p
    dividing it.  kronecker(disc, .) is then the product of their characters,
    each periodic: a fixed table mod 8 for the 2-part and the Legendre symbol
    (k|p) for odd p.  The odd part of disc is split by trial division, which
    also checks that disc is fundamental (no odd square divides it), and the
    tables are tiled over 0..|disc|-1 and multiplied block by block into the
    weighted sum, which is exact int64 work.  Neither the form code nor
    ``intmath.factor`` nor ``intmath.kronecker`` is used, so this stays an
    independent route to h.
    """
    qform.validate_discriminant(disc)
    if -disc > max_disc:
        raise ResourceCapError(
            f"|discriminant| {-disc} exceeds cap {max_disc}", detail=disc
        )
    not_fundamental = InputError(f"{disc} is not a fundamental discriminant")
    abs_d = -disc
    if disc % 4 == 1:
        tables = []
        odd = abs_d
    elif disc % 16 == 12:
        tables = [_TWO_PART[-4]]
        odd = abs_d // 4
    elif disc % 16 == 8:
        tables = [_TWO_PART[8 if (disc // 8) % 4 == 1 else -8]]
        odd = abs_d // 8
    else:
        raise not_fundamental
    if abs_d == 3:
        return 1
    block = min(_STEP, abs_d)
    chars = [_tiled(t, abs_d, block) for t in tables]
    p = 3
    while p * p <= odd:
        if odd % p == 0:
            odd //= p
            if odd % p == 0:
                raise not_fundamental
            chars.append(_tiled(_legendre_table(p), abs_d, block))
        p += 2
    if odd > 1:
        chars.append(_tiled(_legendre_table(odd), abs_d, block))
    total = 0
    for lo in range(0, abs_d, _STEP):
        hi = min(abs_d, lo + _STEP)
        chi = np.ones(hi - lo, dtype=np.int8)
        for values, period in chars:
            start = lo % period
            chi *= values[start : start + hi - lo]
        total += int(np.dot(np.arange(lo, hi, dtype=np.int64), chi.astype(np.int64)))
    w = 4 if disc == -4 else 2
    num = w * abs(total)
    if num == 0 or num % (2 * abs_d):
        raise InconsistencyError(
            f"character sum {total} for disc {disc} does not yield an integer class number"
        )
    return num // (2 * abs_d)


class FieldClassNumber(NamedTuple):
    h: int
    disc: int
    d_sf: int


def _cross_checked(disc: int, h: int) -> int:
    """h, once the character sum confirms it; trusted above the check limit."""
    if -disc <= ANALYTIC_CROSS_CHECK_LIMIT:
        ha = class_number_analytic(disc)
        if ha != h:
            raise InconsistencyError(
                f"class number mismatch at disc {disc}: {h}, analytic {ha}"
            )
    return h


def _read_h(file: result_cache.ResultCache, disc: int) -> int | None:
    h = file.get_h(disc)
    return None if h is None else _cross_checked(disc, h)


def _lookup_h(disc: int, count) -> int:
    """h(disc) from the memo or the cache file, else ``count()``; a value
    read or counted is cross-checked, then memoized and filed."""
    return result_cache.lookup(
        f"h:{disc}",
        lambda: _cross_checked(disc, count()),
        read=lambda file: _read_h(file, disc),
        write=lambda file, value: file.put_h(disc, value),
    )


def class_number_of_field(
    d: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> FieldClassNumber:
    """Class number of Q(sqrt(d)) for any negative integer d.

    Normalizes through the square-free part and the fundamental discriminant,
    so d may carry square factors (h(-343) is h of Q(sqrt(-7))).  The form
    count, or a value read from the cache file, is cross-checked against the
    character sum when |disc| <= ANALYTIC_CROSS_CHECK_LIMIT before it is
    memoized, so each discriminant is checked at most once per process.
    A count that ``sieve_fields`` filed is found in the memo like any other.
    """
    if d >= 0:
        raise InputError(f"only imaginary quadratic fields are supported, got d={d}")
    d_sf = intmath.squarefree_part(d, budget).d
    disc = intmath.field_discriminant(d_sf)
    if -disc > max_disc:
        raise ResourceCapError(
            f"|discriminant| {-disc} exceeds enumeration cap {max_disc}", detail=disc
        )
    h = _lookup_h(disc, lambda: class_number_forms(disc, max_disc))
    return FieldClassNumber(h=h, disc=disc, d_sf=d_sf)


def sieve_fields(
    values,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> None:
    """Count together the fields Q(sqrt(v)) of the given negative values
    whose h neither the memo nor the cache file holds, as far as
    ``qform.count_reduced_sieved`` counts them together, and file each count
    as ``class_number_of_field`` files a fresh one: cross-checked, memoized
    and written to the active cache file.

    Pass only values whose fields the caller looks up anyway, for each
    value's factorization and each field's h is cached here: the memo and
    the file then get the same entries as without the sieve.  A value over
    max_disc, or one whose square-free part cannot be found within the
    budget, is left out, so ``class_number_of_field`` meets it, and raises,
    as without the sieve.
    """
    discs = set()
    for v in values:
        if -v > max_disc:
            continue
        try:
            disc = intmath.field_discriminant(intmath.squarefree_part(v, budget).d)
        except ResourceCapError:
            continue
        if not result_cache.known(f"h:{disc}", read=lambda file: file.get_h(disc)):
            discs.add(disc)
    for disc, h in qform.count_reduced_sieved(discs, max_disc).items():
        _lookup_h(disc, lambda: h)


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
    for p, _ in intmath.factor(h, budget).factors:
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


def _element_orders(
    forms: list[QuadForm], h: int
) -> tuple[dict[QuadForm, int], dict[QuadForm, tuple[list[QuadForm], int]]]:
    """Order and walk place of every class, forms being all h reduced forms
    of one disc.

    Walks the cyclic subgroup of each class whose order is not yet known:
    f, f^2, f^3, ... until the identity comes back after n = ord(f) steps.
    Each class g met is recorded at its place (walk, k), g = walk[k-1] =
    f^k, which gives ord(g) = n / gcd(k, n) and g^j = walk[(k*j - 1) % n]
    with no further composition.  The phi(n) generators of <f> are all
    unseen before its walk, so the walks make at most h * max(n / phi(n))
    compositions in all (n | h; under 4.82 h for h <= 10^4).  A walk that
    leaves the enumerated forms, runs h steps without closing or closes at
    an n not dividing h, and a class met with two different orders, raise
    InconsistencyError.
    """
    known = set(forms)
    ident = qform.identity_form(forms[0].discriminant)
    orders: dict[QuadForm, int] = {}
    places: dict[QuadForm, tuple[list[QuadForm], int]] = {}
    for f in forms:
        if f in orders:
            continue
        walk = [f]
        while walk[-1] != ident:
            if len(walk) == h:
                raise InconsistencyError(f"power(f, {h}) is not principal for f = {f}")
            g = walk[-1].compose(f)
            if g not in known:
                raise InconsistencyError(f"{g} is not a reduced form of disc {ident.discriminant}")
            walk.append(g)
        n = len(walk)
        if h % n:
            raise InconsistencyError(f"class {f} has order {n}, which does not divide h = {h}")
        for k, g in enumerate(walk, 1):
            order = n // math.gcd(k, n)
            if orders.setdefault(g, order) != order:
                raise InconsistencyError(f"class {g} met with orders {orders[g]} and {order}")
            places.setdefault(g, (walk, k))
    return orders, places


def group_structure(
    disc: int,
    max_disc: int = DEFAULT_DISC_CAP,
    structure_cap: int = DEFAULT_STRUCTURE_CAP,
) -> ClassGroupInfo:
    """Elementary divisors and matching generators of the form class group.

    Element orders come from one walk per cyclic subgroup: composing f, f^2,
    ... until the identity returns gives ord(f) and, through
    ord(f^k) = ord(f) / gcd(k, ord(f)), the order of every power met, in
    fewer than 4.82 h compositions for h <= 10^4.

    Generators are then picked greedily from the classes in (-order, form)
    order: a class f is kept when none of f, ..., f^(ord(f)-1), read from
    its walk, lies in the subgroup H generated so far, and the picking stops
    once H has h classes.  The orders of the kept classes are the elementary
    divisors, largest first.  A cyclic subgroup of maximal order in a finite
    abelian group is a direct summand, so while H is a direct summand every
    f with <f> meeting H only in 1 has order at most exp(G/H), some f reaches
    that bound, and adding any such f keeps the sum direct; the first class
    that passes therefore has order exp(G/H), the next divisor.

    A class that fails the test meets every larger H too, so one pass over
    the sorted classes serves all rounds; a class of order 1, or of an order
    not dividing h/|H|, cannot pass and is skipped.  H grows by composing
    each of its classes with f, ..., f^(ord(f)-1), which makes h - 1
    compositions over the whole group and checks that the sum is direct and
    that the generators exhaust the group, so the certificate is
    self-checking.
    """
    forms = qform.enumerate_reduced(disc, max_disc)
    h = len(forms)
    if h > structure_cap:
        raise ResourceCapError(
            f"class number {h} exceeds structure cap {structure_cap}", detail=h
        )
    orders, places = _element_orders(forms, h)
    subgroup = {qform.identity_form(disc)}
    gens_desc: list[QuadForm] = []
    candidates = iter(sorted(forms, key=lambda f: (-orders[f], f)))
    while len(subgroup) < h:
        quotient = h // len(subgroup)
        for f in candidates:
            n = orders[f]
            if n == 1 or quotient % n:
                continue
            # f^j = walk[(k*j - 1) % len(walk)] for j = 0..n-1: 1, f, ..., f^(n-1)
            walk, k = places[f]
            powers = [walk[(k * j - 1) % len(walk)] for j in range(n)]
            if subgroup.isdisjoint(powers[1:]):
                break
        else:
            raise InconsistencyError(
                f"the classes of disc {disc} ran out at a subgroup of order {len(subgroup)} < h = {h}"
            )
        gens_desc.append(f)
        grown = subgroup | {s.compose(p) for s in subgroup for p in powers[1:]}
        if len(grown) != len(subgroup) * n:
            raise InconsistencyError(
                f"{f} grows a subgroup of {len(subgroup)} classes to {len(grown)}, not {len(subgroup) * n}"
            )
        subgroup = grown
    if len(subgroup) != h:  # pragma: no cover - each order divides h / |H|
        raise InconsistencyError("generated subgroup does not exhaust the class group")

    generators = tuple(reversed(gens_desc))
    return ClassGroupInfo(disc, h, tuple(orders[g] for g in generators), generators)
