"""Explicit families of imaginary quadratic fields with divisible class numbers.

Builders for three constructions and a brute-force search:

* iizuka_family: base value (1 - ((m+1)!)^(nl))^n with members at square
  offsets 0, 1, 4, ..., m^2 - the candidate run of m+1 successive fields
  whose class numbers should all be divisible by n.
* cor5_family: d = (k-1)^2 + (1 - (k!)^l)^n, pairing Q(sqrt(d)) with
  Q(sqrt(d + 2k - 1)).
* cor7_family: d = 1 - 3^(3k) p^(6t), the triple (d, d+1, d+3) for
  divisibility by 3.
* search_successive: exhaustive scan for offset patterns at small |d|,
  one d after another.  Each field's h is looked up as
  ``classgroup.class_number_of_field`` finds it: a field with |disc| < 2^16
  is read from qform's block table, a larger one counted on its own.  Every
  hit is recounted before it is reported.  Every builder and the search run
  sequentially; the search's ``threads`` keyword accepts only 1.

Members are flagged ``asserted`` only when an unconditional theorem backs
them (cohn_check / hoque_check shapes); members that rely on "parameters
large enough" clauses carry asserted=False plus a note, since the thresholds
are ineffective and small parameters genuinely fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import classgroup, intmath, qform
from .errors import InputError, InconsistencyError, ResourceCapError
from .qform import DEFAULT_DISC_CAP


@dataclass(frozen=True)
class FamilyMember:
    offset: int
    value: int
    d_sf: int
    disc: int
    h: int
    divisible: bool
    asserted: bool
    note: str = ""


@dataclass(frozen=True)
class FamilyReport:
    family_kind: str  # iizuka_squares | cor5_pair | cor7_triple | custom_offsets
    parameters: dict[str, int]
    base_d: int
    members: tuple[FamilyMember, ...]

    @property
    def all_asserted_pass(self) -> bool:
        return all(m.divisible for m in self.members if m.asserted)


class CohnResult(NamedTuple):
    h: int
    divisible: bool
    is_exception: bool


class HoqueResult(NamedTuple):
    d_sf: int
    h: int
    divisible: bool
    note: str


def cohn_check(
    V: int,
    n: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> CohnResult:
    """n | h(1 - V^n) for odd V, n >= 3, with the single exception (V, n) = (3, 5).

    Returns the computed class number and flags; the divisible-xor-exception
    contract is enforced by the test grids, so a violation here would expose
    an arithmetic bug rather than raise mid-report.
    """
    if V < 3 or V % 2 == 0:
        raise InputError(f"V must be odd and >= 3, got {V}")
    if n < 3 or n % 2 == 0:
        raise InputError(f"n must be odd and >= 3, got {n}")
    intmath.check_power(V, n, "V^n")
    h, _, _ = classgroup.class_number_of_field(1 - V**n, max_disc, budget)
    return CohnResult(h=h, divisible=h % n == 0, is_exception=(V, n) == (3, 5))


def hoque_check(
    m: int,
    p: int,
    n: int,
    r: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> HoqueResult:
    """3 | h(square-free part of -(3^m p^(2n) + r)) for odd m > 1, odd p, r in {-2, 4}.

    p divisible by 3 falls outside the cleanly stated hypotheses; such results
    are reported with a note instead of being treated as guaranteed.
    """
    if m <= 1 or m % 2 == 0:
        raise InputError(f"m must be odd and > 1, got {m}")
    if p < 3 or p % 2 == 0:
        raise InputError(f"p must be odd and >= 3, got {p}")
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if r not in (-2, 4):
        raise InputError(f"r must be -2 or 4, got {r}")
    intmath.check_power(3, m, "3^m")
    intmath.check_power(p, 2 * n, "p^(2n)")
    value = -(3**m * p ** (2 * n) + r)
    h, _, d_sf = classgroup.class_number_of_field(value, max_disc, budget)
    note = "p divisible by 3: outside the stated hypotheses" if p % 3 == 0 else ""
    return HoqueResult(d_sf=d_sf, h=h, divisible=h % 3 == 0, note=note)


def _resolve_members(specs, modulus, max_disc, budget):
    """FamilyMembers from (offset, value, number, asserted, note) specs:
    d_sf is the square-free part of number, which has the value's
    square-free part, and divisible means modulus | h.  Every builder and
    every search hit makes its members here.

    Stage one computes every member's discriminant (cheap factoring) and
    fails fast if any exceeds the cap, before any enumeration starts.
    """
    staged = []
    for offset, value, number, asserted, note in specs:
        if value >= 0:
            raise InputError(f"member at offset {offset} has non-negative value {value}")
        d_sf = intmath.squarefree_part(number, budget).d
        disc = intmath.field_discriminant(d_sf)
        if -disc > max_disc:
            raise ResourceCapError(
                f"member at offset {offset} needs |discriminant| {-disc} over cap {max_disc}",
                detail=disc,
            )
        staged.append((offset, value, d_sf, disc, asserted, note))

    members = []
    for offset, value, d_sf, disc, asserted, note in staged:
        h = classgroup.class_number_of_squarefree(d_sf, max_disc).h
        members.append(
            FamilyMember(
                offset=offset,
                value=value,
                d_sf=d_sf,
                disc=disc,
                h=h,
                divisible=h % modulus == 0,
                asserted=asserted,
                note=note,
            )
        )
    return tuple(members)


def iizuka_family(
    n: int,
    m: int,
    l: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> FamilyReport:
    """Members base_d + x^2 for x = 0..m, with base_d = (1 - ((m+1)!)^(nl))^n.

    With y = ((m+1)!)^(nl) - 1, the x = 1 member's value is exactly 1 - y^n,
    so its divisibility is unconditional (cohn_check shape); it is the
    family's hard anchor and always asserted: (m+1)! is even and nl >= 3, so
    y >= 2^3 - 1 = 7 is odd and cohn_check's exception (V, n) = (3, 5) cannot
    occur.  The x = 0 member would need the same result for the even base
    ((m+1)!)^l, which genuinely fails for small l (e.g. n=3, m=1, l=1 gives
    h(Q(sqrt(-7))) = 1), and members x >= 2 depend on y exceeding an
    ineffective threshold - all of these are reported, not asserted.
    """
    if n < 3 or n % 2 == 0:
        raise InputError(f"n must be odd and >= 3, got {n}")
    if m < 1 or l < 1:
        raise InputError(f"m and l must be positive, got m={m}, l={l}")
    intmath.check_power(m + 1, m + 1, "(m+1)!")  # (m+1)! <= (m+1)^(m+1)
    fact = math.factorial(m + 1)
    intmath.check_power(fact, n * n * l, "(1 - ((m+1)!)^(nl))^n")
    big = fact ** (n * l)
    y = big - 1
    base_d = (1 - big) ** n
    specs = []
    for x in range(0, m + 1):
        value = base_d + x * x
        if x == 0:
            note = (
                "base member: equals (1 - V^n)^n with even V = ((m+1)!)^l; "
                "the unconditional odd-V result does not apply, divisibility "
                "needs l large enough"
            )
        elif x == 1:
            note = "unconditional: value is 1 - y^n with odd y"
        else:
            note = (
                f"conditional: x = {x} member needs y above an ineffective threshold"
            )
        # n is odd, so base_d = (1 - big)^n has the square-free part of 1 - big
        specs.append((x * x, value, value if x else 1 - big, x == 1, note))
    members = _resolve_members(specs, n, max_disc, budget)
    return FamilyReport("iizuka_squares", {"n": n, "m": m, "l": l, "y": y}, base_d, members)


def cor5_family(
    n: int,
    k: int,
    l: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> FamilyReport:
    """Pair d and d + (2k - 1) with d = (k-1)^2 + (1 - (k!)^l)^n.

    Both members are x^2 - y^n shapes (x = k-1 and x = k, y = (k!)^l - 1), so
    both are conditional on the ineffective threshold and never hard-asserted.
    gcd(2x, y) = 1 always: y is odd, and a prime p | x <= k divides k!, so
    y = -1 (mod p).
    """
    if n < 3 or n % 2 == 0:
        raise InputError(f"n must be odd and >= 3, got {n}")
    if k < 2:
        raise InputError(f"k must be >= 2 (k = 1 degenerates to d = 0), got {k}")
    if l < 1:
        raise InputError(f"l must be positive, got {l}")
    intmath.check_power(k, k, "k!")  # k! <= k^k
    fact = math.factorial(k)
    intmath.check_power(fact, n * l, "(1 - (k!)^l)^n")
    y = fact**l - 1
    base_d = (k - 1) ** 2 + (1 - fact**l) ** n
    m_off = 2 * k - 1
    if base_d + m_off >= 0:
        raise InputError(
            f"parameters give non-negative member value {base_d + m_off}; increase l"
        )
    specs = []
    for offset, x in ((0, k - 1), (m_off, k)):
        note = f"conditional: x = {x} member needs y above an ineffective threshold"
        specs.append((offset, base_d + offset, base_d + offset, False, note))
    members = _resolve_members(specs, n, max_disc, budget)
    return FamilyReport("cor5_pair", {"n": n, "k": k, "l": l, "y": y, "m": m_off}, base_d, members)


def cor7_family(
    p: int,
    k: int,
    t: int,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> FamilyReport:
    """Triple (d, d+1, d+3) with d = 1 - 3^(3k) p^(6t), divisibility by 3.

    Offset 0 is 1 - V^3 with odd V = 3^k p^(2t) > 3: unconditional.  Offset 1
    is -(3^(3k) p^(6t) - 2), the r = -2 shape, unconditional when 3k is odd
    (k odd).  Offset 3 is 2^2 - V^3: conditional.
    """
    if p <= 3 or p % 2 == 0 or not intmath.is_prime(p):
        raise InputError(f"p must be an odd prime > 3, got {p}")
    if k < 1 or t < 1:
        raise InputError(f"k and t must be positive, got k={k}, t={t}")
    intmath.check_power(3, 3 * k, "3^(3k)")
    intmath.check_power(p, 6 * t, "p^(6t)")
    V = 3**k * p ** (2 * t)
    base_d = 1 - V**3
    specs = [
        (0, base_d, base_d, True, "unconditional: value is 1 - V^3 with odd V > 3"),
        (
            1,
            base_d + 1,
            base_d + 1,
            k % 2 == 1,
            "unconditional: value is -(3^m p^(2n) - 2) with odd m = 3k"
            if k % 2 == 1
            else "3k even: the unconditional -(3^m p^(2n) - 2) result needs odd m",
        ),
        (3, base_d + 3, base_d + 3, False, "conditional: x = 2 member needs V above an ineffective threshold"),
    ]
    members = _resolve_members(specs, 3, max_disc, budget)
    return FamilyReport("cor7_triple", {"p": p, "k": k, "t": t}, base_d, members)


def search_successive(
    n: int,
    offsets: list[int],
    d_from: int,
    d_to: int,
    max_hits: int = 1,
    smallest_first: bool = True,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
    threads: int = 1,
) -> list[FamilyReport]:
    """All d in [d_from, d_to] (up to max_hits) with n | h(Q(sqrt(d + o))) for
    every offset o.

    By default the scan starts at the end nearest zero, so the first hits are
    the minimal exemplars, and it stops at the max_hits-th hit, so only the
    fields of the d checked so far are looked up, memoized and filed.  Every
    hit is re-verified with a fresh form count, outside the memo and the
    cache file, before being reported.

    The search runs in order on the calling thread.  ``threads`` must be 1
    and any other value raises InputError; the keyword is kept only because
    ``benchmark/worker.py`` passes ``threads=1``, and it goes when the
    benchmark next changes.
    """
    if threads != 1:
        raise InputError(f"threads must be 1, got {threads}")
    if n < 3:
        raise InputError(f"n must be >= 3, got {n}")
    if d_from > d_to:
        raise InputError(f"empty range: d_from {d_from} > d_to {d_to}")
    if d_to >= 0:
        raise InputError(f"the range must consist of negative d, got d_to={d_to}")
    if not offsets:
        raise InputError("need at least one offset")
    if any(o < 0 for o in offsets):
        raise InputError("offsets must be non-negative")
    if len(set(offsets)) < len(offsets):
        raise InputError("offsets must be distinct")
    max_off = max(offsets)
    if d_from + max_off >= 0:
        raise InputError(
            f"no d in range keeps d + offset negative; d_from={d_from}, max offset={max_off}"
        )
    if max_hits < 1:
        return []

    def qualifies(d: int) -> bool:
        # d near zero may push d + offset out of the imaginary range; such d
        # cannot qualify and are skipped rather than rejected.
        if d + max_off >= 0:
            return False
        for o in offsets:
            h, _, _ = classgroup.class_number_of_field(d + o, max_disc, budget)
            if h % n:
                return False
        return True

    order = range(d_to, d_from - 1, -1) if smallest_first else range(d_from, d_to + 1)
    hits: list[FamilyReport] = []
    for d in order:
        if qualifies(d):
            hits.append(_hit_report(d, n, offsets, max_disc, budget))
            if len(hits) >= max_hits:
                break
    return hits


def _hit_report(d, n, offsets, max_disc, budget) -> FamilyReport:
    """The hit at d as a report, each member recounted by
    ``qform.count_reduced``, which skips the memo and the cache file (below
    2^16 it reads the in-process table)."""
    note = "found by exhaustive search; re-verified by fresh enumeration"
    specs = [(o, d + o, d + o, False, note) for o in offsets]
    members = _resolve_members(specs, n, max_disc, budget)
    for m in members:
        fresh = qform.count_reduced(m.disc, max_disc)
        if fresh != m.h or not m.divisible:
            raise InconsistencyError(
                f"re-verification failed at d={d}, offset={m.offset}: h={m.h}, fresh={fresh}"
            )
    return FamilyReport("custom_offsets", {"n": n}, d, members)
