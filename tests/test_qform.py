import hashlib
import math
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadclass import classgroup, intmath, qform
from quadclass.errors import InputError, ResourceCapError
from quadclass.qform import QuadForm

from oracles import (
    apply_unimodular,
    brute_prime_form,
    brute_reduced_forms,
    dirichlet_compose,
    divisor_pairs,
    is_fundamental,
    random_unimodular,
    residue_table,
    window_counts,
)

# The residue table that qform ships, built by oracles.residue_table.
# Regenerate it after changing the oracle with
#     PYTHONPATH=src python tests/test_qform.py
RESIDUES = Path(__file__).resolve().parents[1] / "src" / "quadclass" / qform._RESIDUE_FILE

SMALL_DISCS = [-3, -4, -7, -8, -11, -15, -20, -23, -24, -31, -47, -84, -104, -116, -120]


def form_set(disc):
    return {(f.a, f.b, f.c) for f in qform.enumerate_reduced(disc)}


class TestBasics:
    def test_discriminant(self):
        assert QuadForm(1, 0, 1).discriminant == -4
        assert QuadForm(1, 1, 6).discriminant == -23
        assert QuadForm(2, 1, 3).discriminant == -23

    def test_rejects_indefinite(self):
        with pytest.raises(InputError):
            QuadForm(1, 5, 1)
        with pytest.raises(InputError):
            QuadForm(-1, 0, -1)

    def test_rejects_imprimitive(self):
        with pytest.raises(InputError):
            QuadForm(2, 0, 2)

    def test_str_rendering(self):
        assert str(QuadForm(2, -1, 3)) == "(2,-1,3)"

    def test_canonical_ordering(self):
        assert QuadForm(1, 1, 6) < QuadForm(2, -1, 3) < QuadForm(2, 1, 3)


class TestIsReduced:
    def test_cases(self):
        assert QuadForm(1, 0, 1).is_reduced()
        assert not QuadForm(3, 5, 4).is_reduced()  # |b| > a
        assert QuadForm(2, -1, 3).is_reduced()
        assert not QuadForm(3, -1, 2).is_reduced()  # a > c

    def test_boundary_sign(self):
        assert QuadForm(2, 2, 3).is_reduced()
        assert not QuadForm(2, -2, 3).is_reduced()  # |b| = a needs b >= 0
        assert QuadForm(3, 2, 3).is_reduced()
        assert not QuadForm(3, -2, 3).is_reduced()  # a = c needs b >= 0


class TestReduce:
    def test_already_reduced(self):
        assert QuadForm(1, 0, 1).reduced() == QuadForm(1, 0, 1)

    def test_examples(self):
        assert QuadForm(3, 5, 4).reduced() == QuadForm(2, 1, 3)
        assert QuadForm(5, 4, 1).reduced() == QuadForm(1, 0, 1)

    def test_idempotent_and_disc_preserving(self):
        for disc in SMALL_DISCS:
            for f in qform.enumerate_reduced(disc):
                assert f.reduced() == f
                assert f.reduced().discriminant == disc

    def test_unimodular_invariance(self):
        # random changes of variable land back on the same reduced form
        rng = random.Random(1234)
        for disc in SMALL_DISCS:
            for f in qform.enumerate_reduced(disc):
                for _ in range(8):
                    a, b, c = apply_unimodular(f, *random_unimodular(rng))
                    g = QuadForm(a, b, c)
                    assert g.discriminant == disc
                    assert g.reduced() == f, (f, g)

    def test_unimodular_invariance_full_sweep_to_2000(self):
        # one reduced representative per class, across every |disc| <= 2000
        rng = random.Random(77)
        for disc in range(-3, -2001, -1):
            if disc % 4 not in (0, 1):
                continue
            for f in qform.enumerate_reduced(disc):
                for _ in range(3):
                    g = QuadForm(*apply_unimodular(f, *random_unimodular(rng)))
                    assert g.reduced() == f, (disc, f, g)


class TestEnumerate:
    def test_examples(self):
        assert form_set(-3) == {(1, 1, 1)}
        assert form_set(-4) == {(1, 0, 1)}
        assert form_set(-23) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_sorted_canonical_order(self):
        for disc in SMALL_DISCS:
            forms = qform.enumerate_reduced(disc)
            assert forms == sorted(forms)

    def test_against_brute_force(self):
        for disc in range(-3, -2001, -1):
            if disc % 4 in (0, 1):
                assert form_set(disc) == brute_reduced_forms(disc), disc

    def test_count_matches_enumeration(self):
        for disc in range(-3, -2001, -1):
            if disc % 4 in (0, 1):
                assert qform.count_reduced(disc) == len(qform.enumerate_reduced(disc))

    @staticmethod
    def assert_numpy_kernel_agrees(abs_d):
        # the numpy enumeration, and the head-and-tail count, against the
        # pure-int scan
        forms_np = qform.enumerate_reduced(-abs_d)
        assert forms_np == python_forms(abs_d), abs_d
        assert qform.count_reduced(-abs_d) == python_count(abs_d) == len(forms_np), abs_d

    def test_numpy_kernel_agrees_with_python(self):
        for abs_d in (
            # straddle the table's top and the numpy route's old threshold
            qform._TABLE_TOP,
            qform._TABLE_TOP + 3,
            1 << 18,
            (1 << 18) + 3,
            300_000,
            299_999,
            # -262672 is a non-residue modulo every odd p <= 31: few a survive
            262_672,
            # 4*3*5*7*11*13*17*19: every small odd p ramifies, none is filtered
            19_399_380,
            # 9 * 100003: non-fundamental, 3^2 divides the discriminant
            900_027,
        ):
            self.assert_numpy_kernel_agrees(abs_d)

    # a seeded sample of |disc| in [2^18, 1e7], 15 of each class mod 4; 2^18
    # was the numpy route's threshold when the sample was drawn
    KERNEL_SAMPLE = [
        4 * k + r
        for r in (0, 3)
        for k in random.Random(20 + r).sample(range((1 << 18) // 4, 10**7 // 4), 15)
    ]

    @pytest.mark.parametrize("abs_d", KERNEL_SAMPLE)
    def test_numpy_kernel_agrees_with_python_on_a_sample(self, abs_d):
        self.assert_numpy_kernel_agrees(abs_d)

    # a seeded sample of |disc| in [2000, 2^16), below the table's top, where
    # the count reads the table and the forms come from the numpy scan; 20 of
    # each class mod 4
    SMALL_SAMPLE = [
        4 * k + r
        for r in (0, 3)
        for k in random.Random(80 + r).sample(range(2000 // 4, (1 << 16) // 4), 20)
    ]

    @pytest.mark.parametrize("abs_d", SMALL_SAMPLE)
    def test_against_brute_force_below_the_table_top(self, abs_d):
        assert form_set(-abs_d) == brute_reduced_forms(-abs_d), abs_d
        self.assert_numpy_kernel_agrees(abs_d)

    # 2^16 - 4 and 2^16 + 4 straddle the table's top.  In the others
    # a_max = isqrt(|disc| / 3) ends a block (127, 255) or is the only a of
    # the last one (128, 256), and (a_max, b, a_max) is a reduced form.
    @pytest.mark.parametrize(
        "abs_d,at_a_max",
        [((1 << 16) - 4, False), ((1 << 16) + 4, False)]
        + [(x, True) for x in (48_891, 49_911, 196_091, 198_135)],
    )
    def test_stream_across_block_edges(self, abs_d, at_a_max):
        disc = -abs_d
        forms = list(qform.reduced_forms(disc))
        assert qform.enumerate_reduced(disc) == forms, abs_d
        assert forms == python_forms(abs_d) == sorted(forms), abs_d
        assert {(f.a, f.b, f.c) for f in forms} == brute_reduced_forms(disc), abs_d
        assert len(forms) == qform.count_reduced(disc) == python_count(abs_d), abs_d
        last = forms[-1]
        assert last.a >= 64, abs_d  # more than one block
        assert not at_a_max or last.a == last.c == math.isqrt(abs_d // 3), abs_d

    # |disc| above DEFAULT_DISC_CAP, both classes mod 4: just below 2^30,
    # the int32 cells at their largest; just above, the int64 cells; and
    # 1.7e9, above 3 * 2^31 / 4, where b^2 + |disc| outgrows int32 as b nears
    # a_max.  The 40 a from a_min keep b^2 + |disc| near 5|disc|/4, under
    # 2^31 even at 1.7e9; the 400 a up to a_max take b to a_max, and there
    # int32 cells would lose every form at 1.7e9.
    @pytest.mark.parametrize(
        "abs_d", [(1 << 30) - 4, (1 << 30) - 1, (1 << 30) + 4, (1 << 30) + 3, 1_700_000_000, 1_700_000_003]
    )
    @pytest.mark.parametrize("end", ["a_min", "a_max"])
    def test_tail_slices_at_the_cell_bounds(self, abs_d, end):
        a_max = math.isqrt(abs_d // 3)
        a_min = math.isqrt(abs_d - 1) // 2 + 1
        lo, hi = (a_min, a_min + 39) if end == "a_min" else (a_max - 399, a_max)
        expected = []
        for a, b, c in divisor_pairs(abs_d, lo, hi):
            if math.gcd(a, b, c) == 1:
                expected.append((a, b, c))
                if 0 < b < a < c:
                    expected.append((a, -b, c))
        assert expected, (abs_d, end)
        roots = qform._root_counts(abs_d, a_max)
        assert sorted(qform._forms(abs_d, roots, lo, hi)) == sorted(expected), (abs_d, end)

    def test_residue_filter(self):
        def usable(abs_d, a_max):
            return np.flatnonzero(qform._root_counts(abs_d, a_max)).tolist()

        # -262672 is a non-residue modulo every odd prime up to 31
        inert = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        assert all(a % p for a in usable(262_672, 295) for p in inert)
        # every odd prime up to 19 divides 19399380 once: none of them is
        # filtered, but 9 is, as b^2 = disc (mod 36) has no primitive root
        assert {3, 5, 7, 11, 13, 15, 17, 19} <= set(usable(19_399_380, 2542))
        assert 9 not in usable(19_399_380, 2542)
        # |disc| = 3 (mod 8): every (b^2 + |disc|)/4 is odd
        assert all(a % 2 for a in usable(10**6 + 3, 577))

    @pytest.mark.parametrize("lo", [10_000_003, 10_000_000, 90_000_003, 90_000_000])
    def test_count_matches_the_windowed_sieve(self, lo, monkeypatch):
        # the windowed sieve generates the table below 2^16 only, and a sieve
        # this high would take gigabytes, so the independent route here is
        # the full enumeration, which scans every a where the count sums the
        # head's root counts
        monkeypatch.setattr(qform, "_class_numbers", no_table)
        for disc in (-lo, -(lo + 4)):
            assert qform.count_reduced(disc) == len(qform.enumerate_reduced(disc)), disc

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            qform.enumerate_reduced(-10**9, max_disc=10**8)

    @pytest.mark.parametrize("abs_d", [1 << 61, (1 << 61) + 3, 10**30])
    def test_nothing_counted_from_2_to_the_61(self, abs_d):
        # whatever max_disc allows, (b^2 + |disc|)/4 would outgrow int64
        for route in (qform.count_reduced, qform.enumerate_reduced):
            with pytest.raises(ResourceCapError, match="2\\^61"):
                route(-abs_d, max_disc=1 << 62 if abs_d < 1 << 62 else abs_d)
        with pytest.raises(ResourceCapError):
            next(qform.reduced_forms(-abs_d, max_disc=abs_d))

    def test_invalid_disc(self):
        with pytest.raises(InputError):
            qform.enumerate_reduced(-5)
        with pytest.raises(InputError):
            qform.enumerate_reduced(4)


def python_count(abs_d):
    """count_reduced(-abs_d) by the pure-int divisor-pair scan over every a."""
    pairs = divisor_pairs(abs_d, 1, math.isqrt(abs_d // 3))
    return sum(2 if 0 < b < a < c else 1 for a, b, c in pairs if math.gcd(a, b, c) == 1)


def python_forms(abs_d):
    """enumerate_reduced(-abs_d) by the pure-int divisor-pair scan over every
    a: a primitive pair gives (a, b, c), and (a, -b, c) too when 0 < b < a < c."""
    triples = []
    for a, b, c in divisor_pairs(abs_d, 1, math.isqrt(abs_d // 3)):
        if math.gcd(a, b, c) == 1:
            triples.append((a, b, c))
            if 0 < b < a < c:
                triples.append((a, -b, c))
    return [QuadForm(*t) for t in sorted(triples)]


def no_table():
    raise AssertionError("the table was read")


def brute_root_count(abs_d, a):
    """N(a) by its definition: the b mod 2a with b^2 = -abs_d (mod 4a) and
    gcd(a, b, c) = 1."""
    return sum(
        1
        for b in range(2 * a)
        if (b * b + abs_d) % (4 * a) == 0 and math.gcd(a, b, (b * b + abs_d) // (4 * a)) == 1
    )


class TestHeadCount:
    """count_reduced above the threshold sums the root counts N(a) over the
    head 4a^2 < |disc| and scans only the tail; it must agree with the
    pure-int scan and with len(enumerate_reduced), which scans every a."""

    @staticmethod
    def assert_agrees(abs_d, python=True):
        count = qform.count_reduced(-abs_d)
        assert count == len(qform.enumerate_reduced(-abs_d)), abs_d
        if python:
            assert count == python_count(abs_d), abs_d

    def test_every_disc_in_a_range_above_the_threshold(self):
        lo = qform._TABLE_TOP
        values = [x for x in range(lo, lo + 20_000) if x % 4 in (0, 3)]
        # |disc| = 3 and 7 (mod 8), and 4, 8, 12 and 0 (mod 16), all present
        assert {x % 8 for x in values if x % 2} == {3, 7}
        assert {x % 16 for x in values if x % 2 == 0} == {0, 4, 8, 12}
        # one windowed sieve counts both classes mod 4
        counts = window_counts(lo, lo + 19_999)
        for x in values:
            assert qform.count_reduced(-x) == counts[x - lo] == python_count(x), x
        for x in values[::25]:
            assert qform.count_reduced(-x) == len(qform.enumerate_reduced(-x)), x

    # a seeded sample of |disc| up to 1e8, 10 of each class mod 8 that occurs
    HEAD_SAMPLE = [
        8 * k + r
        for r in (0, 3, 4, 7)
        for k in random.Random(40 + r).sample(range((1 << 16) // 8, 10**8 // 8), 10)
    ]

    @pytest.mark.parametrize("abs_d", HEAD_SAMPLE)
    def test_seeded_sample_up_to_1e8(self, abs_d):
        self.assert_agrees(abs_d, python=abs_d < 3 * 10**6)

    # fundamental D0 of each class mod 8, and -3 and -4
    NON_FUNDAMENTAL_D0 = (3, 4, 7, 8, 15, 20, 23, 24, 104, 163, 1003, 20_003, 99_995, 400_004)

    @pytest.mark.parametrize("f", [2, 3, 4, 6, 9, 25, 60])
    def test_non_fundamental(self, f):
        # f^2 D0 for each D0
        for d0 in self.NON_FUNDAMENTAL_D0:
            if qform._TABLE_TOP <= f * f * d0 <= 10**8:
                self.assert_agrees(f * f * d0, python=f * f * d0 < 3 * 10**6)

    def test_every_small_odd_prime_ramified(self):
        # 4*3*5*7*11*13*17*19 = 4 (mod 16): fundamental at every ramified
        # prime, so each L_p is one strided write
        self.assert_agrees(19_399_380, python=False)

    @pytest.mark.parametrize("k", [128, 129, 1000, 2048, 4999, 5000])
    def test_four_k_squared(self, k):
        # 4a^2 = |disc| at a = k, the least a of the tail
        assert math.isqrt(4 * k * k - 1) // 2 == k - 1
        self.assert_agrees(4 * k * k, python=k <= 1000)

    @pytest.mark.parametrize(
        "abs_d",
        [65_539, 262_672, 1_000_003, 19_399_380, 2**4 * 3**5 * 7**2, 2**11 * 3**3 * 5, 4 * 99_991],
    )
    def test_root_counts_by_definition(self, abs_d):
        roots = qform._root_counts(abs_d, 300)
        assert roots[0] == 0
        assert roots[1:].tolist() == [brute_root_count(abs_d, a) for a in range(1, 301)]

    def test_primes_past_the_trial_division_bound(self, monkeypatch):
        # with a prime table that stops at 100, a_max = 577 needs primes past
        # it; a count that skipped them would treat each as neutral
        discs = [10**6 + 3, 10**6 + 7, 10**6, 10**6 + 4, 998_284]
        expected = [qform.count_reduced(-x) for x in discs]
        short = np.array([p for p in range(2, 100) if intmath.is_prime(p)])
        monkeypatch.setattr(intmath, "TRIAL_DIVISION_BOUND", 100)
        monkeypatch.setattr(intmath, "_small_prime_array", lambda: short)
        qform._root_counts.cache_clear()  # else the last disc's array is reused
        assert intmath.primes_through(577)[-1] == 577
        assert [qform.count_reduced(-x) for x in discs] == expected


def tail_by_oracle(abs_d):
    """The tail's form count, a_min <= a <= a_max, from the pure-int
    divisor-pair scan: a primitive pair counts twice when 0 < b < a < c."""
    a_min, a_max = math.isqrt(abs_d - 1) // 2 + 1, math.isqrt(abs_d // 3)
    pairs = list(divisor_pairs(abs_d, a_min, a_max))
    count = sum(2 if 0 < b < a < c else 1 for a, b, c in pairs if math.gcd(a, b, c) == 1)
    return count, pairs


def boundary_discs(seed, shape, count):
    """count seeded |disc| in [2^16, 1e8] with a primitive tail pair of the
    given shape: b = a, |disc| = a(4c - a) with c <= 5a/4, or a = c,
    |disc| = 4a^2 - b^2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randrange(150, 5_000)
        if shape == "b = a":
            c = rng.randrange(a, 5 * a // 4 + 1)
            abs_d, triple = a * (4 * c - a), (a, a, c)
        else:
            b = rng.randrange(0, a)
            abs_d, triple = 4 * a * a - b * b, (a, b, a)
        if 1 << 16 <= abs_d <= 10**8 and math.gcd(*triple) == 1:
            out.append((abs_d, triple))
    return out


class TestTailPairs:
    """count_reduced's tail from 2^16 up, counted by pairs of candidates
    (a, c), against the divisor-pair oracle and against ``_forms``, the scan
    of (b, a) cells that the form stream uses."""

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_edges(self, monkeypatch, block):
        discs = TestHeadCount.HEAD_SAMPLE[::4] + [
            f * f * d0
            for f in (2, 3, 4, 6, 9, 25, 60)
            for d0 in TestHeadCount.NON_FUNDAMENTAL_D0
            if qform._TABLE_TOP <= f * f * d0 <= 10**8
        ]
        monkeypatch.setattr(qform, "_PAIR_BLOCK", block)
        for abs_d in discs:
            assert qform.count_reduced(-abs_d) == len(qform.enumerate_reduced(-abs_d)), abs_d

    @pytest.mark.parametrize(
        "abs_d,triple",
        # b = 0: only (k, 0, k) at |disc| = 4k^2, imprimitive, which the gcd drops
        [(4 * k * k, (k, 0, k)) for k in (128, 1999, 5000)]
        + boundary_discs(91, "b = a", 4)
        + boundary_discs(92, "a = c", 4)
        # a = c = a_max, the last row: (a, a - 1, a) at |disc| = 3a^2 + 2a - 1
        + [(3 * a * a + 2 * a - 1, (a, a - 1, a)) for a in (1500, 4999)],
    )
    def test_boundary_forms(self, abs_d, triple):
        expected, pairs = tail_by_oracle(abs_d)
        assert triple in pairs, abs_d
        assert triple[0] <= math.isqrt(abs_d // 3), abs_d
        a_min, c_top = qform._tail_start(abs_d)
        roots = qform._root_counts(abs_d, c_top)
        assert qform._tail_count(abs_d, roots, a_min, math.isqrt(abs_d // 3)) == expected, abs_d
        assert qform.count_reduced(-abs_d) == int(roots[:a_min].sum()) + expected, abs_d

    @pytest.mark.parametrize("abs_d", [10**10 + 3, 10**11 + 4])
    def test_raised_cap_against_the_scan(self, abs_d):
        # c_top passes _RESIDUE_TOP, so c's roots take intmath.kronecker
        a_min, c_top = qform._tail_start(abs_d)
        a_max = math.isqrt(abs_d // 3)
        assert qform._RESIDUE_TOP < a_max < c_top
        count = qform.count_reduced(-abs_d, max_disc=abs_d)
        roots = qform._root_counts(abs_d, c_top)
        tail = len(qform._forms(abs_d, roots, a_min, a_max))
        assert tail > 0
        assert count == int(roots[:a_min].sum()) + tail, abs_d

    def test_count_never_scans(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("_forms was called")

        discs = (1 << 16, 1_000_003, 99_999_971, 10**8)
        expected = [len(qform.enumerate_reduced(-x)) for x in discs]
        monkeypatch.setattr(qform, "_forms", no_scan)
        assert [qform.count_reduced(-x) for x in discs] == expected

    def test_group_structure_sieves_once(self):
        # its count and its form stream both sieve to c_top
        qform._root_counts.cache_clear()
        classgroup.group_structure(-4_873_699)
        assert qform._root_counts.cache_info().misses == 1


def residue_bits(table, off, p):
    """The bits of prime p's segment of the residue table, which starts at
    byte off, one per r < p."""
    segment = table[off : off + (p + 7) // 8]
    return np.unpackbits(segment, bitorder="little")[:p].tolist()


def spied_ramified(monkeypatch):
    """The primes that _apply_ramified is called for, in call order."""
    calls = []
    apply = qform._apply_ramified

    def record(roots, d, p):
        calls.append(p)
        apply(roots, d, p)

    monkeypatch.setattr(qform, "_apply_ramified", record)
    return calls


def seeded_fundamental(seed, residues, count):
    """count fundamental |disc| in [2^16, 1e8] per class |disc| mod 16 in residues."""
    rng = random.Random(seed)
    out = []
    for r in residues:
        found = []
        while len(found) < count:
            abs_d = 16 * rng.randrange((1 << 16) // 16, 10**8 // 16) + r
            if is_fundamental(-abs_d):
                found.append(abs_d)
        out += found
    return out


class TestResidueTable:
    """The bit-packed squares mod each prime that _root_counts reads its
    Legendre symbols from, and the ramified primes it handles without
    _apply_ramified."""

    def test_agrees_with_kronecker_at_every_residue(self):
        # the largest c of a tail form within the cap: (a_min^2 + cap) // 4a_min
        cap = qform.DEFAULT_DISC_CAP
        a_min = math.isqrt(cap - 1) // 2 + 1
        top = (a_min * a_min + cap) // (4 * a_min)
        assert top == qform._RESIDUE_TOP == 6250
        # c_top rises with |disc| while a_min stays, and the cap ends such a
        # run, 4 * 5000^2: no |disc| below it reaches further
        assert cap == 4 * a_min * a_min
        assert max(qform._tail_start(x)[1] for x in range(cap - 200_000, cap + 1)) == top
        assert max(qform._tail_start(4 * k * k)[1] for k in range(1, a_min + 1)) == top
        primes = intmath.primes_through(top).tolist()
        table = qform._residue_table()
        assert table.size == sum((p + 7) // 8 for p in primes)
        off = 0
        for p in primes:
            expected = [int(r == 0 or intmath.kronecker(r, p) == 1) for r in range(p)]
            assert residue_bits(table, off, p) == expected, p
            off += (p + 7) // 8

    def test_loaded_once(self):
        table = qform._residue_table()
        assert not table.flags.writeable
        primes = intmath.primes_through(qform._RESIDUE_TOP)
        assert (qform._RESIDUE_TOP, primes.size) == (6250, 812)
        assert table.size == qform._RESIDUE_BYTES == int(((primes + 7) // 8).sum())
        assert table.tobytes() == RESIDUES.read_bytes() == residue_table(qform._RESIDUE_TOP)
        assert hashlib.sha256(table.tobytes()).hexdigest() == qform._RESIDUE_SHA256
        assert qform._residue_table() is table

    # |disc| up to 1e8: 6 of each class mod 4 and 4 each of |disc| = 4 and 8
    # (mod 16), then p^2 | |disc| for p = 2, 3, 5, 7, and p || |disc| for odd
    # p with the rest of |disc| prime to p
    ORACLE_SAMPLE = (
        [4 * k + r for r in (0, 3) for k in random.Random(50 + r).sample(range(1 << 14, 25 * 10**6), 6)]
        + [16 * k + r for r in (4, 8) for k in random.Random(60 + r).sample(range(1 << 12, 10**8 // 16), 4)]
        + [p * p * m for p, m in ((2, 4 * 1_234_567), (2, 4_999_999), (3, 11_111_111), (5, 3_999_999),
                                  (7, 2_040_815), (3, 7 * 7 * 123_463))]
        + [3 * 1_000_001, 5 * 19_999_999, 7 * 13 * 17 * 10_009, 3 * 5 * 7 * 11 * 13 * 19 * 23]
    )

    @pytest.mark.parametrize("abs_d", ORACLE_SAMPLE)
    def test_root_counts_by_definition_up_to_1e8(self, abs_d):
        assert abs_d % 4 in (0, 3) and 1 << 16 <= abs_d <= 10**8
        a_max = math.isqrt(abs_d // 3)
        roots = qform._root_counts(abs_d, a_max)
        largest_prime = int(intmath.primes_through(a_max)[-1])
        rng = random.Random(abs_d)
        powers_of_two = [1 << k for k in range(7, a_max.bit_length())]
        for a in [*range(1, 121), *rng.sample(range(121, a_max + 1), 8), largest_prime, *powers_of_two]:
            assert roots[a] == brute_root_count(abs_d, a), (abs_d, a)

    def test_even_fundamental_at_two_by_definition(self):
        # |disc| = 4 or 8 (mod 16) below 6000: L_2 = (1, 0, 0, ...) at every a
        for abs_d in range(4, 6000, 4):
            if abs_d % 16 in (4, 8):
                a_max = math.isqrt(abs_d // 3)
                roots = qform._root_counts.__wrapped__(abs_d, a_max)
                assert roots[1:].tolist() == [brute_root_count(abs_d, a) for a in range(1, a_max + 1)], abs_d

    def test_primes_above_the_table_take_kronecker(self):
        # |disc| above DEFAULT_DISC_CAP: the primes in (_RESIDUE_TOP, a_max]
        abs_d = 120_000_007
        a_max = math.isqrt(abs_d // 3)
        roots = qform._root_counts(abs_d, a_max)
        assert qform._residue_table().size == qform._RESIDUE_BYTES and qform._RESIDUE_TOP < a_max
        beyond = [p for p in intmath.primes_through(a_max).tolist() if p > qform._RESIDUE_TOP]
        assert len(beyond) == 11  # 6257 to 6323
        for a in beyond:
            assert roots[a] == brute_root_count(abs_d, a), a

    @pytest.mark.parametrize(
        "abs_d, expected",
        [
            (3 * 5 * 7 * 11 * 13 * 17, []),
            (19_399_380, []),  # 4*3*5*7*11*13*17*19 = 4 (mod 16)
            (8 * 3 * 5 * 7 * 11 * 13 * 17, []),  # 8 (mod 16)
            (2**4 * 3**5 * 7**2, [2, 3, 7]),
            (5 * 5 * 7 * 11 * 11 * 13, [5, 11]),
            (4 * 11 * 11 * 100_003, [2, 11]),  # 12 (mod 16)
            (4 * 9 * 100_001, [3]),  # 4 (mod 16), with 3^2 || |disc|
            (4 * 1_000_003, [2]),  # 12 (mod 16), conductor 2
        ],
    )
    def test_apply_ramified_only_for_two_and_squared_primes(self, monkeypatch, abs_d, expected):
        calls = spied_ramified(monkeypatch)
        a_max = math.isqrt(abs_d // 3)
        roots = qform._root_counts.__wrapped__(abs_d, a_max)
        assert calls == expected
        a_top = min(a_max, 300)
        assert roots[1 : a_top + 1].tolist() == [brute_root_count(abs_d, a) for a in range(1, a_top + 1)]

    def test_no_apply_ramified_for_fundamental_discriminants(self, monkeypatch):
        # three of each odd class mod 16, and of |disc| = 4 and 8 (mod 16)
        sample = seeded_fundamental(70, (3, 7, 11, 15, 4, 8), 3)
        calls = spied_ramified(monkeypatch)
        for abs_d in sample:
            qform._root_counts.__wrapped__(abs_d, math.isqrt(abs_d // 3))
            assert calls == [], abs_d


class TestWindowedSieve:
    """oracles.window_counts, which generates count_reduced's table below
    2^16, and that table, against per-disc routes."""

    @staticmethod
    def window(lo, hi):
        counts = window_counts(lo, hi)
        assert not counts.flags.writeable
        # one pass counts both classes mod 4 and leaves the others at 0
        assert not any(counts[x - lo] for x in range(lo, hi + 1) if x % 4 in (1, 2))
        return {x: int(counts[x - lo]) for x in range(lo, hi + 1) if x % 4 in (0, 3)}

    @pytest.mark.parametrize("lo,hi", [(3, 599), (4, 600), (1003, 1403), (1500, 1900)])
    def test_matches_brute_force(self, lo, hi):
        for x, count in self.window(lo, hi).items():
            assert count == len(brute_reduced_forms(-x)), x

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (5_603, 5_999),
            (5_600, 6_000),
            # around the numpy form count's threshold, now and as it was
            (qform._TABLE_TOP - 201, qform._TABLE_TOP + 199),
            (qform._TABLE_TOP - 200, qform._TABLE_TOP + 200),
            ((1 << 18) - 201, (1 << 18) + 199),
            ((1 << 18) - 200, (1 << 18) + 200),
            (999_903, 1_000_103),
            (1_000_000, 1_000_200),
            (3_999_903, 4_000_027),
            (4_000_000, 4_000_124),
        ],
    )
    def test_matches_count_reduced(self, lo, hi):
        got = self.window(lo, hi)
        # non-fundamental discriminants are counted too
        assert any(x % 9 == 0 or x % 16 in (0, 12) for x in got)
        for x, count in got.items():
            assert count == qform.count_reduced(-x), x

    def test_steps_c_in_windows_wider_than_4a(self):
        # a single X, and a window wide enough that small a take several c
        assert self.window(300_007, 300_007) == {300_007: qform.count_reduced(-300_007)}
        for x, count in self.window(300_000, 302_000).items():
            if x % 100 == 0:
                assert count == qform.count_reduced(-x), x

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (3, 600),
            (4, 600),
            (19_801, 20_200),  # mid-table, across the block edge at 19,968
            (qform._TABLE_TOP - 400, qform._TABLE_TOP - 1),
            ((1 << 18) - 400, (1 << 18) - 1),
        ],
    )
    def test_sieved_small_windows_match_count_reduced(self, lo, hi):
        # below 2^16 count_reduced reads the table, generated in blocks that
        # start elsewhere than these windows; from 2^16 on it counts on its own
        for x, count in self.window(lo, hi).items():
            assert count == qform.count_reduced(-x) == python_count(x), x

    def test_sieved_counts_split_by_class(self):
        got = self.window(60_000, 60_007)
        assert sorted(got) == [60_000, 60_003, 60_004, 60_007]
        assert got == {x: qform.count_reduced(-x) for x in got}

    def test_sieved_rejects_bad_discriminants(self, monkeypatch):
        # bad input and caps are refused before the table is read
        monkeypatch.setattr(qform, "_class_numbers", no_table)
        with pytest.raises(InputError):
            qform.count_reduced(-65_533)
        with pytest.raises(InputError):
            qform.count_reduced(4)
        with pytest.raises(ResourceCapError):
            qform.count_reduced(-60_003, max_disc=60_000)

    # the last two values of both classes before every multiple of 256 and
    # the first two from it: the seams of the 256-value blocks that generate
    # the table
    EDGES = sorted(
        x
        for k in range(0, 1 << 16, 256)
        for x in range(k - 8, k + 8)
        if 3 <= x < 1 << 16 and x % 4 in (0, 3)
    )

    def test_table_at_the_block_edges(self):
        assert {x - x % 256 for x in self.EDGES} == set(range(0, 1 << 16, 256))
        for x in self.EDGES:
            assert qform.count_reduced(-x) == python_count(x), x

    def test_table_at_its_top(self, table_reads):
        top = qform._TABLE_TOP
        for x in range(top - 4, top):
            if x % 4 in (0, 3):
                assert qform.count_reduced(-x) == python_count(x), x
        # 65532 and 65535, the table's last two entries
        assert table_reads == [top // 2 - 2, top // 2 - 1]
        # 2^16 itself is counted on its own
        assert qform.count_reduced(-top) == python_count(top)
        assert table_reads == [top // 2 - 2, top // 2 - 1]

    # a seeded sample of |disc| in [20000, 2^16), the table's upper part,
    # 100 of each class mod 4
    TABLE_SAMPLE = [
        4 * k + r
        for r in (0, 3)
        for k in random.Random(60 + r).sample(range(20_000 // 4, (1 << 16) // 4), 100)
    ]

    def test_table_on_a_seeded_sample(self):
        for x in self.TABLE_SAMPLE:
            assert qform.count_reduced(-x) == python_count(x) == len(qform.enumerate_reduced(-x)), x

    def test_table_file_is_read_once(self):
        qform._class_numbers.cache_clear()
        for x in (65_532, 65_535, 65_283, 65_280, 3, 255):
            qform.count_reduced(-x)
        info = qform._class_numbers.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        table = qform._class_numbers()
        assert not table.flags.writeable
        assert table.dtype == np.dtype("<u2") and table.size == (1 << 16) // 2


class TestIdentityInverse:
    def test_identity_values(self):
        assert qform.identity_form(-4) == QuadForm(1, 0, 1)
        assert qform.identity_form(-23) == QuadForm(1, 1, 6)
        assert qform.identity_form(-8) == QuadForm(1, 0, 2)

    def test_inverse_examples(self):
        assert QuadForm(1, 0, 1).inverse() == QuadForm(1, 0, 1)
        assert QuadForm(2, 1, 3).inverse() == QuadForm(2, -1, 3)
        assert QuadForm(1, 1, 6).inverse() == QuadForm(1, 1, 6)

    def test_inverse_composes_to_identity(self):
        for disc in SMALL_DISCS:
            ident = qform.identity_form(disc)
            for f in qform.enumerate_reduced(disc):
                assert f.compose(f.inverse()) == ident


class TestCompose:
    def test_identity_neutral(self):
        for disc in SMALL_DISCS:
            ident = qform.identity_form(disc)
            for f in qform.enumerate_reduced(disc):
                assert ident.compose(f) == f
                assert f.compose(ident) == f

    def test_inverse_pair_example(self):
        assert QuadForm(2, 1, 3).compose(QuadForm(2, -1, 3)) == QuadForm(1, 1, 6)

    def test_cyclic_order_three_example(self):
        f = QuadForm(2, 1, 3)
        assert f.compose(f) == QuadForm(2, -1, 3)
        assert f.compose(f).compose(f) == QuadForm(1, 1, 6)

    def test_discriminant_mismatch(self):
        with pytest.raises(InputError):
            QuadForm(1, 0, 1).compose(QuadForm(1, 1, 6))

    def test_builds_one_form(self, monkeypatch):
        # the composite is reduced on plain ints; only the output is built
        # and checked, and reduced() and inverse() build one form each
        f, g = QuadForm(5, -1, 243685), QuadForm(7, 3, 174061)  # disc -4873699
        unreduced, reduced = QuadForm(3, 5, 4), QuadForm(2, 1, 3)
        built = []
        post_init = QuadForm.__post_init__
        monkeypatch.setattr(
            QuadForm, "__post_init__", lambda form: built.append(form) or post_init(form)
        )
        assert f.compose(g) == QuadForm(35, -11, 34813)
        assert unreduced.reduced() == reduced
        assert reduced.inverse() == QuadForm(2, -1, 3)
        # the three outputs, and the two forms the asserts compare them with
        assert len(built) == 5

    def test_matches_dirichlet_composition_to_800(self):
        # every ordered pair of reduced forms at every discriminant down to
        # -800, fundamental or not; the pairs reach the swap a1 > a2, a1 | a2
        # with a1 > 1, and gcd(s, gcd(a1, a2)) < gcd(a1, a2)
        pairs, swapped, divides, partial = 0, 0, 0, 0
        for disc in range(-3, -801, -1):
            if disc % 4 not in (0, 1):
                continue
            forms = qform.enumerate_reduced(disc)
            for f, g in product(forms, repeat=2):
                assert f.compose(g) == dirichlet_compose(f, g), (f, g)
                pairs += 1
                d = math.gcd(f.a, g.a)
                swapped += f.a > g.a
                divides += 1 < f.a < g.a and g.a % f.a == 0
                partial += math.gcd((f.b + g.b) // 2, d) < d
        assert pairs == 36978
        assert swapped and divides and partial

    def test_group_laws_full_tables(self):
        for disc in (-23, -84, -104, -120):
            forms = qform.enumerate_reduced(disc)
            fset = set(forms)
            for f, g in product(forms, repeat=2):
                fg = f.compose(g)
                assert fg in fset  # closure
                assert fg == g.compose(f)  # commutativity
            for f, g, h in product(forms, repeat=3):
                assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_well_defined_on_classes(self):
        rng = random.Random(99)
        for disc in (-23, -84, -104):
            forms = qform.enumerate_reduced(disc)
            for _ in range(40):
                f, g = rng.choice(forms), rng.choice(forms)
                fa = QuadForm(*apply_unimodular(f, *random_unimodular(rng)))
                ga = QuadForm(*apply_unimodular(g, *random_unimodular(rng)))
                assert fa.compose(ga) == f.compose(g)
        # compose takes unreduced forms as they are: every 7th discriminant
        # down to -3000, fundamental or not
        discs = [d for d in range(-3, -3001, -1) if d % 4 in (0, 1)][::7]
        for disc in discs:
            forms = qform.enumerate_reduced(disc)
            for _ in range(10):
                f, g = rng.choice(forms), rng.choice(forms)
                fa = QuadForm(*apply_unimodular(f, *random_unimodular(rng)))
                ga = QuadForm(*apply_unimodular(g, *random_unimodular(rng)))
                assert fa.compose(ga) == f.compose(g), (disc, fa, ga)


class TestPower:
    def test_zero_gives_identity(self):
        assert QuadForm(2, 1, 3).power(0) == qform.identity_form(-23)

    def test_order_three(self):
        assert QuadForm(2, 1, 3).power(3) == QuadForm(1, 1, 6)

    def test_square_consistency(self):
        f = QuadForm(2, 1, 3)
        assert f.power(2) == f.compose(f)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            QuadForm(2, 1, 3).power(-1)

    @given(st.integers(0, 50))
    def test_matches_repeated_composition(self, k):
        f = QuadForm(3, 2, 9)  # order 6 class at disc -104
        expected = qform.identity_form(-104)
        for _ in range(k):
            expected = expected.compose(f)
        assert f.power(k) == expected

    @pytest.mark.parametrize("k,compositions", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (552, 11)])
    def test_no_composition_with_the_identity(self, monkeypatch, k, compositions):
        # squarings, bit_length(k) - 1, and multiplications, popcount(k) - 1
        calls = 0
        compose = QuadForm.compose

        def counted(f, g):
            nonlocal calls
            calls += 1
            return compose(f, g)

        f = QuadForm(5, -1, 243685)  # a generator at disc -4873699, h = 552
        expected = f.power(k)
        monkeypatch.setattr(QuadForm, "compose", counted)
        assert f.power(k) == expected
        assert calls == compositions


class TestPrimeForm:
    def test_split_at_two(self):
        assert qform.prime_form(-23, 2) == QuadForm(2, 1, 3)

    def test_unreduced_output_allowed(self):
        f = qform.prime_form(-4, 5)
        assert f == QuadForm(5, 4, 1)
        assert f.reduced() == QuadForm(1, 0, 1)

    def test_inert(self):
        assert qform.prime_form(-8, 5) is None
        assert qform.prime_form(-23, 5) is None  # kronecker(-23, 5) = -1

    def test_contract_fields(self):
        for disc in SMALL_DISCS:
            for q in (2, 3, 5, 7, 11, 13):
                f = qform.prime_form(disc, q)
                if f is None:
                    from quadclass import intmath

                    assert intmath.kronecker(disc, q) == -1
                    continue
                assert f.a == q
                assert 0 <= f.b < 2 * q
                assert f.discriminant == disc

    def test_ramified(self):
        f = qform.prime_form(-23, 23)
        assert f is not None and f.a == 23 and f.b % 23 == 0

    def test_composite_q_rejected(self):
        for q in (-3, 0, 1, 4, 6, 9, 15):
            with pytest.raises(InputError, match=rf"^q must be prime, got {q}$"):
                qform.prime_form(-23, q)

    def test_odd_q_is_tested_for_primality_once(self, monkeypatch):
        tested = []
        is_prime = intmath.is_prime
        monkeypatch.setattr(intmath, "is_prime", lambda n: tested.append(n) or is_prime(n))
        for q in (3, 5, 23, 9, 15):
            tested.clear()
            try:
                qform.prime_form(-23, q)
            except InputError:
                assert q in (9, 15)
            assert tested == [q]

    def test_smallest_root_against_the_oracle(self):
        # every disc in [-3000, -3] and prime q <= 60: the smallest B in
        # [0, 2q) with B^2 = disc (mod 4q), None without one, InputError
        # when the form (q, B, C) is not primitive
        primes = [q for q in range(2, 61) if intmath.is_prime(q)]
        seen = set()
        for disc in range(-3, -3001, -1):
            if disc % 4 not in (0, 1):
                continue
            for q in primes:
                try:
                    expected = brute_prime_form(disc, q)
                except InputError:
                    with pytest.raises(InputError):
                        qform.prime_form(disc, q)
                    seen.add("imprimitive")
                    continue
                f = qform.prime_form(disc, q)
                if expected is None:
                    assert f is None, (disc, q)
                    seen.add("inert")
                else:
                    assert (f.a, f.b, f.c) == expected, (disc, q)
                    seen.add("odd B" if f.b % 2 else "even B")
        assert seen == {"imprimitive", "inert", "odd B", "even B"}


if __name__ == "__main__":
    RESIDUES.write_bytes(residue_table(qform._RESIDUE_TOP))
