import math
import random
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from quadclass import intmath
from quadclass.errors import InputError, ResourceCapError

from oracles import brute_legendre, trial_factor


class TestIsPrime:
    def test_examples(self):
        assert not intmath.is_prime(1)
        assert not intmath.is_prime(0)
        assert not intmath.is_prime(-7)
        assert intmath.is_prime(5701)
        assert not intmath.is_prime(210937)  # 37 * 5701

    def test_agrees_with_sieve_below_2e5(self):
        bound = 200_000
        sieve = bytearray([1]) * bound
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(bound - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        for n in range(bound):
            assert intmath.is_prime(n) == bool(sieve[n]), n

    def test_sampled_agreement_to_1e6(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randrange(2, 10**6)
            expected = all(n % p for p in range(2, math.isqrt(n) + 1))
            assert intmath.is_prime(n) == expected, n

    def test_big_primes(self):
        # 2^89 - 1 is a Mersenne prime; 2^87 - 1 is composite.
        assert intmath.is_prime(2**89 - 1)
        assert not intmath.is_prime(2**87 - 1)


class TestFactor:
    def test_one(self):
        f = intmath.factor(1)
        assert f.factors == () and f.sign == 1

    def test_negative(self):
        f = intmath.factor(-242)
        assert f.sign == -1 and f.factors == ((2, 1), (11, 2))

    def test_example(self):
        assert intmath.factor(421874).factors == ((2, 1), (37, 1), (5701, 1))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            intmath.factor(0)

    def test_budget_exhaustion_names_cofactor(self):
        # product of two ~38-bit primes; rho gets no iterations at all
        n = 274877906899 * 274877906951
        with pytest.raises(ResourceCapError) as exc:
            intmath.factor(n, budget=0)
        assert str(n) in str(exc.value)
        assert exc.value.detail == n

    def test_long_cofactor_message_is_bounded(self, monkeypatch):
        # 10^4300 - 1 keeps a composite cofactor of about 4290 digits after
        # trial division.  One Miller-Rabin round takes seconds to show that
        # it is composite, so the test gives that answer directly.
        monkeypatch.setattr(intmath, "is_prime", lambda v: False)
        with pytest.raises(ResourceCapError) as exc:
            intmath.factor(10**4300 - 1, budget=10)
        v = exc.value.detail
        message = str(exc.value)
        assert v.bit_length() > 14000
        assert len(message) < 120
        assert "unfactored cofactor" in message
        assert f"{v.bit_length()} bits" in message
        assert message.endswith(f"{v % 10**12:012d}")

    def test_budget_bounds_the_primality_test(self):
        # the same number, unstubbed: one Miller-Rabin round on its cofactor
        # takes seconds, so the budget must refuse the test before it runs
        start = time.perf_counter()
        with pytest.raises(ResourceCapError) as exc:
            intmath.factor(10**4300 - 1, budget=10)
        assert time.perf_counter() - start < 2
        assert "factoring budget exhausted; unfactored cofactor of 14101 bits" in str(exc.value)

    def test_primality_test_is_charged_its_worst_case(self):
        # 2^127 - 1 is prime and above the deterministic Miller-Rabin limit:
        # 52 rounds of 127 * 2 units
        p = 2**127 - 1
        cost = 52 * 127 * 2
        assert intmath.factor(p, budget=cost, use_cache=False).factors == ((p, 1),)
        with pytest.raises(ResourceCapError) as exc:
            intmath.factor(p, budget=cost - 1, use_cache=False)
        assert exc.value.detail == p
        # below the limit a prime cofactor costs nothing
        q = 2**61 - 1
        assert intmath.factor(q, budget=0, use_cache=False).factors == ((q, 1),)

    @pytest.mark.parametrize("v", [10**60 - 1, 10**60, 1 - 10**60, -(10**60)])
    def test_cofactor_printed_in_full_up_to_60_digits(self, v):
        text = intmath._cofactor_text(v)
        assert (text == str(v)) == (abs(v) < 10**60)
        assert text.startswith("negative") == (v <= -(10**60))
        assert len(text) < 70

    def test_rho_path(self):
        # composite with no factor below the trial-division bound
        p, q = 1000003, 1000033
        f = intmath.factor(p * q, budget=10**7)
        assert f.factors == ((p, 1), (q, 1))

    @pytest.mark.parametrize("q", [100_003, 999_983, 1_000_003, 2**31 - 1, 9_999_999_967])
    @pytest.mark.parametrize("s", [1, -2, 12, 99_991, 2**10 * 3**3])
    def test_prime_cofactor_above_the_trial_bound(self, s, q):
        assert intmath.is_prime(q)
        f = intmath.factor(s * q, use_cache=False)
        assert list(f.factors) == trial_factor(s * q)
        assert f.sign == (1 if s > 0 else -1)

    @given(st.integers(-(10**9) + 1, 10**9 - 1).filter(lambda n: n != 0))
    def test_below_1e9_needs_no_primality_test_or_rng(self, n):
        # trial division reaches p^2 > cofactor, so what is left is prime
        def unused(*args):
            raise AssertionError("not needed below 10^9")

        with mock.patch.object(intmath, "is_prime", unused), \
                mock.patch.object(intmath, "random", SimpleNamespace(Random=unused)):
            f = intmath.factor(n, use_cache=False)
        assert list(f.factors) == trial_factor(n)

    @given(st.integers(-10**9, 10**9).filter(lambda n: n != 0))
    def test_reassembles_and_primes_certified(self, n):
        f = intmath.factor(n)
        value = f.sign
        prev = 0
        for p, e in f.factors:
            assert p > prev
            prev = p
            assert intmath.is_prime(p)
            value *= p**e
        assert value == n

    @given(st.integers(-(10**6), 10**6).filter(lambda n: n != 0))
    def test_matches_trial_division(self, n):
        f = intmath.factor(n)
        assert list(f.factors) == trial_factor(n)
        assert f.sign == (1 if n > 0 else -1)


class TestSquarefreePart:
    def test_examples(self):
        assert intmath.squarefree_part(12) == intmath.SquarefreeDecomp(3, 2)
        assert intmath.squarefree_part(-121) == intmath.SquarefreeDecomp(-1, 11)
        # the x^2 - y^n shapes: 4 - 5^3 and 1 - 5^3
        assert intmath.squarefree_part(4 - 5**3) == intmath.SquarefreeDecomp(-1, 11)
        assert intmath.squarefree_part(1 - 5**3) == intmath.SquarefreeDecomp(-31, 2)

    @given(st.integers(-10**9, 10**9).filter(lambda n: n != 0))
    def test_decomposition_invariants(self, n):
        dec = intmath.squarefree_part(n)
        assert dec.d * dec.t * dec.t == n
        assert dec.t >= 1
        assert (dec.d > 0) == (n > 0)
        for p, e in intmath.factor(dec.d).factors:
            assert e == 1


class TestFundamentalDiscriminant:
    @pytest.mark.parametrize("d,expected", [(-23, -23), (-1, -4), (-2, -8), (-7, -7), (-163, -163)])
    def test_values(self, d, expected):
        assert intmath.field_discriminant(d) == expected


class TestSqrtModPrime:
    def test_zero(self):
        assert intmath.sqrt_mod_prime(0, 7) == 0

    def test_unit(self):
        r = intmath.sqrt_mod_prime(1, 23)
        assert r in (1, 22) and r * r % 23 == 1

    def test_small(self):
        assert intmath.sqrt_mod_prime(-23, 3) == 1

    def test_rejects_composite_and_even(self):
        with pytest.raises(InputError):
            intmath.sqrt_mod_prime(3, 15)
        with pytest.raises(InputError):
            intmath.sqrt_mod_prime(3, 2)

    def test_exhaustive_agreement_small_primes(self):
        primes = [p for p in range(3, 200) if intmath.is_prime(p)]
        for p in primes:
            for a in range(p):
                r = intmath.sqrt_mod_prime(a, p)
                if brute_legendre(a, p) == -1:
                    assert r is None, (a, p)
                else:
                    assert r is not None and r * r % p == a % p, (a, p)


class TestKronecker:
    def test_bottom_one(self):
        for a in range(-10, 11):
            assert intmath.kronecker(a, 1) == 1

    def test_minus23_at_2(self):
        assert intmath.kronecker(-23, 2) == 1  # -23 = 1 mod 8

    def test_prime_agreement_with_legendre(self):
        primes = [p for p in range(3, 200) if intmath.is_prime(p)]
        for p in primes:
            for a in range(-2 * p, 2 * p + 1):
                assert intmath.kronecker(a, p) == brute_legendre(a, p), (a, p)

    def test_at_two(self):
        for a in range(-40, 41):
            if a % 2 == 0:
                expected = 0
            elif a % 8 in (1, 7):
                expected = 1
            else:
                expected = -1
            assert intmath.kronecker(a, 2) == expected, a

    def test_bottom_zero(self):
        assert intmath.kronecker(1, 0) == 1
        assert intmath.kronecker(-1, 0) == 1
        assert intmath.kronecker(5, 0) == 0

    @given(
        st.integers(-300, 300),
        st.integers(-300, 300).filter(lambda n: n != 0),
        st.integers(-300, 300).filter(lambda n: n != 0),
    )
    def test_multiplicative_in_bottom(self, a, m, n):
        assert intmath.kronecker(a, m * n) == intmath.kronecker(a, m) * intmath.kronecker(a, n)

    @given(
        st.integers(-300, 300),
        st.integers(-300, 300),
        st.integers(-300, 300).filter(lambda n: n % 2 != 0 or n != 0),
    )
    def test_multiplicative_in_top(self, a, b, n):
        if n == 0:
            return
        assert intmath.kronecker(a * b, n) == intmath.kronecker(a, n) * intmath.kronecker(b, n)
