import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from quadclass import cache as result_cache
from quadclass import classgroup, intmath, qform
from quadclass.errors import InconsistencyError, InputError, ResourceCapError
from quadclass.qform import QuadForm

from oracles import brute_reduced_forms, invariant_factors_by_count, is_fundamental, trial_factor

HEEGNER = {-3, -4, -7, -8, -11, -19, -43, -67, -163}


def brute_analytic(disc):
    """Literal character sum; kronecker itself is tested against exhaustive
    Legendre tables, so this is an independent route to h."""
    abs_d = -disc
    total = sum(intmath.kronecker(disc, k) * k for k in range(1, abs_d))
    w = 6 if disc == -3 else 4 if disc == -4 else 2
    num = w * abs(total)
    assert num % (2 * abs_d) == 0
    return num // (2 * abs_d)


class TestClassNumberForms:
    @pytest.mark.parametrize("disc,h", [(-3, 1), (-23, 3), (-104, 6)])
    def test_examples(self, disc, h):
        assert classgroup.class_number_forms(disc) == h

    def test_equals_brute_enumeration(self):
        for disc in range(-3, -500, -1):
            if disc % 4 in (0, 1):
                assert classgroup.class_number_forms(disc) == len(brute_reduced_forms(disc))

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            classgroup.class_number_forms(-10**9, max_disc=10**8)


class TestClassNumberAnalytic:
    @pytest.mark.parametrize("disc,h", [(-4, 1), (-3, 1), (-23, 3), (-163, 1), (-104, 6)])
    def test_examples(self, disc, h):
        assert classgroup.class_number_analytic(disc) == h

    def test_cap(self):
        with pytest.raises(ResourceCapError, match="exceeds enumeration cap 100000000"):
            classgroup.class_number_analytic(-100000003)

    def test_rejects_non_fundamental(self):
        for disc in (
            -12,  # 4 * (-3)
            -100,
            -7 * 997**2,  # large odd square
            -8 * 3 * 997**2,  # odd square beside the 2-part 8
            -1000012,  # 4 mod 16
            -8 * 125002,  # 8 * m with m even
        ):
            with pytest.raises(InputError):
                classgroup.class_number_analytic(disc)
        for disc in range(-3, -1000, -1):
            if disc % 4 in (0, 1) and not is_fundamental(disc):
                with pytest.raises(InputError):
                    classgroup.class_number_analytic(disc)

    def test_matches_literal_sum(self):
        for disc in range(-3, -2000, -1):
            if disc % 4 in (0, 1) and is_fundamental(disc):
                assert classgroup.class_number_analytic(disc) == brute_analytic(disc), disc

    @pytest.mark.parametrize("step", [64, 97])
    def test_many_blocks(self, monkeypatch, step):
        # Short blocks start at lo > 0, so each table is entered at lo % p.
        monkeypatch.setattr(classgroup, "_STEP", step)
        for disc in range(-3, -5001, -1):
            if disc % 4 in (0, 1) and is_fundamental(disc):
                assert classgroup.class_number_analytic(disc) == qform.count_reduced(disc), disc

    @pytest.mark.parametrize(
        "disc",
        [
            -7, -23, -15, -255,  # chi(2) = 1, mu = 1 and mu >= 2
            -3, -19, -35, -1155,  # chi(2) = -1
            -4, -8, -20, -84,  # chi(2) = 0
        ],
    )
    def test_sum_off_by_one_raises(self, disc):
        h = qform.count_reduced(disc)
        chi2 = intmath.kronecker(disc, 2)
        mu = len(trial_factor(disc))
        w = 6 if disc == -3 else 4 if disc == -4 else 2
        total, rem = divmod(h * 2 * (2 - chi2), w)
        assert rem == 0
        assert classgroup._class_number_from_sum(disc, total, chi2, mu) == h
        for wrong in (total - 1, total + 1):
            with pytest.raises(InconsistencyError):
                classgroup._class_number_from_sum(disc, wrong, chi2, mu)

    @pytest.mark.parametrize("k", [3, 5])  # a residue and a non-residue of 23
    def test_wrong_table_raises(self, monkeypatch, k):
        build = classgroup._legendre_table

        def off_by_one(p):
            table = build(p).copy()
            table[k] = 0
            return table

        monkeypatch.setattr(classgroup, "_legendre_table", off_by_one)
        with pytest.raises(InconsistencyError):
            classgroup.class_number_analytic(-23)

    def test_genus_rule_holds_to_20000(self):
        # What the sum's self-check requires of h: 2^(mu-1) | h, h odd if mu = 1.
        for disc in range(-3, -20001, -1):
            if disc % 4 in (0, 1) and is_fundamental(disc):
                h = qform.count_reduced(disc)
                mu = len(trial_factor(disc))
                assert h % 2 ** (mu - 1) == 0 and (mu > 1 or h % 2 == 1), disc

    def test_small_tables_cached_read_only(self):
        cached = classgroup._small_legendre_table
        assert cached.cache_info().maxsize is not None
        assert cached(7).flags.writeable is False
        assert classgroup._legendre_table(10007).flags.writeable is False
        before = cached.cache_info().currsize
        assert classgroup.class_number_analytic(-10007) == qform.count_reduced(-10007)
        assert cached.cache_info().currsize == before

    def test_dual_oracle_agreement_to_2000(self):
        for disc in range(-3, -2001, -1):
            if disc % 4 in (0, 1) and is_fundamental(disc):
                assert classgroup.class_number_analytic(disc) == classgroup.class_number_forms(disc)

    @pytest.mark.parametrize(
        "disc",
        [
            -100003,  # |D| prime, 1 mod 4
            -255255,  # 3 * 5 * 7 * 11 * 13 * 17
            -1000007,  # 29 * 34483
            -400004,  # 12 mod 16: 2-part -4
            -2499668,  # 12 mod 16, 4 * prime
            -600024,  # 8 mod 16 with D/8 = 1 mod 4: 2-part 8
            -2000040,  # 8 mod 16 with D/8 = 3 mod 4: 2-part -8, five prime factors
            -2400027,  # 3 * 7 * 23 * 4969
        ],
    )
    def test_agrees_with_form_count_beyond_the_search(self, disc):
        assert classgroup.class_number_analytic(disc) == qform.count_reduced(disc)

    def test_independent_of_form_code_factoring_and_cache(self, monkeypatch, tmp_path):
        expected = {-23: 3, -104: 6, -84: 4, -10007: qform.count_reduced(-10007)}

        def forbidden(*args, **kwargs):
            raise AssertionError("the analytic oracle must not call this")

        for module, name in [
            (qform, "count_reduced"),
            (qform, "enumerate_reduced"),
            (intmath, "factor"),
            (intmath, "kronecker"),
            (result_cache, "lookup"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        path = tmp_path / "cache.jsonl"
        with result_cache.ResultCache(str(path)) as file:
            monkeypatch.setattr(result_cache, "_active", file)
            for disc, h in expected.items():
                assert classgroup.class_number_analytic(disc) == h
        assert path.read_bytes() == b""


class TestIsFundamental:
    def test_examples(self):
        assert is_fundamental(-23)
        assert is_fundamental(-4)
        assert is_fundamental(-8)
        assert not is_fundamental(-12)
        assert not is_fundamental(-9)
        assert not is_fundamental(-23 * 4)
        assert not is_fundamental(5)


class TestClassNumberOfField:
    @pytest.mark.parametrize(
        "d,h,disc,d_sf",
        [(-343, 1, -7, -7), (-124, 3, -31, -31), (-121, 1, -4, -1)],
    )
    def test_examples(self, d, h, disc, d_sf):
        assert classgroup.class_number_of_field(d) == (h, disc, d_sf)

    def test_rejects_non_negative(self):
        with pytest.raises(InputError):
            classgroup.class_number_of_field(7)

    def test_class_number_one_fields_below_200(self):
        ones = set()
        for disc in range(-3, -201, -1):
            if disc % 4 in (0, 1) and is_fundamental(disc):
                if classgroup.class_number_forms(disc) == 1:
                    ones.add(disc)
        assert ones == HEEGNER

    @staticmethod
    def look_up(path, d_sf):
        with result_cache.ResultCache(str(path)) as file:
            result_cache.activate(file)
            try:
                return classgroup.class_number_of_squarefree(d_sf).h
            finally:
                result_cache.activate(None)

    def test_only_a_genus_checked_cache_read_marks_the_process(self, tmp_path, monkeypatch, fresh_process):
        # 1000003 is prime: h(-1000003) = 105, counted, then read from 2^16 up
        assert self.look_up(tmp_path / "counted.jsonl", -1000003) == 105
        assert not classgroup._genus_read
        # h(-23) = 3 read from a file below 2^16 is checked against the table
        below = tmp_path / "below.jsonl"
        below.write_text('{"key":"h:-23","v":1,"value":"3"}\n')
        assert self.look_up(below, -23) == 3
        assert not classgroup._genus_read
        assert not classgroup.h_needs_recount(-1000003)
        fresh_process()
        assert self.look_up(tmp_path / "counted.jsonl", -1000003) == 105
        # the mark outlives the file, deactivated, and the value, dropped
        assert classgroup._genus_read
        monkeypatch.setattr(result_cache, "MEMO_MAX", 1)
        assert classgroup.class_number_of_squarefree(-1000033).h
        assert "h:-1000003" not in result_cache._memo
        assert classgroup._genus_read
        assert classgroup.h_needs_recount(-1000003)
        assert not classgroup.h_needs_recount(-23)

    def test_threads_share_one_cache_file(self, tmp_path, fresh_process):
        lo = -1_000_300

        def look_up_all(path, windows, workers):
            with result_cache.ResultCache(str(path)) as file:
                result_cache.activate(file)
                try:
                    with ThreadPoolExecutor(workers) as pool:
                        return list(pool.map(lambda w: {d: classgroup.class_number_of_field(d) for d in w}, windows))
                finally:
                    result_cache.activate(None)

        [alone] = look_up_all(tmp_path / "alone.jsonl", [range(lo, lo + 300)], 1)
        fresh_process()
        # four overlapping windows of 150 d, so most d are looked up twice
        windows = [range(lo + 50 * i, lo + 50 * i + 150) for i in range(4)]
        for window, found in zip(windows, look_up_all(tmp_path / "shared.jsonl", windows, 4)):
            assert found == {d: alone[d] for d in window}
        lines = (tmp_path / "shared.jsonl").read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines]
        assert len(keys) == len(set(keys)) == 600
        assert sorted(lines) == sorted((tmp_path / "alone.jsonl").read_text().splitlines())


class TestOrderOfClass:
    def test_identity(self):
        assert classgroup.order_of_class(qform.identity_form(-23), 3) == 1
        assert classgroup.order_of_class(qform.identity_form(-4), 1) == 1

    def test_order_three(self):
        assert classgroup.order_of_class(QuadForm(2, 1, 3), 3) == 3

    def test_any_multiple_of_order_works(self):
        # h = 6 is a multiple of the true order 3, so no error and same answer
        assert classgroup.order_of_class(QuadForm(2, 1, 3), 6) == 3

    def test_non_multiple_is_inconsistency(self):
        with pytest.raises(InconsistencyError):
            classgroup.order_of_class(QuadForm(2, 1, 3), 5)

    def test_orders_divide_h_and_are_minimal(self):
        for disc in (-23, -84, -104, -116, -120, -231):
            h = classgroup.class_number_forms(disc)
            ident = qform.identity_form(disc)
            for f in qform.enumerate_reduced(disc):
                m = classgroup.order_of_class(f, h)
                assert h % m == 0
                assert f.power(m) == ident
                for p, _ in intmath.factor(m).factors:
                    assert f.power(m // p) != ident


class TestGroupStructure:
    def test_cyclic_three(self):
        info = classgroup.group_structure(-23)
        assert info.h == 3 and info.elementary_divisors == (3,)
        assert len(info.generators) == 1
        assert classgroup.order_of_class(info.generators[0], 3) == 3

    def test_trivial(self):
        info = classgroup.group_structure(-4)
        assert info.h == 1 and info.elementary_divisors == () and info.generators == ()

    def test_klein_four(self):
        info = classgroup.group_structure(-84)
        assert info.h == 4 and info.elementary_divisors == (2, 2)

    def test_divisor_chain_and_generator_orders(self):
        for disc in (-23, -84, -104, -116, -120, -231, -479, -679, -1391):
            info = classgroup.group_structure(disc)
            h = classgroup.class_number_forms(disc)
            assert info.h == h
            prod = 1
            for i, d in enumerate(info.elementary_divisors):
                prod *= d
                if i + 1 < len(info.elementary_divisors):
                    assert info.elementary_divisors[i + 1] % d == 0
            assert prod == h
            # generator orders match their divisors
            for g, d in zip(info.generators, info.elementary_divisors):
                assert classgroup.order_of_class(g, h) == d
            # every element's order divides the exponent
            if info.elementary_divisors:
                exponent = info.elementary_divisors[-1]
                for f in qform.enumerate_reduced(disc):
                    assert exponent % classgroup.order_of_class(f, h) == 0

    def test_generated_subgroup_is_whole_group(self):
        for disc in (-84, -104, -479):
            info = classgroup.group_structure(disc)
            ident = qform.identity_form(disc)
            span = {ident}
            for g, d in zip(info.generators, info.elementary_divisors):
                powers = [ident]
                for _ in range(d - 1):
                    powers.append(powers[-1].compose(g))
                span = {s.compose(p) for s in span for p in powers}
            assert len(span) == info.h

    def test_structure_cap(self):
        # h(-99999983) = 10424 > DEFAULT_STRUCTURE_CAP
        with pytest.raises(ResourceCapError, match="class number 10424 exceeds structure cap"):
            classgroup.group_structure(-99999983)

    def test_no_count_from_2_to_the_61(self):
        # max_disc allows it, but the form count stops below 2^61
        with pytest.raises(ResourceCapError, match="2\\^61"):
            classgroup.group_structure(-((1 << 61) + 3), max_disc=1 << 62)

    def test_structure_cap_comes_before_any_form(self, monkeypatch):
        def no_forms(disc, max_disc):
            raise AssertionError("a form was built")

        monkeypatch.setattr(qform, "reduced_forms", no_forms)
        with pytest.raises(ResourceCapError):
            classgroup.group_structure(-99999983)

    def test_reads_a_prefix_of_the_forms(self, monkeypatch):
        drawn = 0
        reduced_forms = qform.reduced_forms

        def counted(disc, max_disc):
            nonlocal drawn
            for f in reduced_forms(disc, max_disc):
                drawn += 1
                yield f

        monkeypatch.setattr(qform, "reduced_forms", counted)
        info = classgroup.group_structure(-4873699)
        assert 0 < drawn < info.h == 552

    def test_two_routes_below_the_table_top(self, monkeypatch, table_reads):
        # h from count_reduced's shipped table, the forms from the root-count
        # scan: two algorithms that check each other
        roots = []
        root_counts = qform._root_counts
        monkeypatch.setattr(
            qform, "_root_counts", lambda abs_d, a_max: roots.append(abs_d) or root_counts(abs_d, a_max)
        )
        info = classgroup.group_structure(-10627)
        assert (info.h, info.elementary_divisors, info.generators) == (9, (9,), (QuadForm(29, -25, 97),))
        assert table_reads == [10627 // 4 * 2 + 1]
        assert roots == [10627]

    def test_prime_powers_equal_trial_division(self):
        # the split of h into its Sylow orders p^a that group_structure uses
        for h in range(1, 3000):
            got = intmath.factor(h, use_cache=False).factors
            assert [(p, p**a) for p, a in got] == [(p, p**a) for p, a in trial_factor(h)]

    def test_divisors_equal_the_counting_oracle(self):
        for disc in range(-3, -3001, -1):
            if disc % 4 in (0, 1):
                forms = qform.enumerate_reduced(disc)
                info = classgroup.group_structure(disc)
                assert info.elementary_divisors == invariant_factors_by_count(forms), disc

    def test_oracle_examples(self):
        # (2, 2, 30) and (4, 16): several primes and several invariants each
        assert invariant_factors_by_count(qform.enumerate_reduced(-20055)) == (2, 2, 30)
        assert invariant_factors_by_count(qform.enumerate_reduced(-20124)) == (4, 16)

    def test_classes_running_out_raises(self, monkeypatch):
        # every class a walk meets reported as order 1: none can extend the subgroup
        def all_order_one(self, walk):
            for g in walk:
                self._places[g] = ([g], 1, 1)

        monkeypatch.setattr(classgroup._Sylow, "_place", all_order_one)
        with pytest.raises(InconsistencyError, match="ran out"):
            classgroup.group_structure(-84)


# (disc, h, elementary divisors, generators) of the 32 GROUP_POOL discs of the
# certify benchmark, as the walk over every class computed them; the greedy
# pick through the Sylow subgroups must give the same bytes.
POOL_STRUCTURES = [
    (-4873699, 552, (552,), ("(5,-1,243685)",)),
    (-4865908, 500, (2, 250), ("(2,2,608239)", "(7,-4,173783)")),
    (-4804531, 560, (560,), ("(5,-3,240227)",)),
    (-4689835, 496, (2, 2, 124), ("(79,79,14861)", "(5,5,234493)", "(7,-5,167495)")),
    (-4518267, 528, (2, 264), ("(3,3,376523)", "(7,-3,161367)")),
    (-4427284, 550, (550,), ("(10,-6,110683)",)),
    (-4307556, 544, (2, 2, 136), ("(3,0,358963)", "(2,2,538445)", "(5,-2,215378)")),
    (-4052179, 492, (2, 246), ("(173,173,5899)", "(5,-1,202609)")),
    (-4026731, 560, (560,), ("(15,-13,67115)",)),
    (-3844312, 536, (2, 2, 134), ("(17,0,56534)", "(2,0,480539)", "(7,-2,137297)")),
    (-3835384, 496, (4, 124), ("(365,-286,2683)", "(5,-4,191770)")),
    (-3628804, 520, (2, 260), ("(2,2,453601)", "(19,-14,47750)")),
    (-3380136, 500, (2, 250), ("(2,0,422517)", "(17,-12,49710)")),
    (-3209795, 552, (552,), ("(3,-1,267483)",)),
    (-3103491, 528, (2, 264), ("(3,3,258625)", "(11,-7,70535)")),
    (-2905687, 525, (525,), ("(2,-1,363211)",)),
    (-2885620, 544, (2, 2, 136), ("(5,0,144281)", "(2,2,360703)", "(13,-4,55493)")),
    (-2741352, 496, (2, 2, 124), ("(3,0,228446)", "(2,0,342669)", "(13,-6,52719)")),
    (-2609571, 528, (2, 264), ("(359,359,1907)", "(5,-3,130479)")),
    (-2485684, 500, (2, 250), ("(2,2,310711)", "(7,-4,88775)")),
    (-2455864, 536, (2, 2, 134), ("(107,0,5738)", "(2,0,306983)", "(5,-4,122794)")),
    (-2137096, 492, (2, 246), ("(2,0,267137)", "(5,-2,106855)")),
    (-2088411, 500, (2, 250), ("(3,3,174035)", "(5,-3,104421)")),
    (-2087704, 528, (2, 264), ("(2,0,260963)", "(7,-2,74561)")),
    (-2077955, 520, (2, 260), ("(11,11,47229)", "(3,-1,173163)")),
    (-1989316, 496, (2, 2, 124), ("(23,0,21623)", "(7,0,71047)", "(5,-2,99466)")),
    (-1773572, 528, (2, 264), ("(31,0,14303)", "(21,-16,21117)")),
    (-1713848, 500, (2, 250), ("(2,0,214231)", "(3,-2,142821)")),
    (-1711383, 558, (558,), ("(2,-1,213923)",)),
    (-1684744, 492, (2, 246), ("(2,0,210593)", "(5,-4,84238)")),
    (-1473240, 496, (2, 2, 124), ("(3,0,122770)", "(2,0,184155)", "(7,-6,52617)")),
    (-1239992, 492, (2, 246), ("(2,0,154999)", "(3,-2,103333)")),
]
# sha256 of the lines "disc h divisors generators" (space-separated) for every
# disc in [-3000, -3], from the same walk over every class.
SWEEP_SHA256 = "07b193023c0c03ecd907ea57493fc001012f7d35cf8dda8c2c7556bc575e213b"


class TestPinnedStructures:
    @pytest.mark.parametrize("disc,h,divisors,generators", POOL_STRUCTURES)
    def test_pool_structure(self, disc, h, divisors, generators):
        info = classgroup.group_structure(disc)
        assert (info.h, info.elementary_divisors) == (h, divisors)
        assert tuple(str(g) for g in info.generators) == generators

    def test_sweep_digest(self):
        digest = hashlib.sha256()
        for disc in range(-3, -3001, -1):
            if disc % 4 in (0, 1):
                info = classgroup.group_structure(disc)
                divisors = " ".join(map(str, info.elementary_divisors))
                generators = " ".join(map(str, info.generators))
                digest.update(f"{disc} {info.h} {divisors} {generators}\n".encode())
        assert digest.hexdigest() == SWEEP_SHA256


class TestWrongClassNumber:
    """group_structure takes h from count_reduced; a wrong count must make
    the certificate fail, not give a structure of the wrong order."""

    @staticmethod
    def assert_raises_with_count(monkeypatch, wrong):
        discs = [d for d in range(-3, -3001, -1) if d % 4 in (0, 1) and qform.count_reduced(d) >= 3]
        assert len(discs) > 1400
        count_reduced = qform.count_reduced
        monkeypatch.setattr(qform, "count_reduced", lambda d, cap: wrong(count_reduced(d, cap)))
        for disc in discs + [-4873699, -4689835, -3835384]:
            with pytest.raises(InconsistencyError):
                classgroup.group_structure(disc)

    def test_missing_class_raises(self, monkeypatch):
        # a count one class short: h - 1 and h are coprime, so once h >= 3 the
        # classes hold no subgroup of order h - 1 and the certificate cannot close
        self.assert_raises_with_count(monkeypatch, lambda h: h - 1)

    @pytest.mark.parametrize("wrong", [lambda h: h + 1, lambda h: 2 * h], ids=["h+1", "2h"])
    def test_extra_classes_raise(self, monkeypatch, wrong):
        # h + 1 is coprime to h; 2h asks for a 2-subgroup twice too large
        self.assert_raises_with_count(monkeypatch, wrong)


def sylows(disc):
    """The Sylow subgroups of disc's class group, built as group_structure
    builds them, with h = the number of reduced forms."""
    forms = qform.enumerate_reduced(disc)
    h, ident = len(forms), qform.identity_form(disc)
    return forms, h, [classgroup._Sylow(p, p**a, h, forms, ident) for p, a in trial_factor(h)]


class TestCyclicWalk:
    def test_walked_orders_equal_order_of_class(self):
        for disc in range(-3, -3001, -1):
            if disc % 4 not in (0, 1):
                continue
            forms, h, parts = sylows(disc)
            for s in parts:
                assert s._places.keys() == s.group, disc
            for f in forms:
                order = math.prod(s.order(s.part(f)) for s in parts)
                assert order == classgroup.order_of_class(f, h), (disc, f)

    @pytest.mark.parametrize("disc", [-84, -231, -1391, -20055, -20124])
    def test_walk_indexed_powers_equal_power(self, disc):
        # non-cyclic groups, (2, 2, 30) and (4, 16) among them, so many classes
        # sit inside another class's walk
        _, _, parts = sylows(disc)
        for s in parts:
            assert set(s._places) == s.group
            for g in s.group:
                walk, k, n = s._places[g]
                assert walk[k - 1] == g
                for j in range(1, n + 1):
                    assert s._power(g, j) == g.power(j)

    def test_class_met_with_two_orders_raises(self):
        # (2, 1, 3) has order 3 at -23; a walk that closes after it says 2
        (s,) = sylows(-23)[2]
        with pytest.raises(InconsistencyError, match=r"\(2,1,3\) met with orders 3 and 2"):
            s._place([QuadForm(2, 1, 3), qform.identity_form(-23)])

    def test_class_outside_the_p_part_raises(self):
        # h(-87) = 6: the classes of order 3 are not in the 2-part
        _, _, (two, three) = sylows(-87)
        with pytest.raises(InconsistencyError, match="not in the 2-part"):
            two.order(max(three.group))

    def test_order_not_dividing_h_raises(self):
        # as order_of_class does for a wrong multiple of the order: h(-23) = 3
        # passed as 4 makes the class (2, 1, 3) of order 3 a 2-part
        with pytest.raises(InconsistencyError, match="does not divide"):
            classgroup._Sylow(2, 4, 4, qform.enumerate_reduced(-23), qform.identity_form(-23))

    @pytest.mark.parametrize(
        "disc,h,divisors,generators",
        [
            (-4873699, 552, (552,), ("(5,-1,243685)",)),
            (-4689835, 496, (2, 2, 124), ("(79,79,14861)", "(5,5,234493)", "(7,-5,167495)")),
            (-3835384, 496, (4, 124), ("(365,-286,2683)", "(5,-4,191770)")),
            (-2905687, 525, (525,), ("(2,-1,363211)",)),
        ],
    )
    def test_same_structure_as_the_powering_ladder(self, disc, h, divisors, generators):
        # expected values were produced by the per-class powering ladder
        info = classgroup.group_structure(disc)
        assert info.h == h
        assert info.elementary_divisors == divisors
        assert tuple(str(g) for g in info.generators) == generators

    @staticmethod
    def faulty_compose(kind, forms, compose):
        """A QuadForm.compose that returns a wrong reduced form."""
        if kind == "other-disc":
            return lambda f, g: QuadForm(1, 1, 1)
        if kind == "never-closes":
            return lambda f, g: f
        if kind == "always-identity":
            return lambda f, g: qform.identity_form(f.discriminant)
        # the reduced form after the true product, in canonical order
        return lambda f, g: forms[(forms.index(compose(f, g)) + 1) % len(forms)]

    @pytest.mark.parametrize(
        "kind,match",
        [
            ("other-disc", "not a reduced form"),
            ("never-closes", "not principal"),
            ("always-identity", None),
            ("next-form", None),
        ],
    )
    @pytest.mark.parametrize("disc", [-23, -84, -231, -1391, -4873699])
    def test_wrong_compose_raises(self, monkeypatch, kind, match, disc):
        forms = qform.enumerate_reduced(disc)
        wrong = self.faulty_compose(kind, forms, QuadForm.compose)
        monkeypatch.setattr(QuadForm, "compose", wrong)
        with pytest.raises(InconsistencyError, match=match):
            classgroup.group_structure(disc)

    @pytest.mark.parametrize("disc", [-84, -4689835, -3835384])
    def test_growth_that_is_not_direct_raises(self, monkeypatch, disc):
        # with the test that <f_p> meets H_p only in 1 switched off, the
        # second round picks the first generator again, and H_p cannot grow
        # to |H_p| * ord(f_p)
        monkeypatch.setattr(classgroup._Sylow, "free", lambda self, g: True)
        with pytest.raises(InconsistencyError, match="grows a subgroup"):
            classgroup.group_structure(disc)

    def test_growth_past_the_p_part_raises(self, monkeypatch):
        # a growth that returns all 6 classes of -87 to the 2-part, of order 2
        forms = qform.enumerate_reduced(-87)
        monkeypatch.setattr(classgroup, "_grown", lambda subgroup, steps, by: set(forms))
        with pytest.raises(InconsistencyError, match="2-part of disc -87 outgrows 2 classes"):
            classgroup.group_structure(-87)

    def test_subgroup_other_than_the_group_raises(self, monkeypatch):
        # once the rounds start, each growth of H_p puts a class of order 6
        # in place of its largest class: H_p reaches |G_p| classes, not G_p
        forms = qform.enumerate_reduced(-87)
        grown, exponent = classgroup._grown, classgroup._Sylow.exponent
        rounds = False

        def swapped(subgroup, steps, by):
            out = grown(subgroup, steps, by)
            if rounds:
                out = out - {max(out)} | {min(f for f in forms if f not in out)}
            return out

        def flagged(self):
            nonlocal rounds
            rounds = True
            return exponent(self)

        monkeypatch.setattr(classgroup, "_grown", swapped)
        monkeypatch.setattr(classgroup._Sylow, "exponent", flagged)
        with pytest.raises(InconsistencyError, match="does not exhaust"):
            classgroup.group_structure(-87)

    @pytest.mark.parametrize("disc", [-4873699, -4689835, -3835384])
    def test_no_principal_operand(self, compositions, disc):
        # cyclic, (2, 2, 124) and (4, 124): the principal class, the one
        # reduced form with a = 1, is never composed, inside ``power`` or out
        classgroup.group_structure(disc)
        assert compositions
        assert [(f, g) for f, g in compositions if f.a == 1 or g.a == 1] == []

    def test_compose_calls_bounded(self, monkeypatch):
        calls = 0
        compose = QuadForm.compose

        def counted(f, g):
            nonlocal calls
            calls += 1
            return compose(f, g)

        monkeypatch.setattr(QuadForm, "compose", counted)
        info = classgroup.group_structure(-4873699)
        assert info.h == 552
        # the p-parts f^(h/p^a) (inside ``power``), the walks and growths of
        # the Sylow subgroups of orders 8, 3 and 23, and the growth of H:
        # the whole group of 552 classes is never walked
        assert 0 < calls <= info.h / 2

    @pytest.mark.parametrize("disc", [-4873699, -4689835, -3835384])
    def test_growth_skips_the_principal_row(self, monkeypatch, disc):
        # cyclic, (2, 2, 124) and (4, 124): each H_p grows by composing its
        # classes other than 1 with f_p, ..., f_p^(n-1), so the growth after
        # the last Sylow build makes (p^a - 1) - sum_i (p^e_i - 1) compositions
        # per p^a || h, outside ``power``, the p^e_i being the p-parts of the
        # elementary divisors: none for a cyclic group
        calls = 0
        in_power = False
        compose, power = QuadForm.compose, QuadForm.power
        build = classgroup._Sylow.__init__

        def counted(f, g):
            nonlocal calls
            calls += not in_power
            return compose(f, g)

        def uncounted(f, k):
            nonlocal in_power
            in_power = True
            try:
                return power(f, k)
            finally:
                in_power = False

        def built(self, *args):
            nonlocal calls
            build(self, *args)
            calls = 0

        monkeypatch.setattr(QuadForm, "compose", counted)
        monkeypatch.setattr(QuadForm, "power", uncounted)
        monkeypatch.setattr(classgroup._Sylow, "__init__", built)
        info = classgroup.group_structure(disc)
        expected = 0
        for p, a in trial_factor(info.h):
            p_parts = [math.gcd(d, p**a) for d in info.elementary_divisors]
            expected += (p**a - 1) - sum(e - 1 for e in p_parts)
        assert calls == expected == {-4873699: 0, -4689835: 10, -3835384: 9}[disc]
