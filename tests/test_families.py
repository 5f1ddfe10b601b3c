import json

import pytest

from quadclass import cache as result_cache
from quadclass import classgroup, cli, families, intmath, qform
from quadclass.errors import InconsistencyError, InputError, ResourceCapError


class TestCohn:
    def test_examples(self):
        assert families.cohn_check(3, 3) == (6, True, False)
        assert families.cohn_check(3, 5) == (1, False, True)
        assert families.cohn_check(5, 3) == (3, True, False)

    def test_exception_field(self):
        # 1 - 3^5 = -242 = -2 * 11^2, so the field is Q(sqrt(-2))
        h, disc, d_sf = classgroup.class_number_of_field(1 - 3**5)
        assert (h, disc, d_sf) == (1, -8, -2)

    def test_validation(self):
        with pytest.raises(InputError):
            families.cohn_check(2, 3)
        with pytest.raises(InputError):
            families.cohn_check(3, 4)
        with pytest.raises(InputError):
            families.cohn_check(1, 3)

    def test_small_grid_unconditional(self):
        for n, Vs in ((3, range(3, 16, 2)), (5, range(3, 10, 2))):
            for V in Vs:
                r = families.cohn_check(V, n)
                assert r.divisible != r.is_exception, (V, n, r)


class TestHoque:
    @pytest.mark.parametrize(
        "m,p,n,r,d_sf",
        [(3, 5, 1, 4, -679), (3, 3, 1, -2, -241), (5, 5, 1, 4, -6079)],
    )
    def test_examples(self, m, p, n, r, d_sf):
        res = families.hoque_check(m, p, n, r)
        assert res.d_sf == d_sf
        assert res.divisible

    def test_p_multiple_of_three_flagged(self):
        res = families.hoque_check(3, 3, 1, -2)
        assert "outside" in res.note

    def test_validation(self):
        with pytest.raises(InputError):
            families.hoque_check(2, 5, 1, 4)  # even m
        with pytest.raises(InputError):
            families.hoque_check(3, 4, 1, 4)  # even p
        with pytest.raises(InputError):
            families.hoque_check(3, 1, 1, 4)  # p = 1
        with pytest.raises(InputError):
            families.hoque_check(3, 5, 0, 4)
        with pytest.raises(InputError):
            families.hoque_check(3, 5, 1, 3)  # r not in {-2, 4}

    def test_grid_unconditional(self):
        for m in (3, 5):
            for p in (5, 7, 11):
                for n in (1, 2):
                    for r in (-2, 4):
                        res = families.hoque_check(m, p, n, r)
                        assert res.divisible, (m, p, n, r, res)


class TestIizuka:
    def test_small_parameters_expose_threshold(self):
        rep = families.iizuka_family(3, 1, 1)
        assert rep.family_kind == "iizuka_squares"
        assert rep.base_d == -343
        assert rep.parameters["y"] == 7
        m0, m1 = rep.members
        assert (m0.offset, m0.value, m0.d_sf, m0.h) == (0, -343, -7, 1)
        assert not m0.divisible and not m0.asserted
        assert (m1.offset, m1.value) == (1, -342)
        assert m1.asserted and m1.divisible  # 1 - 7^3 shape, unconditional
        assert rep.all_asserted_pass

    def test_members_are_factored_once(self, monkeypatch, fresh_process):
        # -342 = -2 * 3^2 * 19: h is looked up for d_sf = -38 without
        # factoring it; the base member's part comes from factoring 1 - 2 = -7
        factored = []
        factor = intmath.factor

        def recorded(n, *args, **kwargs):
            factored.append(n)
            return factor(n, *args, **kwargs)

        fresh_process()
        monkeypatch.setattr(intmath, "factor", recorded)
        rep = families.iizuka_family(3, 1, 1)
        assert [m.d_sf for m in rep.members] == [-7, -38]
        assert factored == [-7, -342]

    def test_l2(self):
        rep = families.iizuka_family(3, 1, 2)
        assert rep.parameters["y"] == 63
        assert rep.base_d == -250047
        assert [m.offset for m in rep.members] == [0, 1]
        anchor = rep.members[1]
        assert anchor.asserted and anchor.divisible

    def test_m2(self):
        rep = families.iizuka_family(3, 2, 1)
        assert rep.parameters["y"] == 215
        assert rep.base_d == -(215**3)
        assert [m.offset for m in rep.members] == [0, 1, 4]
        assert rep.members[1].asserted and rep.members[1].divisible
        assert not rep.members[2].asserted
        # internal consistency of every member
        for m in rep.members:
            assert m.value == rep.base_d + m.offset
            dec_h, dec_disc, dec_sf = classgroup.class_number_of_field(m.value)
            assert (dec_h, dec_disc, dec_sf) == (m.h, m.disc, m.d_sf)

    def test_validation(self):
        with pytest.raises(InputError):
            families.iizuka_family(4, 1, 1)
        with pytest.raises(InputError):
            families.iizuka_family(3, 0, 1)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            families.iizuka_family(3, 3, 1)  # members at 24^3 - 1 scale blow the test cap
            # (24!^3 shapes are too big for the default cap anyway)


@pytest.mark.parametrize(
    "build",
    [
        lambda: families.cohn_check(3, 2000001),
        lambda: families.hoque_check(1000001, 5, 1, 4),
        lambda: families.hoque_check(3, 5, 10**6, 4),
        lambda: families.iizuka_family(3, 20, 200000),
        lambda: families.iizuka_family(3, 10**6, 1),
        lambda: families.cor5_family(3, 10**6, 1),
        lambda: families.cor5_family(3, 5, 10**6),
        lambda: families.cor7_family(5, 10**6, 1),
        lambda: families.cor7_family(5, 1, 10**6),
    ],
)
def test_oversized_powers_are_refused_before_they_are_built(build):
    with pytest.raises(ResourceCapError, match="would have more than"):
        build()


class TestCor5:
    def test_below_threshold_example(self):
        rep = families.cor5_family(3, 3, 1)
        assert rep.base_d == -121
        assert [m.offset for m in rep.members] == [0, 5]
        m0, m5 = rep.members
        assert (m0.d_sf, m0.h, m0.divisible) == (-1, 1, False)
        assert m5.value == -116 and m5.h == 6 and m5.divisible
        assert not m0.asserted and not m5.asserted

    def test_working_pair(self):
        rep = families.cor5_family(3, 2, 2)
        assert rep.base_d == -26
        m0, m3 = rep.members
        assert (m0.value, m3.value) == (-26, -23)
        assert m0.divisible and m3.divisible  # h = 6 and h = 3

    def test_n5(self):
        rep = families.cor5_family(5, 2, 3)
        assert rep.base_d == 1 + (1 - 8) ** 5
        assert rep.base_d == -16806

    def test_validation(self):
        with pytest.raises(InputError):
            families.cor5_family(3, 1, 1)  # k = 1 degenerates
        with pytest.raises(InputError):
            families.cor5_family(3, 2, 1)  # d = 0, not a field


class TestFamilyReport:
    def member(self, h, divisible, asserted):
        return families.FamilyMember(
            offset=0, value=-23, d_sf=-23, disc=-23, h=h, divisible=divisible, asserted=asserted
        )

    def test_all_asserted_pass_is_read_off_the_members(self):
        failing = families.FamilyReport(
            "custom_offsets", {"n": 3}, -23, (self.member(3, True, False), self.member(1, False, True))
        )
        assert failing.all_asserted_pass is False
        unasserted = families.FamilyReport(
            "custom_offsets", {"n": 3}, -23, (self.member(1, False, False),)
        )
        assert unasserted.all_asserted_pass is True


class TestCor7:
    def test_exemplar(self):
        rep = families.cor7_family(5, 1, 1)
        assert rep.base_d == -421874
        assert [m.offset for m in rep.members] == [0, 1, 3]
        m0, m1, m3 = rep.members
        assert m0.asserted and m0.divisible
        assert m1.asserted and m1.divisible
        assert not m3.asserted
        assert rep.all_asserted_pass

    def test_p7(self):
        rep = families.cor7_family(7, 1, 1)
        assert rep.base_d == 1 - 27 * 7**6
        assert rep.all_asserted_pass

    def test_even_k_not_asserted_at_offset_one(self):
        rep = families.cor7_family(5, 2, 1)
        m1 = rep.members[1]
        assert not m1.asserted and "odd m" in m1.note

    def test_even_k_offset_one_counterexample(self):
        # (p, k, t) = (5, 2, 1): the offset-1 value -(3^6 5^6 - 2) has h = 1606,
        # not divisible by 3 - the odd-exponent hypothesis is load-bearing, so
        # even-k members must never be hard assertions.
        rep = families.cor7_family(5, 2, 1)
        m1 = rep.members[1]
        assert m1.h == 1606 and not m1.divisible
        assert not m1.asserted
        assert rep.all_asserted_pass

    def test_asserted_grid_in_cap(self):
        for p, k, t in [(5, 1, 1), (7, 1, 1), (5, 2, 1)]:
            rep = families.cor7_family(p, k, t)
            m0, m1, _ = rep.members
            assert m0.asserted and m0.divisible, (p, k, t)
            if k % 2:
                assert m1.asserted and m1.divisible, (p, k, t)
            else:
                assert not m1.asserted, (p, k, t)
            assert rep.all_asserted_pass

    def test_cap_error(self):
        with pytest.raises(ResourceCapError) as exc:
            families.cor7_family(5, 1, 2)
        assert "offset 0" in str(exc.value)

    def test_validation(self):
        with pytest.raises(InputError):
            families.cor7_family(3, 1, 1)  # p must exceed 3
        with pytest.raises(InputError):
            families.cor7_family(9, 1, 1)  # not prime
        with pytest.raises(InputError):
            families.cor7_family(5, 0, 1)


class TestSearch:
    def test_single_offset_includes_minus_23(self):
        hits = families.search_successive(3, [0], -30, -1, max_hits=100)
        ds = {h.base_d for h in hits}
        assert -23 in ds
        for hit in hits:
            (member,) = hit.members
            assert member.h % 3 == 0

    def test_empty_offsets_rejected(self):
        with pytest.raises(InputError):
            families.search_successive(3, [], -50, -1, max_hits=5)

    @pytest.mark.parametrize("offsets", [[0, 0], [0, 1, 4, 1]])
    def test_duplicate_offsets_rejected(self, offsets):
        # a repeated offset would report one field as two members
        with pytest.raises(InputError, match="offsets must be distinct"):
            families.search_successive(3, offsets, -30, -1, max_hits=100)

    def test_triple_smallest_hit(self):
        hits = families.search_successive(3, [0, 1, 4], -2000, -1, max_hits=1)
        assert len(hits) == 1
        hit = hits[0]
        assert hit.base_d == -110
        assert hit.family_kind == "custom_offsets"
        for m in hit.members:
            assert m.divisible and not m.asserted
            # independent re-check through the analytic route
            assert classgroup.class_number_analytic(m.disc) == m.h

    def test_scan_direction(self):
        small = families.search_successive(3, [0], -30, -1, max_hits=100)
        large = families.search_successive(3, [0], -30, -1, max_hits=100, smallest_first=False)
        assert small[0].base_d == -23  # smallest |d| first by default
        # both directions find the same set, in opposite orders
        assert [h.base_d for h in large] == [h.base_d for h in reversed(small)]

    @pytest.mark.parametrize("threads", [0, 2, 4])
    def test_threads_other_than_one_rejected(self, threads):
        with pytest.raises(InputError, match="threads must be 1"):
            families.search_successive(3, [0, 1], -400, -1, max_hits=3, threads=threads)

    def test_validation(self):
        with pytest.raises(InputError):
            families.search_successive(2, [0], -10, -1)
        with pytest.raises(InputError):
            families.search_successive(3, [0], -1, -10)
        with pytest.raises(InputError):
            families.search_successive(3, [-1], -10, -2)
        with pytest.raises(InputError):
            families.search_successive(3, [0], -10, 5)
        with pytest.raises(InputError):
            families.search_successive(3, [100], -10, -1)

    def test_max_hits_zero(self):
        assert families.search_successive(3, [0], -30, -1, max_hits=0) == []


class TestSearchSieve:
    """search_successive reads each field below 2^16 from qform's shipped
    table, and counts larger fields on their own.  Its hits, memo and cache
    file must be those of a search that counts every field by enumerating
    its forms.  ``table_reads`` (conftest) spies on the table's entries."""

    WINDOW = (-1_000_150, -1_000_001)
    NEAR_WINDOW = (-9200, -9001)
    # |disc| = 4|d_sf| of these fields straddles 2^16
    STRADDLE = (-16_700, -16_100)

    @staticmethod
    def count_by_enumeration(monkeypatch):
        def enumerated(disc, max_disc=qform.DEFAULT_DISC_CAP):
            return len(qform.enumerate_reduced(disc, max_disc))

        monkeypatch.setattr(qform, "count_reduced", enumerated)

    @staticmethod
    def search_from_cold_memo(reset, window):
        reset()
        lo, hi = window
        hits = families.search_successive(3, [0, 1, 4], lo, hi, max_hits=10**6)
        return hits, dict(result_cache._memo)

    def test_deep_window_hits_equal_field_by_field(self, monkeypatch, fresh_process, table_reads):
        hits, memo = self.search_from_cold_memo(fresh_process, self.WINDOW)
        # values with a large square factor have small fields
        assert table_reads, "the deep window should reach the table"
        # every read is an entry of a discriminant: none is entry 0, X = 0
        assert min(table_reads) > 0
        self.count_by_enumeration(monkeypatch)
        reference, reference_memo = self.search_from_cold_memo(fresh_process, self.WINDOW)
        assert hits == reference
        assert len(hits) > 5
        assert memo == reference_memo

    def test_near_window_hits_equal_field_by_field(self, monkeypatch, fresh_process, table_reads):
        factored, looked_up = [], []
        real_factor, real_field = intmath.factor, classgroup.class_number_of_squarefree
        monkeypatch.setattr(intmath, "factor", lambda *a, **k: factored.append(a) or real_factor(*a, **k))
        # every field look-up, the search's and each hit member's, passes here
        monkeypatch.setattr(
            classgroup, "class_number_of_squarefree", lambda *a, **k: looked_up.append(a) or real_field(*a, **k)
        )
        hits, memo = self.search_from_cold_memo(fresh_process, self.NEAR_WINDOW)
        assert table_reads, "the near window should reach the table"
        # each value is factored once per look-up and nowhere else
        assert len(factored) == len(looked_up) > 0
        self.count_by_enumeration(monkeypatch)
        reference, reference_memo = self.search_from_cold_memo(fresh_process, self.NEAR_WINDOW)
        assert hits == reference
        assert len(hits) > 5
        assert memo == reference_memo

    def test_cache_file_gets_the_same_entries(self, monkeypatch, fresh_process, tmp_path, capsys):
        def run(window, path):
            lo, hi = window
            args = ["search", "--n", "3", "--offsets", "0,1,4", "--from", str(lo), "--to",
                    str(hi), "--max-hits", "1000", "--json", "--cache", str(path)]
            fresh_process()
            assert cli.main(args) == 0
            return capsys.readouterr().out, sorted(path.read_text().splitlines())

        # the near window reads the table; the deep one mostly counts alone
        windows = {"near": self.NEAR_WINDOW, "deep": self.WINDOW}
        tabled = {name: run(w, tmp_path / f"table-{name}.jsonl") for name, w in windows.items()}
        self.count_by_enumeration(monkeypatch)
        for name, window in windows.items():
            plain_out, plain_lines = run(window, tmp_path / f"plain-{name}.jsonl")
            tabled_out, tabled_lines = tabled[name]
            assert tabled_out == plain_out, name
            assert tabled_lines == plain_lines, name
            assert sum('"key":"h:' in line for line in plain_lines) > 100, name

    def test_warm_cache_entries_are_not_sieved(self, monkeypatch, fresh_process, tmp_path, capsys, table_reads):
        lo, hi = self.NEAR_WINDOW
        path = tmp_path / "c.jsonl"
        args = ["search", "--n", "3", "--offsets", "0,1,4", "--from", str(lo), "--to", str(hi),
                "--max-hits", "1000", "--json", "--cache", str(path)]
        fresh_process()
        assert cli.main(args) == 0
        cold = len(table_reads)
        filed = path.read_text()
        fresh_process()
        assert cli.main(args) == 0
        cold_out, warm_out = capsys.readouterr().out.splitlines()
        # below 2^16 a warm read is checked against the table, so the warm
        # run reads it once per field, as the cold run does
        assert warm_out == cold_out
        assert len(json.loads(warm_out)["hits"]) > 5
        assert len(table_reads) - cold == cold > 0
        assert path.read_text() == filed

    def test_hit_recount_catches_a_wrong_file_entry(self, monkeypatch, fresh_process, tmp_path, capsys):
        # |disc| = 4|d_sf| of these fields straddles 2^16
        lo, hi = -16_700, -16_100
        # a hit's field from 2^16 up, where a read is only genus-checked: 7h
        # keeps 3 | h and passes the genus rule (h + 3 no longer does), so
        # the hit recount is what must catch it
        hit, member = next(
            (hit, m)
            for hit in families.search_successive(3, [0, 1, 4], lo, hi, max_hits=10**6)
            for m in hit.members
            if -m.disc >= qform._TABLE_TOP
        )
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"key": f"h:{member.disc}", "value": str(7 * member.h), "v": 1}) + "\n")
        fresh_process()
        args = ["search", "--n", "3", "--offsets", "0,1,4", "--from", str(lo), "--to", str(hi),
                "--max-hits", "1000", "--json", "--cache", str(path)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert "re-verification failed" in captured.err
        assert f"d={hit.base_d}" in captured.err
        assert str(hit.base_d) not in captured.out

    @staticmethod
    def counted_discs(monkeypatch):
        """The disc of every ``qform.count_reduced`` call from now on, in order."""
        discs = []
        count = qform.count_reduced

        def recorded(disc, *args, **kwargs):
            discs.append(disc)
            return count(disc, *args, **kwargs)

        monkeypatch.setattr(qform, "count_reduced", recorded)
        return discs

    def test_cold_search_counts_each_field_once(self, monkeypatch, fresh_process):
        monkeypatch.setattr(result_cache, "_active", None)
        discs = self.counted_discs(monkeypatch)
        hits, _ = self.search_from_cold_memo(fresh_process, self.WINDOW)
        assert len(hits) > 5
        # a hit's fields were counted by its look-ups; none is counted again
        assert len(discs) == len(set(discs)) > 0
        assert {m.disc for hit in hits for m in hit.members} <= set(discs)

    def test_warm_search_recounts_only_hit_members_from_the_table_top(self, monkeypatch, fresh_process, tmp_path):
        lo, hi = self.STRADDLE

        def search(path):
            fresh_process()
            with result_cache.ResultCache(str(path)) as file:
                result_cache.activate(file)
                try:
                    return families.search_successive(3, [0, 1, 4], lo, hi, max_hits=10**6)
                finally:
                    result_cache.activate(None)

        path = tmp_path / "c.jsonl"
        discs = self.counted_discs(monkeypatch)
        cold = search(path)
        # the cold run reads nothing from its file, so it recounts nothing
        assert len(discs) == len(set(discs)) > 0
        discs.clear()
        assert search(path) == cold
        members = [m.disc for hit in cold for m in hit.members]
        high = sorted(disc for disc in members if -disc >= qform._TABLE_TOP)
        low = [disc for disc in members if -disc < qform._TABLE_TOP]
        assert high and low
        # from 2^16 up every count is a hit member's recount, one per member
        assert sorted(disc for disc in discs if -disc >= qform._TABLE_TOP) == high
        # below it each count is a file entry's table check, one per field
        below = [disc for disc in discs if -disc < qform._TABLE_TOP]
        assert len(below) == len(set(below)) and set(low) <= set(below)

    @pytest.mark.parametrize(
        "window, kept",
        [
            ((-1_000_300, -1_000_001), lambda key: key.startswith("factor:")),
            (STRADDLE, lambda key: key.startswith("h:") and -int(key[2:]) < qform._TABLE_TOP),
        ],
        ids=["deep-factor-lines", "straddle-h-lines-below-2^16"],
    )
    def test_warm_search_with_no_genus_checked_read_counts_each_field_once(
        self, monkeypatch, tmp_path, fresh_process, window, kept
    ):
        # a file whose reads are factorizations or table-checked h leaves no
        # h that only the genus rule checked, so no hit member is recounted
        lo, hi = window

        def search(path):
            fresh_process()
            with result_cache.ResultCache(str(path)) as file:
                result_cache.activate(file)
                try:
                    return families.search_successive(3, [0, 1, 4], lo, hi, max_hits=10**6)
                finally:
                    result_cache.activate(None)

        path = tmp_path / "c.jsonl"
        cold = search(path)
        assert len(cold) > 5
        lines = [line for line in path.read_text().splitlines() if kept(json.loads(line)["key"])]
        assert len(lines) > 100
        path.write_text("\n".join(lines) + "\n")
        discs = self.counted_discs(monkeypatch)
        assert search(path) == cold
        assert len(discs) == len(set(discs)) > 0

    def wrong_file(self, tmp_path):
        """A hit, its first member from 2^16 up, and a cache file holding 7h
        for that member, which keeps 3 | h and passes the genus rule."""
        lo, hi = self.STRADDLE
        hit, member = next(
            (hit, m)
            for hit in families.search_successive(3, [0, 1, 4], lo, hi, max_hits=10**6)
            for m in hit.members
            if -m.disc >= qform._TABLE_TOP
        )
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"key": f"h:{member.disc}", "value": str(7 * member.h), "v": 1}) + "\n")
        failure = (
            rf"re-verification failed at d={hit.base_d}, offset={member.offset}: "
            rf"h={7 * member.h}, fresh={member.h}$"
        )
        return hit, member, path, failure

    def test_wrong_file_entry_fails_the_hit_after_the_file_is_deactivated(self, monkeypatch, fresh_process, tmp_path):
        hit, member, path, failure = self.wrong_file(tmp_path)
        fresh_process()
        with result_cache.ResultCache(str(path)) as file:
            result_cache.activate(file)
            try:
                # 7h passes the genus rule, so the read enters the memo
                assert classgroup.class_number_of_squarefree(member.d_sf).h == 7 * member.h
            finally:
                result_cache.activate(None)
        with pytest.raises(InconsistencyError, match=failure):
            families.search_successive(3, [0, 1, 4], hit.base_d, hit.base_d)

    @pytest.mark.parametrize("memo_max", [1, 2, 3, 4, 5, 6, 8])
    def test_wrong_file_entry_fails_the_hit_when_the_memo_drops_it(self, monkeypatch, fresh_process, tmp_path, memo_max):
        # a small memo drops the filed value between the hit's look-ups
        hit, _, path, failure = self.wrong_file(tmp_path)
        fresh_process()
        monkeypatch.setattr(result_cache, "MEMO_MAX", memo_max)
        with result_cache.ResultCache(str(path)) as file:
            result_cache.activate(file)
            try:
                with pytest.raises(InconsistencyError, match=failure):
                    families.search_successive(3, [0, 1, 4], hit.base_d, hit.base_d)
            finally:
                result_cache.activate(None)

    def test_value_over_the_cap_still_raises(self):
        with pytest.raises(ResourceCapError):
            families.search_successive(3, [0, 1, 4], -1_000_150, -1_000_001, max_disc=10**6)
