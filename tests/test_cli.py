import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quadclass
from quadclass import classgroup, cli, intmath, qform
from quadclass import cache as result_cache


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassnum:
    def test_h_of_minus_23(self, capsys):
        code, out, _ = run(["classnum", "--", "-23"], capsys)
        assert code == 0
        assert "3" in out.split()[-1] or "3" in out

    def test_normalizes_through_squarefree_part(self, capsys):
        code, out, _ = run(["classnum", "--json", "--", "-343"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"d": "-343", "d_sf": "-7", "delta": "-7", "h": "1"}

    def test_flag_form(self, capsys):
        code, out, _ = run(["classnum", "--d", "-23", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["h"] == "3"

    def test_real_field_rejected(self, capsys):
        code, _, err = run(["classnum", "--", "5"], capsys)
        assert code == 2
        assert "error" in err

    def test_cap_exit(self, capsys):
        code, _, err = run(["classnum", "--max-disc", "100", "--", "-1000003"], capsys)
        assert code == 3
        assert "cap" in err


class TestSquarefree:
    def test_basic(self, capsys):
        code, out, _ = run(["squarefree", "--json", "--", "-242"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": "-242", "d": "-2", "t": "11"}

    def test_zero_rejected(self, capsys):
        code, _, _ = run(["squarefree", "--", "0"], capsys)
        assert code == 2


class TestWitness:
    def test_pass(self, capsys):
        code, out, _ = run(["witness", "--x", "2", "--y", "3", "--n", "3", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_form"] == "(2,1,3)"
        assert doc["alpha_order"] == "3"
        assert doc["n_divides_h"] is True

    def test_fail_exit_one_but_report_printed(self, capsys):
        code, out, _ = run(["witness", "--x", "2", "--y", "5", "--n", "3"], capsys)
        assert code == 1
        assert "(1,0,1)" in out

    def test_bad_gcd_exit_two(self, capsys):
        code, _, err = run(["witness", "--x", "2", "--y", "4", "--n", "3"], capsys)
        assert code == 2
        assert "gcd" in err


class TestScan:
    def test_table_and_exit(self, capsys):
        code, out, _ = run(["scan", "--x", "2", "--n", "3", "--from", "3", "--to", "9"], capsys)
        assert code == 0
        assert "skipped" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            ["scan", "--x", "2", "--n", "3", "--from", "3", "--to", "5", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "standard"
        assert [r["y"] for r in doc["records"]] == ["3", "4", "5"]
        assert doc["records"][0]["witness"]["h"] == "3"
        assert doc["records"][1]["status"] == "skipped"

    def test_four_variant(self, capsys):
        code, out, _ = run(
            ["scan", "--x", "1", "--n", "3", "--from", "2", "--to", "4", "--variant", "four", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "four"
        assert doc["records"][0]["four"]["h"] == "3"

    def test_csv(self, capsys):
        code, out, _ = run(
            ["scan", "--x", "2", "--n", "3", "--from", "3", "--to", "5", "--csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("y,status")
        assert len(lines) == 4


class TestCheck:
    def test_cohn_exception_is_not_failure(self, capsys):
        code, out, _ = run(["check", "cohn", "--V", "3", "--n", "5", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_exception"] is True and doc["divisible"] is False

    def test_cohn_regular(self, capsys):
        code, out, _ = run(["check", "cohn", "--V", "5", "--n", "3", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["divisible"] is True

    def test_hoque(self, capsys):
        code, out, _ = run(
            ["check", "hoque", "--m", "3", "--p", "5", "--n", "1", "--r", "4", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d_sf"] == "-679" and doc["divisible"] is True


class TestFamily:
    def test_cor7_json_schema(self, capsys):
        code, out, _ = run(
            ["family", "cor7", "--p", "5", "--k", "1", "--t", "1", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"family_kind", "parameters", "base_d", "members", "all_asserted_pass"}
        assert doc["family_kind"] == "cor7_triple"
        assert doc["base_d"] == "-421874"
        assert [m["offset"] for m in doc["members"]] == [0, 1, 3]
        member_keys = {"offset", "value", "d_sf", "delta", "h", "divisible", "asserted", "note"}
        assert all(set(m) == member_keys for m in doc["members"])
        assert doc["all_asserted_pass"] is True

    def test_iizuka_below_threshold_still_exit_zero(self, capsys):
        # x = 0 member fails divisibility but is not asserted
        code, out, _ = run(["family", "iizuka", "--n", "3", "--m", "1", "--l", "1", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["members"][0]["divisible"] is False
        assert doc["members"][0]["asserted"] is False

    def test_family_cap_exit_three(self, capsys):
        code, _, err = run(["family", "cor7", "--p", "5", "--k", "1", "--t", "2"], capsys)
        assert code == 3
        assert "cap" in err


class TestSearch:
    def test_pairs(self, capsys):
        code, out, _ = run(
            ["search", "--n", "3", "--offsets", "0,1", "--from", "-500", "--to", "-1",
             "--max-hits", "3", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["hits"]) == 3
        assert doc["hits"][0]["base_d"] == "-107"

    def test_bad_offsets(self, capsys):
        for offsets in ("0,x", ""):
            code, _, _ = run(
                ["search", "--n", "3", "--offsets", offsets, "--from", "-10", "--to", "-1"], capsys
            )
            assert code == 2, offsets

    def test_duplicate_offsets_exit_two(self, capsys):
        code, out, err = run(["search", "--n", "3", "--offsets", "0,0", "--from", "-30", "--to", "-1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: offsets must be distinct\n"


class TestGroup:
    def test_klein(self, capsys):
        code, out, _ = run(["group", "--json", "--", "-84"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["elementary_divisors"] == ["2", "2"]
        assert len(doc["generators"]) == 2

    def test_table(self, capsys):
        code, out, _ = run(["group", "--", "-23"], capsys)
        assert code == 0
        assert "3" in out

    def test_no_count_from_2_to_the_61(self, capsys):
        disc, cap = -((1 << 61) + 3), 1 << 62
        code, out, err = run(["group", "--max-disc", str(cap), "--disc", str(disc)], capsys)
        assert (code, out) == (3, "")
        assert "2^61" in err


class TestOutputFlags:
    def test_json_csv_conflict(self, capsys):
        code, _, err = run(["classnum", "--json", "--csv", "--", "-23"], capsys)
        assert code == 2


class TestDeterminismAndCache:
    ARGS = ["family", "cor7", "--p", "5", "--k", "1", "--t", "1", "--json"]

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(self.ARGS, capsys)
        _, out2, _ = run(self.ARGS, capsys)
        assert out1.encode() == out2.encode()

    def test_cache_does_not_change_output(self, capsys, tmp_path):
        cache_file = str(tmp_path / "cache.jsonl")
        _, plain, _ = run(self.ARGS, capsys)
        _, cold, _ = run(self.ARGS + ["--cache", cache_file], capsys)
        _, warm, _ = run(self.ARGS + ["--cache", cache_file], capsys)
        assert plain == cold == warm
        assert (tmp_path / "cache.jsonl").exists()

    def test_cache_hits_are_used(self, capsys, tmp_path):
        cache_file = str(tmp_path / "cache.jsonl")
        run(["classnum", "--cache", cache_file, "--json", "--", "-104"], capsys)
        cache = result_cache.ResultCache(cache_file)
        try:
            assert cache.get_h(-104) == 6
            assert cache.get_factor(-104) is not None
        finally:
            cache.close()

    def test_verify_cache_ok(self, capsys, tmp_path):
        cache_file = str(tmp_path / "cache.jsonl")
        run(["classnum", "--cache", cache_file, "--", "-104"], capsys)
        code, _, err = run(["classnum", "--cache", cache_file, "--verify-cache", "--", "-104"], capsys)
        assert code == 0
        assert "verification ok" in err

    def test_verify_cache_catches_corruption(self, capsys, tmp_path):
        cache_file = tmp_path / "cache.jsonl"
        run(["classnum", "--cache", str(cache_file), "--", "-104"], capsys)
        lines = cache_file.read_text().splitlines()
        poisoned = [
            json.dumps({"key": "h:-104", "value": "7", "v": 1})
            if '"h:-104"' in line
            else line
            for line in lines
        ]
        cache_file.write_text("\n".join(poisoned) + "\n")
        code, _, err = run(
            ["classnum", "--cache", str(cache_file), "--verify-cache", "--", "-104"], capsys
        )
        assert code == 1
        assert "FAILED" in err

    # The fixed-seed sample of 16 among the 40 keys h:-3 .. h:-80 below; a
    # change to it changes which entries of a user's file are checked.
    SAMPLE = ["h:-15", "h:-19", "h:-23", "h:-28", "h:-31", "h:-4", "h:-43", "h:-44",
              "h:-55", "h:-56", "h:-59", "h:-63", "h:-67", "h:-68", "h:-7", "h:-76"]

    def test_verify_cache_checks_a_fixed_sample(self, capsys, tmp_path, fresh_process):
        discs = [d for d in range(-3, -81, -1) if d % 4 in (0, 1)]
        entries = {f"h:{d}": qform.count_reduced(d) for d in discs}
        assert len(entries) == 40 and set(self.SAMPLE) < set(entries)

        def write(path, wrong=()):
            path.write_text("".join(
                json.dumps({"key": key, "value": str(h + (key in wrong)), "v": 1}) + "\n"
                for key, h in entries.items()
            ))
            return ["classnum", "--d", "-23", "--cache", str(path), "--verify-cache"]

        code, _, err = run(write(tmp_path / "ok.jsonl"), capsys)
        assert (code, err) == (0, "cache verification ok (40 entries, sample checked)\n")
        # h:-7 is in the sample and h:-3 is not, so only h:-7 is reported
        argv = write(tmp_path / "bad.jsonl", wrong={"h:-7", "h:-3"})
        for _ in range(2):
            fresh_process()
            assert run(argv, capsys) == (1, "", "cache verification FAILED for: h:-7\n")
        with result_cache.ResultCache(str(tmp_path / "bad.jsonl")) as cache:
            assert cache.sample_keys(16) == self.SAMPLE

    def test_verify_cache_without_cache_is_input_error(self, capsys):
        code, _, _ = run(["classnum", "--verify-cache", "--", "-23"], capsys)
        assert code == 2

    def test_corrupt_lines_skipped_with_warning(self, capsys, tmp_path):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(
            'not json at all\n{"key":"h:-23","value":"3","v":1}\n'
            '{"key":"h:-23","value":"9","v":2}\n{"key":5,"value":"3","v":1}\n'
        )
        code, out, err = run(["classnum", "--cache", str(cache_file), "--json", "--", "-23"], capsys)
        assert code == 0
        for lineno in (1, 3, 4):
            assert f"corrupt cache line {lineno} " in err
        assert "corrupt cache line 2 " not in err
        assert json.loads(out)["h"] == "3"

    def test_undecodable_line_skipped_with_warning(self, capsys, tmp_path, fresh_process):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_bytes(
            b'{"key":"h:-23","value":"3","v":1}\n'
            b"\xff\xfe garbage\n"
            b'{"key":"factor:-23","value":"-1:23^1","v":1}\n'
        )
        code, out, err = run(["classnum", "--cache", str(cache_file), "--json", "--", "-23"], capsys)
        assert code == 0
        assert "corrupt cache line 2" in err
        assert json.loads(out)["h"] == "3"
        with result_cache.ResultCache(str(cache_file)) as cache:
            assert cache.get_h(-23) == 3
            assert cache.get_factor(-23) == (-1, ((23, 1),))

    def test_append_after_a_torn_last_line(self, capsys, tmp_path, fresh_process):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text('{"key":"h:-23","value":"3","v":1}')  # no newline
        for _ in range(2):
            result_cache._memo.clear()
            code, out, err = run(["classnum", "--d", "-104", "--json", "--cache", str(cache_file)], capsys)
            assert code == 0
            assert err == ""
            assert json.loads(out)["h"] == "6"
        with result_cache.ResultCache(str(cache_file)) as cache:
            assert cache.get_h(-23) == 3
            assert cache.get_h(-104) == 6
        assert cache_file.read_text().startswith('{"key":"h:-23","value":"3","v":1}\n{')

    def test_wrong_factor_entry_is_recomputed(self, capsys, tmp_path, fresh_process):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text('{"key":"factor:-20","value":"-1:2^1,5^1","v":1}\n')
        code, out, err = run(["squarefree", "--n", "-20", "--json", "--cache", str(cache_file)], capsys)
        assert code == 0
        assert out == '{"d":"-5","n":"-20","t":"2"}\n'
        assert "factor:-20" in err
        with result_cache.ResultCache(str(cache_file)) as cache:
            assert cache.get_factor(-20) == (-1, ((2, 2), (5, 1)))

    def test_poisoned_factor_entry_is_refused_within_the_budget(self, capsys, tmp_path, fresh_process):
        # no Miller-Rabin base divides v, so checking the entry "v is prime"
        # would run full rounds on a 13995-bit number: the budget must refuse
        # the test before it runs, and the message must not print v
        v = 1 + 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 10**4200
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(json.dumps({"key": f"factor:{v}", "value": f"+1:{v}^1", "v": 1}) + "\n")
        start = time.perf_counter()
        code, out, err = run(["squarefree", "--cache", str(cache_file), "--", str(v)], capsys)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        assert err.startswith("resource cap: factoring budget exhausted; unfactored cofactor of 13995 bits")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_cached_prime_above_the_deterministic_limit(self, capsys, tmp_path, fresh_process,
                                                        monkeypatch):
        # its check costs 52 rounds of 100 * 2 units, and nothing is recomputed
        p = 633825300114114700748351602943
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(json.dumps({"key": f"factor:{p}", "value": f"+1:{p}^1", "v": 1}) + "\n")
        monkeypatch.setattr(intmath, "_factor_impl", lambda *args: pytest.fail("recomputed"))
        argv = ["squarefree", "--json", "--cache", str(cache_file), "--n", str(p)]
        code, out, err = run(argv + ["--factor-budget", str(52 * 100 * 2)], capsys)
        assert (code, out, err) == (0, f'{{"d":"{p}","n":"{p}","t":"1"}}\n', "")
        result_cache._memo.clear()
        code, out, err = run(argv + ["--factor-budget", str(52 * 100 * 2 - 1)], capsys)
        assert (code, out) == (3, "")
        assert err == f"resource cap: factoring budget exhausted; unfactored cofactor {p}\n"

    def test_wrong_class_number_entry_fails_the_table_check(self, capsys, tmp_path, fresh_process):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text('{"key":"h:-23","value":"5","v":1}\n')
        code, out, err = run(["classnum", "--d", "-23", "--json", "--cache", str(cache_file)], capsys)
        assert code == 1
        assert out == ""
        assert "consistency failure" in err

    def test_cached_h_below_2_16_that_passes_the_genus_rule_fails_the_table_check(
        self, capsys, tmp_path, fresh_process
    ):
        # 20011 is prime and h(-20011) = 37: 259 = 7 * 37 is odd, as the
        # genus rule asks, but below 2^16 the table's count decides
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text('{"key":"h:-20011","v":1,"value":"259"}\n')
        code, out, err = run(["classnum", "--json", "--cache", str(cache_file), "--", "-20011"], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "consistency failure: cached class number 259 of disc -20011 "
            "differs from the table's 37\n"
        )

    def test_no_serving_path_runs_the_character_sum(self, capsys, tmp_path, fresh_process, monkeypatch):
        # the sum is the tests' second route; a run reads the table instead
        def refused(disc):
            pytest.fail(f"character sum run for disc {disc}")

        monkeypatch.setattr(classgroup, "class_number_analytic", refused)
        cache_file = tmp_path / "cache.jsonl"
        argv = ["search", "--n", "3", "--offsets", "0,1,4", "--from", "-9200", "--to", "-9001",
                "--max-hits", "1000", "--json", "--cache", str(cache_file)]
        code, cold, _ = run(argv, capsys)
        assert code == 0 and len(json.loads(cold)["hits"]) > 5
        result_cache._memo.clear()
        assert run(argv, capsys) == (0, cold, "")
        result_cache._memo.clear()
        code, out, _ = run(["classnum", "--json", "--cache", str(cache_file), "--", "-23"], capsys)
        assert (code, json.loads(out)["h"]) == (0, "3")

    def test_cached_h_above_the_limit_that_fails_the_genus_rule(self, capsys, tmp_path, fresh_process):
        # 1000003 is prime, so h(-1000003) = 105 must be odd; the later line wins
        cache_file = tmp_path / "cache.jsonl"
        argv = ["classnum", "--json", "--cache", str(cache_file), "--", "-1000003"]
        code, out, _ = run(argv, capsys)
        assert (code, json.loads(out)["h"]) == (0, "105")
        with cache_file.open("a") as fh:
            fh.write('{"key":"h:-1000003","v":1,"value":"106"}\n')
        result_cache._memo.clear()
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert err == (
            "consistency failure: cached class number 106 of disc -1000003 "
            "fails the genus rule (mu = 1)\n"
        )

    def test_warm_read_above_the_limit_files_nothing(self, capsys, tmp_path, fresh_process):
        # the genus rule's factorization of d_sf is neither memoized nor filed
        cache_file = tmp_path / "cache.jsonl"
        argv = ["classnum", "--json", "--cache", str(cache_file), "--", "-1000003"]
        _, cold, _ = run(argv, capsys)
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 2
        result_cache._memo.clear()
        code, warm, err = run(argv, capsys)
        assert (code, warm, err) == (0, cold, "")
        assert cache_file.read_text().splitlines() == lines

    def test_witness_files_the_field_alone(self, capsys, tmp_path, fresh_process):
        # the witness order's factorization of n is neither memoized nor filed
        cache_file = tmp_path / "cache.jsonl"
        argv = ["witness", "--x", "2", "--y", "201", "--n", "3", "--json", "--cache", str(cache_file)]
        for _ in range(2):
            assert run(argv, capsys)[0] == 0
            result_cache._memo.clear()
        keys = [json.loads(line)["key"] for line in cache_file.read_text().splitlines()]
        assert keys == ["factor:8120597", "h:-32482388"]

    @pytest.mark.parametrize(
        "d, disc, h, wrong",
        [
            # 3 * 333337: mu = 2, so 2 | h
            ("-1000011", "-1000011", 368, 367),
            ("-1000011", "-1000011", 368, 369),
            # 2 * 7 * 71429: mu = 3, so 4 | h
            ("-1000006", "-4000024", 616, 615),
            ("-1000006", "-4000024", 616, 617),
            ("-1000006", "-4000024", 616, 618),
            # 7 * 373 * 383 and the 2 of disc = 4 (mod 8): mu = 4, so 8 | h
            ("-1000013", "-4000052", 832, 831),
            ("-1000013", "-4000052", 832, 833),
            ("-1000013", "-4000052", 832, 836),
        ],
    )
    def test_cached_h_with_several_prime_discriminants(self, capsys, tmp_path, fresh_process, d, disc, h, wrong):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(json.dumps({"key": f"h:{disc}", "v": 1, "value": str(h)}) + "\n")
        argv = ["classnum", "--json", "--cache", str(cache_file), "--", d]
        code, out, err = run(argv, capsys)
        assert (code, json.loads(out)["h"], err) == (0, str(h), "")
        with cache_file.open("a") as fh:
            fh.write(json.dumps({"key": f"h:{disc}", "v": 1, "value": str(wrong)}) + "\n")
        result_cache._memo.clear()
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert f"cached class number {wrong} of disc {disc} fails the genus rule" in err

    def test_correct_cached_h_above_the_limit_is_read_without_a_count(
        self, capsys, tmp_path, fresh_process, monkeypatch
    ):
        cache_file = tmp_path / "cache.jsonl"
        argv = ["classnum", "--json", "--cache", str(cache_file), "--", "-1000013"]
        _, cold, _ = run(argv, capsys)
        result_cache._memo.clear()
        calls = []
        monkeypatch.setattr(qform, "_root_counts", lambda *args: calls.append(args))
        code, warm, err = run(argv, capsys)
        assert (code, warm, err) == (0, cold, "")
        assert json.loads(warm)["h"] == "832"
        assert calls == []

    def test_class_number_below_one_is_counted_again(self, capsys, tmp_path, fresh_process):
        # no class number is below 1: such a line reads as missing
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(
            '{"key":"h:-100003","value":"0","v":1}\n{"key":"h:-40004","value":"-7","v":1}\n'
        )
        for d, h in (("-100003", "39"), ("-10001", "160")):
            code, out, err = run(["classnum", "--json", "--cache", str(cache_file), "--", d], capsys)
            assert (code, json.loads(out)["h"], err) == (0, h, "")
        lines = cache_file.read_text().splitlines()
        assert '{"key":"h:-100003","v":1,"value":"39"}' in lines[2:]
        assert '{"key":"h:-40004","v":1,"value":"160"}' in lines[2:]
        with result_cache.ResultCache(str(cache_file)) as cache:
            assert (cache.get_h(-100003), cache.get_h(-40004)) == (39, 160)

    @pytest.mark.parametrize(
        "line, argv, out, superseding",
        [
            (
                '{"key":"factor:-20","value":"-1:2x^1","v":1}',
                ["squarefree", "--n", "-20"],
                '{"d":"-5","n":"-20","t":"2"}\n',
                '{"key":"factor:-20","v":1,"value":"-1:2^2,5^1"}',
            ),
            (
                '{"key":"h:-23","value":"3.5","v":1}',
                ["classnum", "--d", "-23"],
                '{"d":"-23","d_sf":"-23","delta":"-23","h":"3"}\n',
                '{"key":"h:-23","v":1,"value":"3"}',
            ),
        ],
    )
    def test_undecodable_value_is_recomputed(self, capsys, tmp_path, fresh_process, line, argv, out, superseding):
        # the line loads, but its value reads as missing
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(line + "\n")
        result = run(argv + ["--json", "--cache", str(cache_file)], capsys)
        assert result == (0, out, "")
        assert superseding in cache_file.read_text().splitlines()[1:]

    def test_memo_drops_its_oldest_entry(self, monkeypatch, fresh_process):
        monkeypatch.setattr(result_cache, "MEMO_MAX", 2)
        monkeypatch.setattr(result_cache, "_active", None)
        computed = []
        for key in ("a", "b", "c", "b", "a"):
            result_cache.lookup(key, lambda: computed.append(key) or key, read=None, write=None)
        assert computed == ["a", "b", "c", "a"]
        assert list(result_cache._memo) == ["c", "a"]
        # a value read from a file is dropped like a computed one
        monkeypatch.setattr(result_cache, "_active", object())
        result_cache.lookup("d", None, read=lambda file: "filed", write=lambda file, value: None)
        result_cache.activate(None)
        for key in ("e", "f"):
            result_cache.lookup(key, lambda: key, read=None, write=None)
        assert list(result_cache._memo) == ["e", "f"]
        assert result_cache.lookup("d", lambda: "counted", read=None, write=None) == "counted"

    def test_wrong_class_number_fails_the_witness_lagrange_check(self, capsys, tmp_path, fresh_process):
        # 15^5 - 2^2 = 759371: h = 325 and the witness has order 5, but a
        # cached h = 7 above 2^16 passes the genus rule, as
        # 759371 is prime and 7 is odd
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text('{"key":"h:-759371","v":1,"value":"7"}\n')
        argv = ["witness", "--x", "2", "--y", "15", "--n", "5", "--cache", str(cache_file)]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "consistency failure: witness order 5 does not divide h = 7" in err

    @pytest.mark.parametrize(
        "argv,disc",
        [
            (["--x", "2", "--n", "3", "--from", "3", "--to", "5", "--json"], -23),
            (["--x", "1", "--n", "3", "--from", "3", "--to", "3", "--variant", "four"], -107),
        ],
        ids=["standard", "four"],
    )
    def test_scan_fails_on_a_wrong_cached_class_number(self, capsys, tmp_path, fresh_process,
                                                       argv, disc):
        # only an instance over a cap becomes an error record; a failed
        # consistency check exits 1, as in every other command
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(f'{{"key":"h:{disc}","v":1,"value":"6"}}\n')
        code, out, err = run(["scan", *argv, "--cache", str(cache_file)], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"consistency failure: cached class number 6 of disc {disc} differs from the table's 3\n"
        )

    def test_cache_in_missing_directory_is_input_error(self, capsys, tmp_path):
        cache_file = tmp_path / "missing" / "c.jsonl"
        code, out, err = run(["classnum", "--d", "-23", "--cache", str(cache_file)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot open cache")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
    def test_cache_that_is_not_a_regular_file_is_input_error(self):
        # /dev/zero never ends a line; the child's address space is capped
        # so that reading it would fail fast instead of filling memory
        import resource

        limit = 1 << 30
        proc = TestWriteErrors.run_into(
            subprocess.PIPE,
            ["classnum", "--cache", "/dev/zero", "--", "-23"],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: cannot open cache /dev/zero: not a regular file\n"

    def test_env_var_overrides_flag(self, capsys, tmp_path, monkeypatch):
        env_cache = tmp_path / "env.jsonl"
        flag_cache = tmp_path / "flag.jsonl"
        monkeypatch.setenv("QUADCLASS_CACHE", str(env_cache))
        code, _, _ = run(["classnum", "--cache", str(flag_cache), "--", "-23"], capsys)
        assert code == 0
        assert env_cache.exists()
        assert not flag_cache.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("factor:abc", "+1:"), ("h:-23x", "3"), ("h:5", "1"), ("factor:0", "+1:"), ("x:5", "1")],
    )
    def test_verify_cache_reports_a_malformed_key(self, capsys, tmp_path, fresh_process, key, value):
        cache_file = tmp_path / "cache.jsonl"
        cache_file.write_text(json.dumps({"key": key, "value": value, "v": 1}) + "\n")
        code, out, err = run(
            ["classnum", "--d", "-23", "--cache", str(cache_file), "--verify-cache"], capsys
        )
        assert code == 1
        assert out == ""
        assert err == f"cache verification FAILED for: {key}\n"

    def test_budget_verdicts_do_not_depend_on_the_cache(self, capsys, tmp_path, fresh_process):
        # At this budget some of the y^9 - 4 fit the rho budget and some do
        # not; a warm cache skips the factorizations it holds, which must not
        # change whether a later one fits.
        argv = ["scan", "--x", "2", "--n", "9", "--from", "25", "--to", "55", "--json",
                "--factor-budget", "3200"]
        cached = argv + ["--cache", str(tmp_path / "cache.jsonl")]
        results = []
        for args in (argv, cached, cached):
            result_cache._memo.clear()
            code, out, _ = run(args, capsys)
            results.append((code, out))
        assert results[0] == results[1] == results[2]
        assert "factoring budget exhausted" in results[0][1]

    def test_seed_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classnum", "--seed", "1", "--", "-23"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_no_public_callable_takes_rng(self):
        takes_rng = [
            name
            for name in quadclass.__all__
            if inspect.isfunction(obj := getattr(quadclass, name))
            and "rng" in inspect.signature(obj).parameters
        ]
        assert takes_rng == []

    def test_threads_flag_is_rejected(self, capsys):
        argv = ["scan", "--x", "2", "--n", "3", "--from", "3", "--to", "21", "--threads", "4"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    def test_import_loads_no_thread_pool(self):
        src = str(Path(quadclass.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, quadclass; print('concurrent.futures' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestCaps:
    def test_rho_budget_is_charged_by_operand_size(self):
        # 3^1001 - 4 leaves a cofactor of hundreds of bits after trial
        # division; each rho step on it costs one budget unit per 64 bits,
        # so the default budget runs out in seconds, not hours
        src = str(Path(quadclass.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "quadclass", "witness", "--x", "2", "--y", "3", "--n", "1001"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "unfactored cofactor" in proc.stderr

    @pytest.mark.parametrize(
        "argv,message",
        [
            # (1 - (21!)^300)^3: built, but too long for factor's cache key
            (["family", "iizuka", "--n", "3", "--m", "20", "--l", "100"], "19641-bit number"),
            # powers refused before they are built
            (["witness", "--x", "1", "--y", "3", "--n", "4000001"], "y^n would have"),
            (["check", "cohn", "--V", "3", "--n", "2000001"], "V^n would have"),
            (["family", "iizuka", "--n", "3", "--m", "20", "--l", "200000"], "would have"),
        ],
    )
    def test_huge_operands_exit_three_promptly(self, argv, message, capsys):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        assert err.startswith("resource cap:") and message in err


class TestCacheEncoding:
    def test_round_trip(self):
        enc = result_cache.encode_factorization(-1, ((2, 1), (11, 2)))
        assert enc == "-1:2^1,11^2"
        assert result_cache.decode_factorization(enc) == (-1, ((2, 1), (11, 2)))

    def test_empty_factor_list(self):
        enc = result_cache.encode_factorization(1, ())
        assert result_cache.decode_factorization(enc) == (1, ())

    def test_bad_encoding_rejected(self):
        with pytest.raises(ValueError):
            result_cache.decode_factorization("junk")


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the same quadclass as this process, installed or not
        src = str(Path(quadclass.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "quadclass", "classnum", "--json", "--", "-23"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h"] == "3"


class TestWriteErrors:
    """Output that cannot be written exits 2 with one error line on stderr,
    without a traceback from the command or from the interpreter's final
    flush."""

    @staticmethod
    def run_into(stdout, argv, **kwargs):
        src = str(Path(quadclass.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "quadclass", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
            **kwargs,
        )

    @staticmethod
    def assert_one_error_line(proc, reason):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr == f"error: cannot write output: {reason}\n"

    def test_closed_pipe(self):
        # more rows than a pipe buffer holds, into a pipe read by nobody
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.run_into(
                write,
                ["search", "--n", "3", "--offsets", "0", "--from", "-3000", "--to", "-1", "--max-hits", "1000"],
            )
        finally:
            os.close(write)
        self.assert_one_error_line(proc, "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_disk(self):
        with open("/dev/full", "wb") as full:
            proc = self.run_into(full, ["classnum", "--", "-23"])
        self.assert_one_error_line(proc, "No space left on device")

    # a buffered stdout fails at the final flush, an unbuffered one in
    # argparse's own write
    @pytest.fixture(params=["buffered", "unbuffered"])
    def stdout_mode(self, request, monkeypatch):
        if request.param == "unbuffered":
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)

    @pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
    def test_help_into_a_closed_pipe(self, argv, stdout_mode):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.run_into(write, argv)
        finally:
            os.close(write)
        self.assert_one_error_line(proc, "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
    def test_help_into_a_full_disk(self, argv, stdout_mode):
        with open("/dev/full", "wb") as full:
            proc = self.run_into(full, argv)
        self.assert_one_error_line(proc, "No space left on device")
