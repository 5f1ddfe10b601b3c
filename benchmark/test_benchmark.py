"""Tests of the benchmark harness itself.

    python3 -m pytest benchmark/test_benchmark.py

The end-to-end tests run short (1-second) benchmark runs in subprocesses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer, TraceError  # noqa: E402

from quadclass import cache, classgroup, intmath, qform  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _copy_checkout(dest: Path, with_src: bool = True) -> Path:
    ignore = shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache")
    shutil.copytree(BENCH, dest / "benchmark", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


# -- tracer --------------------------------------------------------------------


def test_every_target_resolves_and_is_restored():
    original = intmath.factor
    with Tracer() as tracer:
        assert intmath.factor is not original
        assert set(tracer.stats) == {f"{m}.{p}" for m, p in TARGETS}
    assert intmath.factor is original


def test_missing_target_aborts_before_wrapping():
    original = classgroup.class_number_of_field
    with pytest.raises(TraceError, match="class_number_merged"):
        Tracer(targets=TARGETS + (("classgroup", "class_number_merged"),))
    assert classgroup.class_number_of_field is original


def test_hot_calls_aggregate_into_one_record_with_self_time():
    disc = -1003  # fundamental; the character sum takes one kronecker per prime below 1003
    with Tracer() as tracer:
        classgroup.class_number_analytic(disc)
    kron = tracer.stats["intmath.kronecker"]
    analytic = tracer.stats["classgroup.class_number_analytic"]
    squarefree = tracer.stats["intmath.squarefree_part"]
    assert kron.calls == 168
    assert len(tracer.stats) == len(TARGETS)
    assert analytic.total_s == pytest.approx(
        analytic.self_s + kron.total_s + squarefree.total_s, rel=1e-9, abs=1e-12
    )
    assert 0 <= analytic.self_s <= analytic.total_s


def test_repeat_ratio_and_cache_hits(tmp_path):
    with Tracer() as tracer:
        for n in (1234567, 1234567, 89):
            intmath.factor(n)
        with cache.ResultCache(str(tmp_path / "c.jsonl")) as rc:
            rc.put_h(-23, 3)
            rc.get_h(-23)
            rc.get_h(-47)
    factor = tracer.stats["intmath.factor"]
    assert (factor.calls, factor.repeats) == (3, 1)
    get_h = tracer.stats["cache.ResultCache.get_h"]
    assert (get_h.calls, get_h.hits) == (2, 1)


# -- output checks -------------------------------------------------------------


def _golden(workload):
    return json.loads(run.golden_path(workload).read_text())["outputs"]


def test_wrong_certificate_class_numbers_fail_their_ops():
    the_plan = wl.plan("certify", wl.DEFAULT_SEED)
    good = _golden("certify")
    truth = {}
    for op, out in zip(the_plan["ops"], good):
        if op["kind"] == "certificate":
            truth[out[2]] = out[3]
        else:
            truth[op["disc"]] = out[0]
    rng = lambda: wl.rng_for("certify", 1, "check")  # noqa: E731
    assert not wl.check_outputs("certify", the_plan, good, rng(), truth.__getitem__)
    bad = [list(out) for out in good]
    for out, op in zip(bad, the_plan["ops"]):
        if op["kind"] == "certificate":
            out[3] += 3  # h off by n keeps n | h, so only the second route sees it
        else:
            out[0] += 1
    failed = wl.check_outputs("certify", the_plan, bad, rng(), truth.__getitem__)
    assert len(failed) == wl.SPOT_SAMPLE["certify"] + 1


def test_wrong_search_hits_fail_their_ops():
    the_plan = wl.plan("search-near", wl.DEFAULT_SEED)
    good = _golden("search-near")
    rng = lambda: wl.rng_for("search-near", 1, "check")  # noqa: E731
    assert not wl.check_outputs("search-near", the_plan, good, rng(), qform.count_reduced)
    bad = [[[d, [[o, sf, disc, h + 3] for o, sf, disc, h in members]] for d, members in out] for out in good]
    assert wl.check_outputs("search-near", the_plan, bad, rng(), qform.count_reduced)


def test_second_route_rejects_a_wrong_class_number():
    the_plan = wl.plan("search-deep", wl.DEFAULT_SEED)
    good = _golden("search-deep")
    rng = lambda: wl.rng_for("search-deep", 1, "check")  # noqa: E731
    assert not wl.check_outputs("search-deep", the_plan, good, rng(), run.second_route)
    off_by_one = lambda disc: run.second_route(disc) + 1  # noqa: E731
    assert wl.check_outputs("search-deep", the_plan, good, rng(), off_by_one)


def test_unexpected_cli_exit_code_fails_the_command():
    the_plan = wl.plan("cli-mixed", wl.DEFAULT_SEED)
    outputs = [list(out) for out in _golden("cli-mixed")]
    rng = wl.rng_for("cli-mixed", 0, "check")
    assert not wl.check_outputs("cli-mixed", the_plan, outputs, rng, run.second_route)
    outputs[1][0] = 3
    assert wl.check_outputs("cli-mixed", the_plan, outputs, rng, run.second_route) == {1}


def test_failed_worker_fails_its_ops_and_keeps_its_time(monkeypatch):
    the_plan = wl.plan("certify", wl.DEFAULT_SEED)
    dead = run.Child(code=-9, wall_s=4.0, rss_kb=1024, started=0.0, out="", err="Killed")
    monkeypatch.setattr(run, "spawn", lambda *args, **kwargs: dead)
    run.WORK.mkdir(parents=True, exist_ok=True)
    rep = run.run_api_rep(the_plan, False, {}, 0)
    assert all(rep.errors) and len(rep.errors) == len(the_plan["ops"])
    assert sum(rep.latency_s) == pytest.approx(4.0)
    [failed] = run.failed_ops("certify", 5, the_plan, [rep])
    assert failed == set(range(len(the_plan["ops"])))
    values, _ = run.end_to_end("certify", [rep], [0.1])
    assert values["throughput_ops_per_s"] == pytest.approx(len(the_plan["ops"]) / 4.0)


def test_children_take_the_cpus_in_turn():
    run.WORK.mkdir(parents=True, exist_ok=True)
    code = "import os; extra = sorted(os.sched_getaffinity(0))"
    try:
        seen = [run.probe(run.child_env(), code)[1] for _ in range(2 * len(run.CPUS))]
    finally:
        os.sched_setaffinity(0, run.CPUS)  # spawn pins this process too
    assert sorted(cpu for [cpu] in seen) == sorted(run.CPUS * 2)


def test_every_op_takes_every_cpu_over_the_repetitions(monkeypatch):
    seen = []

    def fake_spawn(args, env, timeout=None, cpu=None):
        seen.append(cpu)
        return run.Child(code=0, wall_s=0.1, rss_kb=1024, started=0.0, out="{}", err="")

    monkeypatch.setattr(run, "spawn", fake_spawn)
    run.WORK.mkdir(parents=True, exist_ok=True)
    (run.WORK / "template.jsonl").write_text("")
    the_plan = wl.plan("cli-mixed", wl.DEFAULT_SEED)
    n = len(the_plan["commands"])
    for turn in range(len(run.CPUS)):
        run.run_cli_rep(the_plan, False, {}, turn)
    assert all(sorted(seen[i::n]) == run.CPUS for i in range(n))
    # a worker runs its i-th op on the i-th CPU, modulo their number, of the
    # list its job names
    api_plan = wl.plan("certify", wl.DEFAULT_SEED)
    jobs = []
    for turn in range(len(run.CPUS)):
        run.run_api_rep(api_plan, False, {}, turn)
        jobs.append(json.loads((run.WORK / "job.json").read_text())["cpus"])
    assert all(sorted(job[i] for job in jobs) == run.CPUS for i in range(len(run.CPUS)))


# -- whole runs ----------------------------------------------------------------


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_plain_and_traced_runs_report_every_metric():
    plain = _result(_run(ROOT, "--workload", "certify", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == set(run.END_TO_END)
    traced = _result(_run(ROOT, "--workload", "cli-mixed", "--seed", "0", "--seconds", "1", "--trace", "1"))
    assert traced["correct"]
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced["metrics"]["cache.hit_ratio"]["value"] > 0
    assert traced["metrics"]["cache.writes"]["value"] > 0


def test_traced_run_aborts_when_a_traced_name_is_gone(tmp_path):
    root = _copy_checkout(tmp_path)
    module = root / "src" / "quadclass" / "cache.py"
    module.write_text(module.read_text().replace("def get_h(", "def lookup_h("))
    proc = _run(root, "--workload", "certify", "--seconds", "1", "--trace", "1")
    assert proc.returncode != 0
    assert "get_h" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_run_without_sources_fails_without_a_result(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    proc = _run(root, "--workload", "search-near", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
