#!/usr/bin/env python3
"""The quadclass benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop (one caller, one op at a time, threads=1) for
about S seconds, checks every output, and prints one metric per line followed
by a last line of JSON: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates plain and traced repetitions and reports the per-layer ones.

Every repetition runs in a fresh interpreter, so quadclass's in-process
memos start cold as in a user's run.  quadclass is imported from src/ of the
checkout this file sits in, and only through its public API and its CLI.
See benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden"

# setup_s is the median of fresh interpreters timed before the repetitions
# and after each one, so that slow spells of a shared machine during the run
# weigh on it no more than on the other metrics.  Over five seeds of
# certify and cli-mixed, the median of 25-50 such probes spread less from
# run to run than their lower quartile or their minimum did.
SETUP_PROBES = 12
SETUP_PROBES_PER_REP = 2
START_PROBES = 5  # bare interpreters timed for cli.process_start_s
# A shared host can run one vCPU up to 1.5 times slower than another for
# spells longer than a run.  So every child is pinned to the next of the
# run's CPUs in turn, and a worker moves to the next one before each op:
# each run then samples all CPUs alike, not whichever one the scheduler
# kept its children on.  Repetitions start on the next CPU in turn too
# (see turned), so that no op runs on the same CPU in every repetition.
CPUS = sorted(os.sched_getaffinity(0))
_NEXT_CPU = itertools.cycle(CPUS)
CHILD_TIMEOUT_S = 150
# Per workload, the percentile reported as latency_tail_ms: the highest of
# p90/p80 that leaves at least 10 samples beyond it at the sample count a
# run of 25 seconds yields on a 2-core machine, also when its host runs
# 1.5 times slower than usual.
TAIL_PERCENTILE = {"search-near": 90, "search-deep": 90, "certify": 90, "cli-mixed": 80}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# (traced function, statistic); each is reported as "<function>.<statistic>"
# per repetition.  repeat_ratio is the share of calls whose first argument
# was already seen in the same repetition.
TRACED_STATS = (
    ("intmath.factor", "calls"),
    ("intmath.factor", "self_s"),
    ("intmath.factor", "repeat_ratio"),
    ("intmath.kronecker", "calls"),
    ("intmath.kronecker", "self_s"),
    ("intmath.is_prime", "calls"),
    ("intmath.squarefree_part", "calls"),
    ("qform.count_reduced", "calls"),
    ("qform.count_reduced", "self_s"),
    ("qform.enumerate_reduced", "self_s"),
    ("qform.QuadForm.compose", "calls"),
    ("qform.QuadForm.compose", "self_s"),
    ("qform.QuadForm.reduced", "calls"),
    ("qform.QuadForm.power", "calls"),
    ("classgroup.class_number_analytic", "calls"),
    ("classgroup.class_number_analytic", "self_s"),
    ("classgroup.class_number_forms", "calls"),
    ("classgroup.class_number_forms", "repeat_ratio"),
    ("classgroup.class_number_of_field", "calls"),
    ("classgroup.class_number_of_field", "self_s"),
    ("classgroup.order_of_class", "self_s"),
    ("classgroup.group_structure", "self_s"),
    ("witness.verify_instance", "calls"),
    ("witness.verify_instance", "self_s"),
    ("families.search_successive", "self_s"),
    ("cli.main", "self_s"),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "repeat_ratio": "ratio"}
PER_LAYER = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stat in TRACED_STATS} | {
    "cache.ResultCache.load_s": "s",
    "cache.entries_loaded": "count",
    "cache.hit_ratio": "ratio",
    "cache.writes": "count",
    "cli.process_start_s": "s",
    "cli.import_s": "s",
    "classgroup.class_number_analytic.share": "ratio",
    "qform.count_reduced.share": "ratio",
    "qform.QuadForm.compose.share_of_group_structure": "ratio",
    "cli.import_s.share_of_p50": "ratio",
    "trace.overhead_ratio": "ratio",
}

# What each workload is built to show in the traced run: (metric, least,
# most) bounds on the share of time in the layer it stresses or bypasses.
DOMINANT = {
    "search-near": [("classgroup.class_number_analytic.share", 0.5, 1.0)],
    "search-deep": [
        ("qform.count_reduced.share", 0.5, 1.0),
        ("classgroup.class_number_analytic.share", 0.0, 0.2),
    ],
    "certify": [("qform.QuadForm.compose.share_of_group_structure", 0.5, 1.0)],
    "cli-mixed": [("cli.import_s.share_of_p50", 0.5, 1.0)],
}


# -- child processes -----------------------------------------------------------


def child_env() -> dict[str, str]:
    """The parent's environment without QUADCLASS_CACHE (it overrides --cache),
    with src/ as the only PYTHONPATH entry and native thread pools at 1."""
    env = {k: v for k, v in os.environ.items() if k != "QUADCLASS_CACHE"}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


@dataclass
class Child:
    """One interpreter run: exit code (None on timeout), wall time from spawn
    to exit, peak RSS in KiB, spawn time, stdout and stderr."""

    code: int | None
    wall_s: float
    rss_kb: int
    started: float
    out: str
    err: str


def turned(turn: int) -> list[int]:
    """The run's CPUs rotated by `turn`.  The i-th op of a repetition runs on
    the i-th of them (modulo their number); rotating by the repetition's
    turn lets every op take every CPU alike over the repetitions."""
    k = turn % len(CPUS)
    return CPUS[k:] + CPUS[:k]


def spawn(args: list[str], env: dict[str, str], timeout: float = CHILD_TIMEOUT_S,
          cpu: int | None = None) -> Child:
    """Run the current interpreter with args, pinned to `cpu` or else to the
    next CPU in turn, and wait for it to end."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    os.sched_setaffinity(0, {next(_NEXT_CPU) if cpu is None else cpu})  # the child inherits it
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited = bool(select.select([pidfd], [], [], timeout)[0])
            wall_s = time.perf_counter() - started
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status) if exited else None
    return Child(code, wall_s, usage.ru_maxrss, started, out_path.read_text(), err_path.read_text())


def probe(env: dict[str, str], code: str) -> tuple[float, list]:
    """Seconds from spawn until the child, having run `code`, reads its
    clock, and the `extra` values `code` set.  Both sides read
    CLOCK_MONOTONIC."""
    child = spawn(
        ["-c", f"{code}; import json, time; print(json.dumps([time.perf_counter(), *extra]))"], env
    )
    if child.code != 0:
        raise RuntimeError(f"probe failed: {child.err.strip()[-500:]}")
    clock, *extra = json.loads(child.out)
    return clock - child.started, extra


SETUP_CODE = (
    "import quadclass, sys; "
    "extra = (quadclass.__file__, sys.modules['numpy'].__version__)"
)


def first_import(env) -> str:
    """Import quadclass once, unmeasured, leaving bytecode caches as a user's
    second run finds them; check it came from src/; return numpy's version."""
    _, (path, numpy_version) = probe(env, SETUP_CODE)
    if Path(path).resolve() != (SRC / "quadclass" / "__init__.py").resolve():
        raise RuntimeError(f"quadclass imported from {path}, not from {SRC}")
    return numpy_version


def setup_samples(env, count: int) -> list[float]:
    return [probe(env, SETUP_CODE)[0] for _ in range(count)]


# -- repetitions ---------------------------------------------------------------


@dataclass
class Rep:
    """One repetition: per-op latency, weight (d per op), output and error;
    peak RSS; import times; trace data when traced."""

    traced: bool
    latency_s: list[float] = field(default_factory=list)
    weights: list[int] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    rss_kb: int = 0
    import_s: list[float] = field(default_factory=list)
    traces: list[dict[str, dict]] = field(default_factory=list)  # one per traced process
    by_kind: dict[str, dict[str, float]] = field(default_factory=dict)  # worker.py's split
    cache_entries_loaded: int = 0
    cache_writes: int = 0


class TracedRunAborted(RuntimeError):
    pass


def run_api_rep(the_plan: dict, traced: bool, env, turn: int) -> Rep:
    ops = the_plan["ops"]
    cpus = turned(turn)
    rep = Rep(traced)
    rep.weights = [op["hi"] - op["lo"] + 1 if op["kind"] == "search" else 1 for op in ops]
    job, result = WORK / "job.json", WORK / "result.json"
    job.write_text(json.dumps({"src": str(SRC), "ops": ops, "trace": traced, "cpus": cpus}))
    result.unlink(missing_ok=True)
    child = spawn([str(BENCH / "worker.py"), str(job), str(result)], env, cpu=cpus[0])
    rep.rss_kb = child.rss_kb
    if child.code != 0 or not result.exists():
        if traced:
            raise TracedRunAborted(f"traced worker failed: {child.err.strip()[-800:]}")
        print(f"worker failed (exit {child.code}): {child.err.strip()[-800:]}", file=sys.stderr)
        # every op fails; the worker's wall time, shared out by weight, is their latency
        rep.latency_s = [child.wall_s * w / sum(rep.weights) for w in rep.weights]
        rep.outputs = [None] * len(ops)
        rep.errors = ["worker failed"] * len(ops)
        return rep
    data = json.loads(result.read_text())
    rep.latency_s, rep.outputs, rep.errors = data["latency_s"], data["outputs"], data["errors"]
    rep.import_s = [data["import_s"]]
    rep.traces = [data["trace"]] if traced else []
    rep.by_kind = data.get("by_kind", {})
    return rep


def cli_args(argv: list[str], cache: Path | None) -> list[str]:
    return [*argv, "--json", *(["--cache", str(cache)] if cache else [])]


def build_template(the_plan: dict, env) -> bool:
    """Build the warm cache template; True when every command exited 0."""
    template = WORK / "template.jsonl"
    template.unlink(missing_ok=True)
    ok = True
    for argv in wl.template_commands(the_plan):
        child = spawn(["-m", "quadclass", *cli_args(argv, template)], env)
        if child.code != 0:
            print(f"template command {argv} exited {child.code}: {child.err.strip()[-300:]}",
                  file=sys.stderr)
            ok = False
    return ok


def run_cli_rep(the_plan: dict, traced: bool, env, turn: int) -> Rep:
    rep = Rep(traced)
    cpus = turned(turn)
    cache = WORK / "cache.jsonl"
    shutil.copyfile(WORK / "template.jsonl", cache)
    trace_path = WORK / "trace.json"
    for i, cmd in enumerate(the_plan["commands"]):
        args = cli_args(cmd["argv"], cache if cmd["cache"] else None)
        cpu = cpus[i % len(cpus)]
        if traced:
            trace_path.unlink(missing_ok=True)
            child = spawn([str(BENCH / "cli_traced.py"), str(trace_path), *args], env, cpu=cpu)
            if not trace_path.exists():
                raise TracedRunAborted(f"traced command {args} failed: {child.err.strip()[-800:]}")
            data = json.loads(trace_path.read_text())
            rep.import_s.append(data["import_s"])
            rep.cache_entries_loaded += data["entries_loaded"]
            rep.cache_writes += data["writes"]
            rep.traces.append(data["trace"])
        else:
            child = spawn(["-m", "quadclass", *args], env, cpu=cpu)
        rep.latency_s.append(child.wall_s)
        rep.weights.append(1)
        rep.outputs.append([child.code, child.out])
        rep.errors.append(None if child.code is not None else "timed out")
        rep.rss_kb = max(rep.rss_kb, child.rss_kb)
    return rep


def timed_reps(run_rep, seconds: int, traced_run: bool, between) -> list[Rep]:
    """Repetitions, each followed by between(), until another one would end
    after `seconds`; at least one.  A traced run alternates plain and traced
    repetitions, in pairs.  run_rep gets each repetition's turn among those
    of its kind."""
    reps: list[Rep] = []
    elapsed = 0.0
    step = 2 if traced_run else 1
    while True:
        start = time.perf_counter()
        for k in range(step):
            reps.append(run_rep(traced=traced_run and k == 1, turn=len(reps) // step))
        between()
        elapsed += time.perf_counter() - start
        if elapsed + elapsed * step / len(reps) > seconds:
            return reps


# -- checks --------------------------------------------------------------------


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def second_route(disc: int) -> int:
    """h(disc) by the route workloads.analytic_route picks, computed in this
    process after the timed repetitions; -1 when the library raises or its
    two counts disagree."""
    from quadclass import classgroup, qform

    try:
        if wl.analytic_route(disc):
            return classgroup.class_number_analytic(disc)
        count = qform.count_reduced(disc)
        return count if count == len(qform.enumerate_reduced(disc)) else -1
    except Exception as exc:  # a wrong library fails the op, not the harness
        print(f"second-route h({disc}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1


def failed_ops(workload: str, seed: int, the_plan: dict, reps: list[Rep]):
    """Per repetition, the indexes of failed ops.  An op fails when it raised,
    when its output differs from the first repetition's or, at the default
    seed, from the golden output, or when the second-route spot check of the
    first repetition's output rejects it."""
    reference = reps[0].outputs
    bad = set()
    if None not in reference:  # ops that raised are counted below
        bad = wl.check_outputs(
            workload, the_plan, reference, wl.rng_for(workload, seed, "check"), second_route
        )
    golden = golden_path(workload)
    if seed == wl.DEFAULT_SEED and golden.exists():
        expected = json.loads(golden.read_text())["outputs"]
        bad |= {i for i, (a, b) in enumerate(zip(reference, expected)) if a != b}
    per_rep = []
    for rep in reps:
        per_rep.append(
            bad
            | {i for i, err in enumerate(rep.errors) if err}
            | {i for i, out in enumerate(rep.outputs) if out != reference[i]}
        )
    return per_rep


# -- metrics -------------------------------------------------------------------


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, reps: list[Rep], setup: list[float]) -> tuple[dict, str]:
    samples = [lat / w for rep in reps for lat, w in zip(rep.latency_s, rep.weights)]
    pct = TAIL_PERCENTILE[workload]
    tail = percentile(samples, pct)
    beyond = sum(s > tail for s in samples)
    values = {
        "setup_s": statistics.median(setup),
        # repetitions are identical, so the median damps slow spells of a shared machine
        "throughput_ops_per_s": statistics.median(sum(r.weights) / sum(r.latency_s) for r in reps),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": max(rep.rss_kb for rep in reps) / 1024,
    }
    note = f"p{pct} of {len(samples)} samples, {beyond} beyond it"
    return values, note


def per_layer(workload: str, the_plan: dict, reps: list[Rep], start_probes: list[float]) -> dict:
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    n = len(traced)
    totals: dict[str, dict] = {}
    for trace in (t for rep in traced for t in rep.traces):
        for name, stat in trace.items():
            acc = totals.setdefault(name, dict.fromkeys(stat, 0))
            for key, value in stat.items():
                acc[key] += value

    def stat(name, key):
        return totals[name][key]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for fn, key in TRACED_STATS:
        if key == "repeat_ratio":
            values[f"{fn}.{key}"] = ratio(stat(fn, "repeats"), stat(fn, "calls"))
        else:
            values[f"{fn}.{key}"] = stat(fn, key) / n
    init = "cache.ResultCache.__init__"
    lookups = ("cache.ResultCache.get_factor", "cache.ResultCache.get_h")
    busy = sum(sum(r.latency_s) for r in traced)
    kinds = [op["kind"] for op in the_plan.get("ops", [])]
    group_s = sum(lat for r in traced for lat, k in zip(r.latency_s, kinds) if k == "group")
    compose_in_groups = sum(
        r.by_kind.get("group", {}).get("qform.QuadForm.compose", 0.0) for r in traced
    )
    imports = [s for r in reps for s in r.import_s]
    values.update({
        "cache.ResultCache.load_s": ratio(stat(init, "total_s"), stat(init, "calls")),
        "cache.entries_loaded": ratio(sum(r.cache_entries_loaded for r in traced), stat(init, "calls")),
        "cache.hit_ratio": ratio(sum(stat(k, "hits") for k in lookups), sum(stat(k, "calls") for k in lookups)),
        "cache.writes": sum(r.cache_writes for r in traced) / n,
        "cli.process_start_s": statistics.median(start_probes),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "classgroup.class_number_analytic.share": ratio(stat("classgroup.class_number_analytic", "total_s"), busy),
        "qform.count_reduced.share": ratio(stat("qform.count_reduced", "total_s"), busy),
        "qform.QuadForm.compose.share_of_group_structure": ratio(compose_in_groups, group_s),
        "cli.import_s.share_of_p50": 0.0,
        "trace.overhead_ratio": ratio(busy / n, sum(sum(r.latency_s) for r in plain) / len(plain)) - 1,
    })
    if workload == "cli-mixed" and imports:
        p50 = statistics.median(lat for r in plain for lat in r.latency_s)
        values["cli.import_s.share_of_p50"] = statistics.median(imports) / p50
    return values


# -- environment ---------------------------------------------------------------


def environment(numpy_version: str) -> str:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadclass").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"env commit={commit} src_sha256={digest.hexdigest()[:16]} "
        f"python={sys.version.split()[0]} numpy={numpy_version} nproc={os.cpu_count()} "
        f"cpu={cpu!r} load1={os.getloadavg()[0]:.2f}"
    )


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="write the first repetition's outputs as the golden ones "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.update_golden and args.seed != wl.DEFAULT_SEED:
        parser.error(f"--update-golden needs the default seed {wl.DEFAULT_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadclass" / "__init__.py").is_file():
        print(f"error: no quadclass sources at {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    if args.update_golden:
        golden_path(args.workload).unlink(missing_ok=True)
    env = child_env()
    print(environment(first_import(env)))
    setup = setup_samples(env, SETUP_PROBES)
    the_plan = wl.plan(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {the_plan['about']}")

    setup_ok = True
    if args.workload == "cli-mixed":
        setup_ok = build_template(the_plan, env)
        run_rep = run_cli_rep
    else:
        run_rep = run_api_rep
    traced = bool(args.trace)
    start_probes = [probe(env, "extra = ()")[0] for _ in range(START_PROBES)] if traced else []
    try:
        reps = timed_reps(lambda traced, turn: run_rep(the_plan, traced, env, turn),
                          args.seconds, traced,
                          lambda: setup.extend(setup_samples(env, SETUP_PROBES_PER_REP)))
    except TracedRunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(SRC))  # second_route imports quadclass, now that timing is over
    per_rep_failed = failed_ops(args.workload, args.seed, the_plan, reps)
    attempted = sum(sum(rep.weights) for rep in reps)
    failed = sum(
        sum(rep.weights[i] for i in bad) for rep, bad in zip(reps, per_rep_failed)
    )
    print(f"repetitions {len(reps)} ({sum(r.traced for r in reps)} traced)")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio ({failed} failed of {attempted} ops)")
    if args.update_golden:
        GOLDEN.mkdir(exist_ok=True)
        golden_path(args.workload).write_text(
            json.dumps({"seed": args.seed, "outputs": reps[0].outputs}) + "\n"
        )
        print(f"wrote {golden_path(args.workload)}")

    plain = [r for r in reps if not r.traced]
    values, tail_note = end_to_end(args.workload, plain, setup)
    for name, unit in END_TO_END.items():
        note = f"  ({tail_note})" if name == "latency_tail_ms" else ""
        print(f"metric {name} = {values[name]:.6g} {unit}{note}")
    if traced:
        values = per_layer(args.workload, the_plan, reps, start_probes)
        for name, unit in PER_LAYER.items():
            print(f"metric {name} = {values[name]:.6g} {unit}")
        for metric, least, most in DOMINANT[args.workload]:
            verdict = "met" if least <= values[metric] <= most else "NOT MET"
            print(f"layer share: {metric} = {values[metric]:.3f}, expected in "
                  f"[{least}, {most}]: {verdict}")
        units = PER_LAYER
    else:
        units = END_TO_END
    result = {
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
