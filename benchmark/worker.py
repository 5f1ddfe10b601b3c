"""One benchmark repetition in a fresh interpreter.

    python3 worker.py JOB.json RESULT.json

The job lists API ops to time, optionally under the tracer, and the CPUs to
run them on in turn.  The result holds the import time, each op's latency,
output and error and, when traced, the per-function totals.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    start = time.perf_counter()
    import quadclass

    import_s = time.perf_counter() - start
    expected_src = os.path.join(job["src"], "quadclass")
    if os.path.dirname(os.path.abspath(quadclass.__file__)) != expected_src:
        print(f"error: imported quadclass from {quadclass.__file__}, not {expected_src}", file=sys.stderr)
        return 2
    result = {"import_s": import_s}
    if job["trace"]:
        from tracer import Tracer

        with Tracer() as tracer:
            result.update(_run_ops(job["ops"], job["cpus"], tracer))
        result["trace"] = tracer.report()
    else:
        result.update(_run_ops(job["ops"], job["cpus"], None))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _search(op: dict) -> list:
    from quadclass import families

    hits = families.search_successive(
        3, [0, 1, 4], op["lo"], op["hi"], max_hits=op["hi"] - op["lo"] + 1, threads=1
    )
    return [[hit.base_d, [[m.offset, m.d_sf, m.disc, m.h] for m in hit.members]] for hit in hits]


def _certificate(op: dict) -> list:
    from quadclass import witness

    r = witness.verify_instance(witness.Instance(op["x"], op["y"], op["n"]))
    return [r.d, r.t, r.disc, r.h, str(r.alpha_form), r.alpha_order, r.n_divides_h]


def _group(op: dict) -> list:
    from quadclass import classgroup

    g = classgroup.group_structure(op["disc"])
    return [g.h, list(g.elementary_divisors), [str(f) for f in g.generators]]


OPS = {"search": _search, "certificate": _certificate, "group": _group}


def _run_ops(ops: list[dict], cpus: list[int], tracer) -> dict:
    latencies, outputs, errors = [], [], []
    # inclusive seconds per traced function, split by op kind
    by_kind: dict[str, dict[str, float]] = {}
    for i, op in enumerate(ops):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # see CPUS in run.py
        before = tracer.snapshot() if tracer else None
        start = time.perf_counter()
        try:
            out, err = OPS[op["kind"]](op), None
        except Exception as exc:  # a failed op is counted, the repetition goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
        errors.append(err)
        if tracer:
            acc = by_kind.setdefault(op["kind"], {})
            for name, (_, total, _) in tracer.snapshot().items():
                acc[name] = acc.get(name, 0.0) + total - before[name][1]
    result = {"latency_s": latencies, "outputs": outputs, "errors": errors}
    if tracer:
        result["by_kind"] = by_kind
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
