"""One quadclass CLI command under the tracer.

    python3 cli_traced.py TRACE.json ARG...

Behaves like ``python3 -m quadclass ARG...`` (same stdout, stderr and exit
code) and also writes TRACE.json: the import time, the per-function totals,
and the cache entries loaded and written.  If the tracer cannot resolve its
targets, the command does not run, TRACE.json is not written and the exit
code is 70.
"""

from __future__ import annotations

import json
import sys
import time

EXIT_TRACE_ERROR = 70


def main(trace_path: str, args: list[str]) -> int:
    start = time.perf_counter()
    import quadclass.cli

    import_s = time.perf_counter() - start
    from quadclass import cache
    from tracer import TraceError, Tracer

    try:
        tracer = Tracer()
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    loaded = []  # (cache, entries right after loading)
    with tracer:
        traced_init = cache.ResultCache.__init__

        def init(self, path):
            traced_init(self, path)
            loaded.append((self, len(self)))

        cache.ResultCache.__init__ = init
        try:
            code = quadclass.cli.main(args)
        finally:
            cache.ResultCache.__init__ = traced_init
    report = {
        "import_s": import_s,
        "trace": tracer.report(),
        "entries_loaded": sum(n for _, n in loaded),
        "writes": sum(len(c) - n for c, n in loaded),
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
