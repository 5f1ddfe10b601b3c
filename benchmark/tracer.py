"""Per-function call counts and times for the traced benchmark run.

The tracer replaces public functions of the quadclass modules with timing
wrappers, from outside the package, and aggregates every call into one
record per function: call count, inclusive time and self time (inclusive time
minus the time spent in wrapped callees).  No per-call span is kept, so hot
leaves such as ``intmath.kronecker`` (millions of calls per search) cost a
counter update, not memory.

Every target is resolved when the tracer is built.  A target that no longer
exists raises ``TraceError``, so a renamed or merged entry point stops the
traced run instead of reporting zeros.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute path) of every traced public function.
TARGETS = (
    ("intmath", "factor"),
    ("intmath", "kronecker"),
    ("intmath", "is_prime"),
    ("intmath", "squarefree_part"),
    ("qform", "count_reduced"),
    ("qform", "enumerate_reduced"),
    ("qform", "QuadForm.compose"),
    ("qform", "QuadForm.reduced"),
    ("qform", "QuadForm.power"),
    ("classgroup", "class_number_analytic"),
    ("classgroup", "class_number_forms"),
    ("classgroup", "class_number_of_field"),
    ("classgroup", "order_of_class"),
    ("classgroup", "group_structure"),
    ("witness", "verify_instance"),
    ("families", "search_successive"),
    ("cache", "ResultCache.__init__"),
    ("cache", "ResultCache.get_factor"),
    ("cache", "ResultCache.get_h"),
    ("cli", "main"),
)

# Functions whose first argument is remembered, to count calls that repeat
# an argument already seen (work a memo or a shared cache could have saved).
REPEAT_TRACKED = frozenset({"intmath.factor", "classgroup.class_number_forms"})

# Lookups whose non-None result is a cache hit.
CACHE_LOOKUPS = frozenset({"cache.ResultCache.get_factor", "cache.ResultCache.get_h"})


class TraceError(RuntimeError):
    """A traced name could not be resolved."""


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "seen", "repeats", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.seen: set = set()
        self.repeats = 0
        self.hits = 0


class Tracer:
    """Wraps the resolved quadclass targets; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.stats: dict[str, Stat] = {}
        self._slots = []  # (owner, attribute, original, full name)
        for module_name, path in targets:
            full = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(f"quadclass.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                raise TraceError(f"cannot trace quadclass.{full}: {exc!r}") from exc
            if not callable(original):
                raise TraceError(f"cannot trace quadclass.{full}: not callable")
            self.stats[full] = Stat()
            self._slots.append((owner, attr, original, full))
        # Time spent in wrapped callees of each active wrapped call; the
        # bottom entry collects time of calls made outside any wrapped call.
        self._child_s = [0.0]

    def __enter__(self):
        for owner, attr, original, full in self._slots:
            setattr(owner, attr, self._wrap(original, full))
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._slots:
            setattr(owner, attr, original)

    def _wrap(self, fn, full):
        stat = self.stats[full]
        child_s = self._child_s
        track = full in REPEAT_TRACKED
        lookup = full in CACHE_LOOKUPS

        def wrapper(*args, **kwargs):
            if track and args:
                key = args[0]
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(key)
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_s.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - inner
                child_s[-1] += elapsed
            if lookup and result is not None:
                stat.hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """(calls, inclusive seconds, self seconds) per traced name, now."""
        return {k: (s.calls, s.total_s, s.self_s) for k, s in self.stats.items()}

    def report(self) -> dict[str, dict]:
        """Plain-data totals, suitable for JSON."""
        return {
            k: {
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                "repeats": s.repeats,
                "hits": s.hits,
            }
            for k, s in self.stats.items()
        }
