"""Result cache for factorizations and class numbers: an in-process memo
over an optional append-only, line-delimited file.

``lookup`` is the one path to a cached value: the memo, then the active file,
then a fresh computation, written through to both.  The memo holds decoded
values, at most ``MEMO_MAX`` of them, dropping the oldest first.  This
module only stores values; callers judge what they read from the file, in
their ``read``, before it enters the memo.

The file format is one JSON object per line: {"key": ..., "value": ..., "v": 1}.
Keys are canonical strings ("factor:<n>" or "h:<disc>"); values are canonical
decimal-string encodings so entries are diff-friendly and version-stable.
Corrupt lines are skipped with a warning instead of aborting, which keeps a
cache usable after a crash mid-write, and the first append after a last line
that lacks its newline starts a new line; when a key occurs twice, the later
line wins.

The file is opt-in: nothing in the library touches it unless a ``ResultCache``
has been installed with ``activate()`` (the CLI does this when --cache or
QUADCLASS_CACHE is given).  ``sample_keys`` supports the CLI's --verify-cache
spot check.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading

CACHE_VERSION = 1
MEMO_MAX = 1 << 18

_active: "ResultCache | None" = None
_active_lock = threading.Lock()
_memo: dict = {}
_memo_lock = threading.Lock()


def activate(cache: "ResultCache | None") -> None:
    global _active
    with _active_lock:
        _active = cache


def lookup(key: str, compute, read, write):
    """The value cached under key.

    Looks in the memo, then reads the active file with ``read(file)``, which
    returns None for a missing or rejected entry, and last calls
    ``compute()``.  The value is then memoized and, when a file is active,
    stored there with ``write(file, value)``, so a memo hit also fills a file
    that lacks the entry.
    """
    file = _active
    value = _memo.get(key)
    if value is None:
        if file is not None:
            value = read(file)
        if value is None:
            value = compute()
        with _memo_lock:
            if len(_memo) >= MEMO_MAX:
                del _memo[next(iter(_memo))]
            _memo[key] = value
    if file is not None:
        write(file, value)
    return value


def encode_factorization(sign: int, factors) -> str:
    body = ",".join(f"{p}^{e}" for p, e in factors)
    return f"{'+' if sign > 0 else '-'}1:{body}"


def decode_factorization(text: str):
    head, _, body = text.partition(":")
    sign = 1 if head == "+1" else -1 if head == "-1" else None
    if sign is None:
        raise ValueError(f"bad factorization encoding {text!r}")
    factors = []
    if body:
        for part in body.split(","):
            p, _, e = part.partition("^")
            factors.append((int(p), int(e)))
    return sign, tuple(factors)


class ResultCache:
    """File-backed cache with a single serialized writer."""

    def __init__(self, path: str):
        self.path = path
        self._data: dict[str, str] = {}
        self._lock = threading.Lock()
        # a last line cut short, without its newline, must not absorb the
        # first appended entry
        self._torn = False
        self._load()
        self._fh = open(path, "a", encoding="utf-8")

    def _load(self) -> None:
        # a device may never end a line, and opening a FIFO waits for a writer
        if os.path.exists(self.path) and not os.path.isfile(self.path):
            raise OSError("not a regular file")
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        raw = b""
        with fh:
            for lineno, raw in enumerate(fh, 1):
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw.decode("utf-8"))
                    key, value = obj["key"], obj["value"]
                    if obj.get("v") != CACHE_VERSION:
                        raise ValueError("version mismatch")
                    if not isinstance(key, str) or not isinstance(value, str):
                        raise ValueError("bad types")
                except (ValueError, KeyError, TypeError):
                    print(
                        f"warning: skipping corrupt cache line {lineno} in {self.path}",
                        file=sys.stderr,
                    )
                    continue
                self._data[key] = value
        self._torn = bool(raw) and not raw.endswith(b"\n")

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __len__(self) -> int:
        return len(self._data)

    def _get(self, key: str) -> str | None:
        return self._data.get(key)

    def _put(self, key: str, value: str) -> None:
        """Store value under key unless it is already there; a different old
        value is superseded by the appended line."""
        with self._lock:
            if self._data.get(key) == value:
                return
            self._data[key] = value
            line = json.dumps(
                {"key": key, "value": value, "v": CACHE_VERSION},
                sort_keys=True,
                separators=(",", ":"),
            )
            if self._torn:
                line = "\n" + line
                self._torn = False
            self._fh.write(line + "\n")
            self._fh.flush()

    # -- typed accessors ----------------------------------------------------

    def get_factor(self, n: int):
        raw = self._get(f"factor:{n}")
        if raw is None:
            return None
        try:
            return decode_factorization(raw)
        except ValueError:
            return None

    def put_factor(self, n: int, sign: int, factors) -> None:
        self._put(f"factor:{n}", encode_factorization(sign, factors))

    def get_h(self, disc: int) -> int | None:
        raw = self._get(f"h:{disc}")
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            return None

    def put_h(self, disc: int, h: int) -> None:
        self._put(f"h:{disc}", str(h))

    def sample_keys(self, count: int) -> list[str]:
        """count keys, or all when there are no more, drawn by a fixed-seed
        generator so the same file always gives the same sample."""
        keys = sorted(self._data)
        if len(keys) <= count:
            return keys
        return sorted(random.Random(0).sample(keys, count))
