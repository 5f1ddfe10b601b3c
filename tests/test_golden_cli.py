"""CLI output against golden files.

Every subcommand runs in table, CSV and JSON form, and each run must
reproduce the stdout bytes and exit code stored in ``golden/cli.json``:
without a cache, with a cold cache and with the warm cache the cold run left.

The goldens were captured from ``python -m quadclass``.  Regenerate them,
only for an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from quadclass import cache as result_cache
from quadclass import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

COMMANDS = [
    ["classnum", "--d", "-23"],
    ["classnum", "--d", "-343"],
    ["classnum", "--d", "-1000003", "--max-disc", "100"],
    ["squarefree", "--n", "-242"],
    ["witness", "--x", "2", "--y", "3", "--n", "3"],
    ["witness", "--x", "2", "--y", "5", "--n", "3"],
    ["scan", "--x", "2", "--n", "3", "--from", "3", "--to", "9"],
    ["scan", "--x", "2", "--n", "3", "--from", "3", "--to", "9", "--max-disc", "300"],
    ["scan", "--x", "1", "--n", "3", "--from", "2", "--to", "6", "--variant", "four"],
    ["check", "cohn", "--V", "3", "--n", "5"],
    ["check", "cohn", "--V", "5", "--n", "3"],
    ["check", "hoque", "--m", "3", "--p", "5", "--n", "1", "--r", "4"],
    ["family", "iizuka", "--n", "3", "--m", "1", "--l", "1"],
    ["family", "cor5", "--n", "3", "--k", "3", "--l", "1"],
    ["family", "cor7", "--p", "5", "--k", "1", "--t", "1"],
    ["search", "--n", "3", "--offsets", "0,1", "--from", "-500", "--to", "-1", "--max-hits", "3"],
    ["group", "--disc", "-84"],
    ["group", "--disc", "-4"],
    # the first record is skipped, so its reason is an early column
    ["scan", "--x", "2", "--n", "3", "--from", "4", "--to", "7"],
    # no records: the table prints "(no rows)" and CSV prints nothing
    ["scan", "--x", "2", "--n", "3", "--from", "5", "--to", "4"],
    # no hits
    ["search", "--n", "3", "--offsets", "0", "--from", "-2", "--to", "-1"],
    # class numbers near 1e8 and 3e7, which the numpy route counts
    ["classnum", "--d", "-99999991"],
    ["classnum", "--d", "-24999998"],  # disc -99999992
    ["witness", "--x", "2", "--y", "201", "--n", "3"],  # disc -32482388
    # (2, 2, 124) in the numpy range; h = 10424 over the structure cap (exit
    # 3); |disc| over max_disc (exit 3)
    ["group", "--disc", "-4689835"],
    ["group", "--disc", "-99999983"],
    ["group", "--disc", "-100000003"],
    # a conditional x = 2 Iizuka member; both cor5 members, x = 1 and x = 2
    ["family", "iizuka", "--n", "3", "--m", "2", "--l", "1"],
    ["family", "cor5", "--n", "3", "--k", "2", "--l", "2"],
    # hits at -110 and -237, whose offset-1 value -236 has square-free part -59
    ["search", "--n", "3", "--offsets", "0,1,4", "--from", "-3000", "--to", "-1", "--max-hits", "2"],
    # even fundamental discriminants, |D| = 8 and 4 (mod 16), whose 2-part of
    # the root counts is one write; -4000012 has conductor 2, |D| = 12 (mod 16)
    ["classnum", "--d", "-1000002"],  # disc -4000008
    ["group", "--disc", "-4000004"],
    ["group", "--disc", "-4000012"],
]
FORMATS = ([], ["--csv"], ["--json"])


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _cases(), ids=lambda case: " ".join(case["argv"]))
def test_output_matches_golden(case, capsys, tmp_path, monkeypatch):
    cache_file = str(tmp_path / "cache.jsonl")
    for extra in ([], ["--cache", cache_file], ["--cache", cache_file]):
        # an empty memo makes the warm run read the file, not the process memory
        monkeypatch.setattr(result_cache, "_memo", {})
        code = cli.main(case["argv"] + extra)
        out = capsys.readouterr().out
        assert (code, out.encode()) == (case["exit"], case["stdout"].encode()), extra


def _capture() -> list[dict]:
    cases = []
    for argv in (cmd + fmt for cmd in COMMANDS for fmt in FORMATS):
        proc = subprocess.run(
            [sys.executable, "-m", "quadclass", *argv], capture_output=True, check=False
        )
        cases.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout.decode()})
    return cases


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
