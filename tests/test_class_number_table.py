"""The class-number table shipped with the package, src/quadclass/class_numbers.u16.

It is generated by ``oracles.window_counts``, 256 values of |D| at a time,
and must equal that byte for byte.  Regenerate it after changing the
generator with

    PYTHONPATH=src python tests/test_class_number_table.py

A copy of the package whose class-number table, or whose residue table
residues.bits (see ``test_qform``), is missing, short or one byte off must
refuse to read it: ``classnum`` exits 1 with one consistency-failure line.
With no builtin SHA-256 module the check runs on ``hashlib``'s.  Neither
importing the package nor a search over fields with |D| < 2^16 reads the
residue table.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadclass import qform

from oracles import window_counts

TABLE = Path(__file__).resolve().parents[1] / "src" / "quadclass" / qform._TABLE_FILE


def generate() -> bytes:
    """h(-X) for X < 2^16 as little-endian uint16, entry X // 4 * 2 +
    (X % 4 == 3) for X = 0 or 3 (mod 4); entry 0, X = 0, is 0."""
    counts = np.concatenate([window_counts(lo, lo + 255) for lo in range(0, qform._TABLE_TOP, 256)])
    assert counts.max() < 1 << 16
    return counts.reshape(-1, 4)[:, [0, 3]].astype("<u2").tobytes()


def test_shipped_table_regenerates_byte_for_byte():
    data = generate()
    assert len(data) == qform._TABLE_BYTES
    assert TABLE.read_bytes() == data
    assert hashlib.sha256(data).hexdigest() == qform._TABLE_SHA256
    table = qform._class_numbers()
    assert not table.flags.writeable
    assert table.tobytes() == data
    assert table[0] == 0 and table[1] == 1  # X = 0, and h(-3) = 1
    assert int(table.max()) == 424


def assert_damaged_exits_one(tmp_path, name, damage, byte, d):
    """classnum --json -- d, run on a copy of the package whose file name is
    damaged (byte flipped, cut short or deleted), exits 1 with one
    consistency-failure line that names the file."""
    package = tmp_path / "quadclass"
    shutil.copytree(Path(qform.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    table = package / name
    data = bytearray(table.read_bytes())
    if damage == "flipped":
        data[byte] ^= 1
        table.write_bytes(data)
    elif damage == "short":
        table.write_bytes(data[:-1])
    else:
        table.unlink()
    proc = subprocess.run(
        [sys.executable, "-m", "quadclass", "classnum", "--json", "--", d],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("consistency failure: "), proc.stderr
    assert name in lines[0]


@pytest.mark.parametrize("damage", ["flipped", "short", "deleted"])
def test_damaged_table_exits_one_with_one_line(damage, tmp_path):
    # byte 22 is the low byte of h(-23) = 3, entry 23 // 4 * 2 + 1
    assert_damaged_exits_one(tmp_path, qform._TABLE_FILE, damage, 2 * 11, "-23")


@pytest.mark.parametrize("damage", ["flipped", "short", "deleted"])
def test_damaged_residue_table_exits_one_with_one_line(damage, tmp_path):
    # byte 0 holds the squares mod 2; h(-1000003) = 105 reads the table
    assert_damaged_exits_one(tmp_path, qform._RESIDUE_FILE, damage, 0, "-1000003")


def test_digest_falls_back_to_hashlib():
    # with neither builtin SHA-256 module, qform takes hashlib's, and both
    # tables still pass their checks: h(-65531) is read from the class-number
    # table, and h(-1000003) is counted with the residue table
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from quadclass import qform\n"
        "assert qform.sha256 is hashlib.sha256\n"
        "assert qform.count_reduced(-65531) == 78\n"
        "assert qform.count_reduced(-1000003) == 105\n"
    )
    src = str(Path(qform.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_small_fields_never_read_the_residue_table():
    # a fresh interpreter: the import loads nothing, and a search over the
    # benchmark's near window, 4 * 12,200 < 2^16 at its deepest field, reads
    # every h from the class-number table without loading the residue table
    code = (
        "import quadclass\n"
        "from quadclass import qform\n"
        "assert qform._residue_table.cache_info().currsize == 0\n"
        "def spy():\n"
        "    raise AssertionError('the residue table was loaded')\n"
        "qform._residue_table = spy\n"
        "hits = quadclass.search_successive(3, [0, 1, 4], -12_200, -9_001, max_hits=10**6)\n"
        "assert len(hits) > 100, len(hits)\n"
    )
    src = str(Path(qform.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    TABLE.write_bytes(generate())
