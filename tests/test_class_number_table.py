"""The class-number table shipped with the package, src/quadclass/class_numbers.u16.

It is generated by ``oracles.window_counts``, 256 values of |D| at a time,
and must equal that byte for byte.  Regenerate it after changing the
generator with

    PYTHONPATH=src python tests/test_class_number_table.py

A copy of the package whose table is missing, short or one byte off must
refuse to read it: ``classnum`` exits 1 with one consistency-failure line.
With no builtin SHA-256 module the check runs on ``hashlib``'s.
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


@pytest.mark.parametrize("damage", ["flipped", "short", "deleted"])
def test_damaged_table_exits_one_with_one_line(damage, tmp_path):
    package = tmp_path / "quadclass"
    shutil.copytree(Path(qform.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    table = package / qform._TABLE_FILE
    data = bytearray(table.read_bytes())
    if damage == "flipped":
        data[2 * 11] ^= 1  # the low byte of h(-23) = 3, entry 23 // 4 * 2 + 1
        table.write_bytes(data)
    elif damage == "short":
        table.write_bytes(data[:-1])
    else:
        table.unlink()
    proc = subprocess.run(
        [sys.executable, "-m", "quadclass", "classnum", "--json", "--", "-23"],
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
    assert qform._TABLE_FILE in lines[0]


def test_digest_falls_back_to_hashlib():
    # with neither builtin SHA-256 module, qform takes hashlib's, and the
    # table still passes its check: h(-65531) is read from it
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from quadclass import qform\n"
        "assert qform.sha256 is hashlib.sha256\n"
        "assert qform.count_reduced(-65531) == 78\n"
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
