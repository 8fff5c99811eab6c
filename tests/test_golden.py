"""The golden corpus: CLI output and benchmark frames match tests/fixtures/golden.json.

A row that differs names a behaviour that changed. If the change is meant,
rewrite the fixture with `python tests/golden.py --write` and say why.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import golden

FIXTURE = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))


def _minor(version):
    return version.split(".")[:2]


@pytest.fixture(scope="module")
def digests():
    return golden.digests()


def test_rows_match_the_fixture(digests):
    assert sorted(digests) == sorted(FIXTURE["rows"])


@pytest.mark.parametrize("row", sorted(FIXTURE["rows"]))
def test_digest_unchanged(row, digests):
    expected = FIXTURE["rows"][row]
    if expected["numpy"] and _minor(np.__version__) != _minor(FIXTURE["numpy"]):
        pytest.skip(f"{row} loads numpy: fixture written with numpy {FIXTURE['numpy']}, "
                    f"running numpy {np.__version__}")
    assert digests[row] == expected, f"{row} changed; see tests/golden.py"


def test_numpy_free_rows_do_not_load_numpy():
    """The rows not marked numpy run, and give the same digests, in a process without numpy."""
    code = ("import json, sys, golden; rows = golden.digests(with_numpy=False); "
            "assert 'numpy' not in sys.modules; print(json.dumps(rows))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120, cwd=golden.ROOT,
                           env={"PATH": os.environ.get("PATH", os.defpath), "PYTHONNOUSERSITE": "1",
                                "PYTHONPATH": os.pathsep.join(str(golden.ROOT / d)
                                                              for d in ("src", "tests")),
                                "PYTHONWARNINGS": "error"})
    assert child.returncode == 0, child.stderr
    expected = {name: row for name, row in FIXTURE["rows"].items() if not row["numpy"]}
    assert json.loads(child.stdout) == expected
