"""The paired-timing tool behind the in-process figures in ``CHANGES.md``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from paired import CASES

TOOL = Path(__file__).resolve().parent / "paired.py"
SRC = TOOL.parents[1] / "src"


def test_one_round_of_this_tree_against_itself_prints_every_case():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(SRC), str(SRC), "--rounds", "1"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "rounds 1, best of 15 timed runs per side per round"
    assert [line.split(":")[0] for line in lines[1:]] == list(CASES)
    for line in lines[1:]:
        assert line.endswith("/1")


def test_unknown_case_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(SRC), str(SRC), "nosuch"],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2
    assert "unknown case 'nosuch'" in proc.stderr
