"""The tools under tools/ measure only the tree they sit in: an argument, such
as the path of another checkout, is refused before any work is done."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("tool", ["report_digests", "solver_counts", "equivariance"])
def test_a_tool_given_an_argument_exits_with_its_usage_line(tool):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / f"{tool}.py"), str(ROOT)],
        capture_output=True, text=True, timeout=5,
    )
    assert run.returncode != 0
    assert run.stdout == ""
    assert run.stderr == f"Usage: python3 tools/{tool}.py\n"
