"""The tools under tools/ measure only the tree they sit in: an argument, such
as the path of another checkout, is refused before any work is done.  The
machine line they print first names the kernel set OpenBLAS runs with."""

import ctypes
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from envest import cli

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


def test_the_machine_line_names_openblas_kernels_or_unknown(monkeypatch):
    spec = importlib.util.spec_from_file_location("tree", ROOT / "tools" / "tree.py")
    tree = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    core = tree.openblas_core()
    assert f", openblas core {core}, OPENBLAS_NUM_THREADS=1" in tree.machine()
    if cli._openblas_threads() is not None:  # numpy's bundled OpenBLAS
        assert core not in ("", "unknown")

    def no_library(path):
        raise OSError(f"{path}: not loadable")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert tree.openblas_core() == "unknown"
    assert ", openblas core unknown, " in tree.machine()
