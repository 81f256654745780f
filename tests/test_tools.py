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


def test_the_digest_commands_are_the_rows_of_the_record(monkeypatch):
    # the command rows as the tool builds them, with dummy data paths and no
    # fit, against the record's rows between its machine line and the solver
    # rows, grid rows left out: a row added or renamed without rewriting the
    # record fails here
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    path = ROOT / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    data = {name: f"{name}.csv" for name in ("x", "y", "near_x", "near_y")}
    names = [name for name, _ in tool.commands(data)] + [row[0] for row in tool.REWRITES]
    record = (ROOT / "tools" / "records" / "report_digests.txt").read_text().splitlines()[1:]
    rows = [line.split()[0] for line in record]
    cli_rows = [row for row in rows if not row.startswith(("solver_", "scan_"))
                and not row.endswith(".csv")]
    assert names == cli_rows
