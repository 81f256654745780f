"""Command line surface: CSV input, canonical JSON output, exit codes and
byte-for-byte determinism of written reports."""

import errno
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from envest import cli, onedim, simulate
from envest.errors import InvalidInput, IoError, ParseError
from envest.grassmann import FgSettings

from conftest import route_fits, stuck


def write_xy(tmp_path, d=5, u=2, n=120, seed=31):
    inst = simulate.generate_instance(d, u, seed)
    data = simulate.sample_data(inst, n, seed + 1)
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    np.savetxt(xp, data.x, delimiter=",")
    np.savetxt(yp, data.y, delimiter=",")
    return str(xp), str(yp)


class TestReadMatrixCsv:
    def test_plain_numbers(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n5.5,-6\n")
        np.testing.assert_allclose(
            cli.read_matrix_csv(p), [[1, 2], [3, 4], [5.5, -6]]
        )

    def test_header_row_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        np.testing.assert_allclose(cli.read_matrix_csv(p), [[1, 2], [3, 4]])

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n\n3,4\n")
        np.testing.assert_allclose(cli.read_matrix_csv(p), [[1, 2], [3, 4]])

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="row 2 has 1 cells, expected 2"):
            cli.read_matrix_csv(p)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            cli.read_matrix_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="no rows"):
            cli.read_matrix_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n")
        with pytest.raises(ParseError, match="no data rows"):
            cli.read_matrix_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            cli.read_matrix_csv(tmp_path / "absent.csv")

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        np.testing.assert_array_equal(cli.read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_before_a_header_drops_only_the_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        np.testing.assert_array_equal(cli.read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "raw, offset",
        [
            (b"1,2\n\xff\xfe,3\n", 4),
            (b"a,b\n1,2\n3,\xe2\x82\n", 10),  # a character cut short
            (b"\xef\xbb\xbf1,2\n\xc3(\n", 7),  # the offset counts the byte-order mark
            # a three-byte character across the 64 KiB chunks of the offset scan
            (b"1" * 65535 + "\u20ac".encode() + b"\n\xff\n", 65539),
        ],
        ids=["bad-bytes", "cut-character", "byte-order-mark", "across-chunks"],
    )
    def test_invalid_utf8_names_the_byte_offset(self, tmp_path, raw, offset):
        p = tmp_path / "m.csv"
        p.write_bytes(raw)
        with pytest.raises(ParseError, match=f"{p}: byte {offset} is not valid UTF-8"):
            cli.read_matrix_csv(p)

    def test_a_field_past_the_csv_limit_is_a_parse_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a" * 200_000 + "\n")
        with pytest.raises(ParseError, match="field larger than field limit"):
            cli.read_matrix_csv(p)

    @pytest.mark.parametrize("header", [False, True])
    def test_peak_memory_is_bounded_by_the_matrix(self, tmp_path, header):
        # neither path may hold the file's text, its rows of cells or a
        # float object per cell: tracemalloc's peak over the read stays
        # within 4 times the returned matrix
        a = np.random.default_rng(3).standard_normal((5000, 20))
        p = tmp_path / "m.csv"
        names = ",".join(f"y{j}" for j in range(a.shape[1])) if header else ""
        np.savetxt(p, a, fmt="%.17g", delimiter=",", header=names, comments="")
        tracemalloc.start()
        try:
            got = cli.read_matrix_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, a)
        assert peak <= 4 * got.nbytes

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("1,2\n3,4\n", True),
            ("\ufeff1,2\n3,4\n", True),
            ("a,b\n1,2\n3,4\n", False),
            ("1,2\n\n3,4\n\n", True),
            ("1,2\n   \n3,4\n", False),
            ("1\n \n2\n", False),
            ("\t\n1,2\n", False),
            ('"1",2\n3,"4"\n', False),
            ("#x,y\n1,2\n", False),
            ("1,2\n#3,4\n", False),
            ("1,2\n3\n", False),
            ("1,2\n3,4,5\n", False),
            ("1,2,\n3,4,\n", False),
            ("nan,inf\n-inf,NaN\n", True),
            ("Infinity,-nan\n+inf,-0\n", True),
            ("1_000,2\n3,4\n", False),
            ("1\n2\n3\n", True),
            ("7\n", True),
            (" 1 ,\t2\r\n3,4\r\n", True),
            ("1,2\r3,4", True),
            ("1,2\n3,4\x1c\n", False),
            ("\x1f1,2\n3,4\n", False),
            ("", False),
            ("\n\n", False),
        ],
    )
    def test_fast_path_agrees_with_the_cell_parse(self, tmp_path, monkeypatch, text, fast):
        # np.loadtxt may read only files the cell-by-cell parse accepts, and
        # must return the same array; anything else falls back to the parse
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))

        def outcome():
            try:
                return cli.read_matrix_csv(p)
            except ParseError as exc:
                return str(exc)

        got = outcome()
        try:
            cli._loadtxt_matrix(p)
            took_fast_path = True
        except ValueError:
            took_fast_path = False
        assert took_fast_path == fast

        def no_fast_path(path):
            raise ValueError("fast path off")

        monkeypatch.setattr(cli, "_loadtxt_matrix", no_fast_path)
        want = outcome()
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestJsonWriter:
    def test_round_trip(self, capsys):
        report = {
            "version": "1",
            "config": {"command": "fit", "u": 3, "flag": True, "gap": None},
            "records": [{"values": np.array([1.5, 2.5])}],
            "summary": {"ok": 2},
        }
        cli.write_report_json(report)
        text = capsys.readouterr().out
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["config"]["u"] == 3
        assert parsed["records"][0]["values"] == [1.5, 2.5]

    def test_non_finite_becomes_null(self, capsys):
        report = {
            "version": "1",
            "config": {},
            "records": [float("nan"), float("inf")],
            "summary": {},
        }
        cli.write_report_json(report)
        assert json.loads(capsys.readouterr().out)["records"] == [None, None]

    def test_insertion_order_kept(self, capsys):
        report = {"version": "1", "config": {"z": 1, "a": 2}, "records": [], "summary": {}}
        cli.write_report_json(report)
        text = capsys.readouterr().out
        assert text.index('"z"') < text.index('"a"')

    def test_float_fidelity(self):
        for v in (0.1, 1 / 3, 1e-17, -2.5e300):
            assert float(cli._json_text(v)) == v

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidInput, match="records"):
            cli.write_report_json({"version": "1", "config": {}, "summary": {}})

    def test_file_output(self, tmp_path):
        out = tmp_path / "r.json"
        cli.write_report_json(
            {"version": "1", "config": {}, "records": [], "summary": {}}, str(out)
        )
        assert out.read_text() == '{"version":"1","config":{},"records":[],"summary":{}}\n'

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 3), (4, 3, 2)])
    def test_float64_arrays_match_the_generic_path(self, shape):
        rng = np.random.default_rng(7)
        specials = np.array([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e17, 0.1])
        arrays = [np.resize(np.roll(specials, i), shape) for i in range(specials.size)]
        arrays += [rng.standard_normal(shape) * 10.0**k for k in range(-320, 308)]
        for a in arrays:
            for view in (a, a.T):  # a row-major text whatever the memory order
                assert cli._json_text(view) == cli._json_text(view.tolist())

    def test_non_finite_array_entries_write_null_in_place(self):
        a = np.array([[1.5, np.nan], [-np.inf, np.inf]])
        assert cli._json_text(a) == "[[1.5,null],[null,null]]"

    @pytest.mark.parametrize(
        "a, text",
        [
            (np.array([0.1, 1 / 3], dtype=np.float32), "[0.10000000149011612,0.3333333432674408]"),
            (np.array([[1, -2]]), "[[1,-2]]"),
            (np.array([True, False]), "[true,false]"),
        ],
    )
    def test_other_dtypes_keep_their_text(self, a, text):
        assert cli._json_text(a) == text


# each output file, written by the function that writes it
_WRITERS = {
    "--out": lambda path: cli.write_report_json(
        {"version": "1", "config": {"u": 2}, "records": [np.arange(4.0) / 3], "summary": {}},
        path,
    ),
    "--csv-summary": lambda path: cli._write_csv_summary(
        {"onedim": {"mean_distance": 0.25, "se_distance": None, "replications_ok": 3}}, path
    ),
}


@pytest.mark.parametrize("output_flag", sorted(_WRITERS))
class TestOutputFiles:
    """Output files are rewritten in place; what a reader finds there is
    what a write to a fresh file gives."""

    def fresh_bytes(self, tmp_path, flag):
        path = tmp_path / "fresh"
        _WRITERS[flag](str(path))
        return path.read_bytes()

    def test_a_longer_old_file_keeps_only_the_new_bytes(self, tmp_path, output_flag):
        want = self.fresh_bytes(tmp_path, output_flag)
        old = tmp_path / "old"
        old.write_bytes(b"x" * (3 * len(want)))
        _WRITERS[output_flag](str(old))
        assert old.read_bytes() == want

    def test_a_symlink_is_written_through_and_kept(self, tmp_path, output_flag):
        want = self.fresh_bytes(tmp_path, output_flag)
        target = tmp_path / "target"
        target.write_bytes(b"x" * (3 * len(want)))
        link = tmp_path / "link"
        link.symlink_to(target)
        _WRITERS[output_flag](str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == want

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_open_w_gives(self, tmp_path, output_flag, umask):
        saved = os.umask(umask)
        try:
            with open(tmp_path / "ref", "w"):
                pass
            _WRITERS[output_flag](str(tmp_path / "new"))
        finally:
            os.umask(saved)
        mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "ref").stat().st_mode)

    def test_a_device_is_written_without_a_cut(self, output_flag):
        _WRITERS[output_flag](os.devnull)  # no IoError: a device cannot be truncated

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_an_unwritable_path_is_exit_1(self, tmp_path, capsys, output_flag, where):
        if where == "directory":
            bad, code = tmp_path, errno.EISDIR
        else:
            bad, code = tmp_path / "missing" / "file", errno.ENOENT
        paths = {"--out": str(tmp_path / "r.json"), "--csv-summary": str(tmp_path / "g.csv")}
        paths[output_flag] = str(bad)
        argv = ["simulate", "--mode", "population", "--d", "3", "--u", "1", "--reps", "1"]
        for flag, path in paths.items():
            argv += [flag, path]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: IoError: cannot write {bad}: {os.strerror(code)}\n"


class TestExitCodes:
    def test_fit_u_zero_is_usage_error(self, tmp_path, capsys):
        # validated before any file IO, so the paths need not exist
        code = cli.run(
            ["fit", "--kind", "response", "--x", "no.csv", "--y", "no.csv", "--u", "0"]
        )
        assert code == 2
        assert "u must be between 1 and d" in capsys.readouterr().err

    def test_fit_u_too_large(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)
        code = cli.run(["fit", "--kind", "response", "--x", xp, "--y", yp, "--u", "9"])
        assert code == 2
        assert "u must be between 1 and d" in capsys.readouterr().err

    def test_fit_p1_too_large(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)  # one predictor
        code = cli.run(
            ["fit", "--kind", "partial", "--x", xp, "--y", yp, "--u", "1", "--p1", "2"]
        )
        assert code == 2
        assert "p1 must be between 1 and 1" in capsys.readouterr().err

    def test_cv_folds_above_the_row_count_are_usage_error(self, tmp_path, capsys):
        # folds are bounded by the rows, known once the CSVs are read
        xp, yp = write_xy(tmp_path, n=20)
        args = ["select-u", "--criterion", "cv", "--kind", "response",
                "--x", xp, "--y", yp, "--u-max", "2", "--folds"]
        assert cli.run(args + ["21"]) == 2
        assert capsys.readouterr().err == "error: folds must be between 2 and 20\n"
        assert cli.run(args + ["20"]) == 0
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.run(
            [
                "fit", "--kind", "response",
                "--x", str(tmp_path / "nope.csv"),
                "--y", str(tmp_path / "nope.csv"),
                "--u", "1",
            ]
        )
        assert code == 1
        assert "IoError" in capsys.readouterr().err

    def test_malformed_input_file(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        code = cli.run(["fit", "--kind", "response", "--x", xp, "--y", str(bad), "--u", "1"])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    def test_input_that_is_not_utf8_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n\xff\xfe,3\n")
        code = cli.run(["fit", "--kind", "mean", "--y", str(bad), "--u", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ParseError: {bad}: byte 4 is not valid UTF-8\n"
        )

    @pytest.mark.parametrize("command", [
        ["fit", "--kind", "response", "--u", "1"],
        ["select-u", "--kind", "response", "--u-max", "2"],
        ["bootstrap", "--kind", "response", "--u", "1", "--b", "10"],
        ["fit", "--kind", "mean", "--u", "1"],
    ])
    def test_covariances_beyond_float64_are_exit_1(self, tmp_path, capsys, command):
        # finite data whose covariances overflow: Y scaled by 1e200 for the
        # response kind, and for the mean kind a mean of 1e160, whose outer
        # product overflows though S_Y does not.  Each is a package error,
        # with no numpy warning on the way
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 2))
        e = rng.standard_normal((30, 4))
        y = (x @ rng.standard_normal((2, 4)) + e) * 1e200
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, x, delimiter=",", fmt="%.17g")
        inputs = ["--x", str(xp), "--y", str(yp)]
        if command[2] == "mean":
            y, inputs = 1e160 * (1.0 + 1e-8 * e), inputs[2:]
        np.savetxt(yp, y, delimiter=",", fmt="%.17g")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(command + inputs)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "InvalidInput" in err and err.count("\n") == 1

    def test_simulate_repeated_algo_is_usage_error(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(onedim, "fit_many", lambda *args: calls.append(args))
        code = cli.run(
            ["simulate", "--mode", "population", "--d", "4", "--u", "1", "--reps", "3",
             "--algo", "onedim", "--algo", "fg", "--algo", "onedim"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --algo onedim is given more than once\n"
        assert calls == []

    def test_simulate_population_rejects_n(self, capsys):
        code = cli.run(
            ["simulate", "--mode", "population", "--d", "5", "--u", "2",
             "--reps", "1", "--n", "50"]
        )
        assert code == 2
        assert "--n only applies to sample mode" in capsys.readouterr().err

    def test_bootstrap_rejects_tiny_b(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)
        code = cli.run(
            ["bootstrap", "--kind", "response", "--x", xp, "--y", yp,
             "--u", "2", "--b", "1"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["fit", "select-u", "bootstrap"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--gradient-tol", "nan", "gradient-tol must be a finite number"),
            ("--gradient-tol", "-1", "gradient-tol must be a finite number"),
            ("--gradient-tol", "inf", "gradient-tol must be a finite number"),
            ("--max-iter", "-3", "max-iter must be at least 0"),
        ],
    )
    def test_bad_solver_override_is_usage_error(
        self, tmp_path, capsys, command, flag, value, message
    ):
        xp, yp = write_xy(tmp_path)
        sizes = {"fit": ["--u", "2"], "select-u": ["--u-max", "2"],
                 "bootstrap": ["--u", "2", "--b", "4"]}[command]
        code = cli.run([command, "--kind", "response", "--x", xp, "--y", yp, flag, value]
                       + sizes)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["fit", "--kind", "response", "--u", "1"],
        ["select-u", "--kind", "response", "--u-max", "1", "--criterion", "bic"],
        ["select-u", "--kind", "response", "--u-max", "1", "--criterion", "cv"],
        ["bootstrap", "--kind", "response", "--u", "1", "--b", "4"],
        ["simulate", "--mode", "population", "--d", "3", "--u", "1", "--reps", "1"],
        ["simulate", "--mode", "sample", "--d", "3", "--u", "1", "--n", "10", "--reps", "1"],
    ])
    def test_negative_seed_is_usage_error(self, capsys, command):
        # validated before any file IO, so the paths need not exist
        if command[0] != "simulate":
            command = command + ["--x", "no.csv", "--y", "no.csv"]
        assert cli.run(command + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0\n"

    def test_zero_max_iter_keeps_the_warm_start(self, tmp_path, capsys):
        # fg-warm's start is the sequential fit stopped at sqrt(gradient_tol)
        xp, yp = write_xy(tmp_path)
        start_tol = repr(math.sqrt(FgSettings().gradient_tol))
        gammas = []
        for extra in (
            ["--algo", "onedim", "--gradient-tol", start_tol],
            ["--algo", "fg-warm", "--max-iter", "0"],
        ):
            args = ["fit", "--kind", "response", "--x", xp, "--y", yp, "--u", "2"]
            assert cli.run(args + extra) == 0
            gammas.append(np.array(json.loads(capsys.readouterr().out)["records"][0]["gamma"]))
        onedim_gamma, warm_gamma = gammas
        np.testing.assert_allclose(warm_gamma, onedim_gamma, atol=1e-12)

    def test_fit_happy_path(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)
        code = cli.run(["fit", "--kind", "response", "--x", xp, "--y", yp, "--u", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith('{"version":"1","config":')
        report = json.loads(text)
        assert report["config"]["command"] == "fit"
        rec = report["records"][0]
        assert rec["u"] == 2
        assert len(rec["gamma"]) == 5
        assert len(rec["beta_env"]) == 5

    def test_fit_reads_csv_with_a_byte_order_mark(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)
        marked = []
        for name, path in (("bom-x.csv", xp), ("bom-y.csv", yp)):
            with open(path, "rb") as fh:
                (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + fh.read())
            marked.append(str(tmp_path / name))
        records = []
        for x, y in ((xp, yp), marked):
            assert cli.run(["fit", "--kind", "response", "--x", x, "--y", y, "--u", "2"]) == 0
            records.append(json.loads(capsys.readouterr().out)["records"])
        assert records[0] == records[1]


def run_to_file(args, out):
    code = cli.run(args + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


class TestDeterminism:
    def test_simulate_report_bytes_stable_across_reruns(self, tmp_path):
        out = tmp_path / "rep.json"
        args = [
            "simulate", "--mode", "population", "--d", "6", "--u", "2",
            "--reps", "4", "--algo", "onedim", "--seed", "42",
        ]
        first = run_to_file(args, out)
        second = run_to_file(args, out)
        third = run_to_file(args, out)
        assert first == second == third
        assert b"wall_time_seconds" not in first

    def test_fit_stdout_stable(self, tmp_path, capsys):
        xp, yp = write_xy(tmp_path)
        args = ["fit", "--kind", "response", "--x", xp, "--y", yp, "--u", "2",
                "--seed", "7"]
        assert cli.run(args) == 0
        first = capsys.readouterr().out
        assert cli.run(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "command",
        [
            ["fit", "--algo", "fg-warm", "--u", "2"],
            ["select-u", "--criterion", "bic", "--u-max", "3"],
        ],
    )
    def test_seed_reaches_only_the_config(self, tmp_path, capsys, command):
        # neither a single fit nor a BIC scan resamples, so --seed changes
        # the echoed config and nothing the solvers compute
        xp, yp = write_xy(tmp_path)
        records = []
        for seed in ("3", "4"):
            args = command + ["--kind", "response", "--x", xp, "--y", yp, "--seed", seed]
            assert cli.run(args) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["config"]["seed"] == int(seed)
            records.append(report["records"])
        assert records[0] == records[1]

    def test_seed_help_names_what_it_drives(self, capsys):
        assert cli.run(["fit", "--help"]) == 0
        assert "bootstrap resampling only" in " ".join(capsys.readouterr().out.split())


def test_csv_summary_grid(tmp_path):
    out = tmp_path / "rep.json"
    grid = tmp_path / "summary.csv"
    code = cli.run(
        [
            "simulate", "--mode", "population", "--d", "5", "--u", "2",
            "--reps", "3", "--algo", "onedim", "--algo", "fg", "--seed", "3",
            "--out", str(out), "--csv-summary", str(grid),
        ]
    )
    assert code == 0
    lines = grid.read_text().splitlines()
    assert lines[0] == (
        "algorithm,mean_distance,se_distance,mean_time_seconds,"
        "se_time_seconds,replications_ok,replications_failed"
    )
    assert len(lines) == 3
    assert lines[1].startswith("fg,")
    assert lines[2].startswith("onedim,")
    fg_cells = lines[1].split(",")
    assert float(fg_cells[3]) >= 0.0  # timing lives here, not in the JSON
    assert fg_cells[5] == "3"


def test_repeated_algo_flags_do_not_carry_over(tmp_path):
    # run parses every argv with one parser; each run's appended --algo
    # list must start empty
    out = tmp_path / "rep.json"
    base = ["simulate", "--mode", "population", "--d", "4", "--u", "1", "--reps", "1"]
    for algos in (["fg", "onedim"], ["fg-warm"], []):
        flags = [f for a in algos for f in ("--algo", a)]
        report = json.loads(run_to_file(base + flags, out))
        expected = algos or ["onedim"]
        assert report["config"]["algorithms"] == expected
        assert sorted(report["summary"]) == sorted(expected)
        assert sorted({r["algorithm"] for r in report["records"]}) == sorted(expected)


def test_simulate_records_a_singular_sample(tmp_path):
    out = tmp_path / "rep.json"
    args = ["simulate", "--mode", "sample", "--d", "10", "--u", "3", "--n", "8", "--reps", "2"]
    report = json.loads(run_to_file(args, out))
    assert [r["seed"] for r in report["records"]] == [1, 2]
    for rec in report["records"]:
        assert rec["error"] == "SingularCovariance: sample covariance of Y is singular"
    assert report["summary"]["onedim"]["replications_failed"] == 2


def test_select_u_report_shape(tmp_path, capsys):
    xp, yp = write_xy(tmp_path, d=5, u=2, n=400, seed=90)
    code = cli.run(
        ["select-u", "--criterion", "bic", "--kind", "response",
         "--x", xp, "--y", yp, "--u-max", "4"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["u"] for r in report["records"]] == [1, 2, 3, 4]
    assert report["summary"]["criterion"] == "bic"
    assert report["summary"]["u_star"] in (1, 2, 3, 4)


def test_bootstrap_report_shape(tmp_path, capsys):
    xp, yp = write_xy(tmp_path, n=150)
    code = cli.run(
        ["bootstrap", "--kind", "response", "--x", xp, "--y", yp,
         "--u", "2", "--b", "20", "--seed", "5"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["replicates"] == 20
    se = np.array(report["summary"]["se_ols"])
    assert se.shape == (5, 1)
    assert (se > 0).all()


def test_bootstrap_summary_names_failures(tmp_path, capsys, monkeypatch):
    calls = []

    def failing_once(m, u, result):
        calls.append(None)
        return stuck(m) if len(calls) == 3 else result

    route_fits(monkeypatch, failing_once)
    xp, yp = write_xy(tmp_path, n=150)
    code = cli.run(
        ["bootstrap", "--kind", "response", "--x", xp, "--y", yp,
         "--u", "2", "--b", "10", "--seed", "5"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert list(summary)[-2:] == ["failed", "failures"]
    assert summary["failed"] == 1
    assert summary["failures"] == {"NoConvergence": 1}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "envest.cli",
            "simulate", "--mode", "population", "--d", "4", "--u", "1",
            "--reps", "1", "--seed", "1",
        ],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith('{"version":"1",')


@pytest.fixture
def blas_threads():
    """(get, set) for numpy's OpenBLAS thread count, restored after the test;
    skips where numpy uses another BLAS."""
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy does not use an OpenBLAS whose threads can be set")
    get, put = blas
    threads = get()
    yield get, put
    put(threads)


class TestOneBlasThread:
    # at d = 100 OpenBLAS splits the LU factorization behind solve over its
    # threads, which rounds differently from one thread
    LARGE = ["simulate", "--mode", "population", "--d", "100", "--u", "10",
             "--reps", "1", "--seed", "3"]

    def test_report_bytes_do_not_depend_on_the_callers_threads(self, tmp_path, blas_threads):
        _, put = blas_threads
        reports = []
        for threads in (2, 1):
            put(threads)
            reports.append(run_to_file(self.LARGE, tmp_path / "rep.json"))
        assert reports[0] == reports[1]

    def test_commands_run_on_one_thread(self, tmp_path, blas_threads, monkeypatch):
        get, put = blas_threads
        seen = []
        command = cli._COMMANDS["simulate"]

        def recording(args):
            seen.append(get())
            return command(args)

        monkeypatch.setitem(cli._COMMANDS, "simulate", recording)
        put(2)
        run_to_file(["simulate", "--mode", "population", "--d", "4", "--u", "1",
                     "--reps", "1"], tmp_path / "rep.json")
        assert seen == [1]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["simulate", "--mode", "population", "--d", "4", "--u", "1", "--reps", "1"], 0),
            (["fit", "--kind", "mean", "--y", "absent.csv", "--u", "1"], 1),
            (["simulate", "--mode", "population", "--d", "4", "--u", "9", "--reps", "1"], 2),
            (["frobnicate"], 2),
        ],
    )
    def test_callers_count_restored_on_exit(self, capsys, blas_threads, argv, code):
        get, put = blas_threads
        put(2)
        assert cli.run(argv) == code
        assert get() == 2
        capsys.readouterr()

    def test_callers_count_restored_when_a_command_raises(self, blas_threads, monkeypatch):
        get, put = blas_threads

        def broken(args):
            raise RuntimeError("bug in a command")

        monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
        put(2)
        with pytest.raises(RuntimeError, match="bug in a command"):
            cli.run(["simulate", "--mode", "population", "--d", "4", "--u", "1", "--reps", "1"])
        assert get() == 2

    def test_overlapping_runs_in_two_threads_restore_the_callers_count(
        self, tmp_path, blas_threads, monkeypatch
    ):
        # the first run enters, the second enters, the first leaves while
        # the second is still inside, then the second leaves: the count the
        # caller set must come back, and the second run must keep 1 thread
        get, put = blas_threads
        first_inside, second_inside, first_done = (threading.Event() for _ in range(3))
        seen, codes = [], {}
        command = cli._COMMANDS["simulate"]

        def overlapping(args):
            if args.seed == 1:
                first_inside.set()
                assert second_inside.wait(30)
            else:
                second_inside.set()
                assert first_done.wait(30)
                seen.append(get())
            return command(args)

        def runner(seed):
            codes[seed] = cli.run(["simulate", "--mode", "population", "--d", "4", "--u", "1",
                                   "--reps", "1", "--seed", str(seed),
                                   "--out", str(tmp_path / f"rep{seed}.json")])
            if seed == 1:
                first_done.set()

        monkeypatch.setitem(cli._COMMANDS, "simulate", overlapping)
        put(2)
        first = threading.Thread(target=runner, args=(1,))
        second = threading.Thread(target=runner, args=(2,))
        first.start()
        assert first_inside.wait(30)
        second.start()
        first.join(60)
        second.join(60)
        assert codes == {1: 0, 2: 0}
        assert seen == [1]
        assert get() == 2

    def test_without_openblas_reports_are_unchanged(self, tmp_path, monkeypatch):
        args = ["simulate", "--mode", "population", "--d", "6", "--u", "2",
                "--reps", "2", "--seed", "5"]
        expected = run_to_file(args, tmp_path / "rep.json")
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        assert run_to_file(args, tmp_path / "rep.json") == expected
