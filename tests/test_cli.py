import json

import pytest

from sepdist import cli, fileio, fit_extrapolation
from conftest import exact_decay_trace


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.csv"
    fileio.write_trace(path, exact_decay_trace(0.002, 8.0, n=300))
    return path


class TestRun:
    @pytest.mark.parametrize(
        "halt_args",
        [["--halt-ct", "-1"], ["--halt-cs", "-1"], ["--stall", "-1"], ["--halt-d2", "-0.5"]],
    )
    def test_negative_halt_value_is_an_argument_error(self, halt_args, capsys):
        assert cli.main(["run", "--state", "bell", *halt_args]) == cli.EXIT_ARGS
        assert "nonnegative" in capsys.readouterr().err

    def test_unknown_state_is_an_argument_error(self):
        assert cli.main(["run", "--state", "no_such_state", "--halt-cs", "1"]) == cli.EXIT_ARGS

    def test_writes_a_readable_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        meta = tmp_path / "meta.json"
        code = cli.main(["run", "--state", "bell", "--halt-cs", "20", "--seed", "3", "--trace", str(trace), "--meta", str(meta)])
        assert code == cli.EXIT_OK
        records = fileio.read_trace(trace)
        assert len(records) == 20
        assert all(b.d2 < a.d2 for a, b in zip(records, records[1:]))
        assert json.loads(meta.read_text())["c_s"] == 20
        assert "halted:" in capsys.readouterr().out


class TestFit:
    def test_report_matches_the_library_fit(self, trace_path, tmp_path):
        out = tmp_path / "fit.json"
        assert cli.main(["fit", str(trace_path), "--stride", "1", "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        fit = fit_extrapolation(fileio.read_trace(trace_path), stride=1)
        assert (report["a"], report["b"], report["r"]) == (fit.a, fit.b, fit.r)
        assert report["stride"] == 1

    def test_equal_b_bounds_are_accepted(self, trace_path, tmp_path):
        out = tmp_path / "fit.json"
        code = cli.main(["fit", str(trace_path), "--stride", "1", "--b-min", "8", "--b-max", "8", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["b"] == 8.0

    @pytest.mark.parametrize(
        "fit_args",
        [["--stride", "0"], ["--b-min", "20", "--b-max", "1"], ["--b-min", "0"], ["--b-min", "-2"]],
    )
    def test_unusable_fit_settings_are_validation_errors(self, trace_path, fit_args):
        assert cli.main(["fit", str(trace_path), *fit_args]) == cli.EXIT_VALIDATION

    def test_missing_trace_is_an_io_error(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "absent.csv")]) == cli.EXIT_IO

    def test_malformed_trace_is_an_io_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trials,successes\n1,2\n")
        assert cli.main(["fit", str(path)]) == cli.EXIT_IO
