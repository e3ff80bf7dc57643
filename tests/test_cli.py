import json

import numpy as np
import pytest

from sepdist import cli, fileio, fit_extrapolation, gilbert, named_state
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

    def test_non_finite_halt_target_is_an_argument_error(self):
        # --halt-ct keeps the run finite even where a NaN target is accepted.
        assert cli.main(["run", "--state", "bell", "--halt-d2", "nan", "--halt-ct", "1000"]) == cli.EXIT_ARGS

    def test_unknown_state_is_an_argument_error(self):
        assert cli.main(["run", "--state", "no_such_state", "--halt-cs", "1"]) == cli.EXIT_ARGS

    def test_bad_state_parameter_reports_its_reason(self, capsys):
        assert cli.main(["run", "--state", "ghz:1", "--halt-cs", "1"]) == cli.EXIT_ARGS
        assert "party count must be >= 2, got 1" in capsys.readouterr().err

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

    def test_meta_replays_the_run(self, tmp_path):
        first, second, meta_path = tmp_path / "first.csv", tmp_path / "second.csv", tmp_path / "meta.json"
        args = ["run", "--state", "bell", "--real-only", "--sym", "perm:1,0", "--seed", "5", "--halt-cs", "40"]
        assert cli.main([*args, "--trace", str(first), "--meta", str(meta_path)]) == cli.EXIT_OK
        meta = json.loads(meta_path.read_text())
        halt_flags = {"max_successes": "--halt-cs", "max_trials": "--halt-ct", "target_d2": "--halt-d2", "stall_trials": "--stall"}
        replay = ["run", "--state", meta["state"], "--seed", str(meta["seed"]), "--init", meta["init"]]
        replay += ["--sym-cap", str(meta["sym_cap"]), *(arg for spec in meta["sym"] for arg in ("--sym", spec))]
        replay += [arg for name, value in meta["halt"].items() for arg in (halt_flags[name], repr(value))]
        if meta["mode"] == "real":
            replay.append("--real-only")
        assert cli.main([*replay, "--trace", str(second)]) == cli.EXIT_OK
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "command",
    [["run", "--state", "bell", "--halt-cs", "1"], ["witness", "--state", "bell", "--css", "max_entangled_css:2"]],
    ids=["run", "witness"],
)
def test_negative_seed_is_an_argument_error(command, capsys):
    assert cli.main([*command, "--seed", "-1"]) == cli.EXIT_ARGS
    out, err = capsys.readouterr()
    assert out == ""
    assert "nonnegative" in err


class TestRunHalt:
    """Which halt criteria ``run`` passes on; ``gilbert.run`` is replaced, so nothing runs."""

    @pytest.fixture
    def captured(self, monkeypatch):
        seen = []

        def fake_run(target, halt, **kwargs):
            seen.append(halt)
            state = gilbert.RunState.initial(target, kwargs["init"])
            return gilbert.RunResult(state, state.trace, 0.0)

        monkeypatch.setattr(gilbert, "run", fake_run)
        return seen

    @pytest.mark.parametrize(
        "halt_args,expected",
        [
            ([], {"stall_trials": cli.DEFAULT_STALL}),
            (["--halt-cs", "5"], {"max_successes": 5, "stall_trials": cli.DEFAULT_STALL}),
            (["--halt-d2", "0.1"], {"target_d2": 0.1, "stall_trials": cli.DEFAULT_STALL}),
            (["--halt-ct", "7"], {"max_trials": 7}),
            (["--halt-cs", "5", "--stall", "9"], {"max_successes": 5, "stall_trials": 9}),
        ],
        ids=["none", "successes", "distance", "trials", "stall"],
    )
    def test_stall_default_unless_a_trial_limit_is_given(self, captured, halt_args, expected):
        args = ["run", "--state", "max_entangled_css:2", "--init", "max_entangled_css:2", *halt_args]
        assert cli.main(args) == cli.EXIT_OK
        assert [halt.as_dict() for halt in captured] == [expected]


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


class TestRunSym:
    def test_unknown_spec_is_an_argument_error(self):
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", "rotate:1"]) == cli.EXIT_ARGS

    def test_bad_permutation_is_a_validation_error(self, capsys):
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", "perm:0,0"]) == cli.EXIT_VALIDATION
        assert "not a permutation" in capsys.readouterr().err

    def test_non_hermitian_local_factors_are_accepted(self, tmp_path):
        phase = tmp_path / "s.json"
        fileio.write_state(phase, np.diag([1, 1j]), (2,), kind=fileio.KIND_OPERATOR)
        phase_dagger = tmp_path / "s_dagger.json"
        fileio.write_state(phase_dagger, np.diag([1, -1j]), (2,), kind=fileio.KIND_OPERATOR)
        spec = f"local:{phase},{phase_dagger}"
        assert cli.main(["run", "--state", "bell", "--sym", spec, "--halt-cs", "50"]) == cli.EXIT_OK

    def test_non_unitary_local_factor_is_a_validation_error(self, tmp_path, capsys):
        unitary = tmp_path / "x.json"
        fileio.write_state(unitary, np.array([[0, 1], [1, 0]]), (2,), kind=fileio.KIND_OPERATOR)
        scaled = tmp_path / "twice.json"
        fileio.write_state(scaled, 2.0 * np.eye(2), (2,), kind=fileio.KIND_OPERATOR)
        spec = f"local:{unitary},{scaled}"
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", spec]) == cli.EXIT_VALIDATION
        assert "factor 1 is not unitary" in capsys.readouterr().err


class TestWitness:
    def test_unknown_state_is_an_argument_error(self):
        assert cli.main(["witness", "--state", "no_such_state", "--css", "max_entangled_css:2"]) == cli.EXIT_ARGS

    def test_malformed_css_file_is_an_io_error(self, tmp_path, capsys):
        path = tmp_path / "css.json"
        path.write_text('{"dims": [2, 2], "kind": "density"}\n')
        assert cli.main(["witness", "--state", "bell", "--css", str(path)]) == cli.EXIT_IO
        assert "bad state file" in capsys.readouterr().err

    def test_dims_mismatch_is_a_validation_error(self):
        assert cli.main(["witness", "--state", "bell", "--css", "ghz:3"]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_non_positive_restarts_is_a_validation_error(self, restarts, capsys):
        args = ["witness", "--state", "bell", "--css", "max_entangled_css:2", "--restarts", restarts]
        assert cli.main(args) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert "restarts must be >= 1" in err

    def test_unwritable_operator_is_an_io_error_before_any_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        operator = tmp_path / "no_such_dir" / "op.json"
        base = ["witness", "--state", "bell", "--css", "max_entangled_css:2", "--restarts", "1", "--operator", str(operator)]
        assert cli.main(base) == cli.EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot write operator" in err
        assert cli.main([*base, "--report", str(report)]) == cli.EXIT_IO
        assert not report.exists()

    def test_operator_and_report_are_written(self, tmp_path, capsys):
        operator = tmp_path / "op.json"
        args = ["witness", "--state", "bell", "--css", "max_entangled_css:2", "--restarts", "2", "--operator", str(operator)]
        assert cli.main(args) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        loaded = fileio.read_state(operator)
        assert loaded.kind == fileio.KIND_OPERATOR
        assert report["margin"] > 0

    def test_unwritable_report_is_an_io_error(self, tmp_path, capsys):
        report = tmp_path / "no_such_dir" / "report.json"
        args = ["witness", "--state", "bell", "--css", "max_entangled_css:2", "--restarts", "1", "--report", str(report)]
        assert cli.main(args) == cli.EXIT_IO
        assert "cannot write" in capsys.readouterr().err


class TestState:
    def test_unknown_name_is_an_argument_error(self):
        assert cli.main(["state", "no_such_state"]) == cli.EXIT_ARGS

    def test_out_writes_a_loadable_state_file(self, tmp_path):
        out = tmp_path / "ghz3.json"
        assert cli.main(["state", "ghz:3", "--out", str(out)]) == cli.EXIT_OK
        loaded = fileio.read_state(out)
        assert loaded.name == "ghz:3"
        assert np.array_equal(loaded.to_density().mat, named_state("ghz:3").mat)


def write_not_psd(path):
    """A state file that parses (Hermitian, unit trace) but is not positive semidefinite."""
    path.write_text(fileio.dumps_state(np.diag([0.7, 0.5, -0.1, -0.1]), (2, 2)))
    return str(path)


class TestStateFiles:
    def test_not_psd_state_is_a_validation_error_in_run(self, tmp_path, capsys):
        path = write_not_psd(tmp_path / "bad.json")
        assert cli.main(["run", "--state", path, "--halt-ct", "10"]) == cli.EXIT_VALIDATION
        assert "not positive semidefinite" in capsys.readouterr().err

    def test_not_psd_state_is_a_validation_error_in_witness(self, tmp_path):
        path = write_not_psd(tmp_path / "bad.json")
        assert cli.main(["witness", "--state", path, "--css", "max_entangled_css:2"]) == cli.EXIT_VALIDATION
        assert cli.main(["witness", "--state", "bell", "--css", path]) == cli.EXIT_VALIDATION

    def test_operator_file_as_state_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "op.json"
        fileio.write_state(path, named_state("bell").mat, (2, 2), kind=fileio.KIND_OPERATOR)
        assert cli.main(["run", "--state", str(path), "--halt-ct", "10"]) == cli.EXIT_VALIDATION
        assert "not a density matrix" in capsys.readouterr().err

    def test_missing_local_matrix_file_is_an_io_error(self, tmp_path, capsys):
        unitary = tmp_path / "x.json"
        fileio.write_state(unitary, np.array([[0, 1], [1, 0]]), (2,), kind=fileio.KIND_OPERATOR)
        spec = f"local:{unitary},{tmp_path / 'absent.json'}"
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", spec]) == cli.EXIT_IO
        assert "cannot read matrix file" in capsys.readouterr().err
