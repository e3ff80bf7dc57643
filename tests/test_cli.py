import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sepdist
from sepdist import analysis, cli, fileio, fit_extrapolation, gilbert, named_state, states
from conftest import exact_decay_trace, subnormal_trace, with_dims, with_entry

RECORDED_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


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
        doc = json.loads(meta.read_text())
        assert doc["c_s"] == 20
        assert doc["versions"] == {"sepdist": sepdist.__version__, "numpy": np.__version__}
        assert "halted:" in capsys.readouterr().out

    @pytest.mark.parametrize("link", [False, True])
    @pytest.mark.parametrize("flag,message", [("--trace", "cannot write trace"), ("--meta", "cannot write")])
    def test_unwritable_output_is_an_io_error_before_the_run(self, flag, message, link, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(gilbert, "run", lambda *args, **kwargs: runs.append(args))
        outputs = {"--trace": tmp_path / "run.csv", "--meta": tmp_path / "meta.json"}
        outputs[flag] = tmp_path / "no_such_dir" / "out"
        if link:  # a symlink into the missing directory
            (tmp_path / "link").symlink_to(outputs[flag])
            outputs[flag] = tmp_path / "link"
        args = ["run", "--state", "bell", "--halt-cs", "5", *(arg for pair in outputs.items() for arg in map(str, pair))]
        assert cli.main(args) == cli.EXIT_IO
        assert runs == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"sepdist: {message} {str(outputs[flag])!r}:")
        assert [p.name for p in tmp_path.iterdir()] == (["link"] if link else [])

    def test_output_check_creates_and_removes_nothing(self, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("old")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing.csv")  # dangling, in a writable directory
        for path in (kept, link, tmp_path / "new.csv"):
            cli._check_writable(str(path), "cannot write")
        assert kept.read_text() == "old"
        assert link.is_symlink() and not (tmp_path / "missing.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "link"]
        with pytest.raises(cli.CliError) as info:
            cli._check_writable(str(tmp_path), "cannot write")  # a directory
        assert info.value.code == cli.EXIT_IO

    def test_meta_replays_the_run(self, tmp_path):
        named = tmp_path / "named.json"  # its own name field is not a state name
        fileio.write_density(named, named_state("bell"), name="my-bell")
        halt_flags = {"max_successes": "--halt-cs", "max_trials": "--halt-ct", "target_d2": "--halt-d2", "stall_trials": "--stall"}
        for case, state in enumerate(["bell", str(named)]):
            first, second, meta_path = (tmp_path / f"{case}-{name}" for name in ("first.csv", "second.csv", "meta.json"))
            args = ["run", "--state", state, "--real-only", "--sym", "perm:1,0", "--seed", "5", "--halt-cs", "40"]
            assert cli.main([*args, "--trace", str(first), "--meta", str(meta_path)]) == cli.EXIT_OK
            meta = json.loads(meta_path.read_text())
            replay = ["run", "--state", meta["state"], "--seed", str(meta["seed"]), "--init", meta["init"]]
            replay += ["--sym-cap", str(meta["sym_cap"]), *(arg for spec in meta["sym"] for arg in ("--sym", spec))]
            replay += [arg for name, value in meta["halt"].items() for arg in (halt_flags[name], repr(value))]
            if meta["mode"] == "real":
                replay.append("--real-only")
            assert cli.main([*replay, "--trace", str(second)]) == cli.EXIT_OK
            assert second.read_bytes() == first.read_bytes()

    def test_entangled_init_is_a_validation_error(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        code = cli.main(["run", "--state", "bell", "--init", "bell", "--halt-ct", "1000", "--trace", str(trace)])
        assert code == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and not trace.exists()
        assert "not PPT" in err

    def test_dims_that_differ_from_the_state_are_a_validation_error(self, capsys):
        assert cli.main(["run", "--state", "bell", "--dims", "2,3", "--halt-cs", "1"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert "does not match state dims" in err

    @pytest.mark.parametrize("dims", ["0,2", "-2", "1,4"])
    def test_dims_below_two_are_an_argument_error(self, dims, capsys):
        assert cli.main(["run", "--state", "bell", "--dims", dims, "--halt-cs", "1"]) == cli.EXIT_ARGS
        out, err = capsys.readouterr()
        assert out == ""
        assert "--dims entry must be >= 2" in err

    def test_unparsable_dims_are_an_argument_error(self, capsys):
        assert cli.main(["run", "--state", "bell", "--dims", "x", "--halt-cs", "1"]) == cli.EXIT_ARGS
        assert "cannot parse dimensions" in capsys.readouterr().err

    def test_separable_init_runs(self, capsys):
        assert cli.main(["run", "--state", "bell", "--init", "max_entangled_css:2", "--halt-ct", "1000"]) == cli.EXIT_OK
        assert "halted:" in capsys.readouterr().out


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


WITNESS = ["witness", "--state", "bell", "--css", "max_entangled_css:2"]


@pytest.mark.parametrize(
    "command, flag, message, work",
    [
        (["fit", "TRACE", "--stride", "1"], "--out", "cannot write", (analysis, "fit_extrapolation")),
        (WITNESS, "--report", "cannot write", (analysis, "build_witness")),
        (WITNESS, "--operator", "cannot write operator", (analysis, "build_witness")),
        (["state", "bell"], "--out", "cannot write", (states, "named_state")),
    ],
    ids=["fit-out", "witness-report", "witness-operator", "state-out"],
)
def test_unwritable_output_is_an_io_error_before_the_work(command, flag, message, work, trace_path, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(*work, lambda *args, **kwargs: calls.append(args))
    before = sorted(tmp_path.iterdir())
    out_path = tmp_path / "no_such_dir" / "out.json"
    args = [str(trace_path) if arg == "TRACE" else arg for arg in command]
    assert cli.main([*args, flag, str(out_path)]) == cli.EXIT_IO
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"sepdist: {message} {str(out_path)!r}:")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("module", ["sepdist", "sepdist.cli"])
def test_module_entry_point_runs_the_command(module):
    src = str(Path(sepdist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", module, "run", "--state", "no_such_state", "--halt-cs", "1"]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_ARGS
    assert "unknown state name" in proc.stderr


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

    @pytest.mark.parametrize("b", ["1e6", "1e-300"], ids=["overflow", "constant"])
    def test_fit_without_a_finite_correlation_is_a_validation_error(self, trace_path, capsys, b):
        assert cli.main(["fit", str(trace_path), "--stride", "1", "--b-min", b, "--b-max", b]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert "finite correlation" in err

    def test_counters_that_run_backwards_are_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "backwards.csv"
        fileio.write_trace(path, [(700 - 7 * k, k, 1.0 / k) for k in range(1, 41)])
        assert cli.main(["fit", str(path), "--stride", "1"]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert "nondecreasing" in err

    def test_subnormal_minimum_distance_fits(self, tmp_path):
        # the replaced grid's np.geomspace reached 0 here: a ValueError traceback, exit 1
        path, out = tmp_path / "subnormal.csv", tmp_path / "fit.json"
        fileio.write_trace(path, subnormal_trace())
        assert cli.main(["fit", str(path), "--stride", "1", "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert all(np.isfinite([report["a"], report["b"], report["r"]]))
        assert 0.0 <= report["a"] < 5e-324

    def test_missing_trace_is_an_io_error(self, tmp_path):
        assert cli.main(["fit", str(tmp_path / "absent.csv")]) == cli.EXIT_IO

    def test_malformed_trace_is_an_io_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trials,successes\n1,2\n")
        assert cli.main(["fit", str(path)]) == cli.EXIT_IO

    def test_malformed_trace_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(fileio.dumps_trace(exact_decay_trace(0.002, 8.0, n=20)).replace("28,4,", "28,", 1))
        assert cli.main(["fit", str(path)]) == cli.EXIT_IO
        assert "line 5: expected 3 columns, got 2" in capsys.readouterr().err

    def test_malformed_line_after_a_blank_line_is_named_as_in_the_file(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text(f"{fileio.TRACE_HEADER}\n\n7,1,0.5\n14,2\n")
        assert cli.main(["fit", str(path)]) == cli.EXIT_IO
        assert "line 4: expected 3 columns, got 2" in capsys.readouterr().err

    def test_counter_beyond_int64_is_an_io_error(self, tmp_path, capsys):
        # numpy's int64 parse rejects it with a ValueError, which must not escape as a traceback
        path = tmp_path / "big.csv"
        path.write_text(f"{fileio.TRACE_HEADER}\n99999999999999999999,1,0.5\n")
        assert cli.main(["fit", str(path)]) == cli.EXIT_IO
        assert "line 2: c_t '99999999999999999999' is not a decimal integer within int64" in capsys.readouterr().err


class TestRunSym:
    def test_unknown_spec_is_an_argument_error(self):
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", "rotate:1"]) == cli.EXIT_ARGS

    def test_bad_permutation_is_a_validation_error(self, capsys):
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", "perm:0,0"]) == cli.EXIT_VALIDATION
        assert "not a permutation" in capsys.readouterr().err

    def test_repeated_generator_gives_the_group_of_order_two(self, monkeypatch):
        groups = []

        def fake_run(target, halt, **kwargs):  # nothing runs; only the group is kept
            groups.append(kwargs["group"])
            state = gilbert.RunState.initial(target, kwargs["init"])
            return gilbert.RunResult(state, state.trace, 0.0)

        monkeypatch.setattr(gilbert, "run", fake_run)
        args = ["run", "--state", "bell", "--sym", "perm:1,0", "--sym", "perm:1,0", "--halt-cs", "1"]
        assert cli.main(args) == cli.EXIT_OK
        assert [group.order for group in groups] == [2]

    def test_non_hermitian_local_factors_are_accepted(self, tmp_path):
        phase = tmp_path / "s.json"
        fileio.write_state(phase, np.diag([1, 1j]), (2,), kind=fileio.KIND_OPERATOR)
        phase_dagger = tmp_path / "s_dagger.json"
        fileio.write_state(phase_dagger, np.diag([1, -1j]), (2,), kind=fileio.KIND_OPERATOR)
        spec = f"local:{phase},{phase_dagger}"
        assert cli.main(["run", "--state", "bell", "--sym", spec, "--halt-cs", "50"]) == cli.EXIT_OK

    def test_group_that_moves_the_target_is_a_validation_error(self, tmp_path, capsys):
        flip, identity, trace = tmp_path / "x.json", tmp_path / "i.json", tmp_path / "run.csv"
        fileio.write_state(flip, np.array([[0, 1], [1, 0]]), (2,), kind=fileio.KIND_OPERATOR)
        fileio.write_state(identity, np.eye(2), (2,), kind=fileio.KIND_OPERATOR)
        args = ["run", "--state", "bell", "--sym", f"local:{flip},{identity}", "--halt-cs", "50", "--trace", str(trace)]
        assert cli.main(args) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and not trace.exists()
        assert "does not leave the target invariant" in err

    def test_non_unitary_local_factor_is_a_validation_error(self, tmp_path, capsys):
        unitary = tmp_path / "x.json"
        fileio.write_state(unitary, np.array([[0, 1], [1, 0]]), (2,), kind=fileio.KIND_OPERATOR)
        scaled = tmp_path / "twice.json"
        fileio.write_state(scaled, 2.0 * np.eye(2), (2,), kind=fileio.KIND_OPERATOR)
        spec = f"local:{unitary},{scaled}"
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", spec]) == cli.EXIT_VALIDATION
        assert "factor 1 is not unitary" in capsys.readouterr().err


    def test_non_finite_local_factor_is_a_validation_error(self, tmp_path, capsys):
        # NaN factors were accepted, and the closure stopped only at its cap of 1024 products
        nan = tmp_path / "nan.json"
        fileio.write_state(nan, np.full((2, 2), np.nan), (2,), kind=fileio.KIND_OPERATOR)
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", f"local:{nan},{nan}"]) == cli.EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "count, message",
        [(1, "generator 0 acts on dims (2,), expected (2, 2)"), (0, "subsystem dimensions must all be >= 2")],
        ids=["one-factor", "none"],
    )
    def test_wrong_local_factor_count_is_a_validation_error(self, tmp_path, capsys, count, message):
        # the library's own checks refuse it; the CLI kept a copy of the count rule before
        flip = tmp_path / "x.json"
        fileio.write_state(flip, np.array([[0, 1], [1, 0]]), (2,), kind=fileio.KIND_OPERATOR)
        spec = "local:" + ",".join([str(flip)] * count)
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", spec]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and message in err


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

    def test_state_file_is_eigen_checked_once_per_load(self, tmp_path, monkeypatch):
        path = tmp_path / "ghz3.json"
        fileio.write_density(path, named_state("ghz:3"))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rho = cli._load_density(str(path))
        assert len(calls) == 1
        assert np.array_equal(rho.mat, named_state("ghz:3").mat)

    def test_operator_file_as_state_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "op.json"
        fileio.write_state(path, named_state("bell").mat, (2, 2), kind=fileio.KIND_OPERATOR)
        assert cli.main(["run", "--state", str(path), "--halt-ct", "10"]) == cli.EXIT_VALIDATION
        assert "not a density matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims",
        [[2.7, 2.2], ["2", "2"], "22", {"2": None, "02": None}, [True, 4], []],
        ids=["floats", "strings", "string", "object", "bool", "empty"],
    )
    def test_dims_that_are_not_positive_integers_are_an_io_error(self, tmp_path, capsys, dims):
        path = tmp_path / "state.json"
        path.write_text(with_dims(dims))
        assert cli.main(["witness", "--state", str(path), "--css", "max_entangled_css:2"]) == cli.EXIT_IO
        assert "dims must be a JSON array of positive integers" in capsys.readouterr().err

    def test_negative_dims_of_a_local_factor_are_an_io_error(self, tmp_path, capsys):
        # [-2, -1] multiplies to 2, so this flip was read as a 2 x 2 factor and the run exited 0
        flip = tmp_path / "x.json"
        flip.write_text(with_dims([-2, -1], np.array([[0, 1], [1, 0]]), kind=fileio.KIND_OPERATOR))
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", f"local:{flip},{flip}"]) == cli.EXIT_IO
        assert "cannot read matrix file" in capsys.readouterr().err

    def test_unit_dimension_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(with_dims([1, 4]))
        assert cli.main(["witness", "--state", str(path), "--css", "max_entangled_css:2"]) == cli.EXIT_VALIDATION
        assert "must all be >= 2" in capsys.readouterr().err

    def test_local_factor_with_an_object_entry_is_an_io_error(self, tmp_path, capsys):
        # a KeyError traceback, exit 1, before
        factor = tmp_path / "f.json"
        factor.write_text(with_entry({"0": 1, "1": 0}))
        assert cli.main(["run", "--state", "bell", "--halt-cs", "5", "--sym", f"local:{factor},{factor}"]) == cli.EXIT_IO
        assert "cannot read matrix file" in capsys.readouterr().err

    def test_missing_local_matrix_file_is_an_io_error(self, tmp_path, capsys):
        unitary = tmp_path / "x.json"
        fileio.write_state(unitary, np.array([[0, 1], [1, 0]]), (2,), kind=fileio.KIND_OPERATOR)
        spec = f"local:{unitary},{tmp_path / 'absent.json'}"
        assert cli.main(["run", "--state", "bell", "--halt-cs", "1", "--sym", spec]) == cli.EXIT_IO
        assert "cannot read matrix file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["run", "--halt-ct", "10"], ["witness", "--css", "max_entangled_css:2"]],
    ids=["run", "witness"],
)
def test_non_finite_state_file_is_a_validation_error(command, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(fileio.dumps_state(np.diag([np.nan, 0.25, 0.25, 0.25]), (2, 2)))
    assert cli.main([*command, "--state", str(path)]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert "non-finite" in err


class TestDocumentLayout:
    """Key order, formatting and values of the JSON documents the commands write."""

    def test_fit_report(self, capsys):
        assert cli.main(["fit", str(RECORDED_INPUTS / "bell_trace.csv"), "--stride", "100"]) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            "{\n"
            '  "a": 0.3335513889733543,\n'
            '  "b": 5.865567771717906,\n'
            '  "r": 0.9999417933009834,\n'
            '  "stride": 100,\n'
            '  "f": 0.5103222611002012,\n'
            '  "r2": 0.998705682541138\n'
            "}\n"
        )

    def test_witness_report(self, capsys):
        css = str(RECORDED_INPUTS / "ghz3_iterate.json")
        assert cli.main(["witness", "--state", "ghz:3", "--css", css, "--restarts", "16", "--seed", "0"]) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            "{\n"
            '  "lambda": 0.12208948538477163,\n'
            '  "value_rho0": 0.5861946814626108,\n'
            '  "entangled": true,\n'
            '  "margin": 0.4641051960778392\n'
            "}\n"
        )

    def test_run_metadata(self, tmp_path, capsys):
        meta = tmp_path / "meta.json"
        args = ["run", "--state", "ghz:3", "--sym", "perm:1,0,2", "--sym", "perm:1,2,0", "--halt-cs", "200", "--seed", "1"]
        assert cli.main([*args, "--meta", str(meta)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "halted: c_t=19367 c_s=200 d2=0.4979228033884481\n"
        text = meta.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert list(doc) == [
            "state", "dims", "seed", "mode", "init", "sym", "sym_cap", "halt",
            "final_d2", "c_t", "c_s", "wall_seconds", "versions",
        ]  # fmt: skip
        assert isinstance(doc.pop("wall_seconds"), float)
        assert doc == {
            "state": "ghz:3",
            "dims": [2, 2, 2],
            "seed": 1,
            "mode": "complex",
            "init": "maxmix",
            "sym": ["perm:1,0,2", "perm:1,2,0"],
            "sym_cap": 1024,
            "halt": {"max_successes": 200, "stall_trials": 1_000_000},
            "final_d2": 0.4979228033884481,
            "c_t": 19367,
            "c_s": 200,
            "versions": {"sepdist": sepdist.__version__, "numpy": np.__version__},
        }


class TestErrorMapping:
    """Library errors that reach the CLI exit 3 (I/O, file format) or 4 (rejected input)."""

    def test_group_over_its_cap_is_a_validation_error(self, capsys):
        args = ["run", "--state", "bell", "--sym", "perm:1,0", "--sym-cap", "1", "--halt-cs", "1"]
        assert cli.main(args) == cli.EXIT_VALIDATION
        assert "cannot build symmetry group" in capsys.readouterr().err

    @pytest.mark.parametrize("sym", [["--sym", "perm:1,0"], []], ids=["with-sym", "without-sym"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_group_cap_below_one_is_an_argument_error(self, tmp_path, capsys, sym, cap):
        meta = tmp_path / "meta.json"
        args = ["run", "--state", "bell", *sym, "--sym-cap", cap, "--halt-cs", "1", "--meta", str(meta)]
        assert cli.main(args) == cli.EXIT_ARGS
        assert f"--sym-cap must be >= 1, got {cap}" in capsys.readouterr().err
        assert not meta.exists()

    def test_state_path_that_is_a_directory_is_an_io_error(self, tmp_path, capsys):
        assert cli.main(["run", "--state", str(tmp_path), "--halt-cs", "1"]) == cli.EXIT_IO
        assert "bad state file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, message",
        [
            (["fit", "{F}"], "cannot read trace"),
            (["witness", "--state", "bell", "--css", "{F}"], "bad state file"),
            (["run", "--state", "{F}", "--halt-cs", "2"], "bad state file"),
        ],
        ids=["fit", "witness-css", "run-state"],
    )
    def test_file_that_is_not_utf8_is_an_io_error(self, tmp_path, capsys, command, message):
        # a UnicodeDecodeError traceback, exit 1, before
        path = tmp_path / "f"
        path.write_bytes(b"\xff\xfe\x00")
        assert cli.main([arg.replace("{F}", str(path)) for arg in command]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert message in err and "not UTF-8 text" in err

    def test_init_dims_mismatch_is_a_validation_error(self, capsys):
        assert cli.main(["run", "--state", "bell", "--init", "ghz:3", "--halt-cs", "1"]) == cli.EXIT_VALIDATION
        assert "initial state dims" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["state", "{N}"], ["run", "--state", "{N}", "--halt-cs", "1"], ["witness", "--state", "bell", "--css", "{N}"]],
        ids=["state", "run", "witness"],
    )
    @pytest.mark.parametrize("name", ["ghz:99999999999999999999", "ghz:40", "ghz_css:70", "max_entangled:100000"])
    def test_state_name_too_large_to_build_is_an_argument_error(self, capsys, command, name):
        # before, a 2**n that did not return or a numpy traceback, exit 1
        tracemalloc.start()
        try:
            assert cli.main([arg.replace("{N}", name) for arg in command]) == cli.EXIT_ARGS
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # nothing the size of a state was allocated
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "module, attr, command",
        [
            (gilbert, "run", ["run", "--state", "bell", "--halt-cs", "1"]),
            (analysis, "build_witness", ["witness", "--state", "bell", "--css", "max_entangled_css:2"]),
            (states, "named_state", ["state", "bell"]),
        ],
        ids=["run", "witness", "state"],
    )
    @pytest.mark.parametrize("message", ["Unable to allocate 1.49 GiB", ""])
    def test_running_out_of_memory_exits_4_with_one_line(self, monkeypatch, capsys, module, attr, command, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(module, attr, exhausted)
        assert cli.main(command) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"sepdist: out of memory{': ' + message if message else ''}\n"
        assert captured.out == ""

    def test_constant_trial_count_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        fileio.write_trace(path, [rec._replace(trials=1000) for rec in exact_decay_trace(0.002, 8.0, n=300)])
        assert cli.main(["fit", str(path), "--stride", "1"]) == cli.EXIT_VALIDATION
        assert "zero variance" in capsys.readouterr().err
