"""Command-line front end.

Subcommands::

    run      iterate toward the separable set, writing a trace CSV and metadata
    fit      extrapolate a trace file to its distance limit and scaling exponent
    witness  build an entanglement witness from a target and an approximation
    state    write a named reference state as a JSON state file

Exit codes: 0 success, 2 argument errors (including unknown state names),
3 I/O and file-format errors, 4 validation errors (bad states, dimension
mismatches, unusable traces).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, fileio, gilbert, states, symmetry
from .errors import (
    CapacityError,
    DegenerateError,
    DimensionError,
    FileFormatError,
    ParameterError,
    ValidationError,
)
from .linalg import DensityMatrix, maximally_mixed

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

DEFAULT_STALL = 1_000_000  # run --stall when neither --halt-ct nor --stall is given


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_density(spec: str) -> tuple[DensityMatrix, str]:
    """Resolve a state argument: a recognized name first, then a file path."""
    try:
        return states.named_state(spec), spec
    except ParameterError as exc:
        if not os.path.exists(spec):
            raise CliError(EXIT_ARGS, f"{exc} (and no such file)") from exc
    try:
        sf = fileio.read_state(spec)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read state file {spec!r}: {exc}") from exc
    except FileFormatError as exc:
        raise CliError(EXIT_IO, f"bad state file {spec!r}: {exc}") from exc
    except (ValidationError, DimensionError) as exc:
        raise CliError(EXIT_VALIDATION, f"invalid state in {spec!r}: {exc}") from exc
    try:
        return sf.to_density(), sf.name or spec
    except (ValidationError, DimensionError) as exc:
        raise CliError(EXIT_VALIDATION, f"invalid state in {spec!r}: {exc}") from exc


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.replace("x", ",").split(",") if part)
    except ValueError:
        raise CliError(EXIT_ARGS, f"cannot parse dimensions {text!r}") from None
    if not dims:
        raise CliError(EXIT_ARGS, f"cannot parse dimensions {text!r}")
    return dims


def _parse_sym(spec: str, dims: tuple[int, ...]) -> np.ndarray:
    head, _, arg = spec.partition(":")
    if head == "perm":
        perm = _parse_dims(arg)
        try:
            return symmetry.party_permutation(perm, dims)
        except DimensionError as exc:
            raise CliError(EXIT_VALIDATION, f"bad permutation {spec!r}: {exc}") from exc
    if head == "local":
        paths = [p for p in arg.split(",") if p]
        if len(paths) != len(dims):
            raise CliError(
                EXIT_VALIDATION,
                f"local generator needs one matrix per party ({len(dims)}), got {len(paths)}",
            )
        factors = []
        for path in paths:
            try:
                factors.append(fileio.read_state(path).mat)
            except OSError as exc:
                raise CliError(EXIT_IO, f"cannot read matrix file {path!r}: {exc}") from exc
            except FileFormatError as exc:
                raise CliError(EXIT_IO, f"bad matrix file {path!r}: {exc}") from exc
            except (ValidationError, DimensionError) as exc:
                raise CliError(EXIT_VALIDATION, f"invalid matrix in {path!r}: {exc}") from exc
        try:
            return symmetry.local_unitary(factors)
        except (ValidationError, DimensionError) as exc:
            raise CliError(EXIT_VALIDATION, f"bad local generator {spec!r}: {exc}") from exc
    raise CliError(EXIT_ARGS, f"unknown symmetry spec {spec!r} (use perm:... or local:...)")


def _write_or_print(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path!r}: {exc}") from exc


def cmd_run(args) -> int:
    target, state_name = _load_density(args.state)
    if args.dims is not None and _parse_dims(args.dims) != target.dims:
        raise CliError(EXIT_VALIDATION, f"--dims {args.dims} does not match state dims {target.dims}")

    if args.init == "maxmix":
        init = maximally_mixed(target.dims)
    else:
        init, _ = _load_density(args.init)
    if init.dims != target.dims:
        raise CliError(EXIT_VALIDATION, f"initial state dims {init.dims} do not match target dims {target.dims}")

    group = None
    if args.sym:
        generators = [_parse_sym(spec, target.dims) for spec in args.sym]
        try:
            group = symmetry.closure(generators, target.dims, cap=args.sym_cap)
        except (ValidationError, CapacityError, DimensionError) as exc:
            raise CliError(EXIT_VALIDATION, f"cannot build symmetry group: {exc}") from exc

    stall = args.stall
    if stall is None and args.halt_ct is None:
        stall = DEFAULT_STALL  # guarantees termination
    try:
        halt = gilbert.HaltCriteria(
            max_successes=args.halt_cs,
            max_trials=args.halt_ct,
            target_d2=args.halt_d2,
            stall_trials=stall,
        )
    except ParameterError as exc:
        raise CliError(EXIT_ARGS, f"bad halt criteria: {exc}") from exc
    try:
        config = states.SamplerConfig(mode="real" if args.real_only else "complex", seed=args.seed)
    except ParameterError as exc:
        raise CliError(EXIT_ARGS, f"bad sampler settings: {exc}") from exc

    try:
        result = gilbert.run(target, halt, init=init, group=group, config=config)
    except (ValidationError, DimensionError, ParameterError) as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc

    if args.trace is not None:
        try:
            fileio.write_trace(args.trace, result.trace)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write trace {args.trace!r}: {exc}") from exc
    if args.meta is not None:
        meta = fileio.run_metadata(
            state_name,
            target.dims,
            args.seed,
            halt.as_dict(),
            result.state.d2,
            result.state.trials,
            result.state.successes,
            result.wall_seconds,
            mode=config.mode,
            init=args.init,
            sym=args.sym,
            sym_cap=args.sym_cap,
        )
        _write_or_print(fileio.dumps_json(meta), args.meta)
    final = result.state
    print(f"halted: c_t={final.trials} c_s={final.successes} d2={final.d2!r}")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        trace = fileio.read_trace(args.trace)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read trace {args.trace!r}: {exc}") from exc
    except FileFormatError as exc:
        raise CliError(EXIT_IO, f"bad trace file {args.trace!r}: {exc}") from exc
    try:
        ext = analysis.fit_extrapolation(trace, stride=args.stride, b_range=(args.b_min, args.b_max))
        power = analysis.fit_power(trace)
    except (ParameterError, DegenerateError) as exc:
        raise CliError(EXIT_VALIDATION, f"cannot fit trace: {exc}") from exc
    _write_or_print(fileio.dumps_json(fileio.fit_report(ext, power)), args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.seed < 0:
        raise CliError(EXIT_ARGS, f"--seed must be nonnegative, got {args.seed}")
    target, _ = _load_density(args.state)
    approx, _ = _load_density(args.css)
    if target.dims != approx.dims:
        raise CliError(
            EXIT_VALIDATION,
            f"state dims {target.dims} do not match approximation dims {approx.dims}",
        )
    rng = np.random.default_rng(args.seed)
    try:
        witness = analysis.build_witness(target, approx, restarts=args.restarts, rng=rng)
    except ParameterError as exc:
        raise CliError(EXIT_VALIDATION, f"cannot build witness: {exc}") from exc
    if args.operator is not None:  # before the report: a failed write emits no report
        try:
            fileio.write_state(args.operator, witness.operator, witness.dims, kind=fileio.KIND_OPERATOR)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write operator {args.operator!r}: {exc}") from exc
    _write_or_print(fileio.dumps_json(fileio.witness_report(witness)), args.report)
    return EXIT_OK


def cmd_state(args) -> int:
    try:
        rho = states.named_state(args.name)
    except ParameterError as exc:
        raise CliError(EXIT_ARGS, str(exc)) from exc
    text = fileio.dumps_state(rho.mat, rho.dims, kind=fileio.KIND_DENSITY, name=args.name)
    _write_or_print(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepdist",
        description="Upper bounds on the Hilbert-Schmidt distance to the separable set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="iterate toward the separable set")
    runp.add_argument("--state", required=True, help="named state or state-file path")
    runp.add_argument("--dims", help="expected subsystem dimensions, e.g. 2,2 (cross-check)")
    runp.add_argument("--init", default="maxmix", help="initial separable state: maxmix, name, or file")
    runp.add_argument("--halt-cs", type=int, help="stop after this many accepted corrections")
    runp.add_argument("--halt-ct", type=int, help="stop after this many trials")
    runp.add_argument("--halt-d2", type=float, help="stop once d2 falls to this value")
    runp.add_argument(
        "--stall",
        type=int,
        help=f"stop after this many trials without a correction (default {DEFAULT_STALL:_} unless --halt-ct is given)",
    )
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument(
        "--sym",
        action="append",
        default=[],
        help="symmetry generator, repeatable: perm:0,2,1 (party permutation) or "
        "local:f1,f2 (one unitary per party, each an operator state file)",
    )
    runp.add_argument("--sym-cap", type=int, default=1024, help="max group order for closure")
    runp.add_argument("--real-only", action="store_true", help="draw real-amplitude trial states")
    runp.add_argument("--trace", help="write the success trace CSV here")
    runp.add_argument("--meta", help="write run metadata JSON here")
    runp.set_defaults(func=cmd_run)

    fitp = sub.add_parser("fit", help="extrapolate a trace file")
    fitp.add_argument("trace", help="trace CSV path")
    fitp.add_argument("--stride", type=int, default=analysis.DEFAULT_STRIDE)
    fitp.add_argument("--b-min", type=float, default=1.0, help="lower end of the exponent search range (0 < b_min <= b_max)")
    fitp.add_argument("--b-max", type=float, default=20.0, help="upper end of the exponent search range; equal to --b-min fixes the exponent")
    fitp.add_argument("--out", help="write the report here instead of stdout")
    fitp.set_defaults(func=cmd_fit)

    witp = sub.add_parser("witness", help="build an entanglement witness")
    witp.add_argument("--state", required=True, help="target state: name or file")
    witp.add_argument("--css", required=True, help="separable approximation: name or file")
    witp.add_argument("--restarts", type=int, default=analysis.DEFAULT_RESTARTS)
    witp.add_argument("--seed", type=int, default=0)
    witp.add_argument("--report", help="write the report here instead of stdout")
    witp.add_argument("--operator", help="write the witness operator state file here")
    witp.set_defaults(func=cmd_witness)

    statep = sub.add_parser("state", help="write a named reference state")
    statep.add_argument("name", help="bell, max_entangled:d, max_entangled_css:d, ghz:N, ghz_css:N, upb_tiles, real_limit_bell")
    statep.add_argument("--out", help="write the state file here instead of stdout")
    statep.set_defaults(func=cmd_state)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"sepdist: {exc}", file=sys.stderr)
        return exc.code


def entry() -> None:
    sys.exit(main())
