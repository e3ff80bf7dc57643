"""Command-line front end.

Subcommands::

    run      iterate toward the separable set, writing a trace CSV and metadata
    fit      extrapolate a trace file to its distance limit and scaling exponent
    witness  build an entanglement witness from a target and an approximation
    state    write a named reference state as a JSON state file

Exit codes: 0 success, 2 for a raw argument value (an oversized state name
included), 3 for I/O or a file format, 4 for anything the library
rejects (``--stride``, ``--b-min``/``--b-max`` and ``--restarts`` included)
and for running out of memory.  ``sepdist --help`` prints the rule in full
(``EXIT_HELP``); :func:`_failures` is the one place that maps library errors
to these codes, and :func:`main` maps ``MemoryError``.

``run --meta``, ``fit`` and ``witness`` build their JSON documents in the
command; ``fileio`` holds only the formats it reads back.  ``meta.json``
records the replay fields ``state`` (the argument as given: a name or a
path), ``dims``, ``seed``, ``mode``, ``init``, ``sym``, ``sym_cap``,
``halt`` (by ``HaltCriteria`` field name) and ``versions``, and the outcome
``final_d2``, ``c_t``, ``c_s`` and ``wall_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__, analysis, fileio, gilbert, states, symmetry
from .errors import FileFormatError, ParameterError, SepdistError
from .linalg import DensityMatrix, int_arg

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

EXIT_HELP = (
    "exit codes: 0 success; 2 a raw argument value is malformed or out of range "
    "(halt criteria, --seed, --dims, --sym syntax, --sym-cap, unknown or oversized state name); "
    "3 a file cannot be read or written or does not parse; "
    "4 the library rejects an input (invalid state, mismatched dimensions, a group that "
    "moves the target, an unusable trace, --stride, --b-min/--b-max, --restarts) or memory runs out"
)

DEFAULT_STALL = 1_000_000  # run --stall when neither --halt-ct nor --stall is given


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _failures(step: str, raw: bool = False):
    """Re-raise an error of the block as a :class:`CliError` whose message starts with ``step``.

    ``OSError`` and :class:`FileFormatError` exit 3.  A :class:`ParameterError`
    exits 2 when ``raw`` marks the block's input as a value taken as given
    from the command line; it and every other library error exit 4 otherwise.
    """
    try:
        yield
    except (OSError, FileFormatError) as exc:
        raise CliError(EXIT_IO, f"{step}: {exc}") from exc
    except SepdistError as exc:
        code = EXIT_ARGS if raw and isinstance(exc, ParameterError) else EXIT_VALIDATION
        raise CliError(code, f"{step}: {exc}") from exc


def _load_density(spec: str) -> DensityMatrix:
    """Resolve a state argument: a recognized name first, then a file path."""
    try:
        return states.named_state(spec)
    except ParameterError as exc:
        if not os.path.exists(spec):
            raise CliError(EXIT_ARGS, f"{exc} (and no such file)") from exc
    with _failures(f"bad state file {spec!r}"):
        return fileio.read_state(spec).to_density()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.replace("x", ",").split(",") if part)
    except ValueError:
        raise CliError(EXIT_ARGS, f"cannot parse dimensions {text!r}") from None
    if not dims:
        raise CliError(EXIT_ARGS, f"cannot parse dimensions {text!r}")
    return dims


def _parse_sym(spec: str, dims: tuple[int, ...]) -> symmetry.PermutedLocal:
    head, _, arg = spec.partition(":")
    if head == "perm":
        perm = _parse_dims(arg)
        with _failures(f"bad permutation {spec!r}"):
            return symmetry.party_permutation(perm, dims)
    if head == "local":
        paths = [p for p in arg.split(",") if p]
        if len(paths) != len(dims):
            raise CliError(
                EXIT_VALIDATION,
                f"local generator needs one matrix per party ({len(dims)}), got {len(paths)}",
            )
        factors = []
        for path in paths:
            with _failures(f"cannot read matrix file {path!r}"):
                factors.append(fileio.read_state(path).mat)
        with _failures(f"bad local generator {spec!r}"):
            return symmetry.local_unitary(factors)
    raise CliError(EXIT_ARGS, f"unknown symmetry spec {spec!r} (use perm:... or local:...)")


def _write_or_print(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with _failures(f"cannot write {path!r}"), open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def _write_json(doc: dict, path) -> None:
    _write_or_print(json.dumps(doc, indent=2) + "\n", path)


def _check_writable(path, step: str) -> None:
    """Fail with ``step``'s message unless ``path`` can be written; create and remove nothing.

    An existing file (or a symlink's existing target) is opened for append;
    for a missing one, the directory it would be made in (a dangling
    symlink's target's) must be a writable directory.
    """
    real = os.path.realpath(path)
    if os.path.exists(real):
        with _failures(step), open(real, "a", encoding="utf-8"):
            pass
        return
    parent = os.path.dirname(real)
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise CliError(EXIT_IO, f"{step}: no writable directory {parent!r}")


def cmd_run(args) -> int:
    with _failures("bad group cap", raw=True):  # also without --sym: meta.json records it
        int_arg("--sym-cap", args.sym_cap, 1)
    target = _load_density(args.state)
    if args.dims is not None and _parse_dims(args.dims) != target.dims:
        raise CliError(EXIT_VALIDATION, f"--dims {args.dims} does not match state dims {target.dims}")
    init = None if args.init == "maxmix" else _load_density(args.init)  # None: run's maximally mixed default

    group = None
    if args.sym:
        generators = [_parse_sym(spec, target.dims) for spec in args.sym]
        with _failures("cannot build symmetry group"):
            group = symmetry.closure(generators, target.dims, cap=args.sym_cap)

    stall = args.stall
    if stall is None and args.halt_ct is None:
        stall = DEFAULT_STALL  # guarantees termination
    with _failures("bad halt criteria", raw=True):
        halt = gilbert.HaltCriteria(
            max_successes=args.halt_cs,
            max_trials=args.halt_ct,
            target_d2=args.halt_d2,
            stall_trials=stall,
        )
    with _failures("bad sampler settings", raw=True):
        config = states.SamplerConfig(mode="real" if args.real_only else "complex", seed=args.seed)

    with _failures("cannot run"):
        result = gilbert.run(target, halt, init=init, group=group, config=config)

    final = result.state
    if args.trace is not None:
        with _failures(f"cannot write trace {args.trace!r}"):
            fileio.write_trace(args.trace, final.trace)
    if args.meta is not None:
        # versions: a seeded trajectory
        # replays bit for bit only on the same numpy kernels, since its bits depend on
        # how they round (numpy's complex multiply, for one, may round a squared modulus
        # re*re + im*im as the fused multiply-add fma(re, re, im*im)).
        meta = {
            "state": args.state,
            "dims": list(target.dims),
            "seed": args.seed,
            "mode": config.mode,
            "init": args.init,
            "sym": args.sym,
            "sym_cap": args.sym_cap,
            "halt": halt.as_dict(),
            "final_d2": final.d2,
            "c_t": final.trials,
            "c_s": final.successes,
            "wall_seconds": result.wall_seconds,
            "versions": {"sepdist": __version__, "numpy": np.__version__},
        }
        _write_json(meta, args.meta)
    print(f"halted: c_t={final.trials} c_s={final.successes} d2={final.d2!r}")
    return EXIT_OK


def cmd_fit(args) -> int:
    with _failures(f"cannot read trace {args.trace!r}"):
        trace = fileio.read_trace(args.trace)
    with _failures("cannot fit trace"):
        ext = analysis.fit_extrapolation(trace, stride=args.stride, b_range=(args.b_min, args.b_max))
        power = analysis.fit_power(trace)
    report = {"a": ext.a, "b": ext.b, "r": ext.r, "stride": ext.stride, "f": power.f, "r2": power.r2}
    _write_json(report, args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    with _failures("bad seed", raw=True):
        int_arg("--seed", args.seed, 0)
    target = _load_density(args.state)
    approx = _load_density(args.css)
    rng = np.random.default_rng(args.seed)
    with _failures("cannot build witness"):
        witness = analysis.build_witness(target, approx, restarts=args.restarts, rng=rng)
    if args.operator is not None:  # before the report: a failed write emits no report
        with _failures(f"cannot write operator {args.operator!r}"):
            fileio.write_state(args.operator, witness.operator, witness.dims, kind=fileio.KIND_OPERATOR)
    report = {
        "lambda": witness.sep_bound,
        "value_rho0": witness.target_value,
        "entangled": witness.entangled,
        "margin": witness.margin,
    }
    _write_json(report, args.report)
    return EXIT_OK


def cmd_state(args) -> int:
    with _failures("cannot build state", raw=True):
        rho = states.named_state(args.name)
    text = fileio.dumps_state(rho.mat, rho.dims, kind=fileio.KIND_DENSITY, name=args.name)
    _write_or_print(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepdist",
        description="Upper bounds on the Hilbert-Schmidt distance to the separable set.",
        epilog=EXIT_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="iterate toward the separable set")
    runp.add_argument("--state", required=True, help="named state or state-file path")
    runp.add_argument("--dims", help="expected subsystem dimensions, e.g. 2,2 (cross-check)")
    runp.add_argument(
        "--init",
        default="maxmix",
        help="initial state: maxmix, name, or file; it must be separable (one that is not PPT is "
        "rejected, but a PPT entangled state such as upb_tiles cannot be detected)",
    )
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
        "local:f1,f2 (one unitary per party, each an operator state file); "
        "the group must leave the target invariant",
    )
    runp.add_argument("--sym-cap", type=int, default=symmetry.DEFAULT_CAP, help="max group order for closure")
    runp.add_argument("--real-only", action="store_true", help="draw real-amplitude trial states")
    runp.add_argument("--trace", help="write the success trace CSV here")
    runp.add_argument("--meta", help="write run metadata JSON here")
    runp.set_defaults(func=cmd_run, outputs={"trace": "cannot write trace", "meta": "cannot write"})

    fitp = sub.add_parser("fit", help="extrapolate a trace file")
    fitp.add_argument("trace", help="trace CSV path")
    fitp.add_argument("--stride", type=int, default=analysis.DEFAULT_STRIDE)
    fitp.add_argument("--b-min", type=float, default=analysis.DEFAULT_B_RANGE[0], help="lower end of the exponent search range (0 < b_min <= b_max)")
    fitp.add_argument("--b-max", type=float, default=analysis.DEFAULT_B_RANGE[1], help="upper end of the exponent search range; equal to --b-min fixes the exponent")
    fitp.add_argument("--out", help="write the report here instead of stdout")
    fitp.set_defaults(func=cmd_fit, outputs={"out": "cannot write"})

    witp = sub.add_parser("witness", help="build an entanglement witness")
    witp.add_argument("--state", required=True, help="target state: name or file")
    witp.add_argument("--css", required=True, help="separable approximation: name or file")
    witp.add_argument(
        "--restarts",
        type=int,
        default=analysis.DEFAULT_RESTARTS,
        help="random product starts of the alternating ascent (run as one batch, so extra starts cost "
        "little); the separable bound it finds is a lower estimate, so 'entangled' is a heuristic verdict",
    )
    witp.add_argument("--seed", type=int, default=0)
    witp.add_argument("--report", help="write the report here instead of stdout")
    witp.add_argument("--operator", help="write the witness operator state file here")
    witp.set_defaults(func=cmd_witness, outputs={"operator": "cannot write operator", "report": "cannot write"})

    statep = sub.add_parser("state", help="write a named reference state")
    statep.add_argument("name", help="bell, max_entangled:d, max_entangled_css:d, ghz:N, ghz_css:N, upb_tiles, real_limit_bell")
    statep.add_argument("--out", help="write the state file here instead of stdout")
    statep.set_defaults(func=cmd_state, outputs={"out": "cannot write"})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Before the command's work, so that a bad path does not lose a long computation's result.
        for dest, step in args.outputs.items():
            path = getattr(args, dest)
            if path is not None:
                _check_writable(path, f"{step} {path!r}")
        return args.func(args)
    except CliError as exc:
        print(f"sepdist: {exc}", file=sys.stderr)
        return exc.code
    except MemoryError as exc:
        print(f"sepdist: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
