"""Workloads, phases and metrics of the sepdist benchmark.

A run of one workload has two phases:

1. *Set-up*: the package import, timed in ``IMPORT_REPS`` fresh
   interpreters, then ``SETUP_REPS`` times: build the target (and its
   symmetry group), verify the recorded post-processing inputs against
   their checksums, and warm up the run loop and the witness ascent.
2. *Measured phase*: two kinds of operation, interleaved so that each
   takes its workload's share of the run's time:

   * *solves*: seeded ``sepdist.run`` calls on the workload's target until
     ``d2 <= d2* + excess``, one per solve seed;
   * *post-processing operations*: ``sepdist fit`` on two recorded traces
     and ``sepdist witness`` on two recorded iterates, through
     ``cli.main``, taken in turn.

   It lasts the run's seconds, and longer only until there are
   ``MIN_SOLVES`` solves and one call of every post-processing operation.

The machine's speed wanders from second to second, so every timing is a
median over samples spread across the whole run: of the solves, and of
each post-processing operation's calls.  It also drifts by a quarter
from one minute to the next, with the machine's other load.  So a fixed
``host_probe`` runs after every operation, and the end-to-end times are
scaled by the probe's median: from the host's speed during the run to a
fixed reference speed.  The unscaled figures go in the info line.  Every
operation is checked; failures are counted, never raised.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import sepdist
from sepdist import analysis, cli, fileio, gilbert, states, symmetry

from tracing import Spans, TracedSampler, patched

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
SRC = HERE.parent / "src"

IMPORT_REPS = 7
SETUP_REPS = 7
MIN_SOLVES = 5
# host_probe's median on a quiet 2-vCPU Xeon with OpenBLAS at one thread.  It
# sets only the scale of the reported times, never their ratio between commits.
PROBE_REFERENCE_S = 0.025
# A quarter of the CLI's default 64: the recorded iterates give the same margin
# with 16 restarts, and four times the calls make a steadier median.
WITNESS_RESTARTS = 16
SEEDS_PER_BASE = 10_000  # disjoint solve seeds for every --seed below this many solves

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); begin = time.perf_counter(); "
    "import sepdist, sepdist.cli; print(time.perf_counter() - begin)"
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def ghz3_group() -> symmetry.SymmetryGroup:
    """Order-12 group: all party permutations times the global bit flip."""
    dims = (2, 2, 2)
    return symmetry.closure(
        [
            symmetry.party_permutation((1, 0, 2), dims),
            symmetry.party_permutation((1, 2, 0), dims),
            symmetry.local_unitary([PAULI_X, PAULI_X, PAULI_X]),
        ],
        dims,
    )


def closed_form_d2(state: str) -> Optional[float]:
    """Exact squared distance to the separable set, where one is known."""
    if state == "bell":
        return 1.0 / 3.0
    if state.startswith("ghz:"):
        return states.ghz_css_distance(int(state.split(":")[1]))
    return None


@dataclass(frozen=True)
class Workload:
    state: str
    excess: float
    trial_cap: int
    shares: tuple[float, float, float]  # of the measured phase, per entry of ACTIVITIES
    symmetric: bool = False

    @property
    def d2_star(self) -> float:
        return closed_form_d2(self.state)

    def group(self) -> Optional[symmetry.SymmetryGroup]:
        return ghz3_group() if self.symmetric else None


# Trial caps sit ten or more times above the largest per-seed trial count
# seen when the workloads were sized; a solve that hits one has failed.
# The shares buy each timing enough samples for a steady median: bell solves
# vary little from seed to seed, ghz3-sym ones a lot; a fit call takes about
# four witness calls.
WORKLOADS = {
    "bell": Workload("bell", excess=1e-3, trial_cap=15_000_000, shares=(0.3, 0.4, 0.3)),
    "ghz3-sym": Workload("ghz:3", excess=0.01, trial_cap=10_000_000, shares=(0.55, 0.3, 0.15), symmetric=True),
}

# What the measured phase spends its time on: solves, and the two CLI commands.
ACTIVITIES = ("solve", "fit", "witness")

# Post-processing operations: (command, recorded input, state).  A fit reads
# a trace recorded on the state; a witness targets the state.  Calls of one
# command go to its operations in turn.
POST_OPS = (
    ("fit", "bell_trace.csv", "bell"),
    ("fit", "ghz3_trace.csv", "ghz:3"),
    ("witness", "ghz3_iterate.json", "ghz:3"),
    ("witness", "upb_iterate.json", "upb_tiles"),
)

# Spans of the post-processing operations: (module, attribute, key, reads a file)
POST_SPANS = (
    (analysis, "fit_extrapolation", "analysis.fit_extrapolation", False),
    (analysis, "fit_power", "analysis.fit_power", False),
    (analysis, "max_sep_overlap", "analysis.max_sep_overlap", False),
    (analysis, "contract_party", "linalg.contract_party", False),
    (fileio, "read_trace", "fileio.read_trace", True),
    (fileio, "read_state", "fileio.read_state", True),
)
# Keys whose time is not the CLI's own (contract_party nests in max_sep_overlap).
POST_CHILDREN = (
    "analysis.fit_extrapolation",
    "analysis.fit_power",
    "analysis.max_sep_overlap",
    "fileio.read_trace",
    "fileio.read_state",
)


class InputError(Exception):
    """A recorded input is missing or does not match its checksum."""


class Checks:
    """Counts checked operations and keeps a message per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def timed(fn, *args, **kwargs):
    begin = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - begin


def import_once() -> float:
    """Seconds to import the package in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout)


def verify_inputs() -> None:
    manifest = json.loads((INPUTS / "MANIFEST.json").read_text(encoding="utf-8"))
    for name, entry in manifest["files"].items():
        try:
            digest = hashlib.sha256((INPUTS / name).read_bytes()).hexdigest()
        except OSError as exc:
            raise InputError(f"cannot read recorded input {name}: {exc}") from exc
        if digest != entry["sha256"]:
            raise InputError(f"recorded input {name} does not match its checksum in MANIFEST.json")


def set_up(workload: Workload):
    """One set-up: target, group, verified inputs, warm-up.  Returns the closure time too."""
    target = states.named_state(workload.state)
    begin = perf_counter()
    group = workload.group()
    closure_s = perf_counter() - begin
    verify_inputs()
    sepdist.run(target, sepdist.HaltCriteria(max_trials=20_000), group=group, config=sepdist.SamplerConfig(seed=0))
    analysis.max_sep_overlap(target.mat, target.dims, restarts=2, rng=np.random.default_rng(0))
    return target, group, closure_s


def host_probe() -> float:
    """Fixed work that calls nothing in sepdist: RNG draws, small complex
    matrix products, many tiny numpy calls and a plain Python loop, the
    kinds of work a solve, a fit and a witness do.  Returns its result so
    that none of it is skipped."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(120):
        a = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        acc += float(np.abs(a @ b).sum())
        v = rng.standard_normal(4)
        for _ in range(25):
            v = v / np.linalg.norm(v) + 0.5
        acc += float(v[0])
        x = 0.0
        for k in range(400):
            x += k * 0.5 - x * 1e-3
        acc += x
    return acc


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def post_op(op, workdir: Path, checks: Checks):
    """One post-processing call through ``cli.main``, checked.

    Returns its wall time and its quality figure: ``|a - d2*|`` for a fit,
    the bracket width ``d2 - margin**2 / d2`` for a witness (None if the
    check failed).
    """
    command, input_file, state = op
    if command == "fit":
        out = workdir / f"fit-{input_file}.json"
        code, wall = timed(cli.main, ["fit", str(INPUTS / input_file), "--out", str(out)])
        report = read_json(out) if code == 0 else {}
        finite = all(isinstance(report.get(k), float) and math.isfinite(report[k]) for k in ("a", "b", "r"))
        if not checks.record(code == 0 and finite, f"fit {input_file}: exit {code}, report {report}"):
            return wall, None
        return wall, abs(report["a"] - closed_form_d2(state))

    out = workdir / f"witness-{input_file}"
    argv = ["witness", "--state", state, "--css", str(INPUTS / input_file), "--restarts", str(WITNESS_RESTARTS)]
    argv += ["--report", str(out)]
    code, wall = timed(cli.main, argv)
    if not checks.record(code == 0, f"witness {input_file}: exit {code}"):
        return wall, None
    margin = read_json(out)["margin"]
    target = states.named_state(state)
    iterate = fileio.loads_state((INPUTS / input_file).read_text(encoding="utf-8")).to_density()
    d2 = sepdist.hsd_sq(target, iterate)
    lower = margin * margin / d2 if margin > 0.0 else 0.0
    limit = closed_form_d2(state)
    inside = lower <= d2 if limit is None else lower <= limit <= d2
    if not checks.record(inside, f"witness {input_file}: bracket [{lower!r}, {d2!r}] excludes d2*={limit!r}"):
        return wall, None
    return wall, d2 - lower


def solve_seed(base: int, i: int) -> int:
    """The ``i``-th solve seed of ``--seed base``; distinct bases give disjoint seed sets."""
    return base * SEEDS_PER_BASE + i


@dataclass(frozen=True)
class Solve:
    seed: int
    wall: float
    trials: int
    successes: int
    d2: float
    exact_d2: float


def solve(target, group, workload: Workload, seed: int, sampler=None):
    halt = sepdist.HaltCriteria(target_d2=workload.d2_star + workload.excess, max_trials=workload.trial_cap)
    source = {"sampler": sampler} if sampler is not None else {"config": sepdist.SamplerConfig(seed=seed)}
    result, wall = timed(sepdist.run, target, halt, group=group, **source)
    final = result.state
    exact = sepdist.hsd_sq(target, final.approx)
    return Solve(seed, wall, final.trials, final.successes, final.d2, exact), result.trace


def traced_solve(target, group, workload: Workload, seed: int, spans: Spans) -> Solve:
    """The same solve with sampling and twirling timed."""
    sampler = TracedSampler(sepdist.SamplerConfig(seed=seed), spans)
    with patched(spans, ((gilbert, "twirl_pure", "symmetry.twirl_pure", False),)):
        return solve(target, group, workload, seed, sampler=sampler)[0]


def check_solve(s: Solve, trace, workload: Workload, workdir: Path, checks: Checks) -> None:
    """A solve must reach d2* + excess within the cap and stay at or above d2*;
    its trace must decrease strictly and round-trip byte-identically."""
    limit = workload.d2_star
    checks.record(
        limit <= s.d2 <= limit + workload.excess,
        f"solve seed {s.seed}: d2={s.d2!r} after {s.trials} trials, wanted [{limit!r}, {limit + workload.excess!r}]",
    )
    d2s = [rec.d2 for rec in trace]
    decreasing = all(later < earlier for earlier, later in zip(d2s, d2s[1:]))
    first, second = workdir / "trace.csv", workdir / "trace-again.csv"
    fileio.write_trace(first, trace)
    fileio.write_trace(second, fileio.read_trace(first))
    identical = first.read_bytes() == second.read_bytes()
    checks.record(
        decreasing and identical,
        f"trace seed {s.seed}: strictly decreasing={decreasing}, byte-identical round trip={identical}",
    )


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def post_seconds(post_walls: dict, command: str) -> float:
    """Sum over the command's operations of the median wall of its calls."""
    return sum(statistics.median(post_walls[op]) for op in POST_OPS if op[0] == command)


def post_calls(post_walls: dict, command: str) -> int:
    return sum(len(post_walls[op]) for op in POST_OPS if op[0] == command)


def end_to_end_metrics(solves, post_walls: dict, quality: dict, setup_s: float, probe_s: float):
    """End-to-end figures; returns them and the unscaled times and rates.

    Times are multiplied, and rates divided, by ``PROBE_REFERENCE_S /
    probe_s``, where ``probe_s`` is the median ``host_probe`` time of the
    run: they read as if the host ran at its reference speed throughout.
    """
    run_s = sum(s.wall for s in solves)
    unscaled = {
        "time_to_excess_s": statistics.median(s.wall for s in solves),
        "trials_per_s": sum(s.trials for s in solves) / run_s,
        "successes_per_s": sum(s.successes for s in solves) / run_s,
        "fit_s": post_seconds(post_walls, "fit"),
        "witness_s": post_seconds(post_walls, "witness"),
        "setup_s": setup_s,
    }
    factor = PROBE_REFERENCE_S / probe_s
    metrics = {
        k: metric(v / factor, "1/s") if k.endswith("_per_s") else metric(v * factor, "s")
        for k, v in unscaled.items()
    }

    def figure(command):
        return sum(quality[op] for op in POST_OPS if op[0] == command and quality[op] is not None)

    metrics["fit_abs_err"] = metric(figure("fit"), "d2")
    metrics["bracket_gap"] = metric(figure("witness"), "d2")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, unscaled


def per_layer_metrics(solves, traced_solves, post_walls: dict, spans: Spans, closure_s: float) -> dict:
    """Per-layer figures of the traced run: per solve, or per call of the CLI command that does the work."""
    n = len(solves)
    trials = sum(s.trials for s in solves)
    successes = sum(s.successes for s in solves)
    untraced = sum(s.wall for s in solves)
    traced = sum(t.wall for t in traced_solves)
    sample_s = spans.seconds["states.product_kets"]
    twirl_s = spans.seconds["symmetry.twirl_pure"]
    twirl_calls = spans.calls["symmetry.twirl_pure"]
    kets_drawn = spans.counts["states.kets_drawn"]
    fits = post_calls(post_walls, "fit")
    witnesses = post_calls(post_walls, "witness")
    cli_s = sum(sum(walls) for walls in post_walls.values())
    return {
        "states.product_kets_s": metric(sample_s / n, "s"),
        "states.kets_drawn": metric(kets_drawn / n, "count"),
        "gilbert.run_self_s": metric((traced - sample_s - twirl_s) / n, "s"),
        "gilbert.trials_to_excess": metric(statistics.median(s.trials for s in solves), "count"),
        "gilbert.successes_to_excess": metric(statistics.median(s.successes for s in solves), "count"),
        "gilbert.batches": metric(spans.calls["states.product_kets"] / n, "count"),
        "gilbert.kets_discarded_frac": metric(1.0 - ratio(trials, kets_drawn), "ratio"),
        "gilbert.accept_frac": metric(ratio(successes, trials), "ratio"),
        "gilbert.d2_below_exact": metric(sum(s.d2 < s.exact_d2 for s in solves), "count"),
        "gilbert.d2_drift_max": metric(max(abs(s.d2 - s.exact_d2) for s in solves), "d2"),
        "symmetry.twirl_pure_s": metric(twirl_s / n, "s"),
        "symmetry.twirl_calls": metric(twirl_calls / n, "count"),
        "symmetry.twirl_accept_frac": metric(ratio(successes, twirl_calls), "ratio"),
        "symmetry.closure_s": metric(closure_s, "s"),
        "analysis.fit_extrapolation_s": metric(spans.seconds["analysis.fit_extrapolation"] / fits, "s"),
        "analysis.fit_power_s": metric(spans.seconds["analysis.fit_power"] / fits, "s"),
        "analysis.max_sep_overlap_s": metric(spans.seconds["analysis.max_sep_overlap"] / witnesses, "s"),
        "linalg.contract_party_s": metric(spans.seconds["linalg.contract_party"] / witnesses, "s"),
        "linalg.contract_party_calls": metric(spans.calls["linalg.contract_party"] / witnesses, "count"),
        "fileio.read_trace_s": metric(spans.seconds["fileio.read_trace"] / fits, "s"),
        "fileio.read_state_s": metric(spans.seconds["fileio.read_state"] / witnesses, "s"),
        "fileio.bytes_read": metric(spans.counts["fileio.bytes_read"] / (fits + witnesses), "bytes"),
        "cli.self_s": metric((cli_s - sum(spans.seconds[k] for k in POST_CHILDREN)) / (fits + witnesses), "s"),
        "trace.untraced_trials_per_s": metric(trials / untraced, "1/s"),
        "trace.trials_per_s": metric(trials / traced, "1/s"),
        "trace.overhead_frac": metric(traced / untraced - 1.0, "ratio"),
    }


def run_workload(name: str, seed_base: int, seconds: float, traced: bool, workdir: Path, log=sys.stderr):
    """Run one workload; returns (result line dict, info dict)."""
    workload = WORKLOADS[name]
    checks = Checks()

    imports = [timed(import_once)[1] for _ in range(IMPORT_REPS)]
    setups, closures = [], []
    for _ in range(SETUP_REPS):
        (target, group, closure_s), wall = timed(set_up, workload)
        setups.append(wall)
        closures.append(closure_s)
    setup_s = statistics.median(imports) + statistics.median(setups)

    spans = Spans()
    post_walls = {op: [] for op in POST_OPS}
    quality = {}
    solves, traced_solves = [], []
    probes = []  # host_probe seconds, one after every operation
    spent = dict.fromkeys(ACTIVITIES, 0.0)
    share = dict(zip(ACTIVITIES, workload.shares))

    def short_of_minimum(kind):
        if kind == "solve":
            return len(solves) < MIN_SOLVES
        return any(not post_walls[op] for op in POST_OPS if op[0] == kind)

    deadline = perf_counter() + seconds
    while True:
        if perf_counter() < deadline:
            kind = min(ACTIVITIES, key=lambda k: spent[k] / share[k])
        else:
            kind = next((k for k in ACTIVITIES if short_of_minimum(k)), None)
            if kind is None:
                break
        begin = perf_counter()
        if kind == "solve":
            i = len(solves)
            seed = solve_seed(seed_base, i)
            if traced and i % 2:  # alternate which solve of the pair runs first
                traced_solves.append(traced_solve(target, group, workload, seed, spans))
            s, trace = solve(target, group, workload, seed)
            check_solve(s, trace, workload, workdir, checks)
            solves.append(s)
            if traced and not i % 2:
                traced_solves.append(traced_solve(target, group, workload, seed, spans))
        else:
            op = min((op for op in POST_OPS if op[0] == kind), key=lambda op: len(post_walls[op]))
            with patched(spans, POST_SPANS if traced else ()):
                wall, figure = post_op(op, workdir, checks)
            post_walls[op].append(wall)
            quality.setdefault(op, figure)
        spent[kind] += perf_counter() - begin
        probes.append(timed(host_probe)[1])
    for s, t in zip(solves, traced_solves):
        checks.record(
            (t.trials, t.successes, t.d2) == (s.trials, s.successes, s.d2),
            f"traced solve seed {s.seed} diverged from the untraced one",
        )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=log)

    info = {
        "workload": name,
        "trace": int(traced),
        "solves": len(solves),
        "import_reps": IMPORT_REPS,
        "setup_reps": SETUP_REPS,
        "per_solve": [[s.seed, s.trials, s.successes, round(s.wall, 6)] for s in solves],
        "import_s": statistics.median(imports),
        "probe_s": statistics.median(probes),
        "post_calls": {op[1]: [round(w, 6) for w in post_walls[op]] for op in POST_OPS},
        "failures": checks.failures,
        "environment": environment(),
    }
    if traced:
        closure_s = statistics.median(closures) if workload.symmetric else 0.0
        metrics = per_layer_metrics(solves, traced_solves, post_walls, spans, closure_s)
    else:
        metrics, info["unscaled"] = end_to_end_metrics(solves, post_walls, quality, setup_s, info["probe_s"])
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    return result, info
