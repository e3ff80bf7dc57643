"""Benchmark of sepdist: wall time to a given excess over the known distance limit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bell --seed 1 --seconds 58 --trace 0

Each workload solves its target with seeded ``sepdist.run`` calls until
``d2 <= d2* + excess``, one call per solve seed, interleaved with
``sepdist fit`` and ``sepdist witness`` calls through ``cli.main`` on the
recorded inputs in ``perfbench/inputs/`` (see ``bench.py``):

* ``bell``     -- two qubits, excess 1e-3: frequent acceptances, sampling-bound;
* ``ghz3-sym`` -- three qubits under an order-12 group, excess 0.01: twirled trials.

``--seed n`` picks the solve seeds ``n * 10000 + i`` (i = 0, 1, ...), taken
while the ``--seconds`` budget lasts, so two seeds give disjoint seed sets.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries the samples, the host probe's median, the
end-to-end times before scaling (see ``bench.py``) and the environment.

BLAS and OpenMP are pinned to one thread before numpy loads.  The package
is imported from ``src/`` of the checkout; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

WORKLOAD_NAMES = ("bell", "ghz3-sym")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sepdist benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="picks the solve seeds")
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_sepdist() -> None:
    """Import the package from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "sepdist" / "__init__.py").is_file():
        raise ImportError(f"no sepdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("sepdist")
    if SRC not in Path(module.__file__).resolve().parents:
        raise ImportError(f"sepdist was imported from {module.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_sepdist()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import bench

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result, info = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except bench.InputError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
