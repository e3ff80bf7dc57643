"""Record the fixed post-processing inputs of the benchmark.

Runs ``sepdist.run`` once per recording and writes, under
``perfbench/inputs/``:

* ``bell_trace.csv``   -- success trace of ``bell`` (seed 1, 4000 successes)
* ``ghz3_trace.csv``   -- success trace of ``ghz:3`` (seed 1, 2300 successes)
* ``ghz3_iterate.json`` -- the separable iterate that ``ghz:3`` run ended on
* ``upb_iterate.json``  -- the iterate of ``upb_tiles`` (seed 1, 3000 successes)
* ``MANIFEST.json``    -- SHA-256 of every file above plus how it was made

The benchmark verifies the checksums on load, so the post-processing
timings never depend on the run loop of the code under test.  Re-record
only on purpose (the inputs then change for every later comparison)::

    python3 perfbench/record.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
sys.path.insert(0, str(HERE.parent / "src"))

import sepdist  # noqa: E402
from sepdist import fileio, states  # noqa: E402

# (state name, seed, halt, trace file or None, iterate file or None)
RECORDINGS = (
    ("bell", 1, {"max_successes": 4000}, "bell_trace.csv", None),
    ("ghz:3", 1, {"max_successes": 2300}, "ghz3_trace.csv", "ghz3_iterate.json"),
    ("upb_tiles", 1, {"max_successes": 3000}, None, "upb_iterate.json"),
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    INPUTS.mkdir(exist_ok=True)
    files = {}
    for name, seed, halt, trace_file, iterate_file in RECORDINGS:
        target = states.named_state(name)
        result = sepdist.run(target, sepdist.HaltCriteria(**halt), config=sepdist.SamplerConfig(seed=seed))
        made_by = {
            "state": name,
            "seed": seed,
            "halt": halt,
            "c_t": result.state.trials,
            "c_s": result.state.successes,
            "d2": result.state.d2,
        }
        if trace_file is not None:
            fileio.write_trace(INPUTS / trace_file, result.trace)
            files[trace_file] = made_by
        if iterate_file is not None:
            fileio.write_density(INPUTS / iterate_file, result.state.approx, name=f"{name} iterate")
            files[iterate_file] = made_by
        print(f"recorded {name}: c_t={result.state.trials} c_s={result.state.successes} d2={result.state.d2!r}")
    manifest = {
        "sepdist_version": sepdist.__version__,
        "files": {fname: {"sha256": sha256(INPUTS / fname), **made_by} for fname, made_by in files.items()},
    }
    (INPUTS / "MANIFEST.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
