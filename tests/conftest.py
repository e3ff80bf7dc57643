import json
from math import isfinite

import numpy as np
import pytest

from sepdist import DensityMatrix, FileFormatError, TraceRecord, bell, fileio, hermitize, pure_density
from sepdist.fileio import KIND_DENSITY, KIND_OPERATOR


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitize(z)


def random_density(dims, rng: np.random.Generator) -> DensityMatrix:
    total = int(np.prod(dims))
    z = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    mat = z @ z.conj().T
    return DensityMatrix(tuple(dims), hermitize(mat / np.trace(mat).real))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_product_density(dims, sampler) -> DensityMatrix:
    """A random pure product state from ``sampler``, as a rank-1 density matrix."""
    return pure_density(sampler.product_kets(dims, 1)[0], dims)


def exact_decay_trace(a, b, n=2000, gap_start=0.3, gap_end=None, trial_step=7):
    """Trace whose transformed distances are exactly linear in the success index."""
    if gap_end is None:
        gap_end = max(a * 0.02, 1e-6)
    y0 = abs(np.log(gap_start)) ** b
    y1 = abs(np.log(gap_end)) ** b
    records = []
    for k in range(1, n + 1):
        y = y0 + (y1 - y0) * (k - 1) / (n - 1)
        records.append(TraceRecord(trial_step * k, k, a + np.exp(-(y ** (1.0 / b)))))
    return records


def subnormal_trace():
    """40 points falling geometrically from 0.5 to the smallest subnormal, 5e-324."""
    d2 = np.geomspace(0.5, 1e-320, 40)
    d2[-1] = 5e-324
    return [TraceRecord(7 * k, k, float(v)) for k, v in enumerate(d2, start=1)]


def reference_loads_trace(text):
    """The trace reader that converted each line in Python, kept as the oracle of ``fileio.loads_trace``.

    It reads what Python's ``int`` and ``float`` read, a superset of the format:
    numbers with underscores or non-ASCII digits, and counters beyond int64,
    are format errors in ``fileio`` but not here.  An error names the file's
    line, blank lines counted.
    """
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != fileio.TRACE_HEADER:
        raise FileFormatError(f"trace file must start with header {fileio.TRACE_HEADER!r}")
    records = []
    for i, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"line {i}: expected 3 columns, got {len(parts)}")
        try:
            record = TraceRecord(int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise FileFormatError(f"line {i}: {exc}") from exc
        if not isfinite(record.d2):
            raise FileFormatError(f"line {i}: d2 {parts[2].strip()!r} is not finite")
        records.append(record)
    return records


def with_dims(dims, mat=None, kind=KIND_DENSITY):
    """State-file text of ``mat`` (default: bell) whose ``dims`` field is ``dims`` as written."""
    mat = bell().mat if mat is None else mat
    doc = json.loads(fileio.dumps_state(mat, (mat.shape[0],), kind=kind))
    doc["dims"] = dims
    return json.dumps(doc)


def with_entry(entry):
    """Operator state-file text of the 2 x 2 flip whose first matrix entry is ``entry`` as written."""
    doc = json.loads(fileio.dumps_state(np.array([[0, 1], [1, 0]]), (2,), kind=KIND_OPERATOR))
    doc["matrix"][0][0] = entry
    return json.dumps(doc)


@pytest.fixture
def rng():
    return rng_for(20240817)
