import numpy as np
import pytest

from sepdist import DensityMatrix, TraceRecord, hermitize


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


@pytest.fixture
def rng():
    return rng_for(20240817)
