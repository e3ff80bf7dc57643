import json
from math import inf, isfinite, log

import numpy as np
import pytest

from sepdist import (
    DegenerateError,
    DensityMatrix,
    DimensionError,
    FileFormatError,
    ParameterError,
    TraceRecord,
    analysis,
    bell,
    fileio,
    hermitize,
)
from sepdist.analysis import ZOOM_POINTS, ExtrapolationFit
from sepdist.fileio import KIND_DENSITY, KIND_OPERATOR
from sepdist.gilbert import DEGENERATE_TOL
from sepdist.linalg import as_matrix


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


def projector(vec, dims) -> DensityMatrix:
    """The density matrix of the pure state ``vec`` on parties ``dims``."""
    vec = np.asarray(vec, dtype=complex).ravel()
    return DensityMatrix(tuple(dims), np.outer(vec, vec.conj()))


def reference_twirl_pure(ket, group):
    """The twirl of a ket with its orbit taken one element at a time, kept as the oracle of ``symmetry.twirl_pure``."""
    ket = np.asarray(ket, dtype=complex).ravel()
    orbit = np.stack([u @ ket for u in group.elements])
    acc = np.einsum("ki,kj->ij", orbit, orbit.conj()) / group.order
    return hermitize(acc)


def random_product_density(dims, sampler) -> DensityMatrix:
    """A random pure product state from ``sampler``, as a rank-1 density matrix."""
    return projector(sampler.product_kets(dims, 1)[0], dims)


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


def _reference_corr_with(xc, xn, rows):
    """The row correlation the zoom search scored each level with: row means by ``ndarray.mean``, its own ``np.errstate``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rc = rows - rows.mean(axis=1, keepdims=True)
        rn = np.sqrt((rc * rc).sum(axis=1))
        r = (rc @ xc) / (rn * xn)
    return np.where(np.isfinite(r), np.minimum(r, 1.0), -np.inf)


def reference_fit_extrapolation(trace, stride=analysis.DEFAULT_STRIDE, *, b_range=(1.0, 20.0)):
    """The zoom search that scored each level through :func:`_reference_corr_with`, kept as the oracle of ``fit_extrapolation``.

    Three ``np.errstate`` blocks and two ``np.clip`` calls per level; the
    same arithmetic, so it gives the same ``(a, b, r)`` bits.
    """
    b_lo, b_hi = (float(v) for v in b_range)
    if not 0.0 < b_lo <= b_hi < inf:
        raise ParameterError(f"b_range must satisfy 0 < b_min <= b_max < inf, got {b_range}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    _, successes, d2 = analysis._columns(trace)
    picked = successes % stride == 0
    x = successes[picked].astype(float)
    g = d2[picked]
    if x.size < 10:
        raise ParameterError(f"need at least 10 trace points after striding, got {x.size}")
    if not np.all(np.diff(g) < 0):
        raise ParameterError("trace distances must be strictly decreasing")
    if g[-1] <= 0.0:
        raise ParameterError("trace distances must stay positive")
    dmin = float(g[-1])
    n = g.size
    xc, xn = analysis._centred(x)  # x is fixed: centred and normed once

    # Zoom in u = ln(min d2 - a), where the ridge of r is far wider than in a,
    # from the centre of the box.  A sum of logs: dmin * 1e-12 can underflow.
    u_lo, u_hi = log(dmin) + log(1e-12), log(dmin)
    r_best, u_best, a_best, b_best = -np.inf, 0.5 * (u_lo + u_hi), 0.0, 0.5 * (b_lo + b_hi)
    half = ZOOM_POINTS // 2
    offsets = np.arange(ZOOM_POINTS) - half
    step_u = (u_hi - u_lo) / (ZOOM_POINTS - 1)
    step_b = (b_hi - b_lo) / (ZOOM_POINTS - 1)
    while step_u > 1e-9 or step_b > 1e-7:
        u = np.clip(u_best + step_u * offsets, u_lo, u_hi)
        a = np.maximum(dmin - np.exp(u), 0.0)
        b = np.clip(b_best + step_b * offsets, b_lo, b_hi)
        # Where e^u underflows, g - a is 0 at the last point.
        with np.errstate(divide="ignore"):
            ln_abs = np.abs(np.log(g - a[:, None]))
        with np.errstate(over="ignore"):
            r = _reference_corr_with(xc, xn, (ln_abs ** b[:, None, None]).reshape(-1, n))
        i = int(np.argmax(r))
        if r[i] > r_best:
            ib, iu = divmod(i, ZOOM_POINTS)
            r_best, u_best, a_best, b_best = float(r[i]), float(u[iu]), float(a[iu]), float(b[ib])
            # The optimum may lie beyond the window's edge (in b, only if b
            # moves): recentre, same steps.
            if abs(offsets[iu]) == half or (step_b > 0.0 and abs(offsets[ib]) == half):
                continue
        step_u /= 2.0
        step_b /= 2.0
    if not isfinite(r_best):
        raise DegenerateError("no (a, b) gives a finite correlation; the fit is undefined")
    return ExtrapolationFit(a=a_best, b=b_best, r=r_best, stride=stride)


def reference_starts(rng, dims, restarts):
    """The start draw of ``max_sep_overlap`` restart by restart, party by party, kept as the oracle of ``analysis._starts``."""
    vecs = [np.empty((restarts, d), dtype=complex) for d in dims]
    for r in range(restarts):
        for p, d in enumerate(dims):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs[p][r] = v / np.linalg.norm(v)
    return vecs


# The trial test and line search of the run loop, as plain matrix algebra: the references that
# TestEngineAgainstReferences replays a seeded run against.
def _reference_operands(target, approx, trial) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three matrices, checked for matching party dims and shapes."""
    if isinstance(target, DensityMatrix) and isinstance(approx, DensityMatrix) and target.dims != approx.dims:
        raise DimensionError(f"dims mismatch: {target.dims} vs {approx.dims}")
    t, a, r = as_matrix(target), as_matrix(approx), as_matrix(trial)
    if not (t.shape == a.shape == r.shape):
        raise DimensionError(f"shape mismatch: {t.shape}, {a.shape}, {r.shape}")
    return t, a, r


def preselect(target, approx, trial) -> float:
    """Value of Tr[(trial - approx)(target - approx)]; accept when positive."""
    t, a, r = _reference_operands(target, approx, trial)
    return float(np.vdot(r - a, t - a).real)


def line_search(target, approx, trial) -> tuple[float, float]:
    """Exact minimizer of d2 over mixtures w*approx + (1-w)*trial.

    Returns the weight clamped to [0, 1] and the squared distance at the
    clamped weight, evaluated by quadratic expansion.  An independent
    reference for the run loop: it shares no code with ``_Engine.try_accept``.
    Like ``preselect``, it raises :class:`DimensionError` when the party dims
    of two :class:`DensityMatrix` arguments, or the matrix shapes, differ.
    """
    t, a, r = _reference_operands(target, approx, trial)
    # d2(w) = |(t - r) - w (a - r)|^2 = aa - 2 w ab + w^2 bb
    tr, ar = t - r, a - r
    aa = float(np.vdot(tr, tr).real)
    ab = float(np.vdot(tr, ar).real)
    bb = float(np.vdot(ar, ar).real)
    if bb < DEGENERATE_TOL:
        raise DegenerateError("approx and trial coincide; line search direction is degenerate")
    w = min(1.0, max(0.0, ab / bb))
    return w, aa - 2.0 * w * ab + w * w * bb


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
