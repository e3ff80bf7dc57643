"""Post-processing of runs: extrapolation, scaling fits, witnesses.

The distance limit is estimated by maximizing the sample correlation
between the success index and |ln(d2 - a)|^b over the free parameters
(a, b): one zoom search in the log-gap ``ln(min d2 - a)`` and b, whose
first window spans the whole search box.  The located ``a`` approximates
the asymptotic squared distance.
A separate log-log fit captures the success-vs-trial scaling, and the
final iterate can be turned into an entanglement witness by bounding the
operator's overlap with product states from below via alternating
eigenvector ascent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log, prod, sqrt
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateError, DimensionError, ParameterError
from .gilbert import TRACE_DTYPE, TraceRecord
# contract_party stays importable from here: the benchmark's traced run patches analysis.contract_party.
from .linalg import DensityMatrix, as_matrix, contract_party, hermitize, hs_inner, require_hermitian  # noqa: F401

DEFAULT_STRIDE = 100
DEFAULT_RESTARTS = 64
# Zoom of the extrapolation fit: a window of ZOOM_POINTS x ZOOM_POINTS
# points in (b, ln gap), scored at once.
ZOOM_POINTS = 9
# Alternating ascent of max_sep_overlap: stop a restart once a sweep gains
# no more than GAIN_TOL, after MAX_SWEEPS sweeps, or once it falls behind.
GAIN_TOL = 1e-12
MAX_SWEEPS = 200


def correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson sample correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError(f"sequences must share one length, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ParameterError("need at least two points")
    xc, xn = _centred(x)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = float(_corr_with(xc, xn, y[None, :])[0])
    if not isfinite(r):
        raise DegenerateError("zero variance; correlation is undefined")
    return r


@dataclass(frozen=True)
class ExtrapolationFit:
    """Limit estimate ``a``, exponent ``b``, achieved correlation ``r``."""

    a: float
    b: float
    r: float
    stride: int


@dataclass(frozen=True)
class PowerFit:
    """Exponent and prefactor of successes ~ c * trials**f, with log-log r^2."""

    f: float
    c: float
    r2: float


def _columns(trace: Sequence[TraceRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trials, successes and d2 columns of ``trace``.

    A table of ``TRACE_DTYPE``, as ``fileio.read_trace`` returns, or a list
    of its rows, gives its fields as they are.  Any other sequence of
    ``(trials, successes, d2)`` rows is converted once, as floats.
    """
    table = np.asarray(trace)
    if table.dtype.names is not None:
        return tuple(table[name] for name in TRACE_DTYPE.names)
    rows = table.astype(float, copy=False).reshape(-1, 3)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def _centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``x`` minus its mean, and the norm of that."""
    xc = x - x.mean()
    return xc, sqrt(np.add.reduce(xc * xc))


def _corr_with(xc: np.ndarray, xn: float, rows: np.ndarray) -> np.ndarray:
    """Correlation of x (centred: ``xc``, its norm ``xn``) against each row.

    Centres each row before it multiplies, so large offsets do not cancel.
    Clamps at 1, which rounding can exceed on rows that fit x exactly.
    Gives -inf where a row has zero variance or non-finite entries; the
    caller sets ``np.errstate`` for the warnings those raise.
    """
    rc = rows - (np.add.reduce(rows, axis=1) / rows.shape[1])[:, None]
    r = (rc @ xc) / (np.sqrt(np.add.reduce(rc * rc, axis=1)) * xn)
    return np.where(np.isfinite(r), np.minimum(r, 1.0), -np.inf)


def fit_extrapolation(
    trace: Sequence[TraceRecord],
    stride: int = DEFAULT_STRIDE,
    *,
    b_range: tuple[float, float] = (1.0, 20.0),
) -> ExtrapolationFit:
    """Estimate the distance limit by correlation maximization.

    ``trace`` is a table of ``TRACE_DTYPE``, as ``fileio.read_trace``
    returns, or any sequence of ``(trials, successes, d2)`` rows such as a
    run's list of :class:`TraceRecord`; both give the same fit.  Subsamples
    the trace at every ``stride``-th success (``stride >= 1``), then
    maximizes the correlation between the success index and |ln(d2 - a)|^b
    over a in [0, min d2) and b in ``b_range`` by one zoom search in
    ``u = ln(min d2 - a)`` and b.  u ranges over ``[ln min d2 + ln 1e-12,
    ln min d2]`` and ``a = max(min d2 - e^u, 0)``, so ``0 <= a < min d2``.
    The first ``ZOOM_POINTS`` x ``ZOOM_POINTS`` window is centred on that
    box and spans it.  Each level scores a window around the best point in
    one array operation and moves to the window's best point only if that
    strictly raises r.  A move to the window's edge keeps the steps;
    otherwise they halve, until they are below 1e-9 in u and 1e-7 in b.

    ``b_range`` must satisfy ``0 < b_min <= b_max < inf``; equal bounds fix
    the exponent and only ``a`` is searched.  Raises
    :class:`DegenerateError` when no point the search scored gives a finite
    correlation (every transformed trace is constant or overflows).
    """
    b_lo, b_hi = (float(v) for v in b_range)
    if not 0.0 < b_lo <= b_hi < inf:
        raise ParameterError(f"b_range must satisfy 0 < b_min <= b_max < inf, got {b_range}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    _, successes, d2 = _columns(trace)
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
    xc, xn = _centred(x)  # x is fixed: centred and normed once

    # Zoom in u = ln(min d2 - a), where the ridge of r is far wider than in a,
    # from the centre of the box.  A sum of logs: dmin * 1e-12 can underflow.
    u_lo, u_hi = log(dmin) + log(1e-12), log(dmin)
    r_best, u_best, a_best, b_best = -np.inf, 0.5 * (u_lo + u_hi), 0.0, 0.5 * (b_lo + b_hi)
    half = ZOOM_POINTS // 2
    offsets = np.arange(ZOOM_POINTS) - half
    step_u = (u_hi - u_lo) / (ZOOM_POINTS - 1)
    step_b = (b_hi - b_lo) / (ZOOM_POINTS - 1)
    # Where e^u underflows, g - a is 0 at the last point; the power may overflow.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while step_u > 1e-9 or step_b > 1e-7:
            u = np.minimum(np.maximum(u_best + step_u * offsets, u_lo), u_hi)
            a = np.maximum(dmin - np.exp(u), 0.0)
            b = np.minimum(np.maximum(b_best + step_b * offsets, b_lo), b_hi)
            r = _corr_with(xc, xn, (np.abs(np.log(g - a[:, None])) ** b[:, None, None]).reshape(-1, n))
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


def fit_power(trace: Sequence[TraceRecord]) -> PowerFit:
    """Least-squares line through (ln trials, ln successes); the slope is the exponent.

    ``trace`` is a table of ``TRACE_DTYPE`` or any sequence of ``(trials,
    successes, d2)`` rows, as for :func:`fit_extrapolation`.  The counters
    must be positive and nondecreasing, as in every trace a run writes.
    """
    if len(trace) < 10:
        raise ParameterError(f"need at least 10 trace points, got {len(trace)}")
    trials, successes, _ = _columns(trace)
    ct = trials.astype(float)
    cs = successes.astype(float)
    if np.any(ct <= 0) or np.any(cs <= 0):
        raise ParameterError("trace counters must be strictly positive")
    if np.any(np.diff(ct) < 0) or np.any(np.diff(cs) < 0):
        raise ParameterError("trace counters must be nondecreasing")
    lx = np.log(ct)
    ly = np.log(cs)
    r = correlation(lx, ly)  # raises on zero variance, before polyfit warns about the rank
    slope, intercept = np.polyfit(lx, ly, 1)
    return PowerFit(f=float(slope), c=float(np.exp(intercept)), r2=float(r**2))


def _party_blocks(m: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Each party p's ``(rest**2, d_p**2)`` block of ``m``, entry ``((a, a'), (b, b'))`` = ``<a b|m|a' b'>``, b on p."""
    n = len(dims)
    tensor = m.reshape(dims + dims)
    blocks = []
    for p, d in enumerate(dims):
        others = [q for q in range(n) if q != p]
        blocks.append(tensor.transpose(others + [n + q for q in others] + [p, n + p]).reshape(-1, d * d))
    return blocks


def _sweep(blocks: Sequence[np.ndarray], dims: tuple[int, ...], vecs: list[np.ndarray]) -> np.ndarray:
    """One Gauss-Seidel sweep of the ascent over ``R`` rows; returns each row's value after it.

    Party p is pinned by ``conj(e) (x) e`` times its block, ``e`` the other parties' Kronecker
    ket; the top eigenvectors of those ``(R, d_p, d_p)`` operators replace ``vecs[p]``.
    ``eigh`` reads one triangle, so they are not made Hermitian first.
    """
    for p, (block, d) in enumerate(zip(blocks, dims)):
        env = None
        for q, v in enumerate(vecs):
            if q != p:
                env = v if env is None else (env[:, :, None] * v[:, None, :]).reshape(len(v), -1)
        w = (env.conj()[:, :, None] * env[:, None, :]).reshape(len(env), -1)
        vals, vectors = np.linalg.eigh((w @ block).reshape(-1, d, d))
        vecs[p] = vectors[..., -1]
    return vals[:, -1]


def _starts(rng: np.random.Generator, dims: tuple[int, ...], restarts: int) -> list[np.ndarray]:
    """Per-party unit start vectors, one row per restart, from one restart-major draw on ``rng``.

    Row r of the draw is restart r's ``[re_0, im_0, re_1, im_1, ...]``: the
    stream of drawing one restart after the other, party by party.
    """
    draws, vecs = rng.standard_normal((restarts, 2 * sum(dims))), []
    for p, d in enumerate(dims):
        at = 2 * sum(dims[:p])
        v = draws[:, at : at + d] + 1j * draws[:, at + d : at + 2 * d]
        # One norm per row, as for a lone start: a norm over axis 1 rounds differently.
        vecs.append(v / np.array([np.linalg.norm(row) for row in v])[:, None])
    return vecs


def max_sep_overlap(
    op,
    dims,
    restarts: int = DEFAULT_RESTARTS,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, list[np.ndarray]]:
    """Largest <phi|M|phi> over product states, from below.

    Alternating best-response ascent: with all parties but one fixed, the
    optimal free vector is the top eigenvector of the partially contracted
    operator.  Runs ``restarts`` random product starts (an integer, at
    least one) as one batch.  Each start is swept until one of these holds,
    and from then on keeps its value and vectors while the others sweep on:

    - a sweep gains at most ``GAIN_TOL``;
    - ``MAX_SWEEPS`` sweeps have run;
    - it falls behind: its gain is no larger than on the sweep before (the
      first sweep, from no value, has no gain), and its value plus that gain
      on every sweep left before ``MAX_SWEEPS`` is below the best value any
      start holds.

    The third rule assumes that a start's gains, once they shrink, do not
    grow again, much as ``GAIN_TOL`` assumes that a start gaining that little
    is done.  Under it, a start that falls behind could not have finished
    above the best, so the value returned is the value the batch returns
    without the rule.  The best start never falls behind.  The starts come
    from one restart-major draw on ``rng`` (:func:`_starts`), in the order of
    drawing one restart after the other, and a lone start is always the
    best, so ``restarts`` calls with one start each on a shared ``rng``
    reproduce the batch's best value (to rounding), but not the values at
    which the starts behind it stop.  Returns the best value found (the
    first start to reach it) and the per-party vectors achieving it.

    Party blocks are prepared once per call (:func:`_party_blocks`), so each party step of a
    sweep (:func:`_sweep`) is one BLAS product and one stacked ``eigh``, the floor left.
    """
    if isinstance(restarts, bool) or not isinstance(restarts, Integral) or restarts < 1:
        raise ParameterError(f"restarts must be >= 1 and integral, got {restarts}")
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise DimensionError("need at least two parties")
    m = as_matrix(op)
    if m.shape[0] != prod(dims):
        raise DimensionError(f"operator size {m.shape[0]} does not match dims {dims}")
    require_hermitian(m, what="overlap operator")
    if rng is None:
        rng = np.random.default_rng(0)
    vecs = _starts(rng, dims, restarts)
    blocks = _party_blocks(m, dims)
    # The starts still sweeping, their vectors, values and last gains; written back on the sweep
    # they stop.  Values start at nan, so the first sweep's gain is nan and meets neither rule.
    active, cur, top, gain = np.arange(restarts), list(vecs), np.full(restarts, np.nan), np.full(restarts, np.nan)
    values = np.full(restarts, -np.inf)
    for sweep in range(MAX_SWEEPS):
        prev, top = top, _sweep(blocks, dims, cur)
        last, gain = gain, top - prev
        lead = max(values.max(), top.max())
        behind = (gain <= last) & (top + gain * (MAX_SWEEPS - 1 - sweep) < lead)
        stop = (gain <= GAIN_TOL) | behind | (sweep == MAX_SWEEPS - 1)
        if stop.any():
            values[active[stop]] = top[stop]
            for v, c in zip(vecs, cur):
                v[active[stop]] = c[stop]
            active, top, gain, cur = active[~stop], top[~stop], gain[~stop], [c[~stop] for c in cur]
            if not active.size:
                break
    best = int(np.argmax(values))
    return float(values[best]), [v[best].copy() for v in vecs]


@dataclass(frozen=True, eq=False)
class Witness:
    """Entanglement witness built from the target and a separable approximation.

    ``operator`` is (target - approx) - sep_bound * I and ``target_value``
    is Tr[target (target - approx)].  ``sep_bound`` comes from the
    alternating ascent of :func:`max_sep_overlap`, which gives a lower
    estimate of the maximum over separable states, not a bound on it.  So
    the operator need not be nonpositive on every separable state, and
    ``entangled`` (a positive ``margin``) is a heuristic verdict, not a
    certificate.
    """

    operator: np.ndarray
    sep_bound: float
    target_value: float
    dims: tuple[int, ...]

    @property
    def margin(self) -> float:
        return self.target_value - self.sep_bound

    @property
    def entangled(self) -> bool:
        return self.target_value > self.sep_bound


def build_witness(
    target: DensityMatrix,
    approx: DensityMatrix,
    restarts: int = DEFAULT_RESTARTS,
    rng: Optional[np.random.Generator] = None,
) -> Witness:
    """Witness from the difference operator and its separable overlap bound."""
    if target.dims != approx.dims:
        raise DimensionError(f"dims mismatch: {target.dims} vs {approx.dims}")
    # Each state may be off Hermitian by HERMITIAN_TOL, so their difference by twice that.
    diff = hermitize(target.mat - approx.mat)
    sep_bound, _ = max_sep_overlap(diff, target.dims, restarts=restarts, rng=rng)
    value = hs_inner(target.mat, diff)
    return Witness(
        operator=diff - sep_bound * np.eye(diff.shape[0], dtype=complex),
        sep_bound=float(sep_bound),
        target_value=float(value),
        dims=target.dims,
    )
