"""Post-processing of runs: extrapolation, scaling fits, witnesses.

The distance limit is estimated by maximizing the sample correlation
between the success index and |ln(d2 - a)|^b over the free parameters
(a, b); the located ``a`` approximates the asymptotic squared distance.
A separate log-log fit captures the success-vs-trial scaling, and the
final iterate can be turned into an entanglement witness by bounding the
operator's overlap with product states from below via alternating
eigenvector ascent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, prod, sqrt
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateError, DimensionError, ParameterError
from .gilbert import TraceRecord
from .linalg import DensityMatrix, as_matrix, contract_party, hs_inner, require_hermitian

DEFAULT_STRIDE = 100
DEFAULT_RESTARTS = 64
# Coarse grid of the extrapolation fit: points in a (log-spaced gap) and in b.
A_POINTS = 200
B_POINTS = 96
# Alternating ascent of max_sep_overlap: stop a restart once a sweep gains
# no more than GAIN_TOL, or after MAX_SWEEPS sweeps.
GAIN_TOL = 1e-12
MAX_SWEEPS = 200
# Scores the extrapolation descent keeps: a pass tries four points, so
# eight cover the current and the previous pass.
_RECENT_SCORES = 8


def correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson sample correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError(f"sequences must share one length, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ParameterError("need at least two points")
    vx = x.var()
    vy = y.var()
    if vx <= 0.0 or vy <= 0.0:
        raise DegenerateError("zero variance; correlation is undefined")
    return float(((x * y).mean() - x.mean() * y.mean()) / np.sqrt(vx * vy))


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


def _strided(trace: Sequence[TraceRecord], stride: int):
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    return [rec for rec in trace if rec[1] % stride == 0]


def _corr_with(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Correlation of x against each row of a matrix, -inf where degenerate."""
    xc = x - x.mean()
    xn = np.sqrt((xc * xc).sum())
    rc = rows - rows.mean(axis=1, keepdims=True)
    rn = np.sqrt((rc * rc).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (rc @ xc) / (rn * xn)
    return np.where(np.isfinite(r), r, -np.inf)


def fit_extrapolation(
    trace: Sequence[TraceRecord],
    stride: int = DEFAULT_STRIDE,
    *,
    b_range: tuple[float, float] = (1.0, 20.0),
) -> ExtrapolationFit:
    """Estimate the distance limit by correlation maximization.

    Subsamples the trace at every ``stride``-th success, then maximizes the
    correlation between the success index and |ln(d2 - a)|^b over a in
    [0, min d2) and b in ``b_range`` by a coarse ``A_POINTS`` x
    ``B_POINTS`` grid followed by coordinate descent with shrinking steps.
    ``b_range`` must satisfy ``0 < b_min <= b_max``; equal bounds fix the
    exponent and only ``a`` is searched.

    The descent reuses the scores of the last eight points it tried, which
    cover its current and previous pass; nearly every point it revisits
    (mostly the one it just moved from) is among them.  A score is a pure
    function of (a, b), so results do not depend on this reuse.
    """
    b_lo, b_hi = (float(v) for v in b_range)
    if not 0.0 < b_lo <= b_hi < inf:
        raise ParameterError(f"b_range must satisfy 0 < b_min <= b_max < inf, got {b_range}")
    picked = _strided(trace, stride)
    if len(picked) < 10:
        raise ParameterError(f"need at least 10 trace points after striding, got {len(picked)}")
    x = np.array([rec[1] for rec in picked], dtype=float)
    g = np.array([rec[2] for rec in picked], dtype=float)
    if not np.all(np.diff(g) < 0):
        raise ParameterError("trace distances must be strictly decreasing")
    if g[-1] <= 0.0:
        raise ParameterError("trace distances must stay positive")
    dmin = float(g[-1])
    n = g.size
    add = np.add.reduce
    # x is fixed, so it is centred and normed once; each descent score
    # then centres only y, taking its mean as the same pairwise sum over
    # the same count that ndarray.mean would.
    xc = x - x.mean()
    xn = sqrt(add(xc * xc))

    def score(a: float, b: float) -> float:
        y = np.abs(np.log(g - a)) ** b
        yc = y - add(y) / n
        denom = sqrt(add(yc * yc))
        if denom == 0.0 or not isfinite(denom):
            return -inf
        return float(yc @ xc) / (denom * xn)

    # Coarse grid: log-spaced in the gap (min d2 - a) so both a ~ 0 and
    # a ~ min d2 are covered, times a linear grid in b.
    gaps = np.geomspace(dmin * 1e-9, dmin, A_POINTS)
    a_grid = dmin - gaps
    a_grid[-1] = 0.0
    ln_abs = np.abs(np.log(g[None, :] - a_grid[:, None]))
    best = (-np.inf, 0.0, b_lo)
    for b in np.linspace(b_lo, b_hi, B_POINTS):
        r = _corr_with(x, ln_abs**b)
        i = int(np.argmax(r))
        if r[i] > best[0]:
            best = (float(r[i]), float(a_grid[i]), float(b))

    r_best, a_best, b_best = best
    a_hi = dmin * (1.0 - 1e-12)
    step_a = dmin / 8.0
    step_b = (b_hi - b_lo) / B_POINTS
    recent: dict[tuple[float, float], float] = {}
    while step_a > dmin * 1e-7 or step_b > 1e-6:
        moved = True
        while moved:
            moved = False
            for da, db in ((step_a, 0.0), (-step_a, 0.0), (0.0, step_b), (0.0, -step_b)):
                a_try = min(max(a_best + da, 0.0), a_hi)
                b_try = min(max(b_best + db, b_lo), b_hi)
                key = (a_try, b_try)
                r_try = recent.pop(key, None)
                if r_try is None:
                    r_try = score(a_try, b_try)
                    if len(recent) == _RECENT_SCORES:
                        del recent[next(iter(recent))]
                recent[key] = r_try
                if r_try > r_best:
                    r_best, a_best, b_best = r_try, a_try, b_try
                    moved = True
        step_a /= 2.0
        step_b /= 2.0
    return ExtrapolationFit(a=a_best, b=b_best, r=r_best, stride=stride)


def fit_power(trace: Sequence[TraceRecord]) -> PowerFit:
    """Least-squares line through (ln trials, ln successes); the slope is the exponent."""
    if len(trace) < 10:
        raise ParameterError(f"need at least 10 trace points, got {len(trace)}")
    ct = np.array([rec[0] for rec in trace], dtype=float)
    cs = np.array([rec[1] for rec in trace], dtype=float)
    if np.any(ct <= 0) or np.any(cs <= 0):
        raise ParameterError("trace counters must be strictly positive")
    lx = np.log(ct)
    ly = np.log(cs)
    slope, intercept = np.polyfit(lx, ly, 1)
    return PowerFit(f=float(slope), c=float(np.exp(intercept)), r2=float(correlation(lx, ly) ** 2))


class Diagnostics(NamedTuple):
    commutator_norm: float
    spectrum_target: np.ndarray
    spectrum_approx: np.ndarray
    spectral_d2: float


def diagnostics(target: DensityMatrix, approx: DensityMatrix) -> Diagnostics:
    """Commutator norm, sorted spectra, and the spectral distance proxy.

    When the two states commute the squared distance equals the squared
    Euclidean distance between the sorted spectra, so convergence can be
    watched on eigenvalues alone.
    """
    if target.dims != approx.dims:
        raise DimensionError(f"dims mismatch: {target.dims} vs {approx.dims}")
    comm = target.mat @ approx.mat - approx.mat @ target.mat
    spec_t = np.linalg.eigvalsh(target.mat)
    spec_a = np.linalg.eigvalsh(approx.mat)
    return Diagnostics(
        commutator_norm=float(np.linalg.norm(comm)),
        spectrum_target=spec_t,
        spectrum_approx=spec_a,
        spectral_d2=float(((spec_t - spec_a) ** 2).sum()),
    )


def _ascend_once(op: np.ndarray, dims: tuple[int, ...], vecs: list[np.ndarray]) -> float:
    """One sweep of best responses; returns the overlap after the sweep."""
    n = len(dims)
    value = 0.0
    for p in range(n):
        cur = op
        cur_dims = list(dims)
        for q in range(n - 1, -1, -1):
            if q == p:
                continue
            cur = contract_party(cur, q, vecs[q], tuple(cur_dims))
            del cur_dims[q]
        vals, vectors = np.linalg.eigh((cur + cur.conj().T) / 2)
        vecs[p] = vectors[:, -1]
        value = float(vals[-1])
    return value


def max_sep_overlap(
    op,
    dims,
    restarts: int = DEFAULT_RESTARTS,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, list[np.ndarray]]:
    """Largest <phi|M|phi> over product states, from below.

    Alternating best-response ascent: with all parties but one fixed, the
    optimal free vector is the top eigenvector of the partially contracted
    operator.  Repeated from ``restarts`` random product starts (at least
    one), each swept until a sweep gains at most ``GAIN_TOL`` or
    ``MAX_SWEEPS`` sweeps have run; returns the best value found and the
    per-party vectors achieving it.
    """
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise DimensionError("need at least two parties")
    m = as_matrix(op)
    if m.shape[0] != prod(dims):
        raise DimensionError(f"operator size {m.shape[0]} does not match dims {dims}")
    require_hermitian(m, what="overlap operator")
    if rng is None:
        rng = np.random.default_rng(0)
    best_value = -np.inf
    best_vecs: list[np.ndarray] = []
    for _ in range(restarts):
        vecs = []
        for d in dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(v / np.linalg.norm(v))
        value = -np.inf
        for _ in range(MAX_SWEEPS):
            new_value = _ascend_once(m, dims, vecs)
            if new_value - value <= GAIN_TOL:
                value = new_value
                break
            value = new_value
        if value > best_value:
            best_value = value
            best_vecs = [v.copy() for v in vecs]
    return best_value, best_vecs


@dataclass(frozen=True, eq=False)
class Witness:
    """Entanglement witness built from the target and a separable approximation.

    ``operator`` is (target - approx) - sep_bound * I; its expectation is
    nonpositive on every separable state, so a positive expectation on the
    target certifies entanglement.  ``target_value`` is Tr[target (target
    - approx)].
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
    diff = target.mat - approx.mat
    sep_bound, _ = max_sep_overlap(diff, target.dims, restarts=restarts, rng=rng)
    value = hs_inner(target.mat, diff, check=False)
    return Witness(
        operator=diff - sep_bound * np.eye(diff.shape[0], dtype=complex),
        sep_bound=float(sep_bound),
        target_value=float(value),
        dims=target.dims,
    )


__all__ = [
    "correlation",
    "ExtrapolationFit",
    "fit_extrapolation",
    "PowerFit",
    "fit_power",
    "Diagnostics",
    "diagnostics",
    "max_sep_overlap",
    "Witness",
    "build_witness",
    "DEFAULT_STRIDE",
    "DEFAULT_RESTARTS",
]
