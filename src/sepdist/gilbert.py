"""Random-direction conditional-gradient iteration toward the separable set.

Each trial draws a random pure product state, keeps it only if the linear
functional Tr[(trial - approx)(target - approx)] is positive (a positive
value guarantees some admixture strictly shrinks the squared distance),
optionally symmetrizes it over an attached group, solves the exact
one-dimensional line search in closed form, and mixes it into the running
separable approximation.  The squared distance d2 is therefore a
monotonically improving upper bound on the distance between the target
and the separable set.

Trials run as one sequential stream: trial ``t`` is ket ``t`` of the
sampler's seeded stream, tested against the iterate as it stands after
trial ``t - 1``.  The run loop draws kets in chunks and skips none; how
the stream is chunked and windowed is a speed setting only, and the trace
of a seeded run does not depend on it.  :func:`step` runs one trial
through the same acceptance arithmetic (``_Engine.try_accept``).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateError, DimensionError, ParameterError
from .linalg import DensityMatrix, as_matrix, assert_valid_density, hermitize, hsd_sq, maximally_mixed
from .states import SamplerConfig, StateSampler
from .symmetry import SymmetryGroup, twirl, twirl_pure

DEGENERATE_TOL = 1e-14
REFRESH_EVERY = 1024  # acceptances between exact recomputations of the cached inner products

REJECT_PRESELECT = "preselect-failed"
REJECT_RANGE = "p-out-of-range"
REJECT_DEGENERATE = "degenerate"

# Speed settings of the run loop; results do not depend on them.
CHUNK = 2048  # kets per sampler call
MIN_WINDOW = 64  # kets whose iterate overlaps are computed right after an acceptance


@dataclass(frozen=True)
class HaltCriteria:
    """Stop conditions for a run; at least one must be set.

    ``stall_trials`` counts trials since the last accepted correction and
    guarantees termination on (nearly) separable targets; ``max_trials``
    does too.  With neither, a run on such a target may never end.
    """

    max_successes: Optional[int] = None
    max_trials: Optional[int] = None
    target_d2: Optional[float] = None
    stall_trials: Optional[int] = None

    def __post_init__(self):
        values = (self.max_successes, self.max_trials, self.target_d2, self.stall_trials)
        if all(v is None for v in values):
            raise ParameterError("at least one halt criterion must be set")
        for name in ("max_successes", "max_trials", "stall_trials"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ParameterError(f"{name} must be nonnegative, got {v}")
        if self.target_d2 is not None and not 0 <= self.target_d2 < math.inf:
            raise ParameterError(f"target_d2 must be nonnegative and finite, got {self.target_d2}")

    def as_dict(self) -> dict:
        """The criteria that are set, by field name."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def reached(self, state: "RunState") -> bool:
        """The distance target or the success target has been met."""
        return (self.target_d2 is not None and state.d2 <= self.target_d2) or (
            self.max_successes is not None and state.successes >= self.max_successes
        )

    def trials_left(self, state: "RunState", last_success: int) -> float:
        """Trials that may still run before ``max_trials`` or ``stall_trials`` fires.

        ``last_success`` is the trial count at the last acceptance (or at
        the start of the run); ``math.inf`` when neither limit is set.
        """
        left = math.inf
        if self.max_trials is not None:
            left = min(left, self.max_trials - state.trials)
        if self.stall_trials is not None:
            left = min(left, self.stall_trials - (state.trials - last_success))
        return left


class TraceRecord(NamedTuple):
    trials: int
    successes: int
    d2: float


@dataclass
class RunState:
    """Mutable run state: the target, the separable iterate, counters, log."""

    target: DensityMatrix
    approx: DensityMatrix
    d2: float
    trials: int = 0
    successes: int = 0
    group: Optional[SymmetryGroup] = None
    trace: list[TraceRecord] = field(default_factory=list)

    @classmethod
    def initial(
        cls,
        target: DensityMatrix,
        approx: Optional[DensityMatrix] = None,
        group: Optional[SymmetryGroup] = None,
    ) -> "RunState":
        assert_valid_density(target)
        if approx is None:
            approx = maximally_mixed(target.dims)
        if approx.dims != target.dims:
            raise DimensionError(f"initial state dims {approx.dims} differ from target dims {target.dims}")
        assert_valid_density(approx)
        if group is not None:
            if group.dims != target.dims:
                raise DimensionError(f"group dims {group.dims} differ from target dims {target.dims}")
            approx = twirl(approx, group)
        diff = target.mat - approx.mat
        return cls(target=target, approx=approx, d2=float(np.vdot(diff, diff).real), group=group)


@dataclass(frozen=True)
class StepOutcome:
    accepted: bool
    record: Optional[TraceRecord] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class RunResult:
    state: RunState
    trace: list[TraceRecord]
    wall_seconds: float


def preselect(target, approx, trial) -> float:
    """Value of Tr[(trial - approx)(target - approx)]; accept when positive."""
    if isinstance(target, DensityMatrix) and isinstance(approx, DensityMatrix) and target.dims != approx.dims:
        raise DimensionError(f"dims mismatch: {target.dims} vs {approx.dims}")
    t, a, r = as_matrix(target), as_matrix(approx), as_matrix(trial)
    if not (t.shape == a.shape == r.shape):
        raise DimensionError(f"shape mismatch: {t.shape}, {a.shape}, {r.shape}")
    return float(np.vdot(r - a, t - a).real)


def _line_search_raw(mu00: float, mu01: float, mu11: float, q0: float, q1: float, s2: float):
    """Inner products of the quadratic d2(w) = aa - 2 w ab + w^2 bb.

    ``mu..`` are the cached pairwise inner products of (target, approx),
    ``q0``/``q1`` the trial's overlaps with target/approx, ``s2`` the
    trial's purity.  Returns (aa, ab, bb).
    """
    aa = mu00 - 2.0 * q0 + s2
    ab = mu01 - q0 - q1 + s2
    bb = mu11 - 2.0 * q1 + s2
    return aa, ab, bb


def line_search(target, approx, trial) -> tuple[float, float]:
    """Exact minimizer of d2 over mixtures w*approx + (1-w)*trial.

    Returns the weight clamped to [0, 1] and the squared distance at the
    clamped weight, evaluated by quadratic expansion.
    """
    t, a, r = as_matrix(target), as_matrix(approx), as_matrix(trial)
    if not (t.shape == a.shape == r.shape):
        raise DimensionError(f"shape mismatch: {t.shape}, {a.shape}, {r.shape}")
    mu00 = float(np.vdot(t, t).real)
    mu01 = float(np.vdot(t, a).real)
    mu11 = float(np.vdot(a, a).real)
    q0 = float(np.vdot(t, r).real)
    q1 = float(np.vdot(a, r).real)
    s2 = float(np.vdot(r, r).real)
    aa, ab, bb = _line_search_raw(mu00, mu01, mu11, q0, q1, s2)
    if bb < DEGENERATE_TOL:
        raise DegenerateError("approx and trial coincide; line search direction is degenerate")
    w = min(1.0, max(0.0, ab / bb))
    return w, aa - 2.0 * w * ab + w * w * bb


def _decide(mu00, mu01, mu11, q0, q1, s2, d2):
    """Acceptance decision for one trial given cached inner products.

    Returns (reason, weight, new_d2); reason is None on acceptance.  The
    unclamped minimizer must land in [0, 1] and the new distance must be a
    strict float improvement (guards the monotone trace against roundoff).
    """
    f = q0 - q1 - mu01 + mu11
    if not f > 0.0:
        return REJECT_PRESELECT, None, None
    aa, ab, bb = _line_search_raw(mu00, mu01, mu11, q0, q1, s2)
    if bb < DEGENERATE_TOL:
        return REJECT_DEGENERATE, None, None
    w = ab / bb
    if not 0.0 <= w <= 1.0:
        return REJECT_RANGE, None, None
    new_d2 = aa - ab * ab / bb
    if not new_d2 < d2:
        return REJECT_DEGENERATE, None, None
    return None, w, new_d2


def step(state: RunState, sampler: StateSampler) -> StepOutcome:
    """One trial: draw, preselect, optionally twirl, line-search, update.

    Always increments the trial counter; on acceptance updates the
    iterate, the distance and the trace.  The trial goes through the same
    acceptance arithmetic as :func:`run`, on inner products recomputed
    from the current iterate.
    """
    state.trials += 1
    kets = sampler.product_kets(state.target.dims, 1)
    engine = _Engine(state)
    q0 = float(_quad_forms(engine.tmat, kets)[0])
    q1 = float(_quad_forms(engine.amat, kets)[0])
    reason = engine.try_accept(kets[0], q0, q1)
    if reason is not None:
        return StepOutcome(False, reason=reason)
    state.approx = DensityMatrix(state.target.dims, engine.amat)
    return StepOutcome(True, record=state.trace[-1])


def run(
    target: DensityMatrix,
    halt: HaltCriteria,
    *,
    init: Optional[DensityMatrix] = None,
    group: Optional[SymmetryGroup] = None,
    config: Optional[SamplerConfig] = None,
    sampler: Optional[StateSampler] = None,
) -> RunResult:
    """Iterate trials until a halt criterion fires.

    ``init`` defaults to the maximally mixed state; when a group is given
    the initial iterate is twirled once up front and every preselected
    trial is twirled (with the preselection functional re-checked on the
    symmetrized trial).  Trial ``t`` is ket ``t`` of the sampler's stream,
    so a seeded run is deterministic and its trace does not depend on how
    the loop chunks the stream (``CHUNK``, ``MIN_WINDOW``).  The cached
    inner products are recomputed exactly every ``REFRESH_EVERY``
    acceptances, and the returned ``d2`` is the exact squared distance of
    the returned iterate.

    Without ``max_trials`` or ``stall_trials`` a run on a (nearly)
    separable target may never end: no trial is accepted, so neither the
    success nor the distance target is met.
    """
    if sampler is None:
        sampler = StateSampler(config if config is not None else SamplerConfig())
    elif config is not None:
        raise ParameterError("pass either a sampler or a config, not both")
    state = RunState.initial(target, init, group)
    begin = time.perf_counter()
    _run_loop(state, sampler, halt)
    return RunResult(state, state.trace, time.perf_counter() - begin)


def _quad_forms(mat: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Row-wise <k| M |k> for a stack of kets (real for Hermitian M)."""
    return np.einsum("ni,ni->n", kets.conj() @ mat, kets).real


class _Engine:
    """Cached inner products and the acceptance and update arithmetic."""

    def __init__(self, state: RunState):
        self.state = state
        self.tmat = np.ascontiguousarray(state.target.mat)
        self.amat = np.array(state.approx.mat, copy=True)
        self.mu00 = float(np.vdot(self.tmat, self.tmat).real)
        self.refresh()

    def refresh(self) -> None:
        self.amat = hermitize(self.amat)
        self.mu01 = float(np.vdot(self.tmat, self.amat).real)
        self.mu11 = float(np.vdot(self.amat, self.amat).real)
        exact = self.mu00 - 2.0 * self.mu01 + self.mu11
        # Keep the logged distances monotone: drift corrections may not move d2 up.
        self.state.d2 = min(self.state.d2, exact) if self.state.trace else exact

    def try_accept(self, ket: np.ndarray, q0: float, q1: float) -> Optional[str]:
        """Test one counted trial; on acceptance mix it into the iterate.

        ``q0``/``q1`` are the ket's overlaps with the target and the
        iterate.  Returns the rejection reason, or ``None`` on acceptance.
        """
        if not q0 - q1 - self.mu01 + self.mu11 > 0.0:
            return REJECT_PRESELECT
        if self.state.group is None:
            trial_mat, s2 = None, 1.0
        else:
            trial_mat = twirl_pure(ket, self.state.group)
            q0 = float(np.vdot(self.tmat, trial_mat).real)
            q1 = float(np.vdot(self.amat, trial_mat).real)
            s2 = float(np.vdot(trial_mat, trial_mat).real)
        reason, w, new_d2 = _decide(self.mu00, self.mu01, self.mu11, q0, q1, s2, self.state.d2)
        if reason is not None:
            return reason
        self.amat *= w
        if trial_mat is None:
            self.amat += (1.0 - w) * np.outer(ket, ket.conj())
        else:
            self.amat += (1.0 - w) * trial_mat
        self.mu01 = w * self.mu01 + (1.0 - w) * q0
        self.mu11 = w * w * self.mu11 + 2.0 * w * (1.0 - w) * q1 + (1.0 - w) ** 2 * s2
        self.state.d2 = new_d2
        self.state.successes += 1
        if self.state.successes % REFRESH_EVERY == 0:
            self.refresh()
        self.state.trace.append(TraceRecord(self.state.trials, self.state.successes, self.state.d2))
        return None

    def finalize(self) -> None:
        """Store the iterate and report its exact distance, not the tracked one."""
        self.state.approx = DensityMatrix(self.state.target.dims, hermitize(self.amat))
        self.state.d2 = hsd_sq(self.state.target, self.state.approx)


def _run_loop(state: RunState, sampler: StateSampler, halt: HaltCriteria) -> None:
    """Trial ``t`` is ket ``t`` of the sampler's stream; no ket is skipped.

    Kets arrive in chunks of ``CHUNK``; their target overlaps are computed
    once per chunk.  Iterate overlaps are computed on windows that start
    at ``MIN_WINDOW`` kets after an acceptance (the iterate moved) and
    double while trials keep failing; a window never runs past the trials
    the halt criteria have left.  Each decision depends only on its ket
    and the current iterate, so the trace does not depend on either
    constant.
    """
    engine = _Engine(state)
    dims = state.target.dims
    last_success = state.trials
    start, window = CHUNK, MIN_WINDOW  # start == CHUNK: the chunk is used up
    while not halt.reached(state):
        left = halt.trials_left(state, last_success)
        if left <= 0:
            break
        if start == CHUNK:
            kets = sampler.product_kets(dims, CHUNK)
            q0s = _quad_forms(engine.tmat, kets)
            start = 0
        stop = min(start + window, start + left, CHUNK)
        q1s = _quad_forms(engine.amat, kets[start:stop])
        flags = q0s[start:stop] - q1s - engine.mu01 + engine.mu11 > 0.0
        before = state.trials - start  # trials counted before ket 0 of this chunk
        for offset in flags.nonzero()[0]:
            idx = start + int(offset)
            state.trials = before + idx + 1
            if engine.try_accept(kets[idx], float(q0s[idx]), float(q1s[offset])) is None:
                last_success = state.trials
                start, window = idx + 1, MIN_WINDOW  # the iterate moved; later kets need fresh overlaps
                break
        else:
            state.trials = before + stop
            start, window = stop, min(2 * window, CHUNK)
    engine.finalize()
