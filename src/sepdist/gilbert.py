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
of a seeded run does not depend on it, since each ket's overlaps round
the same in a window of any size.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .linalg import DensityMatrix, hermitize, hsd_sq, is_ppt, maximally_mixed
from .states import SamplerConfig, StateSampler
from .symmetry import INVARIANCE_TOL, SymmetryGroup, invariance_check, twirl, twirl_pure

DEGENERATE_TOL = 1e-14
REFRESH_EVERY = 1024  # acceptances between exact recomputations of the cached inner products

REJECT_RANGE = "p-out-of-range"
REJECT_DEGENERATE = "degenerate"

# Speed settings of the run loop; results do not depend on them.
CHUNK = 2048  # kets per sampler call
MIN_WINDOW = 64  # kets whose iterate overlaps are computed right after an acceptance


@dataclass(frozen=True)
class HaltCriteria:
    """Stop conditions for a run, at least one set; :meth:`trials_left` is the one halt test.

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

    def trials_left(self, state: "RunState") -> float:
        """Trials the run may still make; it stops when this is at most 0.

        0 once the distance or success target is met; otherwise the fewer
        trials left under ``max_trials`` and ``stall_trials``, or
        ``math.inf`` when neither is set.  The stall count runs from the
        last acceptance, ``state.trace[-1].trials`` (0 with an empty trace).
        """
        if (self.target_d2 is not None and state.d2 <= self.target_d2) or (
            self.max_successes is not None and state.successes >= self.max_successes
        ):
            return 0
        left = math.inf
        if self.max_trials is not None:
            left = min(left, self.max_trials - state.trials)
        if self.stall_trials is not None:
            last_success = state.trace[-1].trials if state.trace else 0
            left = min(left, self.stall_trials - (state.trials - last_success))
        return left


class TraceRecord(NamedTuple):
    trials: int
    successes: int
    d2: float


# TraceRecord's fields as one numpy record: the layout of a trace read from a file.
TRACE_DTYPE = np.dtype(list(zip(TraceRecord._fields, (np.int64, np.int64, np.float64))))


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
        if approx is None:
            approx = maximally_mixed(target.dims)  # separable by construction: nothing to check
        elif approx.dims != target.dims:
            raise DimensionError(f"initial state dims {approx.dims} differ from target dims {target.dims}")
        elif not is_ppt(approx):
            raise ValidationError("initial state is not PPT, so it is entangled and d2 would bound nothing")
        if group is not None:
            defect = invariance_check(target, group)
            if defect > INVARIANCE_TOL:
                raise ValidationError(
                    f"group does not leave the target invariant (defect {defect:.3e} > {INVARIANCE_TOL:.0e}); "
                    "twirling would converge to the wrong limit"
                )
            approx = twirl(approx, group)
        return cls(target=target, approx=approx, d2=hsd_sq(target, approx), group=group)


@dataclass(frozen=True)
class RunResult:
    """Final state and wall time; ``trace`` is ``state.trace``, kept for the benchmark harness."""

    state: RunState
    trace: list[TraceRecord]
    wall_seconds: float


def run(
    target: DensityMatrix,
    halt: HaltCriteria,
    *,
    init: Optional[DensityMatrix] = None,
    group: Optional[SymmetryGroup] = None,
    config: Optional[SamplerConfig] = None,
    sampler: Optional[StateSampler] = None,
) -> RunResult:
    """Iterate trials while ``halt.trials_left`` is positive.

    ``init`` defaults to the maximally mixed state, which is separable by
    construction and not checked.  A given init must be separable, or
    ``d2`` bounds nothing; an init that is not PPT raises
    :class:`ValidationError`, but a PPT entangled init such as
    ``upb_tiles_state()`` cannot be detected.  ``group`` must leave the
    target invariant (:func:`symmetry.invariance_check` at most
    ``INVARIANCE_TOL``, else :class:`ValidationError`).  When a group is
    given the initial iterate is twirled once up front and every preselected
    trial is twirled; the twirl leaves the trial's overlaps with the
    (invariant) target and iterate unchanged, so the preselection of its
    ket stands.  Trial ``t`` is ket ``t`` of the sampler's stream,
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


def _quad_forms(mat: np.ndarray, kets: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """Row-wise <k| M |k> for a stack of kets and their conjugates ``bras`` (real for Hermitian M).

    The bits depend on two numpy operations: the BLAS product ``bras @ mat``
    and the ``einsum`` row sum against ``kets``.  A lone row is evaluated
    inside a two-row block: numpy sends a one-row product to a matrix-vector
    kernel, which rounds differently from the matrix-matrix one, and a
    window's size must not change a decision.
    """
    if len(kets) == 1:
        return _quad_forms(mat, np.concatenate([kets, kets]), np.concatenate([bras, bras]))[:1]
    return np.einsum("ni,ni->n", bras @ mat, kets).real


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
        """Decide one counted trial; on acceptance mix it into the iterate.

        ``ket`` has passed the loop's preselection; ``q0``/``q1`` are its
        overlaps with the target and the iterate.  Under a group the twirled
        trial takes its place with the same ``q0``/``q1``: the target and the
        iterate are group-invariant, so the twirl changes only the trial's
        own norm ``s2``.  The unclamped minimizer must lie in [0, 1] and the
        new distance must be a strict float improvement.  Returns the
        rejection reason, or ``None`` on acceptance.
        """
        if self.state.group is None:
            trial_mat, s2 = None, 1.0
        else:
            trial_mat = twirl_pure(ket, self.state.group)
            s2 = float(np.vdot(trial_mat, trial_mat).real)
        # d2 over mixtures w*approx + (1-w)*trial is aa - 2 w ab + w^2 bb.
        aa = self.mu00 - 2.0 * q0 + s2
        ab = self.mu01 - q0 - q1 + s2
        bb = self.mu11 - 2.0 * q1 + s2
        if bb < DEGENERATE_TOL:
            return REJECT_DEGENERATE
        w = ab / bb
        if not 0.0 <= w <= 1.0:
            return REJECT_RANGE
        new_d2 = aa - ab * ab / bb
        if not new_d2 < self.state.d2:
            return REJECT_DEGENERATE
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

    Kets arrive in chunks of ``CHUNK``, one ``product_kets`` call each;
    their conjugates are taken once per chunk and serve the target
    overlaps (computed once per chunk) and every window's iterate
    overlaps.  A window of iterate overlaps starts at ``MIN_WINDOW`` kets
    after an acceptance (the iterate moved) and doubles while trials keep
    failing; it never runs past the trials the halt criteria have left.
    Each decision depends only on its ket and the current iterate, and
    ``_quad_forms`` rounds a ket's overlaps alike in every window, so the
    trace does not depend on either constant.
    """
    engine = _Engine(state)
    dims = state.target.dims
    start, window = CHUNK, MIN_WINDOW  # start == CHUNK: the chunk is used up
    while (left := halt.trials_left(state)) > 0:
        if start == CHUNK:
            kets = sampler.product_kets(dims, CHUNK)
            bras = kets.conj()
            q0s = _quad_forms(engine.tmat, kets, bras)
            start = 0
        stop = min(start + window, start + left, CHUNK)
        q1s = _quad_forms(engine.amat, kets[start:stop], bras[start:stop])
        flags = q0s[start:stop] - q1s - engine.mu01 + engine.mu11 > 0.0
        before = state.trials - start  # trials counted before ket 0 of this chunk
        for offset in flags.nonzero()[0]:
            idx = start + int(offset)
            state.trials = before + idx + 1
            if engine.try_accept(kets[idx], float(q0s[idx]), float(q1s[offset])) is None:
                start, window = idx + 1, MIN_WINDOW  # the iterate moved; later kets need fresh overlaps
                break
        else:
            state.trials = before + stop
            start, window = stop, min(2 * window, CHUNK)
    engine.finalize()
