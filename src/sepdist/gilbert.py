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
trial ``t - 1``, so a run's place in the stream is ``RunState.trials``.
The run loop draws kets in chunks and skips none; how the stream is
chunked and windowed is a speed setting only, and a seeded run's trace
does not depend on it: each ket's overlaps round alike in any window.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError
from .linalg import DensityMatrix, hermitize, hsd_sq, int_arg, is_ppt, maximally_mixed
from .states import SamplerConfig, StateSampler
from .symmetry import INVARIANCE_TOL, SymmetryGroup, invariance_check, twirl, twirl_pure

DEGENERATE_TOL = 1e-14

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
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int_arg(name, getattr(self, name), 0))
        if self.target_d2 is not None and not 0 <= self.target_d2 < math.inf:
            raise ParameterError(f"target_d2 must be nonnegative and finite, got {self.target_d2}")

    def as_dict(self) -> dict:
        """The criteria that are set, by field name."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def trials_left(self, state: "RunState") -> float:
        """Trials the run may still make; it stops when this is at most 0.

        0 once the distance or success target is met; otherwise the fewer
        trials left under ``max_trials`` and ``stall_trials`` (counted by
        :attr:`RunState.stall`), or ``math.inf`` when neither is set.
        """
        if (self.target_d2 is not None and state.d2 <= self.target_d2) or (
            self.max_successes is not None and state.successes >= self.max_successes
        ):
            return 0
        left = math.inf
        if self.max_trials is not None:
            left = min(left, self.max_trials - state.trials)
        if self.stall_trials is not None:
            left = min(left, self.stall_trials - state.stall)
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
            if not isinstance(group, SymmetryGroup):
                raise ValidationError(f"group must be a SymmetryGroup, the closure of PermutedLocal generators; got {type(group).__name__}")
            defect = invariance_check(target, group)
            if defect > INVARIANCE_TOL:
                raise ValidationError(
                    f"group does not leave the target invariant (defect {defect:.3e} > {INVARIANCE_TOL:.0e}); "
                    "twirling would converge to the wrong limit"
                )
            approx = twirl(approx, group)
        return cls(target=target, approx=approx, d2=hsd_sq(target, approx), group=group)

    @property
    def stall(self) -> int:
        """Trials since the last acceptance, ``trace[-1].trials``; all of ``trials`` with an empty trace."""
        return self.trials - (self.trace[-1].trials if self.trace else 0)


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
    ``upb_tiles_state()`` cannot be detected.  ``group`` must be a
    :class:`SymmetryGroup` that leaves the target invariant (``invariance_check``
    at most ``INVARIANCE_TOL``), else :class:`ValidationError`.  When a group is
    given the initial iterate is twirled once up front and every preselected
    trial is twirled; the twirl leaves the trial's overlaps with the
    (invariant) target and iterate unchanged, so the preselection of its
    ket stands.  An accepted trial moves the iterate to the point of their
    segment nearest the target, which may be the trial itself (Gilbert's
    clamp, :meth:`_Engine.try_accept`).  Trial ``t`` is ket ``t`` of the
    sampler's stream, and ``state.trials`` is the run's place in it, so a
    seeded run is deterministic and its trace does not depend on how the
    loop chunks the stream (``CHUNK``, ``MIN_WINDOW``).  The iterate's
    inner products are read from it after every acceptance, and the
    returned ``d2`` is the exact squared distance of the returned iterate.

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
    """The iterate, its inner products with the target and itself, and the acceptance arithmetic."""

    def __init__(self, state: RunState):
        self.state = state
        self.tmat = np.ascontiguousarray(state.target.mat)
        self.amat = np.array(state.approx.mat, copy=True)
        self.mu00 = float(np.vdot(self.tmat, self.tmat).real)
        self.sync()

    def sync(self) -> None:
        self.mu01 = float(np.vdot(self.tmat, self.amat).real)
        self.mu11 = float(np.vdot(self.amat, self.amat).real)

    def try_accept(self, ket: np.ndarray, q0: float, q1: float) -> Optional[str]:
        """Decide one counted trial; on acceptance mix it into the iterate.

        ``ket`` has passed the loop's preselection; ``q0``/``q1`` are its
        overlaps with the target and the iterate.  Under a group the twirled
        trial takes its place with the same ``q0``/``q1``: the target and the
        iterate are group-invariant, so the twirl changes only the trial's
        own norm ``s2``.  The step minimizes d2 over the segment from the
        iterate to the trial (Gilbert, SIAM J. Control 4, 61 (1966)): a weight
        ``w > 1`` is a rejection, and ``w < 0`` is clamped to 0, so the
        separable trial itself becomes the iterate and d2 stays an upper
        bound.  The new distance must be a strict float improvement.  Returns
        the rejection reason, or ``None`` on acceptance.
        """
        if self.state.group is None:
            trial_mat, s2 = np.outer(ket, ket.conj()), 1.0
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
        if not w <= 1.0:
            return REJECT_RANGE
        if w < 0.0:
            w, new_d2 = 0.0, aa
        else:
            new_d2 = aa - ab * ab / bb
        if not new_d2 < self.state.d2:
            return REJECT_DEGENERATE
        self.amat = w * self.amat + (1.0 - w) * trial_mat
        self.sync()
        self.state.d2 = new_d2
        self.state.successes += 1
        self.state.trace.append(TraceRecord(self.state.trials, self.state.successes, self.state.d2))
        return None

    def finalize(self) -> None:
        """Store the iterate and report its exact distance, not the tracked one."""
        self.state.approx = DensityMatrix(self.state.target.dims, hermitize(self.amat))
        self.state.d2 = hsd_sq(self.state.target, self.state.approx)


def _run_loop(state: RunState, sampler: StateSampler, halt: HaltCriteria) -> None:
    """Trial ``t`` is ket ``t`` of the sampler's stream; no ket is skipped.

    ``state`` is the only bookkeeping: a pass starts at row ``state.trials %
    CHUNK`` of the chunk, and draws a new chunk (one ``product_kets`` call)
    at row 0.  The kets' conjugates, taken once per chunk, serve the target
    overlaps (once per chunk) and each window's iterate overlaps.  A window
    covers ``MIN_WINDOW + state.stall`` kets (64, 128, 256, ... after an
    acceptance), cut at the chunk's end and at the trials the halt criteria
    have left.  ``_quad_forms`` rounds a ket's overlaps alike in every
    window, so the trace depends on neither constant.
    """
    engine = _Engine(state)
    while (left := halt.trials_left(state)) > 0:
        trials, start = state.trials, state.trials % CHUNK
        if start == 0:
            kets = sampler.product_kets(state.target.dims, CHUNK)
            bras = kets.conj()
            q0s = _quad_forms(engine.tmat, kets, bras)
        stop = min(start + MIN_WINDOW + state.stall, start + left, CHUNK)
        q1s = _quad_forms(engine.amat, kets[start:stop], bras[start:stop])
        flags = q0s[start:stop] - q1s - engine.mu01 + engine.mu11 > 0.0
        for offset in flags.nonzero()[0].tolist():
            idx = start + offset
            state.trials = trials + offset + 1
            if engine.try_accept(kets[idx], float(q0s[idx]), float(q1s[offset])) is None:
                break  # the iterate moved; later kets need fresh overlaps
        else:
            state.trials = trials + stop - start
    engine.finalize()
