import numpy as np
import pytest

from sepdist import (
    DegenerateError,
    DensityMatrix,
    DimensionError,
    HaltCriteria,
    ParameterError,
    RunState,
    SamplerConfig,
    StateSampler,
    TraceRecord,
    ValidationError,
    bell,
    closure,
    css_ghz,
    css_max_entangled,
    ghz,
    ghz_css_distance,
    hsd_sq,
    invariance_check,
    is_ppt,
    local_unitary,
    max_entangled,
    maximally_mixed,
    party_permutation,
    run,
    twirl_pure,
)
from sepdist import gilbert
from conftest import line_search, preselect, random_density, rng_for

BELL = bell()
MAXMIX = maximally_mixed((2, 2))
FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def ket00():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    return np.outer(v, v.conj())


class TestHaltCriteria:
    def test_requires_one(self):
        with pytest.raises(ParameterError):
            HaltCriteria()

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            HaltCriteria(max_trials=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_target_d2_rejected(self, value):
        with pytest.raises(ParameterError):
            HaltCriteria(target_d2=value, max_trials=1000)

    def test_as_dict(self):
        halt = HaltCriteria(max_successes=3, target_d2=0.5)
        assert halt.as_dict() == {"max_successes": 3, "target_d2": 0.5}

    def test_reached(self):
        state = RunState.initial(BELL)  # d2 = 0.75, no successes
        assert HaltCriteria(target_d2=0.5, max_successes=1).trials_left(state) == float("inf")
        assert HaltCriteria(target_d2=0.75).trials_left(state) == 0
        assert HaltCriteria(max_successes=0).trials_left(state) == 0
        assert HaltCriteria(target_d2=0.75, max_trials=100).trials_left(state) == 0

    def test_trials_left(self):
        state = RunState.initial(BELL)
        state.trials = 40
        assert HaltCriteria(stall_trials=25).trials_left(state) == -15  # no acceptance: counted from trial 0
        state.trace.append(TraceRecord(30, 1, 0.7))  # the last acceptance was trial 30
        assert HaltCriteria(max_successes=5).trials_left(state) == float("inf")
        assert HaltCriteria(max_trials=100).trials_left(state) == 60
        assert HaltCriteria(stall_trials=25).trials_left(state) == 15
        assert HaltCriteria(max_trials=50, stall_trials=25).trials_left(state) == 10
        assert HaltCriteria(stall_trials=5).trials_left(state) == -5


class TestPreselect:
    def test_trial_equals_iterate(self):
        assert preselect(BELL, MAXMIX, MAXMIX.mat) == 0.0

    def test_trial_equals_target(self):
        value = preselect(BELL, MAXMIX, BELL.mat)
        assert value == pytest.approx(hsd_sq(BELL, MAXMIX), abs=1e-14)
        assert value > 0

    def test_bell_maxmix_corner_projector(self):
        # oracle: brute-force trace of the product of differences
        r0, r1, r2 = BELL.mat, MAXMIX.mat, ket00()
        brute = np.trace((r2 - r1) @ (r0 - r1)).real
        assert brute == pytest.approx(0.25, abs=1e-14)
        assert preselect(BELL, MAXMIX, r2) == pytest.approx(brute, abs=1e-14)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            preselect(BELL, maximally_mixed((2, 3)), np.eye(6) / 6)


class TestLineSearch:
    def test_target_equals_iterate(self):
        w, d2 = line_search(BELL, BELL, ket00())
        assert w == 1.0
        assert d2 == pytest.approx(0.0, abs=1e-14)

    def test_target_equals_trial(self):
        w, d2 = line_search(BELL, MAXMIX, BELL.mat)
        assert w == 0.0
        assert d2 == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateError):
            line_search(BELL, MAXMIX, MAXMIX.mat)

    def test_dims_mismatch(self):
        # Same 6x6 shapes, different party dims: rejected as preselect rejects them.
        trial = np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(DimensionError):
            line_search(maximally_mixed((2, 3)), maximally_mixed((3, 2)), trial)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_against_golden_section(self, dims):
        rng = rng_for(99)
        for _ in range(100):
            r0 = random_density(dims, rng)
            r1 = random_density(dims, rng)
            r2 = random_density(dims, rng)
            w, d2 = line_search(r0, r1, r2)
            g = golden_section_quadratic(r0.mat, r1.mat, r2.mat)
            assert w == pytest.approx(g, abs=1e-10)
            assert d2 == pytest.approx(hsd_sq(r0.mat, w * r1.mat + (1 - w) * r2.mat), abs=1e-10)


def golden_section_quadratic(t, a1, a2, lo=0.0, hi=1.0, tol=1e-11):
    """Golden-section minimization of Tr(t - p a1 - (1-p) a2)^2 over p.

    The objective is the scalar quadratic in p; probe points are floats
    (hence exactly representable) and comparisons are done in exact
    rational arithmetic, so the bracket genuinely localizes the minimum
    to ``tol`` without a floating-point noise floor.
    """
    from fractions import Fraction

    da = t - a2
    db = a1 - a2
    aa = Fraction(float(np.vdot(da, da).real))
    ab = Fraction(float(np.vdot(da, db).real))
    bb = Fraction(float(np.vdot(db, db).real))

    def f(p):
        q = Fraction(p)
        return aa - 2 * ab * q + bb * q * q

    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return (a + b) / 2


class TestStep:
    def test_step_with_group_keeps_iterate_invariant(self):
        # A seeded run is deterministic, so halting after k successes shows the
        # iterate after each of the first five accepted steps.
        group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        swap = group.elements[1]
        for accepted in range(1, 6):
            result = run(BELL, HaltCriteria(max_successes=accepted), group=group, config=SamplerConfig(seed=4))
            assert result.state.successes == accepted
            moved = swap @ result.state.approx.mat @ swap.conj().T
            assert np.abs(moved - result.state.approx.mat).max() <= 1e-12


class TestEngineAgainstReferences:
    """The first accepted steps of a seeded run, redone with ``preselect`` and ``line_search``.

    Trial t is ket t of the seeded stream, so redrawing the stream in one
    call gives every trial the run tested.  Each accepted trial, mixed into
    the previous iterate with the reference weight, must give the next
    iterate; every trial in between must fail a reference check.
    """

    @pytest.mark.parametrize(
        "target,group",
        [(BELL, None), (BELL, "swap"), (ghz(3), "ghz3")],
        ids=["bell", "bell-swap", "ghz3-sym"],
    )
    def test_first_five_steps(self, target, group):
        # Under a group the run decides on the ket's overlaps; the references see the twirled trial.
        if group == "swap":
            group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        elif group == "ghz3":
            group = ghz3_group()
        config = SamplerConfig(seed=4)
        iterates = [run(target, HaltCriteria(max_successes=k), group=group, config=config).state for k in range(6)]
        trace = iterates[-1].trace
        kets = StateSampler(config).product_kets(target.dims, trace[-1].trials)
        trials = [0] + [rec.trials for rec in trace]
        for k in range(1, 6):
            prev, step = iterates[k - 1], iterates[k]
            for t in range(trials[k - 1] + 1, trials[k] + 1):
                ket = kets[t - 1]
                trial = np.outer(ket, ket.conj()) if group is None else twirl_pure(ket, group)
                value = preselect(target, prev.approx, trial)
                w, d2 = line_search(target, prev.approx, trial)
                if t < trials[k]:
                    assert value <= 0.0 or w in (0.0, 1.0) or not d2 < prev.d2
                    continue
                assert value > 0.0 and 0.0 < w < 1.0 and d2 < prev.d2
                mixed = w * prev.approx.mat + (1.0 - w) * trial
                assert np.abs(mixed - step.approx.mat).max() <= 1e-12
                assert abs(d2 - step.d2) <= 1e-12
                assert abs(d2 - trace[k - 1].d2) <= 1e-12


class TestTryAccept:
    """``_Engine.try_accept`` on bell from the maximally mixed state with the trial |00>.

    There q0 = 1/2 and q1 = 1/4, so the trial passes preselection, the
    weight is w = 2/3 and the quadratic's new distance is 2/3 < d2 = 3/4.
    """

    Q0, Q1, NEW_D2 = 0.5, 0.25, 2.0 / 3.0

    def engine(self):
        return gilbert._Engine(RunState.initial(BELL))

    def test_accepts_an_improving_trial(self):
        engine = self.engine()
        assert engine.try_accept(np.eye(4, dtype=complex)[0], self.Q0, self.Q1) is None
        assert engine.state.d2 == pytest.approx(self.NEW_D2, abs=1e-15)
        assert engine.state.successes == 1

    def test_strict_decrease_guard(self):
        # The tracked d2 sits below the quadratic's value (as after a refresh
        # that corrected drift downward): the trial must not raise d2.
        engine = self.engine()
        engine.state.d2 = 0.6
        before = (engine.amat.copy(), engine.mu01, engine.mu11)
        assert engine.try_accept(np.eye(4, dtype=complex)[0], self.Q0, self.Q1) == gilbert.REJECT_DEGENERATE
        assert np.array_equal(engine.amat, before[0])
        assert (engine.mu01, engine.mu11) == before[1:]
        assert (engine.state.d2, engine.state.successes, engine.state.trace) == (0.6, 0, [])


class TestRun:
    def test_bell_reaches_its_limit(self):
        result = run(BELL, HaltCriteria(max_successes=1000), config=SamplerConfig(seed=7))
        assert 1 / 3 <= result.state.d2 <= 1 / 3 + 0.01

    def test_trace_monotone_and_counters_increase(self):
        result = run(BELL, HaltCriteria(max_successes=300), config=SamplerConfig(seed=3))
        trace = result.trace
        assert len(trace) == 300
        assert all(a.d2 > b.d2 for a, b in zip(trace, trace[1:]))
        assert all(a.trials < b.trials for a, b in zip(trace, trace[1:]))
        assert all(a.successes < b.successes for a, b in zip(trace, trace[1:]))

    def test_d2_matches_full_recomputation(self):
        result = run(BELL, HaltCriteria(max_successes=300), config=SamplerConfig(seed=3))
        assert abs(result.state.d2 - hsd_sq(result.state.target, result.state.approx)) <= 1e-10

    @pytest.mark.parametrize(
        "target,successes,group,seed",
        [(BELL, 800, None, 1), (BELL, 800, None, 3), (BELL, 800, None, 5), (ghz(3), 200, "ghz3", 1)],
        ids=["bell-1", "bell-3", "bell-5", "ghz3-sym-1"],
    )
    def test_final_d2_is_the_exact_distance_of_the_iterate(self, target, successes, group, seed):
        # On these seeds the tracked distance ends a few ulps below the exact one.
        group = ghz3_group() if group == "ghz3" else None
        result = run(target, HaltCriteria(max_successes=successes), group=group, config=SamplerConfig(seed=seed))
        assert result.state.d2 == hsd_sq(target, result.state.approx)

    def test_upper_bound_soundness(self):
        result = run(ghz(3), HaltCriteria(max_successes=400), config=SamplerConfig(seed=5))
        floor = ghz_css_distance(3)
        assert all(rec.d2 >= floor - 1e-9 for rec in result.trace)

    def test_iterate_stays_physical_and_ppt(self):
        result = run(BELL, HaltCriteria(max_successes=500), config=SamplerConfig(seed=9))
        approx = result.state.approx
        assert np.abs(approx.mat - approx.mat.conj().T).max() <= 1e-12
        assert abs(np.trace(approx.mat) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(approx.mat)[0] >= -1e-9
        assert is_ppt(approx, tol=1e-9)

    def test_seeded_reproducibility(self):
        a = run(BELL, HaltCriteria(max_successes=200), config=SamplerConfig(seed=21))
        b = run(BELL, HaltCriteria(max_successes=200), config=SamplerConfig(seed=21))
        assert a.trace == b.trace
        assert np.array_equal(a.state.approx.mat, b.state.approx.mat)

    def test_trial_budget_is_exact(self):
        result = run(BELL, HaltCriteria(max_trials=5000), config=SamplerConfig(seed=2))
        assert result.state.trials == 5000

    def test_distance_halt(self):
        result = run(BELL, HaltCriteria(target_d2=0.5, max_trials=10**6), config=SamplerConfig(seed=2))
        assert result.state.d2 <= 0.5

    def test_stall_halt_on_separable_target(self):
        target = css_max_entangled(2)
        result = run(target, HaltCriteria(stall_trials=500), init=target, config=SamplerConfig(seed=2))
        assert result.state.trials == 500
        assert result.state.successes == 0

    def test_own_css_as_target_accepts_nothing(self):
        target = css_ghz(4)
        result = run(target, HaltCriteria(max_trials=2000), init=target, config=SamplerConfig(seed=2))
        assert result.state.successes == 0
        assert result.state.d2 == 0.0

    def test_group_run_converges(self):
        group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        result = run(BELL, HaltCriteria(max_successes=300), group=group, config=SamplerConfig(seed=7))
        assert result.state.d2 < 0.345
        assert all(a.d2 > b.d2 for a, b in zip(result.trace, result.trace[1:]))
        assert invariance_check(result.state.approx, group) <= 1e-12

    def test_group_that_moves_the_target_rejected(self):
        # <X (x) I> maps the Bell state to an orthogonal one (invariance defect 2.0).
        group = closure([local_unitary([FLIP, np.eye(2)])], (2, 2))
        with pytest.raises(ValidationError, match="does not leave the target invariant"):
            run(BELL, HaltCriteria(max_trials=10), group=group, config=SamplerConfig(seed=0))

    @pytest.mark.parametrize("init", [BELL, max_entangled(3)], ids=["bell", "max_entangled-3"])
    def test_entangled_init_rejected(self, init):
        with pytest.raises(ValidationError, match="not PPT"):
            run(init, HaltCriteria(max_trials=10), init=init, config=SamplerConfig(seed=0))

    @pytest.mark.parametrize("init, checks", [(None, 0), (MAXMIX, 1)], ids=["default", "given"])
    def test_only_a_given_init_is_ppt_checked(self, init, checks):
        # the maximally mixed default is separable by construction
        calls = []

        def counting(rho, *args, **kwargs):
            calls.append(rho)
            return is_ppt(rho, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gilbert, "is_ppt", counting)
            state = RunState.initial(BELL, init)
        assert len(calls) == checks
        assert np.array_equal(state.approx.mat, MAXMIX.mat)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValidationError):
            bad = DensityMatrix((2, 2), np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))
            run(bad, HaltCriteria(max_trials=10), config=SamplerConfig(seed=0))

    def test_init_dims_mismatch(self):
        with pytest.raises(DimensionError):
            run(BELL, HaltCriteria(max_trials=10), init=maximally_mixed((2, 3)), config=SamplerConfig(seed=0))

    def test_group_dims_mismatch(self):
        with pytest.raises(DimensionError):
            run(BELL, HaltCriteria(max_trials=10), group=ghz3_group(), config=SamplerConfig(seed=0))

    def test_sampler_and_config_conflict(self):
        with pytest.raises(ParameterError):
            run(
                BELL,
                HaltCriteria(max_trials=10),
                config=SamplerConfig(seed=0),
                sampler=StateSampler(SamplerConfig(seed=0)),
            )


def ghz3_group():
    dims = (2, 2, 2)
    generators = [
        party_permutation((1, 0, 2), dims),
        party_permutation((1, 2, 0), dims),
        local_unitary([FLIP, FLIP, FLIP]),
    ]
    return closure(generators, dims)


class CountingSampler(StateSampler):
    def __init__(self, config):
        super().__init__(config)
        self.drawn = 0

    def product_kets(self, dims, count):
        self.drawn += count
        return super().product_kets(dims, count)


class TestKetStream:
    """Trial t of a sequential run is ket t of the sampler's stream."""

    @pytest.mark.parametrize(
        "target,halt,group",
        [
            (BELL, HaltCriteria(max_successes=400), None),
            (ghz(3), HaltCriteria(max_successes=150), "ghz3"),
            (ghz(3), HaltCriteria(max_successes=400), None),
            (max_entangled(3), HaltCriteria(max_successes=400), None),
        ],
        ids=["bell", "ghz3-sym", "ghz3", "max_entangled-3"],
    )
    def test_trace_does_not_depend_on_chunking(self, target, halt, group, monkeypatch):
        group = ghz3_group() if group == "ghz3" else None
        reference = run(target, halt, group=group, config=SamplerConfig(seed=12))
        for chunk, window in [(256, 64), (2048, 2048), (100, 7), (8192, 1)]:
            monkeypatch.setattr(gilbert, "CHUNK", chunk)
            monkeypatch.setattr(gilbert, "MIN_WINDOW", window)
            result = run(target, halt, group=group, config=SamplerConfig(seed=12))
            assert result.trace == reference.trace
            assert result.state.trials == reference.state.trials
            assert np.array_equal(result.state.approx.mat, reference.state.approx.mat)

    @pytest.mark.parametrize(
        "target,halt",
        [
            (BELL, HaltCriteria(max_successes=300)),
            (BELL, HaltCriteria(max_trials=5000)),
            (BELL, HaltCriteria(target_d2=0.4, max_trials=10**6)),
            (css_max_entangled(2), HaltCriteria(stall_trials=3000)),
        ],
        ids=["successes", "trials", "distance", "stall"],
    )
    def test_fewer_than_one_chunk_of_kets_goes_unused(self, target, halt):
        sampler = CountingSampler(SamplerConfig(seed=4))
        init = target if target is not BELL else None  # the separable target starts at its own CSS
        result = run(target, halt, init=init, sampler=sampler)
        assert 0 <= sampler.drawn - result.state.trials < gilbert.CHUNK


class TestPinnedTrajectories:
    """Last trace record and counters of seeded runs, exact to the bit.

    Trial t is ket t of the seeded stream, so these values do not depend on
    how the loop chunks the stream; any change to the trajectory of a seeded
    run fails here.
    """

    def test_bell_success_halt(self):
        result = run(BELL, HaltCriteria(max_successes=800), config=SamplerConfig(seed=3))
        assert result.trace[-1] == (52931, 800, 0.33828649372199304)
        assert (result.state.trials, result.state.successes) == (52931, 800)

    def test_bell_trial_and_stall_halt(self):
        result = run(BELL, HaltCriteria(max_trials=4097, stall_trials=300), config=SamplerConfig(seed=3))
        assert result.trace[-1] == (3932, 194, 0.35178627359118575)
        assert (result.state.trials, result.state.successes) == (4097, 194)

    def test_ghz3_under_group(self):
        result = run(ghz(3), HaltCriteria(max_successes=200), group=ghz3_group(), config=SamplerConfig(seed=1))
        assert result.trace[-1] == (233247, 200, 0.47213999653464844)
        assert (result.state.trials, result.state.successes) == (233247, 200)
