from functools import cache
from pathlib import Path

import numpy as np
import pytest

from sepdist import (
    DegenerateError,
    DensityMatrix,
    DimensionError,
    ParameterError,
    TraceRecord,
    ValidationError,
    bell,
    build_witness,
    correlation,
    css_ghz,
    css_max_entangled,
    fileio,
    fit_extrapolation,
    fit_power,
    ghz,
    gilbert,
    max_sep_overlap,
    named_state,
    states,
    upb_tiles_state,
)
from sepdist import analysis
from sepdist.analysis import MAX_SWEEPS
from sepdist.linalg import contract_party
from conftest import (
    exact_decay_trace,
    random_density,
    random_hermitian,
    reference_fit_extrapolation,
    reference_loads_trace,
    reference_starts,
    rng_for,
    subnormal_trace,
)


RECORDED_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def slow_decay_trace():
    """Same functional form as exact_decay_trace, sampled far from the asymptote."""
    return [TraceRecord(3 * k, k, 0.002 + np.exp(-((k / 50.0) ** 0.125))) for k in range(1, 1001)]


def recorded_trace(name):
    return lambda: fileio.read_trace(RECORDED_INPUTS / name)


@cache
def fresh_trace(name, seed, successes):
    """Trace of a seeded ``gilbert.run`` on a named state, made once per session."""
    halt = gilbert.HaltCriteria(max_successes=successes)
    return gilbert.run(named_state(name), halt, config=states.SamplerConfig(seed=seed)).trace


def grid_r(trace, stride, b_range):
    """Best r of the 200 x 96 grid, log-spaced in min d2 - a and linear in b, that the zoom search replaced.

    The grid once picked where the zoom started; here it is the reference the search must reach.
    """
    picked = [rec for rec in trace if rec.successes % stride == 0]
    x = np.array([rec.successes for rec in picked], dtype=float)
    g = np.array([rec.d2 for rec in picked])
    dmin = g[-1]
    a = dmin - np.geomspace(dmin * 1e-9, dmin, 200)
    a[-1] = 0.0
    ln_abs = np.abs(np.log(g - a[:, None]))
    xc, xn = analysis._centred(x)
    best = -np.inf
    for b in np.unique(np.linspace(*b_range, 96)):  # one pass when the bounds are equal
        with np.errstate(over="ignore"):
            best = max(best, analysis._corr_with(xc, xn, ln_abs**b).max())
    return best


class TestCorrelation:
    def test_perfect_linear(self):
        x = np.arange(1.0, 9.0)
        assert correlation(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_clamped_at_one(self):
        # 1.0000000000000002 unclamped: the rounding of an exact linear fit
        x = np.linspace(0.1, 1.7, 8)
        assert correlation(x, 0.3 * x + 0.2) == 1.0

    def test_anticorrelated(self):
        x = np.arange(1.0, 9.0)
        assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        assert correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-14)

    def test_zero_variance(self):
        with pytest.raises(DegenerateError):
            correlation([1, 2, 3], [5, 5, 5])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            correlation([1, 2, 3], [1, 2])

    def test_arguments_are_left_unchanged(self):
        # Float arrays pass through np.asarray uncopied, and the scoring works in place.
        x, y = np.linspace(0.1, 1.7, 8), np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        before = x.copy(), y.copy()
        correlation(x, y)
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])

    @pytest.mark.parametrize(
        "x",
        [1e8 + np.arange(10.0), 1e4 + 1e-3 * np.arange(10.0)],
        ids=["large-offset", "small-spread"],
    )
    def test_offset_does_not_cancel(self, x):
        # E[xy] - E[x]E[y] read 0.9697 and 1.0042 on these
        assert correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)


class TestFitExtrapolation:
    @pytest.mark.parametrize("b", [6.0, 8.0, 10.0])
    def test_roundtrip_nonzero_limit(self, b):
        fit = fit_extrapolation(exact_decay_trace(0.002, b), stride=1)
        assert abs(fit.a - 0.002) <= 0.1 * 0.002
        assert fit.r >= 0.999
        assert fit.b == pytest.approx(b, rel=0.05)

    @pytest.mark.parametrize("b", [6.0, 8.0, 10.0])
    def test_roundtrip_zero_limit(self, b):
        trace = exact_decay_trace(0.0, b)
        fit = fit_extrapolation(trace, stride=1)
        assert fit.a <= min(rec.d2 for rec in trace)
        assert abs(fit.a) <= 1e-4
        assert fit.r >= 0.999

    def test_slow_decay_generator(self):
        fit = fit_extrapolation(slow_decay_trace(), stride=1)
        assert abs(fit.a - 0.002) <= 0.1 * 0.002
        assert fit.r > 0.999

    def test_striding(self):
        trace = exact_decay_trace(0.001, 8.0, n=3000)
        fit = fit_extrapolation(trace, stride=100)
        assert fit.stride == 100
        assert abs(fit.a - 0.001) <= 0.1 * 0.001

    def test_limit_below_all_distances(self):
        trace = exact_decay_trace(0.004, 6.0)
        fit = fit_extrapolation(trace, stride=1)
        assert fit.a < min(rec.d2 for rec in trace)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            fit_extrapolation(exact_decay_trace(0.002, 8.0, n=5), stride=1)

    def test_non_monotone_rejected(self):
        trace = exact_decay_trace(0.002, 8.0, n=50)
        trace[10] = TraceRecord(trace[10].trials, trace[10].successes, trace[9].d2)
        with pytest.raises(ParameterError):
            fit_extrapolation(trace, stride=1)

    @pytest.mark.parametrize(
        "make_trace, expected, a_tol",
        [
            (
                lambda: exact_decay_trace(0.002, 8.0, n=400),
                (0.0019999999562968335, 8.000005988869816, 0.9999999999999977),
                1e-10,
            ),
            (
                slow_decay_trace,
                (0.0019999000014972457, 8.00000075995922, 1.0),
                2e-4,
            ),
        ],
        ids=["exact-decay", "slow-decay"],
    )
    def test_pinned_results(self, make_trace, expected, a_tol):
        # exact values of the zoom search from the window over the whole box;
        # any change to its arithmetic, first window, move rule or stopping
        # rule shows up here; these traces fit the model exactly, so rounding
        # would push r above 1 unclamped
        fit = fit_extrapolation(make_trace(), stride=1)
        assert (fit.a, fit.b, fit.r) == expected
        assert fit.r <= 1.0
        assert abs(fit.a - 0.002) <= a_tol

    @pytest.mark.parametrize(
        "name, stride, r_grid",
        [
            ("bell_trace.csv", 1, 0.9999337583535884),
            ("bell_trace.csv", 37, 0.9999344769332535),
            ("bell_trace.csv", 100, 0.9999417933009834),
            ("ghz3_trace.csv", 1, 0.9997988796260873),
            ("ghz3_trace.csv", 37, 0.9998343086796069),
            ("ghz3_trace.csv", 100, 0.9998090917213448),
        ],
        ids=["bell-1", "bell-37", "bell-100", "ghz3-1", "ghz3-37", "ghz3-100"],
    )
    def test_recorded_r_matches_the_grid_and_zoom(self, name, stride, r_grid):
        # r of the grid-started zoom that the one search replaced
        fit = fit_extrapolation(fileio.read_trace(RECORDED_INPUTS / name), stride=stride)
        assert abs(fit.r - r_grid) <= 1e-12

    @pytest.mark.parametrize(
        "make_trace, strides",
        [
            (recorded_trace("bell_trace.csv"), (10, 37, 100)),
            (recorded_trace("ghz3_trace.csv"), (10, 37, 100)),
            (lambda: exact_decay_trace(0.002, 8.0, n=400), (1, 10, 37, 100)),
            (slow_decay_trace, (1, 10, 37, 100)),
            (lambda: fresh_trace("bell", 1, 1500), (10, 37, 100)),
            (lambda: fresh_trace("bell", 2, 1500), (10, 37, 100)),
            (lambda: fresh_trace("ghz:3", 1, 800), (10, 37, 100)),
            (lambda: fresh_trace("max_entangled:3", 1, 800), (10, 37, 100)),
            (lambda: fresh_trace("upb_tiles", 1, 800), (10, 37, 100)),
        ],
        ids=["bell-recorded", "ghz3-recorded", "exact-decay", "slow-decay",
             "bell-1", "bell-2", "ghz3-1", "max-entangled3-1", "upb-tiles-1"],
    )
    def test_never_beaten_by_the_replaced_grid(self, make_trace, strides):
        trace = make_trace()
        for stride in strides:
            for b_range in [(1.0, 20.0), (2.0, 8.0), (5.0, 5.0)]:
                if sum(rec.successes % stride == 0 for rec in trace) < 10:  # 800 successes at stride 100
                    with pytest.raises(ParameterError):
                        fit_extrapolation(trace, stride=stride, b_range=b_range)
                    continue
                fit = fit_extrapolation(trace, stride=stride, b_range=b_range)
                assert fit.r >= grid_r(trace, stride, b_range) - 1e-12, (stride, b_range)
                assert 0.0 <= fit.a < trace[-1].d2

    def test_subnormal_minimum_distance(self):
        # np.geomspace(min d2 * 1e-9, ...) of the replaced grid reached 0 here and raised
        trace = subnormal_trace()
        fit = fit_extrapolation(trace, stride=1)
        assert all(map(np.isfinite, (fit.a, fit.b, fit.r)))
        assert 0.0 <= fit.a < trace[-1].d2

    @pytest.mark.parametrize(
        "make_trace, stride, a_old, r_old, a_tol",
        [
            (recorded_trace("bell_trace.csv"), 100, 0.33355162726709287, 0.9999417931443629, 1e-6),
            (recorded_trace("bell_trace.csv"), 37, 0.33356740473949614, 0.9999344768099568, 1e-6),
            (recorded_trace("ghz3_trace.csv"), 100, 0.46466896161247256, 0.9998090917157029, 1e-6),
            (recorded_trace("ghz3_trace.csv"), 37, 0.46502538599314, 0.9998343086747276, 1e-6),
            (lambda: exact_decay_trace(0.002, 8.0, n=400), 1, 0.0020000015033731196, 0.9999999999972414, 1e-6),
            # The descent stalled on this ridge 4.0e-6 above the limit 0.002;
            # the zoom ends 1.0e-7 below it.
            (slow_decay_trace, 1, 0.002003972012244417, 0.9999999999999728, 5e-6),
        ],
        ids=["bell-100", "bell-37", "ghz3-100", "ghz3-37", "exact-decay", "slow-decay"],
    )
    def test_no_worse_than_the_coordinate_descent(self, make_trace, stride, a_old, r_old, a_tol):
        # (a, r) of the coordinate descent that the zoom replaced, on the same traces
        fit = fit_extrapolation(make_trace(), stride=stride)
        assert fit.r >= r_old
        assert abs(fit.a - a_old) <= a_tol

    @pytest.mark.parametrize("b", [1e6, 1e-300], ids=["overflow", "constant"])
    def test_no_finite_correlation_is_degenerate(self, b):
        # |ln(d2 - a)|^b overflows for every a, or is 1.0 at every point
        with pytest.raises(DegenerateError):
            fit_extrapolation(exact_decay_trace(0.002, 8.0, n=50), stride=1, b_range=(b, b))

    @pytest.mark.parametrize(
        "b_range",
        [(20.0, 1.0), (0.0, 5.0), (-1.0, 5.0), (1.0, float("inf")), (float("nan"), 5.0)],
        ids=["reversed", "zero-min", "negative-min", "infinite-max", "nan-min"],
    )
    def test_bad_b_range_rejected(self, b_range):
        with pytest.raises(ParameterError):
            fit_extrapolation(exact_decay_trace(0.002, 8.0, n=50), stride=1, b_range=b_range)

    def test_equal_b_bounds_fix_the_exponent(self):
        fit = fit_extrapolation(exact_decay_trace(0.002, 8.0, n=400), stride=1, b_range=(8.0, 8.0))
        assert fit.b == 8.0
        assert abs(fit.a - 0.002) <= 0.1 * 0.002
        assert fit.r >= 0.999


class TestFitPower:
    def test_exact_roundtrip(self):
        records = [TraceRecord(int(k), max(1, int(round(2 * k**0.45))), 1.0 / k) for k in np.unique(np.geomspace(10, 10**7, 60).astype(int))]
        fit = fit_power(records)
        assert fit.f == pytest.approx(0.45, abs=2e-2)

    def test_exact_continuous_roundtrip(self):
        # bypass integer rounding: feed the scaling law directly
        ks = np.geomspace(10, 10**6, 50)
        records = [TraceRecord(k, 2 * k**0.45, 1.0 / k) for k in ks]
        fit = fit_power(records)
        assert fit.f == pytest.approx(0.45, abs=1e-6)
        assert fit.c == pytest.approx(2.0, rel=1e-6)
        assert fit.r2 > 1 - 1e-9

    def test_every_trial_succeeds(self):
        records = [TraceRecord(k, k, 1.0 / k) for k in range(1, 40)]
        fit = fit_power(records)
        assert fit.f == pytest.approx(1.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            fit_power([TraceRecord(1, 1, 0.5)])

    @pytest.mark.parametrize(
        "make_record",
        [lambda k: TraceRecord(700 - 7 * k, k, 1.0 / k), lambda k: TraceRecord(7 * k, 41 - k, 1.0 / k)],
        ids=["trials", "successes"],
    )
    def test_decreasing_counter_rejected(self, make_record):
        with pytest.raises(ParameterError, match="nondecreasing"):
            fit_power([make_record(k) for k in range(1, 41)])


class TestZoomOracle:
    """Each zoom level scored in one pass gives the bits of the level scored through ``_corr_with``."""

    @pytest.mark.parametrize("b_range", [(1.0, 20.0), (2.0, 9.0), (6.0, 6.0), (8.0, 8.0)], ids=str)
    @pytest.mark.parametrize("stride", [1, 37, 100, 150])
    @pytest.mark.parametrize(
        "make_trace",
        [
            recorded_trace("bell_trace.csv"),
            recorded_trace("ghz3_trace.csv"),
            lambda: exact_decay_trace(0.0, 6.0),
            lambda: exact_decay_trace(0.002, 8.0, n=400),
            lambda: exact_decay_trace(0.002, 10.0, n=400),
            lambda: exact_decay_trace(0.01, 3.0, n=500, trial_step=3),
            lambda: exact_decay_trace(0.1, 6.0, n=400),
            subnormal_trace,
        ],
        ids=["bell", "ghz3", "exact-0-6", "exact-0.002-8", "exact-0.002-10", "exact-0.01-3", "exact-0.1-6", "subnormal"],
    )
    def test_same_bits_as_the_reference(self, make_trace, stride, b_range):
        trace = make_trace()
        try:
            expected = reference_fit_extrapolation(trace, stride, b_range=b_range)
        except ParameterError as exc:  # too few points after striding
            with pytest.raises(ParameterError, match=str(exc)):
                fit_extrapolation(trace, stride, b_range=b_range)
            return
        fit = fit_extrapolation(trace, stride, b_range=b_range)
        assert [v.hex() for v in (fit.a, fit.b, fit.r)] == [v.hex() for v in (expected.a, expected.b, expected.r)]
        assert fit.stride == stride


class TestTableInput:
    """The table ``fileio.read_trace`` returns fits as the list of records the old reader built."""

    @pytest.mark.parametrize("stride", [1, 37, 100])
    @pytest.mark.parametrize("name", ["bell_trace.csv", "ghz3_trace.csv"])
    def test_table_and_record_list_fit_alike(self, name, stride):
        text = (RECORDED_INPUTS / name).read_text(encoding="utf-8")
        table, records = fileio.loads_trace(text), reference_loads_trace(text)
        assert fit_extrapolation(table, stride=stride) == fit_extrapolation(records, stride=stride)
        assert fit_power(table) == fit_power(records)

    def test_list_of_table_rows_fits_as_the_table(self):
        table = fileio.read_trace(RECORDED_INPUTS / "ghz3_trace.csv")
        assert fit_extrapolation(list(table)) == fit_extrapolation(table)
        assert fit_power(list(table)) == fit_power(table)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_is_rejected_on_the_table(self, stride):
        table = fileio.read_trace(RECORDED_INPUTS / "bell_trace.csv")
        with pytest.raises(ParameterError, match=f"stride must be >= 1, got {stride}"):
            fit_extrapolation(table, stride=stride)

    @pytest.mark.parametrize("stride", [2.5, True])
    def test_non_integral_stride_is_rejected(self, stride):
        # 2.5 fitted every 5th success and reported stride=2.5; True fitted every success
        table = fileio.read_trace(RECORDED_INPUTS / "bell_trace.csv")
        with pytest.raises(ParameterError, match="stride must be integral"):
            fit_extrapolation(table, stride)


def _grid_scan(op_tensor, thetas, phis):
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    kets = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)], axis=-1).reshape(-1, 2)
    blocks = np.einsum("nk,kilj,nl->nij", kets.conj(), op_tensor, kets)
    blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2
    tops = np.linalg.eigvalsh(blocks)[:, -1]
    i = int(np.argmax(tops))
    return float(tops[i]), float(tt.ravel()[i]), float(pp.ravel()[i])


def grid_oracle_qubit_party(op, dims, step_deg=1.0):
    """Dense Bloch-angle grid over the first (qubit) party, exact on the other.

    Independent of the alternating ascent: for every grid vector on the
    qubit party the optimum over the remaining party is the top eigenvalue
    of the contracted operator.  A second, 100x finer grid around the
    coarse argmax removes the quantization error of the 1-degree pass.
    """
    assert dims[0] == 2
    tensor = np.asarray(op).reshape(2, dims[1], 2, dims[1])
    step = np.deg2rad(step_deg)
    best, th, ph = _grid_scan(
        tensor,
        np.arange(0.0, np.pi + step, step),
        np.arange(0.0, 2 * np.pi, step),
    )
    fine = step / 100.0
    refined, _, _ = _grid_scan(
        tensor,
        th + np.arange(-100, 101) * fine,
        ph + np.arange(-100, 101) * fine,
    )
    return max(best, refined)


class TestMaxSepOverlap:
    def test_identity(self):
        value, vecs = max_sep_overlap(np.eye(4, dtype=complex), (2, 2), restarts=4, rng=rng_for(0))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert len(vecs) == 2

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_non_positive_restarts_rejected(self, restarts):
        with pytest.raises(ParameterError):
            max_sep_overlap(np.eye(4, dtype=complex), (2, 2), restarts=restarts)

    @pytest.mark.parametrize("restarts", [2.0, 2.5, True, np.float64(3.0)])
    def test_non_integral_restarts_rejected(self, restarts):
        with pytest.raises(ParameterError, match="integral"):
            max_sep_overlap(np.eye(4, dtype=complex), (2, 2), restarts=restarts)

    def test_non_integral_dims_rejected(self):
        # read as (2, 2) before
        with pytest.raises(DimensionError, match="must all be >= 2"):
            max_sep_overlap(np.eye(4, dtype=complex), (2.5, 2))

    def test_numpy_integer_restarts_accepted(self):
        assert max_sep_overlap(np.eye(4, dtype=complex), (2, 2), restarts=np.int64(2))[0] == pytest.approx(1.0)

    def test_product_projector(self):
        op = np.zeros((4, 4), dtype=complex)
        op[1, 1] = 1.0  # |01><01|
        value, vecs = max_sep_overlap(op, (2, 2), restarts=8, rng=rng_for(1))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert abs(vecs[0][0]) == pytest.approx(1.0, abs=1e-6)
        assert abs(vecs[1][1]) == pytest.approx(1.0, abs=1e-6)

    def test_bell_difference(self):
        op = bell().mat - css_max_entangled(2).mat
        value, _ = max_sep_overlap(op, (2, 2), restarts=64, rng=rng_for(2))
        assert value == pytest.approx(1 / 6, abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_grid_oracle_agreement(self, dims):
        rng = rng_for(7)
        for _ in range(3):
            a = random_density(dims, rng)
            b = random_density(dims, rng)
            op = a.mat - b.mat
            value, _ = max_sep_overlap(op, dims, restarts=32, rng=rng)
            grid = grid_oracle_qubit_party(op, dims)
            assert value <= grid + 1e-6
            assert value >= grid - 1e-3

    def test_non_hermitian_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValidationError):
            max_sep_overlap(bad, (2, 2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected(self, entry):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = entry
        with pytest.raises(ValidationError):
            max_sep_overlap(bad, (2, 2))

    def test_single_party_rejected(self):
        with pytest.raises(DimensionError):
            max_sep_overlap(np.eye(2, dtype=complex), (2,))


def with_row_counts(call):
    """``call()`` counting the rows of each per-party contraction of the ascent: (result, counts)."""
    rows = []
    sweep = analysis._sweep

    def counting(blocks, dims, vecs):
        rows.extend([len(vecs[0])] * len(blocks))  # a sweep contracts every row once per party
        return sweep(blocks, dims, vecs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_sweep", counting)
        return call(), rows


def single_tracks(op, dims, restarts, seed):
    """Each restart as its own call on one shared rng: its value after every sweep."""
    rng, tracks, sweep = rng_for(seed), [], analysis._sweep

    def recording(blocks, dims, vecs):
        top = sweep(blocks, dims, vecs)
        tracks[-1].append(float(top[0]))
        return top

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_sweep", recording)
        for _ in range(restarts):
            tracks.append([])
            max_sep_overlap(op, dims, 1, rng)
    return tracks


def replay_singly(op, dims, restarts, seed):
    """Each restart as its own call on one shared rng: (value, contraction calls) per restart."""
    return [(track[-1], len(track) * len(dims)) for track in single_tracks(op, dims, restarts, seed)]


def product_overlap(op, vecs):
    phi = vecs[0]
    for v in vecs[1:]:
        phi = np.kron(phi, v)
    return float(np.vdot(phi, op @ phi).real)


def perturbed_ghz3_difference():
    approx = 0.95 * css_ghz(3).mat + 0.05 * random_density((2, 2, 2), rng_for(0)).mat
    return ghz(3).mat - approx


class TestBatchedRestarts:
    """All restarts run as one batch and replay the same restarts run one call each."""

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3, 2)])
    def test_replays_single_restarts(self, dims):
        op = random_hermitian(int(np.prod(dims)), rng_for(11))
        singles = replay_singly(op, dims, 8, seed=3)
        value, vecs = max_sep_overlap(op, dims, 8, rng_for(3))
        assert abs(value - max(v for v, _ in singles)) <= 1e-12
        assert abs(product_overlap(op, vecs) - value) <= 1e-12

    def test_restarts_stop_on_their_own(self):
        # ghz:3 against a perturbed CSS: two of these eight starts converge in
        # a few sweeps, the others run all MAX_SWEEPS sweeps.
        dims = (2, 2, 2)
        op = perturbed_ghz3_difference()
        singles = replay_singly(op, dims, 8, seed=0)
        sweeps = [calls // 3 for _, calls in singles]  # one contraction per party and sweep
        assert min(sweeps) < 10 and max(sweeps) == MAX_SWEEPS
        (value, vecs), rows = with_row_counts(lambda: max_sep_overlap(op, dims, 8, rng_for(0)))
        assert abs(value - max(v for v, _ in singles)) <= 1e-12
        assert abs(product_overlap(op, vecs) - value) <= 1e-12
        # A stopped start sweeps no more, and one that can no longer catch the best stops early:
        # the batch pins fewer vectors than the single calls.
        assert sum(rows) < sum(calls for _, calls in singles)

    def test_sweep_cap_keeps_the_last_sweep(self):
        # A start that MAX_SWEEPS stops, not its gain, returns its last sweep's value and vectors.
        op, rng = perturbed_ghz3_difference(), rng_for(0)
        capped = 0
        for _ in range(8):
            (value, vecs), rows = with_row_counts(lambda: max_sep_overlap(op, (2, 2, 2), 1, rng))
            if len(rows) == 3 * MAX_SWEEPS:
                capped += 1
                assert abs(product_overlap(op, vecs) - value) <= 1e-12
        assert capped


@cache
def recorded_difference(iterate):
    """Target minus the recorded iterate, and the target's dims."""
    target = {"ghz3_iterate.json": ghz(3), "upb_iterate.json": upb_tiles_state()}[iterate]
    return target.mat - fileio.read_state(RECORDED_INPUTS / iterate).to_density().mat, target.dims


@cache
def recorded_tracks(iterate):
    """:func:`single_tracks` of the first 64 restarts of seed 0 on a recorded iterate: a prefix is the oracle of fewer."""
    return single_tracks(*recorded_difference(iterate), 64, seed=0)


class TestStartsOracle:
    """One restart-major draw of the starts replays the per-restart, per-party draws bit for bit."""

    @pytest.mark.parametrize("restarts", [1, 8, 64])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2)])
    def test_same_bits_as_the_reference(self, dims, restarts):
        rng, ref_rng = rng_for(5), rng_for(5)
        vecs = analysis._starts(rng, dims, restarts)
        expected = reference_starts(ref_rng, dims, restarts)
        assert len(vecs) == len(expected)
        assert all(np.array_equal(v, w) for v, w in zip(vecs, expected))
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws were taken


class TestStopBehind:
    """A restart whose gains shrink, and which cannot catch the best by MAX_SWEEPS, stops early.

    A lone restart is always the best, so single calls replay the unpruned batch: its value is
    the largest of theirs.
    """

    @pytest.mark.parametrize(
        "iterate, restarts",
        [("ghz3_iterate.json", 16), ("ghz3_iterate.json", 64), ("upb_iterate.json", 16)],
        ids=["ghz3-16", "ghz3-64", "upb-16"],
    )
    def test_recorded_iterates_keep_the_best_single_restart(self, iterate, restarts):
        op, dims = recorded_difference(iterate)
        value, vecs = max_sep_overlap(op, dims, restarts, rng_for(0))
        assert abs(value - max(t[-1] for t in recorded_tracks(iterate)[:restarts])) <= 1e-12
        assert abs(product_overlap(op, vecs) - value) <= 1e-12

    def test_restarts_behind_stop_early(self):
        # 13 of these 16 restarts run all MAX_SWEEPS sweeps alone, 7869 rows in all.
        op, dims = recorded_difference("ghz3_iterate.json")
        _, rows = with_row_counts(lambda: max_sep_overlap(op, dims, 16, rng_for(0)))
        assert sum(rows) < 16 * 3 * 20

    def test_growing_gains_keep_a_restart(self):
        # The best of these 16 restarts climbs out of a saddle: its gains grow over its first
        # sweeps, and its first real gain alone would not carry it past the best by MAX_SWEEPS.
        op, dims = recorded_difference("ghz3_iterate.json")
        tracks = recorded_tracks("ghz3_iterate.json")[:16]
        climb = max(tracks, key=lambda t: t[-1])
        gains = np.diff(climb[:6])
        assert np.all(np.diff(gains) > 0)
        assert climb[1] + gains[0] * (MAX_SWEEPS - 2) < max(t[1] for t in tracks)
        value, _ = max_sep_overlap(op, dims, 16, rng_for(0))
        assert abs(value - climb[-1]) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_random_operators_keep_the_best_single_restart(self, dims):
        batch_rows = single_rows = 0
        for seed in range(6):
            rng = rng_for(seed)
            # Even seeds: a difference of two states, as build_witness passes; odd: any Hermitian operator.
            if seed % 2:
                op = random_hermitian(int(np.prod(dims)), rng)
            else:
                op = random_density(dims, rng).mat - random_density(dims, rng).mat
            singles = replay_singly(op, dims, 16, seed=100 + seed)
            (value, _), rows = with_row_counts(lambda: max_sep_overlap(op, dims, 16, rng_for(100 + seed)))
            assert abs(value - max(v for v, _ in singles)) <= 1e-12
            batch_rows += sum(rows)
            single_rows += sum(calls for _, calls in singles)
        assert batch_rows < single_rows  # the rule stopped some restart early


def nested_pinning(op, dims, vecs, p):
    """Operators on party p, the other parties pinned one call each from the last, row by row: the reference."""
    pinned = []
    for r in range(len(vecs[0])):
        cur, cur_dims = op, list(dims)
        for q in range(len(dims) - 1, -1, -1):
            if q != p:
                cur = contract_party(cur, q, vecs[q][r], tuple(cur_dims))
                del cur_dims[q]
        pinned.append(cur)
    return np.stack(pinned)


class TestOneCallPinning:
    """The ascent pins all other parties in one product with a block of the operator prepared once."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_matches_nested_pinning(self, dims):
        rng = rng_for(5)
        op = random_hermitian(int(np.prod(dims)), rng)
        start = [rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d)) for d in dims]
        start = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in start]
        pinned = []
        eigh = np.linalg.eigh

        def recording(a):
            pinned.append(a)
            return eigh(a)

        vecs = list(start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", recording)
            analysis._sweep(analysis._party_blocks(op, dims), dims, vecs)
        assert len(pinned) == len(dims)
        for p, one_call in enumerate(pinned):
            # Gauss-Seidel: party p sees the new vectors of the parties before it.
            seen = vecs[:p] + start[p:]
            assert one_call.shape == (4, dims[p], dims[p])
            assert np.abs(one_call - nested_pinning(op, dims, seen, p)).max() <= 1e-13

    @pytest.mark.parametrize(
        "iterate, target, expected",
        [
            ("ghz3_iterate.json", ghz(3), 0.12208948538477164),
            ("upb_iterate.json", upb_tiles_state(), 0.02698990112641637),
        ],
        ids=["ghz3", "upb"],
    )
    def test_pinned_overlap_of_recorded_iterates(self, iterate, target, expected):
        op = target.mat - fileio.read_state(RECORDED_INPUTS / iterate).to_density().mat
        value, _ = max_sep_overlap(op, target.dims, 16, np.random.default_rng(0))
        assert abs(value - expected) <= 1e-12

    @pytest.mark.parametrize(
        "iterate, target, expected, vectors",
        [
            (
                "ghz3_iterate.json",
                ghz(3),
                "0x1.f4141aae9be92p-4",
                [
                    [-0.999955341777067 + 0j, -0.002043651990234003 - 0.009227022166010033j],
                    [-0.9999822266554222 + 0j, -0.005961965814004829 - 3.6563596319229295e-05j],
                    [-0.9998838099423879 + 0j, 0.01518685773200646 + 0.0013137607554276147j],
                ],
            ),
            (
                "upb_iterate.json",
                upb_tiles_state(),
                "0x1.ba33d9aa413cdp-6",
                [
                    [-0.2228980465889337 + 0j, 0.9383235776389358 - 0.06622029810357878j, -0.25444072505588544 + 0.02720503677289031j],
                    [0.025837315247338746 + 0j, -0.9902488924558891 - 0.133081034783292j, 0.030018580117323945 + 0.011308720504220576j],
                ],
            ),
        ],
        ids=["ghz3", "upb"],
    )
    def test_recorded_iterates_exact_to_the_bit(self, iterate, target, expected, vectors):
        # Any change to the ascent's arithmetic or its order fails here.
        op = target.mat - fileio.read_state(RECORDED_INPUTS / iterate).to_density().mat
        value, vecs = max_sep_overlap(op, target.dims, 16, np.random.default_rng(0))
        assert value.hex() == expected
        assert len(vecs) == len(vectors)
        assert all(np.array_equal(v, np.array(w)) for v, w in zip(vecs, vectors))


class TestWitness:
    def test_bell_with_known_css(self):
        w = build_witness(bell(), css_max_entangled(2), restarts=64, rng=rng_for(0))
        assert w.sep_bound == pytest.approx(1 / 6, abs=1e-9)
        assert w.target_value == pytest.approx(0.5, abs=1e-12)
        assert w.entangled
        assert w.margin == pytest.approx(1 / 3, abs=1e-9)

    def test_no_false_positive_on_identical_states(self):
        rho = css_max_entangled(2)
        w = build_witness(rho, rho, restarts=8, rng=rng_for(1))
        assert w.sep_bound == pytest.approx(0.0, abs=1e-12)
        assert w.target_value == pytest.approx(0.0, abs=1e-12)
        assert not w.entangled

    def test_soundness_on_product_states(self):
        from sepdist import SamplerConfig, StateSampler

        w = build_witness(bell(), css_max_entangled(2), restarts=64, rng=rng_for(2))
        kets = StateSampler(SamplerConfig(seed=5)).product_kets((2, 2), 1000)
        values = np.einsum("ni,ni->n", kets.conj() @ w.operator, kets).real
        assert values.max() <= 1e-9

    def test_states_non_hermitian_within_tolerance(self):
        # Each state is within HERMITIAN_TOL of Hermitian, their difference is not.
        target = np.eye(4, dtype=complex) / 4
        target[0, 1], target[1, 0] = 0.1 + 0.8e-12, 0.1
        approx = np.eye(4, dtype=complex) / 4
        approx[0, 1], approx[1, 0] = 0.05, 0.05 + 0.8e-12
        w = build_witness(DensityMatrix((2, 2), target), DensityMatrix((2, 2), approx), restarts=4, rng=rng_for(0))
        assert np.array_equal(w.operator, w.operator.conj().T)
        assert w.sep_bound == pytest.approx(0.05, abs=1e-9)
        assert w.target_value == pytest.approx(0.01, abs=1e-9)

    @pytest.mark.parametrize("restarts", [2.0, 2.5, True])
    def test_non_integral_restarts_rejected(self, restarts):
        with pytest.raises(ParameterError, match="integral"):
            build_witness(bell(), css_max_entangled(2), restarts=restarts)

    def test_witness_operator_structure(self):
        w = build_witness(bell(), css_max_entangled(2), restarts=16, rng=rng_for(3))
        rebuilt = (bell().mat - css_max_entangled(2).mat) - w.sep_bound * np.eye(4)
        assert np.allclose(w.operator, rebuilt, atol=1e-14)
