import numpy as np
import pytest

from sepdist import (
    DegenerateError,
    DimensionError,
    ParameterError,
    TraceRecord,
    ValidationError,
    bell,
    build_witness,
    contract_party,
    correlation,
    css_max_entangled,
    diagnostics,
    fit_extrapolation,
    fit_power,
    hsd_sq,
    max_sep_overlap,
    maximally_mixed,
)
from conftest import exact_decay_trace, random_density, rng_for


def slow_decay_trace():
    """Same functional form as exact_decay_trace, sampled far from the asymptote."""
    return [TraceRecord(3 * k, k, 0.002 + np.exp(-((k / 50.0) ** 0.125))) for k in range(1, 1001)]


class TestCorrelation:
    def test_perfect_linear(self):
        x = np.arange(1.0, 9.0)
        assert correlation(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

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
        "make_trace, expected",
        [
            (
                lambda: exact_decay_trace(0.002, 8.0, n=400),
                (0.0020000015033731196, 7.999813395738601, 0.9999999999972414),
            ),
            (
                slow_decay_trace,
                (0.002003972012244417, 7.999960929155358, 0.9999999999999728),
            ),
        ],
        ids=["exact-decay", "slow-decay"],
    )
    def test_pinned_results(self, make_trace, expected):
        # exact values of the grid + coordinate-descent path; any change to
        # its arithmetic, move order or stopping rule shows up here
        fit = fit_extrapolation(make_trace(), stride=1)
        assert (fit.a, fit.b, fit.r) == expected

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


class TestDiagnostics:
    def test_identical_states(self):
        rho = css_max_entangled(2)
        out = diagnostics(rho, rho)
        assert out.commutator_norm == 0.0
        assert out.spectral_d2 == 0.0

    def test_bell_vs_css(self):
        out = diagnostics(bell(), css_max_entangled(2))
        assert out.commutator_norm <= 1e-14
        assert out.spectral_d2 == pytest.approx(1 / 3, abs=1e-12)
        assert np.allclose(out.spectrum_target, [0, 0, 0, 1], atol=1e-12)
        assert np.allclose(out.spectrum_approx, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)

    def test_commuting_pair_matches_distance(self):
        out = diagnostics(bell(), css_max_entangled(2))
        assert out.spectral_d2 == pytest.approx(hsd_sq(bell(), css_max_entangled(2)), abs=1e-8)

    def test_spectral_lower_bounds_distance(self):
        rng = rng_for(3)
        for _ in range(25):
            a = random_density((2, 2), rng)
            b = random_density((2, 2), rng)
            out = diagnostics(a, b)
            assert out.spectral_d2 <= hsd_sq(a, b) + 1e-10

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            diagnostics(maximally_mixed((2, 2)), maximally_mixed((2, 3)))


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

    def test_single_party_rejected(self):
        with pytest.raises(DimensionError):
            max_sep_overlap(np.eye(2, dtype=complex), (2,))


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

    def test_witness_operator_structure(self):
        w = build_witness(bell(), css_max_entangled(2), restarts=16, rng=rng_for(3))
        rebuilt = (bell().mat - css_max_entangled(2).mat) - w.sep_bound * np.eye(4)
        assert np.allclose(w.operator, rebuilt, atol=1e-14)
