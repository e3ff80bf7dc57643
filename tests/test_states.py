import numpy as np
import pytest

from sepdist import (
    DimensionError,
    ParameterError,
    SamplerConfig,
    StateSampler,
    bell,
    css_ghz,
    css_max_entangled,
    ghz,
    ghz_css_distance,
    ghz_css_weight,
    hs_inner,
    hsd_sq,
    is_ppt,
    max_entangled,
    maximally_mixed,
    named_state,
    partial_transpose,
    real_limit_bell,
    states,
    upb_tiles_state,
    upb_tiles_vectors,
)
from conftest import random_product_density

WERNER = np.array([[2, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 2]], dtype=complex) / 6
REAL_LIMIT = np.array([[3, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 3]], dtype=complex) / 8
# Sampler cases are named after the deviates they draw, then the amplitude mode.
GAUSSIAN_IDS = ["gaussian-complex", "gaussian-real"]


def _per_party_product_kets(sampler, dims, count):
    """Reference sampler: each party block scaled to unit norm on its own, then joined by ``einsum``.

    Its norm is ``np.linalg.norm``'s arithmetic, ``add.reduce`` of the
    block's squared moduli.
    """

    def unit_rows(amps):
        norms = np.sqrt(np.add.reduce((amps.conj() * amps).real, axis=1))
        return amps / norms[:, None]

    amps = sampler._raw_amplitudes(sum(dims), count)
    ends = np.cumsum(dims)
    kets = unit_rows(amps[:, : ends[0]])
    for start, stop in zip(ends[:-1], ends[1:]):
        kets = np.einsum("ni,nj->nij", kets, unit_rows(amps[:, start:stop])).reshape(count, -1)
    return kets


class TestSamplerMatchesPerPartyReference:
    """``product_kets`` gives the per-party reference's kets bit for bit.

    The dims put parties of 8 and more amplitudes, whose norms numpy sums
    pairwise, next to short ones, whose norms it sums left to right.
    """

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 3), (2, 3, 2), (2, 8), (9, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("mode", ["complex", "real"], ids=GAUSSIAN_IDS)
    def test_bit_identical(self, dims, mode):
        config = SamplerConfig(mode=mode, seed=21)
        sampler, reference = StateSampler(config), StateSampler(config)
        for count in (1, 7, 2048):
            assert np.array_equal(sampler.product_kets(dims, count), _per_party_product_kets(reference, dims, count))


class TestSampler:
    @pytest.mark.parametrize("mode", ["complex", "real"], ids=GAUSSIAN_IDS)
    def test_unit_norm(self, mode):
        sampler = StateSampler(SamplerConfig(mode=mode, seed=3))
        kets = sampler.product_kets((2, 3), 200)
        assert np.abs(np.linalg.norm(kets, axis=1) - 1.0).max() <= 1e-12

    def test_real_mode_is_real(self):
        sampler = StateSampler(SamplerConfig(mode="real", seed=5))
        kets = sampler.product_kets((2, 2), 50)
        assert np.abs(kets.imag).max() == 0.0

    @pytest.mark.parametrize("mode", ["complex"], ids=["gaussian"])
    def test_first_component_mean(self, mode):
        # unitary invariance on each party forces E|<00|psi>|^2 = (1/3)^2 on (3, 3)
        sampler = StateSampler(SamplerConfig(mode=mode, seed=11))
        kets = sampler.product_kets((3, 3), 100_000)
        mean = (np.abs(kets[:, 0]) ** 2).mean()
        assert mean == pytest.approx(1 / 9, abs=0.003)

    def test_mean_outer_product_is_white_noise(self):
        sampler = StateSampler(SamplerConfig(seed=13))
        kets = sampler.product_kets((2, 2), 100_000)
        mean = np.einsum("ni,nj->ij", kets, kets.conj()) / kets.shape[0]
        assert np.abs(mean - np.eye(4) / 4).max() <= 0.01

    def test_product_state_properties(self):
        sampler = StateSampler(SamplerConfig(seed=17))
        for _ in range(10):
            rho = random_product_density((2, 2), sampler)
            assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
            purity = hs_inner(rho, rho)
            assert purity == pytest.approx(1.0, abs=1e-10)
            assert is_ppt(rho)

    def test_seeded_determinism(self):
        cfg = SamplerConfig(mode="complex", seed=99)
        a = StateSampler(cfg)
        b = StateSampler(cfg)
        for dims in ((2, 2), (3, 3), (2, 2, 2)):
            assert np.array_equal(a.product_kets(dims, 7), b.product_kets(dims, 7))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
    @pytest.mark.parametrize("mode", ["complex", "real"], ids=GAUSSIAN_IDS)
    @pytest.mark.parametrize("k", [1, 7, 29])
    def test_product_kets_are_one_stream(self, dims, mode, k):
        cfg = SamplerConfig(mode=mode, seed=8)
        whole = StateSampler(cfg).product_kets(dims, 30)
        split = StateSampler(cfg)
        head = split.product_kets(dims, k)
        tail = split.product_kets(dims, 30 - k)
        assert np.array_equal(whole, np.vstack([head, tail]))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 8), (2, 2, 2)])
    @pytest.mark.parametrize("mode", ["complex", "real"], ids=GAUSSIAN_IDS)
    @pytest.mark.parametrize("count", [1, 7, 2048])
    def test_product_kets_draw_one_block(self, dims, mode, count):
        # The call consumes exactly one block of deviates, so the next ket starts where this one ended.
        sampler, generator = StateSampler(SamplerConfig(mode=mode, seed=8)), np.random.default_rng(8)
        sampler.product_kets(dims, count)
        generator.standard_normal((count, sum(dims), 2) if mode == "complex" else (count, sum(dims)))
        assert sampler._rng.bit_generator.state == generator.bit_generator.state

    def test_bad_dimension(self):
        with pytest.raises(DimensionError):
            StateSampler(SamplerConfig(seed=0)).product_kets((1, 2), 1)

    def test_no_parties_rejected(self):
        # an IndexError before
        with pytest.raises(DimensionError):
            StateSampler().product_kets((), 3)

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_integral_count_rejected(self, count):
        # 2.5 was a TypeError, True drew one ket
        with pytest.raises(ParameterError, match="count must be integral"):
            StateSampler().product_kets((2, 2), count)

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            SamplerConfig(mode="quaternion")

    def test_negative_seed(self):
        with pytest.raises(ParameterError):
            SamplerConfig(seed=-1)

    def test_numpy_integer_seed_is_stored_as_an_int(self):
        seed = SamplerConfig(seed=np.int64(3)).seed
        assert seed == 3 and type(seed) is int

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integral_seed(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            SamplerConfig(seed=seed)


class TestMaxEntangled:
    def test_two_qubit_matrix(self):
        mat = max_entangled(2).mat
        expected = np.zeros((4, 4), dtype=complex)
        for r in (0, 3):
            for c in (0, 3):
                expected[r, c] = 0.5
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trace_and_purity(self, d):
        rho = max_entangled(d)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-14)
        assert hs_inner(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_white_noise(self):
        assert hs_inner(max_entangled(3), maximally_mixed((3, 3)).mat) == pytest.approx(1 / 9, abs=1e-14)

    def test_small_d_rejected(self):
        with pytest.raises(ParameterError):
            max_entangled(1)

    def test_non_integral_d_rejected(self):
        # a TypeError before
        with pytest.raises(ParameterError, match="local dimension must be integral"):
            max_entangled(2.5)


class TestCssMaxEntangled:
    def test_two_qubit_css_is_werner(self):
        assert np.array_equal(css_max_entangled(2).mat, WERNER)

    @pytest.mark.parametrize("d", [1, 0, -1])
    def test_small_d_rejected(self, d):
        with pytest.raises(ParameterError, match=f"local dimension must be >= 2, got {d}"):
            css_max_entangled(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_distance_closed_form(self, d):
        assert hsd_sq(max_entangled(d), css_max_entangled(d)) == pytest.approx((d - 1) / (d + 1), abs=1e-12)

    def test_werner_sits_on_ppt_boundary(self):
        out = partial_transpose(css_max_entangled(2), 1)
        assert abs(np.linalg.eigvalsh(out)[0]) <= 1e-12


class TestGhz:
    def test_two_party_equals_max_entangled(self):
        assert np.array_equal(ghz(2).mat, max_entangled(2).mat)

    def test_three_party_corners(self):
        mat = ghz(3).mat
        expected = np.zeros((8, 8), dtype=complex)
        for r in (0, 7):
            for c in (0, 7):
                expected[r, c] = 0.5
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_purity(self, n):
        rho = ghz(n)
        assert hs_inner(rho, rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("build", [ghz, css_ghz, ghz_css_weight, ghz_css_distance])
    def test_non_integral_party_count_rejected(self, build):
        # ghz and css_ghz raised a TypeError, the closed forms returned a number
        with pytest.raises(ParameterError, match="party count must be integral"):
            build(2.5)


class TestCssGhz:
    def test_two_party_weight_and_matrix(self):
        assert ghz_css_weight(2) == pytest.approx(1 / 3, abs=1e-15)
        assert np.allclose(css_ghz(2).mat, WERNER, atol=1e-16)

    def test_matches_css_max_entangled_exactly(self):
        assert np.array_equal(css_ghz(2).mat, css_max_entangled(2).mat)

    def test_three_party_weight(self):
        assert ghz_css_weight(3) == pytest.approx(9 / 13, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_distance_closed_form(self, n):
        assert hsd_sq(ghz(n), css_ghz(n)) == pytest.approx(ghz_css_distance(n), abs=1e-12)

    def test_closed_form_values(self):
        assert ghz_css_distance(2) == pytest.approx(1 / 3, abs=1e-15)
        assert ghz_css_distance(3) == pytest.approx(6 / 13, abs=1e-15)
        assert ghz_css_distance(4) == pytest.approx(28 / 57, abs=1e-15)


class TestUpbTiles:
    def test_vectors_orthonormal(self):
        tiles = upb_tiles_vectors()
        gram = np.array([[np.vdot(a, b) for b in tiles] for a in tiles])
        assert np.abs(gram - np.eye(5)).max() <= 1e-12

    def test_rank_trace_spectrum(self):
        rho = upb_tiles_state()
        vals = np.linalg.eigvalsh(rho.mat)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        assert (vals > 1e-10).sum() == 4
        assert vals[0] >= -1e-12

    def test_ppt_yet_entangled_structure(self):
        rho = upb_tiles_state()
        assert is_ppt(rho, tol=1e-10)


class TestRealLimitBell:
    def test_matrix(self):
        assert np.array_equal(real_limit_bell().mat, REAL_LIMIT)

    def test_distance_to_bell(self):
        assert hsd_sq(bell(), real_limit_bell()) == pytest.approx(3 / 8, abs=1e-14)

    def test_is_valid_density(self):
        rho = real_limit_bell()
        assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12


class TestNamedStates:
    @pytest.mark.parametrize(
        "name,dims",
        [
            ("bell", (2, 2)),
            ("max_entangled:3", (3, 3)),
            ("max_entangled_css:2", (2, 2)),
            ("ghz:3", (2, 2, 2)),
            ("ghz_css:4", (2, 2, 2, 2)),
            ("upb_tiles", (3, 3)),
            ("real_limit_bell", (2, 2)),
        ],
    )
    def test_grammar(self, name, dims):
        assert named_state(name).dims == dims

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            named_state("nonexistent")

    def test_bad_parameter(self):
        with pytest.raises(ParameterError):
            named_state("ghz:three")

    @pytest.mark.parametrize(
        "name",
        ["ghz:30", "ghz_css:30", "ghz:99999999999999999999", "max_entangled:27555", "max_entangled_css:27555"],
    )
    def test_matrix_numpy_cannot_index_is_refused_before_building(self, name, monkeypatch):
        head = name.partition(":")[0]
        _, size = states._PARAMETRIC_NAMES[head]
        monkeypatch.setitem(states._PARAMETRIC_NAMES, head, (lambda value: pytest.fail(f"built {name}"), size))
        with pytest.raises(ParameterError, match="too large"):
            named_state(name)

    @pytest.mark.parametrize("name", ["ghz:29", "ghz_css:29", "max_entangled:27554", "max_entangled_css:27554"])
    def test_largest_indexable_matrix_is_built(self, name, monkeypatch):
        head, _, arg = name.partition(":")
        _, size = states._PARAMETRIC_NAMES[head]
        monkeypatch.setitem(states._PARAMETRIC_NAMES, head, (lambda value: value, size))
        assert named_state(name) == int(arg)
