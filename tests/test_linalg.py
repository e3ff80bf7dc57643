import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepdist import (
    DensityMatrix,
    DimensionError,
    ValidationError,
    bell,
    css_max_entangled,
    hs_inner,
    hsd_sq,
    is_ppt,
    maximally_mixed,
    partial_transpose,
    upb_tiles_state,
)
from sepdist.linalg import PSD_TOL, contract_party
from conftest import random_density, random_hermitian, random_unitary, rng_for

I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

WERNER = css_max_entangled(2).mat  # (1/6)[[2,0,0,1],[0,1,0,0],[0,0,1,0],[1,0,0,2]]


class TestHsInner:
    def test_identity_halves(self):
        assert hs_inner(I2 / 2, I2 / 2) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_projectors(self):
        assert hs_inner(P0, P1) == pytest.approx(0.0, abs=1e-15)

    def test_bell_against_its_css(self):
        # oracle: direct 4x4 trace arithmetic
        direct = np.trace(bell().mat @ WERNER).real
        assert direct == pytest.approx(0.5, abs=1e-14)
        assert hs_inner(bell(), WERNER) == pytest.approx(direct, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            hs_inner(I2, np.eye(4))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            hs_inner(np.array([[0, 1], [0, 0]], dtype=complex), I2)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected(self, entry):
        with pytest.raises(ValidationError):
            hs_inner(np.array([[1, entry], [entry, 1]], dtype=complex), I2)


class TestHsdSq:
    def test_identical(self, rng):
        rho = random_density((2, 2), rng)
        assert hsd_sq(rho, rho) == 0.0

    def test_orthogonal_projectors(self):
        assert hsd_sq(P0, P1) == pytest.approx(2.0, abs=1e-15)

    def test_bell_to_css_is_third(self):
        d = 2
        assert hsd_sq(bell(), WERNER) == pytest.approx((d - 1) / (d + 1), abs=1e-14)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            hsd_sq(maximally_mixed((2, 3)), maximally_mixed((3, 2)))


class TestContractParty:
    def test_identity(self):
        out = contract_party(np.eye(4, dtype=complex), 1, np.array([1, 0]), (2, 2))
        assert np.allclose(out, I2)

    def test_projector(self):
        m = np.kron(P0, P1)
        out = contract_party(m, 1, np.array([0, 1]), (2, 2))
        assert np.allclose(out, P0)

    def test_bell_difference_block(self):
        m = bell().mat - WERNER
        out = contract_party(m, 1, np.array([1, 0]), (2, 2))
        assert np.allclose(out, np.diag([1 / 6, -1 / 6]), atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_form_consistency(self, seed):
        rng = rng_for(seed)
        m = random_hermitian(6, rng)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b /= np.linalg.norm(b)
        mb = contract_party(m, 1, b, (2, 3))
        full = np.kron(a, b)
        assert np.vdot(a, mb @ a).real == pytest.approx(np.vdot(full, m @ full).real, abs=1e-12)
        assert np.abs(mb - mb.conj().T).max() <= 1e-12

    def test_bad_party(self):
        with pytest.raises(DimensionError):
            contract_party(np.eye(4, dtype=complex), 2, np.array([1, 0]), (2, 2))

    def test_bad_vector_length(self):
        with pytest.raises(DimensionError):
            contract_party(np.eye(6, dtype=complex), 0, np.array([1, 0, 0]), (2, 3))

    @pytest.mark.parametrize("dims, party", [((2, 3), 0), ((2, 3), 1), ((2, 3, 2), 1), ((3, 2, 2), 2)])
    def test_stack_matches_row_loop(self, dims, party):
        rng = rng_for(8)
        total = int(np.prod(dims))
        mat = random_hermitian(total, rng)
        vecs = rng.standard_normal((4, dims[party])) + 1j * rng.standard_normal((4, dims[party]))
        shared = contract_party(mat, party, vecs, dims)
        rest = total // dims[party]
        assert shared.shape == (4, rest, rest)
        for r in range(4):
            assert np.abs(shared[r] - contract_party(mat, party, vecs[r], dims)).max() <= 1e-13

    @pytest.mark.parametrize(
        "mat_shape, vec_shape",
        [((3, 6, 6), (3, 3)), ((6, 5), (3, 3)), ((6, 6), (3, 2)), ((6, 6), (3, 1))],
        ids=["batch-axes", "matrix", "vector", "column-vector"],
    )
    def test_bad_stack_shapes(self, mat_shape, vec_shape):
        with pytest.raises(DimensionError):
            contract_party(np.zeros(mat_shape, dtype=complex), 1, np.ones(vec_shape), (2, 3))


def min_eig_over_every_bipartition(rho):
    """Brute-force reference: the smallest partial-transpose eigenvalue over every nonempty proper subset."""
    n = len(rho.dims)
    tensor = rho.mat.reshape(rho.dims + rho.dims)
    lowest = np.inf
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            axes = list(range(2 * n))
            for q in subset:
                axes[q], axes[n + q] = n + q, q
            lowest = min(lowest, np.linalg.eigvalsh(tensor.transpose(axes).reshape(rho.mat.shape))[0])
    return lowest


class TestIsPpt:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_matches_brute_force(self, dims):
        rng = rng_for(21)
        for noise in (0.0, 0.5):  # mixing in white noise moves states across the PPT boundary
            rho = random_density(dims, rng)
            total = rho.mat.shape[0]
            rho = DensityMatrix(dims, (1 - noise) * rho.mat + noise * np.eye(total) / total)
            lowest = min_eig_over_every_bipartition(rho)
            assert is_ppt(rho) == (lowest >= -PSD_TOL)
            # The threshold sits at the smallest eigenvalue of all bipartitions, not of the first one tried.
            assert is_ppt(rho, tol=-lowest + 1e-9)
            assert not is_ppt(rho, tol=-lowest - 1e-9)

    @pytest.mark.parametrize(
        "rho, ppt",
        [(bell(), False), (css_max_entangled(2), True), (upb_tiles_state(), True)],
        ids=["bell", "werner-boundary", "upb-tiles"],
    )
    def test_named_states(self, rho, ppt):
        assert is_ppt(rho) is ppt
        assert bool(min_eig_over_every_bipartition(rho) >= -PSD_TOL) is ppt


class TestPartialTranspose:
    def test_product_with_real_factor_unchanged(self, rng):
        a = random_density((2,), rng)
        b = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityMatrix((2, 2), np.kron(a.mat, b))
        assert np.array_equal(partial_transpose(rho, 1), rho.mat)

    def test_bell_partial_transpose_spectrum(self):
        out = partial_transpose(bell(), 1)
        assert np.linalg.eigvalsh(out)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_werner_at_boundary(self):
        out = partial_transpose(css_max_entangled(2), 1)
        assert np.linalg.eigvalsh(out)[0] == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]))
    @settings(max_examples=25, deadline=None)
    def test_involution_exact(self, seed, dims):
        rho = random_density(dims, rng_for(seed))
        party = seed % len(dims)
        once = partial_transpose(rho.mat, party, dims)
        twice = partial_transpose(once, party, dims)
        assert np.array_equal(twice, rho.mat)

    def test_bad_party(self):
        with pytest.raises(DimensionError):
            partial_transpose(bell(), 5)


class TestInvariantsAndProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unitary_invariance_of_distance(self, seed):
        rng = rng_for(seed)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        u = random_unitary(4, rng)
        moved = hsd_sq(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert abs(moved - hsd_sq(a, b)) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inner_product_expansion(self, seed):
        rng = rng_for(seed)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        expanded = hs_inner(a, a) - 2 * hs_inner(a, b) + hs_inner(b, b)
        assert hsd_sq(a, b) == pytest.approx(expanded, abs=1e-12 * max(1.0, abs(expanded)))
        assert hs_inner(a, b) == pytest.approx(hs_inner(b, a), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_inner_bilinearity(self, seed):
        rng = rng_for(seed)
        a, b, c = (random_hermitian(3, rng) for _ in range(3))
        s = float(rng.standard_normal())
        lhs = hs_inner(a, s * b + c)
        assert lhs == pytest.approx(s * hs_inner(a, b) + hs_inner(a, c), abs=1e-11)


class TestDensityMatrix:
    def test_valid(self):
        DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)

    def test_non_hermitian_rejected(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityMatrix((2, 2), mat)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix((2, 2), np.eye(4, dtype=complex))

    def test_not_psd_rejected(self):
        mat = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix((2, 2), mat)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, entry):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[3, 3] = entry
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix((2, 2), mat)

    def test_shape_dims_mismatch(self):
        with pytest.raises(DimensionError):
            DensityMatrix((2, 3), np.eye(4, dtype=complex) / 4)

    def test_tiny_dims_rejected(self):
        with pytest.raises(DimensionError):
            DensityMatrix((1, 4), np.eye(4, dtype=complex) / 4)
