import dataclasses
import itertools
import warnings
from math import factorial

import numpy as np
import pytest

from sepdist import (
    CapacityError,
    DensityMatrix,
    DimensionError,
    ParameterError,
    PermutedLocal,
    SepdistError,
    StateSampler,
    SamplerConfig,
    SymmetryGroup,
    ValidationError,
    closure,
    ghz,
    hsd_sq,
    invariance_check,
    is_ppt,
    local_unitary,
    bell,
    css_max_entangled,
    party_permutation,
    twirl,
    twirl_pure,
)
from conftest import projector, random_product_density, random_unitary, reference_twirl_pure, rng_for

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PHASE = np.diag([1, 1j])
OMEGA = np.exp(2j * np.pi / 3)
FOURIER3 = np.array([[OMEGA ** (i * j) for j in range(3)] for i in range(3)]) / np.sqrt(3)
PHASE3 = np.diag([1, 1, OMEGA])


def ghz3_group():
    """Order 12: the party permutations of three qubits times the global bit flip."""
    dims = (2, 2, 2)
    gens = [party_permutation((1, 0, 2), dims), party_permutation((1, 2, 0), dims), local_unitary([SX, SX, SX])]
    return closure(gens, dims)


def isotropic_group(local_gens):
    """The U (x) conj(U) twirl generated by the given local unitaries: order 24 on qubits, 216 on qutrits."""
    d = local_gens[0].shape[0]
    return closure([local_unitary([g, g.conj()]) for g in local_gens], (d, d))


GROUPS = {
    "ghz3": (ghz3_group, 12),
    "isotropic2": (lambda: isotropic_group([HADAMARD, PHASE]), 24),
    "isotropic3": (lambda: isotropic_group([FOURIER3, PHASE3]), 216),
}


def kron_all(vecs):
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def ket(*digits, dims=None):
    dims = dims or (2,) * len(digits)
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    index = 0
    for d, dim in zip(digits, dims):
        index = index * dim + d
    v[index] = 1.0
    return v


class TestClosure:
    def test_empty_generators(self):
        group = closure([], (2, 2))
        assert group.order == 1
        assert np.array_equal(group.elements[0], np.eye(4))

    def test_involution(self):
        group = closure([local_unitary([SX, SX])], (2, 2))
        assert group.order == 2

    def test_pauli_pair_mod_phase(self):
        group = closure([local_unitary([SX, SX]), local_unitary([SZ, SZ])], (2, 2))
        assert group.order == 4

    def test_products_stay_inside(self):
        group = closure([local_unitary([SX, SX]), local_unitary([SZ, SZ])], (2, 2))
        for a in group.elements:
            for b in group.elements:
                prod = a @ b
                hits = sum(
                    1
                    for e in group.elements
                    if np.abs(prod - (np.vdot(e, prod) / 4) * e).max() <= 1e-9
                )
                assert hits >= 1

    @pytest.mark.parametrize("sign", [1, -1], ids=["same", "phase"])
    def test_repeated_generator_kept_once(self, sign):
        # A repeat kept twice would weight the twirl (rho + 2 S rho S) / 3.
        swap = party_permutation((1, 0), (2, 2))
        group = closure([swap, swap @ local_unitary([sign * I2, I2])], (2, 2))
        assert group.order == 2
        assert np.array_equal(group.elements[1], swap.matrix())

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_elements_are_the_typed_elements_matrices(self, name, monkeypatch):
        made, matrix = [], PermutedLocal.matrix

        def recorded(element):
            made.append(matrix(element))
            return made[-1]

        monkeypatch.setattr(PermutedLocal, "matrix", recorded)
        build, order = GROUPS[name]
        group = build()
        total = int(np.prod(group.dims))
        assert group.elements.shape == (order, total, total) and group.elements.dtype == complex
        assert len(made) == order
        assert all(stored.tobytes() == typed.tobytes() for stored, typed in zip(group.elements, made))

    def test_cap_exceeded(self):
        with pytest.raises(CapacityError):
            closure([local_unitary([SX, SX]), local_unitary([SZ, SZ])], (2, 2), cap=2)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ParameterError, match="cap must be >= 1"):
            closure([local_unitary([SX, SX])], (2, 2), cap=cap)

    @pytest.mark.parametrize("cap", [True, 2.5])
    def test_non_integral_cap_rejected(self, cap):
        # True ran the closure, then raised "group closure exceeded cap True"; 2.5 built the group
        with pytest.raises(ParameterError, match="cap must be integral"):
            closure([local_unitary([SX, SX])], (2, 2), cap=cap)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            closure([np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex)], (2, 2))
        with pytest.raises(ValidationError, match="not unitary"):
            closure([PermutedLocal((0, 1), (np.diag([1.0, 2.0]), I2))], (2, 2))

    def test_entangling_generator_rejected(self):
        with pytest.raises(ValidationError):
            closure([CNOT], (2, 2))

    def test_generator_dims_mismatch(self):
        with pytest.raises(DimensionError):
            closure([party_permutation((1, 0), (3, 3))], (2, 2))

    def test_group_is_built_only_as_a_closure(self):
        # SymmetryGroup(dims, elements) built this CNOT group unchecked, and a run under it
        # returned an entangled iterate whose d2 bounded nothing
        assert closure is SymmetryGroup
        with pytest.raises(SepdistError):
            SymmetryGroup((2, 2), np.stack([np.eye(4), CNOT]))

    def test_group_cannot_be_changed(self):
        group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            group.elements = np.stack([np.eye(4), CNOT])
        with pytest.raises(ValueError, match="read-only"):
            group.elements[1] = CNOT

    def test_swap_and_locals_accepted(self):
        # swap, ZZ and swap.XX generate {I, XX, YY, ZZ} x {I, swap} up to phase
        swap = party_permutation((1, 0), (2, 2))
        group = closure([swap, local_unitary([SZ, SZ]), swap @ local_unitary([SX, SX])], (2, 2))
        assert group.order == 8

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_symmetric_group_times_flip(self, n):
        dims = (2,) * n
        cycle = tuple(range(1, n)) + (0,)
        generators = [
            party_permutation((1, 0) + tuple(range(2, n)), dims),
            party_permutation(cycle, dims),
            local_unitary([SX] * n),
        ]
        assert closure(generators, dims, cap=2048).order == 2 * factorial(n)


class TestPermutedLocal:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 3, 2)])
    def test_composition_matches_dense_product(self, dims, rng):
        perms = [p for p in itertools.permutations(range(len(dims))) if all(dims[q] == dims[k] for k, q in enumerate(p))]
        elements = []
        for perm in perms:
            factors = [random_unitary(d, rng) for d in dims]
            element = party_permutation(perm, dims) @ local_unitary(factors)
            dense = party_permutation(perm, dims).matrix() @ local_unitary(factors).matrix()
            assert np.abs(element.matrix() - dense).max() <= 1e-12
            elements.append(element)
        for a in elements:
            for b in elements:
                assert np.abs((a @ b).matrix() - a.matrix() @ b.matrix()).max() <= 1e-12

    def test_local_unitary_matrix_is_the_kronecker_product(self, rng):
        factors = [random_unitary(d, rng) for d in (2, 3, 2)]
        assert np.array_equal(local_unitary(factors).matrix(), kron_all(factors))

    @pytest.mark.parametrize(
        "perm,factors,error",
        [
            ((0, 1), (np.diag([1.0, 2.0]), I2), ValidationError),
            ((1, 0), (I2, np.eye(3)), DimensionError),
            ((0, 0), (I2, I2), DimensionError),
            ((0, 1), (I2, np.eye(1)), DimensionError),
            ((), (), DimensionError),
        ],
        ids=["non-unitary", "unequal-dims", "not-a-permutation", "unit-dimension", "no-parties"],
    )
    def test_construction_checks_the_element(self, perm, factors, error):
        # each was built unchecked before; only closure checked the factors and the permutation
        with pytest.raises(error):
            PermutedLocal(perm, factors)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_factor_rejected_without_a_warning(self, entry):
        # NaN passed the unitarity test (every comparison with NaN is false), with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="factor 0 has non-finite entries"):
                local_unitary([np.full((2, 2), entry), I2])

    def test_products_of_a_nearly_unitary_factor_are_not_rechecked(self):
        # The factor's defect is 8.5e-11, under UNITARY_TOL; its square's is 1.7e-10, over it.
        t = 2 * np.pi / 7
        rotation = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex) * (1 + 3e-11)
        assert closure([local_unitary([rotation, rotation])], (2, 2)).order == 7

    def test_construction_normalises_its_fields(self):
        element = PermutedLocal([np.int64(1), 0], [SX.real, I2])
        assert element.perm == (1, 0) and all(type(p) is int for p in element.perm)
        assert all(f.dtype == complex for f in element.factors)

    def test_other_operands_not_composed(self):
        swap = party_permutation((1, 0), (2, 2))
        assert swap.__matmul__(np.eye(4)) is NotImplemented
        with pytest.raises(DimensionError):
            swap @ party_permutation((1, 0), (3, 3))


class TestPartyPermutation:
    def test_swap_action(self):
        swap = party_permutation((1, 0), (2, 2))
        assert np.allclose(swap.matrix() @ ket(0, 1), ket(1, 0))

    @pytest.mark.parametrize("dims,perm", [((2, 3, 2), (2, 1, 0)), ((3, 3, 2), (1, 0, 2)), ((2, 2, 2, 2), (3, 0, 2, 1))])
    def test_sends_product_to_permuted_product(self, dims, perm, rng):
        vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
        moved = party_permutation(perm, dims).matrix() @ kron_all(vecs)
        assert np.allclose(moved, kron_all([vecs[p] for p in perm]), atol=1e-14)

    def test_cycle_action(self):
        cycle = party_permutation((1, 2, 0), (2, 2, 2))
        a = np.array([1, 0], dtype=complex)
        b = np.array([0, 1], dtype=complex)
        c = np.array([1, 1], dtype=complex) / np.sqrt(2)
        vec = np.kron(np.kron(a, b), c)
        expected = np.kron(np.kron(b, c), a)
        assert np.allclose(cycle.matrix() @ vec, expected)

    def test_unequal_dims_rejected(self):
        with pytest.raises(DimensionError):
            party_permutation((1, 0), (2, 3))

    def test_not_a_permutation(self):
        with pytest.raises(DimensionError):
            party_permutation((0, 0), (2, 2))

    def test_non_integral_entry_rejected(self):
        # truncated to the swap (1, 0) before
        with pytest.raises(ParameterError, match="permutation entry must be integral"):
            party_permutation((1.5, 0), (2, 2))


class TestTwirl:
    def test_trivial_group(self, rng):
        group = closure([], (2, 2))
        rho = css_max_entangled(2)
        assert np.array_equal(twirl(rho, group).mat, rho.mat)

    def test_idempotent(self):
        group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        rho = projector(ket(0, 1), (2, 2))
        once = twirl(rho, group)
        twice = twirl(once, group)
        assert hsd_sq(once, twice) <= 1e-24

    def test_swap_average(self):
        group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        rho = projector(ket(0, 1), (2, 2))
        expected = (np.outer(ket(0, 1), ket(0, 1)) + np.outer(ket(1, 0), ket(1, 0))) / 2
        assert np.allclose(twirl(rho, group).mat, expected, atol=1e-14)

    def test_preserves_trace_and_hermiticity(self, rng):
        group = closure([local_unitary([SX, SX]), local_unitary([SZ, SZ])], (2, 2))
        sampler = StateSampler(SamplerConfig(seed=2))
        for _ in range(5):
            rho = random_product_density((2, 2), sampler)
            out = twirl(rho, group)
            assert abs(np.trace(out.mat) - 1.0) <= 1e-13
            assert np.abs(out.mat - out.mat.conj().T).max() <= 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_twirled_separable_stays_ppt(self, dims):
        def shift(d):
            out = np.zeros((d, d), dtype=complex)
            for i in range(d):
                out[(i + 1) % d, i] = 1.0
            return out

        gens = [party_permutation((1, 0), dims)] if dims[0] == dims[1] else []
        gens.append(local_unitary([shift(dims[0]), shift(dims[1])]))
        group = closure(gens, dims)
        sampler = StateSampler(SamplerConfig(seed=6))
        for _ in range(5):
            assert is_ppt(twirl(random_product_density(dims, sampler), group), tol=1e-9)

    def test_twirl_pure_matches_matrix_twirl(self):
        group = closure([local_unitary([SX, SX]), local_unitary([SZ, SZ])], (2, 2))
        sampler = StateSampler(SamplerConfig(seed=8))
        v = sampler.product_kets((2, 2), 1)[0]
        via_matrix = twirl(projector(v, (2, 2)), group).mat
        assert np.allclose(twirl_pure(v, group), via_matrix, atol=1e-13)

    def test_dims_mismatch(self):
        group = closure([], (2, 2))
        with pytest.raises(DimensionError):
            twirl(projector(ket(0, 0, dims=(3, 3)), (3, 3)), group)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_twirl_pure_matches_the_orbit_loop_bit_for_bit(self, name):
        group = GROUPS[name][0]()
        kets = StateSampler(SamplerConfig(seed=14)).product_kets(group.dims, 200)
        for v in kets:
            assert twirl_pure(v, group).tobytes() == reference_twirl_pure(v, group).tobytes()

    def test_contraction_toward_invariant_target(self):
        # averaging over a symmetry of the target cannot move rho away
        cycle = party_permutation((1, 2, 0), (2, 2, 2))
        group = closure([cycle], (2, 2, 2))
        target = ghz(3)
        assert invariance_check(target, group) <= 1e-12
        sampler = StateSampler(SamplerConfig(seed=10))
        for _ in range(10):
            rho = random_product_density((2, 2, 2), sampler)
            assert hsd_sq(target, twirl(rho, group)) <= hsd_sq(target, rho) + 1e-10


class TestInvarianceCheck:
    def test_trivial_group(self):
        group = closure([], (2, 2))
        assert invariance_check(css_max_entangled(2), group) == 0.0

    def test_ghz_cyclic(self):
        group = closure([party_permutation((1, 2, 0), (2, 2, 2))], (2, 2, 2))
        assert invariance_check(ghz(3), group) <= 1e-12

    def test_asymmetric_state(self):
        group = closure([party_permutation((1, 0), (2, 2))], (2, 2))
        rho = projector(ket(0, 1), (2, 2))
        assert invariance_check(rho, group) == pytest.approx(2.0, abs=1e-12)

    def test_dims_mismatch(self):
        group = closure([], (2, 2))
        with pytest.raises(DimensionError):
            invariance_check(projector(ket(0, 0, dims=(3, 3)), (3, 3)), group)


class TestPreselectionInvariance:
    def test_functional_unchanged_under_stabilizing_unitary(self):
        # the twirl leaves the preselection value untouched when the
        # symmetry stabilizes both the target and the iterate
        from conftest import preselect

        group = closure([local_unitary([SX, SX]), local_unitary([SZ, SZ])], (2, 2))
        target = bell()
        approx = css_max_entangled(2)
        assert invariance_check(target, group) <= 1e-12
        assert invariance_check(approx, group) <= 1e-12
        sampler = StateSampler(SamplerConfig(seed=12))
        for _ in range(10):
            rho2 = random_product_density((2, 2), sampler)
            base = preselect(target, approx, rho2.mat)
            for u in group.elements:
                moved = preselect(target, approx, u @ rho2.mat @ u.conj().T)
                assert moved == pytest.approx(base, abs=1e-10)
