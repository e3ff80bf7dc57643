"""Finite symmetry groups and twirling of trial states.

A group here is an explicit list of unitaries, closed under multiplication
and deduplicated up to global phase.  Generators must preserve
separability; the two supported kinds are tensor products of per-party
unitaries and permutations of equal-dimension parties (and their
compositions), both of which map product states to product states.
Arbitrary global unitaries are rejected at construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError
from .linalg import DensityMatrix, as_matrix, hermitize, hsd_sq

UNITARY_TOL = 1e-10
DEDUP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite list of unitaries (identity included) on a fixed party structure."""

    dims: tuple[int, ...]
    elements: tuple[np.ndarray, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def require_unitary(mat: np.ndarray, tol: float = UNITARY_TOL, what: str = "matrix") -> None:
    m = as_matrix(mat)
    defect = float(np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0])))
    if defect > tol:
        raise ValidationError(f"{what} is not unitary (defect {defect:.3e} > {tol:.0e})")


def local_unitary(factors) -> np.ndarray:
    """Tensor product of one unitary per party."""
    mats = [as_matrix(f) for f in factors]
    for i, m in enumerate(mats):
        require_unitary(m, what=f"factor {i}")
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def party_permutation(perm, dims) -> np.ndarray:
    """Unitary that reorders tensor factors: new factor k holds old factor perm[k].

    All permuted positions must carry equal dimensions.
    """
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"{perm} is not a permutation of 0..{n - 1}")
    for k, p in enumerate(perm):
        if dims[p] != dims[k]:
            raise DimensionError(f"permutation moves dimension {dims[p]} into a slot of dimension {dims[k]}")
    total = prod(dims)
    op = np.eye(total).reshape(dims + (total,))
    op = op.transpose(tuple(perm) + (n,))
    return op.reshape(total, total).astype(complex)


def _phase_duplicate(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    # a ~ c*b for a unit-modulus scalar c
    d = a.shape[0]
    c = np.vdot(b, a) / d
    if abs(abs(c) - 1.0) > 1e-6:
        return False
    return bool(np.abs(a - c * b).max() <= tol)


def _is_local_product(mat: np.ndarray, dims: tuple[int, ...], tol: float = 1e-9) -> bool:
    """Whether an operator factorizes as a tensor product across every party cut."""
    if len(dims) == 1:
        return True
    d0 = dims[0]
    rest = prod(dims[1:])
    tensor = mat.reshape(d0, rest, d0, rest).transpose(0, 2, 1, 3).reshape(d0 * d0, rest * rest)
    _, s, vh = np.linalg.svd(tensor)
    if s.size > 1 and s[1] > tol * max(s[0], 1.0):
        return False
    tail = (np.sqrt(s[0]) * vh[0]).reshape(rest, rest)
    return _is_local_product(tail, dims[1:], tol)


def is_separability_preserving(mat: np.ndarray, dims) -> bool:
    """Whether a unitary is a party permutation composed with local unitaries."""
    dims = tuple(int(d) for d in dims)
    m = as_matrix(mat)
    for perm in itertools.permutations(range(len(dims))):
        if any(dims[p] != dims[k] for k, p in enumerate(perm)):
            continue
        residual = party_permutation(perm, dims).conj().T @ m
        if _is_local_product(residual, dims):
            return True
    return False


def closure(generators, dims, cap: int = 1024) -> SymmetryGroup:
    """Multiplicative closure of the generators, identity included.

    Every generator must be unitary and a composition of a party
    permutation with local unitaries (else :class:`ValidationError`), so
    that the group preserves separability.  Elements are deduplicated up
    to a global phase (the twirl channel is unchanged by phases).  Raises
    :class:`CapacityError` if the closure grows beyond ``cap`` elements.
    """
    dims = tuple(int(d) for d in dims)
    total = prod(dims)
    gens = []
    for i, g in enumerate(generators):
        m = as_matrix(g)
        if m.shape != (total, total):
            raise DimensionError(f"generator {i} has shape {m.shape}, expected {(total, total)}")
        require_unitary(m, what=f"generator {i}")
        if not is_separability_preserving(m, dims):
            raise ValidationError(
                f"generator {i} is not a permutation/local-unitary composition; "
                "it may not preserve separability"
            )
        gens.append(m)

    elements: list[np.ndarray] = [np.eye(total, dtype=complex)]

    def known(candidate: np.ndarray) -> bool:
        return any(_phase_duplicate(candidate, e, DEDUP_TOL) for e in elements)

    frontier = [g for g in gens if not known(g)]
    for g in frontier:
        elements.append(g)
    if len(elements) > cap:
        raise CapacityError(f"group closure exceeded cap {cap}")
    while frontier:
        new_frontier = []
        for g in frontier:
            for e in list(elements):
                for candidate in (g @ e, e @ g):
                    if not known(candidate):
                        elements.append(candidate)
                        new_frontier.append(candidate)
                        if len(elements) > cap:
                            raise CapacityError(f"group closure exceeded cap {cap}")
        frontier = new_frontier
    return SymmetryGroup(dims, tuple(elements))


def twirl(rho: DensityMatrix, group: SymmetryGroup) -> DensityMatrix:
    """Group average (1/k) sum_U U rho U^dagger."""
    if rho.dims != group.dims:
        raise DimensionError(f"state dims {rho.dims} differ from group dims {group.dims}")
    acc = np.zeros_like(rho.mat)
    for u in group.elements:
        acc += u @ rho.mat @ u.conj().T
    return DensityMatrix(rho.dims, hermitize(acc / group.order))


def twirl_pure(ket: np.ndarray, group: SymmetryGroup) -> np.ndarray:
    """Group average of the projector onto ``ket``, returned as a bare matrix."""
    ket = np.asarray(ket, dtype=complex).ravel()
    if ket.shape[0] != prod(group.dims):
        raise DimensionError(f"ket length {ket.shape[0]} does not match group dims {group.dims}")
    orbit = np.stack([u @ ket for u in group.elements])
    acc = np.einsum("ki,kj->ij", orbit, orbit.conj()) / group.order
    return hermitize(acc)


def invariance_check(rho: DensityMatrix, group: SymmetryGroup) -> float:
    """Largest squared distance between ``rho`` and any of its group images.

    Values above ~1e-10 mean the group is not a symmetry of the state.
    """
    if rho.dims != group.dims:
        raise DimensionError(f"state dims {rho.dims} differ from group dims {group.dims}")
    worst = 0.0
    for u in group.elements:
        moved = u @ rho.mat @ u.conj().T
        worst = max(worst, hsd_sq(rho.mat, moved))
    return worst
