"""Finite symmetry groups and twirling of trial states.

A :class:`SymmetryGroup` is an explicit list of unitaries, closed under
multiplication and deduplicated up to global phase, and it is built one way:
as the closure of :class:`PermutedLocal` generators, one unitary per party
followed by a permutation of equal-dimension parties.  Products keep that
form, so every element maps product states to product states and the group
preserves separability by construction.  A dense matrix is not a generator.  A group
used to twirl a run must also leave the target invariant: the run then
keeps the same limit and only searches a smaller set.  ``gilbert.run``
rejects a group whose :func:`invariance_check` exceeds ``INVARIANCE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError
from .linalg import DensityMatrix, as_matrix, hermitize, hsd_sq, int_arg, party_dims

UNITARY_TOL = 1e-10
DEDUP_TOL = 1e-9
INVARIANCE_TOL = 1e-10
DEFAULT_CAP = 1024  # closure's largest group order


@dataclass(frozen=True, eq=False)
class PermutedLocal:
    """The unitary ``P_perm (F_0 (x) ... (x) F_{n-1})``; ``P_perm`` puts old party ``perm[k]`` in slot k.

    ``a @ b`` composes two elements into a third of the same form.  Every instance is
    valid: construction checks the permutation (it moves each party into a slot of its
    own dimension, else :class:`DimensionError`) and that each factor is finite and
    unitary (else :class:`ValidationError`), and a product of two elements is one.
    """

    perm: tuple[int, ...]
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(as_matrix(f) for f in self.factors)
        dims = party_dims(f.shape[0] for f in factors)
        perm = tuple(int_arg("permutation entry", p, 0) for p in self.perm)
        if sorted(perm) != list(range(len(dims))) or any(dims[p] != d for p, d in zip(perm, dims)):
            raise DimensionError(f"{perm} is not a permutation of 0..{len(dims) - 1} between parties of equal dimension {dims}")
        for i, f in enumerate(factors):
            if not np.isfinite(f).all():  # NaN passes the defect test below
                raise ValidationError(f"factor {i} has non-finite entries")
            defect = float(np.linalg.norm(f @ f.conj().T - np.eye(f.shape[0])))
            if defect > UNITARY_TOL:
                raise ValidationError(f"factor {i} is not unitary (defect {defect:.3e} > {UNITARY_TOL:.0e})")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def __matmul__(self, other):
        if not isinstance(other, PermutedLocal):
            return NotImplemented
        if other.dims != self.dims:
            raise DimensionError(f"cannot compose elements on dims {self.dims} and {other.dims}")
        moved = [None] * len(self.factors)  # (F_0 (x) ...) P_b = P_b (G_0 (x) ...) with G_{b[k]} = F_k
        for k, p in enumerate(other.perm):
            moved[p] = self.factors[k]
        # Not checked: two elements make one, and rounding would fail factors near UNITARY_TOL.
        product = object.__new__(PermutedLocal)
        object.__setattr__(product, "perm", tuple(other.perm[p] for p in self.perm))
        object.__setattr__(product, "factors", tuple(m @ f for m, f in zip(moved, other.factors)))
        return product

    def matrix(self) -> np.ndarray:
        """The dense D x D unitary."""
        out = self.factors[0]
        for f in self.factors[1:]:
            out = np.multiply.outer(out, f)  # axes: row 0, column 0, row 1, column 1, ...
        rows = tuple(2 * p for p in self.perm)
        total = prod(self.dims)
        return out.transpose(rows + tuple(range(1, out.ndim, 2))).reshape(total, total)


def local_unitary(factors) -> PermutedLocal:
    """Tensor product of one unitary per party."""
    factors = tuple(factors)
    return PermutedLocal(tuple(range(len(factors))), factors)


def party_permutation(perm, dims) -> PermutedLocal:
    """Unitary that reorders tensor factors: new factor k holds old factor perm[k].

    All permuted positions must carry equal dimensions.
    """
    return PermutedLocal(perm, tuple(np.eye(d, dtype=complex) for d in party_dims(dims)))


def _phase_duplicate(a: np.ndarray, b: np.ndarray, tol: float = DEDUP_TOL) -> bool:
    # a ~ c*b for a unit-modulus scalar c
    d = a.shape[0]
    c = np.vdot(b, a) / d
    if abs(abs(c) - 1.0) > 1e-6:
        return False
    return bool(np.abs(a - c * b).max() <= tol)


@dataclass(frozen=True, eq=False, init=False)
class SymmetryGroup:
    """The closure of ``generators`` on ``dims``: the one way to build a group, also named ``closure``.

    Every generator must be a :class:`PermutedLocal` (else :class:`ValidationError`),
    so that the group preserves separability, and act on ``dims`` (else
    :class:`DimensionError`).  Each element found, the identity first, is multiplied
    on the right by each generator; a product that matches an element with the same
    permutation factor by factor, each factor up to its own phase, is dropped, so
    every element appears once up to a global phase, which the twirl ignores.  More
    than ``cap`` elements raise :class:`CapacityError`, and a ``cap`` that is not an
    integer >= 1 raises :class:`ParameterError`.  ``elements`` is one read-only
    ``(order, D, D)`` array, one dense unitary per element.
    """

    dims: tuple[int, ...]
    elements: np.ndarray

    def __init__(self, generators, dims, cap: int = DEFAULT_CAP):
        cap, dims, gens = int_arg("cap", cap, 1), party_dims(dims), list(generators)
        for i, g in enumerate(gens):
            if not isinstance(g, PermutedLocal):
                raise ValidationError(f"generator {i} is not a PermutedLocal, so it may not preserve separability")
            if g.dims != dims:
                raise DimensionError(f"generator {i} acts on dims {g.dims}, expected {dims}")
        found = [party_permutation(range(len(dims)), dims)]
        by_perm = {found[0].perm: [found[0]]}
        for element in found:  # grows while it is walked
            for g in gens:
                candidate = element @ g
                same_perm = by_perm.setdefault(candidate.perm, [])
                if any(all(map(_phase_duplicate, candidate.factors, e.factors)) for e in same_perm):
                    continue
                same_perm.append(candidate)
                found.append(candidate)
                if len(found) > cap:
                    raise CapacityError(f"group closure exceeded cap {cap}")
        # Filled in place, one element at a time: never a second copy of the group.
        dense = np.fromiter((e.matrix() for e in found), dtype=np.dtype((complex, (prod(dims),) * 2)), count=len(found))
        dense.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "elements", dense)

    @property
    def order(self) -> int:
        return len(self.elements)


closure = SymmetryGroup


def _images(rho: DensityMatrix, group: SymmetryGroup):
    """Each image ``U rho U^dagger``, one element at a time: the whole ``(order, D, D)`` stack may not fit."""
    if rho.dims != group.dims:
        raise DimensionError(f"state dims {rho.dims} differ from group dims {group.dims}")
    return (u @ rho.mat @ u.conj().T for u in group.elements)


def twirl(rho: DensityMatrix, group: SymmetryGroup) -> DensityMatrix:
    """Group average (1/k) sum_U U rho U^dagger."""
    acc = sum(_images(rho, group), np.zeros_like(rho.mat))
    return DensityMatrix(rho.dims, hermitize(acc / group.order))


def twirl_pure(ket: np.ndarray, group: SymmetryGroup) -> np.ndarray:
    """Group average of the projector onto ``ket``, returned as a bare matrix."""
    ket = np.asarray(ket, dtype=complex).ravel()
    if ket.shape[0] != prod(group.dims):
        raise DimensionError(f"ket length {ket.shape[0]} does not match group dims {group.dims}")
    orbit = group.elements @ ket
    acc = np.einsum("ki,kj->ij", orbit, orbit.conj()) / group.order
    return hermitize(acc)


def invariance_check(rho: DensityMatrix, group: SymmetryGroup) -> float:
    """Largest squared distance between ``rho`` and any of its group images.

    Values above ``INVARIANCE_TOL`` mean the group is not a symmetry of the state.
    """
    return max((hsd_sq(rho.mat, moved) for moved in _images(rho, group)), default=0.0)
