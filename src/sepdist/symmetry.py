"""Finite symmetry groups and twirling of trial states.

A group here is an explicit list of unitaries, closed under multiplication
and deduplicated up to global phase.  Its generators are
:class:`PermutedLocal` elements, one unitary per party followed by a
permutation of equal-dimension parties; products keep that form, so every
element maps product states to product states and the group preserves
separability by construction.  A dense matrix is not a generator.  A group
used to twirl a run must also leave the target invariant: the run then
keeps the same limit and only searches a smaller set.  ``gilbert.run``
rejects a group whose :func:`invariance_check` exceeds ``INVARIANCE_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import CapacityError, DimensionError, ParameterError, ValidationError
from .linalg import DensityMatrix, as_matrix, hermitize, hsd_sq

UNITARY_TOL = 1e-10
DEDUP_TOL = 1e-9
INVARIANCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite list of unitaries (identity included) on a fixed party structure.

    ``elements`` is one ``(order, D, D)`` array, one dense unitary per element.
    """

    dims: tuple[int, ...]
    elements: np.ndarray

    @property
    def order(self) -> int:
        return len(self.elements)


def require_unitary(mat: np.ndarray, what: str = "matrix") -> None:
    m = as_matrix(mat)
    defect = float(np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0])))
    if defect > UNITARY_TOL:
        raise ValidationError(f"{what} is not unitary (defect {defect:.3e} > {UNITARY_TOL:.0e})")


@dataclass(frozen=True, eq=False)
class PermutedLocal:
    """The unitary ``P_perm (F_0 (x) ... (x) F_{n-1})``; ``P_perm`` puts old party ``perm[k]`` in slot k.

    ``a @ b`` composes two elements into a third of the same form.
    """

    perm: tuple[int, ...]
    factors: tuple[np.ndarray, ...]

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
        perm = tuple(other.perm[p] for p in self.perm)
        return PermutedLocal(perm, tuple(m @ f for m, f in zip(moved, other.factors)))

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
    mats = tuple(as_matrix(f) for f in factors)
    for i, m in enumerate(mats):
        require_unitary(m, what=f"factor {i}")
    return PermutedLocal(tuple(range(len(mats))), mats)


def party_permutation(perm, dims) -> PermutedLocal:
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
    return PermutedLocal(perm, tuple(np.eye(d, dtype=complex) for d in dims))


def _phase_duplicate(a: np.ndarray, b: np.ndarray, tol: float = DEDUP_TOL) -> bool:
    # a ~ c*b for a unit-modulus scalar c
    d = a.shape[0]
    c = np.vdot(b, a) / d
    if abs(abs(c) - 1.0) > 1e-6:
        return False
    return bool(np.abs(a - c * b).max() <= tol)


def closure(generators, dims, cap: int = 1024) -> SymmetryGroup:
    """Multiplicative closure of the generators, identity included.

    Every generator must be a :class:`PermutedLocal` with unitary factors
    (else :class:`ValidationError`), so that the group preserves
    separability; its permutation and factors must fit ``dims`` (else
    :class:`DimensionError`).  Each element found is multiplied on the
    right by each generator.  A product that matches an element with the
    same permutation factor by factor, each factor up to its own phase, is
    dropped, so every element (repeated generators included) appears once
    up to a global phase, which the twirl channel ignores.  Raises
    :class:`CapacityError` if the closure grows beyond ``cap`` elements, and
    :class:`ParameterError` if ``cap`` is below 1 (no group fits).
    """
    if cap < 1:
        raise ParameterError(f"cap must be >= 1, got {cap}")
    dims = tuple(int(d) for d in dims)
    gens = []
    for i, g in enumerate(generators):
        if not isinstance(g, PermutedLocal):
            raise ValidationError(f"generator {i} is not a PermutedLocal, so it may not preserve separability")
        if g.dims != dims:
            raise DimensionError(f"generator {i} acts on dims {g.dims}, expected {dims}")
        for k, f in enumerate(g.factors):
            require_unitary(f, what=f"generator {i} factor {k}")
        gens.append(PermutedLocal(party_permutation(g.perm, dims).perm, g.factors))  # a checked permutation

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
    return SymmetryGroup(dims, dense)


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
