"""Dense complex Hermitian matrix kernel.

Inner products, squared Hilbert-Schmidt distances, tensor products,
eigendecomposition, single-party contractions and partial transposes,
plus validity checks for density matrices.  Everything operates on
plain complex ``numpy`` arrays; :class:`DensityMatrix` only bundles a
matrix with the ordered subsystem dimensions it lives on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DimensionError, ValidationError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def as_matrix(obj) -> np.ndarray:
    """Return the underlying complex square array of ``obj``.

    Accepts a :class:`DensityMatrix` or anything convertible to a
    complex ndarray.
    """
    if isinstance(obj, DensityMatrix):
        return obj.mat
    mat = np.asarray(obj, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entrywise deviation from M = M^dagger."""
    return float(np.abs(mat - mat.conj().T).max()) if mat.size else 0.0


def require_hermitian(mat: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> None:
    defect = hermiticity_defect(mat)
    if defect > tol:
        raise ValidationError(f"{what} is not Hermitian (defect {defect:.3e} > {tol:.0e})")


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger)/2."""
    return (mat + mat.conj().T) / 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace matrix with subsystem dimensions.

    ``dims`` is the ordered list of party dimensions; the matrix acts on the
    tensor-product space of total dimension ``prod(dims)``.  Construction
    checks shape, hermiticity and unit trace; positivity is verified on
    demand by :func:`assert_valid_density` (it costs an eigendecomposition).
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise DimensionError(f"subsystem dimensions must all be >= 2, got {dims}")
        mat = np.asarray(self.mat, dtype=complex)
        total = prod(dims)
        if mat.shape != (total, total):
            raise DimensionError(f"matrix shape {mat.shape} does not match dims {dims} (D={total})")
        require_hermitian(mat, what="density matrix")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} deviates from 1 by more than {TRACE_TOL:.0e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.mat)[0])


def assert_valid_density(rho: DensityMatrix) -> None:
    """Full validity check: no eigenvalue below ``-PSD_TOL``."""
    low = rho.min_eigenvalue()
    if low < -PSD_TOL:
        raise ValidationError(f"matrix is not positive semidefinite (min eigenvalue {low:.3e})")


def pure_density(vec: np.ndarray, dims) -> DensityMatrix:
    """Projector onto the given (normalized) state vector."""
    vec = np.asarray(vec, dtype=complex).ravel()
    return DensityMatrix(tuple(dims), np.outer(vec, vec.conj()))


def maximally_mixed(dims) -> DensityMatrix:
    """The white-noise state I/D on the given subsystem dimensions."""
    total = prod(int(d) for d in dims)
    return DensityMatrix(tuple(dims), np.eye(total, dtype=complex) / total)


def _inner_raw(a: np.ndarray, b: np.ndarray) -> float:
    # Tr[A B] for Hermitian A, B equals Tr[A^dagger B] = vdot(A, B), real up to noise.
    return float(np.vdot(a, b).real)


def hs_inner(a, b, check: bool = True) -> float:
    """Hilbert-Schmidt inner product Tr[A B] of two Hermitian matrices.

    Real and symmetric in its arguments.  With ``check`` enabled (default)
    both operands are validated to be Hermitian within ``HERMITIAN_TOL``.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
    if check:
        require_hermitian(am, what="left operand")
        require_hermitian(bm, what="right operand")
    return _inner_raw(am, bm)


def hsd_sq(a, b) -> float:
    """Squared Hilbert-Schmidt distance Tr[(A - B)^2].

    For :class:`DensityMatrix` inputs the subsystem dimensions must agree,
    not just the total size.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix) and a.dims != b.dims:
        raise DimensionError(f"subsystem dimensions differ: {a.dims} vs {b.dims}")
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
    diff = am - bm
    return _inner_raw(diff, diff)


def kron(a, b, *rest) -> np.ndarray:
    """Tensor product of two or more operators, left to right."""
    out = np.kron(as_matrix(a), as_matrix(b))
    for factor in rest:
        out = np.kron(out, as_matrix(factor))
    return out


def eig_hermitian(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix."""
    m = as_matrix(mat)
    require_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def contract_party(mat, party: int, vec: np.ndarray, dims) -> np.ndarray:
    """Pin one party of a multipartite operator to a fixed vector.

    Returns the operator ``M_b`` on the remaining parties defined by
    ``<a| M_b |a'> = <a (x) b | M | a' (x) b>`` where ``b`` sits at position
    ``party``.  Hermiticity of the input is inherited by the output.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = prod(dims)
    m = as_matrix(mat)
    if m.shape != (total, total):
        raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
    if not 0 <= party < n:
        raise DimensionError(f"party index {party} out of range for {n} parties")
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.shape[0] != dims[party]:
        raise DimensionError(f"vector length {vec.shape[0]} != dims[{party}] = {dims[party]}")
    tensor = m.reshape(dims + dims)
    # Row (bra) index contracts with conj(b), column (ket) index with b.
    out = np.tensordot(vec.conj(), tensor, axes=([0], [party]))
    out = np.tensordot(out, vec, axes=([n - 1 + party], [0]))
    rest = total // dims[party]
    return out.reshape(rest, rest)


def partial_transpose(rho, party: int, dims=None) -> np.ndarray:
    """Transpose the indices of a single party.

    ``rho`` may be a :class:`DensityMatrix` (dims implied) or a plain array
    accompanied by ``dims``.  Applying the operation twice restores the
    input exactly (it is an entry permutation).
    """
    if isinstance(rho, DensityMatrix):
        dims = rho.dims
    elif dims is None:
        raise DimensionError("dims are required when the input is a bare matrix")
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not 0 <= party < n:
        raise DimensionError(f"party index {party} out of range for {n} parties")
    m = as_matrix(rho)
    total = prod(dims)
    if m.shape != (total, total):
        raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
    tensor = m.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[party], axes[n + party] = axes[n + party], axes[party]
    return tensor.transpose(axes).reshape(total, total)


def min_eig_partial_transpose(rho: DensityMatrix) -> float:
    """Smallest partial-transpose eigenvalue over all bipartitions.

    Transposing a subset of parties has the same spectrum as transposing its
    complement, so only subsets containing party 0 are skipped.
    """
    n = len(rho.dims)
    lowest = float("inf")
    for r in range(1, n):
        for subset in itertools.combinations(range(1, n), r):
            mat = rho.mat
            for party in subset:
                mat = partial_transpose(mat, party, rho.dims)
            lowest = min(lowest, float(np.linalg.eigvalsh(mat)[0]))
    return lowest


def is_ppt(rho: DensityMatrix, tol: float = PSD_TOL) -> bool:
    """Positive partial transpose on every bipartition (necessary for separability)."""
    return min_eig_partial_transpose(rho) >= -tol
