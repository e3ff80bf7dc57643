"""Dense complex Hermitian matrix kernel.

Inner products, squared Hilbert-Schmidt distances, single-party
contractions and partial transposes.  Everything operates on plain
complex ``numpy`` arrays; :class:`DensityMatrix` bundles a matrix with the
ordered subsystem dimensions it lives on, and is the one place where a
matrix is checked to be a valid state: every instance is one.
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


def require_hermitian(mat: np.ndarray, what: str = "matrix") -> None:
    """Raise :class:`ValidationError` unless ``mat`` is finite and Hermitian within ``HERMITIAN_TOL``."""
    # Every comparison with NaN is false, so the defect test alone would pass it.
    if not np.isfinite(mat).all():
        raise ValidationError(f"{what} has non-finite entries")
    defect = float(np.abs(mat - mat.conj().T).max()) if mat.size else 0.0  # largest entrywise |M - M^dagger|
    if defect > HERMITIAN_TOL:
        raise ValidationError(f"{what} is not Hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.0e})")


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger)/2, of each matrix of a stack ``(..., D, D)``."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: finite, Hermitian, unit-trace, positive semidefinite matrix.

    ``dims`` is the ordered list of party dimensions; the matrix acts on the
    tensor-product space of total dimension ``prod(dims)``.  Construction
    checks all of it (positivity costs one ``eigvalsh``): dimensions and
    shape raise :class:`DimensionError`, the rest :class:`ValidationError`.
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
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < -PSD_TOL:
            raise ValidationError(f"matrix is not positive semidefinite (min eigenvalue {low:.3e})")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)


def maximally_mixed(dims) -> DensityMatrix:
    """The white-noise state I/D on the given subsystem dimensions."""
    total = prod(int(d) for d in dims)
    return DensityMatrix(tuple(dims), np.eye(total, dtype=complex) / total)


def _inner_raw(a: np.ndarray, b: np.ndarray) -> float:
    # Tr[A B] for Hermitian A, B equals Tr[A^dagger B] = vdot(A, B), real up to noise.
    return float(np.vdot(a, b).real)


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr[A B] of two Hermitian matrices.

    Real and symmetric in its arguments.  Both operands are validated to
    be Hermitian within ``HERMITIAN_TOL``.
    """
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
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


# No package code calls it and the package does not export it.  It stays because the
# benchmark's traced run patches it as analysis.contract_party, and the tests check
# analysis._sweep against it.
def contract_party(mat, party: int, vec: np.ndarray, dims) -> np.ndarray:
    """Pin one party of a multipartite operator to a fixed vector.

    Returns the operator ``M_b`` on the remaining parties defined by
    ``<a| M_b |a'> = <a (x) b | M | a' (x) b>`` where ``b`` sits at position
    ``party``.  Hermiticity of the input is inherited by the output, up to
    rounding.

    ``mat`` is one ``(D, D)`` operator; ``vec`` is one vector ``(d,)`` or a
    stack ``(..., d)``, and the result is then a stack ``(..., D/d, D/d)``,
    one pinned operator per vector.  The pinned bra and ket axes are moved
    first, so the contraction is one BLAS product of the vectors'
    ``conj(b) (x) b`` rows with the ``(d*d, (D/d)**2)`` reshape of the
    operator.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = prod(dims)
    m = mat.mat if isinstance(mat, DensityMatrix) else np.asarray(mat, dtype=complex)
    if m.shape != (total, total):
        raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
    if not 0 <= party < n:
        raise DimensionError(f"party index {party} out of range for {n} parties")
    d = dims[party]
    vec = np.asarray(vec, dtype=complex)
    if vec.shape[-1:] != (d,):
        raise DimensionError(f"vector shape {vec.shape} does not end in dims[{party}] = {d}")
    pre = prod(dims[:party])
    post = total // (pre * d)
    rest = pre * post
    x = m.reshape(pre, d, post, pre, d, post).transpose(1, 4, 0, 2, 3, 5).reshape(d * d, rest * rest)
    # Row (bra) index contracts with conj(b), column (ket) index with b.
    w = (vec.conj()[..., :, None] * vec[..., None, :]).reshape(-1, d * d)
    return (w @ x).reshape(vec.shape[:-1] + (rest, rest))


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


def is_ppt(rho: DensityMatrix, tol: float = PSD_TOL) -> bool:
    """Positive partial transpose on every bipartition (necessary for separability).

    False at the first bipartition whose partial transpose has an
    eigenvalue below ``-tol``.  Transposing a subset of parties has the
    same spectrum as transposing its complement, so only the subsets
    without party 0 are tried.
    """
    n = len(rho.dims)
    for r in range(1, n):
        for subset in itertools.combinations(range(1, n), r):
            mat = rho.mat
            for party in subset:
                mat = partial_transpose(mat, party, rho.dims)
            if np.linalg.eigvalsh(mat)[0] < -tol:
                return False
    return True
