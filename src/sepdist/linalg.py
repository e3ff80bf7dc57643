"""Dense complex Hermitian matrix kernel.

Inner products, squared Hilbert-Schmidt distances, single-party contractions and
partial transposes.  Everything operates on plain complex ``numpy`` arrays;
:class:`DensityMatrix` bundles a matrix with the ordered subsystem dimensions it
lives on, and is the one place where a matrix is checked to be a valid state:
every instance is one.  :func:`party_dims`, :func:`int_arg` and
:func:`party_operator` are every module's one check of a party list, of an
integer argument and of an operator's shape against its party list.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from math import prod
from numbers import Integral

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def party_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints: a non-empty sequence of integers >= 2, else :class:`DimensionError`."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise DimensionError(f"subsystem dimensions must be a sequence, got {dims!r}") from None
    if not dims or not all(isinstance(d, Integral) and not isinstance(d, bool) and d >= 2 for d in dims):
        raise DimensionError(f"subsystem dimensions must all be >= 2 and integral, got {dims}")
    return tuple(int(d) for d in dims)


def int_arg(name: str, value, minimum: int) -> int:
    """``value`` as an int: an integer (not a bool) >= ``minimum``, else :class:`ParameterError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be integral, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be {'nonnegative' if minimum == 0 else f'>= {minimum}'}, got {value}")
    return int(value)


def _is_party(p, n: int) -> bool:
    """Whether ``p`` indexes one of ``n`` parties: an integer (not a bool) in 0..n-1."""
    return isinstance(p, Integral) and not isinstance(p, bool) and 0 <= p < n


def party_operator(mat, dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """``mat``'s complex matrix and ``party_dims(dims)``; :class:`DimensionError` unless it is (D, D), D = prod(dims)."""
    dims = party_dims(dims)
    m = mat.mat if isinstance(mat, DensityMatrix) else np.asarray(mat, dtype=complex)
    total = prod(dims)
    if m.shape != (total, total):
        raise DimensionError(f"matrix shape {m.shape} does not match dims {dims} (D={total})")
    return m, dims


def as_matrix(obj) -> np.ndarray:
    """The complex square array of ``obj``: a :class:`DensityMatrix`'s matrix, or ``obj`` converted."""
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
        mat, dims = party_operator(self.mat, self.dims)
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
    dims = party_dims(dims)
    total = prod(dims)
    return DensityMatrix(dims, np.eye(total, dtype=complex) / total)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both operands' matrices: one shape, and one party list when both are :class:`DensityMatrix`."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix) and a.dims != b.dims:
        raise DimensionError(f"subsystem dimensions differ: {a.dims} vs {b.dims}")
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch {am.shape} vs {bm.shape}")
    return am, bm


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr[A B] of two Hermitian matrices.

    Real and symmetric in its arguments.  Both operands are validated to
    be Hermitian within ``HERMITIAN_TOL``, and paired as in :func:`hsd_sq`.
    """
    am, bm = _pair(a, b)
    require_hermitian(am, what="left operand")
    require_hermitian(bm, what="right operand")
    # Tr[A B] for Hermitian A, B equals Tr[A^dagger B] = vdot(A, B), real up to noise.
    return float(np.vdot(am, bm).real)


def hsd_sq(a, b) -> float:
    """Squared Hilbert-Schmidt distance Tr[(A - B)^2].

    For :class:`DensityMatrix` inputs the subsystem dimensions must agree,
    not just the total size.
    """
    am, bm = _pair(a, b)
    diff = am - bm
    return float(np.vdot(diff, diff).real)


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
    m, dims = party_operator(mat, dims)
    n = len(dims)
    if not _is_party(party, n):
        raise DimensionError(f"party index {party!r} is not an integer below {n}")
    d = dims[party]
    vec = np.asarray(vec, dtype=complex)
    if vec.shape[-1:] != (d,):
        raise DimensionError(f"vector shape {vec.shape} does not end in dims[{party}] = {d}")
    pre = prod(dims[:party])
    post = len(m) // (pre * d)
    rest = pre * post
    x = m.reshape(pre, d, post, pre, d, post).transpose(1, 4, 0, 2, 3, 5).reshape(d * d, rest * rest)
    # Row (bra) index contracts with conj(b), column (ket) index with b.
    w = (vec.conj()[..., :, None] * vec[..., None, :]).reshape(-1, d * d)
    return (w @ x).reshape(vec.shape[:-1] + (rest, rest))


def partial_transpose(rho, cut, dims=None) -> np.ndarray:
    """Transpose the indices of the parties in ``cut``: one party index, or a collection of distinct ones.

    ``rho`` may be a :class:`DensityMatrix` (dims implied) or a plain array
    accompanied by ``dims``.  It is one entry permutation: applying it twice
    restores the input exactly, and it equals the cut's single-party transposes in turn.
    """
    m, dims = party_operator(rho, rho.dims if isinstance(rho, DensityMatrix) else dims)
    n = len(dims)
    parties = tuple(cut) if isinstance(cut, Iterable) else (cut,)
    if not all(_is_party(p, n) for p in parties) or len(set(parties)) < len(parties):
        raise DimensionError(f"cut {cut!r} is not a set of distinct party indices below {n}")
    axes = list(range(2 * n))
    for p in parties:
        axes[p], axes[n + p] = n + p, p
    return m.reshape(dims + dims).transpose(axes).reshape(m.shape)


def is_ppt(rho: DensityMatrix, tol: float = PSD_TOL) -> bool:
    """Positive partial transpose on every bipartition (necessary for separability).

    False at the first bipartition whose partial transpose has an
    eigenvalue below ``-tol``.  Transposing a subset of parties has the
    same spectrum as transposing its complement, so only the cuts
    without party 0 are tried, one ``partial_transpose`` each.
    """
    n = len(rho.dims)
    for r in range(1, n):
        for cut in itertools.combinations(range(1, n), r):
            if np.linalg.eigvalsh(partial_transpose(rho, cut))[0] < -tol:
                return False
    return True
