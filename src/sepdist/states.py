"""Random product-state sampling and reference states.

The sampler draws pure states with the unitarily invariant measure (the
one induced by the Hilbert-Schmidt metric) by normalising vectors of
independent complex Gaussian deviates.  Real-amplitude sampling is an
explicit opt-in: for targets such as the two-qubit maximally entangled
state it converges to the wrong limit, which is exactly what the
``real_limit_bell`` reference matrix documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import DensityMatrix

MODES = ("complex", "real")


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler settings: amplitude ``mode`` (``complex`` or ``real``) and a nonnegative ``seed``."""

    mode: str = "complex"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


def _check_request(dims: tuple[int, ...], count: int) -> None:
    for d in dims:
        if d < 2:
            raise ParameterError(f"state dimension must be >= 2, got {d}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")


def _row_norms(sq: np.ndarray, out: np.ndarray) -> None:
    """Norms of the rows whose squared moduli are ``sq``, written to ``out``.

    These are the bits of ``np.linalg.norm(amps, axis=1)``.  ``np.add.reduce``
    sums a row shorter than 8 left to right, which ordered column adds repeat
    at a fraction of its cost; a longer row gets numpy's pairwise sum, which
    column adds do not reproduce (d = 8, 9, 16, 17, 33 were checked), so it
    keeps ``add.reduce``.
    """
    if sq.shape[1] < 8:
        np.add(sq[:, 0], sq[:, 1], out=out)
        for column in range(2, sq.shape[1]):
            out += sq[:, column]
    else:
        np.add.reduce(sq, axis=1, out=out)
    np.sqrt(out, out=out)


class StateSampler:
    """Seeded source of random pure states and pure product states.

    Each sampler owns its own PCG64 stream, seeded from ``config.seed``;
    identical configuration and call sequence reproduce identical output
    bit for bit.
    """

    def __init__(self, config: SamplerConfig | None = None):
        self.config = config if config is not None else SamplerConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def _raw_amplitudes(self, d: int, count: int) -> np.ndarray:
        """``count`` rows of ``d`` unnormalised amplitudes.

        Each row is drawn from its own consecutive slice of the stream, so
        one block of rows equals the same rows drawn in smaller blocks.
        """
        if self.config.mode == "complex":
            return self._rng.standard_normal((count, d, 2)).view(complex)[..., 0]
        return self._rng.standard_normal((count, d)).astype(complex)

    def _redraw_zero_rows(self, amps: np.ndarray, norms: np.ndarray) -> None:
        """Redraw, in place, the rows of one party's ``amps`` whose norm is below 1e-150.

        ``norms`` holds the rows' norms and is updated with the fresh rows'.
        """
        bad = norms < 1e-150
        while np.any(bad):  # astronomically rare: every Gaussian deviate of the row is ~0
            amps[bad] = self._raw_amplitudes(amps.shape[1], int(bad.sum()))
            _row_norms((amps.conj() * amps).real, norms)
            bad = norms < 1e-150

    def product_kets(self, dims, count: int) -> np.ndarray:
        """``count`` product-state vectors on the given parties, one per row.

        The draw is ket-major: one block of ``count`` rows of ``sum(dims)``
        amplitudes, each row holding one ket's party amplitudes side by
        side.  Ket ``i`` therefore depends only on its position in the
        stream: ``product_kets(dims, n)`` equals ``product_kets(dims, k)``
        stacked on ``product_kets(dims, n - k)`` from a same-seed sampler,
        unless a near-zero party block had to be redrawn.

        Each party block is scaled to unit norm and the blocks are joined by
        Kronecker products.  The stream's bits depend on these numpy
        operations, each done once over the whole block where it can be:

        * squared moduli ``(amps.conj() * amps).real``, whose complex
          multiply may round the real part as one fused multiply-add;
        * per-party sums as in :func:`_row_norms`, then ``np.sqrt``;
        * scaling by ``1.0 / norm``, which is what numpy's complex-by-real
          division computes;
        * ``np.einsum`` for each Kronecker step: it rounds each product
          separately, where a broadcast complex multiply may fuse them.
        """
        dims = tuple(int(d) for d in dims)
        _check_request(dims, count)
        amps = self._raw_amplitudes(sum(dims), count)
        stops = np.cumsum(dims)
        blocks = [slice(stop - d, stop) for d, stop in zip(dims, stops)]
        sq = (amps.conj() * amps).real
        norms = np.empty((len(dims), count))
        for block, out in zip(blocks, norms):
            _row_norms(sq[:, block], out)
        for party in np.flatnonzero((norms < 1e-150).any(axis=1)):  # party order: redraws keep the stream's order
            self._redraw_zero_rows(amps[:, blocks[party]], norms[party])
        scales = 1.0 / norms
        kets = amps[:, blocks[0]] * scales[0][:, None]
        for block, scale in zip(blocks[1:], scales[1:]):
            factor = amps[:, block] * scale[:, None]
            kets = np.einsum("ni,nj->nij", kets, factor).reshape(count, -1)
        return kets


# ---------------------------------------------------------------------------
# Reference states.  Entries are written as exact rationals in double
# precision (not via normalized outer products) so tests can compare
# matrices bit for bit.
# ---------------------------------------------------------------------------


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_i |i,i> on two d-dimensional parties."""
    if d < 2:
        raise ParameterError(f"local dimension must be >= 2, got {d}")
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            mat[i * d + i, j * d + j] = 1.0 / d
    return DensityMatrix((d, d), mat)


def css_max_entangled(d: int) -> DensityMatrix:
    """Closest separable state to ``max_entangled(d)``.

    The mixture of the entangled projector (weight 1/(d+1)) with white
    noise (weight d/(d+1)); the squared distance to it is (d-1)/(d+1).
    """
    mat = max_entangled(d).mat * (1.0 / (d + 1))  # max_entangled checks d
    mat += (d / (d + 1)) * np.eye(d * d, dtype=complex) / (d * d)
    return DensityMatrix((d, d), mat)


def bell() -> DensityMatrix:
    """The two-qubit maximally entangled state."""
    return max_entangled(2)


def ghz(n: int) -> DensityMatrix:
    """Projector onto (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ParameterError(f"party count must be >= 2, got {n}")
    total = 2**n
    mat = np.zeros((total, total), dtype=complex)
    for r in (0, total - 1):
        for c in (0, total - 1):
            mat[r, c] = 0.5
    return DensityMatrix((2,) * n, mat)


def ghz_css_weight(n: int) -> float:
    """Mixing weight of the corner-diagonal component in the GHZ closest separable state."""
    if n < 2:
        raise ParameterError(f"party count must be >= 2, got {n}")
    return (2**n - 2) ** 2 / (4 + 4**n - 2 ** (n + 1))


def css_ghz(n: int) -> DensityMatrix:
    """Closest separable state to the n-qubit GHZ state.

    Mixes the diagonal corner state (1/2 on the first and last diagonal
    entries) with the state that has 2^-n on the full diagonal plus the
    two far corners, using :func:`ghz_css_weight`.
    """
    x = ghz_css_weight(n)
    total = 2**n
    corner_diag = np.zeros((total, total), dtype=complex)
    corner_diag[0, 0] = corner_diag[-1, -1] = 0.5
    flat = np.eye(total, dtype=complex)
    flat[0, -1] = flat[-1, 0] = 1.0
    flat /= total
    # The complement 1 - x as the exact integer ratio 2^(n+1)/(4 + 4^n - 2^(n+1))
    # keeps css_ghz(2) bit-identical to the two-qubit Werner state.
    complement = 2 ** (n + 1) / (4 + 4**n - 2 ** (n + 1))
    return DensityMatrix((2,) * n, x * corner_diag + complement * flat)


def ghz_css_distance(n: int) -> float:
    """Closed-form squared distance between the n-qubit GHZ state and its CSS."""
    if n < 2:
        raise ParameterError(f"party count must be >= 2, got {n}")
    return (2**n - 2) / (-4 + 2 ** (3 - n) + 2 ** (n + 1))


def upb_tiles_vectors() -> list[np.ndarray]:
    """The five orthonormal Tiles product vectors."""
    s = 1.0 / np.sqrt(2.0)
    e = [np.eye(3, dtype=complex)[i] for i in range(3)]
    uniform = e[0] + e[1] + e[2]
    return [
        np.kron(e[0], (e[0] - e[1]) * s),
        np.kron(e[2], (e[1] - e[2]) * s),
        np.kron((e[0] - e[1]) * s, e[2]),
        np.kron((e[1] - e[2]) * s, e[0]),
        np.kron(uniform, uniform) / 3.0,
    ]


def upb_tiles_state() -> DensityMatrix:
    """The two-qutrit bound entangled state from the Tiles unextendible product basis.

    The five tiles vectors are mutually orthonormal product states whose
    orthocomplement contains no product vector; the normalized projector
    onto that complement is entangled yet has positive partial transpose.
    """
    mat = np.eye(9, dtype=complex)
    for v in upb_tiles_vectors():
        mat -= np.outer(v, v.conj())
    return DensityMatrix((3, 3), mat / 4.0)


def real_limit_bell() -> DensityMatrix:
    """Limit of the algorithm on the Bell target when trial states are kept real.

    A valid separable state, but not the closest one: its squared distance
    to the Bell state is 3/8 instead of the true 1/3.
    """
    mat = np.array(
        [[3, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 3]],
        dtype=complex,
    ) / 8.0
    return DensityMatrix((2, 2), mat)


_FIXED_NAMES = {
    "bell": bell,
    "upb_tiles": upb_tiles_state,
    "real_limit_bell": real_limit_bell,
}

# name: (builder, D of its D x D matrix; ghz caps n at 64, which is already too large)
_PARAMETRIC_NAMES = {
    "max_entangled": (max_entangled, lambda d: d * d),
    "max_entangled_css": (css_max_entangled, lambda d: d * d),
    "ghz": (ghz, lambda n: 2 ** min(n, 64)),
    "ghz_css": (css_ghz, lambda n: 2 ** min(n, 64)),
}


def named_state(name: str) -> DensityMatrix:
    """Resolve a state name such as ``bell``, ``ghz:3`` or ``max_entangled_css:2``.

    Raises :class:`ParameterError` for an unknown name or a bad parameter, and, before
    building, for a complex D x D matrix numpy cannot index (16 D^2 bytes above intp's
    maximum): ``ghz:30`` and ``max_entangled:27555`` and above.
    """
    name = name.strip()
    if name in _FIXED_NAMES:
        return _FIXED_NAMES[name]()
    if ":" in name:
        head, _, arg = name.partition(":")
        if head in _PARAMETRIC_NAMES:
            try:
                value = int(arg)
            except ValueError:
                raise ParameterError(f"bad parameter {arg!r} in state name {name!r}") from None
            build, size = _PARAMETRIC_NAMES[head]
            if value >= 2 and 16 * size(value) ** 2 > np.iinfo(np.intp).max:
                raise ParameterError(f"state {name!r} is too large: numpy cannot index its matrix")
            return build(value)
    raise ParameterError(f"unknown state name {name!r}")
