"""Normal-mode coordinates of the fixed-end chain.

The mode transform is the orthogonal sine matrix
T_{jk} = sqrt(2/(N+1)) sin(pi j k / (N+1)), which is symmetric and involutive,
so the same operation maps particle -> mode and mode -> particle.  Frequencies
are omega_k = 2 sin(pi k / (2(N+1))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainState

_MATRIX_CACHE: dict[int, np.ndarray] = {}


def frequencies(N: int) -> np.ndarray:
    """omega_k = 2 sin(pi k / (2(N+1))), k = 1..N; strictly increasing, in (0, 2)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    k = np.arange(1, N + 1)
    return 2.0 * np.sin(np.pi * k / (2.0 * (N + 1)))


def _transform_matrix(n: int) -> np.ndarray:
    m = _MATRIX_CACHE.get(n)
    if m is None:
        jk = np.arange(1, n + 1)
        m = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(jk, jk) / (n + 1))
        m.setflags(write=False)
        _MATRIX_CACHE[n] = m
    return m


def sine_transform(v: np.ndarray) -> np.ndarray:
    """Apply the orthogonal sine transform (its own inverse) along the last
    axis, as the explicit O(N^2) matrix product.  Each row is a stacked
    (1, N) @ (N, N) product, which keeps the bits of the 1-d `row @ M` for
    contiguous rows (a strided row, such as the `.real` view of a complex
    array, may round otherwise); a plain (B, N) @ (N, N) product sums in
    another order."""
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    if n < 1:
        raise ValueError("empty vector")
    return (v[..., None, :] @ _transform_matrix(n))[..., 0, :]


@dataclass
class SpectralState:
    """Mode momenta/displacements with the matching frequency vector."""

    p_hat: np.ndarray
    q_hat: np.ndarray
    omega: np.ndarray


def to_modes(state: ChainState) -> SpectralState:
    return SpectralState(
        p_hat=sine_transform(state.p),
        q_hat=sine_transform(state.q),
        omega=frequencies(state.n),
    )


def actions(ms: SpectralState) -> np.ndarray:
    """I_k = (p_hat_k^2 + omega_k^2 q_hat_k^2) / (2 omega_k); all >= 0."""
    return (ms.p_hat**2 + (ms.omega * ms.q_hat) ** 2) / (2.0 * ms.omega)


def to_complex(ms: SpectralState) -> np.ndarray:
    """xi_k = (p_hat_k + i omega_k q_hat_k) / sqrt(2); eta is its conjugate."""
    return (ms.p_hat + 1j * ms.omega * ms.q_hat) / np.sqrt(2.0)
