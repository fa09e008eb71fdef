"""Packet observables and the cubic corrector.

Phi0 = sum_k nu_k I_k is the candidate adiabatic invariant.  Its corrector
Phi1 is the cubic polynomial solving {H0, Phi1} = -{H1, Phi0}; in complex mode
coordinates every cubic monomial is an eigenvector of {H0, .} and of
{Phi0, .}, so the corrector's coefficients are the cubic-energy coefficients
multiplied by the ratio (tau.nu)/(tau.omega) on the resonant index set.

The index set is the two families of triples selected by translation
invariance: k1 + k2 = k3 ("sum") and k1 + k2 + k3 = 2(N+1) ("wrap").  With the
orthogonal sine convention used here the cubic energy expands as

    H1 = (i/12) (N+1)^(-1/2) * sum over ordered (k1, k2) pairs of
         w * prod_i (xi_{k_i} - eta_{k_i}),   w = +3 (sum), -1 (wrap),

an identity checked to machine precision by the tests; the corrector inherits
the same prefactors, which is what makes the homological residual vanish.

The table stores the four sign patterns tau with tau1 = +1; -tau has the same
ratio, the conjugate monomial and the opposite coefficient.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import spectral
from .chain import ChainParams, ChainState, bond_extensions, cubic_energy
from .profiles import NuProfile

# the 4 sign patterns with tau1 = +1, fixed order; pattern -tau conjugates
# the monomial of pattern tau and negates its coefficient
TAU_PATTERNS = np.array([[1, t2, t3] for t2 in (1, -1) for t3 in (1, -1)])
_TAU_PROD = TAU_PATTERNS.prod(axis=1).astype(float)          # tau1*tau2*tau3
_WRAP_SIGN = -1.0
_CUBIC_PREFACTOR = 1.0 / 12.0


class PacketError(RuntimeError):
    pass


@dataclass(frozen=True)
class PacketObservable:
    """Tabulated profile weights plus the corrector coefficient table.

    coeffs[t, m] is the real coefficient multiplying the monomial Xi^3 with
    sign pattern TAU_PATTERNS[m] (tau1 = +1) on triple t, a wrap triple when
    k1 + k2 > N.  Pattern -tau has the monomial conj(Xi^3) and coefficient
    -coeffs[t, m] (tau -> -tau flips tau.nu, tau.omega and tau1*tau2*tau3), so
    Phi1 = Re[(i / sqrt(N+1)) * sum_{t,m} coeffs[t,m] * (Xi^3 - conj(Xi^3))].
    The table is immutable after construction.  Its first corrector pass
    also attaches work buffers (a few T-sized arrays, T = n_triples) that
    every later pass on the table reuses and that are freed with it; so a
    table serves one process and one thread at a time.
    """

    N: int
    nu_k: np.ndarray
    g_k: np.ndarray
    omega: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    coeffs: np.ndarray
    min_denominator: float

    @property
    def n_triples(self) -> int:
        return self.k1.size

    @cached_property
    def _scratch(self) -> _CorrectorScratch:
        return _CorrectorScratch(self)


def mode_weights(profile: NuProfile, N: int) -> tuple[np.ndarray, ...]:
    """(g_k, nu_k = g_k omega_k, omega_k) at the mode numbers k = 1..N."""
    omega = spectral.frequencies(N)
    g_k = profile.g(np.arange(1, N + 1) / (N + 1))
    return g_k, g_k * omega, omega


def build_phi1_table(profile: NuProfile, N: int) -> PacketObservable:
    """Enumerate the O(N^2) resonant triples and store the corrector ratios.

    For every triple and each sign pattern with tau1 = +1 the stored ratio is
    (tau.nu)/(tau.omega).  Denominators are strictly nonzero at finite N (the
    smallest ones scale like (N+1)^-3); the minimum seen is recorded rather
    than thresholded.  Any profile builds; config validation refuses one
    with g'(0) != 0 wherever a table is built.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    g_k, nu_k, omega = mode_weights(profile, N)

    ka = np.arange(1, N + 1)
    k1g, k2g = (a.ravel() for a in np.meshgrid(ka, ka, indexing="ij"))
    s = k1g + k2g
    sum_mask, wrap_mask = s <= N, s >= N + 2

    # k1, k2, k3 are read-only rows of one writeable block, which the
    # corrector's gathers read: np.take copies a read-only index array
    k1, k2, k3 = np.empty((3, N * N - N), dtype=ka.dtype)
    np.concatenate([k1g[sum_mask], k1g[wrap_mask]], out=k1)
    np.concatenate([k2g[sum_mask], k2g[wrap_mask]], out=k2)
    np.concatenate([s[sum_mask], 2 * (N + 1) - s[wrap_mask]], out=k3)

    om3 = np.stack([omega[k1 - 1], omega[k2 - 1], omega[k3 - 1]], axis=1)
    nu3 = np.stack([nu_k[k1 - 1], nu_k[k2 - 1], nu_k[k3 - 1]], axis=1)
    den = om3 @ TAU_PATTERNS.T
    num = nu3 @ TAU_PATTERNS.T
    min_den = float(np.abs(den).min()) if den.size else np.inf
    if min_den < 1e-300:
        raise PacketError(f"denominator underflow: min |tau.omega| = {min_den:g}")
    signed_w = np.where(k1 + k2 > N, _WRAP_SIGN, 3.0)
    # column-major, since the corrector pass reads one pattern's column at a
    # time; built in place, which keeps the build's peak memory down
    coeffs = np.empty(den.shape, order="F")
    np.divide(num, den, out=coeffs)
    coeffs *= _CUBIC_PREFACTOR
    coeffs *= signed_w[:, None]
    coeffs *= _TAU_PROD[None, :]
    for a in (nu_k, g_k, omega, k1, k2, k3, coeffs):
        a.setflags(write=False)
    return PacketObservable(N=N, nu_k=nu_k, g_k=g_k, omega=omega, k1=k1, k2=k2, k3=k3,
                            coeffs=coeffs, min_denominator=min_den)


def _phi0(ms: spectral.SpectralState, nu_k: np.ndarray) -> np.ndarray:
    """sum_k nu_k I_k of transformed states: () for one state, (B,) for B."""
    # a stacked dot per row rounds like nu_k @ actions; actions @ nu_k does not
    return (spectral.actions(ms)[..., None, :] @ nu_k[:, None])[..., 0, 0]


def phi0(state: ChainState, nu_k: np.ndarray) -> float | np.ndarray:
    """sum_k nu_k I_k for the packet weights nu_k (`mode_weights`); nonnegative
    whenever nu >= 0.  A float for one state, a (B,) array for (B, N) states."""
    if state.n != nu_k.size:
        raise ValueError(f"state has N = {state.n}, weights given for N = {nu_k.size}")
    val = _phi0(spectral.to_modes(state), nu_k)
    return float(val) if val.ndim == 0 else val


class _CorrectorScratch:
    """Work buffers of the corrector pass, sized for one table and reused by
    every pass on it, so a pass allocates no array of the triple count T.

    Ten complex T-buffers hold the three leg gathers x of xi and the three d
    of the direction, the product of legs 1 and 2 and its tangent, Phi1's
    product and the current coefficient column.
    """

    def __init__(self, packet: PacketObservable):
        n, t = packet.N, packet.n_triples
        # the writeable block under the table's read-only k1, k2, k3
        self.k = packet.k1.base
        # xi and the direction at 1..N, so the leg gathers index by k with no k - 1
        self.xi, self.dxi = np.zeros((2, n + 1), dtype=complex)
        self.x, self.d = (tuple(np.empty(t, dtype=complex) for _ in range(3))
                          for _ in range(2))
        self.p12, self.dp12, self.prod, self.coeff = (
            np.empty(t, dtype=complex) for _ in range(4))


def _corrector_pass(ms: spectral.SpectralState, packet: PacketObservable,
                    direction: np.ndarray | None = None):
    """(Phi0, Phi1, dPhi1) of one transformed state, from one loop over the
    four stored sign patterns.

    Phi1 is summed directly over the stored triples.  The pattern -tau of
    stored pattern m has the conjugate monomial and the opposite coefficient,
    so its term is -conj(term_m), exactly; the eight terms are added in the
    order m = 0..3 and then the negated patterns from m = 3 down to 0, which
    gives the bits of the full 8-pattern sum, and the real part is Phi1.

    `direction` is a tangent (dq_hat, dp_hat) as the complex mode vector
    dxi = (dp_hat + i omega dq_hat) / sqrt(2); eta's legs move by conj(dxi).
    dPhi1 is Phi1's derivative along it, in forward mode: the product rule
    over each monomial's legs, d(x1 x2 x3) = (d1 x2 + x1 d2) x3 + x1 x2 d3.
    The conjugate half makes the sum 2i Im(S) over the stored half S, so
    Phi1 = -2 Im(S) / sqrt(N+1) and each pattern's tangent dot reads only the
    imaginary part.  Without a direction, dPhi1 is None.
    """
    if ms.p_hat.shape != (packet.N,):
        raise ValueError(f"state has shape {ms.p_hat.shape}, packet built for N = {packet.N}")
    sc = packet._scratch
    x, d, p12, dp12, prod, c = sc.x, sc.d, sc.p12, sc.dp12, sc.prod, sc.coeff
    tangent = direction is not None
    sc.xi[1:] = spectral.to_complex(ms)      # eta is its conjugate
    gathers = [(sc.xi, x)]
    if tangent:
        sc.dxi[1:] = direction
        gathers.append((sc.dxi, d))
    # mode="clip" writes straight into out; "raise" would buffer a copy
    for source, legs in gathers:
        for k, leg in zip(sc.k, legs):
            np.take(source, k, out=leg, mode="clip")
    terms = [0j] * 4
    slope = 0.0
    # legs 2 and 3 hold pattern m's signs: the patterns run in the order
    # 0, 1, 3, 2, so one exact in-place conjugation of a leg moves to the
    # next.  Patterns 0, 1 and then 3, 2 share leg 2's sign, so each pair
    # forms x1 x2 and its tangent once
    for m, flip in ((0, None), (1, 2), (3, 1), (2, 2)):
        if flip is not None:
            np.conjugate(x[flip], out=x[flip])
            if tangent:
                np.conjugate(d[flip], out=d[flip])
        if flip != 2:       # the first pattern of a pair
            np.multiply(x[0], x[1], out=p12)
            if tangent:
                np.multiply(d[0], x[1], out=dp12)
                np.multiply(x[0], d[1], out=prod)
                dp12 += prod
        # the complex operand that `float column @ complex` casts to; the
        # 8-pattern loop's operands, one dot per pattern: another layout (a
        # batched matrix) may sum in another order
        np.copyto(c, packet.coeffs[:, m])
        np.multiply(p12, x[2], out=prod)
        terms[m] = c @ prod
        if tangent:
            np.multiply(dp12, x[2], out=prod)
            np.multiply(p12, d[2], out=c)
            prod += c
            # a real dot on the strided .imag view, which copies nothing
            slope += packet.coeffs[:, m] @ prod.imag
    total = 0.0j
    for term in terms + [-np.conj(t) for t in reversed(terms)]:
        total += term
    root = np.sqrt(packet.N + 1)
    v0 = float(_phi0(ms, packet.nu_k))
    v1 = float((1j * total / root).real)
    return v0, v1, float(-2.0 * slope / root) if tangent else None


def _phi0_slope(ms: spectral.SpectralState, g_k: np.ndarray, force_hat: np.ndarray) -> float:
    """Phi0's derivative along the kick (dq_hat, dp_hat) = (0, force_hat), in
    closed form: Phi0 = sum_k g_k (p_hat_k^2 + omega_k^2 q_hat_k^2) / 2.  The
    harmonic flow (p_hat, -omega^2 q_hat) conserves Phi0, so this is also the
    slope along that flow plus the kick; the two opposite sums of {Phi0, H0}
    are never formed."""
    return float(g_k @ (ms.p_hat * force_hat))


def phi1(state: ChainState, packet: PacketObservable) -> float:
    """The corrector Phi1 at one state, by direct summation over the stored
    triples (the corrector pass without a direction)."""
    return _corrector_pass(spectral.to_modes(state), packet)[1]


def phi_dot(state: ChainState, packet: PacketObservable, params: ChainParams
            ) -> tuple[float, float, float]:
    """(Phi0, Phi1, Phi-dot) of one state; Phi-dot = {Phi0 + Phi1, H} is the
    derivative of Phi0 + Phi1 along the Hamiltonian vector field
    X_H = (p, -dH/dq), whose mode components are dq_hat = p_hat and the
    transformed force dp_hat.

    The force splits into its harmonic part, -omega^2 q_hat exactly, and the
    transformed anharmonic force f_hat = T(diff(r^2 + A r^3)), so dp_hat =
    f_hat - omega^2 q_hat and Phi0's slope is sum g p_hat f_hat.  By the
    homological identity Phi-dot equals {Phi1, H1+H2} + {Phi0, H2}.
    """
    ms = spectral.to_modes(state)
    r = bond_extensions(state.q)
    f_hat = spectral.sine_transform(np.diff(r * r * (1.0 + params.A * r)))
    dxi = (f_hat - ms.omega**2 * ms.q_hat + 1j * ms.omega * ms.p_hat) / np.sqrt(2.0)
    v0, v1, slope1 = _corrector_pass(ms, packet, dxi)
    return v0, v1, _phi0_slope(ms, packet.g_k, f_hat) + slope1


def homological_residual(state: ChainState, packet: PacketObservable) -> float:
    """|{H0, Phi1} + {H1, Phi0}| / (1 + |{H1, Phi0}|).

    The defining property of the corrector; vanishes to rounding when the
    table is consistent.  {H0, Phi1} is minus Phi1's derivative along the
    harmonic flow, dxi = i omega xi, and {H1, Phi0} is Phi0's derivative
    along -X_H1 = (0, dH1/dq), dH1/dq = -diff r^2.  Needs no chain
    parameters: H0 and H1 are A-free.
    """
    ms = spectral.to_modes(state)
    _, _, slope1 = _corrector_pass(ms, packet, 1j * ms.omega * spectral.to_complex(ms))
    r = bond_extensions(state.q)
    b2 = _phi0_slope(ms, packet.g_k, spectral.sine_transform(-np.diff(r * r)))
    return abs(b2 - slope1) / (1.0 + abs(b2))


def ps_observable(kind: str, profile: NuProfile, N: int,
                  table: PacketObservable | None = None
                  ) -> tuple[Callable[[ChainState], float], int, float]:
    """(observable, s, plus_norm) for H1, Phi0 or Phi1 at chain size N.

    s is the monomial degree, plus_norm the max modulus of the coefficient
    function over the momentum-conserving index set.  H1 ignores the profile.
    Phi1 needs `table`, the caller's corrector table of this profile at N,
    and its observable is `functools.partial(phi1, packet=table)`.
    """
    if kind == "H1":
        return cubic_energy, 3, 0.25
    if kind == "Phi0":
        g_k, nu_k, _ = mode_weights(profile, N)
        return lambda state: phi0(state, nu_k), 2, float(np.abs(g_k).max())
    if kind == "Phi1":
        if table is None or table.N != N:
            raise ValueError(f"Phi1 needs the profile's corrector table at N={N}")
        return partial(phi1, packet=table), 3, float(np.abs(table.coeffs).max())
    raise ValueError(f"unknown test-function kind {kind!r}")
