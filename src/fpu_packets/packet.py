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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import spectral
from .chain import ChainParams, ChainState, bond_extensions
from .profiles import NuProfile

# all 8 sign patterns, fixed order; conjugation symmetry maps row t to row 7-t,
# and rows 0..3 are the patterns with tau1 = +1
TAU_PATTERNS = np.array([[t1, t2, t3]
                         for t1 in (1, -1) for t2 in (1, -1) for t3 in (1, -1)])
_TAU_PROD = TAU_PATTERNS.prod(axis=1).astype(float)          # tau1*tau2*tau3
_WRAP_SIGN = -1.0
_CUBIC_PREFACTOR = 1.0 / 12.0


class PacketError(RuntimeError):
    pass


@dataclass(frozen=True)
class ResonantTriple:
    """One resonant index triple; kind 'sum' means k1+k2-k3 = 0 (weight 3),
    'wrap' means k1+k2+k3 = 2(N+1) (weight 1)."""

    k1: int
    k2: int
    k3: int
    kind: str
    weight: int


@dataclass(frozen=True)
class PacketObservable:
    """Tabulated profile weights plus the corrector coefficient table.

    coeffs[t, m] is the real coefficient multiplying the monomial with sign
    pattern TAU_PATTERNS[m] on triple t, such that
    Phi1 = Re[(i / sqrt(N+1)) * sum_{t,m} coeffs[t,m] * Xi^3].
    Immutable after construction and safe to share across workers.

    paired says whether coeffs[:, 7-m] == -coeffs[:, m] holds bit for bit
    (tau -> -tau flips the signs of tau.nu, tau.omega and tau1*tau2*tau3).
    phi1 and its gradient sum patterns 0..3 only and refuse an unpaired table.
    """

    N: int
    profile: NuProfile = field(compare=False)
    nu_k: np.ndarray
    g_k: np.ndarray
    omega: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    weight: np.ndarray
    wrap: np.ndarray
    ratios: np.ndarray
    coeffs: np.ndarray
    min_denominator: float
    paired: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "paired",
                           bool(np.array_equal(self.coeffs[:, ::-1], -self.coeffs)))

    @property
    def n_triples(self) -> int:
        return self.k1.size

    def triples(self) -> list[ResonantTriple]:
        return [ResonantTriple(int(a), int(b), int(c),
                               "wrap" if w else "sum", 1 if w else 3)
                for a, b, c, w in zip(self.k1, self.k2, self.k3, self.wrap)]


def build_phi1_table(profile: NuProfile, N: int,
                     require_admissible: bool = True) -> PacketObservable:
    """Enumerate the O(N^2) resonant triples and store the corrector ratios.

    For every triple and every sign pattern the stored ratio is
    (tau.nu)/(tau.omega).  Denominators are strictly nonzero at finite N (the
    smallest ones scale like (N+1)^-3); the minimum seen is recorded rather
    than thresholded.
    """
    if require_admissible and not profile.admissible:
        raise ValueError(
            f"profile {profile.kind!r} has g'(0) = {profile.g_prime_at_zero:.3e}; "
            "pass require_admissible=False to build anyway")
    if N < 3:
        raise ValueError("N must be >= 3")
    omega = spectral.frequencies(N)
    x = np.arange(1, N + 1) / (N + 1)
    g_k = profile.g(x)
    nu_k = g_k * omega

    ka = np.arange(1, N + 1)
    k1g, k2g = np.meshgrid(ka, ka, indexing="ij")
    k1g = k1g.ravel()
    k2g = k2g.ravel()
    s = k1g + k2g
    sum_mask = s <= N
    wrap_mask = s >= N + 2

    k1 = np.concatenate([k1g[sum_mask], k1g[wrap_mask]])
    k2 = np.concatenate([k2g[sum_mask], k2g[wrap_mask]])
    k3 = np.concatenate([s[sum_mask], 2 * (N + 1) - s[wrap_mask]])
    wrap = np.concatenate([np.zeros(sum_mask.sum(), dtype=bool),
                           np.ones(wrap_mask.sum(), dtype=bool)])
    weight = np.where(wrap, 1, 3)

    om3 = np.stack([omega[k1 - 1], omega[k2 - 1], omega[k3 - 1]], axis=1)
    nu3 = np.stack([nu_k[k1 - 1], nu_k[k2 - 1], nu_k[k3 - 1]], axis=1)
    den = om3 @ TAU_PATTERNS.T
    num = nu3 @ TAU_PATTERNS.T
    min_den = float(np.abs(den).min()) if den.size else np.inf
    if min_den < 1e-300:
        raise PacketError(f"denominator underflow: min |tau.omega| = {min_den:g}")
    ratios = num / den
    signed_w = np.where(wrap, _WRAP_SIGN, 3.0)
    coeffs = _CUBIC_PREFACTOR * ratios * signed_w[:, None] * _TAU_PROD[None, :]
    for a in (nu_k, g_k, omega, k1, k2, k3, weight, wrap, ratios, coeffs):
        a.setflags(write=False)
    return PacketObservable(N=N, profile=profile, nu_k=nu_k, g_k=g_k, omega=omega,
                            k1=k1, k2=k2, k3=k3, weight=weight, wrap=wrap,
                            ratios=ratios, coeffs=coeffs, min_denominator=min_den)


def _check_size(state: ChainState, packet: PacketObservable) -> None:
    if state.n != packet.N:
        raise ValueError(f"state has N = {state.n}, packet built for N = {packet.N}")


def phi0(state: ChainState, packet: PacketObservable) -> float:
    """sum_k nu_k I_k; nonnegative whenever nu >= 0."""
    _check_size(state, packet)
    return float(packet.nu_k @ spectral.actions(state))


def _legs(state: ChainState, packet: PacketObservable):
    """xi at the three legs of every triple; eta there is the conjugate."""
    if not packet.paired:
        raise PacketError("corrector table breaks the conjugate pairing "
                          "coeffs[:, 7-m] == -coeffs[:, m]")
    xi = spectral.to_complex(state)
    return xi[packet.k1 - 1], xi[packet.k2 - 1], xi[packet.k3 - 1]


def phi1(state: ChainState, packet: PacketObservable) -> float:
    """Evaluate the corrector by direct summation over the stored triples.

    Pattern 7-m has the conjugate monomial and the opposite coefficient of
    pattern m, so its term is -conj(term_m), exactly.  Only patterns 0..3 are
    summed; the eight terms are added in pattern order, which gives the bits
    of the full 8-pattern sum, and the real part is Phi1.  A table without
    that pairing raises PacketError.
    """
    _check_size(state, packet)
    x1, x2, x3 = _legs(state, packet)
    y2, y3 = np.conj(x2), np.conj(x3)
    terms = []
    for m in range(4):
        _, t2, t3 = TAU_PATTERNS[m]
        f = x1 * (x2 if t2 > 0 else y2) * (x3 if t3 > 0 else y3)
        # the 8-pattern loop's operands, one dot per pattern: another layout
        # (a complex copy, a batched matrix) may sum in another order
        terms.append(packet.coeffs[:, m] @ f)
    total = 0.0j
    for term in terms + [-np.conj(t) for t in reversed(terms)]:
        total += term
    val = 1j * total / np.sqrt(packet.N + 1)
    return float(val.real)


@dataclass
class PhaseGradient:
    """Gradient of a phase-space function in particle coordinates."""

    dq: np.ndarray
    dp: np.ndarray


def poisson_bracket(grad_f: PhaseGradient, grad_g: PhaseGradient) -> float:
    """Canonical bracket sum_j (df/dq_j dg/dp_j - df/dp_j dg/dq_j)."""
    if grad_f.dq.shape != grad_g.dq.shape:
        raise ValueError("gradient dimension mismatch")
    return float(grad_f.dq @ grad_g.dp - grad_f.dp @ grad_g.dq)


def _binned(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """sum of vals over equal idx, as a length-n vector."""
    return (np.bincount(idx, weights=vals.real, minlength=n)
            + 1j * np.bincount(idx, weights=vals.imag, minlength=n))


def _grad_phi0_modes(state: ChainState, packet: PacketObservable):
    ms = spectral.to_modes(state)
    return packet.g_k * ms.omega**2 * ms.q_hat, packet.g_k * ms.p_hat


def _grad_phi1_modes(state: ChainState, packet: PacketObservable):
    x1, x2, x3 = _legs(state, packet)
    y2, y3 = np.conj(x2), np.conj(x3)
    i1 = packet.k1 - 1
    i2 = packet.k2 - 1
    i3 = packet.k3 - 1
    n = packet.N
    # per pattern 0..3 and leg: (row of d it lands on, vector); row 0 is
    # d/d_xi, row 1 d/d_eta
    adds = []
    for m in range(4):
        _, t2, t3 = TAU_PATTERNS[m]
        f2 = x2 if t2 > 0 else y2
        f3 = x3 if t3 > 0 else y3
        c = packet.coeffs[:, m]
        adds.append(((0, _binned(i1, c * f2 * f3, n)),
                     (int(t2 < 0), _binned(i2, c * x1 * f3, n)),
                     (int(t3 < 0), _binned(i3, c * x1 * f2, n))))
    # pattern 7-m adds -conj(vector) of pattern m to the other row; the
    # additions keep the order m = 0..7 of the full 8-pattern loop
    d = np.zeros((2, n), dtype=complex)
    for legs in adds:
        for row, v in legs:
            d[row] += v
    for legs in reversed(adds):
        for row, v in legs:
            d[1 - row] -= np.conj(v)
    dxi, deta = d * (1j / np.sqrt(packet.N + 1))
    # d/dp_hat = (d_xi + d_eta)/sqrt(2); d/dq_hat = i omega (d_xi - d_eta)/sqrt(2)
    dqh = (1j * packet.omega * (dxi - deta) / np.sqrt(2.0)).real
    dph = ((dxi + deta) / np.sqrt(2.0)).real
    return dqh, dph


def grad_phi(state: ChainState, packet: PacketObservable,
             which: str = "phi") -> PhaseGradient:
    """Analytic gradient of Phi0, Phi1 or Phi = Phi0 + Phi1 in particle
    coordinates (chain rule through the orthogonal transform)."""
    _check_size(state, packet)
    if which == "phi0":
        dqh, dph = _grad_phi0_modes(state, packet)
    elif which == "phi1":
        dqh, dph = _grad_phi1_modes(state, packet)
    elif which == "phi":
        dqh0, dph0 = _grad_phi0_modes(state, packet)
        dqh1, dph1 = _grad_phi1_modes(state, packet)
        dqh, dph = dqh0 + dqh1, dph0 + dph1
    else:
        raise ValueError(f"which must be 'phi0', 'phi1' or 'phi', got {which!r}")
    return PhaseGradient(dq=spectral.sine_transform(dqh),
                         dp=spectral.sine_transform(dph))


def grad_hamiltonian(state: ChainState, params: ChainParams,
                     parts: str = "all") -> PhaseGradient:
    """Gradient of a selected part of H.

    parts: 'all', 'h0', 'h1', 'h2' or 'h12' (cubic plus quartic).  Momentum
    derivatives appear only when the kinetic part (h0) is included.
    """
    r = bond_extensions(state.q)
    A = params.A
    if parts == "all":
        w = r * (1.0 + r * (1.0 + A * r))
    elif parts == "h0":
        w = r
    elif parts == "h1":
        w = r * r
    elif parts == "h2":
        w = A * r**3
    elif parts == "h12":
        w = r * r * (1.0 + A * r)
    else:
        raise ValueError(f"unknown parts {parts!r}")
    dq = -np.diff(w)
    dp = state.p if parts in ("all", "h0") else np.zeros_like(state.p)
    return PhaseGradient(dq=dq, dp=dp)


def phi_dot(state: ChainState, packet: PacketObservable, params: ChainParams,
            harmonic_only: bool = False) -> float:
    """Time derivative {Phi, H} from analytic gradients.

    By the homological identity this equals {Phi1, H1+H2} + {Phi0, H2}; with
    harmonic_only it degenerates to {Phi0, H0} = 0.
    """
    if harmonic_only:
        return poisson_bracket(grad_phi(state, packet, "phi0"),
                               grad_hamiltonian(state, params, "h0"))
    return poisson_bracket(grad_phi(state, packet, "phi"),
                           grad_hamiltonian(state, params, "all"))


def phi_dot_split(state: ChainState, packet: PacketObservable,
                  params: ChainParams) -> float:
    """{Phi1, H1+H2} + {Phi0, H2}: the reduced form of Phi-dot."""
    b1 = poisson_bracket(grad_phi(state, packet, "phi1"),
                         grad_hamiltonian(state, params, "h12"))
    b2 = poisson_bracket(grad_phi(state, packet, "phi0"),
                         grad_hamiltonian(state, params, "h2"))
    return b1 + b2


def homological_residual(state: ChainState, packet: PacketObservable) -> float:
    """|{H0, Phi1} + {H1, Phi0}| / (1 + |{H1, Phi0}|).

    The defining property of the corrector; vanishes to rounding when the
    table is consistent.  Needs no chain parameters: H0 and H1 are A-free.
    """
    _check_size(state, packet)
    params = ChainParams(N=packet.N, A=1.0, beta=1.0)  # A unused by h0/h1
    b1 = poisson_bracket(grad_hamiltonian(state, params, "h0"),
                         grad_phi(state, packet, "phi1"))
    b2 = poisson_bracket(grad_hamiltonian(state, params, "h1"),
                         grad_phi(state, packet, "phi0"))
    return abs(b1 + b2) / (1.0 + abs(b2))


@dataclass
class PsTestFunction:
    """An observable tagged with its polynomial class data.

    s is the monomial degree, plus_norm the max modulus of the coefficient
    function over the momentum-conserving index set.  for_size rebuilds the
    same observable at another chain size, which is what variance scans need.
    """

    kind: str
    s: int
    plus_norm: float
    description: str
    profile: NuProfile | None
    N: int
    _observable: Callable[[ChainState], float]

    def observable(self, state: ChainState) -> float:
        return self._observable(state)

    def for_size(self, N: int) -> "PsTestFunction":
        return make_ps_test(self.kind, self.profile, N)


def make_ps_test(kind: str, profile: NuProfile | None, N: int) -> PsTestFunction:
    """Wrap H1, Phi0 or Phi1 with its degree and coefficient norm."""
    if kind == "H1":
        from .chain import cubic_energy

        return PsTestFunction("H1", 3, 0.25, "cubic interaction energy",
                              None, N, cubic_energy)
    if profile is None:
        raise ValueError(f"kind {kind!r} needs a profile")
    if kind == "Phi0":
        omega = spectral.frequencies(N)
        x = np.arange(1, N + 1) / (N + 1)
        nu_k = profile.g(x) * omega
        norm = float(np.abs(profile.g(x)).max())

        def obs(state: ChainState) -> float:
            return float(nu_k @ spectral.actions(state))

        return PsTestFunction("Phi0", 2, norm, "packet energy", profile, N, obs)
    if kind == "Phi1":
        packet = build_phi1_table(profile, N)
        norm = float(np.abs(packet.coeffs).max())

        def obs(state: ChainState) -> float:
            return phi1(state, packet)

        return PsTestFunction("Phi1", 3, norm, "cubic corrector", profile, N, obs)
    raise ValueError(f"unknown test-function kind {kind!r}")


def bracket_norm_check(profile: NuProfile, N: int) -> tuple[float, float]:
    """Plus-norm of the {Phi0, H1} coefficient table against the product bound.

    {Phi0, .} multiplies each cubic monomial coefficient by -i (tau.nu), so
    the bracket's table is explicit.  Returns (norm, 2^4 max(s,r) |f|+ |g|+).
    """
    packet = build_phi1_table(profile, N)
    nu3 = np.stack([packet.nu_k[packet.k1 - 1],
                    packet.nu_k[packet.k2 - 1],
                    packet.nu_k[packet.k3 - 1]], axis=1)
    tau_nu = nu3 @ TAU_PATTERNS.T
    h1_coeffs = (_CUBIC_PREFACTOR * np.where(packet.wrap, _WRAP_SIGN, 3.0)[:, None]
                 * _TAU_PROD[None, :])
    bracket_norm = float(np.abs(h1_coeffs * tau_nu).max())
    f_norm = float(np.abs(packet.g_k).max())      # Phi0 in P_2
    g_norm = float(np.abs(h1_coeffs).max())       # H1 in P_3
    bound = 2.0**4 * max(2, 3) * f_norm * g_norm
    return bracket_norm, bound
