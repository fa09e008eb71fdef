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


def build_phi1_table(profile: NuProfile, N: int,
                     require_admissible: bool = True) -> PacketObservable:
    """Enumerate the O(N^2) resonant triples and store the corrector ratios.

    For every triple and each sign pattern with tau1 = +1 the stored ratio is
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

    Six complex T-buffers hold the three leg gathers, Phi1's product, one
    leg product and the current coefficient column.  The gradient's
    scatter writes each leg product into a C-contiguous (rows, N) layout
    whose column b holds bin b's entries at its bottom, in triple order,
    under zero rows; an axis-0 add then sums every bin from +0.0 in triple
    order, which is `np.bincount`'s order.  Legs 1 and 2 have N - 1 entries
    in every bin and share one (N, N) layout; leg 3 has 2(k3 - 1) entries in
    bin k3 and uses a (2N - 1, N) one.  Only the entry positions are ever
    written, so the zero rows stay zero.
    """

    def __init__(self, packet: PacketObservable):
        n, t = packet.N, packet.n_triples
        # the writeable block under the table's read-only k1, k2, k3
        self.k = packet.k1.base
        # positions first, so their temporaries are freed before the buffers exist
        self.pos1, self.pos2, self.pos3 = (
            _scatter_positions(k, rows, n)
            for k, rows in ((packet.k1, n), (packet.k2, n), (packet.k3, 2 * n - 1)))
        # xi at 1..N, so the leg gathers index by k with no k - 1
        self.xi = np.zeros(n + 1, dtype=complex)
        self.x1, self.x2, self.x3, self.prod, self.leg, self.coeff = (
            np.empty(t, dtype=complex) for _ in range(6))
        self.square = np.zeros((n, n), dtype=complex)
        self.tall = np.zeros((2 * n - 1, n), dtype=complex)

    def scatter_sum(self, layout: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The leg buffer summed over equal bins, as a length-N vector."""
        layout.reshape(-1)[pos] = self.leg
        return np.add.reduce(layout, axis=0)


def _scatter_positions(k: np.ndarray, rows: int, n: int) -> np.ndarray:
    """Flat (rows, n) positions putting the entries of mode k[t] at the
    bottom of column k[t] - 1, in the order of t."""
    counts = np.bincount(k, minlength=n + 1)
    order = np.argsort(k, kind="stable")
    sorted_k = k[order]
    # the sorted entries of mode k fill rows rows - counts[k] .. rows - 1
    row = np.arange(k.size) + (rows - np.cumsum(counts))[sorted_k]
    pos = np.empty_like(k)
    pos[order] = row * n + sorted_k - 1
    return pos


def _corrector_pass(state: ChainState, packet: PacketObservable, gradient: bool):
    """(Phi0, Phi1, d0, d1) of one state, from one forward transform of p and
    q and one loop over the four stored sign patterns.

    Phi1 is summed directly over the stored triples.  The pattern -tau of
    stored pattern m has the conjugate monomial and the opposite coefficient,
    so its term is -conj(term_m), exactly; the eight terms are added in the
    order m = 0..3 and then the negated patterns from m = 3 down to 0, which
    gives the bits of the full 8-pattern sum, and the real part is Phi1.

    With gradient, d0 and d1 are the mode-space gradients of Phi0 and Phi1,
    each a (d/dq_hat, d/dp_hat) pair; without, they are None.
    """
    if state.n != packet.N:
        raise ValueError(f"state has N = {state.n}, packet built for N = {packet.N}")
    ms = spectral.to_modes(state)
    n = packet.N
    sc = packet._scratch
    x1, x2, x3, prod, leg, c = sc.x1, sc.x2, sc.x3, sc.prod, sc.leg, sc.coeff
    sc.xi[1:] = spectral.to_complex(ms)      # eta is its conjugate
    # mode="clip" writes straight into out; "raise" would buffer a copy
    for k, x in zip(sc.k, (x1, x2, x3)):
        np.take(sc.xi, k, out=x, mode="clip")
    terms = [0j] * 4
    # per stored pattern and leg: (row of d it lands on, vector); row 0 is
    # d/d_xi, row 1 d/d_eta
    adds = [()] * 4
    # x2 and x3 hold the legs of pattern m's signs: the patterns run in the
    # order 0, 1, 3, 2, so one exact in-place conjugation moves to the next
    for m, flip in ((0, None), (1, x3), (3, x2), (2, x3)):
        if flip is not None:
            np.conjugate(flip, out=flip)
        _, t2, t3 = TAU_PATTERNS[m]
        # the complex operand that `float column @ complex` casts to; the
        # 8-pattern loop's operands, one dot per pattern: another layout (a
        # batched matrix) may sum in another order
        np.copyto(c, packet.coeffs[:, m])
        np.multiply(x1, x2, out=prod)
        prod *= x3
        terms[m] = c @ prod
        if gradient:
            np.multiply(c, x2, out=leg)
            leg *= x3
            v1 = sc.scatter_sum(sc.square, sc.pos1)
            np.multiply(c, x1, out=prod)
            np.multiply(prod, x3, out=leg)
            v2 = sc.scatter_sum(sc.square, sc.pos2)
            np.multiply(prod, x2, out=leg)
            v3 = sc.scatter_sum(sc.tall, sc.pos3)
            adds[m] = ((0, v1), (int(t2 < 0), v2), (int(t3 < 0), v3))
    total = 0.0j
    for term in terms + [-np.conj(t) for t in reversed(terms)]:
        total += term
    v0 = float(_phi0(ms, packet.nu_k))
    v1 = float((1j * total / np.sqrt(n + 1)).real)
    if not gradient:
        return v0, v1, None, None
    # pattern -tau adds -conj(vector) of pattern tau to the other row; the
    # additions keep the order of the full 8-pattern loop
    d = np.zeros((2, n), dtype=complex)
    for legs in adds:
        for row, v in legs:
            d[row] += v
    for legs in reversed(adds):
        for row, v in legs:
            d[1 - row] -= np.conj(v)
    dxi, deta = d * (1j / np.sqrt(n + 1))
    # d/dp_hat = (d_xi + d_eta)/sqrt(2); d/dq_hat = i omega (d_xi - d_eta)/sqrt(2).
    # Both stay .real views: a strided row rounds differently from a
    # contiguous copy in the transform's matrix product
    d1 = ((1j * packet.omega * (dxi - deta) / np.sqrt(2.0)).real,
          ((dxi + deta) / np.sqrt(2.0)).real)
    d0 = packet.g_k * ms.omega**2 * ms.q_hat, packet.g_k * ms.p_hat
    return v0, v1, d0, d1


def phi1(state: ChainState, packet: PacketObservable) -> float:
    """The corrector Phi1 at one state, by direct summation over the stored
    triples (the corrector pass without its gradient)."""
    return _corrector_pass(state, packet, gradient=False)[1]


def phi_dot(state: ChainState, packet: PacketObservable, params: ChainParams
            ) -> tuple[float, float, float]:
    """(Phi0, Phi1, Phi-dot) of one state; Phi-dot = {Phi0 + Phi1, H} comes
    from analytic gradients.

    By the homological identity Phi-dot equals {Phi1, H1+H2} + {Phi0, H2}.
    """
    v0, v1, d0, d1 = _corrector_pass(state, packet, gradient=True)
    # mode gradients summed, then transformed: the particle-space gradient of Phi
    dq, dp = (spectral.sine_transform(a + b) for a, b in zip(d0, d1))
    r = bond_extensions(state.q)
    dh_dq = -np.diff(r * (1.0 + r * (1.0 + params.A * r)))
    # {Phi, H} = dPhi/dq . dH/dp - dPhi/dp . dH/dq, and dH/dp = p
    return v0, v1, float(dq @ state.p - dp @ dh_dq)


def homological_residual(state: ChainState, packet: PacketObservable) -> float:
    """|{H0, Phi1} + {H1, Phi0}| / (1 + |{H1, Phi0}|).

    The defining property of the corrector; vanishes to rounding when the
    table is consistent.  Needs no chain parameters: H0 and H1 are A-free,
    with gradients (d/dq, d/dp) = (-diff r, p) and (-diff r^2, 0).
    """
    _, _, d0, d1 = _corrector_pass(state, packet, gradient=True)
    dq1, dp1 = map(spectral.sine_transform, d1)
    dp0 = spectral.sine_transform(d0[1])
    r = bond_extensions(state.q)
    b1 = float(-np.diff(r) @ dp1 - state.p @ dq1)
    b2 = float(-np.diff(r * r) @ dp0)
    return abs(b1 + b2) / (1.0 + abs(b2))


def ps_observable(kind: str, profile: NuProfile, N: int,
                  table: PacketObservable | None = None
                  ) -> tuple[Callable[[ChainState], float], int, float]:
    """(observable, s, plus_norm) for H1, Phi0 or Phi1 at chain size N.

    s is the monomial degree, plus_norm the max modulus of the coefficient
    function over the momentum-conserving index set.  H1 ignores the profile.
    The Phi1 observable is `functools.partial(phi1, packet=table)`, so its
    corrector table is `observable.keywords["packet"]`; it is `table` when
    one is given (the caller's table of this profile at N), else built here.
    """
    if kind == "H1":
        return cubic_energy, 3, 0.25
    if kind == "Phi0":
        g_k, nu_k, _ = mode_weights(profile, N)
        return lambda state: phi0(state, nu_k), 2, float(np.abs(g_k).max())
    if kind == "Phi1":
        packet = build_phi1_table(profile, N) if table is None else table
        if packet.N != N:
            raise ValueError(f"table is for N={packet.N}, not N={N}")
        return partial(phi1, packet=packet), 3, float(np.abs(packet.coeffs).max())
    raise ValueError(f"unknown test-function kind {kind!r}")
