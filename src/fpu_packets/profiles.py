"""Packet weight functions nu on [0,1] and the functional h1 built from them.

A profile is specified through g = nu/omega, restricted to a registered
parametric family so that c0 = g(0), c2 = sup|g''| and g'(0) are known in
closed form.  A profile is admissible when g'(0) = 0; that is the condition
under which the sign-combination functional h1 stays bounded, and it is
exactly what keeps the small denominators of the cubic corrector under
control.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def omega_of(x):
    """Dispersion relation omega(x) = 2 sin(pi x / 2) on [0, 1]."""
    return 2.0 * np.sin(0.5 * np.pi * np.asarray(x, dtype=float))


def z_fold(x, y):
    """x + y folded back into [0, 1]: x+y if x+y <= 1, else 2-x-y."""
    return _fold(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))


def _fold(s):
    """A computed sum s = x + y folded as z_fold folds it."""
    return np.where(s <= 1.0, s, 2.0 - s)


@dataclass(frozen=True)
class NuProfile:
    """A member of the registered profile family: g = nu/omega with its
    closed-form c0 = g(0), c2 = sup|g''| and dg0 = g'(0)."""

    kind: str
    c0: float
    c2: float
    dg0: float
    _g: Callable = field(repr=False, compare=False)

    def g(self, x):
        return self._g(np.asarray(x, dtype=float))

    def nu(self, x):
        return self.g(x) * omega_of(x)

    @property
    def admissible(self) -> bool:
        return self.dg0 == 0.0


def _max_abs_poly_on_unit(poly: np.polynomial.Polynomial) -> float:
    """Upper bound on max |poly| over [0,1] from the critical points of the polynomial.

    Leading coefficients at most eps times the largest one are dropped before
    the roots are taken: dividing by them overflows the companion matrix. The
    sum of their absolute values bounds their part on [0,1] and is added back.
    """
    trimmed = poly.trim(np.finfo(float).eps * np.abs(poly.coef).max())
    dropped = float(np.abs(poly.coef[len(trimmed.coef):]).sum())
    cands = [0.0, 1.0]
    deriv = trimmed.deriv()
    if deriv.degree() >= 1:
        roots = deriv.roots()
        cands.extend(float(r.real) for r in roots
                     if abs(r.imag) < 1e-12 and 0.0 <= r.real <= 1.0)
    return max(abs(float(trimmed(c))) for c in cands) + dropped


def _make_constant(value: float = 1.0) -> NuProfile:
    v = float(value)
    return NuProfile("constant", c0=v, c2=0.0, dg0=0.0,
                     _g=lambda x: np.full_like(np.asarray(x, dtype=float), v))


def _make_poly_x2(coeffs) -> NuProfile:
    """g(x) = sum_i coeffs[i] * x^(2i); even powers only, so g'(0) = 0."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError("poly_x2 needs at least one coefficient")
    full = np.zeros(2 * len(coeffs) - 1)
    full[::2] = coeffs
    poly = np.polynomial.Polynomial(full)
    c2 = _max_abs_poly_on_unit(poly.deriv(2)) if poly.degree() >= 2 else 0.0

    def g(x):
        return poly(np.asarray(x, dtype=float))

    return NuProfile("poly_x2", c0=coeffs[0], c2=c2, dg0=0.0, _g=g)


def _make_cosine(amplitude: float = 1.0) -> NuProfile:
    a = float(amplitude)
    return NuProfile("cosine", c0=a, c2=abs(a) * np.pi**2, dg0=0.0,
                     _g=lambda x: a * np.cos(np.pi * np.asarray(x, dtype=float)))


@functools.cache
def _bump_kernel() -> tuple[np.polynomial.Polynomial, float]:
    """The C^2 bump kernel on [0,1], u^3 (1-u)^3 normalized to peak 1, and
    its bound on |kernel''|; built at the first bump, so a run that builds no
    profile never loads numpy.polynomial."""
    kernel = np.polynomial.Polynomial([0.0, 0.0, 0.0, 64.0, -192.0, 192.0, -64.0])
    return kernel, _max_abs_poly_on_unit(kernel.deriv(2))


def _make_bump(center: float = 0.5, width: float = 0.5, amplitude: float = 1.0) -> NuProfile:
    c, w, a = float(center), float(width), float(amplitude)
    if not (w > 0 and c - w / 2 >= -1e-12 and c + w / 2 <= 1.0 + 1e-12):
        raise ValueError(f"bump support [{c - w / 2:g}, {c + w / 2:g}] must lie in [0, 1]")
    lo = c - w / 2
    kernel, kernel_d2_max = _bump_kernel()

    def g(x):
        u = (np.asarray(x, dtype=float) - lo) / w
        out = np.where((u >= 0.0) & (u <= 1.0), kernel(np.clip(u, 0.0, 1.0)), 0.0)
        return a * out

    # the support starts at x >= 0 (up to the rounding allowed above), where
    # g is 0 or the kernel's flat cubic zero: g'(0) = 0
    c0 = float(g(0.0))
    return NuProfile("bump", c0=c0, c2=abs(a) * kernel_d2_max / w**2, dg0=0.0, _g=g)


def _make_linear() -> NuProfile:
    # g(x) = x: g'(0) = 1, the inadmissible reference for which h1 diverges.
    return NuProfile("linear", c0=0.0, c2=0.0, dg0=1.0,
                     _g=lambda x: np.asarray(x, dtype=float) + 0.0)


PROFILE_KINDS: dict[str, Callable[..., NuProfile]] = {
    "constant": _make_constant,
    "poly_x2": _make_poly_x2,
    "cosine": _make_cosine,
    "bump": _make_bump,
    "linear": _make_linear,
}

# Default packet: low-frequency band, wide enough to keep the beta = 100
# autocorrelation plateau well above 1/2 yet decaying on measurable horizons.
DEFAULT_PROFILE_SPEC = {"kind": "bump", "center": 0.18, "width": 0.25, "amplitude": 1.0}


def make_profile(spec: dict) -> NuProfile:
    """Build a profile from a config mapping {'kind': ..., <family parameters>}."""
    if not isinstance(spec, dict):
        raise ValueError(f"profile spec must be a mapping, got {spec!r}")
    if "kind" not in spec:
        raise ValueError("profile spec needs a 'kind' field")
    kind = spec["kind"]
    if kind not in PROFILE_KINDS:
        raise ValueError(
            f"unknown profile kind {kind!r}; registered kinds: {sorted(PROFILE_KINDS)}")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return PROFILE_KINDS[kind](**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for profile kind {kind!r}: {exc}") from exc


# a sign +1 or -1 as the ufunc that applies it to the second operand
_SIGNED = {1: np.add, -1: np.subtract}


@dataclass(frozen=True)
class H1Result:
    """Grid supremum of the sign-combination functional, with diagnostics."""

    value: float
    min_denominator: float


def eval_h1(profiles: list[NuProfile], grid_size: int = 1024,
            block: int = 16) -> list[H1Result]:
    """Maximize |tau.nu| / |tau.omega| over the 8 sign patterns and a grid,
    for each profile of a family; one H1Result per profile, in order.

    The grid is x, y = i/grid_size, i = 0..grid_size, with the corner (0,0)
    excluded (0/0 there).  Points where a pattern makes the denominator vanish
    exactly are skipped when the numerator vanishes too (the boundary lines);
    a vanishing denominator with nonzero numerator triggers a warning, not a
    crash, and the point is left out of the max.

    The denominators |tau.omega| do not depend on the profile, so each block
    of rows forms them once for the whole family, with their minimum and
    zero mask; each profile only forms its numerators, the ratio and its
    maximum.  Two exact symmetries cut the work to a quarter of the 8 (g+1)^2
    terms, and a third reduction evaluates z, omega(z) and nu(z) once per
    anti-diagonal, not at every point:

    - Sign flip: tau -> -tau negates num and den exactly in IEEE arithmetic
      (negation is exact and rounding is symmetric about 0), so the four
      patterns with tau1 = +1 give every value the other four give.
    - x <-> y swap: (x, y, (t1, t2, t3)) and (y, x, (t2, t1, t3)) give the
      same bits, because z_fold and the sums are commutative.  The four
      patterns are closed under this swap up to sign, so each block of rows
      x = pts[i] only visits the columns y = pts[j] with j >= the block's
      first row.
    - Anti-diagonals: z, omega(z) and nu(z) = g(z) omega(z) depend on (x, y)
      only through the computed sum s = fl(pts[i] + pts[j]).  They are
      tabulated once per k = i + j from one split, s_k = pts[a] + pts[k - a]
      with a = min(k, g), and each block slices the tables' Hankel views,
      whose [i, j] is table[i + j].  Another split of the same k can round
      to another s (never at a power-of-two grid, where every sum is exact),
      so each block forms its own sums, checks them against s_k, and
      recomputes z, omega(z) and nu(z) from its own s wherever they differ.
      Every point thus gets the floats a per-point evaluation gives.

    The visited |num|/|den| and |den| values are therefore the same set of
    floats as on the full square with all 8 patterns, so each `value` and
    `min_denominator` is bit-identical to the full sweep of that profile
    alone.  `min_denominator` is the same for every profile.

    `block` is the number of grid rows evaluated per vectorized step.  The
    default is small so that a step's working arrays stay in cache (16 rows
    of 4097 columns are 0.5 MiB per array); it does not change the result.
    A step holds the same arrays whatever the number of profiles.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    pts = np.linspace(0.0, 1.0, grid_size + 1)
    om_pts = omega_of(pts)
    nu_pts = [prof.nu(pts) for prof in profiles]
    # one sum per anti-diagonal k = i + j, and z, omega(z), nu(z) from it
    k = np.arange(2 * grid_size + 1)
    split = np.minimum(k, grid_size)
    s_k = pts[split] + pts[k - split]
    z_k = _fold(s_k)
    om_k = omega_of(z_k)
    # read-only Hankel views of the whole square: [i, j] is table[i + j];
    # profile.nu(z) without a second omega_of(z)
    s_sq, om_sq = (sliding_window_view(t, grid_size + 1) for t in (s_k, om_k))
    nu_sq = [sliding_window_view(prof.g(z_k) * om_k, grid_size + 1) for prof in profiles]

    best = [-np.inf] * len(profiles)
    min_den = np.inf
    for start in range(0, grid_size + 1, block):
        rows = slice(start, start + block)
        cols = slice(start, None)
        s = pts[rows, None] + pts[None, cols]
        omz = om_sq[rows, cols]
        # the points whose split rounds to another sum than their table's
        off = np.flatnonzero(s != s_sq[rows, cols])
        if off.size:
            z_off = _fold(s.take(off))
            om_off = omega_of(z_off)
            omz = omz.copy()
            omz.put(off, om_off)
        # the sums are spent: their buffer takes omega(x) +- omega(y), then
        # each profile's nu(x) +- nu(y)
        pair = s
        # |tau.omega| of the patterns with tau1 = +1 (the sign flip gives the
        # other four), shared by the family; a zero denominator is set to inf
        # and masked
        dens = {}
        for t2 in (1, -1):
            _SIGNED[t2](om_pts[rows, None], om_pts[None, start:], out=pair)
            for t3 in (1, -1):
                den = _SIGNED[t3](pair, omz)
                if start == 0:
                    den[0, 0] = 0.0  # the corner (0, 0) is 0/0: excluded
                np.abs(den, out=den)
                least = den.min()
                zero = None
                if least == 0.0:
                    zero = den == 0.0
                    den[zero] = np.inf
                    least = den.min()
                min_den = min(min_den, float(least))
                dens[t2, t3] = den, zero
        del omz  # spent: freed before the profile loop allocates num and nu(z) copies
        num = np.empty_like(s)
        for p, prof in enumerate(profiles):
            nuz = nu_sq[p][rows, cols]
            if off.size:
                nuz = nuz.copy()
                nuz.put(off, prof.g(z_off) * om_off)
            for t2 in (1, -1):
                _SIGNED[t2](nu_pts[p][rows, None], nu_pts[p][None, start:], out=pair)
                for t3 in (1, -1):
                    tau = (1, t2, t3)
                    den, zero = dens[t2, t3]
                    _SIGNED[t3](pair, nuz, out=num)
                    np.abs(num, out=num)
                    if zero is not None:
                        if start == 0:
                            num[0, 0] = 0.0  # the excluded corner warns of nothing
                        bad = zero & (num != 0.0)
                        if bad.any():
                            i, j = np.unravel_index(int(bad.argmax()), bad.shape)
                            warnings.warn(
                                f"h1 grid: zero denominator with nonzero numerator at "
                                f"(x={pts[start + i]:g}, y={pts[start + j]:g}), tau={tau}, "
                                f"profile {p}", RuntimeWarning)
                    ratio = np.divide(num, den, out=num)
                    if zero is not None:
                        ratio[zero] = -np.inf
                    # the block's largest ratio by argmax, no slower than max() here;
                    # a NaN is never larger than the best, so it never replaces it
                    best[p] = max(best[p], float(ratio.flat[ratio.argmax()]))
    return [H1Result(value, min_den) for value in best]


def disjoint_profiles(K: int) -> list[NuProfile]:
    """K admissible bump profiles with pairwise disjoint supports in [0,1].

    Supports are [2 l w, (2 l + 1) w] with w = 1/(2K - 1), so consecutive bumps
    are separated by a gap of width w.  The first bump touches 0 but is flat
    there (cubic zero), hence admissible.
    """
    if not 1 <= K <= 16:
        raise ValueError("K must be in 1..16")
    w = 1.0 / (2 * K - 1)
    return [_make_bump(center=(2 * l + 0.5) * w, width=w, amplitude=1.0)
            for l in range(K)]
