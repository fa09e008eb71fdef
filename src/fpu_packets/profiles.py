"""Packet weight functions nu on [0,1] and the functionals h1, h2 built from them.

A profile is specified through g = nu/omega, restricted to a registered
parametric family so that c0 = g(0) and c2 = sup|g''| are computable in closed
form.  A profile is admissible when g'(0) = 0; that is the condition under
which the sign-combination functional h1 stays bounded, and it is exactly what
keeps the small denominators of the cubic corrector under control.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_FD_STEP = 1e-6
_FD_THRESHOLD = 1e-4
_CONSISTENCY_GRID = 10_000
_CONSISTENCY_TOL = 1e-8


def omega_of(x):
    """Dispersion relation omega(x) = 2 sin(pi x / 2) on [0, 1]."""
    return 2.0 * np.sin(0.5 * np.pi * np.asarray(x, dtype=float))


def z_fold(x, y):
    """x + y folded back into [0, 1]: x+y if x+y <= 1, else 2-x-y."""
    s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    return np.where(s <= 1.0, s, 2.0 - s)


@dataclass(frozen=True)
class NuProfile:
    """A member of the registered profile family.

    g is the ratio nu/omega, evaluable slightly outside [0,1] so that the
    admissibility check can take a central difference at 0.
    """

    kind: str
    params: dict = field(compare=False)
    c0: float
    c2: float
    _g: Callable = field(repr=False, compare=False)

    def g(self, x):
        return self._g(np.asarray(x, dtype=float))

    def nu(self, x):
        return self.g(x) * omega_of(x)

    @property
    def g_prime_at_zero(self) -> float:
        return float((self.g(_FD_STEP) - self.g(-_FD_STEP)) / (2.0 * _FD_STEP))

    @property
    def admissible(self) -> bool:
        return abs(self.g_prime_at_zero) < _FD_THRESHOLD

    def scaled(self, c: float) -> "NuProfile":
        """Profile with g multiplied by c > 0 (nu is homogeneous of degree 1)."""
        if not c > 0:
            raise ValueError("scale factor must be > 0")
        g = self._g
        return NuProfile(self.kind, {**self.params, "_scale": c},
                         c * self.c0, abs(c) * self.c2, lambda x: c * g(x))

    def validate(self) -> None:
        """Check c0/c2 against g on a 10^4-point grid."""
        x = np.linspace(0.0, 1.0, _CONSISTENCY_GRID)
        if abs(self.c0 - float(self.g(0.0))) > _CONSISTENCY_TOL:
            raise ValueError(f"{self.kind}: stored c0 inconsistent with g(0)")
        h = x[1] - x[0]
        g2 = (self.g(x[:-2]) - 2.0 * self.g(x[1:-1]) + self.g(x[2:])) / h**2
        if np.abs(g2).max() > self.c2 * (1.0 + 1e-6) + 1e-4:
            raise ValueError(f"{self.kind}: stored c2 below observed |g''| on grid")


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
    return NuProfile("constant", {"value": v}, c0=v, c2=0.0,
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

    return NuProfile("poly_x2", {"coeffs": coeffs}, c0=coeffs[0], c2=c2, _g=g)


def _make_cosine(amplitude: float = 1.0) -> NuProfile:
    a = float(amplitude)
    return NuProfile("cosine", {"amplitude": a}, c0=a, c2=abs(a) * np.pi**2,
                     _g=lambda x: a * np.cos(np.pi * np.asarray(x, dtype=float)))


# C^2 bump kernel on [0,1]: u^3 (1-u)^3 normalized to peak 1.
_BUMP = np.polynomial.Polynomial([0.0, 0.0, 0.0, 64.0, -192.0, 192.0, -64.0])
_BUMP_D2_MAX = _max_abs_poly_on_unit(_BUMP.deriv(2))


def _make_bump(center: float = 0.5, width: float = 0.5, amplitude: float = 1.0) -> NuProfile:
    c, w, a = float(center), float(width), float(amplitude)
    if not (w > 0 and c - w / 2 >= -1e-12 and c + w / 2 <= 1.0 + 1e-12):
        raise ValueError(f"bump support [{c - w / 2:g}, {c + w / 2:g}] must lie in [0, 1]")
    lo = c - w / 2

    def g(x):
        u = (np.asarray(x, dtype=float) - lo) / w
        out = np.where((u >= 0.0) & (u <= 1.0), _BUMP(np.clip(u, 0.0, 1.0)), 0.0)
        return a * out

    c0 = float(g(0.0))
    return NuProfile("bump", {"center": c, "width": w, "amplitude": a},
                     c0=c0, c2=abs(a) * _BUMP_D2_MAX / w**2, _g=g)


def _make_linear() -> NuProfile:
    # g(x) = x: g'(0) = 1, the inadmissible reference for which h1 diverges.
    return NuProfile("linear", {}, c0=0.0, c2=0.0,
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


@dataclass(frozen=True)
class H1Result:
    """Grid supremum of the sign-combination functional, with diagnostics."""

    value: float
    x: float
    y: float
    tau: tuple[int, int, int]
    min_denominator: float


def eval_h1(profile: NuProfile, grid_size: int = 1024, block: int = 16) -> H1Result:
    """Maximize |tau.nu| / |tau.omega| over the 8 sign patterns and a grid.

    The grid is x, y = i/grid_size, i = 0..grid_size, with the corner (0,0)
    excluded (0/0 there).  Points where a pattern makes the denominator vanish
    exactly are skipped when the numerator vanishes too (the boundary lines);
    a vanishing denominator with nonzero numerator triggers a warning, not a
    crash, and the point is left out of the max.

    Two exact symmetries cut the work to a quarter of the 8 (g+1)^2 terms:

    - Sign flip: tau -> -tau negates num and den exactly in IEEE arithmetic
      (negation is exact and rounding is symmetric about 0), so the four
      patterns with tau1 = +1 give every value the other four give.
    - x <-> y swap: (x, y, (t1, t2, t3)) and (y, x, (t2, t1, t3)) give the
      same bits, because z_fold and the sums are commutative.  The four
      patterns are closed under this swap up to sign, so each block of rows
      x = pts[i] only visits the columns y = pts[j] with j >= the block's
      first row.

    The visited |num|/|den| and |den| values are therefore the same set of
    floats as on the full square with all 8 patterns, so `value` and
    `min_denominator` are bit-identical to the full sweep.  (x, y, tau) is a
    point where the maximum is reached.

    `block` is the number of grid rows evaluated per vectorized step.  The
    default is small so that a step's working arrays stay in cache (16 rows
    of 4097 columns are 0.5 MiB per array); it does not change the result.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    pts = np.linspace(0.0, 1.0, grid_size + 1)
    nu_pts = profile.nu(pts)
    om_pts = omega_of(pts)

    best = -np.inf
    best_at = (0.0, 0.0, (1, 1, 1))
    min_den = np.inf
    for start in range(0, grid_size + 1, block):
        rows = slice(start, start + block)
        z = z_fold(pts[rows, None], pts[None, start:])
        omz = omega_of(z)
        nuz = profile.g(z) * omz  # profile.nu(z) without a second omega_of(z)
        num = np.empty_like(z)
        den = np.empty_like(z)
        for t2 in (1, -1):  # tau1 = +1: the sign flip gives the other four patterns
            add_y = np.add if t2 > 0 else np.subtract
            nu_xy = add_y(nu_pts[rows, None], nu_pts[None, start:])
            om_xy = add_y(om_pts[rows, None], om_pts[None, start:])
            for t3 in (1, -1):
                tau = (1, t2, t3)
                add_z = np.add if t3 > 0 else np.subtract
                add_z(nu_xy, nuz, out=num)
                add_z(om_xy, omz, out=den)
                if start == 0:
                    num[0, 0] = den[0, 0] = 0.0  # the corner (0, 0) is 0/0: excluded
                np.abs(num, out=num)
                np.abs(den, out=den)
                least = den.min()
                zero = None
                if least == 0.0:
                    zero = den == 0.0
                    bad = zero & (num != 0.0)
                    if bad.any():
                        i, j = np.unravel_index(int(bad.argmax()), bad.shape)
                        warnings.warn(
                            f"h1 grid: zero denominator with nonzero numerator at "
                            f"(x={pts[start + i]:g}, y={pts[start + j]:g}), tau={tau}",
                            RuntimeWarning)
                    den[zero] = np.inf
                    least = den.min()
                min_den = min(min_den, float(least))
                ratio = np.divide(num, den, out=num)
                if zero is not None:
                    ratio[zero] = -np.inf
                arg = int(ratio.argmax())
                if ratio.flat[arg] > best:
                    best = float(ratio.flat[arg])
                    i, j = np.unravel_index(arg, ratio.shape)
                    best_at = (float(pts[start + i]), float(pts[start + j]), tau)
    return H1Result(best, best_at[0], best_at[1], best_at[2], min_den)


def eval_h2(profile: NuProfile, tol: float = 1e-8) -> float:
    """integral of g(x)^2 over [0,1] by composite Simpson, Richardson-verified."""
    n = 64
    prev = None
    while n <= 2**22:
        x = np.linspace(0.0, 1.0, n + 1)
        f = profile.g(x) ** 2
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        val = float(f @ w) / (3.0 * n)
        if prev is not None and abs(val - prev) <= tol * max(abs(val), 1e-30):
            return val
        prev = val
        n *= 2
    raise RuntimeError("eval_h2 did not converge")


def check_thm2_bound(profile: NuProfile, grid_size: int = 1024) -> float:
    """h1 / (c0 + c2) for an admissible profile.

    Across the family this ratio is bounded by one constant; the constant
    itself is not quantified analytically, so callers compare the empirical
    family-wide max.
    """
    if not profile.admissible:
        raise ValueError(
            f"profile {profile.kind!r} is inadmissible: g'(0) = "
            f"{profile.g_prime_at_zero:.3e}")
    denom = profile.c0 + profile.c2
    if not denom > 0:
        raise ValueError("c0 + c2 must be > 0")
    return eval_h1(profile, grid_size).value / denom


def disjoint_profiles(K: int, kind: str = "bump") -> list[NuProfile]:
    """K admissible bump profiles with pairwise disjoint supports in [0,1].

    Supports are [2 l w, (2 l + 1) w] with w = 1/(2K - 1), so consecutive bumps
    are separated by a gap of width w.  The first bump touches 0 but is flat
    there (cubic zero), hence admissible.
    """
    if not 1 <= K <= 16:
        raise ValueError("K must be in 1..16")
    if kind != "bump":
        raise ValueError(f"unsupported disjoint family {kind!r}; only 'bump'")
    w = 1.0 / (2 * K - 1)
    return [_make_bump(center=(2 * l + 0.5) * w, width=w, amplitude=1.0)
            for l in range(K)]
