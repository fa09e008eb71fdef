import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpu_packets.profiles import (DEFAULT_PROFILE_SPEC, PROFILE_KINDS, NuProfile,
                                  disjoint_profiles, eval_h1, make_profile, omega_of,
                                  z_fold)

_ALL_SIGN_PATTERNS = [(t1, t2, t3) for t1 in (1, -1) for t2 in (1, -1) for t3 in (1, -1)]


def _check_c0_c2(prof):
    """The closed-form c0 and c2 against g(0) and a finite-difference |g''|
    on a 10^4-point grid."""
    x = np.linspace(0.0, 1.0, 10_000)
    assert abs(prof.c0 - float(prof.g(0.0))) <= 1e-8, f"{prof.kind}: c0 is not g(0)"
    h = x[1] - x[0]
    g2 = (prof.g(x[:-2]) - 2.0 * prof.g(x[1:-1]) + prof.g(x[2:])) / h**2
    assert np.abs(g2).max() <= prof.c2 * (1.0 + 1e-6) + 1e-4, \
        f"{prof.kind}: c2 below the observed |g''|"


def _eval_h1_reference(profile, grid_size):
    """(value, min_denominator) of h1 from all 8 sign patterns on the full square.

    The plain sweep eval_h1 must reproduce bit for bit.
    """
    block = 256
    pts = np.linspace(0.0, 1.0, grid_size + 1)
    nu_pts = profile.nu(pts)
    om_pts = omega_of(pts)
    best = -np.inf
    min_den = np.inf
    for start in range(0, grid_size + 1, block):
        x, y = np.meshgrid(pts[start:start + block], pts, indexing="ij")
        z = z_fold(x, y)
        nux = nu_pts[start:start + block][:, None]
        omx = om_pts[start:start + block][:, None]
        nuz = profile.nu(z)
        omz = omega_of(z)
        interior = ~((x == 0.0) & (y == 0.0))
        for tau in _ALL_SIGN_PATTERNS:
            num = tau[0] * nux + tau[1] * nu_pts[None, :] + tau[2] * nuz
            den = tau[0] * omx + tau[1] * om_pts[None, :] + tau[2] * omz
            ok = interior & (den != 0.0)
            if not ok.any():
                continue
            absden = np.abs(den[ok])
            min_den = min(min_den, float(absden.min()))
            best = max(best, float((np.abs(num[ok]) / absden).max()))
    return best, min_den


def _h1_term(profile, grid_size, x, y, tau):
    """|tau.nu| / |tau.omega| at one grid point, in eval_h1's order of operations."""
    pts = np.linspace(0.0, 1.0, grid_size + 1)
    i, j = round(x * grid_size), round(y * grid_size)
    assert (pts[i], pts[j]) == (x, y)
    z = z_fold(np.array([x]), np.array([y]))
    nu_pts, om_pts = profile.nu(pts), omega_of(pts)
    num = tau[0] * nu_pts[i] + tau[1] * nu_pts[j] + tau[2] * profile.nu(z)[0]
    den = tau[0] * om_pts[i] + tau[1] * om_pts[j] + tau[2] * omega_of(z)[0]
    return abs(num) / abs(den)


def _assert_h1_matches_reference(profile, grid_size, blocks):
    value, min_den = _eval_h1_reference(profile, grid_size)
    for block in blocks:
        res = eval_h1(profile, grid_size, block)
        assert res.value == value, (grid_size, block)
        assert res.min_denominator == min_den, (grid_size, block)
        assert res.tau in _ALL_SIGN_PATTERNS
        assert _h1_term(profile, grid_size, res.x, res.y, res.tau) == value


def test_z_fold_examples():
    assert z_fold(0.3, 0.4) == pytest.approx(0.7, rel=1e-15)
    assert z_fold(0.8, 0.9) == pytest.approx(0.3, rel=1e-14)
    assert z_fold(1.0, 0.0) == pytest.approx(1.0)
    x = np.array([0.1, 0.6])
    assert z_fold(x, x) == pytest.approx([0.2, 0.8])


def test_make_profile_errors():
    with pytest.raises(ValueError, match="registered kinds"):
        make_profile({"kind": "gaussian"})
    with pytest.raises(ValueError):
        make_profile({"value": 1.0})
    with pytest.raises(ValueError, match="bad parameters"):
        make_profile({"kind": "bump", "radius": 2})


def test_registered_family_consistency():
    specs = [
        {"kind": "constant", "value": 2.0},
        {"kind": "poly_x2", "coeffs": [1.0, 1.0]},
        {"kind": "cosine", "amplitude": 1.0},
        DEFAULT_PROFILE_SPEC,
        {"kind": "linear"},
    ]
    for spec in specs:
        _check_c0_c2(make_profile(spec))
    assert set(PROFILE_KINDS) == {"constant", "poly_x2", "cosine", "bump", "linear"}


def test_poly_x2_c2_with_subnormal_leading_coefficient():
    # 1/5e-324 overflows the companion matrix of g''; the bound must still come out.
    prof = make_profile({"kind": "poly_x2", "coeffs": [0.0, 0.0, 1.0, 5e-324]})
    assert prof.c2 == pytest.approx(12.0, rel=1e-15)
    assert prof.c2 >= 12.0
    _check_c0_c2(prof)


def test_admissibility():
    assert make_profile({"kind": "constant", "value": 1.0}).admissible
    assert make_profile({"kind": "cosine", "amplitude": 1.0}).admissible
    assert make_profile(DEFAULT_PROFILE_SPEC).admissible
    lin = make_profile({"kind": "linear"})
    assert lin.dg0 == 1.0 and not lin.admissible


_NARROW_BUMPS = st.builds(
    lambda lo, width, amplitude: {"kind": "bump", "center": lo + width / 2,
                                  "width": width, "amplitude": amplitude},
    lo=st.floats(0.0, 0.5), width=st.floats(1e-3, 0.5), amplitude=st.floats(-5.0, 5.0))


@settings(max_examples=80, deadline=None)
@given(spec=st.one_of(
    _NARROW_BUMPS,
    st.builds(lambda c: {"kind": "poly_x2", "coeffs": c},
              st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4)),
    st.builds(lambda a: {"kind": "cosine", "amplitude": a}, st.floats(-5.0, 5.0)),
    st.builds(lambda v: {"kind": "constant", "value": v}, st.floats(-5.0, 5.0))))
def test_admissible_families_have_a_flat_origin(spec):
    # g'(0) is closed-form and exact: 0 for these families whatever the
    # amplitude or width (a bump's support starts at x >= 0, where its cubic
    # zero is flat), so a narrow, tall bump near 0 is admissible too; Taylor's
    # bound |g(h) - c0 - g'(0) h| <= c2 h^2 / 2 ties the three numbers to g
    prof = make_profile(spec)
    assert prof.dg0 == 0.0 and prof.admissible
    for h in (1e-3, 1e-2, 0.1):
        assert abs(float(prof.g(h)) - prof.c0 - prof.dg0 * h) <= prof.c2 * h * h / 2 + 1e-12


def test_eval_h1_constant_profiles():
    one = make_profile({"kind": "constant", "value": 1.0})
    res = eval_h1(one, 128)
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.min_denominator > 0
    two = make_profile({"kind": "constant", "value": 2.0})
    assert eval_h1(two, 128).value == pytest.approx(2.0, rel=1e-12)


def test_h1_homogeneity():
    prof = make_profile({"kind": "poly_x2", "coeffs": [1.0, 1.0]})
    scaled = make_profile({"kind": "poly_x2", "coeffs": [3.0, 3.0]})
    assert eval_h1(scaled, 200).value == pytest.approx(3 * eval_h1(prof, 200).value, rel=1e-10)


def test_h1_refinement_stability_admissible():
    for spec in ({"kind": "poly_x2", "coeffs": [0.0, 1.0]}, DEFAULT_PROFILE_SPEC):
        prof = make_profile(spec)
        v512 = eval_h1(prof, 512).value
        v1024 = eval_h1(prof, 1024).value
        assert v1024 >= v512 - 1e-12  # nested grids: monotone
        assert abs(v1024 - v512) / v512 <= 0.10


def test_h1_divergence_for_linear_profile():
    lin = make_profile({"kind": "linear"})
    v64 = eval_h1(lin, 64).value
    v256 = eval_h1(lin, 256).value
    assert v256 >= 2.0 * v64


def test_denominator_positivity_and_origin_exclusion():
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    res = eval_h1(prof, 256)
    assert res.min_denominator > 0
    assert np.isfinite(res.value)


def test_disjoint_profiles():
    (solo,) = disjoint_profiles(1)
    assert solo.admissible and solo.g(0.5) > 0
    profs = disjoint_profiles(4)
    x = np.linspace(0.0, 1.0, 10_000)
    nus = np.array([p.nu(x) for p in profs])
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.abs(nus[i] * nus[j]).max() == 0.0
    for p in profs:
        assert p.admissible and np.isfinite(eval_h1(p, 256).value)
    with pytest.raises(ValueError):
        disjoint_profiles(17)


def test_cosine_c2_value():
    cos = make_profile({"kind": "cosine", "amplitude": 1.0})
    assert cos.c0 == pytest.approx(1.0)
    assert cos.c2 == pytest.approx(np.pi**2, rel=1e-12)


def test_nu_vanishes_at_zero():
    for spec in ({"kind": "constant", "value": 1.0}, DEFAULT_PROFILE_SPEC):
        prof = make_profile(spec)
        assert prof.nu(0.0) == 0.0
        assert omega_of(0.0) == 0.0


_H1_SPECS = [
    {"kind": "constant", "value": 1.0},
    {"kind": "poly_x2", "coeffs": [1.0, 1.0]},
    {"kind": "cosine", "amplitude": 1.0},
    DEFAULT_PROFILE_SPEC,
    {"kind": "linear"},
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid_size", [2, 3, 100, 257, 999, 1024, 1536])
@pytest.mark.parametrize("spec", _H1_SPECS, ids=lambda spec: spec["kind"])
def test_eval_h1_bit_identical_to_full_sweep(spec, grid_size):
    _assert_h1_matches_reference(make_profile(spec), grid_size, blocks=(1, 7, 256))


_BUMP_SPECS = st.builds(
    lambda lo, width, amplitude: {"kind": "bump", "center": lo + width / 2,
                                  "width": width, "amplitude": amplitude},
    lo=st.floats(0.0, 0.5), width=st.floats(0.05, 0.5),
    amplitude=st.floats(-5.0, 5.0))
_POLY_SPECS = st.builds(
    lambda coeffs: {"kind": "poly_x2", "coeffs": coeffs},
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(_BUMP_SPECS, _POLY_SPECS), grid_size=st.integers(2, 60),
       block=st.integers(1, 70))
def test_eval_h1_bit_identical_property(spec, grid_size, block):
    _assert_h1_matches_reference(make_profile(spec), grid_size, blocks=(block,))


def test_eval_h1_memory_stays_per_block():
    """eval_h1 holds O(block (g+1)) memory, never a (g+1)^2 array.

    At g = 1536 and block 16 one block-sized float64 array is 16/1537, about
    1/96, of the (g+1)^2 square (18.9 MB).  A block step holds about a dozen
    of them at once (the sums and their check, the omega(z) and nu(z)
    copies, the two pair sums, num, den and the masks), about 1/8 of the
    square, and the length-(2g+1) tables add under 1%.  A bound of 1/4
    leaves twice that, and any full-square temporary fails it.
    """
    g = 1536
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    eval_h1(prof, g, 16)
    tracemalloc.start()
    try:
        eval_h1(prof, g, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (g + 1) ** 2 / 4


def test_eval_h1_warns_on_zero_denominator_with_nonzero_numerator():
    # g = 1/x gives nu(0) = inf * 0 = nan, so on the line x = 0 the pattern
    # (1, 1, -1) has den = omega(y) - omega(y) = 0 under a nonzero numerator.
    def g(x):
        with np.errstate(divide="ignore"):
            return 1.0 / x

    prof = NuProfile("inverse", c0=np.inf, c2=np.inf, dg0=-np.inf, _g=g)
    with np.errstate(invalid="ignore"), \
            pytest.warns(RuntimeWarning, match="zero denominator with nonzero numerator"):
        eval_h1(prof, 8)
