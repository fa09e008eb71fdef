"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The experiment-driven
criteria go through the same runner the CLI uses, so the thresholds asserted
here are exactly the ones in fpu_packets.experiments.THRESHOLDS.
"""

import json

import numpy as np
import pytest
from oracles import bracket_norm_check, integrate, total_energy

from fpu_packets.chain import ChainParams, ChainState
from fpu_packets.experiments import run, validate_config
from fpu_packets.gibbs import GibbsSampler
from fpu_packets.profiles import DEFAULT_PROFILE_SPEC, make_profile
from fpu_packets.spectral import actions, frequencies, sine_transform, to_modes

pytestmark = pytest.mark.acceptance

SEED = 20260808


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _run_experiment(tmp_path, body):
    cfg = validate_config(json.dumps(body))
    return run(cfg, tmp_path)


def test_criterion_01_homological_identity(tmp_path):
    body = {"experiment": "homological", "seed": SEED, "N_list": [31],
            "beta_list": [100.0], "n_samples": 100,
            "profile": {"kind": "constant", "value": 1.0}}
    code = _run_experiment(tmp_path, body)
    rows = (tmp_path / "homological_results.csv").read_text().splitlines()
    max_res = float(rows[1].split(",")[3])
    _report(1, "homological identity residual <= 1e-9", code == 0,
            f"max residual = {max_res:.3e}")


def test_criterion_02_transform_and_energy_identities():
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for N in (255, 1023):
        v = rng.normal(size=N)
        inv_err = np.abs(sine_transform(sine_transform(v)) - v).max()
        st = ChainState(rng.normal(size=N), rng.normal(size=N))
        h0 = 0.5 * float(st.p @ st.p) + 0.5 * float(
            (np.diff(st.q, prepend=0.0, append=0.0) ** 2).sum())
        par_err = abs(frequencies(N) @ actions(to_modes(st)) - h0) / max(h0, 1.0)
        ok &= inv_err <= 1e-10 and par_err <= 1e-10
        details.append(f"N={N}: involution {inv_err:.2e}, parseval {par_err:.2e}")
    params = ChainParams(N=255, beta=100.0)
    st = GibbsSampler(params, np.random.default_rng(SEED + 1)).sample()
    snaps = integrate(st, params, 0.02, 1000.0, sample_stride=25)
    h = np.array([total_energy(s, params) for _, s in snaps])
    fluct = np.abs(h - h[0]).max() / max(abs(h[0]), 1.0)
    ok &= fluct <= 1e-4
    details.append(f"energy fluctuation {fluct:.2e}")
    _report(2, "transform/energy identities and leapfrog conservation", ok,
            "; ".join(details))


def test_criterion_03_sampler_validity(tmp_path):
    body = {"experiment": "sampler-validation", "seed": SEED,
            "checks": ["moments", "slab"], "n_samples": 10000,
            "slab_samples": 8000}
    code = _run_experiment(tmp_path, body)
    _report(3, "sampler marginals vs quadrature and slab reference", code == 0)


def test_criterion_04_lemma5_covariance_trend(tmp_path):
    body = {"experiment": "sampler-validation", "seed": SEED,
            "checks": ["lemma5"], "lemma5_N": [64, 256], "lemma5_samples": 20000}
    code = _run_experiment(tmp_path, body)
    rows = [line.split(",") for line in
            (tmp_path / "sampler-validation_results.csv").read_text().splitlines()[1:]]
    covs = {int(r[1]): float(r[4]) for r in rows}
    _report(4, "disjoint-site covariance shrinks with N", code == 0,
            f"cov(64) = {covs[64]:.3e}, cov(256) = {covs[256]:.3e}")


def test_criterion_05_lemma3_variance_band(tmp_path):
    body = {"experiment": "lemma3-scan", "seed": SEED}
    code = _run_experiment(tmp_path, body)
    _report(5, "normalized variance within factor-3 band for Phi0/H1/Phi1",
            code == 0)


def test_criterion_06_theorem1_ratio_slopes(tmp_path):
    body = {"experiment": "ratio-scaling", "seed": SEED}
    code = _run_experiment(tmp_path, body)
    summary = (tmp_path / "ratio-scaling_summary.txt").read_text()
    _report(6, "Theorem-1 ratio slope in [-1.3, -0.8], corrector slope in [-0.7, -0.3]",
            code == 0, summary.splitlines()[0])


def test_criterion_07_corollary1_persistence(tmp_path):
    body = {"experiment": "autocorrelation", "seed": SEED}
    code = _run_experiment(tmp_path, body)
    meta = json.loads((tmp_path / "autocorrelation_metadata.json").read_text())
    halves = {k: v.get("t_half") for k, v in meta["diagnostics"].items()}
    _report(7, "autocorrelation >= 1/2 up to beta and half-life ratio >= 2",
            code == 0, f"t_half: {halves}")


def test_criterion_08_corollary2_chebyshev_trend(tmp_path):
    body = {"experiment": "chebyshev", "seed": SEED}
    code = _run_experiment(tmp_path, body)
    _report(8, "exceedance non-increasing in beta and within Chebyshev bound",
            code == 0)


def test_criterion_09_theorem2_h1_bound(tmp_path):
    body = {"experiment": "theorem2-h1", "seed": SEED}
    code = _run_experiment(tmp_path, body)
    meta = json.loads((tmp_path / "theorem2-h1_metadata.json").read_text())
    _report(9, "h1/(c0+c2) bounded and stable; divergence for g'(0) != 0",
            code == 0, f"family constant = {meta['diagnostics']['family_constant']:.3f}")


def test_criterion_10_lemma4_bracket_norm():
    prof = make_profile(DEFAULT_PROFILE_SPEC)
    norm, bound = bracket_norm_check(prof, 127)
    ok = norm <= bound
    _report(10, "coefficient norm of {Phi0, H1} within 2^4 max(s,r) product bound",
            ok, f"norm = {norm:.3f} <= bound = {bound:.3f}")


def test_multipacket_supplement(tmp_path):
    # Corollary 3 operational check rides with the acceptance run: joint
    # exceedance obeys the union bound and all four packets persist at beta/4.
    body = {"experiment": "multi-packet", "seed": SEED}
    code = _run_experiment(tmp_path, body)
    _report(11, "multi-packet union bound and K=4 persistence", code == 0)
