"""FPU chain simulator and verification harness for adiabatic mode-packet invariants."""

from .chain import BlowupError, ChainParams, ChainState, potential_v
from .gibbs import (GibbsSampler, TiltedDensity, bonds_to_state, sample_momenta,
                    solve_theta, tilted_density)
from .packet import (PacketObservable, build_phi1_table, homological_residual, mode_weights,
                     phi0, phi1, phi_dot, ps_observable)
from .profiles import NuProfile, disjoint_profiles, eval_h1, make_profile, z_fold
from .spectral import actions, frequencies, sine_transform, to_complex
from .stats import (CorrelationCurve, Estimate, autocorrelation, fit_power_law,
                    half_life)

__version__ = "0.1.0"

__all__ = [
    "BlowupError", "ChainParams", "ChainState", "potential_v",
    "GibbsSampler", "TiltedDensity", "bonds_to_state", "sample_momenta",
    "solve_theta", "tilted_density",
    "PacketObservable", "build_phi1_table", "homological_residual", "mode_weights",
    "phi0", "phi1", "phi_dot", "ps_observable",
    "NuProfile", "disjoint_profiles", "eval_h1", "make_profile", "z_fold",
    "actions", "frequencies", "sine_transform", "to_complex",
    "CorrelationCurve", "Estimate", "autocorrelation", "fit_power_law",
    "half_life",
    "__version__",
]
