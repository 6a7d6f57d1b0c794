"""remkdv: spectral structure and simulation for the renormalized periodic
cubic dispersive flow.

The package has six small layers:

- fields: truncated Fourier series on the torus, dyadic frequency calculus,
  norms, and the dispersive-weight diagnostic;
- resonance: exact integer resonance functions, the near-resonant triple sets,
  their fast parametrizations and cached cell tables;
- pseudo: trilinear pseudo-products, the frequency-restricted variants, and
  the integration-by-parts identity with its explicit bounded symbols;
- energy: the corrected (modified) energy of a high mode and the dyadic
  difference energy with its coercivity check;
- evolve: a pseudospectral solver with two integrators, integrating-factor
  RK4 (IFRK4) and an exact-phase step, exact Galerkin dealiasing and the
  translation gauge;
- diagnostics and cli: profiles, cancellation identities, and the scans.
"""

__version__ = "0.1.0"

from .energy import (EnergyReport, coercivity_margin, diff_energy_dyadic,
                     diff_energy_total, energy_mode)
from .evolve import (BlowUpError, ModelConfig, SimulationResult,
                     SimulationState, gauge_backward, gauge_forward, rhs,
                     rhs_split, simulate, step)
from .fields import (FourierField, chi, deriv_multiplier, dyadic_blocks,
                     evaluate, phi, phi_dyadic, project_dyadic, project_leq,
                     project_mode, riesz_potential, sobolev_norm,
                     space_time_norm, synthesize, xsb_norm_diagnostic)
from .pseudo import (IBPSymbols, SymbolFn, estimate_quadrilinear_ratio,
                     ibp_symbols, paired_quadrilinear, pseudoproduct,
                     pseudoproduct_restricted, t_functional, verify_ibp)
from .resonance import (MED_RATIO, TripleClass, classify, dyadic_shadow,
                        omega3, omega3_factored, omega5, omega7, pair_sums)

__all__ = [
    "__version__",
    "BlowUpError", "EnergyReport", "FourierField",
    "IBPSymbols", "MED_RATIO", "ModelConfig", "SimulationResult",
    "SimulationState", "SymbolFn", "TripleClass",
    "chi", "classify", "coercivity_margin", "deriv_multiplier",
    "diff_energy_dyadic", "diff_energy_total", "dyadic_blocks",
    "dyadic_shadow", "energy_mode", "estimate_quadrilinear_ratio",
    "evaluate", "gauge_backward", "gauge_forward",
    "ibp_symbols", "omega3", "omega3_factored", "omega5", "omega7",
    "pair_sums", "paired_quadrilinear", "phi", "phi_dyadic",
    "project_dyadic", "project_leq", "project_mode",
    "pseudoproduct", "pseudoproduct_restricted", "rhs", "rhs_split",
    "riesz_potential", "simulate", "sobolev_norm", "space_time_norm",
    "step", "synthesize", "t_functional", "verify_ibp",
    "xsb_norm_diagnostic",
]
