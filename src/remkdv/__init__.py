"""remkdv: spectral structure and simulation for the renormalized periodic
cubic dispersive flow.

The package has six small layers:

- fields: truncated Fourier series on the torus, dyadic frequency calculus,
  norms, and the dispersive-weight diagnostic;
- resonance: exact integer resonance functions, the near-resonant triple sets,
  and the (k, a, b) grid of the D1 cells;
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

# numpy loads numpy.random on first use; loading it here keeps that import
# out of the first seeded draw of a run
import numpy.random  # noqa: E402,F401

from .energy import energy_mode
from .evolve import ModelConfig, simulate

# the names the README's Quick start imports from the package root
__all__ = ["__version__", "ModelConfig", "energy_mode", "simulate"]
