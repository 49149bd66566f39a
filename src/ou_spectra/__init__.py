"""Spectral analysis of finite-dimensional Ornstein-Uhlenbeck generators.

The generator L f(x) = 1/2 Tr(Q D^2 f(x)) + <A x, D f(x)> of an
Ornstein-Uhlenbeck semigroup is determined by a drift matrix A and a
diffusion matrix Q >= 0.  When A is stable the process has a Gaussian
steady state with covariance solving A X + X A^T + Q = 0, and the
spectrum of L on the weighted L^2 space is the additive lattice generated
by the drift eigenvalues.  This package computes the finite-time and
steady-state Gramians, the semigroup restricted to the reproducing-kernel
space of the steady state, symmetric tensor powers and truncated second
quantizations, the polynomial Galerkin matrix of L, and numerical
cross-checks between all of these routes.
"""

from .config import Tolerances
from .errors import (
    InputError,
    NotContraction,
    NotPSD,
    NumericalError,
    OUSpectraError,
    Unstable,
)
from .gramian import (
    OUModel,
    contractivity_constant,
    flow,
    gramian_inf,
    gramian_report,
    gramian_t,
    rkhs_factor,
    smu_matrix,
    strong_feller_check,
    validate,
)
from .ou_operator import (
    ChaosDecomposition,
    assemble_L,
    chaos_decomposition,
    galerkin_blocks,
    mehler_matrix,
    poly_basis,
    verify_second_quantization,
)
from .spectra import (
    LatticeWindow,
    SpectrumSet,
    eig,
    hausdorff,
    lattice_spectrum,
    match_report,
    product_set,
)
from .tensor_fock import (
    FockTruncation,
    dgamma,
    second_quantization,
    sym_power,
    tensor_power,
)

__version__ = "0.1.0"

__all__ = [
    "ChaosDecomposition",
    "FockTruncation",
    "InputError",
    "LatticeWindow",
    "NotContraction",
    "NotPSD",
    "NumericalError",
    "OUModel",
    "OUSpectraError",
    "SpectrumSet",
    "Tolerances",
    "Unstable",
    "assemble_L",
    "chaos_decomposition",
    "contractivity_constant",
    "dgamma",
    "eig",
    "flow",
    "galerkin_blocks",
    "gramian_inf",
    "gramian_report",
    "gramian_t",
    "hausdorff",
    "lattice_spectrum",
    "match_report",
    "mehler_matrix",
    "poly_basis",
    "product_set",
    "rkhs_factor",
    "second_quantization",
    "smu_matrix",
    "strong_feller_check",
    "sym_power",
    "tensor_power",
    "validate",
    "verify_second_quantization",
]
