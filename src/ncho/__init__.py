"""Noncommutative-plane anisotropic oscillator: spectrum and entanglement."""

from .errors import (
    DomainError,
    GridConfigurationError,
    NchoError,
    NumericRangeError,
    SingularConfigurationError,
    SpectrumInconsistencyError,
)
from .gaussian import (
    CovarianceBlocks,
    EntanglementReport,
    TwoModeGaussian,
    covariance_blocks,
    entanglement_of_formation,
    entanglement_report,
    formation_columns,
    normalization,
    simon_es,
    simon_es_closed,
)
from .oracles import (
    GridSpec,
    ValidationReport,
    ValidationThresholds,
    gaussian_moment_quadrature,
    numeric_eigenvalues,
    run_validation,
    schrodinger_residual,
)
from .oscillator import (
    AsymptoticBounds,
    CanonicalSystem,
    GroundStateLambda,
    ModeSpectrum,
    OscillatorParams,
    anisotropy_ratio,
    asymptotic_bounds,
    bopp_shift,
    build_h_matrix,
    build_omega_matrix,
    energy_level,
    entanglement_columns,
    es_closed_form,
    ground_state_as_gaussian,
    ground_state_lambda_closed,
    ground_state_lambda_numeric,
    mode_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
