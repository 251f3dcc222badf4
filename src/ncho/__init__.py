"""Noncommutative-plane anisotropic oscillator: spectrum and entanglement.

``import ncho`` loads only the standard library.  numpy loads with the
first array-building call, and ``oracles`` (which needs numpy at import)
on first use of one of its names below.
"""

from importlib import import_module as _import_module

from .errors import DomainError, GridConfigurationError, NchoError, NumericRangeError
from .gaussian import (
    CovarianceBlocks,
    TwoModeGaussian,
    covariance_blocks,
    entanglement_of_formation,
    formation_columns,
    simon_es,
)
from .oscillator import (
    AsymptoticBounds,
    CanonicalSystem,
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
    ground_state_lambda_closed,
    mode_spectrum,
)

_ORACLE_NAMES = (
    "oracles",
    "GridSpec",
    "ValidationReport",
    "gaussian_moment_quadrature",
    "numeric_eigenvalues",
    "run_validation",
    "schrodinger_residual",
)


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not ``from . import oracles``: its hasattr check would re-enter here.
    oracles = _import_module(".oracles", __name__)
    return oracles if name == "oracles" else getattr(oracles, name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_ORACLE_NAMES))
__version__ = "0.1.0"
