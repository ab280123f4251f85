"""Free-fermion chains: dispersion, criticality, entanglement, Toeplitz asymptotics."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    DegenerateGroundStateError,
    SingularMatrixError,
    AccuracyError,
    QuadratureError,
    EigenConvergenceError,
    FitRejectedError,
)
from .specfun import (
    EULER_GAMMA,
    zeta,
    polylog_circle,
    digamma_real_part,
    log_barnes_pair,
    entropy_kernel,
)
from .models import (
    FAMILIES,
    InteractionModel,
    DispersionProfile,
    MonotonicityReport,
    mode_energy,
    monotonicity_report,
)
from .criticality import (
    FermiAnalysis,
    ThermalResult,
    LowTemperatureFit,
    fermi_points,
    free_energy,
    low_temperature_fit,
)
from .spectral import (
    CorrelationSpectrum,
    correlation_row,
    correlation_row_finite,
    correlation_spectrum,
    correlation_spectrum_finite,
    eigenvalues_symmetric,
    log_det_char,
)
from .entanglement import (
    EntropyReport,
    renyi_exact,
    f_factor,
    i1,
    c_tilde,
    c_tilde_oracle,
    renyi_asymptotic,
)
from .fisher_hartwig import (
    FHSymbol,
    symbol_params,
    log_dl_asymptotic,
    fh_deviation,
)

__all__ = [
    "__version__",
    "DomainError",
    "DegenerateGroundStateError",
    "SingularMatrixError",
    "AccuracyError",
    "QuadratureError",
    "EigenConvergenceError",
    "FitRejectedError",
    "EULER_GAMMA",
    "zeta",
    "polylog_circle",
    "digamma_real_part",
    "log_barnes_pair",
    "entropy_kernel",
    "FAMILIES",
    "InteractionModel",
    "DispersionProfile",
    "MonotonicityReport",
    "mode_energy",
    "monotonicity_report",
    "FermiAnalysis",
    "ThermalResult",
    "LowTemperatureFit",
    "fermi_points",
    "free_energy",
    "low_temperature_fit",
    "CorrelationSpectrum",
    "correlation_row",
    "correlation_row_finite",
    "correlation_spectrum",
    "correlation_spectrum_finite",
    "eigenvalues_symmetric",
    "log_det_char",
    "EntropyReport",
    "renyi_exact",
    "f_factor",
    "i1",
    "c_tilde",
    "c_tilde_oracle",
    "renyi_asymptotic",
    "FHSymbol",
    "symbol_params",
    "log_dl_asymptotic",
    "fh_deviation",
]
