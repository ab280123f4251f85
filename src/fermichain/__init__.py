"""Free-fermion chains: dispersion, criticality, entanglement, Toeplitz asymptotics.

Concurrent calls are safe. The library's shared state is read-only
tables built at import, functools.lru_cache caches of pure functions
(zeta values and polylog constants in specfun, c_tilde per Renyi order
in entanglement, the last spectrum in spectral, whose eigenvalues
callers get as copies), the coupling tables a DispersionProfile fills
once per order, and the two LAPACK routines spectral binds from scipy's
extension file, opened once under a lock with ctypes. A racing call can
at worst compute a cached value again. Each spectrum solve starts one
worker thread (a bare _thread, without waiting for it to run) for one
parity sector's band stage, LAPACK dsbevd called without the GIL, and
waits for it to finish before it returns or raises.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    DegenerateGroundStateError,
    AccuracyError,
    QuadratureError,
    EigenConvergenceError,
    FitRejectedError,
)
from .specfun import (
    EULER_GAMMA,
    zeta,
    polylog_circle,
    log_barnes_pair,
    entropy_kernel,
)
from .models import (
    FAMILIES,
    InteractionModel,
    DispersionProfile,
    mode_energies,
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
)
from .entanglement import (
    EntropyReport,
    renyi_exact,
    f_factor,
    i1,
    c_tilde,
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
    "AccuracyError",
    "QuadratureError",
    "EigenConvergenceError",
    "FitRejectedError",
    "EULER_GAMMA",
    "zeta",
    "polylog_circle",
    "log_barnes_pair",
    "entropy_kernel",
    "FAMILIES",
    "InteractionModel",
    "DispersionProfile",
    "mode_energies",
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
    "EntropyReport",
    "renyi_exact",
    "f_factor",
    "i1",
    "c_tilde",
    "renyi_asymptotic",
    "FHSymbol",
    "symbol_params",
    "log_dl_asymptotic",
    "fh_deviation",
]
