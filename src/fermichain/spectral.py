"""Ground-state correlation matrices and their spectra.

The two-point function of a translation-invariant free-fermion ground
state is a symmetric Toeplitz matrix A_L.  Everything entropy- or
determinant-shaped downstream only needs its first row and eigenvalues,
so that pair is bundled in CorrelationSpectrum.

The eigensolver is hand rolled (Householder reduction plus implicit-shift
QL on the tridiagonal) so results are deterministic across platforms:
fixed sweep order, no threading, no library dispatch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateGroundStateError,
    DomainError,
    EigenConvergenceError,
    SingularMatrixError,
)
from .models import mode_energy

_QL_ITERATION_CAP = 50
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CorrelationSpectrum:
    """First row and eigenvalues of the L x L correlation matrix."""

    L: int
    first_row: np.ndarray
    eigenvalues: np.ndarray


def _check_block_length(L, minimum=1):
    """L as a Python int; numpy integers pass, bools and floats do not."""
    if not isinstance(L, (int, np.integer)) or isinstance(L, bool):
        raise DomainError(f"block length must be an integer, got {L!r}")
    if L < minimum:
        raise DomainError(f"block length must be >= {minimum}, got {L}")
    return int(L)


def correlation_row(analysis, L):
    """First row of A_L in the thermodynamic limit.

    Entry at lag d is (1/2pi) int_{E<mu} e^{-ipd} dp.  Over a reflection
    symmetric sea this collapses to sums of sin at the sea boundary
    points, [sin(b d) - sin(a d)]/(pi d) per half-period interval (a, b);
    the endpoints 0 and pi contribute nothing at integer lag.
    """
    L = _check_block_length(L)
    if analysis.phase != "critical":
        raise DomainError(
            "correlation row needs a sea bounded by simple Fermi points; "
            f"phase is {analysis.phase!r}")
    measure_half = sum(b - a for a, b in analysis.sea_half)
    row = np.empty(L)
    row[0] = measure_half / math.pi
    if L > 1:
        d = np.arange(1, L, dtype=float)
        acc = np.zeros(L - 1)
        for a, b in analysis.sea_half:
            acc += np.sin(b * d) - np.sin(a * d)
        row[1:] = acc / (math.pi * d)
    return row


def correlation_row_finite(model, mu, L, N):
    """First row of A_L on an N-site ring: (1/N) sum over filled modes.

    Modes l with eps_N(l) < mu are filled; the l <-> N-l symmetry makes
    the row real.  A mode energy within 1e-12 of mu means the ground
    state is degenerate and no canonical occupation exists.
    """
    L = _check_block_length(L)
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise DomainError(f"ring size must be an integer, got {N!r}")
    if N < L:
        raise DomainError(f"ring size {N} smaller than block length {L}")
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"chemical potential must be finite, got {mu}")
    energies = np.array([mode_energy(model, N, l) for l in range(N)])
    hits = np.nonzero(np.abs(energies - mu) < 1e-12)[0]
    if hits.size:
        raise DegenerateGroundStateError(
            f"mode l={int(hits[0])} of N={N} has energy within 1e-12 of "
            f"mu={mu}; ground state is degenerate")
    filled = np.nonzero(energies < mu)[0]
    d = np.arange(L, dtype=float)
    return np.cos(np.outer(d, 2.0 * math.pi * filled / N)).sum(axis=1) / N


def _tridiagonalize(A):
    # Householder reduction of a symmetric matrix, in place.  Returns the
    # diagonal and subdiagonal of the similar tridiagonal matrix.
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1:, k]
        nrm = math.sqrt(float(x @ x))
        if nrm == 0.0:
            continue
        alpha = -math.copysign(nrm, x[0])
        v = x.copy()
        v[0] -= alpha  # same-sign add, no cancellation
        v /= math.sqrt(float(v @ v))
        sub = A[k + 1:, k + 1:]
        p = sub @ v
        w = p - (v @ p) * v
        sub -= 2.0 * np.outer(v, w)
        sub -= 2.0 * np.outer(w, v)
        A[k + 1:, k] = 0.0
        A[k, k + 1:] = 0.0
        A[k + 1, k] = alpha
        A[k, k + 1] = alpha
    return np.diag(A).copy(), np.diag(A, 1).copy()


def _ql_eigenvalues(d, e):
    # Implicit-shift QL sweeps on a tridiagonal (d, e), EISPACK tql1
    # style.  Plain Python lists: the inner loop is sequential anyway.
    # Deflation is judged against a running overall scale tst1, not the
    # neighbouring diagonal entries: correlation spectra cluster
    # exponentially at 0 and 1, and a purely local test would demand
    # off-diagonals far below the rounding floor of the whole matrix.
    # Zeroing e[m] <= eps*tst1 moves eigenvalues by at most that much.
    n = len(d)
    d = [float(v) for v in d]
    e = [float(v) for v in e] + [0.0]
    tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        iterations = 0
        while True:
            m = l
            while tst1 + abs(e[m]) != tst1:
                m += 1   # e[n-1] == 0.0, so this stops by n-1
            if m == l:
                break
            iterations += 1
            if iterations > _QL_ITERATION_CAP:
                raise EigenConvergenceError(size=n, cap=_QL_ITERATION_CAP)
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def eigenvalues_symmetric(first_row):
    """All eigenvalues of the symmetric Toeplitz matrix with this first
    row, sorted ascending."""
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise DomainError("first row must be a non-empty 1-d array")
    if not np.all(np.isfinite(row)):
        raise DomainError("first row contains non-finite entries")
    n = row.size
    if n == 1:
        return row.copy()
    idx = np.arange(n)
    A = row[np.abs(idx[:, None] - idx[None, :])]
    d, e = _tridiagonalize(A)
    vals = _ql_eigenvalues(list(d), list(e))
    return np.sort(np.array(vals))


def _checked_spectrum(L, row):
    eig = eigenvalues_symmetric(row)
    low = float(eig[0])
    high = float(eig[-1])
    dev = max(0.0 - low, high - 1.0, 0.0)
    if dev > 1e-10:
        raise AccuracyError(
            "correlation eigenvalues leave [0, 1] by more than 1e-10",
            achieved=dev, target=1e-10)
    trace_gap = abs(float(eig.sum()) - L * float(row[0]))
    if trace_gap > 1e-9:
        raise AccuracyError(
            "eigenvalue sum disagrees with the matrix trace",
            achieved=trace_gap, target=1e-9)
    return CorrelationSpectrum(L=L, first_row=row, eigenvalues=eig)


def correlation_spectrum(analysis, L):
    """Build and cross-check the L x L spectrum from a critical sea."""
    L = _check_block_length(L)
    return _checked_spectrum(L, correlation_row(analysis, L))


def correlation_spectrum_finite(model, mu, L, N):
    """Same checks, with the row taken from an N-site ring."""
    L = _check_block_length(L)
    return _checked_spectrum(L, correlation_row_finite(model, mu, L, N))


def log_det_char(spectrum, lam):
    """log det(lam + 1 - 2 A_L), principal branch factor by factor."""
    lam = complex(lam)
    factors = lam + 1.0 - 2.0 * spectrum.eigenvalues
    small = np.abs(factors) < 1e-12
    if np.any(small):
        i = int(np.nonzero(small)[0][0])
        raise SingularMatrixError(
            f"lam={lam} is within 1e-12 of eigenvalue point "
            f"2*{spectrum.eigenvalues[i]}-1")
    return complex(np.sum(np.log(factors.astype(complex))))
