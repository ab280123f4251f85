"""Ground-state correlation matrices and their spectra.

The two-point function of a translation-invariant free-fermion ground
state is a symmetric Toeplitz matrix A_L.  Everything entropy- or
determinant-shaped downstream only needs its first row and eigenvalues,
so that pair is bundled in CorrelationSpectrum.

A symmetric Toeplitz matrix is centrosymmetric, so its spectrum is the
union of the spectra of an even and an odd parity sector of half the
size (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275). Each sector
goes through a blocked Householder reduction to tridiagonal form, and
LAPACK dsterf (eigenvalues-only implicit QL/QR) takes the tridiagonal.

The reduction is blocked as in LAPACK dsytrd: reflectors are gathered
in panels of 32 and applied to the trailing matrix as one rank-64
product. Every BLAS product in it has at most 256 rows, and the panels
are laid out so that every update spans a multiple of 32 columns.
dsterf makes no BLAS call. So up to L = 2048 (sectors of 1024 rows) the
output has the same bits under any BLAS thread count, and the
eigenvalues agree with LAPACK's divide and conquer to 1e-10.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsterf

from .errors import (
    AccuracyError,
    DegenerateGroundStateError,
    DomainError,
    EigenConvergenceError,
    SingularMatrixError,
)
from .models import _check_count, mode_energies

_PANEL = 32        # reflectors per rank-2b update of the reduction
_ROW_BLOCK = 256   # rows per BLAS product in the reduction


@dataclass(frozen=True)
class CorrelationSpectrum:
    """First row and eigenvalues of the L x L correlation matrix.

    trace_gap (|sum of eigenvalues - trace|) and range_dev (how far the
    eigenvalues leave [0, 1], or 0) are the achieved errors of the two
    gates a built spectrum passed, or None when it was not checked.
    """

    L: int
    first_row: np.ndarray
    eigenvalues: np.ndarray
    trace_gap: float = None
    range_dev: float = None


def correlation_row(analysis, L):
    """First row of A_L in the thermodynamic limit.

    Entry at lag d is (1/2pi) int_{E<mu} e^{-ipd} dp.  Over a reflection
    symmetric sea this collapses to sums of sin at the sea boundary
    points, [sin(b d) - sin(a d)]/(pi d) per half-period interval (a, b);
    the endpoints 0 and pi contribute nothing at integer lag.
    """
    L = _check_count(L, "block length")
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
    the row real, (1/N) sum_l n_l cos(2 pi d l / N), which one inverse
    real FFT of the occupations n_l gives.  A mode energy within 1e-12
    of mu means the ground state is degenerate and no canonical
    occupation exists.
    """
    L = _check_count(L, "block length")
    N = _check_count(N, "ring size")
    if N < L:
        raise DomainError(f"ring size {N} smaller than block length {L}")
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError(f"chemical potential must be finite, got {mu}")
    energies = mode_energies(model, N)
    hits = np.nonzero(np.abs(energies - mu) < 1e-12)[0]
    if hits.size:
        raise DegenerateGroundStateError(
            f"mode l={int(hits[0])} of N={N} has energy within 1e-12 of "
            f"mu={mu}; ground state is degenerate")
    filled = (energies[:N // 2 + 1] < mu).astype(float)
    return np.fft.irfft(filled, n=N)[:L]


def _by_rows(M, x, out):
    # out = M @ x, one block of at most _ROW_BLOCK rows per BLAS call.
    # OpenBLAS runs a matrix-vector product that small on one thread in
    # sectors of up to 1024 rows, so its bits do not depend on the thread
    # count (with whole 2048-row sectors they do).
    for r in range(0, M.shape[0], _ROW_BLOCK):
        np.matmul(M[r:r + _ROW_BLOCK], x, out=out[r:r + _ROW_BLOCK])
    return out


def _tridiagonalize(A):
    # Blocked Householder reduction of a symmetric matrix, in place
    # (LAPACK dsytrd/dlatrd; Dongarra, Sorensen & Hammarling, J. Comput.
    # Appl. Math. 27 (1989) 215).  Returns the diagonal and subdiagonal
    # of the similar tridiagonal matrix.
    #
    # Reflector k, H = I - 2 v v^T, turns the trailing matrix S into
    # S - v w^T - w v^T with w = 2 (p - (v.p) v), p = S v.  A panel holds
    # these updates back in U = [.. v w ..] and Z = [.. w v ..], so the
    # trailing matrix is A - U Z^T until the panel ends and the rest of
    # A takes them as one rank-2b product.  Row k stands in for column k
    # (both triangles are kept), because rows are contiguous.
    #
    # Panels end at n - q _PANEL (the first one is the short one), so
    # every rank-2b update spans a multiple of _PANEL rows and columns.
    # A threaded OpenBLAS gemm whose column count is not a multiple of 8
    # rounds differently under 1 and 2 threads; on these shapes it does
    # not.
    n = A.shape[0]
    d = np.empty(n)
    e = np.zeros(n - 1)
    p = np.empty(n)
    corr = np.empty(n)
    s0, s = 0, n % _PANEL or _PANEL
    while s0 < n - 2:
        s = min(s, n - 2)                  # first column after the panel
        U = np.zeros((n - s0, 2 * (s - s0)))
        Z = np.zeros_like(U)
        for k in range(s0, s):
            j = 2 * (k - s0)               # columns of U, Z in use
            r = k - s0                     # row of U, Z that holds row k
            x = A[k, k:] - _by_rows(Z[r:, :j], U[r, :j], corr[:n - k])
            d[k] = x[0]
            x = x[1:]
            nrm = math.sqrt(float(x @ x))
            if nrm == 0.0:
                continue                   # e[k] = 0, U and Z keep zeros
            alpha = -math.copysign(nrm, x[0])
            e[k] = alpha
            v = x
            v[0] -= alpha  # same-sign add, no cancellation
            v /= math.sqrt(float(v @ v))
            m = n - k - 1
            pk = _by_rows(A[k + 1:, k + 1:], v, p[:m])
            pk -= _by_rows(U[r + 1:, :j], Z[r + 1:, :j].T @ v, corr[:m])
            w = pk - (v @ pk) * v
            w *= 2.0
            U[r + 1:, j] = Z[r + 1:, j + 1] = v
            U[r + 1:, j + 1] = Z[r + 1:, j] = w
        # A[s:, s:] -= U Z^T, in place, one row block at a time
        Zt = Z[s - s0:].T
        for i in range(s, n, _ROW_BLOCK):
            A[i:i + _ROW_BLOCK, s:] -= U[i - s0:i - s0 + _ROW_BLOCK] @ Zt
        s0, s = s, s + _PANEL
    d[-2:] = np.diag(A)[-2:]
    if n > 1:
        e[-1] = A[-2, -1]
    return d, e


def eigenvalues_symmetric(first_row):
    """All eigenvalues of the symmetric Toeplitz matrix with this first
    row, sorted ascending."""
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise DomainError("first row must be a non-empty 1-d array")
    if not np.all(np.isfinite(row)):
        raise DomainError("first row contains non-finite entries")
    if row.size == 1:
        return row.copy()
    vals = []
    for sector in _parity_sectors(row):
        d, e = _tridiagonalize(sector)
        if e.size:                 # the wrapper refuses a 1-row tridiagonal
            d, info = dsterf(d, e)
            if info > 0:
                raise EigenConvergenceError(size=d.size, unconverged=info)
        vals.append(d)
    return np.sort(np.concatenate(vals))


def _parity_sectors(t):
    # Even and odd sectors of the symmetric Toeplitz matrix with first
    # row t, sizes ceil(n/2) and floor(n/2). With m = n // 2, B the
    # leading m x m block and H_ij = t[n-1-i-j] its mirrored neighbour,
    # the odd sector is B - H and the even one B + H; for odd n the even
    # sector is bordered by the middle column sqrt(2) t[m-i], t[0] in the
    # corner.
    n = t.size
    m = n // 2
    i = np.arange(m)
    B = t[np.abs(i[:, None] - i)]
    H = t[n - 1 - i[:, None] - i]
    even = np.empty((n - m, n - m))
    np.add(B, H, out=even[:m, :m])
    if n > 2 * m:
        even[:m, m] = even[m, :m] = math.sqrt(2.0) * t[m - i]
        even[m, m] = t[0]
    B -= H
    return even, B


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
    return CorrelationSpectrum(L=L, first_row=row, eigenvalues=eig,
                               trace_gap=trace_gap, range_dev=dev)


def correlation_spectrum(analysis, L):
    """Build and cross-check the L x L spectrum from a critical sea."""
    L = _check_count(L, "block length")
    return _checked_spectrum(L, correlation_row(analysis, L))


def correlation_spectrum_finite(model, mu, L, N):
    """Same checks, with the row taken from an N-site ring."""
    L = _check_count(L, "block length")
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
