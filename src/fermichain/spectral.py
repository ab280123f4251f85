"""Ground-state correlation matrices and their spectra.

The two-point function of a translation-invariant free-fermion ground
state is a symmetric Toeplitz matrix A_L.  Everything entropy- or
determinant-shaped downstream only needs its eigenvalues, and the
asymptotic side the Fermi points of the sea, so CorrelationSpectrum
bundles them.

A symmetric Toeplitz matrix is centrosymmetric, so its spectrum is the
union of the spectra of an even and an odd parity sector of half the
size (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275). The sectors
are built one at a time, the odd one first, each padded with zero rows
and columns to a multiple of 32, and each goes through two stages
(Bischof, Lang & Sun, ACM TOMS 26 (2000) 581):

1. dense to bandwidth 16, one panel of 16 columns per step: LAPACK
   dgeqrt factors the rows below the band, and the panel's compact-WY
   reflector updates the trailing matrix.  Panels come in pairs, and the
   trailing matrix takes a pair's two reflectors as one rank-64
   product, 64 rows at a time, on and below the diagonal only; each
   block above the diagonal is then copied from its mirror below;
2. LAPACK dsbevd (dsbtrd to tridiagonal, then dsterf) from the band to
   the eigenvalues.  Its info > 0 raises EigenConvergenceError.

The odd sector's matrix is freed once its band is made, and a worker
thread runs that band's stage 2 while the calling thread builds and
reduces the even sector and then runs its stage 2; the caller joins the
worker, also when its own sector fails, and raises the worker's error.
dsbevd is called through ctypes, which releases the GIL, so the two
stages run on two cores.  The working set stays one padded sector (N x
N, N = ceil(ceil(L/2)/32) * 32) plus a 64 x N product, a few N x 64
panel arrays and the two 17 x N bands: a traced peak of about 3.6 /
11.4 MB per call at L = 1024 / 2048.

Each dimension of a stage-1 BLAS product that runs over the sector is
a multiple of 32: a panel whose trailing matrix starts at an odd
multiple of 16 is applied from the multiple of 32 before it, its
reflector zero on the 16 rows in between.  dsbevd calls BLAS only for
plane rotations of at most 16 entries.  So up to L = 8192 the output
has the same bits under 1 to 4 BLAS threads; without that alignment
the bits differ between 1 and 2 threads at every L tried from 1000 on.
The eigenvalues agree with LAPACK's divide and conquer to 1e-10.  A
spectrum takes about 1.4 / 4.8 / 20 / 121 / 780 ms at L = 256 / 512 /
1024 / 2048 / 4096 (Haldane-Shastry at mu = 2) with one BLAS thread on
a 2-core Intel Xeon, against 1.5 / 5.6 / 25 / 144 / 885 ms with both
sectors on one thread.  With no core free for the worker (the process
pinned to one CPU) it takes 1.7 / 5.9 / 25 / 145 / 885 ms.

dgeqrt and dsbevd come from scipy's compiled LAPACK extension,
scipy.linalg._flapack, the module scipy.linalg.lapack re-exports them
from; dsbevd is called as the Fortran routine that its f2py wrapper
points to.  The first solve loads that one file from scipy's package
directory (_lapack) and imports neither scipy nor scipy.linalg, whose
package imports would add about 0.1 s and 24 MB to a cold entropy or
fh-check run.  A later import of scipy.linalg reuses the loaded module,
so the routines, and the bits, are the same.  A missing file raises an
ImportError that names the directory searched.

The last solve is kept by functools.lru_cache(maxsize=1), keyed by the
row's bytes: the same row again (entropy and then fh-check on one
block) gets a copy of its eigenvalues and runs no LAPACK.
"""

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import types
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateGroundStateError,
    DomainError,
    EigenConvergenceError,
    _check_count,
    _check_real,
)
from .models import mode_energies

_PANEL = 16        # bandwidth of the band form, and columns per panel
_ALIGN = 32        # sector rows, and BLAS dimensions that run over them,
                   # are multiples of it; a pair of panels spans it
# the upper triangle of a panel's first _PANEL rows, which holds R in
# dgeqrt's output, and the identity's entries there in V
_UPPER = np.triu(np.ones((_PANEL, _PANEL), dtype=bool))
_UNIT = np.eye(_PANEL)

# scipy's compiled LAPACK wrappers: the module whose dgeqrt and dsbevd
# scipy.linalg.lapack re-exports
_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()
_routines = {}     # the loaded module -> what _lapack hands out


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Eigenvalues of the L x L correlation matrix.

    trace_gap (|sum of eigenvalues - trace|) and range_dev (how far the
    eigenvalues leave [0, 1], or 0) are the achieved errors of the two
    gates a built spectrum passed, or None when it was not checked.
    fermi_momenta holds the Fermi points of the critical sea the block
    was cut from, or None for a ring or a hand-built spectrum.
    """

    L: int
    eigenvalues: np.ndarray
    trace_gap: float = None
    range_dev: float = None
    fermi_momenta: tuple = None


def _critical_momenta(analysis, needs):
    """The Fermi momenta of a sea bounded by simple Fermi points.

    Any other phase is refused with a DomainError that begins with
    `needs`, the name of what requires such a sea.
    """
    if analysis.phase != "critical":
        raise DomainError(
            f"{needs} a sea bounded by simple Fermi points; "
            f"phase is {analysis.phase!r}")
    return [p for p, _ in analysis.roots]


def correlation_row(analysis, L):
    """First row of A_L in the thermodynamic limit.

    Entry at lag d is (1/2pi) int_{E<mu} e^{-ipd} dp.  Over a reflection
    symmetric sea this collapses to sums of sin at the sea boundary
    points, [sin(b d) - sin(a d)]/(pi d) per half-period interval (a, b);
    the endpoints 0 and pi contribute nothing at integer lag.
    """
    L = _check_count(L, "block length")
    _critical_momenta(analysis, "correlation row needs")
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
    mu = _check_real(mu, "chemical potential")
    energies = mode_energies(model, N)
    hits = np.nonzero(np.abs(energies - mu) < 1e-12)[0]
    if hits.size:
        raise DegenerateGroundStateError(
            f"mode l={int(hits[0])} of N={N} has energy within 1e-12 of "
            f"mu={mu}; ground state is degenerate")
    filled = (energies[:N // 2 + 1] < mu).astype(float)
    return np.fft.irfft(filled, n=N)[:L]


def _lapack():
    # dgeqrt and dsbevd of scipy's LAPACK extension module, which is
    # loaded from its file on the first call and kept in sys.modules under
    # its own name. find_spec gives scipy's package directory without
    # running scipy's __init__. The lock makes concurrent first calls load
    # it, and build the ctypes dsbevd, once.
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            where = [os.path.join(d, "linalg") for d in
                     (scipy.submodule_search_locations if scipy else [])]
            files = [os.path.join(d, "_flapack" + suffix) for d in where
                     for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            files = [f for f in files if os.path.isfile(f)]
            if not files:
                raise ImportError(
                    "scipy's LAPACK extension _flapack is not in "
                    + (" or ".join(where) or "any directory: no scipy"),
                    name=_FLAPACK)
            spec = importlib.util.spec_from_file_location(_FLAPACK, files[0])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
        if module not in _routines:
            # the Fortran routine that f2py's dsbevd wraps: every argument
            # by reference, C int integers, and the lengths of JOBZ and
            # UPLO last
            pointer = ctypes.PYFUNCTYPE(
                ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
                ("PyCapsule_GetPointer", ctypes.pythonapi))
            fortran = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14,
                                       ctypes.c_size_t, ctypes.c_size_t)
            _routines[module] = types.SimpleNamespace(
                dgeqrt=module.dgeqrt,
                dsbevd=fortran(pointer(module.dsbevd._cpointer, None)))
        return _routines[module]


def _band(A, n):
    # Stage 1: the leading n x n block of A, a symmetric matrix of a
    # multiple of _ALIGN rows that is zero outside that block, reduced to
    # bandwidth min(_PANEL, n - 1) with the same eigenvalues, as a band in
    # LAPACK's lower storage.  A is overwritten.
    lapack = _lapack()
    N = A.shape[0]
    P = _PANEL
    stop = n - P - 1    # the panels end where one row or none lies below
    prod = np.empty((2 * _ALIGN, N))

    # Stage 1, to bandwidth _PANEL: dgeqrt factors the _PANEL columns
    # below the band as Q R with Q = I - V T V^T, R goes into the band,
    # and the trailing block C becomes Q^T C Q = C - V Y^T - Y V^T with
    # W = C V T and Y = W - V (T^T V^T W) / 2.  Panels go in pairs from
    # each multiple g of _ALIGN: the second panel's columns first take
    # the first one's update, its W takes that update of C as a
    # correction, and C takes both after the pair as one product.  A
    # panel whose C starts at an odd multiple of _PANEL works on C from
    # the multiple of _ALIGN before it, with V and Y zero on the rows in
    # between.  The reflectors are zero on the zero padding rows, so the
    # padding stays zero.
    for g in range(0, stop, _ALIGN):
        m = N - g
        # the pair's [V Y V' Y'] and [Y V Y' V']^T on rows g and on
        U = np.zeros((m, 2 * _ALIGN))
        Zt = np.zeros((2 * _ALIGN, m))
        work = np.empty((m, P))
        used = 0    # columns of U the pair's panels fill so far
        for k in range(g, min(g + _ALIGN, stop), P):
            r = k + P
            s = r - r % _ALIGN - g      # C is A[g + s:, g + s:]
            pad = r - g - s
            if used:    # the second panel takes the first one's update
                A[g:, k:r] -= np.matmul(U[:, :used], Zt[:used, k - g:r - g],
                                        out=work)
            qr, T, _ = lapack.dgeqrt(P, A[r:, k:r])
            A[r:r + P, k:r] = qr[:P]    # R; nothing reads below its diagonal
            V = U[s:, used:used + P]
            Y = U[s:, used + P:used + 2 * P]
            V[pad:] = qr
            np.copyto(V[pad:pad + P], _UNIT, where=_UPPER)
            VT = np.matmul(V, T, out=work[s:])
            np.matmul(A[g + s:, g + s:], VT, out=Y)
            if used:
                Y -= U[s:, :used] @ (Zt[:used, s:] @ VT)
            Y -= np.matmul(V, T.T @ (V.T @ Y) * 0.5, out=VT)
            Y[:pad] = 0.0
            Zt[used:used + P, s:] = Y.T
            Zt[used + P:used + 2 * P, s:] = V.T
            used += 2 * P
        # C from the pair's last panel on takes the update on and below
        # the diagonal, 2 _ALIGN rows at a time; the blocks above the
        # diagonal are copied from their mirror images below it
        C = A[g + s:, g + s:]
        for i in range(0, m - s, 2 * _ALIGN):
            e = min(i + 2 * _ALIGN, m - s)
            C[i:e, :e] -= np.matmul(U[s + i:s + e, :used], Zt[:used, s:s + e],
                                    out=prod[:e - i, :e])
            C[:i, i:e] = C[i:e, :i].T
    kd = min(_PANEL, n - 1)
    ab = np.zeros((kd + 1, n), order="F")   # ab[i, j] = A[j + i, j]
    for i in range(kd + 1):
        ab[i, :n - i] = np.diagonal(A, -i)[:n - i]
    return ab


def _band_eigenvalues(ab):
    # Stage 2: dsbevd (dsbtrd, then dsterf) on the band ab in LAPACK's
    # lower storage, which it overwrites, as (eigenvalues, info); a 1-row
    # band comes back as it is.  The call goes through ctypes, which
    # releases the GIL while LAPACK runs.
    size = ctypes.c_int
    kd1, n = ab.shape
    w = np.empty(n)
    work = np.empty(2 * n)
    iwork, info = size(), size()
    one = ctypes.byref(size(1))
    _lapack().dsbevd(
        b"N", b"L", ctypes.byref(size(n)), ctypes.byref(size(kd1 - 1)),
        ab.ctypes.data, ctypes.byref(size(kd1)), w.ctypes.data,
        w.ctypes.data, one,     # Z and LDZ, not referenced for JOBZ = N
        work.ctypes.data, ctypes.byref(size(2 * n)), ctypes.byref(iwork),
        one, ctypes.byref(info), 1, 1)
    return w, info.value


def eigenvalues_symmetric(first_row):
    """All eigenvalues of the symmetric Toeplitz matrix with this first
    row, sorted ascending.

    A row with the bytes of the last one solved gets a copy of its
    eigenvalues back without a new solve.
    """
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or row.size < 1:
        raise DomainError("first row must be a non-empty 1-d array")
    if not np.all(np.isfinite(row)):
        raise DomainError("first row contains non-finite entries")
    if row.size == 1:
        return row.copy()
    return _solve(row.tobytes()).copy()


@functools.lru_cache(maxsize=1)
def _solve(key):
    # sorted eigenvalues of the Toeplitz matrix whose first row has these
    # bytes; the cache's array is never handed out, callers get copies.
    # The worker calls only private functions: a tracer that wraps the
    # public ones keeps one span stack, which a second thread would break.
    row = np.frombuffer(key)
    band = _band(*_parity_sector(row, True))
    found = []

    def work():
        try:
            found.append(_band_eigenvalues(band))
        except BaseException as error:
            found.append(error)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        even = _band_eigenvalues(_band(*_parity_sector(row, False)))
    finally:
        worker.join()
    odd = found[0]
    if isinstance(odd, BaseException):
        raise odd
    for w, info in (even, odd):
        if info > 0:
            raise EigenConvergenceError(
                f"eigensolver did not converge for a {w.size}x{w.size} "
                f"tridiagonal: {info} off-diagonal entries left nonzero",
                achieved=info, target=0)
    return np.sort(np.concatenate([even[0], odd[0]]))


def _parity_sector(t, odd):
    # The odd or even sector of the symmetric Toeplitz matrix with first
    # row t, of size floor(n/2) or ceil(n/2), as (matrix, size) with the
    # matrix padded by zeros to a multiple of _ALIGN rows. With m = n // 2,
    # B the leading m x m block and H_ij = t[n-1-i-j] its mirrored
    # neighbour, the odd sector is B - H and the even one B + H; for odd
    # n the even sector is bordered by the middle column sqrt(2) t[m-i],
    # t[0] in the corner.
    n = t.size
    m = n // 2
    size = m if odd else n - m
    A = np.zeros((-(-size // _ALIGN) * _ALIGN,) * 2)
    # B and H as strided views of t, so no m x m temporary is made
    window = np.lib.stride_tricks.sliding_window_view
    B = window(np.concatenate([t[m - 1:0:-1], t[:m]]), m)[::-1]
    H = window(t[::-1], m)[:m]
    (np.subtract if odd else np.add)(B, H, out=A[:m, :m])
    if size > m:
        A[:m, m] = A[m, :m] = math.sqrt(2.0) * t[m:0:-1]
        A[m, m] = t[0]
    return A, size


def _checked_spectrum(row, fermi_momenta=None):
    L = row.size
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
    return CorrelationSpectrum(L=L, eigenvalues=eig, trace_gap=trace_gap,
                               range_dev=dev, fermi_momenta=fermi_momenta)


def correlation_spectrum(analysis, L):
    """Build and cross-check the L x L spectrum from a critical sea; it
    carries the sea's Fermi points."""
    row = correlation_row(analysis, L)   # refuses a non-critical sea
    return _checked_spectrum(row, tuple(p for p, _ in analysis.roots))


def correlation_spectrum_finite(model, mu, L, N):
    """Same checks, with the row taken from an N-site ring."""
    return _checked_spectrum(correlation_row_finite(model, mu, L, N))

