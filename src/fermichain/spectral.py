"""Ground-state correlation matrices and their spectra.

The two-point function of a translation-invariant free-fermion ground
state is a symmetric Toeplitz matrix A_L.  Everything entropy- or
determinant-shaped downstream only needs its eigenvalues, and the
asymptotic side the Fermi points of the sea, so CorrelationSpectrum
bundles them.

A symmetric Toeplitz matrix is centrosymmetric, so its spectrum is the
union of the spectra of an even and an odd parity sector of half the
size (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275). The sectors
are built one at a time, the odd one first, each at its own size, and
each goes through two stages (Bischof, Lang & Sun, ACM TOMS 26 (2000)
581):

1. LAPACK dsytrd_sy2sb (Haidar, Ltaief & Dongarra, SC'11) from the
   sector to bandwidth 32: a QR factorisation of the 32 columns below
   the band at a time, each applied to the trailing matrix as BLAS-3
   products;
2. LAPACK dsbevd (dsbtrd to tridiagonal, then dsterf) from the band to
   the eigenvalues.  Its info > 0 raises EigenConvergenceError.

Both routines are called through ctypes, which releases the GIL.  The
odd sector's matrix is freed once its band is made, and a worker thread
runs that band's stage 2 while the calling thread builds and reduces
the even sector and then runs its stage 2.  The worker is started with
_thread.start_new_thread, which, unlike threading.Thread.start, does not
wait for the new thread to run, so the caller goes on at once.  The
worker releases a lock the caller holds; the caller waits on that lock,
also when its own sector fails, and raises the worker's error.  So the
two stages run on two cores.  The working set stays one sector (N x N,
N = ceil(L/2)), stage 1's 64 x N workspace and the two 33 x N bands: a
traced peak of about 2.7 / 9.5 MB per call at L = 1024 / 2048.  The
eigenvalues agree with LAPACK's divide and conquer to 1e-10.  Timings
per L, thread count and CPU pinning are in the README's "Eigensolver
speed" table.

dsytrd_sy2sb and dsbevd come from the OpenBLAS bundled with numpy's
wheel. The first solve opens numpy.linalg._umath_linalg's file with
ctypes.CDLL (_lapack, bound once and cached) and looks up
scipy_dsytrd_sy2sb_64_, scipy_dsbevd_64_ and
openblas_set_num_threads_local in it and the libraries it links; the
routines take ILP64 integers (_INT). A build without one of them raises
an ImportError naming the symbol and file.  Solves take turns under one
lock, each with OpenBLAS at one thread, and that is what gives the
output the same bits whatever OPENBLAS_NUM_THREADS says: with more
threads the band reduction's bits change with the thread count (at
L = 511, 1023, 1056, 2047 and 3001 for Haldane-Shastry at mu = 2).  The
count is the process's, so other BLAS calls get one thread meanwhile,
and the old count is set back after, also on error.  Code outside the
library that sets the process's count while a solve runs would undo
that guarantee for the rest of the solve.

The last solve is kept by functools.lru_cache(maxsize=1), keyed by the
row's bytes: the same row again (entropy and then fh-check on one
block) gets a copy of its eigenvalues and runs no LAPACK.
"""

import _thread
import ctypes
import functools
import math
import types
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AccuracyError,
    DegenerateGroundStateError,
    DomainError,
    EigenConvergenceError,
    _check_count,
    _check_real,
    _check_reals,
)
from .models import mode_energies

_BAND = 32         # bandwidth of the band form
_INT = ctypes.c_int64   # LAPACK's integer in numpy's ILP64 OpenBLAS
# what _lapack binds: symbol, argument and result types. The Fortran
# routines take all by reference, string lengths last; OpenBLAS's
# thread-count setter takes an int and returns the count it replaced.
_SYMBOLS = {
    "dsytrd_sy2sb": ("scipy_dsytrd_sy2sb_64_", [ctypes.c_char_p]
                     + [ctypes.c_void_p] * 10 + [ctypes.c_size_t], None),
    "dsbevd": ("scipy_dsbevd_64_", [ctypes.c_char_p] * 2
               + [ctypes.c_void_p] * 12 + [ctypes.c_size_t] * 2, None),
    "set_num_threads": ("openblas_set_num_threads_local", None, ctypes.c_int),
}
_solve_lock = _thread.allocate_lock()   # held by the running solve


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


@functools.cache
def _lapack():
    # binds _SYMBOLS from the file of numpy's _umath_linalg extension,
    # which ctypes.CDLL opens, and the OpenBLAS it links. _solve calls it
    # first under _solve_lock, so concurrent first solves bind them once;
    # a failed bind raises and is not cached.
    path = _umath_linalg.__file__
    library = ctypes.CDLL(path)
    found = {}
    for name, (symbol, argtypes, restype) in _SYMBOLS.items():
        function = getattr(library, symbol, None)
        if function is None:
            raise ImportError(
                f"{symbol} is not in {path} or the libraries it links",
                name=_umath_linalg.__name__, path=path)
        function.argtypes = argtypes
        function.restype = restype
        found[name] = function
    return types.SimpleNamespace(**found)


def _band(A):
    # Stage 1: the symmetric N x N matrix A reduced by dsytrd_sy2sb to
    # bandwidth min(_BAND, N - 1) with the same eigenvalues, as a band in
    # LAPACK's lower storage.  A is overwritten.
    N = A.shape[0]
    ab = np.zeros((N, _BAND + 1))   # the Fortran (_BAND + 1) x N band
    tau = np.empty(N)
    # the documented LWORK, with NB = 32 the block size of LAPACK's dgeqrf
    lwork = N * _BAND + N * max(_BAND, 32) + 2 * _BAND * _BAND
    work = np.empty(lwork)
    info = _INT()
    _lapack().dsytrd_sy2sb(
        b"L", ctypes.byref(_INT(N)), ctypes.byref(_INT(_BAND)),
        A.ctypes.data, ctypes.byref(_INT(N)),   # symmetric: C order is F
        ab.ctypes.data, ctypes.byref(_INT(_BAND + 1)), tau.ctypes.data,
        work.ctypes.data, ctypes.byref(_INT(lwork)), ctypes.byref(info), 1)
    if info.value:
        raise RuntimeError(f"LAPACK dsytrd_sy2sb returned info {info.value}")
    return np.asfortranarray(ab.T[:min(_BAND, N - 1) + 1])


def _band_eigenvalues(ab):
    # Stage 2: dsbevd (dsbtrd, then dsterf) on the band ab in LAPACK's
    # lower storage, which it overwrites, as (eigenvalues, info); a 1-row
    # band comes back as it is.  The call goes through ctypes, which
    # releases the GIL while LAPACK runs.
    kd1, n = ab.shape
    w = np.empty(n)
    work = np.empty(2 * n)
    iwork, info = _INT(), _INT()
    one = ctypes.byref(_INT(1))
    _lapack().dsbevd(
        b"N", b"L", ctypes.byref(_INT(n)), ctypes.byref(_INT(kd1 - 1)),
        ab.ctypes.data, ctypes.byref(_INT(kd1)), w.ctypes.data,
        w.ctypes.data, one,     # Z and LDZ, not referenced for JOBZ = N
        work.ctypes.data, ctypes.byref(_INT(2 * n)), ctypes.byref(iwork),
        one, ctypes.byref(info), 1, 1)
    return w, info.value


def eigenvalues_symmetric(first_row):
    """All eigenvalues of the symmetric Toeplitz matrix with this first
    row, sorted ascending.

    A row with the bytes of the last one solved gets a copy of its
    eigenvalues back without a new solve.
    """
    row = _check_reals(first_row, "first row")
    if np.ndim(first_row) != 1 or row.size < 1:
        raise DomainError("first row must be a non-empty 1-d array")
    if row.size == 1:
        return row
    return _solve(row.tobytes()).copy()


@functools.lru_cache(maxsize=1)
def _solve(key):
    # sorted eigenvalues of the Toeplitz matrix whose first row has these
    # bytes; the cache's array is never handed out, callers get copies.
    # The worker calls only private functions: a tracer that wraps the
    # public ones keeps one span stack, which a second thread would break.
    # The worker is a bare _thread, whose start does not wait for it to
    # run, as threading.Thread.start does. It releases `done`, held from
    # the start, once its band is solved or has failed, and the caller
    # acquires `done` before it returns or raises. Solves take turns.
    row = np.frombuffer(key)
    with _solve_lock:
        lapack = _lapack()
        count = lapack.set_num_threads(1)
        try:
            band = _band(_parity_sector(row, True))
            found = []
            done = _thread.allocate_lock()
            done.acquire()

            def work():
                try:
                    found.append(_band_eigenvalues(band))
                except BaseException as error:
                    found.append(error)
                finally:
                    done.release()

            _thread.start_new_thread(work, ())
            try:
                even = _band_eigenvalues(_band(_parity_sector(row, False)))
            finally:
                done.acquire()
        finally:
            lapack.set_num_threads(count)
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
    # row t, of size floor(n/2) or ceil(n/2). With m = n // 2,
    # B the leading m x m block and H_ij = t[n-1-i-j] its mirrored
    # neighbour, the odd sector is B - H and the even one B + H; for odd
    # n the even sector is bordered by the middle column sqrt(2) t[m-i],
    # t[0] in the corner.
    n = t.size
    m = n // 2
    size = m if odd else n - m
    A = np.zeros((size, size))
    # B and H as strided views of t, so no m x m temporary is made
    window = np.lib.stride_tricks.sliding_window_view
    B = window(np.concatenate([t[m - 1:0:-1], t[:m]]), m)[::-1]
    H = window(t[::-1], m)[:m]
    (np.subtract if odd else np.add)(B, H, out=A[:m, :m])
    if size > m:
        A[:m, m] = A[m, :m] = math.sqrt(2.0) * t[m:0:-1]
        A[m, m] = t[0]
    return A


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

