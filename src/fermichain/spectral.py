"""Ground-state correlation matrices and their spectra.

The two-point function of a translation-invariant free-fermion ground
state is a symmetric Toeplitz matrix A_L.  Everything entropy- or
determinant-shaped downstream only needs its eigenvalues, and the
asymptotic side the Fermi points of the sea, so CorrelationSpectrum
bundles them.

A symmetric Toeplitz matrix is centrosymmetric, so its spectrum is the
union of the spectra of an even and an odd parity sector of half the
size (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275). Both
sectors are built into one C-ordered (N + 1) x (N + 1) buffer,
N = ceil(L/2): the even sector's upper triangle strictly above its
diagonal, the odd sector's lower triangle strictly below it. Each
triangle goes through one LAPACK stage, dsytrd to tridiagonal form
(blocked, 32 columns a panel) and then dsterf, whose info > 0 raises
EigenConvergenceError.

Both routines are called through ctypes, which releases the GIL. A
worker thread reduces the odd triangle while the calling thread
reduces the even one; each reads and writes its own triangle alone, so
the two run on two cores in one buffer. The worker is started with
_thread.start_new_thread, which, unlike threading.Thread.start, does
not wait for the new thread to run, so the caller goes on at once. The
worker releases a lock the caller holds; the caller waits on that lock,
also when its own sector fails, and raises the worker's error. The
working set is the buffer and dsytrd's two 32 x N workspaces: a traced
peak of about 2.4 / 9.0 MB per call at L = 1024 / 2048. The eigenvalues
agree with LAPACK's divide and conquer to 1e-10. Timings per L, thread
count and CPU pinning are in the README's "Eigensolver speed" table.

dsytrd and dsterf come from the OpenBLAS bundled with numpy's wheel.
The first solve opens numpy.linalg._umath_linalg's file with
ctypes.CDLL (_lapack, bound once and cached) and looks up
scipy_dsytrd_64_, scipy_dsterf_64_ and openblas_set_num_threads_local
in it and the libraries it links; the routines take ILP64 integers
(_INT). A build without one of them raises an ImportError naming the
symbol and file.  Solves take turns under one lock, which they take
before the buffer is built, so concurrent callers hold one buffer at a
time. Each solve runs OpenBLAS at one thread, and that is what gives
the output the same bits whatever OPENBLAS_NUM_THREADS says: with two
threads dsytrd's bits change (for Haldane-Shastry at mu = 2, at
L = 511, 512, 1023, 1024, 1056, 2047, 2048, 3001 and 4096, though not
at 256).  The count is the process's, so other BLAS calls get one
thread meanwhile, and the old count is set back after, also on error.
Code outside the library that sets the process's count while a solve
runs would undo that guarantee for the rest of the solve.

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
    _check_roots,
)
from .models import mode_energies

_NB = 32           # dsytrd's block size, so N * _NB is its optimal LWORK
_INT = ctypes.c_int64   # LAPACK's integer in numpy's ILP64 OpenBLAS
# what _lapack binds: symbol, argument and result types. The Fortran
# routines take all by reference, string lengths last; OpenBLAS's
# thread-count setter takes an int and returns the count it replaced.
_SYMBOLS = {
    "dsytrd": ("scipy_dsytrd_64_", [ctypes.c_char_p]
               + [ctypes.c_void_p] * 9 + [ctypes.c_size_t], None),
    "dsterf": ("scipy_dsterf_64_", [ctypes.c_void_p] * 4, None),
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

    Building one, by hand or with dataclasses.replace, checks it once:
    L is a count, stored as an int, eigenvalues has shape (L,), and
    fermi_momenta, unless None, are Fermi points as f_factor takes them,
    stored as a tuple of floats. The eigenvalues themselves are not
    read here; the entropy kernel refuses one outside [0, 1].
    """

    L: int
    eigenvalues: np.ndarray
    trace_gap: float = None
    range_dev: float = None
    fermi_momenta: tuple = None

    def __post_init__(self):
        L = _check_count(self.L, "block length")
        if np.shape(self.eigenvalues) != (L,):
            raise DomainError(f"a block of length {L} has {L} eigenvalues, "
                              f"got shape {np.shape(self.eigenvalues)}")
        object.__setattr__(self, "L", L)
        if self.fermi_momenta is not None:
            object.__setattr__(self, "fermi_momenta",
                               tuple(_check_roots(self.fermi_momenta)))


def _critical_momenta(analysis, needs):
    """The Fermi momenta of a sea bounded by simple Fermi points.

    Any other phase is refused with a DomainError that begins with
    `needs`, the name of what requires such a sea. A critical
    FermiAnalysis checked its roots when it was built, and they are the
    edges of the sea that correlation_row reads, so the row and a
    spectrum's Fermi momenta describe one sea.
    """
    if analysis.phase != "critical":
        raise DomainError(
            f"{needs} a sea bounded by simple Fermi points; "
            f"phase is {analysis.phase!r}")
    return [p for p, _ in analysis.roots]


def _filling(sea_half):
    # the filled fraction of the zone, the half sea's measure over pi:
    # A_L's diagonal, and the P of the determinant's jump symbol
    return sum(b - a for a, b in sea_half) / math.pi


def correlation_row(analysis, L):
    """First row of A_L in the thermodynamic limit.

    Entry at lag d is (1/2pi) int_{E<mu} e^{-ipd} dp.  Over a reflection
    symmetric sea this collapses to sums of sin at the sea boundary
    points, [sin(b d) - sin(a d)]/(pi d) per half-period interval (a, b);
    the endpoints 0 and pi contribute nothing at integer lag.
    """
    L = _check_count(L, "block length")
    _critical_momenta(analysis, "correlation row needs")
    row = np.empty(L)
    row[0] = _filling(analysis.sea_half)
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


def _sector_eigenvalues(X, n, odd):
    # dsytrd, then dsterf, on the n-row odd or even sector of the buffer
    # X from _parity_sectors, as (eigenvalues ascending, dsterf's info).
    # Fortran reads the C-ordered X transposed: the even sector's upper
    # triangle in X[:, 1:] is the lower triangle ('L') of the matrix at
    # X + 8, the odd sector's lower triangle in X[1:] the upper one ('U')
    # of the matrix at X + 8 lda. The reduction overwrites that triangle
    # alone. Both calls go through ctypes, which releases the GIL.
    lda = X.shape[0]
    uplo, offset = (b"U", X.strides[0]) if odd else (b"L", X.strides[1])
    d = np.empty(n)
    e = np.empty(n)     # e and tau need n - 1 entries, and one when n = 1
    tau = np.empty(n)
    work = np.empty(n * _NB)
    info = _INT()
    lapack = _lapack()
    lapack.dsytrd(
        uplo, ctypes.byref(_INT(n)), X.ctypes.data + offset,
        ctypes.byref(_INT(lda)), d.ctypes.data, e.ctypes.data,
        tau.ctypes.data, work.ctypes.data, ctypes.byref(_INT(work.size)),
        ctypes.byref(info), 1)
    if info.value:
        raise RuntimeError(f"LAPACK dsytrd returned info {info.value}")
    lapack.dsterf(ctypes.byref(_INT(n)), d.ctypes.data, e.ctypes.data,
                  ctypes.byref(info))
    return d, info.value


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
    # the start, once its sector is solved or has failed, and the caller
    # acquires `done` before it returns or raises. Solves take turns.
    row = np.frombuffer(key)
    with _solve_lock:
        lapack = _lapack()
        count = lapack.set_num_threads(1)
        try:
            X = _parity_sectors(row)
            found = []
            done = _thread.allocate_lock()
            done.acquire()

            def work():
                try:
                    found.append(_sector_eigenvalues(X, row.size // 2, True))
                except BaseException as error:
                    found.append(error)
                finally:
                    done.release()

            _thread.start_new_thread(work, ())
            try:
                even = _sector_eigenvalues(X, X.shape[0] - 1, False)
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


def _parity_sectors(t):
    # Both parity sectors of the symmetric Toeplitz matrix with first
    # row t in one C-ordered (size + 1) x (size + 1) buffer X, where
    # n = t.size, m = n // 2 and size = n - m. With B the leading m x m
    # block and H_ij = t[n-1-i-j] its mirrored neighbour, the even
    # sector B + H goes whole into X[:size, 1:]; for odd n it is
    # bordered by the middle column sqrt(2) t[m-i], t[0] in the corner.
    # The odd sector B - H goes into X[1:m + 1, :m], its lower triangle
    # only, after the even one and over its unused lower part. So the
    # even sector's upper triangle lies strictly above X's diagonal and
    # the odd sector's lower one strictly below it.
    n = t.size
    m = n // 2
    size = n - m
    X = np.zeros((size + 1, size + 1))
    # B, H and the lower-triangle mask as strided views of 1-d arrays,
    # so no m x m temporary is made
    window = np.lib.stride_tricks.sliding_window_view
    B = window(np.concatenate([t[m - 1:0:-1], t[:m]]), m)[::-1]
    H = window(t[::-1], m)[:m]
    np.add(B, H, out=X[:m, 1:m + 1])
    if size > m:
        X[:m, size] = math.sqrt(2.0) * t[m:0:-1]
        X[m, size] = t[0]
    lower = window(np.arange(2 * m - 1) < m, m)[::-1]   # j <= i
    np.subtract(B, H, out=X[1:m + 1, :m], where=lower)
    return X


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
    return _checked_spectrum(row, _critical_momenta(analysis, "spectra need"))


def correlation_spectrum_finite(model, mu, L, N):
    """Same checks, with the row taken from an N-site ring."""
    return _checked_spectrum(correlation_row_finite(model, mu, L, N))

