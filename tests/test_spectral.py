import _thread
import cmath
import ctypes
import importlib.machinery
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from scipy.integrate import quad
# the LAPACK reference: scipy's own OpenBLAS build, a separate one from
# the numpy OpenBLAS the library's eigensolver calls
from scipy.linalg import eigvalsh

from fermichain.cli import run
from fermichain.criticality import fermi_points
from fermichain.errors import (
    AccuracyError,
    DegenerateGroundStateError,
    DomainError,
    EigenConvergenceError,
)
from fermichain.models import (
    DispersionProfile,
    InteractionModel,
    mode_energies,
)
import fermichain.spectral as spectral
from fermichain.spectral import (
    correlation_row,
    correlation_row_finite,
    correlation_spectrum,
    correlation_spectrum_finite,
    eigenvalues_symmetric,
)

# frozen references (exact-rational / 40-digit oracle)
EIG5 = np.array([0.002331431111982032, 0.075586818421612438, 0.5,
                 0.92441318157838756, 0.99766856888801797])
DET4_LAM3 = 69.944037593969191
LOG_DET4_LAM3 = 4.2476954593651375

MU_HALF = 3.0 * math.pi ** 2 / 8.0   # puts the Fermi point at exactly pi/2


def hs_profile():
    return DispersionProfile(InteractionModel.haldane_shastry())


def hs_analysis(mu=MU_HALF):
    return fermi_points(hs_profile(), mu)


def fig8_analysis():
    prof = DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))
    return fermi_points(prof, 17.0 / 4.0)


def toeplitz_from_row(row):
    idx = np.arange(len(row))
    return np.asarray(row)[np.abs(idx[:, None] - idx[None, :])]


def ge_det(M):
    # partial-pivot Gaussian elimination, complex determinant
    M = np.array(M, dtype=complex)
    n = M.shape[0]
    det = 1.0 + 0.0j
    for k in range(n):
        piv = k + int(np.argmax(np.abs(M[k:, k])))
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
            det = -det
        det *= M[k, k]
        if M[k, k] != 0.0:
            M[k + 1:, k:] -= np.outer(M[k + 1:, k] / M[k, k], M[k, k:])
    return det


# ---------------------------------------------------------------------------
# rows

def test_row_single_component_sea():
    row = correlation_row(hs_analysis(), 8)
    assert row[0] == pytest.approx(0.5, abs=1e-14)
    for d in range(1, 8):
        assert row[d] == pytest.approx(
            math.sin(math.pi * d / 2.0) / (math.pi * d), abs=1e-13)
    assert row[3] == pytest.approx(-1.0 / (3.0 * math.pi), abs=1e-14)


def test_row_two_component_sea():
    a = fig8_analysis()
    p0 = a.roots[0][0]
    p1 = a.roots[1][0]
    row = correlation_row(a, 11)
    assert row[0] == pytest.approx((p0 + math.pi - p1) / math.pi, abs=1e-13)
    for d in range(1, 11):
        want = (math.sin(p0 * d) - math.sin(p1 * d)) / (math.pi * d)
        assert row[d] == pytest.approx(want, abs=1e-13)


def test_row_matches_quadrature():
    a = fig8_analysis()
    row = correlation_row(a, 10)
    for d in range(10):
        acc = 0.0
        for lo, hi in a.sea_half:
            val, _ = quad(lambda p: math.cos(p * d), lo, hi, epsabs=1e-14)
            acc += val / math.pi
        assert row[d] == pytest.approx(acc, abs=1e-12)


def test_row_needs_simple_fermi_points():
    prof = DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))
    with pytest.raises(DomainError):
        correlation_row(fermi_points(prof, 4.5), 4)   # double root
    with pytest.raises(DomainError):
        correlation_row(fermi_points(hs_profile(), -1.0), 4)


def test_row_validation():
    a = hs_analysis()
    for bad in (0, -3, 2.5, 8.7, True, np.int64(0)):
        with pytest.raises(DomainError):
            correlation_row(a, bad)
    assert np.array_equal(correlation_row(a, np.int64(9)),
                          correlation_row(a, 9))


def test_finite_row_filled_and_empty():
    model = InteractionModel.haldane_shastry()
    full = correlation_row_finite(model, 1e6, 5, 16)
    assert full[0] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(full[1:])) < 1e-13
    empty = correlation_row_finite(model, -1.0, 5, 16)
    assert np.max(np.abs(empty)) == 0.0


def test_finite_row_matches_cosine_sum():
    # (1/N) sum over filled modes of cos(2 pi d l / N), term by term
    for model, mu in ((InteractionModel.haldane_shastry(), 2.0),
                      (InteractionModel.finite_range((1.0, 0.5)), 3.3),
                      (InteractionModel.power_law(2.5), 1.0)):
        for L, N in ((5, 7), (64, 511), (512, 512)):
            filled = np.nonzero(mode_energies(model, N) < mu)[0]
            phase = 2.0 * math.pi * (np.outer(np.arange(L), filled) % N) / N
            want = np.cos(phase).sum(axis=1) / N
            got = correlation_row_finite(model, mu, L, N)
            assert np.max(np.abs(got - want)) < 1e-12


def test_finite_row_converges_to_thermodynamic():
    model = InteractionModel.haldane_shastry()
    finite = correlation_row_finite(model, 3.0, 8, 1024)
    limit = correlation_row(hs_analysis(3.0), 8)
    assert np.max(np.abs(finite - limit)) < 2e-3


def test_finite_row_degenerate_mode():
    # eps_N(N/4) = 2 pi^2 (N/4)(3N/4)/N^2 = 3 pi^2/8: mu sits exactly on a
    # mode whenever 4 | N, so this chemical potential has no unique ground
    # state on such rings
    model = InteractionModel.haldane_shastry()
    with pytest.raises(DegenerateGroundStateError):
        correlation_row_finite(model, MU_HALF, 4, 8)
    with pytest.raises(DegenerateGroundStateError):
        correlation_row_finite(model, MU_HALF, 8, 1024)


def test_finite_row_validation():
    model = InteractionModel.haldane_shastry()
    with pytest.raises(DomainError):
        correlation_row_finite(model, 1.0, 8, 4)
    for L, N in ((4, 8.5), (4, 8.7), (4, True), (2.0, 8),
                 (True, 8), (np.int64(0), 8)):
        with pytest.raises(DomainError):
            correlation_row_finite(model, 1.0, L, N)
    with pytest.raises(DomainError):
        correlation_row_finite(model, math.inf, 4, 8)
    assert np.array_equal(
        correlation_row_finite(model, 1.0, np.int64(4), np.int64(8)),
        correlation_row_finite(model, 1.0, 4, 8))


# ---------------------------------------------------------------------------
# eigensolver

def test_eigensolver_tiny_blocks():
    assert eigenvalues_symmetric([0.7])[0] == 0.7
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = rng.normal(size=2)
        got = eigenvalues_symmetric([a, b])
        assert got == pytest.approx([a - abs(b), a + abs(b)], abs=1e-14)


def test_eigensolver_frozen_five():
    row = correlation_row(hs_analysis(), 5)
    got = eigenvalues_symmetric(row)
    assert got == pytest.approx(EIG5, abs=1e-10)


def test_eigensolver_matches_reference_library():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55):
        row = rng.normal(size=n)
        want = eigvalsh(toeplitz_from_row(row))
        got = eigenvalues_symmetric(row)
        tol = 1e-10 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) < tol


def test_eigensolver_large_block():
    # odd L exercises the bordered even-parity sector
    for L in (512, 1023, 1024, 2047, 2048):
        row = correlation_row(hs_analysis(), L)
        got = eigenvalues_symmetric(row)
        want = eigvalsh(toeplitz_from_row(row))
        assert np.max(np.abs(got - want)) < 1e-10
        assert got[0] > -1e-10 and got[-1] < 1.0 + 1e-10


# critical seas on which the former hand-written QL ran past its sweep cap
# with one BLAS thread: over the full, unsplit block, or (the last) with a
# running deflation scale
@pytest.mark.parametrize("alphas, mu, L", [
    (None, MU_HALF, 1024),
    (None, 1.7930895512858884, 1024),
    (None, 3.4232138978890747, 512),
    ((1.0, 0.0642873144174499), 1.7417433353618437, 512),
    (None, 1.770175725018531, 1024),
], ids=["hs-half-1024", "hs-1024", "hs-512", "fr-512", "hs-stall-1024"])
def test_eigensolver_former_ql_stalls(alphas, mu, L):
    model = (InteractionModel.haldane_shastry() if alphas is None
             else InteractionModel.finite_range(alphas))
    row = correlation_row(fermi_points(DispersionProfile(model), mu), L)
    got = eigenvalues_symmetric(row)
    want = eigvalsh(toeplitz_from_row(row))
    assert np.max(np.abs(got - want)) < 1e-10


_THREAD_PROBE = """
import math, os, sys
if sys.argv[1:] == ["pin"]:     # this process and its threads on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from fermichain import spectral
from fermichain.criticality import fermi_points
from fermichain.models import DispersionProfile, InteractionModel
a = fermi_points(DispersionProfile(InteractionModel.haldane_shastry()),
                 3.0 * math.pi ** 2 / 8.0)
for L in (1024, 1056, 2047, 2048, 4096):
    sys.stdout.write(spectral.correlation_spectrum(a, L).eigenvalues
                     .tobytes().hex())
# LAPACK came from its extension file alone
assert "scipy.linalg" not in sys.modules
"""


def _src_env(**env):
    # the environment of a fresh process that imports fermichain from src
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_spectrum_same_bits_under_blas_threads():
    # every solve runs its LAPACK at one OpenBLAS thread, whatever
    # OPENBLAS_NUM_THREADS says; at two threads the bits of a sector's
    # dsytrd change with the count at each L below. L = 2047 has a
    # 1023-row sector, L = 4096 2048-row sectors, whose rank-64 updates
    # and matrix-vector products, one BLAS call each, OpenBLAS would
    # split over both threads. A 528-row sector (L = 1056) ends 16 rows
    # into its last 32-column panel, a 512-row one (L = 1024) on a panel
    # edge. The last run pins the process to one CPU, so that the two
    # sector threads take turns on it; another runs with the variable
    # unset.
    out = []
    for threads, pin in (("1", []), ("2", []), (None, []), ("1", ["pin"])):
        env = _src_env(OPENBLAS_NUM_THREADS=threads or "")
        if threads is None:
            del env["OPENBLAS_NUM_THREADS"]
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE, *pin],
                             env=env, capture_output=True, text=True,
                             check=True)
        out.append(run.stdout)
    assert len(out[0]) == 2 * 8 * (1024 + 1056 + 2047 + 2048 + 4096)
    assert out[0] == out[1] == out[2] == out[3]


def _placed(M, odd):
    # the symmetric n x n matrix M in an (n + 1) x (n + 1) buffer as
    # _parity_sectors places a sector: the even one's upper triangle in
    # X[:n, 1:], the odd one's lower triangle in X[1:, :n]; every other
    # entry is NaN
    n = M.shape[0]
    X = np.full((n + 1, n + 1), np.nan)
    i, j = np.tril_indices(n) if odd else np.triu_indices(n)
    X[i + odd, j + (not odd)] = M[i, j]
    return X


def _sector_eigenvalues(M, odd=False):
    # dsytrd and dsterf on M placed as the even or odd sector; the NaNs
    # around that sector's triangle are neither read nor written over
    X = _placed(M, odd)
    unused = np.isnan(X)
    w, info = spectral._sector_eigenvalues(X, M.shape[0], odd)
    assert info == 0
    assert np.isnan(X[unused]).all()
    return w


def _patch_lapack(monkeypatch, **routines):
    # the spectral seam hands out the bound routines with these in place
    # of the real ones
    fake = types.SimpleNamespace(**vars(spectral._lapack()))
    vars(fake).update(routines)
    monkeypatch.setattr(spectral, "_lapack", lambda: fake)


def test_blocked_reduction_panel_edges():
    # sizes around dsytrd's 32-column panels, below which it reduces
    # column by column, in either triangle, and rows that split into
    # sectors of n + 1 and n rows
    assert spectral._NB == 32
    rng = np.random.default_rng(11)
    for n in (2, 3, 15, 16, 17, 31, 32, 33, 34, 35, 47, 48, 49,
              63, 64, 65, 66, 95, 96, 97, 127, 128, 129, 257):
        M = rng.normal(size=(n, n))
        M += M.T
        want = eigvalsh(M)
        scale = np.max(np.abs(want))
        for odd in (False, True):
            got = _sector_eigenvalues(M, odd)
            assert np.max(np.abs(got - want)) < 1e-12 * scale
        row = rng.normal(size=2 * n + 1)   # sectors of n + 1 and n rows
        want = eigvalsh(toeplitz_from_row(row))
        got = eigenvalues_symmetric(row)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_blocked_reduction_zero_column_inside_panel():
    # direct sum of a 10 x 10 and a 50 x 50 block: in dsytrd's first
    # 32-column panel the first ten columns below the diagonal are
    # exactly zero, so their reflectors are trivial ahead of reflectors
    # that are not
    rng = np.random.default_rng(12)
    A = np.zeros((60, 60))
    for lo, hi in ((0, 10), (10, 60)):
        B = rng.normal(size=(hi - lo, hi - lo))
        A[lo:hi, lo:hi] = B + B.T
    want = eigvalsh(A)
    for odd in (False, True):
        got = _sector_eigenvalues(A, odd)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_band_reduction_keeps_the_sector_shape():
    # the reduction to tridiagonal form, a band of width one: a random
    # sector of n rows gives n eigenvalues in ascending order, those of
    # the sector
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 31, 32, 33, 257, 1000):
        M = rng.normal(size=(n, n))
        M += M.T
        want = eigvalsh(M)
        for odd in (False, True):
            w = _sector_eigenvalues(M, odd)
            assert w.shape == (n,) and np.all(np.diff(w) >= 0.0)
            assert np.max(np.abs(w - want)) < 1e-12 * np.max(np.abs(want))


def test_band_reduction_workspace_and_info(monkeypatch):
    # the reduction to tridiagonal form, a band of width one: the
    # workspace _sector_eigenvalues gives dsytrd is at least what the
    # routine's own workspace query (LWORK = -1) asks for, in either
    # triangle, and an info other than 0 raises. Its integers have the
    # module's width: 32-bit ones would let the ILP64 routine read past
    # them
    dsytrd = spectral._lapack().dsytrd
    size = spectral._INT
    for N in (1, 33, 64, 96, 512, 1023, 2048, 4096):
        for odd, uplo in ((False, b"L"), (True, b"U")):
            asked, info = np.zeros(1), size()
            dsytrd(uplo, ctypes.byref(size(N)), None, ctypes.byref(size(N)),
                   None, None, None, asked.ctypes.data,
                   ctypes.byref(size(-1)), ctypes.byref(info), 1)
            assert info.value == 0
            given = []

            def record(*args):
                given.append(args[8]._obj.value)    # LWORK

            _patch_lapack(monkeypatch, dsytrd=record,
                          dsterf=lambda *args: None)
            spectral._sector_eigenvalues(np.zeros((N + 1, N + 1)), N, odd)
            monkeypatch.undo()
            assert 1 <= asked[0] <= given[0], (N, odd)

    def refused(*args):
        args[9]._obj.value = -4    # INFO: the fourth argument is illegal

    _patch_lapack(monkeypatch, dsytrd=refused)
    with pytest.raises(RuntimeError, match="dsytrd returned info -4"):
        spectral._sector_eigenvalues(_placed(np.eye(64), False), 64, False)
    spectral._solve.cache_clear()
    with pytest.raises(RuntimeError, match="dsytrd"):
        eigenvalues_symmetric([1.0, 0.5, 0.2])


def _sectors_apart(t):
    # the even and odd sectors of the symmetric Toeplitz matrix with
    # first row t, cut from the full matrix: with m = n // 2 and J the
    # exchange, B = T[:m, :m] and H = T[:m, n-m:] J; for odd n the even
    # sector B + H is bordered by sqrt(2) T[:m, m] and T[m, m]
    n = t.size
    m = n // 2
    T = toeplitz_from_row(t)
    B = T[:m, :m]
    H = T[:m, n - m:][:, ::-1]
    even = B + H
    if n % 2:
        border = math.sqrt(2.0) * T[:m, m]
        even = np.block([[even, border[:, None]], [border[None, :], T[m, m]]])
    return even, B - H


@pytest.mark.parametrize("L", [*range(2, 130), 1024])
def test_sectors_never_touch_each_other(monkeypatch, L):
    # the buffer of _parity_sectors holds the even sector strictly above
    # its diagonal and the odd one strictly below. Each reduction reads
    # and writes its own triangle alone: NaN everywhere else, the odd
    # sector's unused upper part included, stays NaN and leaves finite
    # eigenvalues, those of the sector. Both at once, on the two threads
    # of a solve, keep NaN on the diagonal and on the cells that neither
    # sector fills.
    rng = np.random.default_rng(L)
    row = rng.normal(size=L)
    m = L // 2
    size = L - m
    sectors = _sectors_apart(row)
    wants = [eigvalsh(S) for S in sectors]
    X = spectral._parity_sectors(row)
    assert X.shape == (size + 1, size + 1) and X.flags.c_contiguous
    others = (np.tril(np.ones_like(X, dtype=bool)),
              np.triu(np.ones_like(X, dtype=bool)))
    for n, odd, other, want in zip((size, m), (False, True), others, wants):
        Y = X.copy()
        Y[other] = np.nan
        w, info = spectral._sector_eigenvalues(Y, n, odd)
        assert info == 0 and np.isfinite(w).all()
        assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.isnan(Y[other]).all()
    built = []
    parity_sectors = spectral._parity_sectors

    def nan_filled(t):
        Y = parity_sectors(t)
        np.fill_diagonal(Y, np.nan)
        Y[m + 1:, :size] = np.nan   # below the odd sector, when L is odd
        built.append(Y)
        return Y

    monkeypatch.setattr(spectral, "_parity_sectors", nan_filled)
    spectral._solve.cache_clear()
    got = eigenvalues_symmetric(row)
    want = np.sort(np.concatenate(wants))
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    (Y,) = built
    assert np.isnan(np.diagonal(Y)).all()
    assert np.isnan(Y[m + 1:, :size]).all()


def test_two_sector_threads_give_one_hash():
    # the two sectors reduce at once in one process-wide OpenBLAS: 30
    # solves of one row, each a fresh solve, give the same bytes
    spectral._solve.cache_clear()
    row = correlation_row(hs_analysis(), 1024)
    seen = set()
    for _ in range(30):
        spectral._solve.cache_clear()
        seen.add(eigenvalues_symmetric(row).tobytes())
    assert len(seen) == 1


def test_eigensolver_holds_one_sector():
    # one sector of N rows is 8 N^2 bytes; the buffer that holds both
    # sectors is 8 (N + 1)^2, and a second such buffer, or an N x N
    # temporary beside it, passes 2 x 8 N^2. The memo is emptied so
    # that every measured call solves.
    spectral._solve.cache_clear()
    a = hs_analysis()
    eigenvalues_symmetric(correlation_row(a, 64))   # loads LAPACK
    for L in (1024, 2048):
        row = correlation_row(a, L)
        N = L - L // 2   # rows of the even sector
        tracemalloc.start()
        try:
            eigenvalues_symmetric(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * N * N, (L, peak)


def test_eigensolver_nonconvergence(monkeypatch, tmp_path, capsys):
    # dsterf's info > 0: off-diagonals of the tridiagonal left nonzero
    # after its sweep budget. The memo is emptied so that no spectrum an
    # earlier test left skips the faked routine.
    spectral._solve.cache_clear()
    dsterf = spectral._lapack().dsterf

    def unconverged(n, d, e, info):
        dsterf(n, d, e, info)
        info._obj.value = 1

    _patch_lapack(monkeypatch, dsterf=unconverged)
    with pytest.raises(EigenConvergenceError, match=(
            "did not converge for a 2x2 tridiagonal: 1 off-diagonal")) as e:
        eigenvalues_symmetric([1.0, 0.5, 0.2])
    assert isinstance(e.value, AccuracyError)
    assert (e.value.achieved, e.value.target) == (1, 0)
    assert run(["entropy", "--model", "haldane-shastry", "--mu", "2",
                "--L", "8", "--output", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(tmp_path / "s.csv")


def _unconverged(X, n, odd):
    # a sector stage whose dsterf reported one off-diagonal left
    return np.zeros(n), 1


def test_eigensolver_reuses_last_spectrum(monkeypatch):
    # a row with the last solved row's bytes runs no sector solve and
    # gets its eigenvalues in a fresh array; any other row solves, and a
    # failed solve leaves the memo as it was
    spectral._solve.cache_clear()
    solved = []
    stage = spectral._sector_eigenvalues

    def counted(X, n, odd):
        solved.append(n)
        return stage(X, n, odd)

    monkeypatch.setattr(spectral, "_sector_eigenvalues", counted)
    row = correlation_row(hs_analysis(), 64)
    first = eigenvalues_symmetric(row)
    want = first.tobytes()
    assert solved == [32, 32]
    again = eigenvalues_symmetric(row.copy())
    assert solved == [32, 32]
    assert again.tobytes() == want and again is not first
    first[:] = 0.0
    again[:] = 0.0
    assert eigenvalues_symmetric(row).tobytes() == want
    assert solved == [32, 32]
    other = row.copy()
    other[5] = np.nextafter(other[5], 1.0)
    eigenvalues_symmetric(other)
    assert len(solved) == 4
    eigenvalues_symmetric([1.0, 0.0, 0.5])
    eigenvalues_symmetric([1.0, -0.0, 0.5])   # equal, not the same bytes
    assert len(solved) == 8
    # a failed solve is not stored: the last good row still hits
    monkeypatch.setattr(spectral, "_sector_eigenvalues", _unconverged)
    with pytest.raises(EigenConvergenceError):
        eigenvalues_symmetric(row)
    monkeypatch.setattr(spectral, "_sector_eigenvalues", counted)
    del solved[:]
    eigenvalues_symmetric([1.0, -0.0, 0.5])
    assert solved == []
    assert eigenvalues_symmetric(row).tobytes() == want
    assert solved == [32, 32]


def test_sector_stage_matches_the_f2py_dsytrd_dsterf():
    # the ctypes calls of dsytrd and dsterf return the bytes of scipy's
    # own wrappers of the same routines, from scipy's own OpenBLAS build:
    # a wrong integer width, a missing string length, the wrong triangle
    # or a workspace too small for the blocked code would change them.
    # The even sector is dsytrd's lower triangle and the odd one its
    # upper; a 1 x 1 sector's eigenvalue is its entry.
    from scipy.linalg.lapack import dsterf, dsytrd
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 16, 17, 33, 257, 1000):
        M = rng.normal(size=(n, n))
        M += M.T
        for odd in (False, True):
            _, d, e, _, info = dsytrd(M, lower=int(not odd),
                                      lwork=n * spectral._NB)
            want, info2 = dsterf(d, e) if n > 1 else (d, 0)
            got, got_info = spectral._sector_eigenvalues(
                _placed(M, odd), n, odd)
            assert (info, info2, got_info) == (0, 0, 0)
            assert got.tobytes() == want.tobytes(), (n, odd)


# how long the worker's real sector stage is held back when the caller
# fails, and how long a finished solve may leave its worker running: a
# worker that outlived its solve by the hold would still be counted
_HOLD = 0.5
_GONE = 0.25


def _fail_one_thread(monkeypatch, failing, fake):
    # the sector stage runs `fake` on the thread named by `failing`
    # ("worker" or "caller") and the real stage on the other; the
    # worker's real stage is held back, so that a caller that did not
    # wait would finish first
    real = spectral._sector_eigenvalues
    caller = threading.get_ident()
    done = []

    def stage(X, n, odd):
        here = "caller" if threading.get_ident() == caller else "worker"
        if here == "worker" and failing == "caller":
            time.sleep(_HOLD)
        out = (fake if here == failing else real)(X, n, odd)
        done.append(here)
        return out

    monkeypatch.setattr(spectral, "_sector_eigenvalues", stage)
    return done


def _no_bare_threads():
    # whether, within _GONE seconds, every running thread is one that
    # threading started. The worker is a bare _thread, which
    # threading.active_count() does not see; _thread._count() counts it
    # (and every other thread but the main one) until its function has
    # returned, a moment after it released the caller.
    end = time.monotonic() + _GONE
    while (_thread._count() != threading.active_count() - 1
           and time.monotonic() < end):
        time.sleep(0.001)
    return _thread._count() == threading.active_count() - 1


class _StageFault(Exception):
    pass


@pytest.mark.parametrize("fault", ["info", "raise"])
def test_eigensolver_worker_failure_reaches_the_caller(monkeypatch, fault):
    # the odd sector is solved on the worker thread: its info > 0
    # raises the caller's EigenConvergenceError for that sector, and any
    # error it raises is raised again, the same object, by the caller.
    # The memo keeps the last good row, and the worker is gone.
    spectral._solve.cache_clear()
    good = correlation_row(hs_analysis(), 64)
    want = eigenvalues_symmetric(good).tobytes()
    before = spectral._solve.cache_info()
    error = _StageFault("sector stage failed")

    def fake(X, n, odd):
        if fault == "info":
            return np.zeros(n), 3
        raise error

    _fail_one_thread(monkeypatch, "worker", fake)
    row = correlation_row(hs_analysis(), 65)   # sectors of 33 and 32 rows
    with pytest.raises((EigenConvergenceError, _StageFault)) as e:
        eigenvalues_symmetric(row)
    if fault == "info":
        assert str(e.value) == ("eigensolver did not converge for a 32x32 "
                                "tridiagonal: 3 off-diagonal entries left "
                                "nonzero")
        assert (e.value.achieved, e.value.target) == (3, 0)
    else:
        assert e.value is error
    assert _no_bare_threads()
    after = spectral._solve.cache_info()
    assert after.currsize == before.currsize == 1
    monkeypatch.undo()
    assert eigenvalues_symmetric(good).tobytes() == want
    assert spectral._solve.cache_info().misses == after.misses


def test_eigensolver_caller_failure_joins_the_worker(monkeypatch):
    # the even sector fails on the calling thread while the worker still
    # runs the odd one: the error leaves only after the worker finished
    spectral._solve.cache_clear()
    error = _StageFault("sector stage failed")

    def fake(X, n, odd):
        raise error

    done = _fail_one_thread(monkeypatch, "caller", fake)
    with pytest.raises(_StageFault) as e:
        eigenvalues_symmetric(correlation_row(hs_analysis(), 64))
    assert e.value is error
    assert done == ["worker"]
    assert _no_bare_threads()


def test_eigensolver_worker_that_cannot_start(monkeypatch):
    # the worker thread cannot be started: its RuntimeError reaches the
    # caller of eigenvalues_symmetric, which does not wait for a worker
    # that never ran, nothing is cached, and the next solve works. The
    # call runs on a threading.Thread (whose start does not go through
    # _thread.start_new_thread) so that a hang fails the test.
    spectral._solve.cache_clear()
    good = correlation_row(hs_analysis(), 64)
    row = correlation_row(hs_analysis(), 65)
    want = eigenvalues_symmetric(row).tobytes()
    eigenvalues_symmetric(good)
    before = spectral._solve.cache_info()

    def refuse(function, args, kwargs=None):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(_thread, "start_new_thread", refuse)
    raised = []

    def call():
        try:
            eigenvalues_symmetric(row)
        except BaseException as error:
            raised.append(error)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [type(e) for e in raised] == [RuntimeError]
    assert str(raised[0]) == "can't start new thread"
    assert _no_bare_threads()
    after = spectral._solve.cache_info()
    assert after.currsize == 1 and after.misses == before.misses + 1
    monkeypatch.undo()
    eigenvalues_symmetric(good)
    assert spectral._solve.cache_info().hits == after.hits + 1
    assert eigenvalues_symmetric(row).tobytes() == want
    assert spectral._solve.cache_info().misses == after.misses + 1


def test_eigensolver_memo_under_threads():
    # threads that interleave rows get each row's own eigenvalues: a
    # racing call may solve again, but never returns another row's entry
    spectral._solve.cache_clear()
    rows = [correlation_row(hs_analysis(mu), 16) for mu in (1.0, 2.0)]
    want = [eigenvalues_symmetric(r).tobytes() for r in rows]
    wrong = []

    def work(k):
        # two threads often ask for the same row, and one just solved
        for j in np.random.default_rng(k).integers(0, len(rows), 300):
            if eigenvalues_symmetric(rows[j]).tobytes() != want[j]:
                wrong.append((k, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


_LOAD_PROBE = """
import ctypes, json, sys, threading, time
import numpy as np
import fermichain.spectral as spectral
opens = []

class Counted(ctypes.CDLL):
    def __init__(self, name, *args, **kw):
        # held open, so that a thread the loader let through would open too
        opens.append(name)
        time.sleep(0.05)
        super().__init__(name, *args, **kw)

ctypes.CDLL = Counted
rows = [np.random.default_rng(k).normal(size=200 + 37 * k) for k in range(4)]
got = [None] * 4
start = threading.Barrier(4)

def work(k):
    start.wait()
    got[k] = spectral.eigenvalues_symmetric(rows[k]).tobytes()

assert spectral._lapack.cache_info().currsize == 0
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
same = []
for k in range(4):
    spectral._solve.cache_clear()
    same.append(spectral.eigenvalues_symmetric(rows[k]).tobytes() == got[k])
print(json.dumps({"same": same, "opens": opens, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _extension_file(path):
    # where an extension file sits, without its suffix
    directory, name = os.path.split(path)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if name.endswith(suffix):
            name = name[:-len(suffix)]
    return os.path.basename(directory) + "/" + name


def test_lapack_loads_once_under_threads():
    # a fresh process: four threads solve different rows before LAPACK
    # is bound; numpy's _umath_linalg file is opened once, no scipy
    # module is imported, and every thread gets the bits of a solve made
    # after the others
    run = subprocess.run([sys.executable, "-c", _LOAD_PROBE],
                         env=_src_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    seen = json.loads(run.stdout)
    assert seen["same"] == [True] * 4
    assert [_extension_file(f) for f in seen["opens"]] == [
        "linalg/_umath_linalg"]
    assert seen["scipy"] == []


_LATER_SCIPY_PROBE = """
import sys
import numpy as np
import fermichain.spectral as spectral
row = np.random.default_rng(5).normal(size=301)
first = spectral.eigenvalues_symmetric(row).tobytes()
import scipy.linalg
assert isinstance(scipy.linalg._flapack, type(sys))
ab = np.asfortranarray(np.random.default_rng(6).normal(size=(17, 40)))
w, _, info = scipy.linalg.lapack.dsbevd(ab, compute_v=0, lower=1)
assert info == 0 and w.shape == (40,)
spectral._solve.cache_clear()
assert spectral.eigenvalues_symmetric(row).tobytes() == first
"""


def test_scipy_linalg_imported_after_a_spectrum_is_whole():
    # a fresh process: a spectrum, then import scipy.linalg. The package
    # binds its LAPACK extension, whose dsbevd runs, and a new solve gives
    # the same bits as the first
    subprocess.run([sys.executable, "-c", _LATER_SCIPY_PROBE],
                   env=_src_env(), capture_output=True, text=True,
                   check=True, timeout=120)


def _count_opens(monkeypatch):
    # the routines unbound, and ctypes.CDLL recording the files it opens;
    # a failed bind is not cached, so the next solve binds them again
    spectral._lapack.cache_clear()
    spectral._solve.cache_clear()
    opens = []

    class Counted(ctypes.CDLL):
        def __init__(self, name, *args, **kw):
            opens.append(name)
            super().__init__(name, *args, **kw)

    monkeypatch.setattr(ctypes, "CDLL", Counted)
    return opens


def test_lapack_missing_names_the_directory(monkeypatch, tmp_path):
    # numpy's extension file is not where its module says: the first
    # solve raises ctypes' OSError, which names the file with its
    # directory, and binds no routines
    opens = _count_opens(monkeypatch)
    missing = str(tmp_path / "_umath_linalg.so")
    monkeypatch.setattr(spectral, "_umath_linalg", types.SimpleNamespace(
        __file__=missing, __name__="numpy.linalg._umath_linalg"))
    with pytest.raises(OSError) as e:
        eigenvalues_symmetric([1.0, 0.5, 0.2])
    assert missing in str(e.value)
    assert opens == [missing]
    assert spectral._lapack.cache_info().currsize == 0


@pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "set_num_threads"])
def test_lapack_without_a_routine_names_it(monkeypatch, routine):
    # a numpy build whose _umath_linalg file and the libraries it links
    # lack one of the symbols (an MKL or a conda numpy): the first solve
    # raises one ImportError naming the symbol and the file, and binds no
    # routines
    opens = _count_opens(monkeypatch)
    symbol = spectral._SYMBOLS[routine][0]
    lookup = ctypes.CDLL.__getattr__

    def without(library, name):
        if name == symbol:
            raise AttributeError(name)
        return lookup(library, name)

    monkeypatch.setattr(ctypes.CDLL, "__getattr__", without)
    with pytest.raises(ImportError) as e:
        eigenvalues_symmetric([1.0, 0.5, 0.2])
    assert len(opens) == 1
    assert _extension_file(opens[0]) == "linalg/_umath_linalg"
    assert str(e.value) == (f"{symbol} is not in {opens[0]} or the "
                            "libraries it links")
    assert (e.value.name, e.value.path) == ("numpy.linalg._umath_linalg",
                                            opens[0])
    assert spectral._lapack.cache_info().currsize == 0


def _blas_threads():
    # OpenBLAS's thread count, read by setting it and setting it back
    set_num_threads = spectral._lapack().set_num_threads
    count = set_num_threads(1)
    set_num_threads(count)
    return count


def test_solve_restores_the_blas_thread_count(monkeypatch):
    # a solve runs its LAPACK with one OpenBLAS thread, and afterwards
    # the count is what it was before: after a solve, after one that
    # raised, and after solves that overlapped on four threads. Two
    # threads at most, so the test starts at most one OpenBLAS thread.
    set_num_threads = spectral._lapack().set_num_threads
    before = set_num_threads(2)
    try:
        spectral._solve.cache_clear()
        seen = []
        stage = spectral._sector_eigenvalues

        def counted(X, n, odd):
            seen.append(_blas_threads())
            return stage(X, n, odd)

        monkeypatch.setattr(spectral, "_sector_eigenvalues", counted)
        eigenvalues_symmetric(correlation_row(hs_analysis(), 64))
        assert seen == [1, 1]
        assert _blas_threads() == 2
        _fail_one_thread(monkeypatch, "caller", lambda X, n, odd: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            eigenvalues_symmetric(correlation_row(hs_analysis(), 65))
        assert _blas_threads() == 2
        monkeypatch.undo()
        rows = [np.random.default_rng(k).normal(size=100 + k)
                for k in range(8)]

        def work(k):
            for j in np.random.default_rng(k).integers(0, len(rows), 30):
                eigenvalues_symmetric(rows[j])

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert _blas_threads() == 2
    finally:
        set_num_threads(before)


_ENVIRON_PROBE = """
import ctypes, json, os
from numpy.linalg import _umath_linalg
threads = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_
before = dict(os.environ), threads()
import fermichain
print(json.dumps((dict(os.environ), threads()) == before))
"""


def test_import_changes_no_environment_variable():
    # nor OpenBLAS's thread count, read from numpy's OpenBLAS directly
    run = subprocess.run([sys.executable, "-c", _ENVIRON_PROBE],
                         env=_src_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(run.stdout) is True


@pytest.mark.parametrize("shift, gate", [
    (lambda eig: np.append(eig[:-1], 1.0 + 2e-10), "leave"),
    (lambda eig: eig + 1e-8 * (eig > 0.25) * (eig < 0.75), "trace")],
    ids=["range", "trace"])
def test_spectrum_gates_refuse(monkeypatch, tmp_path, capsys, shift, gate):
    # an eigensolver whose output leaves [0, 1] or misses the trace is
    # refused by the gates, and the CLI exits 2 with no output written
    solve = spectral.eigenvalues_symmetric
    monkeypatch.setattr(spectral, "eigenvalues_symmetric",
                        lambda row: shift(solve(row)))
    with pytest.raises(AccuracyError, match=gate):
        correlation_spectrum(hs_analysis(), 16)
    with pytest.raises(AccuracyError, match=gate):
        correlation_spectrum_finite(InteractionModel.haldane_shastry(),
                                    3.0, 16, 64)
    out = tmp_path / "s.csv"
    assert run(["entropy", "--model", "haldane-shastry", "--mu", "2",
                "--L", "16", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(tmp_path) == []


def test_eigensolver_validation():
    with pytest.raises(DomainError):
        eigenvalues_symmetric([])
    with pytest.raises(DomainError):
        eigenvalues_symmetric([1.0, math.nan])


# ---------------------------------------------------------------------------
# spectrum invariants

def test_interlacing_in_block_size():
    a = hs_analysis()
    row = correlation_row(a, 21)
    eigs = {L: eigenvalues_symmetric(row[:L]) for L in range(2, 22)}
    for L in range(2, 21):
        small, big = eigs[L], eigs[L + 1]
        for i in range(L):
            assert big[i] <= small[i] + 1e-9
            assert small[i] <= big[i + 1] + 1e-9


def test_trace_identity():
    for a in (hs_analysis(), fig8_analysis()):
        for L in (1, 2, 7, 40):
            s = correlation_spectrum(a, L)
            row = correlation_row(a, L)
            assert abs(s.eigenvalues.sum() - L * row[0]) < 1e-9


def test_particle_hole_reflection():
    # complement sea: eigenvalues map to 1 - lambda
    prof = hs_profile()
    a = fermi_points(prof, prof.E(1.1))
    b = fermi_points(prof, prof.E(math.pi - 1.1))
    ea = correlation_spectrum(a, 12).eigenvalues
    eb = correlation_spectrum(b, 12).eigenvalues
    assert np.max(np.abs(np.sort(1.0 - ea) - eb)) < 1e-9


def test_spectrum_builders():
    s = correlation_spectrum(hs_analysis(), 6)
    assert s.L == 6
    assert len(s.eigenvalues) == 6
    assert np.all(np.diff(s.eigenvalues) >= 0.0)
    assert s.eigenvalues[0] > -1e-10 and s.eigenvalues[-1] < 1.0 + 1e-10
    f = correlation_spectrum_finite(InteractionModel.haldane_shastry(),
                                    3.0, 6, 64)
    assert f.L == 6
    row = correlation_row_finite(InteractionModel.haldane_shastry(),
                                 3.0, 6, 64)
    assert abs(f.eigenvalues.sum() - 6 * row[0]) < 1e-9


def test_spectrum_reports_achieved_gate_errors():
    model = InteractionModel.haldane_shastry()
    for s, row in ((correlation_spectrum(hs_analysis(), 40),
                    correlation_row(hs_analysis(), 40)),
                   (correlation_spectrum_finite(model, 3.0, 40, 64),
                    correlation_row_finite(model, 3.0, 40, 64))):
        eig = s.eigenvalues
        assert s.trace_gap == abs(eig.sum() - s.L * row[0])
        assert 0.0 <= s.trace_gap <= 1e-9
        assert s.range_dev == max(-eig[0], eig[-1] - 1.0, 0.0)
        assert 0.0 <= s.range_dev <= 1e-10
    bare = spectral.CorrelationSpectrum(L=1, eigenvalues=np.array([0.5]))
    assert bare.trace_gap is None and bare.range_dev is None


# ---------------------------------------------------------------------------
# determinants

def test_log_det_one_by_one(log_det_char):
    s = correlation_spectrum(hs_analysis(), 1)
    assert log_det_char(s, 3.0) == pytest.approx(math.log(3.0), abs=1e-14)
    lam = 0.3 + 0.7j
    assert log_det_char(s, lam) == pytest.approx(cmath.log(lam), abs=1e-14)


def test_log_det_frozen_four(log_det_char):
    s = correlation_spectrum(hs_analysis(), 4)
    got = log_det_char(s, 3.0)
    assert got.imag == pytest.approx(0.0, abs=1e-13)
    assert got.real == pytest.approx(LOG_DET4_LAM3, abs=1e-10)
    assert cmath.exp(got).real == pytest.approx(DET4_LAM3, rel=1e-12)


def test_log_det_real_lambda_bound(log_det_char):
    for a in (hs_analysis(), fig8_analysis()):
        for L in range(1, 13):
            s = correlation_spectrum(a, L)
            val = log_det_char(s, 3.0)
            assert val.real >= L * math.log(2.0) - 1e-12


def test_log_det_matches_direct_determinant(log_det_char):
    for a in (hs_analysis(), fig8_analysis()):
        for L in (2, 5, 9, 12):
            s = correlation_spectrum(a, L)
            M0 = toeplitz_from_row(correlation_row(a, L))
            for lam in (3.0, 1.5, 0.3 + 0.7j, -0.2 - 1.1j):
                want = ge_det(lam * np.eye(L) + np.eye(L) - 2.0 * M0)
                got = cmath.exp(log_det_char(s, lam))
                assert abs(got - want) < 1e-8 * abs(want)


# ---------------------------------------------------------------------------
# randomized battery (short version; the full 10-seed run lives in the
# acceptance suite)

def test_random_sea_battery(log_det_char):
    prof = hs_profile()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.2, math.pi - 0.2)
        a = fermi_points(prof, prof.E(p0))
        s = correlation_spectrum(a, 10)
        assert s.eigenvalues[0] > -1e-10
        assert s.eigenvalues[-1] < 1.0 + 1e-10
        row = correlation_row(a, 10)
        assert abs(s.eigenvalues.sum() - 10 * row[0]) < 1e-9
        M = toeplitz_from_row(row)
        want = ge_det(4.0 * np.eye(10) - 2.0 * M)
        got = cmath.exp(log_det_char(s, 3.0))
        assert abs(got - want) < 1e-8 * abs(want)
