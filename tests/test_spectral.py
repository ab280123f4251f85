import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fermichain.criticality import fermi_points
from fermichain.errors import (
    DegenerateGroundStateError,
    DomainError,
    EigenConvergenceError,
    SingularMatrixError,
)
from fermichain.models import DispersionProfile, InteractionModel
import fermichain.spectral as spectral
from fermichain.spectral import (
    correlation_row,
    correlation_row_finite,
    correlation_spectrum,
    correlation_spectrum_finite,
    eigenvalues_symmetric,
    log_det_char,
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
    for bad in (0, -3, 2.5, True, np.int64(0)):
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
    with pytest.raises(DomainError):
        correlation_row_finite(model, 1.0, 4, 8.5)
    with pytest.raises(DomainError):
        correlation_row_finite(model, math.inf, 4, 8)


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
        want = np.linalg.eigvalsh(toeplitz_from_row(row))
        got = eigenvalues_symmetric(row)
        tol = 1e-10 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) < tol


def test_eigensolver_large_block():
    row = correlation_row(hs_analysis(), 512)
    got = eigenvalues_symmetric(row)
    want = np.linalg.eigvalsh(toeplitz_from_row(row))
    assert np.max(np.abs(got - want)) < 1e-10
    assert got[0] > -1e-10 and got[-1] < 1.0 + 1e-10


def test_eigensolver_iteration_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_QL_ITERATION_CAP", 0)
    with pytest.raises(EigenConvergenceError):
        eigenvalues_symmetric([1.0, 0.5, 0.2])


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
            assert abs(s.eigenvalues.sum() - L * s.first_row[0]) < 1e-9


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
    assert len(s.first_row) == 6 and len(s.eigenvalues) == 6
    assert np.all(np.diff(s.eigenvalues) >= 0.0)
    assert s.eigenvalues[0] > -1e-10 and s.eigenvalues[-1] < 1.0 + 1e-10
    f = correlation_spectrum_finite(InteractionModel.haldane_shastry(),
                                    3.0, 6, 64)
    assert f.L == 6
    assert abs(f.eigenvalues.sum() - 6 * f.first_row[0]) < 1e-9


# ---------------------------------------------------------------------------
# determinants

def test_log_det_one_by_one():
    s = correlation_spectrum(hs_analysis(), 1)
    assert log_det_char(s, 3.0) == pytest.approx(math.log(3.0), abs=1e-14)
    lam = 0.3 + 0.7j
    assert log_det_char(s, lam) == pytest.approx(cmath.log(lam), abs=1e-14)


def test_log_det_frozen_four():
    s = correlation_spectrum(hs_analysis(), 4)
    got = log_det_char(s, 3.0)
    assert got.imag == pytest.approx(0.0, abs=1e-13)
    assert got.real == pytest.approx(LOG_DET4_LAM3, abs=1e-10)
    assert cmath.exp(got).real == pytest.approx(DET4_LAM3, rel=1e-12)


def test_log_det_real_lambda_bound():
    for a in (hs_analysis(), fig8_analysis()):
        for L in range(1, 13):
            s = correlation_spectrum(a, L)
            val = log_det_char(s, 3.0)
            assert val.real >= L * math.log(2.0) - 1e-12


def test_log_det_matches_direct_determinant():
    for a in (hs_analysis(), fig8_analysis()):
        for L in (2, 5, 9, 12):
            s = correlation_spectrum(a, L)
            M0 = toeplitz_from_row(s.first_row)
            for lam in (3.0, 1.5, 0.3 + 0.7j, -0.2 - 1.1j):
                want = ge_det(lam * np.eye(L) + np.eye(L) - 2.0 * M0)
                got = cmath.exp(log_det_char(s, lam))
                assert abs(got - want) < 1e-8 * abs(want)


def test_log_det_singular():
    s = correlation_spectrum(hs_analysis(), 5)
    lam = 2.0 * s.eigenvalues[2] - 1.0
    with pytest.raises(SingularMatrixError):
        log_det_char(s, lam)
    with pytest.raises(SingularMatrixError):
        log_det_char(s, lam + 5e-13)


# ---------------------------------------------------------------------------
# randomized battery (short version; the full 10-seed run lives in the
# acceptance suite)

def test_random_sea_battery():
    prof = hs_profile()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        p0 = rng.uniform(0.2, math.pi - 0.2)
        a = fermi_points(prof, prof.E(p0))
        s = correlation_spectrum(a, 10)
        assert s.eigenvalues[0] > -1e-10
        assert s.eigenvalues[-1] < 1.0 + 1e-10
        assert abs(s.eigenvalues.sum() - 10 * s.first_row[0]) < 1e-9
        M = toeplitz_from_row(s.first_row)
        want = ge_det(4.0 * np.eye(10) - 2.0 * M)
        got = cmath.exp(log_det_char(s, 3.0))
        assert abs(got - want) < 1e-8 * abs(want)
