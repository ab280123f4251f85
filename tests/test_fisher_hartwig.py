import cmath
import math

import numpy as np
import pytest

from fermichain.criticality import fermi_points
from fermichain.errors import DomainError
from fermichain.fisher_hartwig import (
    FHSymbol,
    fh_deviation,
    log_dl_asymptotic,
    symbol_params,
)
from fermichain.models import DispersionProfile, InteractionModel
from fermichain.specfun import log_barnes_pair

# frozen references (40-digit oracle, m=0, p0=pi/2, lambda=3)
B_M0 = 2.8284271247461901          # 2 sqrt 2
LOG_D4_ASYM = 4.2477094434535625
LOG_D4_EXACT = 4.2476954593651375

MU_HALF = 3.0 * math.pi ** 2 / 8.0


def hs_analysis():
    return fermi_points(DispersionProfile(InteractionModel.haldane_shastry()),
                        MU_HALF)


def fig8_analysis():
    prof = DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))
    return fermi_points(prof, 17.0 / 4.0)


def a16_log(p0, lam, L):
    # single-jump-pair specialization: (2 L sin p0)^{-2 b^2} (lam+1)^L
    # ((lam+1)/(lam-1))^{-L p0/pi} G(1+b)^2 G(1-b)^2
    log_ratio = cmath.log((lam + 1.0) / (lam - 1.0))
    beta = log_ratio / (2.0j * math.pi)
    return (-2.0 * beta * beta * cmath.log(2.0 * L * math.sin(p0))
            + L * cmath.log(lam + 1.0) - L * (p0 / math.pi) * log_ratio
            + 2.0 * log_barnes_pair(beta))


def a18_log(p0, p1, lam, L):
    # two-pair specialization with the rearranged bracket
    log_ratio = cmath.log((lam + 1.0) / (lam - 1.0))
    beta = log_ratio / (2.0j * math.pi)
    bracket = (4.0 * L * L * math.sin(p0) * math.sin(p1)
               * math.sin((p1 - p0) / 2.0) ** 2
               / math.sin((p1 + p0) / 2.0) ** 2)
    return (-2.0 * beta * beta * cmath.log(bracket)
            + L * cmath.log(lam + 1.0)
            + L * ((p1 - p0 - math.pi) / math.pi) * log_ratio
            + 4.0 * log_barnes_pair(beta))


# ---------------------------------------------------------------------------
# symbol parameters

def test_symbol_single_pair():
    s = symbol_params([math.pi / 2.0], 3.0)
    assert s.beta == pytest.approx(-1j * math.log(2.0) / (2.0 * math.pi),
                                   abs=1e-15)
    assert s.beta.imag == pytest.approx(-0.110318, abs=1e-6)
    assert s.P == pytest.approx(0.5, abs=1e-15)
    assert s.b == pytest.approx(B_M0, abs=1e-14)
    assert s.jump_angles == (-math.pi / 2.0, math.pi / 2.0)
    assert s.beta_j == (s.beta, -s.beta)


def test_symbol_two_pairs():
    s = symbol_params([math.pi / 3.0, 2.0 * math.pi / 3.0], 3.0)
    assert s.P == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert len(s.jump_angles) == 4
    assert len(s.beta_j) == 4
    assert all(x + y == 0.0 for x, y in zip(s.beta_j, s.beta_j[1:]))


def test_symbol_real_lambda_beta_imaginary():
    for lam in (3.0, 1.5, -2.0, 100.0):
        s = symbol_params([1.0], lam)
        assert s.beta.real == pytest.approx(0.0, abs=1e-15)


def test_symbol_beta_strip_random_lambda():
    rng = np.random.default_rng(11)
    count = 0
    while count < 100:
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if -1.0 <= lam.real <= 1.0 and abs(lam.imag) <= 1e-9:
            continue
        count += 1
        s = symbol_params([1.2], lam)
        assert abs(s.beta.real) < 0.5


def test_symbol_conjugation():
    lam = 0.7 + 1.9j
    s = symbol_params([0.9, 2.2], lam)
    sc = symbol_params([0.9, 2.2], lam.conjugate())
    # the 1/(2 pi i) prefactor anti-conjugates beta; the determinant
    # still conjugates because beta enters only through beta^2 and the
    # even Barnes pair
    assert sc.beta == pytest.approx(-s.beta.conjugate(), abs=1e-15)
    assert sc.b == pytest.approx(s.b.conjugate(), abs=1e-13)
    assert sc.P == s.P


def test_symbol_on_cut_rejected():
    for lam in (0.5, -1.0, 1.0, 0.2 + 5e-10j, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            symbol_params([1.0], lam)


def test_symbol_root_validation():
    with pytest.raises(DomainError):
        symbol_params([], 3.0)
    with pytest.raises(DomainError):
        symbol_params([1.0, 1.0], 3.0)
    with pytest.raises(DomainError):
        symbol_params([2.0, 1.0], 3.0)
    with pytest.raises(DomainError):
        symbol_params([math.pi], 3.0)


# ---------------------------------------------------------------------------
# asymptotic determinant

def test_asymptotic_frozen_value():
    s = symbol_params([math.pi / 2.0], 3.0)
    got = log_dl_asymptotic(s, 4)
    assert got.imag == pytest.approx(0.0, abs=1e-13)
    assert got.real == pytest.approx(LOG_D4_ASYM, abs=1e-12)


def test_asymptotic_single_pair_specialization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p0 = rng.uniform(0.1, math.pi - 0.1)
        lam = complex(rng.uniform(1.1, 4.0), rng.uniform(-2.0, 2.0))
        L = int(rng.integers(2, 200))
        s = symbol_params([p0], lam)
        got = log_dl_asymptotic(s, L)
        want = a16_log(p0, lam, L)
        assert got == pytest.approx(want, abs=1e-10)


def test_asymptotic_two_pair_specialization():
    rng = np.random.default_rng(6)
    p0, p1 = 0.8, 2.3
    for _ in range(5):
        lam = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.2, 3.0))
        s = symbol_params([p0, p1], lam)
        got = log_dl_asymptotic(s, 37)
        want = a18_log(p0, p1, lam, 37)
        assert got == pytest.approx(want, abs=1e-10)


def test_asymptotic_conjugation():
    lam = 1.4 + 0.6j
    s = symbol_params([1.1], lam)
    sc = symbol_params([1.1], lam.conjugate())
    got = log_dl_asymptotic(s, 25)
    assert log_dl_asymptotic(sc, 25) == pytest.approx(got.conjugate(),
                                                      abs=1e-11)


def test_asymptotic_large_lambda():
    s = symbol_params([math.pi / 2.0], 1e6)
    got = log_dl_asymptotic(s, 12)
    assert abs(got - 12.0 * math.log(1e6)) < 1e-4


def test_asymptotic_validation():
    s = symbol_params([1.0], 3.0)
    for L in (1, 0, -2, 2.5, np.int64(1), True):
        with pytest.raises(DomainError):
            log_dl_asymptotic(s, L)
    assert log_dl_asymptotic(s, np.int64(16)) == log_dl_asymptotic(s, 16)


# ---------------------------------------------------------------------------
# deviation harness

def test_deviation_single_pair():
    devs = fh_deviation(hs_analysis(), 3.0, [8, 16, 32, 64, 128])
    values = [d for _, d in devs]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2
    assert devs[0][0] == 8


def test_deviation_matches_frozen_at_four():
    devs = fh_deviation(hs_analysis(), 3.0, [4])
    assert devs[0][1] == pytest.approx(abs(LOG_D4_EXACT - LOG_D4_ASYM),
                                       abs=1e-10)


def test_deviation_two_pair_trend():
    devs = fh_deviation(fig8_analysis(), 3.0, [8, 16, 32, 64, 128])
    values = [d for _, d in devs]
    drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
    assert drops >= len(values) - 2     # one non-monotone step allowed
    assert values[-1] < values[0]


def test_deviation_near_cut_is_finite():
    devs = fh_deviation(hs_analysis(), 1.0 + 1e-3, [8, 16])
    for _, d in devs:
        assert math.isfinite(d)


def test_deviation_validation():
    prof = DispersionProfile(InteractionModel.haldane_shastry())
    with pytest.raises(DomainError):
        fh_deviation(fermi_points(prof, -1.0), 3.0, [8])
    with pytest.raises(DomainError):
        fh_deviation(hs_analysis(), 0.5, [8])
    with pytest.raises(DomainError):
        fh_deviation(hs_analysis(), 3.0, [8, 1])
    with pytest.raises(DomainError):
        fh_deviation(hs_analysis(), 3.0, [np.int64(1)])
    assert fh_deviation(hs_analysis(), 3.0, [np.int64(8)]) == \
        fh_deviation(hs_analysis(), 3.0, [8])
