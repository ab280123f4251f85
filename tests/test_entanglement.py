import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from fermichain.criticality import fermi_points
from fermichain.entanglement import (
    EntropyReport,
    c_tilde,
    c_tilde_oracle,
    f_factor,
    i1,
    renyi_asymptotic,
    renyi_exact,
)
from fermichain.errors import DomainError
from fermichain.models import DispersionProfile, InteractionModel
from fermichain.spectral import correlation_spectrum, correlation_spectrum_finite

# frozen references (60-digit oracle)
CT1 = 0.49501790813513705
CT_INF = 0.27970015082755940
CT_BY_ALPHA = {0.25: 0.61490026862603817, 0.5: 0.59933363386423751,
               2.0: 0.40404872003727628, 3.0: 0.36636516917845875,
               10.0: 0.30715079865750305}
CT_037 = 0.62832121901123944
CT_5 = 0.33341911189572052
CT_ZERO_ALPHA = 0.10602710530572807
CT_MAX = 0.63241652321748377
CT_ARGMAX = 0.32170054843638602
F_FIG8 = 0.53320267641821244

MU_HALF = 3.0 * math.pi ** 2 / 8.0

_cache = {}


def hs_analysis():
    if "hs" not in _cache:
        prof = DispersionProfile(InteractionModel.haldane_shastry())
        _cache["hs"] = fermi_points(prof, MU_HALF)
    return _cache["hs"]


def fig8_analysis():
    if "fig8" not in _cache:
        prof = DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))
        _cache["fig8"] = fermi_points(prof, 17.0 / 4.0)
    return _cache["fig8"]


def spectrum(which, L):
    key = (which, L)
    if key not in _cache:
        analysis = hs_analysis() if which == "hs" else fig8_analysis()
        _cache[key] = correlation_spectrum(analysis, L)
    return _cache[key]


# ---------------------------------------------------------------------------
# exact entropies

def test_exact_single_site():
    s = spectrum("hs", 1)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert renyi_exact(s, alpha) == pytest.approx(math.log(2.0),
                                                      abs=1e-12)


def test_exact_product_state():
    s = correlation_spectrum_finite(InteractionModel.haldane_shastry(),
                                    1e6, 5, 16)
    assert renyi_exact(s, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert renyi_exact(s, 3.0) == pytest.approx(0.0, abs=1e-9)


def test_exact_bounds():
    for which in ("hs", "fig8"):
        for L in (3, 17):
            s = spectrum(which, L)
            for alpha in (0.5, 1.0, 4.0):
                val = renyi_exact(s, alpha)
                assert 0.0 <= val <= L * math.log(2.0) + 1e-12


def test_exact_monotone_in_alpha():
    for which in ("hs", "fig8"):
        for L in (10, 50):
            s = spectrum(which, L)
            vals = [renyi_exact(s, a) for a in (0.5, 1.0, 2.0, 5.0)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_exact_validation():
    s = spectrum("hs", 3)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            renyi_exact(s, alpha)


# ---------------------------------------------------------------------------
# the model factor

def test_f_factor_single_point():
    assert f_factor([math.pi / 2.0]) == pytest.approx(2.0, abs=1e-15)
    assert f_factor([math.pi / 6.0]) == pytest.approx(1.0, abs=1e-15)


def test_f_factor_two_points():
    roots = [p for p, _ in fig8_analysis().roots]
    assert f_factor(roots) == pytest.approx(F_FIG8, abs=1e-10)


def test_f_factor_validation():
    with pytest.raises(DomainError):
        f_factor([])
    with pytest.raises(DomainError):
        f_factor([0.0])
    with pytest.raises(DomainError):
        f_factor([math.pi])
    with pytest.raises(DomainError):
        f_factor([1.0, 1.0])          # coincident
    with pytest.raises(DomainError):
        f_factor([2.0, 1.0])          # out of order


# ---------------------------------------------------------------------------
# prefactor and constants

def test_i1_closed_form():
    assert i1(1.0) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert i1(2.0) == pytest.approx(0.25, abs=1e-16)
    assert i1(math.inf) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert i1(math.inf) / i1(1.0) == pytest.approx(0.5, abs=1e-15)
    for alpha in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            i1(alpha)


def _s_alpha_w(alpha, w):
    # stable form of the entropy kernel at x = tanh(pi w)
    q = 2.0 * math.pi * w
    return (math.log1p(math.exp(-alpha * q))
            - alpha * math.log1p(math.exp(-q))) / (1.0 - alpha)


def test_i1_matches_quadrature():
    # (2/pi^2) int_{-1}^{1} s_alpha(x)/(1-x^2) dx after x = tanh(pi w)
    alpha = 0.37
    w_hi = 40.0 / (2.0 * math.pi * alpha)
    val, _ = quad(lambda w: _s_alpha_w(alpha, w), 0.0, w_hi,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    assert 4.0 / math.pi * val == pytest.approx(i1(alpha), abs=1e-10)


def test_c_tilde_frozen_values():
    assert c_tilde(1.0) == pytest.approx(CT1, abs=1e-10)
    assert c_tilde(math.inf) == pytest.approx(CT_INF, abs=1e-10)
    for alpha, want in CT_BY_ALPHA.items():
        assert c_tilde(alpha) == pytest.approx(want, abs=1e-9)
    assert c_tilde(0.37) == pytest.approx(CT_037, abs=1e-9)
    assert c_tilde(5.0) == pytest.approx(CT_5, abs=1e-9)


def test_c_tilde_oracle_frozen_values():
    assert c_tilde_oracle(1.0) == pytest.approx(CT1, abs=1e-9)
    assert c_tilde_oracle(math.inf) == pytest.approx(CT_INF, abs=1e-9)
    for alpha, want in CT_BY_ALPHA.items():
        assert c_tilde_oracle(alpha) == pytest.approx(want, abs=1e-9)


def test_c_tilde_cross_formula():
    for alpha in (0.25, 0.5, 2.0, 3.0, 10.0):
        assert abs(c_tilde(alpha) - c_tilde_oracle(alpha)) < 1e-7


def test_c_tilde_zero_crossing():
    assert abs(c_tilde(CT_ZERO_ALPHA)) < 1e-7
    assert c_tilde(CT_ZERO_ALPHA - 1e-3) < 0.0
    assert c_tilde(CT_ZERO_ALPHA + 1e-3) > 0.0


def test_c_tilde_maximum():
    res = minimize_scalar(lambda a: -c_tilde(a), method="golden",
                          bracket=(0.2, 0.32, 0.45),
                          options={"xtol": 1e-8})
    assert -res.fun == pytest.approx(CT_MAX, abs=1e-8)
    assert res.x == pytest.approx(CT_ARGMAX, abs=1e-4)


def test_c_tilde_branch_continuity():
    for alpha in (1.0 - 2e-6, 1.0 + 2e-6):
        assert c_tilde(alpha) == pytest.approx(CT1, abs=1e-5)


def test_c_tilde_validation():
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            c_tilde(alpha)
        with pytest.raises(DomainError):
            c_tilde_oracle(alpha)


# ---------------------------------------------------------------------------
# asymptotic reports

def test_asymptotic_single_sea_formula():
    report = renyi_asymptotic(hs_analysis(), 64, 1.0,
                              spectrum=spectrum("hs", 64))
    assert isinstance(report, EntropyReport)
    assert report.f_factor == pytest.approx(2.0, abs=1e-12)
    assert report.c_tilde == pytest.approx(CT1, abs=1e-10)
    want = math.log(2.0 * 64.0) / 3.0 + report.c_tilde
    assert report.s_asymptotic == pytest.approx(want, abs=1e-12)
    assert report.c_alpha == pytest.approx(
        math.log(2.0) / 3.0 + report.c_tilde, abs=1e-12)
    assert report.r_L == report.s_asymptotic / report.s_exact - 1.0
    assert report.s_exact > 0.0


def test_asymptotic_requires_critical():
    prof = DispersionProfile(InteractionModel.haldane_shastry())
    with pytest.raises(DomainError):
        renyi_asymptotic(fermi_points(prof, -1.0), 10, 1.0)
    fr = DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))
    with pytest.raises(DomainError):
        renyi_asymptotic(fermi_points(fr, 4.5), 10, 1.0)


def test_asymptotic_validation():
    for bad in (0, np.int64(0), 2.5, True):
        with pytest.raises(DomainError):
            renyi_asymptotic(hs_analysis(), bad, 1.0)
    assert renyi_asymptotic(hs_analysis(), np.int64(16), 1.0) == \
        renyi_asymptotic(hs_analysis(), 16, 1.0)
    with pytest.raises(DomainError):
        renyi_asymptotic(hs_analysis(), 10, -1.0)
    with pytest.raises(DomainError):
        renyi_asymptotic(hs_analysis(), 10, 1.0, spectrum=spectrum("hs", 12))


def test_fig8_relative_error_at_100():
    report = renyi_asymptotic(fig8_analysis(), 100, 1.0)
    assert abs(report.r_L) < 3e-5


def test_entropy_slope_and_intercept():
    sizes = (64, 128, 256, 512)
    logs = np.log(sizes)
    design = np.column_stack([logs, np.ones(4)])
    for which, nsea in (("hs", 1), ("fig8", 2)):
        s1 = np.array([renyi_exact(spectrum(which, L), 1.0) for L in sizes])
        slope = np.linalg.lstsq(design, s1, rcond=None)[0][0]
        assert slope == pytest.approx(nsea / 3.0, rel=0.02)
    # model-dependent intercept, single-sea case
    c1 = math.log(2.0) / 3.0 + CT1
    resid = renyi_exact(spectrum("hs", 512), 1.0) - math.log(512.0) / 3.0
    assert abs(resid - c1) < 5e-4
    # slope scales with the prefactor at other orders
    s2 = np.array([renyi_exact(spectrum("hs", L), 2.0) for L in sizes])
    slope2 = np.linalg.lstsq(design, s2, rcond=None)[0][0]
    assert slope2 == pytest.approx(0.25, rel=0.02)
