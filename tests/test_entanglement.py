import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from fermichain import entanglement
from fermichain.cli import run
from fermichain.criticality import fermi_points
from fermichain.entanglement import (
    EntropyReport,
    _CSCH_SERIES,
    c_tilde,
    f_factor,
    i1,
    renyi_asymptotic,
    renyi_exact,
)
from fermichain.errors import DomainError, QuadratureError
from fermichain.models import DispersionProfile, InteractionModel
from fermichain.specfun import zeta
from fermichain.spectral import (CorrelationSpectrum, correlation_row,
                                 correlation_spectrum,
                                 correlation_spectrum_finite)

# frozen references (60-digit oracle)
CT1 = 0.49501790813513705
CT_INF = 0.27970015082755940
CT_BY_ALPHA = {0.25: 0.61490026862603817, 0.5: 0.59933363386423751,
               2.0: 0.40404872003727628, 3.0: 0.36636516917845875,
               10.0: 0.30715079865750305}
CT_037 = 0.62832121901123944
CT_5 = 0.33341911189572052
CT_ZERO_ALPHA = 0.10602710530572807
CT_NEAR_ONE = {0.99999901: 0.49501805837581604391,
               1.00000099: 0.49501775789464663283,
               0.9999989: 0.49501807506923646152,
               1.0000011: 0.49501774120127044918}
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

@pytest.mark.parametrize("model, mu", [
    (InteractionModel.haldane_shastry(), 2.0),
    (InteractionModel.haldane_shastry(), MU_HALF),
    (InteractionModel.finite_range((1.0, 0.5)), 4.25),
], ids=["hs-mu2", "hs-half", "fig8-4.25"])
def test_renyi_two_matches_levinson_oracle(s2_levinson, model, mu):
    # S_2 from the dense eigensolver against one Levinson-Durbin pass,
    # which needs no eigenvalues, on one- and two-arc seas
    a = fermi_points(DispersionProfile(model), mu)
    want = s2_levinson(correlation_row(a, 2048))
    for L in (1, 2, 3, 64, 255, 512, 1023, 2048):
        got = renyi_exact(correlation_spectrum(a, L), 2.0)
        assert abs(got - want[L - 1]) <= 1e-10, L


# |S_exact - S_app - d_alpha| at alpha = 1.5, 2, 3 for each L, about
# ten times the values measured at each point: Haldane-Shastry seas
# (0, p), and finite-range (-1) seas (p, pi), centred on pi, whose
# particle-hole mirrors mu = -1.2 and -2.8 measure the same
_PI_SEA_BOUNDS = {256: (3.1e-6, 4.3e-6, 7.8e-5), 512: (9e-7, 2.2e-6, 3.1e-5),
                  1024: (2.3e-7, 6.7e-7, 2.4e-6),
                  2048: (5.9e-8, 1.9e-7, 3.9e-6)}
ONE_ARC_GAP_BOUNDS = {
    (None, 2.0): {256: (5e-6, 2.2e-5, 1.7e-4), 512: (1.5e-7, 3.5e-6, 6e-5),
                  1024: (5.5e-8, 1.1e-6, 2.9e-5),
                  2048: (6.8e-8, 4.4e-7, 3.5e-6)},
    (None, math.pi ** 2 / 4): {256: (3.5e-6, 9.2e-6, 1.3e-4),
                               512: (9e-7, 2.7e-6, 4.7e-5),
                               1024: (2.4e-7, 8.7e-7, 1.5e-5),
                               2048: (6.3e-8, 2.9e-7, 4.7e-8)},
    ((-1.0,), -1.2): _PI_SEA_BOUNDS,
    ((-1.0,), -2.8): _PI_SEA_BOUNDS,
}


@pytest.mark.parametrize("alphas, mu", ONE_ARC_GAP_BOUNDS, ids=[
    "mu2", "mu-pi2/4", "pi-sea-mu-1.2", "pi-sea-mu-2.8"])
def test_one_arc_gap_is_the_calabrese_essler_term(calabrese_essler, alphas,
                                                  mu):
    # on a one-arc sea the exact entropy less the leading asymptotic
    # form is the oscillating Calabrese-Essler term in its Fermi point,
    # to 2-3 orders below the gap itself; one spectrum serves every
    # alpha at each L
    model = (InteractionModel.haldane_shastry() if alphas is None
             else InteractionModel.finite_range(alphas))
    a = fermi_points(DispersionProfile(model), mu)
    (p,) = [r for r, _ in a.roots]
    assert a.sea_half == (((0.0, p),) if alphas is None
                          else ((p, math.pi),))
    for L, bounds in ONE_ARC_GAP_BOUNDS[alphas, mu].items():
        s = correlation_spectrum(a, L)
        for alpha, bound in zip((1.5, 2.0, 3.0), bounds):
            rep = renyi_asymptotic(s, alpha)
            gap = rep.s_exact - rep.s_asymptotic
            assert abs(gap - calabrese_essler(alpha, L, p)) <= bound, \
                (L, alpha)


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


def test_exact_near_alpha_one_matches_mpmath():
    # the kernel once snapped alpha within 1e-6 of 1 to the Shannon form,
    # 9.5e-7 off here; the reference sums the same eigenvalues at 50 digits
    mpmath = pytest.importorskip("mpmath")
    sp = spectrum("hs", 64)
    # eigenvalues a rounding step outside [0, 1] count as 0 or 1, as in
    # the kernel
    lams = [min(max(lam, 0.0), 1.0) for lam in sp.eigenvalues]
    for alpha in (1.0 - 9.9e-7, 1.0 + 9.9e-7, 1.0 + 1.1e-6):
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            want = sum(mpmath.log(mpmath.mpf(lam) ** a
                                  + (1 - mpmath.mpf(lam)) ** a)
                       for lam in lams) / (1 - a)
        assert renyi_exact(sp, alpha) == pytest.approx(float(want),
                                                       abs=1e-12)


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


def test_csch_series_cached_read_only():
    # the defining expression, written out with specfun.zeta, to the bit
    k = np.arange(13)
    want = ((-1.0) ** (k + 1) * (2.0 - 4.0 ** -k)
            * np.array([zeta(2.0 * j + 2.0) for j in k])
            / math.pi ** (2 * k + 2))
    coef = _CSCH_SERIES
    assert np.array_equal(coef, want)
    with pytest.raises(ValueError):
        coef[0] = 0.0
    # zeta(2k + 2) against 40 digits; the reference takes pi as the same
    # double, so only zeta and the float arithmetic are measured
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        pi = mpmath.mpf(math.pi)
        for j in range(13):
            ref = ((-1) ** (j + 1) * (2 - mpmath.mpf(4) ** -j)
                   * mpmath.zeta(2 * j + 2) / pi ** (2 * j + 2))
            assert abs(coef[j] / ref - 1) < 1e-15, j


def test_c_tilde_oracle_frozen_values(c_tilde_oracle):
    assert c_tilde_oracle(1.0) == pytest.approx(CT1, abs=1e-9)
    assert c_tilde_oracle(math.inf) == pytest.approx(CT_INF, abs=1e-9)
    for alpha, want in CT_BY_ALPHA.items():
        assert c_tilde_oracle(alpha) == pytest.approx(want, abs=1e-9)


def test_c_tilde_cross_formula(c_tilde_oracle):
    # from alpha = 2000 on the oracle needs its breakpoints near
    # w = 1/(2 pi alpha), and near 1 its expm1 form
    for alpha in (0.01, 0.25, 0.5, 0.999, 1.0 - 9.9e-7, 1.0 + 9.9e-7, 1.001,
                  2.0, 3.0, 10.0, 1e3, 2e3, 1e4, 1e5, 1e6):
        assert abs(c_tilde(alpha) - c_tilde_oracle(alpha)) < 1e-12


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
    # 40-digit mpmath values on both sides of the former 1e-6 snap to
    # c_tilde(1), and alpha = 1e200 against the alpha = inf limit
    for alpha, want in CT_NEAR_ONE.items():
        assert c_tilde(alpha) == pytest.approx(want, abs=1e-12)
    assert c_tilde(1e200) == pytest.approx(c_tilde(math.inf), abs=1e-12)


def test_c_tilde_finite_or_raises():
    # c_tilde grows like -1.5/alpha as alpha -> 0, so the absolute 1e-9
    # gate refuses small alpha; no alpha may give inf or nan
    for k in range(-320, 309, 7):
        try:
            assert math.isfinite(c_tilde(10.0 ** k))
        except QuadratureError:
            assert k < 0


def test_c_tilde_validation(c_tilde_oracle):
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            c_tilde(alpha)
        with pytest.raises(DomainError):
            c_tilde_oracle(alpha)


# ---------------------------------------------------------------------------
# the c_tilde memo: one integral per order per process

MEMO_ALPHAS = (0.25, 0.5, 1.0, 2.0, 3.0, 10.0, math.inf)
_memo = entanglement._c_tilde_integral


def _bits(x):
    return np.float64(x).tobytes()


def test_c_tilde_memo_keeps_the_cold_bits():
    _memo.cache_clear()
    cold = [c_tilde(a) for a in MEMO_ALPHAS]
    assert _memo.cache_info().misses == len(MEMO_ALPHAS)
    warm = [c_tilde(a) for a in MEMO_ALPHAS]
    assert _memo.cache_info().hits == len(MEMO_ALPHAS)
    # and against a computation that bypasses the memo altogether
    fresh = [_memo.__wrapped__(a) for a in MEMO_ALPHAS]
    assert list(map(_bits, cold)) == list(map(_bits, warm)) \
        == list(map(_bits, fresh))


def test_c_tilde_memo_keyed_by_validated_float():
    _memo.cache_clear()
    values = [c_tilde(a) for a in (np.int64(2), 2, 2.0)]
    info = _memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert len(set(map(_bits, values))) == 1
    # a float32 order is its own exact double, not the decimal it prints as
    narrow = c_tilde(np.float32(0.1))
    assert _memo.cache_info().currsize == 2
    assert _bits(narrow) == _bits(c_tilde(float(np.float32(0.1))))
    assert _memo.cache_info().currsize == 2
    assert narrow != c_tilde(0.1)
    assert _memo.cache_info().currsize == 3
    # validation runs on every call: True hashes as 1.0, which is now kept
    c_tilde(1.0)
    for bad in (True, math.nan, 0.0):
        with pytest.raises(DomainError):
            c_tilde(bad)


def test_c_tilde_memo_does_not_keep_failures():
    c_tilde(1.0)
    before = _memo.cache_info()
    for _ in range(2):
        with pytest.raises(QuadratureError):
            c_tilde(1e-6)
    after = _memo.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 2


def test_c_tilde_memo_under_threads():
    _memo.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        start.wait()
        results[i] = [_bits(c_tilde(a)) for a in MEMO_ALPHAS]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    want = [_bits(_memo.__wrapped__(a)) for a in MEMO_ALPHAS]
    assert results == [want] * 4


def test_c_tilde_memo_serves_an_entropy_sweep(tmp_path):
    # the README's entropy example: nine sizes at one order, one integral
    _memo.cache_clear()
    assert run(["entropy", "--model", "finite-range", "--coeffs", "1,0.5",
                "--mu", "4.25", "--alpha", "1", "--L", "100:500:50",
                "--compare", "--output", str(tmp_path / "entropy.csv")]) == 0
    info = _memo.cache_info()
    assert (info.misses, info.hits) == (1, 8)


# ---------------------------------------------------------------------------
# asymptotic reports

def test_asymptotic_single_sea_formula():
    s = spectrum("hs", 64)
    report = renyi_asymptotic(s, 1.0)
    assert isinstance(report, EntropyReport)
    # half filling: one Fermi point at pi/2, so f = 2 sin(pi/2) = 2
    assert f_factor(s.fermi_momenta) == pytest.approx(2.0, abs=1e-12)
    assert c_tilde(1.0) == pytest.approx(CT1, abs=1e-10)
    want = math.log(2.0 * 64.0) / 3.0 + c_tilde(1.0)
    assert report.s_asymptotic == pytest.approx(want, abs=1e-12)
    assert report.r_L == report.s_asymptotic / report.s_exact - 1.0
    assert report.s_exact > 0.0


def test_asymptotic_requires_critical():
    # a gapped or tangent sea gives no spectrum to compare
    prof = DispersionProfile(InteractionModel.haldane_shastry())
    with pytest.raises(DomainError):
        correlation_spectrum(fermi_points(prof, -1.0), 10)
    fr = DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))
    with pytest.raises(DomainError):
        correlation_spectrum(fermi_points(fr, 4.5), 10)
    # a ring's spectrum and a hand-built one carry no Fermi points
    ring = correlation_spectrum_finite(InteractionModel.haldane_shastry(),
                                       2.0, 10, 64)
    bare = CorrelationSpectrum(L=1, eigenvalues=np.array([0.5]))
    for s in (ring, bare):
        assert s.fermi_momenta is None
        with pytest.raises(DomainError):
            renyi_asymptotic(s, 1.0)


def test_asymptotic_validation():
    for bad in (0, np.int64(0), 2.5, True):
        with pytest.raises(DomainError):
            correlation_spectrum(hs_analysis(), bad)
    assert renyi_asymptotic(correlation_spectrum(hs_analysis(),
                                                 np.int64(16)), 1.0) == \
        renyi_asymptotic(correlation_spectrum(hs_analysis(), 16), 1.0)
    with pytest.raises(DomainError):
        renyi_asymptotic(spectrum("hs", 10), -1.0)
    # the spectrum carries its sea's Fermi points and its own L; the same
    # by hand, in numpy types, give the same report
    s = spectrum("fig8", 12)
    assert s.fermi_momenta == tuple(p for p, _ in fig8_analysis().roots)
    by_hand = CorrelationSpectrum(L=np.int64(12), eigenvalues=s.eigenvalues,
                                  fermi_momenta=np.array(s.fermi_momenta))
    assert renyi_asymptotic(by_hand, 2.0) == renyi_asymptotic(s, 2.0)


@pytest.mark.parametrize("L, roots", [
    (16, (2.0, 1.0)), (16, (1.0, 1.0)), (16, (True,)), (16, (math.nan,)),
    (16, (4.0,)), (2.5, (1.0,)), (True, (1.0,))],
    ids=["reversed", "coincident", "bool", "nan", "outside", "float-L",
         "bool-L"])
def test_asymptotic_checks_a_hand_built_spectrum(L, roots):
    # a hand-built spectrum's Fermi points and L get the DomainError that
    # f_factor and correlation_row give them, when it is built
    with pytest.raises(DomainError) as want:
        if L == 16:
            f_factor(roots)
        else:
            correlation_row(hs_analysis(), L)
    with pytest.raises(DomainError) as got:
        s = CorrelationSpectrum(L=L,
                                eigenvalues=spectrum("hs", 16).eigenvalues,
                                fermi_momenta=roots)
        renyi_asymptotic(s, 1.0)
    assert str(got.value) == str(want.value)


def test_hand_built_spectrum_needs_L_eigenvalues():
    # a spectrum holds one eigenvalue per site of its block; one whose L
    # disagrees with its eigenvalues gave an r_L of the wrong block
    s = spectrum("hs", 16)
    for eig in (s.eigenvalues[:15], s.eigenvalues[:, None], s.eigenvalues[0]):
        with pytest.raises(DomainError, match="length 16 has 16 eigenvalues"):
            CorrelationSpectrum(L=16, eigenvalues=eig)
    with pytest.raises(DomainError, match="length 17 has 17 eigenvalues"):
        dataclasses.replace(s, L=17)
    # numpy types are stored as the library's own: an int and a tuple of
    # floats
    by_hand = CorrelationSpectrum(L=np.int64(16), eigenvalues=s.eigenvalues,
                                  fermi_momenta=np.array(s.fermi_momenta))
    assert type(by_hand.L) is int
    assert by_hand.fermi_momenta == s.fermi_momenta
    assert [type(p) for p in by_hand.fermi_momenta] == [float]


def test_report_derives_r_L():
    # r_L follows from the two entropies: a replaced entropy recomputes
    # it, and it cannot be passed
    report = renyi_asymptotic(spectrum("hs", 64), 1.0)
    moved = dataclasses.replace(report, s_exact=2.0 * report.s_exact)
    assert moved.r_L == report.s_asymptotic / (2.0 * report.s_exact) - 1.0
    assert EntropyReport(report.s_exact, report.s_asymptotic) == report
    with pytest.raises(TypeError):
        EntropyReport(s_exact=1.0, s_asymptotic=1.0, r_L=0.5)


def test_fig8_relative_error_at_100():
    report = renyi_asymptotic(spectrum("fig8", 100), 1.0)
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
