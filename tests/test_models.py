import math
import time

import numpy as np
import pytest

from fermichain import specfun
from fermichain.criticality import fermi_points, low_temperature_fit
from fermichain.models import (
    DispersionProfile,
    HALF_PERIOD_CANDIDATES,
    InteractionModel,
    _CL2_COEF,
    _bisect_sign_change,
    half_period_zeros,
    mode_energies,
    monotonicity_report,
)
from fermichain.specfun import polylog_circle, zeta
from fermichain.errors import AccuracyError, DomainError

TWO_PI = 2.0 * math.pi

# frozen reference values (40-digit arbitrary precision run)
PL3_E_1 = 1.5069677917591538
PL3_E1_1 = 2.027918264721537
PL3_E2_1 = 0.084039011650737923
RC_E_1 = 1.8881087577102164     # J = 1/2
RC_E1_1 = 1.1276335212290247
RC_E2_1 = -1.042019505825369


def hs():
    return InteractionModel.haldane_shastry()


def fr(*alphas):
    return InteractionModel.finite_range(alphas)


def all_test_models():
    return [hs(), fr(1.0, 0.5), InteractionModel.power_law(3.0),
            InteractionModel.rational_cubic(0.4),
            InteractionModel.custom_summable(
                lambda j: 0.5 ** j, lambda J: 0.5 ** J)]


# ---------------------------------------------------------------------------
# mode energies

def test_mode_energy_zero_mode():
    assert mode_energies(hs(), 6)[0] == 0.0


def test_mode_energy_hs_closed_form():
    # eps_N(l) = 2 pi^2 l (N - l) / N^2 for the 1/sin^2 ring couplings
    assert mode_energies(hs(), 6)[2] == pytest.approx(
        4.0 * math.pi ** 2 / 9.0, abs=1e-12)
    for N in (4, 5, 6, 7, 8, 16, 64):
        eps = mode_energies(hs(), N)
        for l in range(N):
            want = 2.0 * math.pi ** 2 * l * (N - l) / N ** 2
            assert eps[l] == pytest.approx(want, abs=1e-10)


def test_mode_energy_finite_range_value():
    assert mode_energies(fr(1.0, 0.5), 8)[4] == pytest.approx(4.0, abs=1e-14)


def test_mode_energy_reflection():
    for model in all_test_models():
        for N in (5, 8, 9, 16, 64):
            eps = mode_energies(model, N)
            for l in range(1, N):
                assert eps[N - l] == pytest.approx(eps[l], rel=1e-13,
                                                   abs=1e-13)


def test_mode_energy_matches_full_range_sum():
    # independent route: sum over every chord 1..N-1 with reflected couplings
    for model in all_test_models():
        for N in (1, 2, 4, 7, 10, 13, 64, 511, 512):
            j = np.arange(1, N)
            h = np.array([model.coupling(min(k, N - k), N) for k in j])
            phase = TWO_PI * (np.outer(np.arange(N), j) % N) / N
            want = ((1.0 - np.cos(phase)) * h).sum(axis=1)
            got = mode_energies(model, N)
            assert got.shape == (N,)
            assert got[0] == 0.0
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_mode_energy_index_errors():
    for N in (0, -3, 8.7, 8.0, True, np.int64(0)):
        with pytest.raises(DomainError):
            mode_energies(hs(), N)
    assert np.array_equal(mode_energies(hs(), np.int64(8)),
                          mode_energies(hs(), 8))


# ---------------------------------------------------------------------------
# dispersion values

def test_dispersion_zero_at_zone_center():
    for model in all_test_models():
        assert DispersionProfile(model).E(0.0) == pytest.approx(0.0, abs=1e-12)


def test_dispersion_known_points():
    prof = DispersionProfile(fr(1.0, 0.5))
    assert prof.E(TWO_PI / 3.0) == pytest.approx(4.5, abs=1e-13)
    prof = DispersionProfile(hs())
    assert prof.E(math.pi) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-14)


def test_dispersion_frozen_values():
    prof = DispersionProfile(InteractionModel.power_law(3.0))
    assert prof.E(1.0) == pytest.approx(PL3_E_1, abs=1e-11)
    prof = DispersionProfile(InteractionModel.rational_cubic(0.5))
    assert prof.E(1.0) == pytest.approx(RC_E_1, abs=1e-11)


def test_dispersion_reflection_symmetry():
    for model in all_test_models():
        prof = DispersionProfile(model)
        for p in (0.3, 1.2, 2.9):
            assert prof.E(TWO_PI - p) == pytest.approx(prof.E(p), rel=1e-12,
                                                       abs=1e-12)


def test_power_law_two_matches_haldane_shastry():
    pl = DispersionProfile(InteractionModel.power_law(2.0))
    ref = DispersionProfile(hs())
    for p in np.linspace(0.01, TWO_PI - 0.01, 100):
        assert pl.E(p) == pytest.approx(ref.E(p), abs=1e-9)


def test_dispersion_momentum_domain():
    prof = DispersionProfile(hs())
    with pytest.raises(DomainError):
        prof.E(-0.1)
    with pytest.raises(DomainError):
        prof.E(TWO_PI + 0.1)
    with pytest.raises(DomainError):
        prof.E_grid(np.array([0.0, 7.0]))


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_known_points():
    prof = DispersionProfile(fr(1.0, 0.5))
    p = TWO_PI / 3.0
    assert prof.E1(p) == pytest.approx(0.0, abs=1e-13)
    assert prof.E2(p) == pytest.approx(-3.0, abs=1e-12)
    assert DispersionProfile(hs()).E1(math.pi) == 0.0


def test_derivative_frozen_values():
    prof = DispersionProfile(InteractionModel.power_law(3.0))
    assert prof.E1(1.0) == pytest.approx(PL3_E1_1, abs=1e-10)
    assert prof.E2(1.0) == pytest.approx(PL3_E2_1, abs=1e-10)
    prof = DispersionProfile(InteractionModel.rational_cubic(0.5))
    assert prof.E1(1.0) == pytest.approx(RC_E1_1, abs=1e-11)
    assert prof.E2(1.0) == pytest.approx(RC_E2_1, abs=1e-13)


def test_first_derivative_matches_finite_differences():
    h = 1e-5
    for model in all_test_models():
        prof = DispersionProfile(model)
        for p in (0.4, 1.3, 2.2, 3.0):
            fd = (prof.E(p + h) - prof.E(p - h)) / (2.0 * h)
            assert prof.E1(p) == pytest.approx(fd, abs=1e-6)


def test_second_derivative_matches_finite_differences():
    h = 1e-5
    for model in all_test_models():
        prof = DispersionProfile(model)
        for p in (0.7, 1.9, 2.8):
            fd = (prof.E1(p + h) - prof.E1(p - h)) / (2.0 * h)
            assert prof.E2(p) == pytest.approx(fd, abs=1e-5)


def oracle_polylog(mpmath, s, p):
    # Li_s(e^{ip}) at 30 digits; the zone edge is the float 2 pi, so a
    # point past pi stands for the conjugate at the angle TWO_PI - p
    if p > math.pi:
        return oracle_polylog(mpmath, s, TWO_PI - p).conjugate()
    with mpmath.workdps(30):
        return complex(mpmath.polylog(s, mpmath.expj(p)))


def test_power_law_slope_equals_polylog_route():
    # E'(p) = 2 C Im Li_{nu-1}(e^{ip}), the right side from mpmath
    mpmath = pytest.importorskip("mpmath")
    prof = DispersionProfile(InteractionModel.power_law(3.0))
    for p in (0.5, 1.0, 2.4):
        assert prof.E1(p) == pytest.approx(
            2.0 * oracle_polylog(mpmath, 2.0, p).imag, abs=1e-12)


def zone_center_ladder():
    # p = pi 2^-k toward 0 and toward pi, where the zeta series and the
    # near-pi slope form each take over, plus a coarse grid in between
    k = np.arange(1.0, 41.0)
    return np.concatenate([math.pi * 2.0 ** -k, np.linspace(0.1, 3.0, 30),
                           math.pi * (1.0 - 2.0 ** -k)])


def test_rational_cubic_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    p = zone_center_ladder()
    p = np.concatenate([p, TWO_PI - p, np.linspace(0.0, TWO_PI, 41)])
    zeta3 = float(mpmath.zeta(3))
    gap3 = np.array([zeta3 - oracle_polylog(mpmath, 3, x).real for x in p])
    cl2 = np.array([oracle_polylog(mpmath, 2, x).imag for x in p])
    for J in (0.5, 0.6):
        prof = DispersionProfile(InteractionModel.rational_cubic(J))
        want_e = 0.5 * p * (TWO_PI - p) - 2.0 * J * gap3
        want_e1 = (math.pi - p) - 2.0 * J * cl2
        np.testing.assert_allclose(prof.E_grid(p), want_e, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prof.E1_grid(p), want_e1,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose([prof.E(x) for x in p], want_e,
                                   rtol=0, atol=1e-12)


def test_clausen_coefficients_cached_read_only():
    # the defining expression, written out with specfun.zeta, to the bit
    k = np.arange(1, 25, dtype=float)
    z = np.array([zeta(2.0 * j) for j in k])
    want = np.concatenate([[0.0], z / (
        k * (2.0 * k + 1.0) * TWO_PI ** (2.0 * k))])
    coef = _CL2_COEF
    assert np.array_equal(coef, want)
    with pytest.raises(ValueError):
        coef[1] = 0.0
    # zeta(2k) against 40 digits; the reference takes 2 pi as the same
    # double, so only zeta and the float arithmetic are measured
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        two_pi = mpmath.mpf(TWO_PI)
        for j in range(1, 25):
            ref = mpmath.zeta(2 * j) / (j * (2 * j + 1) * two_pi ** (2 * j))
            assert abs(coef[j] / ref - 1) < 1e-15, j


@pytest.mark.parametrize("nu", [1.0001, 1.6, 2.5, 3.9])
def test_power_law_matches_mpmath(nu):
    # E = 2C[zeta(nu) - Re Li_nu], E' = 2C Im Li_{nu-1}, E'' = 2C Re Li_{nu-2};
    # the derivatives use orders at or below 1, which diverge at the zone
    # center, so the tolerance is relative there
    mpmath = pytest.importorskip("mpmath")
    C = 0.7
    prof = DispersionProfile(InteractionModel.power_law(nu, C=C))
    k = np.array([1.0, 3.0, 10.0, 20.0, 40.0])
    p = np.concatenate([math.pi * 2.0 ** -k, [1.0, 2.2],
                        math.pi * (1.0 - 2.0 ** -k[::2]),
                        TWO_PI - math.pi * 2.0 ** -k[::2]])
    zeta_nu = float(mpmath.zeta(nu))
    want = [[2.0 * C * (zeta_nu - oracle_polylog(mpmath, nu, x).real),
             2.0 * C * oracle_polylog(mpmath, nu - 1.0, x).imag,
             2.0 * C * oracle_polylog(mpmath, nu - 2.0, x).real] for x in p]
    got = np.column_stack([prof.E_grid(p), prof.E1_grid(p), prof.E2_grid(p)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("nu", [101.0, 101.02, 172.0, 180.0, 1e15, 1e308])
def test_power_law_large_orders_match_direct_sum(nu):
    # orders whose series term at the Gamma pole lies past the kept
    # terms: E, E' and E'' agree with the coupling sums to 1e-14, each
    # evaluator, constants included, in well under a second
    specfun._series_constants.cache_clear()
    C = 0.7
    prof = DispersionProfile(InteractionModel.power_law(nu, C=C))
    p = np.linspace(0.0, TWO_PI, 97)
    j = np.arange(1.0, 51.0)[:, None]
    w = 2.0 * C * j ** -nu
    want = [(w * (1.0 - np.cos(j * p))).sum(axis=0),
            (w * j * np.sin(j * p)).sum(axis=0),
            (w * j * j * np.cos(j * p)).sum(axis=0)]
    for evaluator, ref in zip((prof.E_grid, prof.E1_grid, prof.E2_grid),
                              want):
        start = time.perf_counter()
        got = evaluator(p)
        assert time.perf_counter() - start < 1.0
        assert np.max(np.abs(got - ref)) < 1e-14


def test_power_law_zone_center_conventions():
    for nu in (1.6, 3.0, 3.9, 5.0):
        prof = DispersionProfile(InteractionModel.power_law(nu, C=2.0))
        for p in (0.0, TWO_PI):
            assert prof.E(p) == 0.0
            assert prof.E1(p) == 0.0
            want = math.inf if nu <= 3.0 else 4.0 * zeta(nu - 2.0)
            assert prof.E2(p) == want


def test_scalar_calls_match_grid_bitwise():
    k = np.arange(1.0, 41.0, 3.0)
    p = np.concatenate([np.linspace(0.0, TWO_PI, 23), math.pi * 2.0 ** -k,
                        math.pi * (1.0 - 2.0 ** -k)])
    models = all_test_models() + [InteractionModel.power_law(1.6),
                                  InteractionModel.power_law(3.9999)]
    for model in models:
        prof = DispersionProfile(model)
        for scalar, grid in ((prof.E, prof.E_grid), (prof.E1, prof.E1_grid),
                             (prof.E2, prof.E2_grid)):
            assert [scalar(x) for x in p] == grid(p).tolist(), model.family


def test_grid_evaluators_keep_momentum_shape():
    flat = np.array([0.0, 0.4, 1.3, math.pi, 4.0, TWO_PI])
    models = all_test_models() + [InteractionModel.power_law(1.6)]
    for model in models:
        prof = DispersionProfile(model)
        for grid in (prof.E_grid, prof.E1_grid, prof.E2_grid):
            got = grid(flat.reshape(2, 3))
            assert got.shape == (2, 3), model.family
            assert got.tolist() == grid(flat).reshape(2, 3).tolist(), \
                model.family


def test_finite_range_matches_cosine_sum():
    alphas = (1.0, -0.3, 0.25, 0.05)
    prof = DispersionProfile(fr(*alphas))
    p = np.linspace(0.0, TWO_PI, 37)
    terms = list(enumerate(alphas, start=1))
    want = [[2.0 * sum(a * (1.0 - math.cos(k * x)) for k, a in terms),
             2.0 * sum(k * a * math.sin(k * x) for k, a in terms),
             2.0 * sum(k * k * a * math.cos(k * x) for k, a in terms)]
            for x in p]
    got = np.column_stack([prof.E_grid(p), prof.E1_grid(p), prof.E2_grid(p)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_curvature_grid_matches_closed_forms():
    p = np.linspace(0.0, TWO_PI, 17)
    inner = p[1:-1]
    s = 2.0 * np.sin(0.5 * inner)
    z = 0.5 * np.exp(1j * p)
    cases = [
        (hs(), np.full(p.shape, -1.0)),
        (fr(1.0, 0.5), 2.0 * (np.cos(p) + 2.0 * np.cos(2.0 * p))),
        # E'' = 2 Re Li_1(e^{ip}) = -2 log|2 sin(p/2)| at nu = 3
        (InteractionModel.power_law(3.0),
         np.concatenate([[math.inf], -2.0 * np.log(s), [math.inf]])),
        (InteractionModel.rational_cubic(0.4),
         np.concatenate([[-math.inf], -1.0 + 0.8 * np.log(s), [-math.inf]])),
        (InteractionModel.rational_cubic(-0.4),
         np.concatenate([[math.inf], -1.0 - 0.8 * np.log(s), [math.inf]])),
        (InteractionModel.rational_cubic(0.0), np.full(p.shape, -1.0)),
        # sum_j j^2 z^j = z (1 + z) / (1 - z)^3 for h(j) = 2^-j
        (InteractionModel.custom_summable(lambda j: 0.5 ** j,
                                          lambda J: 0.5 ** J),
         2.0 * (z * (1.0 + z) / (1.0 - z) ** 3).real),
    ]
    for model, want in cases:
        prof = DispersionProfile(model)
        got = prof.E2_grid(p)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                   err_msg=model.family)
        assert [prof.E2(x) for x in p] == got.tolist()


# ---------------------------------------------------------------------------
# thermodynamic limit

def test_ring_energies_converge_to_dispersion():
    models = [InteractionModel.power_law(3.0),
              InteractionModel.rational_cubic(0.3)]
    targets = np.linspace(0.35, 2.9, 16)
    for model in models:
        prof = DispersionProfile(model)
        errs = []
        for N in (64, 256, 1024):
            eps = mode_energies(model, N)
            worst = 0.0
            for pt in targets:
                l = int(round(pt * N / TWO_PI))
                p = TWO_PI * l / N
                worst = max(worst, abs(eps[l] - prof.E(p)))
            errs.append(worst)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


def test_short_range_ring_energies_exact():
    for model in (hs(), fr(1.0, 0.5)):
        prof = DispersionProfile(model)
        for N in (64, 256):
            eps = mode_energies(model, N)
            for l in (1, N // 4, N // 2):
                p = TWO_PI * l / N
                assert eps[l] == pytest.approx(prof.E(p), abs=1e-11)


# ---------------------------------------------------------------------------
# monotonicity

def test_monotonic_families():
    for model in (hs(), fr(1.0, 0.2), InteractionModel.rational_cubic(0.5)):
        rep = monotonicity_report(DispersionProfile(model))
        assert rep == ()


def test_finite_range_critical_point():
    rep = monotonicity_report(DispersionProfile(fr(1.0, 0.5)))
    assert len(rep) == 1
    assert rep[0] == pytest.approx(TWO_PI / 3.0, abs=1e-11)


def test_power_law_monotonic():
    rep = monotonicity_report(
        DispersionProfile(InteractionModel.power_law(1.5)))
    assert rep == ()


def test_rational_cubic_threshold():
    # slope loses monotonicity only above J = 1/(2 log 2) ~ 0.7213
    rep = monotonicity_report(
        DispersionProfile(InteractionModel.rational_cubic(0.72)))
    assert rep == ()
    rep = monotonicity_report(
        DispersionProfile(InteractionModel.rational_cubic(0.75)))
    assert rep != ()


def test_near_threshold_root_close_to_zone_center():
    # J just below -1/4 puts the critical point ~9e-6 from p = 0
    J = -0.25 - 1e-11
    rep = monotonicity_report(DispersionProfile(fr(1.0, J)))
    want = math.acos(-1.0 / (4.0 * J))
    assert len(rep) == 1
    assert rep[0] == pytest.approx(want, abs=1e-9)


def test_near_threshold_root_close_to_zone_edge():
    J = 0.25 + 1e-11
    rep = monotonicity_report(DispersionProfile(fr(1.0, J)))
    want = math.acos(-1.0 / (4.0 * J))
    assert len(rep) == 1
    assert rep[0] == pytest.approx(want, abs=1e-9)


def test_scan_refuses_harmonics_finer_than_its_cells():
    # (1, 0, ..., 0, a_j) with j a_j = 4/3 has j - 1 sign changes of E'
    # on (0, pi). The 4096-cell scan misses some of them from about
    # j = 2048 on, so a top harmonic above j = 1024 is refused.
    def model(j):
        return fr(1.0, *[0.0] * (j - 2), 4.0 / (3.0 * j))

    prof = DispersionProfile(model(64))
    assert len(monotonicity_report(prof)) == 63
    prof = DispersionProfile(model(1025))
    with pytest.raises(AccuracyError, match="1025"):
        monotonicity_report(prof)
    with pytest.raises(AccuracyError):
        fermi_points(prof, 1.0)
    assert prof.E(1.0) == pytest.approx(
        2.0 * (1.0 - math.cos(1.0))
        + 8.0 / 3075.0 * (1.0 - math.cos(1025.0)), abs=1e-14)


def test_slope_ratio_increases_to_2_log_2():
    # phi(p) = 2 Im Li_2(e^{ip}) / (pi - p) climbs monotonically to 2 log 2
    ps = np.linspace(0.05, math.pi - 1e-4, 50)
    phi = [2.0 * polylog_circle(2.0, p).imag / (math.pi - p) for p in ps]
    assert all(a < b for a, b in zip(phi, phi[1:]))
    assert phi[-1] == pytest.approx(2.0 * math.log(2.0), abs=1e-6)


# ---------------------------------------------------------------------------
# grid bisection

def scalar_bisection(f, a, b, fa, xtol):
    # one scalar f call per midpoint: the rules the grid passes reproduce
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def sign_change_cells(g):
    return np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)


@pytest.mark.parametrize("model, mu", [
    (hs(), 2.0), (fr(1.0, 0.5), 4.25), (fr(1.0, 0.5), 3.9),
    (InteractionModel.power_law(2.5), 1.5),
    (InteractionModel.rational_cubic(0.6), 1.0),
    (InteractionModel.rational_cubic(0.9), 1.25)])
def test_grid_bisection_matches_scalar_bisection(model, mu):
    prof = DispersionProfile(model)
    cand = HALF_PERIOD_CANDIDATES
    g = prof.E_grid(cand) - mu
    cells = sign_change_cells(g)
    assert cells.size
    for i in cells:
        got = _bisect_sign_change(lambda p: prof.E_grid(p) - mu,
                                  cand[i], cand[i + 1], g[i], g[i + 1],
                                  xtol=1e-13)
        want = scalar_bisection(lambda p: prof.E(p) - mu,
                                cand[i], cand[i + 1], g[i], 1e-13)
        assert got == want, model.family


def test_grid_bisection_of_slope_matches_scalar_bisection():
    prof = DispersionProfile(fr(1.0, 0.5))
    cand = HALF_PERIOD_CANDIDATES
    d = prof.E1_grid(cand)
    (i,) = sign_change_cells(d)
    got = _bisect_sign_change(prof.E1_grid, cand[i], cand[i + 1], d[i],
                              d[i + 1])
    assert got == scalar_bisection(prof.E1, cand[i], cand[i + 1], d[i], 1e-12)
    assert monotonicity_report(prof) == (got,)


def test_half_period_zeros_rule():
    # an exact 0 on the scan grid is an ordinary bracket end; a zero
    # that touches 0 without a sign change is none; zeros within 1e-12
    # of 0 or pi drop, and zeros closer than 1e-10 merge
    c = float(HALF_PERIOD_CANDIDATES[1000])
    (z,) = half_period_zeros(lambda p: p - c, 1e-13)
    assert abs(z - c) <= 1e-13
    assert half_period_zeros(lambda p: (p - c) ** 2, 1e-13) == []
    assert half_period_zeros(lambda p: p - 5e-13, 1e-13) == []
    assert half_period_zeros(lambda p: (math.pi - 5e-13) - p, 1e-13) == []
    # two zeros 5e-11 apart, each bracketed by a cell of the given grid
    grid = np.array([c, c + 3e-11, c + 1e-10])
    pair = half_period_zeros(
        lambda p: (p - (c + 1e-11)) * (p - (c + 6e-11)), 1e-13, grid)
    assert len(pair) == 1 and abs(pair[0] - (c + 1e-11)) <= 1e-13


def test_half_period_candidates_sorted_once():
    # the ladders toward 0 and pi go on from the outermost cell
    # midpoints, pi 2^-13 from either end, and repeat neither: every
    # value is kept once, in order, as np.unique would keep it; the grid
    # is built once, read-only, with the bits the sorted concatenation
    # of the cell midpoints and both ladders has
    ladder = math.pi * 2.0 ** -np.arange(13.0, 45.0)
    pieces = [ladder, (np.arange(4096) + 0.5) * (math.pi / 4096),
              math.pi - ladder]
    got = HALF_PERIOD_CANDIDATES
    assert got.size < sum(piece.size for piece in pieces)
    assert got.tobytes() == np.unique(np.concatenate(pieces)).tobytes()
    step = math.pi / 4096
    half_cell = 0.5 * step * 2.0 ** -np.arange(1.0, 32.0)
    sorted_grid = np.sort(np.concatenate(
        [half_cell, (np.arange(4096) + 0.5) * step, math.pi - half_cell]))
    assert got.tobytes() == sorted_grid.tobytes()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0] = 0.0


@pytest.mark.parametrize("mu, phase", [
    (4.5, "non-critical-multiple-root"), (5.0, "gapped-above"),
    (0.0, "boundary")])
def test_fermi_points_scans_no_piece_without_crossing(mu, phase):
    # a piece between consecutive extrema whose ends lie on one side of
    # mu, or end at a tangency or at the zone-edge minimum p = 0, holds
    # no crossing and is not scanned: the analysis evaluates E at the
    # extrema and the sea's midpoints only, where a scan of all of
    # (0, pi) takes more than 4000 points
    prof = DispersionProfile(fr(1.0, 0.5))
    counted, calls = counting(prof.E_grid)
    prof.E_grid = counted
    assert fermi_points(prof, mu).phase == phase
    assert sum(calls) <= 36


def test_grid_bisection_exact_midpoint_and_empty_bracket():
    calls = []

    def f(p):
        calls.append(p.size)
        return p - 0.75

    assert _bisect_sign_change(f, 0.5, 1.0, -0.25, 0.25) == 0.75
    assert len(calls) == 1
    calls.clear()
    a, b = 1.0, 1.0 + 1e-13
    assert _bisect_sign_change(f, a, b, -1.0, 1.0) == 0.5 * (a + b)
    assert calls == []


def counting(f):
    """f and the list of grid sizes it is called with."""
    calls = []

    def counted(p):
        calls.append(np.size(p))
        return f(np.asarray(p))

    return counted, calls


ADVERSARIAL = {
    "step": lambda r: lambda p: np.where(p < r, -1.0, 1.0),
    "skewed-step": lambda r: lambda p: np.where(p < r, -1e-9, 1e6),
    "cube": lambda r: lambda p: (p - r) ** 3,
    "sqrt": lambda r: lambda p: np.sign(p - r) * np.sqrt(np.abs(p - r)),
}


@pytest.mark.parametrize("shape", sorted(ADVERSARIAL))
def test_grid_bisection_call_bound(shape):
    # plain passes of eight levels settle [0.5, 1] to 1e-13 (43 levels)
    # in 6 calls; a secant guess that keeps missing may cost one more
    for r in (0.5 + 1e-12, 0.5 + 3e-7, 0.6180339887, 2.0 / 3.0, 0.75,
              0.75 + 1e-14, 0.5 + math.pi / 10.0, 1.0 - 1e-11):
        f = ADVERSARIAL[shape](r)
        fa, fb = float(f(0.5)), float(f(1.0))
        counted, calls = counting(f)
        got = _bisect_sign_change(counted, 0.5, 1.0, fa, fb, xtol=1e-13)
        assert got == scalar_bisection(lambda p: float(f(p)), 0.5, 1.0, fa,
                                       1e-13), r
        assert 1 <= len(calls) <= 7, r


def test_grid_bisection_typical_root_takes_few_calls():
    # near a smooth root the secant path holds down to about the width
    # of the secant's error, so a root costs two or three calls
    brackets = []
    for model, mu in [(hs(), 2.0), (fr(1.0, 0.5), 4.25), (fr(1.0, 0.5), 3.9),
                      (InteractionModel.power_law(2.5), 1.5),
                      (InteractionModel.rational_cubic(0.6), 1.0),
                      (InteractionModel.rational_cubic(0.9), 1.25)]:
        prof = DispersionProfile(model)
        cand = HALF_PERIOD_CANDIDATES
        g = prof.E_grid(cand) - mu
        brackets += [(lambda p, prof=prof, mu=mu: prof.E_grid(p) - mu,
                      cand[i], cand[i + 1], g[i], g[i + 1], 1e-13)
                     for i in sign_change_cells(g)]
        d = prof.E1_grid(cand)
        brackets += [(prof.E1_grid, cand[i], cand[i + 1], d[i], d[i + 1],
                      1e-12) for i in sign_change_cells(d)]
    assert len(brackets) >= 10
    for f, a, b, fa, fb, xtol in brackets:
        counted, calls = counting(f)
        _bisect_sign_change(counted, a, b, fa, fb, xtol=xtol)
        assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("model, mu", [
    (InteractionModel.rational_cubic(0.6), 1.0),
    (InteractionModel.power_law(2.5), 1.5)])
def test_thermal_path_makes_no_scalar_calls(model, mu, monkeypatch):
    def scalar(self, p):
        raise AssertionError("scalar evaluator called")

    for name in ("E", "E1", "E2"):
        monkeypatch.setattr(DispersionProfile, name, scalar)
    prof = DispersionProfile(model)
    assert fermi_points(prof, mu).phase == "critical"
    fit = low_temperature_fit(prof, mu)
    assert fit.exponent == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# custom-summable models

def test_custom_reproduces_power_law():
    custom = InteractionModel.custom_summable(
        lambda j: j ** -5.0, lambda J: 1.0 / (4.0 * J ** 4))
    ref = DispersionProfile(InteractionModel.power_law(5.0))
    got = DispersionProfile(custom)
    for p in (0.3, 1.0, 2.5):
        assert got.E(p) == pytest.approx(ref.E(p), abs=1e-9)
        assert got.E1(p) == pytest.approx(ref.E1(p), abs=1e-9)
        assert got.E2(p) == pytest.approx(ref.E2(p), abs=1e-8)


def test_custom_second_derivative_needs_fast_decay():
    # 1/j^4 couplings leave a 1/J curvature tail; direct summation cannot
    # reach the 1e-12 budget and the profile must say so
    prof = DispersionProfile(InteractionModel.custom_summable(
        lambda j: j ** -4.0, lambda J: 1.0 / (3.0 * J ** 3)))
    assert prof.E(1.0) == pytest.approx(
        DispersionProfile(InteractionModel.power_law(4.0)).E(1.0), abs=1e-9)
    with pytest.raises(AccuracyError):
        prof.E2(1.0)


def test_custom_geometric_closed_form():
    prof = DispersionProfile(InteractionModel.custom_summable(
        lambda j: 0.5 ** j, lambda J: 0.5 ** J))
    for p in (0.2, 1.1, 3.0):
        z = 0.5 * complex(math.cos(p), math.sin(p))
        want = 2.0 * (1.0 - (z / (1.0 - z)).real)
        assert prof.E(p) == pytest.approx(want, abs=1e-12)


def test_custom_tail_bound_too_weak():
    prof = DispersionProfile(InteractionModel.custom_summable(
        lambda j: j ** -2.0, lambda J: 1.0 / J))
    with pytest.raises(AccuracyError):
        prof.E(1.0)


# ---------------------------------------------------------------------------
# construction validation

# InteractionModel(...) refuses what its factories refuse, in the same
# words; these once built a flat band, an inverted band, or a model that
# raised TypeError on first use
DIRECT_REFUSALS = [
    ({"family": "finite-range"}, "at least one coupling"),
    ({"family": "finite-range", "alphas": (1.0, 0.0)}, "trailing"),
    ({"family": "finite-range", "alphas": (1.0, math.nan)},
     "finite-range couplings must be finite"),
    ({"family": "power-law"},
     "power-law exponent must be a number, got None"),
    ({"family": "power-law", "nu": 1.0}, "diverges"),
    ({"family": "power-law", "nu": math.inf}, "exponent must be finite"),
    ({"family": "power-law", "nu": math.nan}, "exponent must be finite"),
    ({"family": "power-law", "nu": 2.5, "C": -1.0}, "must be positive"),
    ({"family": "power-law", "nu": 2.5, "C": math.inf},
     "amplitude must be finite"),
    ({"family": "rational-cubic", "J": math.inf}, "must be finite"),
    ({"family": "rational-cubic"},
     "rational-cubic strength must be a number, got None"),
    ({"family": "custom-summable"}, "both callable"),
    ({"family": "custom-summable", "h": lambda j: 0.0}, "both callable"),
    # a field of another family, which was kept and never read
    ({"family": "haldane-shastry", "alphas": (1, 2), "nu": 2.5, "C": -3,
      "J": 7}, "^haldane-shastry model takes no alphas$"),
    ({"family": "haldane-shastry", "C": 1.0},
     "^haldane-shastry model takes no C$"),
    ({"family": "finite-range", "alphas": (1.0,), "J": 0.0},
     "^finite-range model takes no J$"),
    ({"family": "power-law", "nu": 2.5, "alphas": (1.0,)},
     "^power-law model takes no alphas$"),
    ({"family": "rational-cubic", "J": 0.6, "nu": 3.0},
     "^rational-cubic model takes no nu$"),
    ({"family": "custom-summable", "h": lambda j: 0.0,
      "tail_bound": lambda J: 0.0, "C": 1.0},
     "^custom-summable model takes no C$"),
    ({"family": "finite-range", "alphas": 1.0},
     "^finite-range couplings must be a sequence, got 1.0$"),
]


def test_constructor_validation():
    with pytest.raises(DomainError):
        InteractionModel.finite_range(())
    with pytest.raises(DomainError):
        InteractionModel.finite_range((1.0, 0.0))
    with pytest.raises(DomainError):
        InteractionModel.power_law(1.0)
    for nu in (math.inf, math.nan):
        with pytest.raises(DomainError):
            InteractionModel.power_law(nu)
    with pytest.raises(DomainError):
        InteractionModel.power_law(3.0, C=-1.0)
    with pytest.raises(DomainError):
        InteractionModel.rational_cubic(math.inf)
    with pytest.raises(DomainError):
        InteractionModel.custom_summable(lambda j: 0.0, None)
    with pytest.raises(DomainError):
        InteractionModel(family="bogus")
    for kwargs, message in DIRECT_REFUSALS:
        with pytest.raises(DomainError, match=message):
            InteractionModel(**kwargs)


def test_direct_construction_stores_checked_values():
    m = InteractionModel(family="finite-range", alphas=np.array([1, 0.5]))
    assert m.alphas == (1.0, 0.5)
    assert all(type(a) is float for a in m.alphas)
    assert m == InteractionModel.finite_range((1.0, 0.5))
    assert hash(m) == hash(InteractionModel.finite_range([1, 0.5]))
    m = InteractionModel(family="power-law", nu=np.int64(3), C=np.float64(2))
    assert (type(m.nu), type(m.C)) == (float, float)
    assert m == InteractionModel.power_law(3.0, C=2.0)
    # an unset amplitude is 1
    m = InteractionModel(family="power-law", nu=3)
    assert m.C == 1.0 and m == InteractionModel.power_law(3.0)
    m = InteractionModel(family="rational-cubic", J=np.int64(1))
    assert type(m.J) is float and m == InteractionModel.rational_cubic(1.0)
