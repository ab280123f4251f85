import math

import numpy as np
import pytest

from fermichain.models import (
    DispersionProfile,
    InteractionModel,
    mode_energy,
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
    assert mode_energy(hs(), 6, 0) == 0.0


def test_mode_energy_hs_closed_form():
    # eps_N(l) = 2 pi^2 l (N - l) / N^2 for the 1/sin^2 ring couplings
    assert mode_energy(hs(), 6, 2) == pytest.approx(4.0 * math.pi ** 2 / 9.0,
                                                    abs=1e-12)
    for N in (4, 5, 6, 7, 8, 16, 64):
        for l in range(N):
            want = 2.0 * math.pi ** 2 * l * (N - l) / N ** 2
            assert mode_energy(hs(), N, l) == pytest.approx(want, abs=1e-10)


def test_mode_energy_finite_range_value():
    assert mode_energy(fr(1.0, 0.5), 8, 4) == pytest.approx(4.0, abs=1e-14)


def test_mode_energy_reflection():
    for model in all_test_models():
        for N in (5, 8, 9, 16, 64):
            for l in range(1, N):
                a = mode_energy(model, N, l)
                b = mode_energy(model, N, N - l)
                assert b == pytest.approx(a, rel=1e-13, abs=1e-13)


def full_range_mode_energy(model, N, l):
    # independent route: sum over every chord 1..N-1 with reflected couplings
    e = 0.0
    for j in range(1, N):
        hj = model.coupling(min(j, N - j), N)
        e += (1.0 - math.cos(TWO_PI * j * l / N)) * hj
    return e


def test_mode_energy_matches_full_range_sum():
    for model in all_test_models():
        for N in (4, 7, 10, 13):
            for l in range(N):
                want = full_range_mode_energy(model, N, l)
                assert mode_energy(model, N, l) == pytest.approx(
                    want, rel=1e-13, abs=1e-13)


def test_mode_energy_index_errors():
    with pytest.raises(DomainError):
        mode_energy(hs(), 6, -1)
    with pytest.raises(DomainError):
        mode_energy(hs(), 6, 6)
    with pytest.raises(DomainError):
        mode_energy(hs(), 0, 0)


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


def test_power_law_slope_equals_polylog_route():
    # E'(p) = 2 C Im Li_{nu-1}(e^{ip}); both sides computed by unrelated code
    prof = DispersionProfile(InteractionModel.power_law(3.0))
    for p in (0.5, 1.0, 2.4):
        assert prof.E1(p) == pytest.approx(
            2.0 * polylog_circle(2.0, p).imag, abs=1e-10)


def zone_center_ladder():
    # p = pi 2^-k toward 0 and toward pi, where the Clausen series and the
    # near-pi slope form each take over, plus a coarse grid in between
    k = np.arange(1.0, 41.0)
    return np.concatenate([math.pi * 2.0 ** -k, np.linspace(0.1, 3.0, 30),
                           math.pi * (1.0 - 2.0 ** -k)])


def rational_cubic_reference(J, p, li2_imag, li3_real):
    return (0.5 * p * (TWO_PI - p) - 2.0 * J * (zeta(3.0) - li3_real),
            (math.pi - p) - 2.0 * J * li2_imag)


def test_rational_cubic_matches_polylog_quadrature():
    J = 0.5
    prof = DispersionProfile(InteractionModel.rational_cubic(J))
    p = np.concatenate([np.linspace(0.0, TWO_PI, 41), zone_center_ladder()])
    want_e, want_e1 = zip(*(rational_cubic_reference(
        J, x, polylog_circle(2.0, x).imag, polylog_circle(3.0, x).real)
        for x in p))
    np.testing.assert_allclose(prof.E_grid(p), want_e, rtol=0, atol=1e-10)
    np.testing.assert_allclose(prof.E1_grid(p), want_e1, rtol=0, atol=1e-10)


def test_rational_cubic_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    J = 0.6
    prof = DispersionProfile(InteractionModel.rational_cubic(J))
    p = zone_center_ladder()
    p = np.concatenate([p, TWO_PI - p])
    with mpmath.workdps(30):
        want_e, want_e1 = zip(*(rational_cubic_reference(
            J, x, float(mpmath.polylog(2, mpmath.expj(x)).imag),
            float(mpmath.polylog(3, mpmath.expj(x)).real))
            for x in p))
    np.testing.assert_allclose(prof.E_grid(p), want_e, rtol=0, atol=1e-12)
    np.testing.assert_allclose(prof.E1_grid(p), want_e1, rtol=0, atol=1e-12)
    np.testing.assert_allclose([prof.E(x) for x in p], want_e,
                               rtol=0, atol=1e-12)


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
            worst = 0.0
            for pt in targets:
                l = int(round(pt * N / TWO_PI))
                p = TWO_PI * l / N
                worst = max(worst, abs(mode_energy(model, N, l) - prof.E(p)))
            errs.append(worst)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


def test_short_range_ring_energies_exact():
    for model in (hs(), fr(1.0, 0.5)):
        prof = DispersionProfile(model)
        for N in (64, 256):
            for l in (1, N // 4, N // 2):
                p = TWO_PI * l / N
                assert mode_energy(model, N, l) == pytest.approx(
                    prof.E(p), abs=1e-11)


# ---------------------------------------------------------------------------
# monotonicity

def test_monotonic_families():
    for model in (hs(), fr(1.0, 0.2), InteractionModel.rational_cubic(0.5)):
        rep = monotonicity_report(DispersionProfile(model))
        assert rep.monotonic
        assert rep.critical_points == ()


def test_finite_range_critical_point():
    rep = monotonicity_report(DispersionProfile(fr(1.0, 0.5)))
    assert not rep.monotonic
    assert len(rep.critical_points) == 1
    assert rep.critical_points[0] == pytest.approx(TWO_PI / 3.0, abs=1e-11)


def test_power_law_monotonic():
    rep = monotonicity_report(
        DispersionProfile(InteractionModel.power_law(1.5)))
    assert rep.monotonic


def test_rational_cubic_threshold():
    # slope loses monotonicity only above J = 1/(2 log 2) ~ 0.7213
    rep = monotonicity_report(
        DispersionProfile(InteractionModel.rational_cubic(0.72)))
    assert rep.monotonic
    rep = monotonicity_report(
        DispersionProfile(InteractionModel.rational_cubic(0.75)))
    assert not rep.monotonic


def test_near_threshold_root_close_to_zone_center():
    # J just below -1/4 puts the critical point ~9e-6 from p = 0
    J = -0.25 - 1e-11
    rep = monotonicity_report(DispersionProfile(fr(1.0, J)))
    want = math.acos(-1.0 / (4.0 * J))
    assert len(rep.critical_points) == 1
    assert rep.critical_points[0] == pytest.approx(want, abs=1e-9)


def test_near_threshold_root_close_to_zone_edge():
    J = 0.25 + 1e-11
    rep = monotonicity_report(DispersionProfile(fr(1.0, J)))
    want = math.acos(-1.0 / (4.0 * J))
    assert len(rep.critical_points) == 1
    assert rep.critical_points[0] == pytest.approx(want, abs=1e-9)


def test_slope_ratio_increases_to_2_log_2():
    # phi(p) = 2 Im Li_2(e^{ip}) / (pi - p) climbs monotonically to 2 log 2
    ps = np.linspace(0.05, math.pi - 1e-4, 50)
    phi = [2.0 * polylog_circle(2.0, p).imag / (math.pi - p) for p in ps]
    assert all(a < b for a, b in zip(phi, phi[1:]))
    assert phi[-1] == pytest.approx(2.0 * math.log(2.0), abs=1e-6)


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

def test_constructor_validation():
    with pytest.raises(DomainError):
        InteractionModel.finite_range(())
    with pytest.raises(DomainError):
        InteractionModel.finite_range((1.0, 0.0))
    with pytest.raises(DomainError):
        InteractionModel.power_law(1.0)
    with pytest.raises(DomainError):
        InteractionModel.power_law(3.0, C=-1.0)
    with pytest.raises(DomainError):
        InteractionModel.rational_cubic(math.inf)
    with pytest.raises(DomainError):
        InteractionModel.custom_summable(lambda j: 0.0, None)
    with pytest.raises(DomainError):
        InteractionModel(family="bogus")
