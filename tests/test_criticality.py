import math

import numpy as np
import pytest

from fermichain.models import DispersionProfile, InteractionModel
from fermichain.criticality import (
    fermi_points,
    free_energy,
    low_temperature_fit,
)
from fermichain.errors import DomainError, FitRejectedError

TWO_PI = 2.0 * math.pi

# frozen references (40-digit arbitrary precision run)
FIG8_P0 = 1.7177715174584017
FIG8_P1 = 2.5935642459694805
FIG8_V0 = 1.3989663259659067
FIG8_V1 = 0.7368128791039503
FIG8_COEFF = -1.0849019921049051     # -(pi/6)(1/v0 + 1/v1)
FIG8_F0 = -1.2950483862572396
DOUBLE_ROOT_AMP = -0.35247176065797107


def hs():
    return DispersionProfile(InteractionModel.haldane_shastry())


def fig8():
    return DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))


def circle_components(sea):
    if not sea:
        return 0
    wraps = sea[0][0] == 0.0 and sea[-1][1] == TWO_PI and len(sea) > 1
    return len(sea) - (1 if wraps else 0)


# ---------------------------------------------------------------------------
# Fermi points and phases

def test_two_component_sea():
    a = fermi_points(fig8(), 17.0 / 4.0)
    assert a.phase == "critical"
    assert a.central_charge == 2
    assert [nu for _, nu in a.roots] == [1, 1]
    assert a.roots[0][0] == pytest.approx(FIG8_P0, abs=1e-12)
    assert a.roots[1][0] == pytest.approx(FIG8_P1, abs=1e-12)
    assert a.velocities[0] == pytest.approx(FIG8_V0, abs=1e-12)
    assert a.velocities[1] == pytest.approx(FIG8_V1, abs=1e-12)


def test_two_component_sea_intervals():
    a = fermi_points(fig8(), 17.0 / 4.0)
    want_half = ((0.0, FIG8_P0), (FIG8_P1, math.pi))
    for got, want in zip(a.sea_half, want_half):
        assert got == pytest.approx(want, abs=1e-10)
    want_full = ((0.0, FIG8_P0), (FIG8_P1, TWO_PI - FIG8_P1),
                 (TWO_PI - FIG8_P0, TWO_PI))
    assert len(a.sea) == 3
    for got, want in zip(a.sea, want_full):
        assert got == pytest.approx(want, abs=1e-10)
    assert circle_components(a.sea) == a.central_charge


def test_single_component_sea():
    a = fermi_points(hs(), 2.0)
    p0 = math.pi - math.sqrt(math.pi ** 2 - 4.0)
    assert a.phase == "critical"
    assert a.central_charge == 1
    assert len(a.roots) == 1
    assert a.roots[0][0] == pytest.approx(p0, abs=1e-12)
    assert a.velocities[0] == pytest.approx(math.sqrt(math.pi ** 2 - 4.0),
                                            abs=1e-12)
    assert circle_components(a.sea) == 1


def test_gapped_phases():
    a = fermi_points(hs(), -1.0)
    assert a.phase == "gapped-below"
    assert a.roots == ()
    assert a.sea == ()
    b = fermi_points(hs(), 6.0)
    assert b.phase == "gapped-above"
    assert b.sea == ((0.0, TWO_PI),)
    assert b.e_min == 0.0
    assert b.e_max == pytest.approx(math.pi ** 2 / 2.0, abs=1e-14)


def test_boundary_phases():
    assert fermi_points(hs(), 0.0).phase == "boundary"
    assert fermi_points(hs(), math.pi ** 2 / 2.0).phase == "boundary"


def test_band_tangency_is_double_root():
    a = fermi_points(fig8(), 4.5)
    assert a.phase == "non-critical-multiple-root"
    assert a.central_charge is None
    assert len(a.roots) == 1
    p, nu = a.roots[0]
    assert nu == 2
    assert p == pytest.approx(TWO_PI / 3.0, abs=1e-10)
    assert a.b_k[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-10)
    assert a.eps_k[0] == -1
    assert a.sea_half == ((0.0, math.pi),)
    assert a.sea == ((0.0, TWO_PI),)


def test_near_tangent_root_pair_resolved():
    # mu a hair below the interior maximum: two simple roots 8e-5 apart
    mu = 4.5 - 1e-8
    a = fermi_points(fig8(), mu)
    assert a.phase == "critical"
    assert a.central_charge == 2
    delta = math.sqrt(2.0 * 1e-8 / 3.0)
    assert a.roots[0][0] == pytest.approx(TWO_PI / 3.0 - delta, abs=1e-7)
    assert a.roots[1][0] == pytest.approx(TWO_PI / 3.0 + delta, abs=1e-7)


def test_tangency_snap_absorbs_sub_resolution_pair():
    a = fermi_points(fig8(), 4.5 - 1e-12)
    assert a.phase == "non-critical-multiple-root"
    assert len(a.roots) == 1
    assert a.roots[0][1] == 2


def test_roots_hit_chemical_potential():
    cases = [(hs(), 2.0), (fig8(), 17.0 / 4.0),
             (DispersionProfile(InteractionModel.rational_cubic(0.4)), 1.0),
             (DispersionProfile(InteractionModel.power_law(3.0)), 1.5)]
    for prof, mu in cases:
        a = fermi_points(prof, mu)
        assert a.roots
        for p, _ in a.roots:
            assert prof.E(p) == pytest.approx(mu, abs=1e-10)
        assert list(a.velocities) == [abs(prof.E1(p)) for p, _ in a.roots]


def test_negative_band_minimum():
    # strong cubic term pulls E below zero near the zone edge
    prof = DispersionProfile(InteractionModel.rational_cubic(2.0))
    a = fermi_points(prof, -0.1)
    assert a.phase == "critical"
    assert a.central_charge == 1
    assert a.e_min < -0.1
    assert a.sea_half[0][1] == math.pi
    assert circle_components(a.sea) == 1


# ---------------------------------------------------------------------------
# free energy

def test_free_energy_below_ground_energy():
    for prof, mu in [(hs(), 2.0), (fig8(), 17.0 / 4.0),
                     (DispersionProfile(InteractionModel.rational_cubic(0.4)),
                      1.0)]:
        r = free_energy(prof, mu, 1.0)
        assert r.f < r.f0


def test_ground_energy_values():
    r = free_energy(fig8(), 17.0 / 4.0, 0.01)
    assert r.f0 == pytest.approx(FIG8_F0, abs=1e-10)
    # filled band: f0 = (1/pi) int_0^pi (p(2pi-p)/2 - 6) dp = pi^2/3 - 6
    r = free_energy(hs(), 6.0, 0.01)
    assert r.f0 == pytest.approx(math.pi ** 2 / 3.0 - 6.0, abs=1e-11)
    assert r.f == pytest.approx(r.f0, abs=1e-12)  # gap >> T
    # partial sea in closed form
    p0 = math.pi - math.sqrt(math.pi ** 2 - 4.0)
    want = (math.pi * p0 ** 2 / 2.0 - p0 ** 3 / 6.0 - 2.0 * p0) / math.pi
    r = free_energy(hs(), 2.0, 0.5)
    assert r.f0 == pytest.approx(want, abs=1e-11)


def test_gapped_activation_bounds():
    for T in (0.05, 0.1, 0.2):
        below = free_energy(hs(), -1.0, T)
        assert below.f0 == 0.0
        assert abs(below.f) <= T * math.exp(-1.0 / T)
        above = free_energy(hs(), 6.0, T)
        gap = 6.0 - math.pi ** 2 / 2.0
        assert abs(above.f - above.f0) <= T * math.exp(-gap / T)


def test_free_energy_validation():
    with pytest.raises(DomainError):
        free_energy(hs(), 2.0, 0.0)
    with pytest.raises(DomainError):
        free_energy(hs(), 2.0, -0.5)


def test_free_energy_rejects_analysis_for_other_mu():
    # the mu = 2 analysis would silently give f = -0.218990 here
    assert free_energy(hs(), 3.0, 0.01).f == pytest.approx(-0.517819,
                                                           abs=1e-6)
    with pytest.raises(DomainError):
        free_energy(hs(), 3.0, 0.01, analysis=fermi_points(hs(), 2.0))
    a = fermi_points(hs(), 2.0)
    assert free_energy(hs(), 2.0, 0.01, analysis=a).f == pytest.approx(
        -0.218990, abs=1e-6)


# ---------------------------------------------------------------------------
# low-temperature scaling

def test_single_velocity_fit():
    # mu = 3 pi^2/8 puts the Fermi point at pi/2 with velocity pi/2
    fit = low_temperature_fit(hs(), 3.0 * math.pi ** 2 / 8.0)
    assert fit.exponent == pytest.approx(2.0, abs=0.05)
    assert fit.coefficient == pytest.approx(-1.0 / 3.0, rel=0.02)
    assert fit.predicted_coefficient == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_two_velocity_fit():
    fit = low_temperature_fit(fig8(), 17.0 / 4.0)
    assert fit.exponent == pytest.approx(2.0, abs=0.05)
    assert fit.coefficient == pytest.approx(FIG8_COEFF, rel=0.02)
    assert fit.predicted_coefficient == pytest.approx(FIG8_COEFF, abs=1e-9)


def test_double_root_anomalous_power():
    fit = low_temperature_fit(fig8(), 4.5)
    assert fit.exponent == pytest.approx(1.5, abs=0.05)
    assert fit.coefficient == pytest.approx(DOUBLE_ROOT_AMP, rel=0.05)
    assert fit.predicted_coefficient == pytest.approx(DOUBLE_ROOT_AMP,
                                                      abs=1e-9)


def test_critical_scaling_panel():
    cases = [
        (hs(), (1.0, 2.0, 4.0)),
        (fig8(), (1.5, 3.0, 4.25)),
        (DispersionProfile(InteractionModel.finite_range((0.3,))),
         (0.3, 0.6, 1.0)),
        # keep mu well away from the band edge at E(pi)=3.2519: within
        # ~0.05 of it the Fermi velocity drops below 0.25 and the default
        # temperature window is no longer in the quadratic regime
        (DispersionProfile(InteractionModel.rational_cubic(0.4)),
         (0.8, 1.8, 2.6)),
        (DispersionProfile(InteractionModel.custom_summable(
            lambda j: 0.5 ** j, lambda J: 0.5 ** J)),
         (0.8, 1.6, 2.4)),
    ]
    for prof, mus in cases:
        for mu in mus:
            a = fermi_points(prof, mu)
            assert a.phase == "critical"
            fit = low_temperature_fit(prof, mu)
            want = -(math.pi / 6.0) * sum(1.0 / v for v in a.velocities)
            assert fit.exponent == pytest.approx(2.0, abs=0.05)
            assert fit.coefficient == pytest.approx(want, rel=0.02)


def test_fit_rejects_gapped_phase():
    with pytest.raises(FitRejectedError):
        low_temperature_fit(hs(), -1.0)


def test_fit_validation():
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3, 2e-3, 4e-3])
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3, 2e-3, 4e-3, -1.0])
