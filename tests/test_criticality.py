import dataclasses
import math
import os
import re
import pickle
import subprocess
import sys

import numpy as np
import pytest

from fermichain import criticality, entanglement, specfun
from fermichain.cli import run
from fermichain.entanglement import c_tilde, i1, renyi_asymptotic
from fermichain.fisher_hartwig import FHSymbol
from fermichain.specfun import entropy_kernel
from fermichain.models import DispersionProfile, InteractionModel
from fermichain.criticality import (
    fermi_points,
    free_energy,
    low_temperature_fit,
)
from fermichain.errors import (AccuracyError, DomainError, FitRejectedError,
                               QuadratureError)
from fermichain.spectral import (CorrelationSpectrum, correlation_row_finite,
                                 correlation_spectrum, eigenvalues_symmetric)

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


# every entry point of errors._check_real: the argument's name in the
# refusal, a call with one real x, and a finite x to call it with
REAL_ARGUMENTS = [
    ("chemical potential", lambda x: fermi_points(hs(), x), 2),
    ("chemical potential", lambda x: free_energy(hs(), x, 0.01), 2),
    ("chemical potential", lambda x: correlation_row_finite(
        InteractionModel.haldane_shastry(), x, 4, 8), 2),
    ("finite-range couplings",
     lambda x: InteractionModel.finite_range((1.0, x, 0.5)), 3),
    ("power-law exponent", lambda x: InteractionModel.power_law(x), 3),
    ("power-law amplitude", lambda x: InteractionModel.power_law(2.5, x), 2),
    ("rational-cubic strength",
     lambda x: InteractionModel.rational_cubic(x), 1),
    ("polylog_circle momentum p", lambda x: specfun.polylog_circle(2.5, x),
     1),
]


def test_nonfinite_mu_one_message():
    # every real argument shares one validator: a non-finite value is
    # refused with one message, and a numpy float or integer gives what
    # the equal Python number gives
    for name, call, x in REAL_ARGUMENTS:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError,
                               match=f"^{name} must be finite, got {bad}$"):
                call(bad)
        want = call(float(x))
        for same in (np.float64(x), np.int64(x), int(x), np.float32(x),
                     np.array(float(x))):
            got = call(same)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want


def wide():
    # a band 4e4 wide, so that temperatures 1 to 4 are low at mu = 2e4
    return DispersionProfile(InteractionModel.finite_range((1e4,)))


# every real-array argument, read by errors._check_reals: the name in
# its refusals, a call, and integer values it takes, as a list or, for a
# scalar argument, alone
ARRAY_ARGUMENTS = [
    ("momentum p", lambda p: hs().E_grid(p), [0, 1, 6]),
    ("momentum p", lambda p: fig8().E1_grid(p), [0, 1, 6]),
    ("momentum p", lambda p: fig8().E2_grid(p), [0, 1, 6]),
    ("temperature", lambda T: free_energy(hs(), 2.0, T), [1, 2]),
    ("temperature", lambda T: free_energy(hs(), 2.0, T), 1),
    ("temperature", lambda T: low_temperature_fit(wide(), 2e4, T_grid=T),
     [1, 2, 3, 4]),
    ("Fermi point", entanglement.f_factor, [1, 2]),
    ("Fermi point", lambda p: FHSymbol(lam=3.0, sea_half=((0.0, p),)), 1),
    ("first row", eigenvalues_symmetric, [2, 1, 0]),
    ("entropy_kernel argument", lambda x: entropy_kernel(2.0, x), [-1, 0, 1]),
    ("finite-range couplings", InteractionModel.finite_range, [1, 2]),
    ("Fermi point",
     lambda p: FHSymbol(lam=3.0, sea_half=((p, math.pi),)), 1),
]


def _bits(out):
    # an array by its bytes, anything else by its repr, which tells
    # every float apart and a numpy float from a Python one
    return out.tobytes() if isinstance(out, np.ndarray) else repr(out)


@pytest.mark.parametrize("name, call, good", ARRAY_ARGUMENTS,
                         ids=[f"{n}-{k}" for k, (n, _, _)
                              in enumerate(ARRAY_ARGUMENTS)])
def test_array_arguments_read_as_scalars_are(name, call, good):
    # an array is refused element by element, in the scalar rule's
    # words; np.asarray once parsed the text and read True as 1, and
    # took a NaN momentum, root or kernel argument for out of range
    scalar = np.ndim(good) == 0
    refused = [("abc", "abc")] + [(v if scalar else [v], v) for v in
                                  ("1.0", True, np.complex128(1 + 1j), None)]
    for arg, element in refused:
        with pytest.raises(DomainError,
                           match=f"^{re.escape(name)} must be a number, "
                                 f"got {re.escape(repr(element))}$"):
            call(arg)
    for v in (math.nan, math.inf):
        with pytest.raises(DomainError,
                           match=f"^{re.escape(name)} must be finite, "
                                 f"got {v}$"):
            call(v if scalar else [v])
    want = _bits(call(np.array(good, dtype=float)))
    for same in (np.array(good, dtype=np.int64),
                 np.array(good, dtype=np.float32), good):
        assert _bits(call(same)) == want


@pytest.mark.parametrize("roots", [np.array([[1.0, 2.0]]), [[1.0], [2.0]],
                                   [[1.0]]], ids=["row", "column", "one"])
def test_fermi_points_form_a_1d_set(roots):
    # one refusal of a set of Fermi points that is not 1-D, at each entry
    # point that takes one; each once raised a bare TypeError from a
    # comparison of a float with a list. A scalar is a set of one.
    message = ("Fermi points must form a non-empty 1-D sequence, "
               f"got shape {np.shape(roots)}")
    for call in (entanglement.f_factor,
                 lambda r: CorrelationSpectrum(L=1, eigenvalues=np.ones(1),
                                               fermi_momenta=r)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(roots)
    assert entanglement.f_factor(1.0) == entanglement.f_factor([1.0])


# every other scalar entry point: the same refusal of text and bools
NUMBER_ARGUMENTS = REAL_ARGUMENTS + [
    ("Renyi order", c_tilde, 2),
    ("Renyi order", i1, 2),
    ("Renyi order", lambda x: entropy_kernel(x, 0.5), 2),
    ("zeta order nu", specfun.zeta, 3),
    ("polylog_circle order nu", lambda x: specfun.polylog_circle(x, 1.0), 3),
    ("log_barnes_pair argument beta", specfun.log_barnes_pair, 0.25),
    ("lambda", lambda x: FHSymbol(lam=x, sea_half=((0.0, math.pi / 2),)),
     3),
]


@pytest.mark.parametrize("name, call, x", NUMBER_ARGUMENTS,
                         ids=[f"{n}-{k}" for k, (n, _, _)
                              in enumerate(NUMBER_ARGUMENTS)])
def test_text_and_bools_refused_as_numbers(name, call, x):
    # float() and complex() would parse the text and read True as 1, and
    # float() drops a numpy complex's imaginary part with a warning;
    # every scalar argument refuses them with one message, as counts do,
    # and a numpy float still gives what the Python float gives
    bads = [str(x), str(x).encode(), True, np.True_]
    if name not in ("log_barnes_pair argument beta", "lambda"):
        bads.append(np.complex128(x + 1j))
    for bad in bads:
        with pytest.raises(DomainError,
                           match=f"^{re.escape(name)} must be a number, "
                                 f"got {re.escape(repr(bad))}$"):
            call(bad)
    got, want = call(np.float64(x)), call(float(x))
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


# a value that no float() or complex() takes, and the refusal of it;
# each once escaped as TypeError, and the temperature as ValueError
NOT_A_NUMBER = [
    ("chemical potential must be a number, got None",
     lambda: fermi_points(hs(), None)),
    ("chemical potential must be a number, got 1j",
     lambda: fermi_points(hs(), 1j)),
    ("zeta order nu must be a number, got None", lambda: specfun.zeta(None)),
    ("Renyi order must be a number, got 1j", lambda: c_tilde(1j)),
    ("polylog_circle momentum p must be a number, got None",
     lambda: specfun.polylog_circle(2.0, None)),
    ("log_barnes_pair argument beta must be a number, got None",
     lambda: specfun.log_barnes_pair(None)),
    ("lambda must be a number, got None",
     lambda: FHSymbol(lam=None, sea_half=((0.0, 1.0),))),
    ("power-law exponent must be a number, got None",
     lambda: InteractionModel.power_law(None)),
    ("rational-cubic strength must be a number, got [1.0]",
     lambda: InteractionModel.rational_cubic([1.0])),
    ("finite-range couplings must be a sequence, got 1.0",
     lambda: InteractionModel.finite_range(1.0)),
    ("momentum p must be a number, got None",
     lambda: hs().E1(None)),
    ("temperature must be a number, got 'abc'",
     lambda: free_energy(hs(), 2.0, "abc")),
]


@pytest.mark.parametrize("message, call", NOT_A_NUMBER,
                         ids=[m.split(" must")[0] + f"-{k}" for k, (m, _)
                              in enumerate(NOT_A_NUMBER)])
def test_value_that_is_not_a_number_is_a_domain_error(message, call):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


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
    # within the zone-edge snap but outside the band: still gapped
    assert fermi_points(hs(), -1e-11).phase == "gapped-below"
    assert fermi_points(hs(), math.pi ** 2 / 2.0 + 1e-11).phase == \
        "gapped-above"


def test_band_tangency_is_double_root():
    a = fermi_points(fig8(), 4.5)
    assert a.phase == "non-critical-multiple-root"
    assert a.central_charge is None
    assert len(a.roots) == 1
    p, nu = a.roots[0]
    assert nu == 2
    assert p == pytest.approx(TWO_PI / 3.0, abs=1e-10)
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


# the five seas of tests/golden/regenerate.py
GOLDEN_SEAS = {
    "hs_mu2": (InteractionModel.haldane_shastry(), 2.0),
    "hs_half": (InteractionModel.haldane_shastry(), 3.7011016504085092),
    "fr_1_0.5_mu4.25": (InteractionModel.finite_range((1.0, 0.5)), 4.25),
    "pl_2.5_mu1.5": (InteractionModel.power_law(2.5), 1.5),
    "rc_0.6_mu1": (InteractionModel.rational_cubic(0.6), 1.0),
}


@pytest.mark.parametrize("model, mu", GOLDEN_SEAS.values(),
                         ids=GOLDEN_SEAS.keys())
def test_analysis_holds_python_floats(model, mu):
    # the root scans return Python floats, as every other float field
    # of FermiAnalysis is; before, some seas held numpy float64
    a = fermi_points(DispersionProfile(model), mu)
    values = ([p for p, _ in a.roots] + list(a.stationary_points)
              + list(a.velocities))
    assert a.roots
    assert [type(x) for x in values if type(x) is not float] == []


def _round_trip_seas():
    # the golden seas, then 20 finite-range chains of 2-4 couplings
    # N(0, 1), 20 power-law chains with nu in (1.2, 4) and 20
    # rational-cubic ones with J in (-1, 2), from a fixed seed; each at a
    # mu inside its band, at both band edges, past both and at the band
    # value of every stationary point, so that every phase is built
    yield from GOLDEN_SEAS.values()
    rng = np.random.default_rng(2016)
    models = ([InteractionModel.finite_range(
        tuple(rng.normal(size=rng.integers(2, 5)).tolist()))
        for _ in range(20)]
        + [InteractionModel.power_law(float(rng.uniform(1.2, 4.0)))
           for _ in range(20)]
        + [InteractionModel.rational_cubic(float(rng.uniform(-1.0, 2.0)))
           for _ in range(20)])
    for model in models:
        prof = DispersionProfile(model)
        band = fermi_points(prof, 1e6)
        yield from ((model, mu) for mu in (
            float(rng.uniform(band.e_min, band.e_max)), band.e_min,
            band.e_max, band.e_min - 1.0, band.e_max + 1.0,
            *(prof.E(p) for p in band.stationary_points)))


def test_built_results_survive_replace():
    # every result the library builds is its own dataclasses.replace:
    # the fields its __post_init__ derives and checks come out as built,
    # and a critical sea's edges inside (0, pi) are its roots, bit for bit
    phases = set()
    for model, mu in _round_trip_seas():
        a = fermi_points(DispersionProfile(model), mu)
        phases.add(a.phase)
        assert dataclasses.replace(a) == a, (model, mu)
        if a.phase != "critical":
            continue
        ps = [p for p, _ in a.roots]
        assert [e for iv in a.sea_half for e in iv
                if 0.0 < e < math.pi] == ps, (model, mu)
        report = renyi_asymptotic(correlation_spectrum(a, 8), 1.0)
        symbol = FHSymbol(lam=3.0, sea_half=a.sea_half)
        assert dataclasses.replace(report) == report
        assert dataclasses.replace(symbol) == symbol
    assert phases >= {"critical", "boundary", "gapped-below", "gapped-above",
                      "non-critical-multiple-root"}


def test_power_law_below_two_has_one_fermi_point():
    # nu = 1.6 puts a scan momentum (pi 2^-30) where the former polylog
    # quadrature missed its accuracy target, so no mu could be analysed
    mpmath = pytest.importorskip("mpmath")
    a = fermi_points(DispersionProfile(InteractionModel.power_law(1.6)), 1.5)
    assert a.phase == "critical" and a.central_charge == 1
    (p, nu), = a.roots
    assert nu == 1 and p == pytest.approx(0.17119, abs=1e-5)
    with mpmath.workdps(30):
        e = 2 * (mpmath.zeta(1.6) - mpmath.polylog(1.6, mpmath.expj(p)).real)
    assert float(e) == pytest.approx(1.5, abs=1e-9)


def test_negative_band_minimum():
    # strong cubic term pulls E below zero near the zone edge
    prof = DispersionProfile(InteractionModel.rational_cubic(2.0))
    a = fermi_points(prof, -0.1)
    assert a.phase == "critical"
    assert a.central_charge == 1
    assert a.e_min < -0.1
    assert a.sea_half[0][1] == math.pi
    assert circle_components(a.sea) == 1


def top_of_band(model, below=0.0):
    prof = DispersionProfile(model)
    return prof, prof.E(math.pi) - below


# mu on a zone-edge extremum, where E - mu rounds to 0 on a run of scan
# points: at the top or bottom of the band a boundary phase with no
# Fermi point, also for mu within the 1e-10 snap but past the 1e-12 band
# tolerance inside the band; a zone-edge extremum inside the band is
# refused
ZONE_EDGE = {
    "hs-top": (hs(), math.pi ** 2 / 2.0, ((0.0, TWO_PI),)),
    "fr-0.1-top": (DispersionProfile(InteractionModel.finite_range(
        (1.0, 0.1))), 4.0, ((0.0, TWO_PI),)),
    "rc-0.6-top": (*top_of_band(InteractionModel.rational_cubic(0.6)),
                   ((0.0, TWO_PI),)),
    "pl-3.9-top": (*top_of_band(InteractionModel.power_law(3.9)),
                   ((0.0, TWO_PI),)),
    "fr-0.1-bottom": (DispersionProfile(InteractionModel.finite_range(
        (1.0, 0.1))), 0.0, ()),
    "pl-2.5-bottom": (DispersionProfile(InteractionModel.power_law(2.5)),
                      0.0, ()),
    "hs-top-inside": (hs(), 4.93480220053, ((0.0, TWO_PI),)),
    "rc-0.6-top-inside-1e-11": (
        *top_of_band(InteractionModel.rational_cubic(0.6), 1e-11),
        ((0.0, TWO_PI),)),
    "rc-0.6-top-inside-1e-10": (
        *top_of_band(InteractionModel.rational_cubic(0.6), 1e-10),
        ((0.0, TWO_PI),)),
    "pl-2.5-top-inside-1e-11": (
        *top_of_band(InteractionModel.power_law(2.5), 1e-11),
        ((0.0, TWO_PI),)),
    "pl-2.5-top-inside-1e-10": (
        *top_of_band(InteractionModel.power_law(2.5), 1e-10),
        ((0.0, TWO_PI),)),
    "fr-0.5-bottom-inside-5e-12": (fig8(), 5e-12, ()),
    "fr-0.5-bottom-inside-1e-11": (fig8(), 1e-11, ()),
    "fr-0.5-inside": (fig8(), 4.0, None),
    "fr-0.5-inside-off": (fig8(), 4.0 + 1e-13, None),
    "fr-neg-0.5-inside": (DispersionProfile(InteractionModel.finite_range(
        (1.0, -0.5))), 0.0, None),
}


@pytest.mark.parametrize("prof, mu, sea", ZONE_EDGE.values(),
                         ids=ZONE_EDGE.keys())
def test_zone_edge_tangency(prof, mu, sea):
    if sea is None:
        with pytest.raises(DomainError, match="zone edge"):
            fermi_points(prof, mu)
        return
    a = fermi_points(prof, mu)
    assert (a.phase, a.roots, a.sea) == ("boundary", (), sea)


@pytest.mark.parametrize("model", [InteractionModel.rational_cubic(1e308),
                                   InteractionModel.power_law(2.5, 1e308)],
                         ids=["rational-cubic", "power-law"])
def test_overflowing_band_is_refused(model):
    # a finite coupling near the double limit overflows E at the band
    # extrema (inf at one zone end, inf * 0 = nan at the other); the
    # analysis once went on with a nan band, calling RC critical and PL
    # unresolved, and the free energy raised OverflowError
    prof = DispersionProfile(model)
    for call in (lambda: fermi_points(prof, 1.0),
                 lambda: free_energy(prof, 1.0, 1e-3),
                 lambda: low_temperature_fit(prof, 1.0)):
        with pytest.raises(DomainError, match="the band overflows"):
            call()


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


def test_power_law_cusp_free_energy_matches_mpmath():
    # reference: 25-digit mpmath integral of the same expression; the
    # gap f - f0 here is ~1e-7, so the fit needs f to ~1e-12 or better
    r = free_energy(DispersionProfile(InteractionModel.power_law(1.6)),
                    1.5, 1e-3)
    assert r.f == pytest.approx(-0.0305371634077560454, abs=1e-12)
    assert 0.0 <= r.quad_err <= 1e-12


def test_free_energy_gates_achieved_error(monkeypatch):
    # a 10-point rule off by 1% makes |Q20 - Q10| far exceed the gates
    # of both users of the shared panel rule
    monkeypatch.setattr(specfun, "_W10", 1.01 * specfun._W10)
    with pytest.raises(QuadratureError) as info:
        free_energy(hs(), 2.0, 0.01)
    assert info.value.target == 1e-10 and info.value.achieved > 1e-3
    # a c_tilde(2.0) kept from an earlier test would answer without the rule
    entanglement._c_tilde_integral.cache_clear()
    with pytest.raises(QuadratureError) as info:
        c_tilde(2.0)
    assert info.value.target == 1e-9 and info.value.achieved > 1e-9


def test_free_energy_validation():
    # an empty grid is refused by the temperature check, not by a
    # numpy reduction deep in the panel ladder
    for T in (0.0, -0.5, math.inf, [], np.array([])):
        with pytest.raises(DomainError):
            free_energy(hs(), 2.0, T)


def test_free_energy_rejects_analysis_for_other_mu():
    # free_energy analyses the mu it is given: the mu = 2 sea would give
    # f = -0.218990 at mu = 3
    assert free_energy(hs(), 3.0, 0.01).f == pytest.approx(-0.517819,
                                                           abs=1e-6)
    assert free_energy(hs(), 2.0, 0.01).f == pytest.approx(-0.218990,
                                                           abs=1e-6)


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
        # cusp E ~ p^0.6 at the zone center
        (DispersionProfile(InteractionModel.power_law(1.6)), (1.5,)),
    ]
    for prof, mus in cases:
        for mu in mus:
            a = fermi_points(prof, mu)
            assert a.phase == "critical"
            fit = low_temperature_fit(prof, mu)
            want = -(math.pi / 6.0) * sum(1.0 / v for v in a.velocities)
            assert fit.exponent == pytest.approx(2.0, abs=0.05)
            assert fit.coefficient == pytest.approx(want, rel=0.02)


_THREAD_PROBE = """
from fermichain.criticality import low_temperature_fit
from fermichain.models import DispersionProfile, InteractionModel
for model, mu in ((InteractionModel.power_law(1.6), 1.5),
                  (InteractionModel.finite_range((1.0, 0.5)), 4.5)):
    fit = low_temperature_fit(DispersionProfile(model), mu)
    print(repr(fit))
"""


def test_fit_same_bits_under_blas_threads():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        out.append(run.stdout)
    assert out[0].count("LowTemperatureFit(") == 2
    assert out[0] == out[1]


def test_fit_rejects_gapped_phase():
    # a rejected fit is an AccuracyError whose target is the 0.2 residual
    # gate; a gap f - f0 that is not negative achieves no fit at all
    with pytest.raises(FitRejectedError) as info:
        low_temperature_fit(hs(), -1.0)
    assert isinstance(info.value, AccuracyError)
    assert (info.value.achieved, info.value.target) == (math.inf, 0.2)
    # a pickled rejection, as a worker process sends it, keeps both
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is FitRejectedError
    assert (str(back), back.achieved, back.target) == (
        str(info.value), math.inf, 0.2)
    # temperatures of order the bandwidth leave the T^2 regime
    with pytest.raises(FitRejectedError, match="residual 0.422") as info:
        low_temperature_fit(hs(), 2.0, np.geomspace(0.1, 10.0, 8))
    assert info.value.achieved == pytest.approx(0.4221326004379899,
                                                rel=1e-12)
    assert info.value.target == 0.2


def test_fit_refused_near_a_band_extremum(tmp_path, capsys):
    # the band top of this chain is 12.619: mu = 12.6 lies 0.019 below
    # it, and the default grid's fit (exponent 2.03, residual 0.021) put
    # the coefficient 25 % off the predicted one, with exit 0
    prof = DispersionProfile(InteractionModel.finite_range(
        (-0.968, 1.927, 1.879)))
    a = fermi_points(prof, 12.6)
    assert a.phase == "critical"
    assert a.extremum_gap == pytest.approx(a.e_max - 12.6, abs=1e-12)
    assert a.extremum_gap == pytest.approx(0.019, abs=5e-4)
    with pytest.raises(FitRejectedError, match=(
            r"lies 0.019 from a band extremum, so the low-temperature law "
            r"holds only up to T=0.0019; the grid reaches T=0.01")) as info:
        low_temperature_fit(prof, 12.6)
    assert info.value.achieved == pytest.approx(1e-2 / a.extremum_gap,
                                                rel=1e-12)
    assert info.value.target == 0.1
    # a grid below a tenth of the gap is fitted
    fit = low_temperature_fit(prof, 12.6, np.geomspace(1e-4, 1e-3, 8))
    assert fit.coefficient == pytest.approx(fit.predicted_coefficient,
                                            rel=0.01)
    out = tmp_path / "f.json"
    assert run(["free-energy", "--model", "finite-range",
                "--coeffs=-0.968,1.927,1.879", "--mu", "12.6", "--fit",
                "--output", str(out)]) == 2
    assert "the grid reaches T=0.01" in capsys.readouterr().err
    assert not out.exists()


# relative error of the default-grid coefficient, worst case per band of
# the extremum gap over 599 random critical finite-range chains
_GAP_BANDS = [(0.1, 0.2, 0.024), (0.2, 0.5, 0.0086), (0.5, 1.0, 9.2e-4),
              (1.0, math.inf, 4.4e-3)]


def test_fit_error_follows_the_extremum_gap():
    # random critical chains of 2-5 couplings N(0, 1) rounded to 1e-3,
    # mu uniform on the band, drawn in order from a fixed seed until
    # each band holds three: a gap under 0.1 (ten times the default
    # grid's top T) is refused, by the residual gate or by the gap, and a
    # fitted chain is within its band's worst error
    rng = np.random.default_rng(0)
    bands = [(0.0, 0.05, None), (0.05, 0.1, None), *_GAP_BANDS]
    seen = {band: 0 for band in bands}
    for _ in range(200):
        coeffs = tuple(np.round(rng.normal(size=rng.integers(2, 6)),
                                3).tolist())
        prof = DispersionProfile(InteractionModel.finite_range(coeffs))
        band_of = fermi_points(prof, 1e6)
        mu = float(rng.uniform(band_of.e_min, band_of.e_max))
        a = fermi_points(prof, mu)
        if a.phase != "critical":
            continue
        band = next(b for b in bands if b[0] <= a.extremum_gap < b[1])
        if seen[band] == 3:
            continue
        seen[band] += 1
        if band[2] is None:
            with pytest.raises(FitRejectedError):
                low_temperature_fit(prof, mu)
        else:
            fit = low_temperature_fit(prof, mu)
            err = abs(fit.coefficient / fit.predicted_coefficient - 1.0)
            assert err <= band[2], (coeffs, mu, a.extremum_gap, err)
        if min(seen.values()) == 3:
            break
    assert seen == {band: 3 for band in bands}


def test_fit_validation():
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3, 2e-3, 4e-3])
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3, 2e-3, 4e-3, -1.0])
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3, 2e-3, 3e-3, math.inf])


def test_fit_needs_four_distinct_temperatures():
    # a repeated temperature makes the log-log design matrix rank
    # deficient: four copies of T = 1e-3 once gave exponent 2.18 and
    # coefficient -0.73 (predicted -0.216) with a 9e-15 residual
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3] * 4)
    with pytest.raises(DomainError):
        low_temperature_fit(hs(), 2.0, T_grid=[1e-3, 2e-3, 4e-3, 2e-3, 1e-3])
    grid = np.geomspace(1e-3, 1e-2, 4)
    fit = low_temperature_fit(hs(), 2.0, T_grid=[*grid, grid[0]])
    assert [r.T for r in fit.thermal] == [*grid.tolist(), grid[0]]
    assert fit.thermal[0] == fit.thermal[-1]
    assert fit.coefficient == pytest.approx(fit.predicted_coefficient,
                                            rel=0.02)


def test_fit_refuses_temperatures_before_analysis(monkeypatch):
    def analyze(profile, mu):
        raise AssertionError("the Fermi analysis ran")

    monkeypatch.setattr(criticality, "_analyze", analyze)
    grid = np.geomspace(1e-3, 1e-2, 8)
    for T_grid in (grid.reshape(2, 4), grid.reshape(8, 1), 1e-3,
                   [1e-3] * 4, [1e-3, 2e-3, 4e-3, math.nan], [],
                   np.array([])):
        with pytest.raises(DomainError):
            low_temperature_fit(hs(), 2.0, T_grid=T_grid)


THERMAL_CASES = [
    (hs(), 2.0),
    (fig8(), 17.0 / 4.0),
    (fig8(), 4.5),                     # band tangency, double root
    (DispersionProfile(InteractionModel.power_law(1.6)), 1.5),  # cusp
    (DispersionProfile(InteractionModel.rational_cubic(0.55)), 1.0),
    (DispersionProfile(InteractionModel.custom_summable(
        lambda j: 0.5 ** j, lambda J: 0.5 ** J)), 1.6),
]


@pytest.mark.parametrize("prof, mu", THERMAL_CASES)
def test_fit_thermal_is_free_energy_bit_for_bit(prof, mu):
    # the shared pass over all temperatures gives each T the values of
    # a single free_energy call at that T
    fit = low_temperature_fit(prof, mu)
    assert len(fit.thermal) == 8
    for r in fit.thermal:
        alone = free_energy(prof, mu, r.T)
        assert (r.T, r.f, r.f0, r.quad_err) == (
            alone.T, alone.f, alone.f0, alone.quad_err)


@pytest.mark.parametrize("prof, mu", [THERMAL_CASES[1], THERMAL_CASES[4]])
def test_thermal_pass_same_bits_in_temperature_blocks(monkeypatch, prof,
                                                      mu):
    # f's integrand array goes a block of temperatures at a time; the
    # block size changes no result
    grid = np.geomspace(1e-4, 1e-1, 30)
    whole = free_energy(prof, mu, grid)
    for values in (1, 3 * 30 * 173):
        monkeypatch.setattr(criticality, "_BLOCK_VALUES", values)
        assert free_energy(prof, mu, grid) == whole


def _distinct_panels(prof, mu, T_grid):
    analysis = fermi_points(prof, mu)
    panels = set()
    total = 0
    for T in T_grid:
        e = criticality._panel_edges(analysis, [T])[0].tolist()
        panels.update(zip(e[:-1], e[1:]))
        total += len(e) - 1
    return len(panels), total


def count_thermal_E_grid(monkeypatch):
    """Shapes passed to the evaluator for E after the Fermi analysis,
    reset per analysis."""
    shapes = []
    analyze = criticality._analyze
    band = DispersionProfile._band

    def counted(self, p, *orders):
        if 0 in orders:
            shapes.append(np.shape(p))
        return band(self, p, *orders)

    def analyze_then_count(profile, mu):
        monkeypatch.setattr(DispersionProfile, "_band", band)
        analysis = analyze(profile, mu)
        shapes.clear()
        monkeypatch.setattr(DispersionProfile, "_band", counted)
        return analysis

    monkeypatch.setattr(criticality, "_analyze", analyze_then_count)
    return shapes


@pytest.mark.parametrize("prof, mu", [THERMAL_CASES[2], THERMAL_CASES[4]])
def test_fit_evaluates_each_distinct_panel_once(monkeypatch, prof, mu):
    grid = np.geomspace(1e-3, 1e-2, 8)
    distinct, total = _distinct_panels(prof, mu, grid)
    assert 4 * distinct < total   # nested panel sets share most panels
    alone = _distinct_panels(prof, mu, grid[:1])[0]
    shapes = count_thermal_E_grid(monkeypatch)
    low_temperature_fit(prof, mu, T_grid=grid)
    assert shapes == [(distinct, 30)]
    # repeated temperatures add no panels
    low_temperature_fit(prof, mu, T_grid=[*grid, *grid[::-1], grid[3]])
    assert shapes == [(distinct, 30)]
    free_energy(prof, mu, grid[0])
    assert shapes == [(alone, 30)]


def panel_edges_one_temperature(analysis, T):
    # the edges of one T built on their own, as the panel ladder must
    # reproduce them: per gap between features, the midpoint and
    # halvings toward each end, down to the cusp width at 0 and pi and
    # to T / (4 max(1, max v)) elsewhere
    near = T / (4.0 * max((1.0, *analysis.velocities)))
    feats = sorted({0.0, math.pi, *analysis.stationary_points,
                    *(p for p, _ in analysis.roots)})

    def halvings(h, width):
        depth = max(math.ceil(math.log2(h / width)), 0)
        return 2.0 ** -np.arange(1.0, depth + 1)

    edges = [0.0]
    for a, b in zip(feats[:-1], feats[1:]):
        h = 0.5 * (b - a)
        left = halvings(h, criticality._CUSP_WIDTH if a == 0.0 else near)
        right = halvings(h, criticality._CUSP_WIDTH if b == math.pi
                         else near)
        edges.extend([*(a + h * left[::-1]), a + h, *(b - h * right), b])
    return np.array(edges)


@pytest.mark.parametrize("prof, mu", THERMAL_CASES)
def test_panel_ladder_gives_each_temperature_its_edges(prof, mu):
    analysis = fermi_points(prof, mu)
    T_grid = [*np.geomspace(1e-3, 1e-2, 8).tolist(), 1e-6, 1.0]
    got = criticality._panel_edges(analysis, T_grid)
    assert len(got) == len(T_grid)
    for T, edges in zip(T_grid, got):
        want = panel_edges_one_temperature(analysis, T)
        assert edges.tobytes() == want.tobytes(), T
    assert got[-2].size > got[0].size > got[-1].size


@pytest.mark.parametrize("T", [1e-6, 1e-3, 1e-2, 1.0])
def test_fermi_integrand_matches_logaddexp(T):
    # min(e, 0) - T log1p(exp(-|e|/T)) with exp and log1p left out where
    # they would underflow or equal their argument, against numpy's
    # logaddexp, across |e| / T > 745 too. numpy's vector exp and log1p
    # are each up to one unit in the last place from the scalar libm
    # calls inside logaddexp, and the two errors add: on 8e6 random
    # nodes the sides differed by up to 4.8e-16 relative, so a 4e-16
    # bound would not hold. At T = 1 each side is within one unit of the
    # exact value; the bound below is what the code reaches.
    mag = np.concatenate([[0.0, 1e-300, 1e-20, 5e-324],
                          np.geomspace(1e-12, 10.0, 400),
                          np.linspace(0.0, 10.0, 401),
                          T * np.array([36.7, 37.5, 707.9, 708.0, 708.1,
                                        745.0, 745.2, 800.0])])
    mag = mag[mag <= 10.0]
    e = np.concatenate([mag, -mag])
    g = criticality._fermi_integrand(e, np.array([T, T]))
    assert g.shape == (2, e.size)
    assert g[0].tobytes() == g[1].tobytes()
    want = -T * np.logaddexp(0.0, -e / T)
    err = np.abs(g[0] - want)
    assert np.all((err <= 5e-16 * np.abs(want)) | (err <= 1e-300))
    if T <= 1e-2:
        assert np.any(np.abs(e) / T > 745.0)


@pytest.mark.parametrize("T", [1e-6, 1e-3, 1e-2, 1.0])
def test_fermi_integrand_against_exact_value(T):
    # node values against -T log(1 + e^{-e/T}) of the float e and T at
    # 40 digits. The criterion is 4e-16 relative or 1e-300 absolute. It
    # holds where e <= 0, and where T is a power of 2, so that e/T is
    # exact. Elsewhere, for e > 0, it is not met once e/T exceeds about
    # 4: the rounding of e/T alone moves exp(-e/T) by up to (e/T) 2^-53
    # relative (5.6e-14 at T = 1e-6, e = 6.1e-4), so that rounding is
    # allowed on top of the criterion there.
    mpmath = pytest.importorskip("mpmath")
    mag = np.concatenate([[0.0, 1e-300, 1e-20, 5e-324],
                          np.geomspace(1e-12, 10.0, 200),
                          T * np.array([36.7, 707.9, 708.0, 708.1, 745.0,
                                        745.2, 800.0])])
    e = np.concatenate([mag, -mag])
    e = e[np.abs(e) <= 10.0]
    got = criticality._fermi_integrand(e, np.array([T]))[0]
    with mpmath.workdps(40):
        t = mpmath.mpf(T)
        want = [-t * mpmath.log1p(mpmath.exp(-mpmath.mpf(x) / t)) for x in e]
        err = np.array([float(abs(mpmath.mpf(g) - w))
                        for g, w in zip(got, want)])
        ref = np.array([float(abs(w)) for w in want])
    quotient = 0.0 if math.frexp(T)[0] == 0.5 else 2.0 ** -53
    bound = 4e-16 + np.where(e > 0.0, e / T * quotient, 0.0)
    assert np.all((err <= bound * ref) | (err <= 1e-300))
    assert np.any(np.abs(e) / T > 745.0) or T == 1.0


def test_free_energy_at_very_low_temperature():
    # at T = 1e-5 nearly every node has |E - mu| / T beyond exp's range
    mu = 2.0
    r = free_energy(hs(), mu, 1e-5)
    assert r.quad_err <= 1e-9
    pf = math.pi - math.sqrt(math.pi ** 2 - 2.0 * mu)
    # (1/pi) int_0^pf [p (2 pi - p) / 2 - mu] dp
    want = (math.pi * pf ** 2 / 2.0 - pf ** 3 / 6.0 - mu * pf) / math.pi
    assert r.f0 == pytest.approx(want, abs=1e-12)
    assert r.f < r.f0
