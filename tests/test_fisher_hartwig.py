import cmath
import dataclasses
import functools
import math
import re

import numpy as np
import pytest

from conftest import AWAY_SEAS
from fermichain.criticality import fermi_points
from fermichain.entanglement import renyi_asymptotic
from fermichain.errors import DomainError, _check_roots
from fermichain.fisher_hartwig import (
    FHSymbol,
    fh_deviation,
    log_dl_asymptotic,
)
from fermichain.models import DispersionProfile, InteractionModel
from fermichain.specfun import log_barnes_pair
from fermichain.spectral import correlation_spectrum

# frozen references (40-digit oracle, m=0, p0=pi/2, lambda=3)
LOG_D4_ASYM = 4.2477094434535625
LOG_D4_EXACT = 4.2476954593651375

MU_HALF = 3.0 * math.pi ** 2 / 8.0


def zero_sea(*ps):
    # the half sea that contains p = 0 and has Fermi points ps
    nodes = [0.0, *ps] + [math.pi] * (len(ps) % 2 == 0)
    return tuple(zip(nodes[::2], nodes[1::2]))


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
    s = FHSymbol(lam=3.0, sea_half=zero_sea(math.pi / 2.0))
    assert s.beta == pytest.approx(-1j * math.log(2.0) / (2.0 * math.pi),
                                   abs=1e-15)
    assert s.beta.imag == pytest.approx(-0.110318, abs=1e-6)
    assert s.P == pytest.approx(0.5, abs=1e-15)
    assert s.jump_angles == (-math.pi / 2.0, math.pi / 2.0)


def test_symbol_two_pairs():
    s = FHSymbol(lam=3.0,
                 sea_half=zero_sea(math.pi / 3.0, 2.0 * math.pi / 3.0))
    assert s.P == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert len(s.jump_angles) == 4


def test_symbol_real_lambda_beta_imaginary():
    for lam in (3.0, 1.5, -2.0, 100.0):
        s = FHSymbol(lam=lam, sea_half=zero_sea(1.0))
        assert s.beta.real == pytest.approx(0.0, abs=1e-15)


def test_symbol_beta_strip_random_lambda():
    rng = np.random.default_rng(11)
    count = 0
    while count < 100:
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if -1.0 <= lam.real <= 1.0 and abs(lam.imag) <= 1e-9:
            continue
        count += 1
        s = FHSymbol(lam=lam, sea_half=zero_sea(1.2))
        assert abs(s.beta.real) < 0.5


def test_symbol_conjugation():
    lam = 0.7 + 1.9j
    s = FHSymbol(lam=lam, sea_half=zero_sea(0.9, 2.2))
    sc = FHSymbol(lam=lam.conjugate(), sea_half=zero_sea(0.9, 2.2))
    # the 1/(2 pi i) prefactor anti-conjugates beta; the determinant
    # still conjugates because beta enters only through beta^2 and the
    # even Barnes pair
    assert sc.beta == pytest.approx(-s.beta.conjugate(), abs=1e-15)
    assert sc.P == s.P


def test_symbol_on_cut_rejected():
    for lam in (0.5, -1.0, 1.0, 0.2 + 5e-10j, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            FHSymbol(lam=lam, sea_half=zero_sea(1.0))


def test_symbol_nonfinite_lambda_rejected():
    for lam in (math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                complex(math.nan, 0.0), complex(3.0, math.nan)):
        with pytest.raises(DomainError, match="lambda=.* is not finite"):
            FHSymbol(lam=lam, sea_half=zero_sea(1.0))
        with pytest.raises(DomainError, match="lambda=.* is not finite"):
            fh_deviation(hs_analysis(), lam, [8])


def test_symbol_root_validation():
    # the sea's edges, less a 0 that starts it and a pi that ends it,
    # are its Fermi points: a non-empty, strictly increasing set inside
    # (0, pi), as f_factor takes them
    for sea, match in (
            ((), "non-empty"), (((0.0, math.pi),), "non-empty"),
            (zero_sea(1.0, 1.0), "strictly increasing"),
            (zero_sea(2.0, 1.0), "strictly increasing"),
            (((1.0, math.pi), (math.pi, math.pi)), r"outside \(0, pi\)"),
            (((0.0, 1.0), (0.0, math.pi)), r"0\.0 outside \(0, pi\)")):
        with pytest.raises(DomainError, match=match):
            FHSymbol(lam=3.0, sea_half=sea)


# ---------------------------------------------------------------------------
# asymptotic determinant

def test_asymptotic_frozen_value():
    s = FHSymbol(lam=3.0, sea_half=zero_sea(math.pi / 2.0))
    got = log_dl_asymptotic(s, 4)
    assert got.imag == pytest.approx(0.0, abs=1e-13)
    assert got.real == pytest.approx(LOG_D4_ASYM, abs=1e-12)


def test_asymptotic_single_pair_specialization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p0 = rng.uniform(0.1, math.pi - 0.1)
        lam = complex(rng.uniform(1.1, 4.0), rng.uniform(-2.0, 2.0))
        L = int(rng.integers(2, 200))
        s = FHSymbol(lam=lam, sea_half=zero_sea(p0))
        got = log_dl_asymptotic(s, L)
        want = a16_log(p0, lam, L)
        assert got == pytest.approx(want, abs=1e-10)


def test_asymptotic_two_pair_specialization():
    rng = np.random.default_rng(6)
    p0, p1 = 0.8, 2.3
    for _ in range(5):
        lam = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.2, 3.0))
        s = FHSymbol(lam=lam, sea_half=zero_sea(p0, p1))
        got = log_dl_asymptotic(s, 37)
        want = a18_log(p0, p1, lam, 37)
        assert got == pytest.approx(want, abs=1e-10)


def test_asymptotic_conjugation():
    lam = 1.4 + 0.6j
    s = FHSymbol(lam=lam, sea_half=zero_sea(1.1))
    sc = FHSymbol(lam=lam.conjugate(), sea_half=zero_sea(1.1))
    got = log_dl_asymptotic(s, 25)
    assert log_dl_asymptotic(sc, 25) == pytest.approx(got.conjugate(),
                                                      abs=1e-11)


def test_asymptotic_large_lambda():
    s = FHSymbol(lam=1e6, sea_half=zero_sea(math.pi / 2.0))
    got = log_dl_asymptotic(s, 12)
    assert abs(got - 12.0 * math.log(1e6)) < 1e-4


def test_asymptotic_validation():
    s = FHSymbol(lam=3.0, sea_half=zero_sea(1.0))
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


def test_deviation_exact_side_is_eigenvalue_reference(log_det_char):
    # |reference log det - asymptotic|, bit for bit
    for analysis in (hs_analysis(), fig8_analysis()):
        for lam in (3.0, -3.0, 0.2 + 0.5j, 1.0 + 1e-3):
            symbol = FHSymbol(lam=lam, sea_half=analysis.sea_half)
            for L, dev in fh_deviation(analysis, lam, [4, 16, 64]):
                exact = log_det_char(correlation_spectrum(analysis, L), lam)
                assert dev == abs(exact - log_dl_asymptotic(symbol, L))


def test_deviation_branch_convention():
    # Re lambda < 0 and inside the strip |Re lambda| < 1: a branch slip
    # in the asymptotic side would show as a 2 pi jump, not a decay
    hs2 = fermi_points(DispersionProfile(InteractionModel.haldane_shastry()),
                       2.0)
    sizes = [16, 32, 64, 128, 256]
    for analysis in (hs2, fig8_analysis()):
        for lam in (-3.0, 0.2 + 0.5j, -0.7 - 0.3j):
            devs = [d for _, d in fh_deviation(analysis, lam, sizes)]
            assert all(devs[i + 2] < devs[i] for i in range(len(devs) - 2))
            assert devs[-1] < devs[0]
            assert devs[-1] <= 3e-2, (lam, devs)


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
    # one refusal for what is not a non-empty sequence of block lengths;
    # a bare count raised TypeError, text was read character by
    # character and an empty list gave []
    for sizes in (512, "16", [], np.array([16, 32]).reshape(1, 2)):
        message = ("block lengths must form a non-empty 1-D sequence, "
                   f"got {sizes!r}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fh_deviation(hs_analysis(), 3.0, sizes)
    assert fh_deviation(hs_analysis(), 3.0, [np.int64(8)]) == \
        fh_deviation(hs_analysis(), 3.0, [8])


@pytest.mark.parametrize("roots, match", [
    (lambda a: a.roots[::-1], "strictly increasing"),
    (lambda a: ((math.nan, 1),) + a.roots[1:], "must be finite")],
    ids=["reversed", "nan"])
def test_hand_built_analysis_roots_refused(roots, match):
    # a FermiAnalysis built by hand: a critical one checks its roots
    # when it is built, so neither the determinant asymptotics nor the
    # entropy asymptotics ever read them unchecked
    a = fig8_analysis()
    with pytest.raises(DomainError, match=match):
        bad = dataclasses.replace(a, roots=roots(a))
        fh_deviation(bad, 3.0, [8])
    with pytest.raises(DomainError, match=match):
        bad = dataclasses.replace(a, roots=roots(a))
        renyi_asymptotic(correlation_spectrum(bad, 8), 1.0)


@pytest.mark.parametrize("sea, match", [
    (((0.0, 1.0), (1.0, math.pi)), "strictly increasing"),
    (((0.0, 4.0),), r"Fermi point 4\.0 outside \(0, pi\)"),
    (((0.0, math.nan),), "Fermi point must be finite"),
    (((-2.0, 1.0),), r"Fermi point -2\.0 outside \(0, pi\)")],
    ids=["coincident", "past-pi", "nan", "unmirrored"])
def test_hand_built_symbol_angles_refused(sea, match):
    # an FHSymbol built or replaced by hand: the edges of its sea inside
    # (0, pi) are its jump angles, checked as f_factor checks Fermi
    # points, when it is built. Unchecked as angles, the first divided
    # by zero, the second raised a bare math domain error and the third
    # returned a number; the fourth, a sea reaching below 0, was as
    # angles (-2.0, 1.0) silently rewritten to (-1.0, 1.0).
    with pytest.raises(DomainError, match=match):
        bad = dataclasses.replace(FHSymbol(lam=3.0, sea_half=zero_sea(1.0)),
                                  sea_half=sea)
        log_dl_asymptotic(bad, 8)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(FHSymbol(lam=3.0, sea_half=zero_sea(1.0)),
                            jump_angles=(-1.0, 1.0))


@pytest.mark.parametrize("sea, match", [
    ([(False, 1.0)], "^Fermi point must be a number, got False$"),
    ([(0.0, True)], "^Fermi point must be a number, got True$"),
    ([(0.5, 1.0), (2.0,)], r"^sea_half must be a sequence of \(start, end\) "
                           r"pairs, got \[\(0\.5, 1\.0\), \(2\.0,\)\]$"),
    ([(0.5,)], r"^sea_half must be a sequence of \(start, end\) pairs, got "
               r"\[\(0\.5,\)\]$"),
    ([1.0], r"^sea_half must be a sequence of \(start, end\) pairs, got "
            r"\[1\.0\]$"),
    ([(0.5, 1.0, 2.0)], r"^sea_half must be a sequence of \(start, end\) "
                        r"pairs, got \[\(0\.5, 1\.0, 2\.0\)\]$")],
    ids=["bool-start", "bool-end", "ragged", "one-end", "bare-edge",
         "three-ends"])
def test_sea_entries_are_pairs_of_reals(sea, match):
    # a hand-built sea is read as (start, end) pairs of reals, by the
    # real validator, both where a symbol is built and where a critical
    # analysis is; (False, 1.0) was once read as the sea [0, 1), with
    # P = 0.318, and the others escaped as a bare ValueError or TypeError
    analysis = fermi_points(
        DispersionProfile(InteractionModel.haldane_shastry()), 2.0)
    for build in (lambda: FHSymbol(lam=3.0, sea_half=sea),
                  lambda: dataclasses.replace(analysis, sea_half=sea)):
        with pytest.raises(DomainError, match=match):
            build()


def test_symbol_jumps_are_the_sea_edges_mirrored():
    # the jump angles are the sea's edges inside (0, pi) and their
    # mirror images, whichever side of them the sea lies on; P is the
    # sea's measure over pi, so a sea and its complement share their
    # jumps, and their P add up to 1
    sea = zero_sea(0.9, 2.2)
    complement = ((0.9, 2.2),)
    for half in (sea, complement, [[0.9, 2.2]], np.array([[0.9, 2.2]])):
        symbol = FHSymbol(lam=3.0, sea_half=half)
        assert symbol.jump_angles == (-2.2, -0.9, 0.9, 2.2)
    assert FHSymbol(lam=3.0, sea_half=np.array([[0.9, 2.2]])).sea_half == \
        complement
    assert FHSymbol(lam=3.0, sea_half=sea).P == pytest.approx(
        1.0 - (2.2 - 0.9) / math.pi, abs=1e-15)
    assert FHSymbol(lam=3.0, sea_half=complement).P == (2.2 - 0.9) / math.pi


def test_deviation_checks_the_fermi_points_once(monkeypatch):
    # the analysis checked its roots when it was built; on their way to
    # the symbol they are checked once more, by FHSymbol alone
    a = fig8_analysis()
    calls = []

    def counted(roots):
        calls.append(roots)
        return _check_roots(roots)

    monkeypatch.setattr("fermichain.fisher_hartwig._check_roots", counted)
    fh_deviation(a, 3.0, [8])
    assert len(calls) == 1


def test_analysis_edges_are_its_fermi_points():
    # a replaced root or sea edge gave an answer for neither sea: on HS
    # mu 2, roots ((0.3, 1),) read r_L -0.1097 at L = 256 and a deviation
    # 5.895 at L = 64 (true 7.9e-7 and 4.7e-5); sea_half
    # ((0.0, 0.3),) kept the old sea and gave 5.895 too
    a = fermi_points(DispersionProfile(InteractionModel.haldane_shastry()),
                     2.0)
    (p, _), = a.roots
    message = r"must be the edges of sea_half .* inside \(0, pi\), each simple"
    for change in ({"roots": ((0.3, 1),)}, {"sea_half": ((0.0, 0.3),)},
                   {"roots": ((p, 2),)}, {"roots": ((p, 1), (p + 0.1, 1))},
                   {"sea_half": ((0.0, p), (0.0, math.pi))}):
        with pytest.raises(DomainError, match=message):
            dataclasses.replace(a, **change)
    for field in ("sea", "central_charge"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(a, **{field: getattr(a, field)})
    moved = dataclasses.replace(a, mu=3.0, roots=((1.0, 1),),
                                sea_half=((0.0, 1.0),))
    assert moved.sea == ((0.0, 1.0), (2.0 * math.pi - 1.0, 2.0 * math.pi))
    assert moved.central_charge == 1
    gapped = dataclasses.replace(a, phase="gapped-above", roots=(),
                                 sea_half=((0.0, math.pi),))
    assert gapped.sea == ((0.0, 2.0 * math.pi),)
    assert gapped.central_charge is None


@pytest.mark.parametrize("lam", [1.0, -1.0, math.nan, "x", 0.5],
                         ids=["plus-one", "minus-one", "nan", "text", "cut"])
def test_replaced_lambda_refused(lam):
    # dataclasses.replace builds the symbol anew, so its lam gets the
    # DomainError that building one gives. Unchecked, these divided by zero,
    # raised a bare math domain error, returned nan, raised a TypeError
    # and returned a number for a lam on the cut.
    with pytest.raises(DomainError) as want:
        FHSymbol(lam=lam, sea_half=zero_sea(1.0))
    with pytest.raises(DomainError) as got:
        dataclasses.replace(FHSymbol(lam=3.0, sea_half=zero_sea(1.0)),
                            lam=lam)
    assert str(got.value) == str(want.value)


def test_symbol_derives_beta_and_p():
    # the jump angles, beta and P follow from lam and the sea: a
    # replaced field gives the symbol built from the new fields, not a
    # mix of two symbols
    base = FHSymbol(lam=3.0, sea_half=zero_sea(1.0))
    for change, want in (
            ({"lam": 5.0}, FHSymbol(lam=5.0, sea_half=zero_sea(1.0))),
            ({"sea_half": zero_sea(1.2)},
             FHSymbol(lam=3.0, sea_half=zero_sea(1.2))),
            ({"sea_half": ((1.0, math.pi),)},
             FHSymbol(lam=3.0, sea_half=((1.0, math.pi),)))):
        got = dataclasses.replace(base, **change)
        assert got == want
        assert log_dl_asymptotic(got, 64) == log_dl_asymptotic(want, 64)
    assert FHSymbol(lam=3, sea_half=np.array([[0, 1.0]])) == base
    with pytest.raises(TypeError):
        FHSymbol(lam=3.0, sea_half=zero_sea(1.0), jump_angles=(-1.0, 1.0),
                 beta=base.beta, P=base.P)



@functools.cache
def _drawn_seas():
    # finite-range chains with 2-5 N(0, 1) couplings and mu uniform over
    # the band, drawn in order from one seed, each sea classed by the
    # shape of sea_half (does it contain 0, does it contain pi) and its
    # central charge. A sign scan of E - mu on a fine grid picks the
    # draws worth a Fermi analysis; the analysis decides the class. The
    # first critical sea of each class is kept, and no draw is ever
    # repeated or skipped after the fact.
    rng = np.random.default_rng(2016)
    grid = np.linspace(0.0, math.pi, 4097)
    kept = {}
    while len(kept) < len(TOPOLOGIES):
        coeffs = tuple(rng.standard_normal(int(rng.integers(2, 6))).tolist())
        profile = DispersionProfile(InteractionModel.finite_range(coeffs))
        e = profile.E_grid(grid)
        mu = float(rng.uniform(e.min(), e.max()))
        below = e < mu
        scanned = ((bool(below[0]), bool(below[-1])),
                   int(np.count_nonzero(below[1:] != below[:-1])))
        if scanned in kept:
            continue
        a = fermi_points(profile, mu)
        if a.phase != "critical":
            continue
        shape = (a.sea_half[0][0] == 0.0, a.sea_half[-1][1] == math.pi)
        kept.setdefault((shape, a.central_charge), a)
    return kept


# (contains 0, contains pi) and c: a sea with one of 0 and pi has an
# odd number of Fermi points, one with both or neither an even number
TOPOLOGIES = {
    **{f"zero-c{c}": ((True, False), c) for c in (1, 3, 5)},
    **{f"pi-c{c}": ((False, True), c) for c in (1, 3, 5)},
    **{f"both-c{c}": ((True, True), c) for c in (2, 4)},
    **{f"neither-c{c}": ((False, False), c) for c in (2, 4)},
}
# L = 64 sits on a node of this sea's oscillating correction: the
# deviation reads 7.6e-6 there and 1.0e-4 at L = 60 and 68, on an
# envelope of about 4.5e-3 / L that falls to 8.8e-6 at L = 512
_NODE_AT_64 = pytest.mark.xfail(
    strict=True, reason="L = 64 is a node of the subleading oscillation")


def test_drawn_seas_cover_every_topology():
    assert sorted(_drawn_seas()) == sorted(TOPOLOGIES.values())


@pytest.mark.parametrize("topology", [
    pytest.param(name, marks=_NODE_AT_64) if name == "pi-c3" else name
    for name in TOPOLOGIES] + ["away-0", "away-1", "away-2"])
def test_deviation_falls_on_every_topology(topology):
    # the symbol reads the sea, so the deviation falls with L whichever
    # side of its Fermi points the sea lies on; a symbol built from the
    # Fermi points alone took every sea as one containing 0 and grew
    # linearly in L on the others, reading 0.23 to 50 at L = 128
    if topology.startswith("away"):
        coeffs, mu, _ = AWAY_SEAS[int(topology[-1])]
        a = fermi_points(
            DispersionProfile(InteractionModel.finite_range(coeffs)), mu)
    else:
        a = _drawn_seas()[TOPOLOGIES[topology]]
    devs = dict(fh_deviation(a, 3.0, [64, 128, 512]))
    assert devs[128] < 1e-3, (a.sea_half, devs)
    assert devs[512] < devs[64], (a.sea_half, devs)
