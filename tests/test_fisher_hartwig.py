import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from fermichain.criticality import fermi_points
from fermichain.entanglement import renyi_asymptotic
from fermichain.errors import DomainError, _check_roots
from fermichain.fisher_hartwig import (
    FHSymbol,
    fh_deviation,
    log_dl_asymptotic,
    symbol_params,
)
from fermichain.models import DispersionProfile, InteractionModel
from fermichain.specfun import log_barnes_pair
from fermichain.spectral import correlation_spectrum

# frozen references (40-digit oracle, m=0, p0=pi/2, lambda=3)
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
    assert s.jump_angles == (-math.pi / 2.0, math.pi / 2.0)


def test_symbol_two_pairs():
    s = symbol_params([math.pi / 3.0, 2.0 * math.pi / 3.0], 3.0)
    assert s.P == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert len(s.jump_angles) == 4


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
    assert sc.P == s.P


def test_symbol_on_cut_rejected():
    for lam in (0.5, -1.0, 1.0, 0.2 + 5e-10j, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            symbol_params([1.0], lam)


def test_symbol_nonfinite_lambda_rejected():
    for lam in (math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                complex(math.nan, 0.0), complex(3.0, math.nan)):
        with pytest.raises(DomainError, match="lambda=.* is not finite"):
            symbol_params([1.0], lam)
        with pytest.raises(DomainError, match="lambda=.* is not finite"):
            fh_deviation(hs_analysis(), lam, [8])


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


def test_deviation_exact_side_is_eigenvalue_reference(log_det_char):
    # |reference log det - asymptotic|, bit for bit
    for analysis in (hs_analysis(), fig8_analysis()):
        roots = [p for p, _ in analysis.roots]
        for lam in (3.0, -3.0, 0.2 + 0.5j, 1.0 + 1e-3):
            symbol = symbol_params(roots, lam)
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


@pytest.mark.parametrize("angles, match", [
    ((-1.0, -1.0, 1.0, 1.0), "strictly increasing"),
    ((-4.0, 4.0), r"Fermi point 4\.0 outside \(0, pi\)"),
    ((math.nan,), "Fermi point must be finite"),
    ((-2.0, 1.0), r"Fermi point -2\.0 outside \(0, pi\)")],
    ids=["coincident", "past-pi", "nan", "unmirrored"])
def test_hand_built_symbol_angles_refused(angles, match):
    # an FHSymbol built by hand: its jump angles are the Fermi points or
    # their +-p set, checked as f_factor checks Fermi points, when it is
    # built. Unchecked, the first divided by zero, the second raised a
    # bare math domain error and the third returned a number; the fourth
    # was silently rewritten to (-1.0, 1.0).
    with pytest.raises(DomainError, match=match):
        bad = dataclasses.replace(symbol_params([1.0], 3.0),
                                  jump_angles=angles)
        log_dl_asymptotic(bad, 8)


def test_symbol_takes_the_fermi_points_or_their_mirror():
    # the two forms of one angle set give one symbol, which stores the
    # +-p form; any other set is refused (see the test above)
    base = symbol_params([0.9, 2.2], 3.0)
    assert base.jump_angles == (-2.2, -0.9, 0.9, 2.2)
    for angles in ((0.9, 2.2), (-2.2, -0.9, 0.9, 2.2)):
        assert FHSymbol(lam=3.0, jump_angles=angles) == base
        assert symbol_params(angles, 3.0) == base


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
    # DomainError symbol_params gives. Unchecked, these divided by zero,
    # raised a bare math domain error, returned nan, raised a TypeError
    # and returned a number for a lam on the cut.
    with pytest.raises(DomainError) as want:
        symbol_params([1.0], lam)
    with pytest.raises(DomainError) as got:
        dataclasses.replace(symbol_params([1.0], 3.0), lam=lam)
    assert str(got.value) == str(want.value)


def test_symbol_derives_beta_and_p():
    # beta and P follow from lam and the jump angles: a replaced field
    # gives the symbol symbol_params builds, not a mix of two symbols
    base = symbol_params([1.0], 3.0)
    for change, want in (({"lam": 5.0}, symbol_params([1.0], 5.0)),
                         ({"jump_angles": (-1.2, 1.2)},
                          symbol_params([1.2], 3.0))):
        got = dataclasses.replace(base, **change)
        assert got == want
        assert log_dl_asymptotic(got, 64) == log_dl_asymptotic(want, 64)
    assert FHSymbol(lam=3, jump_angles=np.array([-1.0, 1.0])) == base
    with pytest.raises(TypeError):
        FHSymbol(lam=3.0, jump_angles=(-1.0, 1.0), beta=base.beta, P=base.P)
