"""Two symmetries of finite-range chains, as gates that need no oracle
and reach any block length.

Complement (particle-hole): negating every coupling and mu maps the sea
{E < mu} to its complement, and A_L to I - A_L (Peschel, J. Phys. A 36
(2003) L205). So the eigenvalues map to 1 - lambda, S_alpha and c are
equal, f - f0 is equal at every T (log(1 + e^x) = x + log(1 + e^-x)),
and D'_L(lambda) = (-1)^L D_L(-lambda), so the Fisher-Hartwig deviation
of the sea at -lambda is that of its complement at lambda.

Half-zone reflection: E(pi - p) is E with its odd-index couplings
flipped, plus 4 sum_{j odd} a_j. So flipping them and shifting mu by
-4 sum_{j odd} a_j maps the sea to pi - sea, and A_L to D A_L D with
D = diag((-1)^i): the spectrum, S_alpha, c and the low-temperature
coefficient are equal.

Each bound is about ten times the largest error measured on these seas.
Below alpha = 1 the two sides of either map differ far more (1.4e-5 at
alpha = 0.5 and 3.0e-2 at alpha = 0.25, L = 1024), from the eigenvalues
within rounding of 0 and 1, so those orders are not gated here.
"""

import functools
import math

import numpy as np
import pytest

from fermichain import (DispersionProfile, InteractionModel,
                        correlation_spectrum, fermi_points, fh_deviation,
                        free_energy, low_temperature_fit, renyi_exact)

from conftest import AWAY_SEAS

# three seas that contain p = 0 and the three golden seas that miss it
SEAS = [((1.0,), 1.0), ((1.0, 0.5), 4.25), ((1.0, -0.5, 1.0), 3.25),
        *((coeffs, mu) for coeffs, mu, _ in AWAY_SEAS)]
SIZES = (64, 256, 1024)
# largest error measured per L: eigenvalues 6.8e-15 / 1.9e-14 / 6.8e-14,
# S_1 2.8e-13 / 2.2e-12 / 1.5e-11, S_2, S_3 and S_inf 1.7e-14 /
# 1.2e-13 / 9.1e-13
EIGENVALUES = {64: 7e-14, 256: 2e-13, 1024: 7e-13}
RENYI = {1.0: {64: 3e-12, 256: 2e-11, 1024: 1.5e-10},
         **{alpha: {64: 2e-13, 256: 1.2e-12, 1024: 1e-11}
            for alpha in (2.0, 3.0, math.inf)}}


def complement(coeffs, mu):
    return tuple(-a for a in coeffs), -mu


def reflection(coeffs, mu):
    # coupling j = 1, 2, ... sits at index j - 1
    return (tuple(-a if j % 2 == 0 else a for j, a in enumerate(coeffs)),
            mu - 4.0 * sum(coeffs[0::2]))


def profile(coeffs):
    return DispersionProfile(InteractionModel.finite_range(coeffs))


@functools.cache
def analysis(coeffs, mu):
    return fermi_points(profile(coeffs), mu)


@functools.cache
def spectrum(coeffs, mu, L):
    return correlation_spectrum(analysis(coeffs, mu), L)


def _compare_blocks(sea, image, flip):
    # eigenvalues and S_alpha, alpha >= 1, of a sea and its image
    a, b = analysis(*sea), analysis(*image)
    assert a.phase == b.phase == "critical"
    assert a.central_charge == b.central_charge
    for L in SIZES:
        x, y = spectrum(*sea, L), spectrum(*image, L)
        want = 1.0 - y.eigenvalues[::-1] if flip else y.eigenvalues
        assert np.abs(x.eigenvalues - want).max() <= EIGENVALUES[L]
        for alpha, bound in RENYI.items():
            assert abs(renyi_exact(x, alpha)
                       - renyi_exact(y, alpha)) <= bound[L], (sea, alpha, L)


@pytest.mark.parametrize("sea", SEAS, ids=[f"{c}-{mu}" for c, mu in SEAS])
def test_complement(sea):
    image = complement(*sea)
    edges = [e for iv in analysis(*sea).sea_half for e in iv]
    image_edges = [e for iv in analysis(*image).sea_half for e in iv]
    assert sorted({0.0, math.pi} ^ set(edges)) == image_edges
    _compare_blocks(sea, image, flip=True)
    # the deviations agreed to 1.1e-13, out of |log D_L| up to about 300
    for lam in (3.0, 1.0 + 0.5j):
        here = fh_deviation(analysis(*sea), -lam, [64, 256])
        there = fh_deviation(analysis(*image), lam, [64, 256])
        for (_, d), (_, e) in zip(here, there):
            assert abs(d - e) <= 1.2e-12, (sea, lam)
    # f - f0 agreed to 3.6e-16
    T = np.geomspace(1e-3, 1e-2, 4)
    for r, s in zip(free_energy(profile(sea[0]), sea[1], T),
                    free_energy(profile(image[0]), image[1], T)):
        assert abs((r.f - r.f0) - (s.f - s.f0)) <= 4e-15


@pytest.mark.parametrize("sea", SEAS, ids=[f"{c}-{mu}" for c, mu in SEAS])
def test_half_zone_reflection(sea):
    image = reflection(*sea)
    edges = [e for iv in analysis(*sea).sea_half for e in iv]
    image_edges = [e for iv in analysis(*image).sea_half for e in iv]
    # the edges agreed to 8.9e-16
    assert image_edges == pytest.approx([math.pi - e for e in edges[::-1]],
                                        abs=1e-14)
    _compare_blocks(sea, image, flip=False)
    # the coefficients agreed to 1.4e-9 relative
    r = low_temperature_fit(profile(sea[0]), sea[1])
    s = low_temperature_fit(profile(image[0]), image[1])
    assert r.coefficient == pytest.approx(s.coefficient, rel=1.5e-8)
