"""Fermi points, phase classification, and low-temperature thermodynamics.

The chemical potential mu cuts the band E(p); everything here derives
from where and how the two meet: simple crossings give a critical phase
whose central charge counts Fermi seas, tangencies give multiple roots
with anomalous T^{1+1/nu} thermal scaling, and no crossing at all gives
a gapped phase with activated behavior.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
import warnings

from .errors import (AccuracyError, DomainError, FitRejectedError,
                     QuadratureError)
from .models import (_bisect_sign_change, half_period_candidates,
                     monotonicity_report)
from .specfun import zeta

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FermiAnalysis:
    """Where E(p) = mu on (0, pi) and what that means for the phase.

    roots holds (p_i, multiplicity) pairs sorted by p_i; velocities,
    b_k and eps_k line up with it. b_k = (nu! / |E^(nu)(p_k)|)^(1/nu)
    and eps_k = sign E^(nu)(p_k); for simple roots these reduce to the
    inverse velocity and the slope sign. sea lists disjoint intervals
    of [0, 2*pi) with E < mu; sea_half is its [0, pi] restriction.
    central_charge is None unless the phase is critical.
    """
    mu: float
    roots: tuple
    velocities: tuple
    b_k: tuple
    eps_k: tuple
    sea: tuple
    sea_half: tuple
    phase: str
    central_charge: object
    e_min: float
    e_max: float
    stationary_points: tuple


@dataclass(frozen=True)
class ThermalResult:
    T: float
    f: float      # Helmholtz free energy per spin
    f0: float     # ground-state energy density


@dataclass(frozen=True)
class LowTemperatureFit:
    exponent: float
    coefficient: float
    predicted_coefficient: object  # None when no scaling law applies
    residual: float
    thermal: tuple                 # the ThermalResult fitted at each T


def _log1pexp(t):
    # log(1 + e^t) without overflow on either side
    if t > 0.0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


def fermi_points(profile, mu):
    """Roots of E(p) = mu on (0, pi) with multiplicities, plus the phase."""
    return _analyze(profile, mu)


def _analyze(profile, mu):
    mu = float(mu)
    if not math.isfinite(mu):
        raise DomainError("chemical potential must be finite")
    stationary = monotonicity_report(profile).critical_points
    band_vals = profile.E_grid([0.0, *stationary, math.pi])
    e_min = float(band_vals.min())
    e_max = float(band_vals.max())

    snap_tol = 1e-10 * max(1.0, abs(mu))
    # tangency: mu sits on a band extremum to working precision
    tangent = [pc for pc, e in zip(stationary, band_vals[1:-1])
               if abs(e - mu) < snap_tol]
    snapped = [(pc, 2) for pc in tangent]
    excluded = []
    if tangent:
        curvature = np.abs(profile.E2_grid(tangent))
        radius = 2.0 * np.sqrt(2.0 * snap_tol / np.maximum(curvature, 1e-6))
        excluded = list(zip(np.subtract(tangent, radius),
                            np.add(tangent, radius)))

    def outside(p):
        # the quadratic neighborhood of a snapped tangency holds no crossing
        return not any(a <= p <= b for a, b in excluded)

    cand = half_period_candidates(focus=stationary)
    g = profile.E_grid(cand) - mu
    bisected = [_bisect_sign_change(lambda p: profile.E(p) - mu,
                                    cand[i], cand[i + 1], g[i], g[i + 1],
                                    xtol=1e-13)
                for i in np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)]
    bisected = [r for r in bisected if outside(r)]
    crossing = [(r, 2 if abs(d) < 1e-8 else 1)
                for r, d in zip(bisected, profile.E1_grid(bisected))]
    crossing.extend((float(p), 1) for p in cand[np.flatnonzero(g == 0.0)]
                    if outside(p))

    roots = []
    for r, nu in sorted(snapped + crossing):
        if 1e-12 < r < math.pi - 1e-12 and (
                not roots or r - roots[-1][0] > 1e-10):
            roots.append((r, nu))
    roots = tuple(roots)

    ps = np.array([p for p, _ in roots])
    slopes = profile.E1_grid(ps)
    velocities = tuple(np.abs(slopes).tolist())
    d = slopes.copy()
    multiple = np.array([nu > 1 for _, nu in roots], dtype=bool)
    if multiple.any():
        d[multiple] = profile.E2_grid(ps[multiple])
    b_k = []
    eps_k = []
    for dk, (_, nu) in zip(d.tolist(), roots):
        b_k.append((math.factorial(nu) / abs(dk)) ** (1.0 / nu)
                   if dk != 0.0 else math.inf)
        eps_k.append(int(math.copysign(1.0, dk)) if dk != 0.0 else 0)

    sea_half = _half_sea(profile, mu, [p for p, _ in roots])
    sea = _reflect_sea(sea_half)

    btol = 1e-12 * max(1.0, abs(mu), abs(e_min), abs(e_max))
    if any(nu >= 2 for _, nu in roots):
        phase, charge = "non-critical-multiple-root", None
    elif abs(mu - e_min) <= btol or abs(mu - e_max) <= btol:
        phase, charge = "boundary", None
    elif mu < e_min:
        phase, charge = "gapped-below", None
    elif mu > e_max:
        phase, charge = "gapped-above", None
    elif roots:
        phase, charge = "critical", len(roots)
    else:
        raise AccuracyError(
            f"mu={mu} lies inside the band but no crossing was resolved",
            achieved=math.nan, target=1e-13)

    return FermiAnalysis(mu=mu, roots=roots, velocities=velocities,
                         b_k=tuple(b_k), eps_k=tuple(eps_k), sea=sea,
                         sea_half=sea_half, phase=phase,
                         central_charge=charge, e_min=e_min, e_max=e_max,
                         stationary_points=tuple(stationary))


def _half_sea(profile, mu, root_ps):
    nodes = [0.0] + list(root_ps) + [math.pi]
    mids = 0.5 * (np.array(nodes[:-1]) + np.array(nodes[1:]))
    runs = []
    for a, b, e in zip(nodes[:-1], nodes[1:], profile.E_grid(mids)):
        if e < mu:
            if runs and runs[-1][1] == a:
                runs[-1][1] = b  # tangency point interior to the sea
            else:
                runs.append([a, b])
    return tuple((a, b) for a, b in runs)


def _reflect_sea(sea_half):
    left = [[a, b] for a, b in sea_half]
    right = [[_TWO_PI - b, _TWO_PI - a] for a, b in reversed(sea_half)]
    if left and right and left[-1][1] == math.pi:
        left[-1][1] = right[0][1]
        right = right[1:]
    return tuple((a, b) for a, b in left + right)


def free_energy(profile, mu, T, analysis=None):
    """f(T) = -(T/pi) int_0^pi log[1 + e^{-(E(p)-mu)/T}] dp, plus f0.

    The integration panels split at the Fermi points and band extrema,
    where the integrand develops kinks as T -> 0. f0 integrates E - mu
    over the Fermi sea and is the exact T -> 0 limit of f.
    """
    T = float(T)
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got {T}")
    if analysis is None:
        analysis = _analyze(profile, mu)
    elif float(mu) != analysis.mu:
        raise DomainError(
            f"analysis is for mu={analysis.mu}, free energy asked at mu={mu}")
    mu = analysis.mu

    f0 = 0.0
    for a, b in analysis.sea_half:
        val, err = quad(lambda p: profile.E(p) - mu, a, b,
                        epsabs=1e-13, epsrel=1e-12)
        f0 += val / math.pi
        if abs(err) / math.pi > 1e-10:
            raise QuadratureError(
                "ground-energy quadrature stalled",
                achieved=err / math.pi, target=1e-10)

    pts = sorted(set([p for p, _ in analysis.roots]
                     + list(analysis.stationary_points)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda p: _log1pexp(-(profile.E(p) - mu) / T),
                        0.0, math.pi, points=pts or None, limit=500,
                        epsabs=1e-12 * math.pi / T, epsrel=1e-11)
    f = -(T / math.pi) * val
    achieved = (T / math.pi) * err
    if achieved > 1e-9:
        raise QuadratureError(
            f"free-energy quadrature reached only {achieved:.3e} "
            f"(target 1e-9) at T={T}", achieved=achieved, target=1e-9)
    return ThermalResult(T=T, f=f, f0=f0)


def low_temperature_fit(profile, mu, T_grid=None):
    """Fit log|f - f0| against log T and compare with the predicted law.

    Critical phases must show f - f0 = -(pi T^2/6) sum 1/v_i; a band
    tangency (multiple root of order nu) instead gives the anomalous
    power 1 + 1/nu with amplitude
        -(2 b_k/pi)(1 - 2^{-1/nu}) Gamma(1+1/nu) zeta(1+1/nu).
    predicted_coefficient reports the law for the fitted (dominant)
    power; it is None for gapped and boundary phases.
    """
    if T_grid is None:
        T_grid = np.geomspace(1e-3, 1e-2, 8)
    T_grid = np.asarray(T_grid, dtype=float)
    if T_grid.size < 4:
        raise DomainError("need at least 4 temperatures to fit")
    if not np.all(T_grid > 0.0):
        raise DomainError("temperatures must be positive")

    analysis = _analyze(profile, mu)
    results = [free_energy(profile, mu, T, analysis=analysis)
               for T in T_grid]
    gaps = np.array([r.f - r.f0 for r in results])
    if np.any(gaps >= 0.0):
        raise FitRejectedError(
            "f(T) - f0 is not strictly negative on the grid; no scaling "
            "regime to fit", residual=math.inf)
    x = np.log(T_grid)
    y = np.log(-gaps)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.max(np.abs(design @ [slope, intercept] - y)))
    if residual > 0.2:
        raise FitRejectedError(
            f"log-log fit residual {residual:.3f} exceeds 0.2; the grid "
            "is outside the leading-order regime", residual=residual)

    predicted = None
    if analysis.phase == "critical":
        predicted = -(math.pi / 6.0) * sum(1.0 / v
                                           for v in analysis.velocities)
    elif analysis.phase == "non-critical-multiple-root":
        nu_max = max(nu for _, nu in analysis.roots)
        predicted = 0.0
        for (p, nu), b in zip(analysis.roots, analysis.b_k):
            if nu == nu_max:
                inv = 1.0 / nu
                predicted -= (2.0 * b / math.pi) * (1.0 - 2.0 ** -inv) \
                    * math.gamma(1.0 + inv) * zeta(1.0 + inv)
    return LowTemperatureFit(exponent=float(slope),
                             coefficient=-math.exp(float(intercept)),
                             predicted_coefficient=predicted,
                             residual=residual, thermal=tuple(results))
