"""Interaction families on the ring and their dispersion relations.

A model fixes the translation-invariant coupling h(j) between sites at
chord distance j. Mode energies of the N-site ring come from the
half-range sum over 1 <= j <= N/2 (with a parity term at j = N/2 for
even N); the thermodynamic limit gives E(p) on [0, 2*pi] together with
its first two derivatives. Models are immutable after construction.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import AccuracyError, DomainError, QuadratureError
from .specfun import exp_tail_cutoff, polylog_circle, quad_breakpoints, zeta

_TWO_PI = 2.0 * math.pi

FAMILIES = ("haldane-shastry", "finite-range", "power-law",
            "rational-cubic", "custom-summable")


@dataclass(frozen=True)
class InteractionModel:
    family: str
    alphas: tuple = ()     # finite-range couplings alpha_1..alpha_r
    nu: float = 0.0        # power-law exponent
    C: float = 1.0         # power-law amplitude
    J: float = 0.0         # rational-cubic strength, h(x) = 1/x^2 - J/x^3
    h: object = None       # custom coupling callback h(j)
    tail_bound: object = None  # declared bound B(J) >= sum_{j>J} |h(j)|

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown interaction family {self.family!r}")

    @classmethod
    def haldane_shastry(cls):
        return cls(family="haldane-shastry")

    @classmethod
    def finite_range(cls, alphas):
        alphas = tuple(float(a) for a in alphas)
        if len(alphas) < 1:
            raise DomainError("finite-range model needs at least one coupling")
        if alphas[-1] == 0.0:
            raise DomainError("trailing finite-range coupling must be nonzero")
        if not all(math.isfinite(a) for a in alphas):
            raise DomainError("finite-range couplings must be finite")
        return cls(family="finite-range", alphas=alphas)

    @classmethod
    def power_law(cls, nu, C=1.0):
        nu = float(nu)
        C = float(C)
        if not nu > 1.0:
            raise DomainError(
                f"power-law coupling sum diverges for nu <= 1 (got nu={nu})")
        if not (math.isfinite(C) and C > 0.0):
            raise DomainError(f"power-law amplitude must be positive, got {C}")
        return cls(family="power-law", nu=nu, C=C)

    @classmethod
    def rational_cubic(cls, J):
        J = float(J)
        if not math.isfinite(J):
            raise DomainError("rational-cubic strength must be finite")
        return cls(family="rational-cubic", J=J)

    @classmethod
    def custom_summable(cls, h, tail_bound):
        if not callable(h) or not callable(tail_bound):
            raise DomainError(
                "custom-summable model needs h(j) and a tail bound B(J), "
                "both callable")
        return cls(family="custom-summable", h=h, tail_bound=tail_bound)

    def coupling(self, j, N=None):
        """h(j) at chord distance j >= 1; N selects the finite-ring form."""
        if self.family == "haldane-shastry":
            if N is None:
                return 1.0 / (j * j)
            return (math.pi / N) ** 2 / math.sin(math.pi * j / N) ** 2
        if self.family == "finite-range":
            return self.alphas[j - 1] if j <= len(self.alphas) else 0.0
        if self.family == "power-law":
            return self.C * float(j) ** -self.nu
        if self.family == "rational-cubic":
            return 1.0 / j ** 2 - self.J / j ** 3
        return float(self.h(j))


def mode_energy(model, N, l):
    """Single-mode energy eps_N(l) of the N-site ring.

    eps_N(l) = 2 sum_{j=1}^{floor((N-1)/2)} [1 - cos(2 pi j l / N)] h_N(j)
               + [N even] (1 - (-1)^l) h_N(N/2)
    """
    N = int(N)
    l = int(l)
    if N < 1:
        raise DomainError(f"ring size must be positive, got {N}")
    if l < 0 or l >= N:
        raise DomainError(f"mode index {l} out of range [0, {N - 1}]")
    e = 0.0
    for j in range(1, (N - 1) // 2 + 1):
        e += 2.0 * (1.0 - math.cos(_TWO_PI * j * l / N)) * model.coupling(j, N)
    if N % 2 == 0:
        e += (1.0 - (-1.0) ** l) * model.coupling(N // 2, N)
    return e


# ---------------------------------------------------------------------------
# Clausen-type series for the rational-cubic evaluators.
# log(theta / (2 sin(theta/2))) = sum_k zeta(2k) theta^{2k} / (k (2 pi)^{2k});
# integrating once and twice gives Im Li_2(e^{i theta}) and
# zeta(3) - Re Li_3(e^{i theta}) with an explicit theta^2 log(theta) part.
# Ratio (theta/2pi)^2 <= 1/4 on the folded half period, so 24 terms suffice.

_CL_K = np.arange(1, 25, dtype=float)
_CL_Z = np.array([zeta(2.0 * k) for k in _CL_K])
_CL2_COEF = _CL_Z / (_CL_K * (2.0 * _CL_K + 1.0) * _TWO_PI ** (2.0 * _CL_K))
_GL3_COEF = _CL2_COEF / (2.0 * _CL_K + 2.0)


def _poly_even(coef, theta2):
    acc = np.zeros_like(theta2)
    for c in coef[::-1]:
        acc = (acc + c) * theta2
    return acc


def _clausen2(theta):
    # Im Li_2(e^{i theta}) for theta in [0, pi], vectorized
    theta = np.asarray(theta, dtype=float)
    safe = np.where(theta > 0.0, theta, 1.0)
    main = theta * (1.0 - np.log(safe))
    return np.where(theta > 0.0, main + theta * _poly_even(_CL2_COEF, theta * theta), 0.0)


def _glaisher3_gap(theta):
    # zeta(3) - Re Li_3(e^{i theta}) for theta in [0, pi], vectorized
    theta = np.asarray(theta, dtype=float)
    safe = np.where(theta > 0.0, theta, 1.0)
    t2 = theta * theta
    main = t2 * (0.75 - 0.5 * np.log(safe))
    return np.where(theta > 0.0, main + t2 * _poly_even(_GL3_COEF, t2), 0.0)


_LOG2 = math.log(2.0)


def _clausen2_near_pi_slope(u):
    # Im Li_2(e^{i(pi-u)}) / u for u in [0, pi/2].  The duplication identity
    # Cl2(pi-u) = Cl2(u) - Cl2(2u)/2 cancels the u(1 - log u) parts exactly,
    # so the slope is log 2 + P(u^2) - P(4u^2) with only relative error.
    # Rewriting E' around p = pi in this factored form keeps its sign exact
    # through the near-total cancellation at couplings close to the
    # monotonicity threshold; the naive difference of two O(pi-p) terms has
    # absolute noise that flips signs on fine scans.
    u2 = np.square(np.asarray(u, dtype=float))
    return _LOG2 + _poly_even(_CL2_COEF, u2) - _poly_even(_CL2_COEF, 4.0 * u2)


# ---------------------------------------------------------------------------

class DispersionProfile:
    """E(p), E'(p), E''(p) on [0, 2*pi] for one interaction model.

    The *_grid methods evaluate each family in one place, over momentum
    arrays, by closed form or series; power-law still integrates per
    point. E, E1 and E2 are grids of one. At the zone center the
    haldane-shastry and power-law (nu <= 2) dispersions have a cusp;
    derivative values there are one-sided limits where defined.
    """

    def __init__(self, model):
        self.model = model
        self._series_cache = {}

    # -- cosine-series couplings -----------------------------------------
    def _couplings(self, order):
        """(j, h_j) of the series E = 2 sum_j h_j (1 - cos j p).

        Finite-range models give their couplings as they are. A
        custom-summable series is truncated so the declared tail bound
        caps the error: order o weights the tail by j^o, so truncation
        requires J^o B(J) < 1e-12; the scan doubles J and gives up at 2^20.
        """
        if order in self._series_cache:
            return self._series_cache[order]
        if self.model.family == "finite-range":
            hj = np.asarray(self.model.alphas)
        else:
            B = self.model.tail_bound
            J = 8
            while float(J) ** order * float(B(J)) >= 1e-12:
                J *= 2
                if J > 2 ** 20:
                    achieved = float(J / 2) ** order * float(B(J // 2))
                    raise AccuracyError(
                        f"declared tail bound cannot reach 1e-12 at weight "
                        f"j^{order} within 2^20 terms (achieved {achieved:.3e})",
                        achieved=achieved, target=1e-12)
            hj = np.array([float(self.model.h(k)) for k in range(1, J + 1)])
        j = np.arange(1.0, hj.size + 1.0)
        self._series_cache[order] = (j, hj)
        return j, hj

    # -- evaluators: one branch per family, scalars are grids of one --------
    def E(self, p):
        return float(self.E_grid(float(p))[0])

    def E1(self, p):
        return float(self.E1_grid(float(p))[0])

    def E2(self, p):
        return float(self.E2_grid(float(p))[0])

    def E_grid(self, p):
        p = _check_momentum(p)
        m = self.model
        if m.family == "haldane-shastry":
            return 0.5 * p * (_TWO_PI - p)
        if m.family == "power-law":
            li = np.array([polylog_circle(m.nu, x).real for x in p])
            return 2.0 * m.C * (zeta(m.nu) - li)
        if m.family == "rational-cubic":
            q = np.minimum(p, _TWO_PI - p)
            return 0.5 * p * (_TWO_PI - p) - 2.0 * m.J * _glaisher3_gap(q)
        # finite-range and custom-summable: the explicit cosine series
        j, hj = self._couplings(0)
        return _trig_sum(p, j, hj, np.cos, constant=2.0 * hj.sum(), sign=-2.0)

    def E1_grid(self, p):
        p = _check_momentum(p)
        m = self.model
        if m.family == "haldane-shastry":
            return math.pi - p
        if m.family == "power-law":
            return np.array([self._power_law_deriv(x, 1) for x in p])
        if m.family == "rational-cubic":
            q = np.minimum(p, _TWO_PI - p)
            odd = np.where(p > math.pi, -1.0, 1.0)
            out = (math.pi - p) - 2.0 * m.J * odd * _clausen2(q)
            h = math.pi - p
            near = np.abs(h) < 0.5 * math.pi
            if np.any(near):
                hn = h[near]
                out[near] = hn * (1.0 - 2.0 * m.J
                                  * _clausen2_near_pi_slope(np.abs(hn)))
            return out
        j, hj = self._couplings(1)
        return _trig_sum(p, j, j * hj, np.sin, sign=2.0)

    def E2_grid(self, p):
        p = _check_momentum(p)
        m = self.model
        if m.family == "haldane-shastry":
            return np.full(p.shape, -1.0)
        if m.family == "power-law":
            return np.array([self._power_law_deriv(x, 2) for x in p])
        if m.family == "rational-cubic":
            if m.J == 0.0:
                return np.full(p.shape, -1.0)
            # log|2 sin(p/2)| diverges at the zone center: E'' = -inf for
            # J > 0 and +inf for J < 0 there
            s = 2.0 * np.sin(0.5 * np.minimum(p, _TWO_PI - p))
            with np.errstate(divide="ignore"):
                return -1.0 + 2.0 * m.J * np.log(s)
        j, hj = self._couplings(2)
        return _trig_sum(p, j, j * j * hj, np.cos, sign=2.0)

    def _power_law_deriv(self, p, order):
        """Differentiated integral representation of 2C[zeta - Re Li_nu].

        E'  = (2C sin p / Gamma(nu)) int x^{nu-1} (e^-x - e^-3x) / d^2
        E'' = (2C / Gamma(nu)) int x^{nu-1} [ (e^-x - e^-3x) cos p / d^2
                                - 4 sin^2 p (e^-2x - e^-4x) / d^3 ]
        with d = 1 - 2 e^-x cos p + e^-2x.
        """
        nu, C = self.model.nu, self.model.C
        s = min(p, _TWO_PI - p)
        if s == 0.0 and order == 1:
            return 0.0  # odd in p - pi; symmetric value at the zone-center cusp
        if s == 0.0 and nu <= 3.0:
            return math.inf  # sum 2 C j^{2-nu} diverges at the zone center
        cosp = math.cos(p)
        sinp = math.sin(p)
        sh2 = math.sin(0.5 * p) ** 2
        upper = exp_tail_cutoff(nu)
        pts = quad_breakpoints(s, upper) if s > 0.0 else None

        if order == 1:
            def f(x):
                em = math.exp(-x)
                u = -math.expm1(-x)
                d = u * u + 4.0 * em * sh2
                return x ** (nu - 1.0) * em * u * (1.0 + em) / (d * d)
        else:
            s2 = sinp * sinp

            def f(x):
                em = math.exp(-x)
                u = -math.expm1(-x)
                d = u * u + 4.0 * em * sh2
                a = em * u * (1.0 + em) * cosp / (d * d)
                b = 4.0 * s2 * em * em * u * (1.0 + em) / (d * d * d)
                return x ** (nu - 1.0) * (a - b)

        with warnings.catch_warnings():
            # the returned abserr is gated below; scipy's own complaint about
            # extrapolation roundoff at extreme momenta is redundant with it
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(f, 0.0, upper, points=pts, limit=400,
                            epsabs=1e-12, epsrel=1e-10)
        scale = 2.0 * C / math.gamma(nu)
        if order == 1:
            val, err = val * sinp, err * abs(sinp)
        out = scale * val
        achieved = scale * err
        if achieved > 1e-8 * max(1.0, abs(out)):
            raise QuadratureError(
                f"dispersion derivative quadrature error {achieved:.3e} at "
                f"p={p}, order={order}", achieved=achieved,
                target=1e-8 * max(1.0, abs(out)))
        return out


def _check_momentum(p):
    """Momenta as a float array on [0, 2*pi]; a scalar is a grid of one.

    Values within 1e-12 outside the zone are rounding and get clipped.
    """
    p = np.array(p, dtype=float, ndmin=1)
    if p.size and not (-1e-12 <= p.min() and p.max() <= _TWO_PI + 1e-12):
        raise DomainError(
            f"momenta span [{p.min()}, {p.max()}], outside [0, 2*pi]")
    return np.minimum(np.maximum(p, 0.0, out=p), _TWO_PI, out=p)


def _trig_sum(p, j, w, trig, constant=0.0, sign=1.0):
    # constant + sign * sum_j w_j trig(j p), in blocks of 2048 terms so the
    # outer product stays small. Rows are summed one by one, not by a
    # matrix product, whose rounding depends on how many rows there are:
    # a point gets the same value in any grid, a grid of one included.
    out = np.full(p.shape, constant, dtype=float)
    for lo in range(0, j.size, 2048):
        blk = slice(lo, lo + 2048)
        terms = trig(np.outer(p, j[blk]))
        terms *= w[blk]
        out += sign * terms.sum(axis=1)
    return out


@dataclass(frozen=True)
class MonotonicityReport:
    monotonic: bool            # no interior sign change of E' on (0, pi)
    critical_points: tuple


def half_period_candidates(grid_points=4096, focus=()):
    """Scan grid on (0, pi): cell midpoints, geometric ladders toward both
    endpoints, and optional clusters shrinking onto each focus point.

    Midpoints keep the exact zeros of E' at the interval ends out of sign
    scans; the ladders and clusters catch features that near-threshold
    couplings squeeze below any uniform resolution.
    """
    step = math.pi / grid_points
    base = (np.arange(grid_points) + 0.5) * step
    ladder = math.pi * 2.0 ** -np.arange(13.0, 45.0)
    pieces = [ladder, base, math.pi - ladder]
    offsets = step * 2.0 ** -np.arange(0.0, 31.0)
    for pc in focus:
        cluster = np.concatenate([pc - offsets, pc + offsets])
        pieces.append(cluster[(cluster > 0.0) & (cluster < math.pi)])
    return np.unique(np.concatenate(pieces))


def monotonicity_report(profile, grid_points=4096):
    """Scan E' for sign changes on (0, pi), bisect each to 1e-12."""
    cand = half_period_candidates(grid_points)
    d = profile.E1_grid(cand)

    roots = []
    for i in np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0):
        roots.append(_bisect_sign_change(
            profile.E1, cand[i], cand[i + 1], d[i], d[i + 1]))
    roots.extend(cand[np.flatnonzero(d == 0.0)])

    roots = sorted(r for r in roots if 1e-12 < r < math.pi - 1e-12)
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-10:
            merged.append(r)
    return MonotonicityReport(monotonic=not merged,
                              critical_points=tuple(merged))


def _bisect_sign_change(f, a, b, fa, fb, xtol=1e-12):
    while b - a > xtol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
