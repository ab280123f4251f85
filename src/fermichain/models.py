"""Interaction families on the ring and their dispersion relations.

A model fixes the translation-invariant coupling h(j) between sites at
chord distance j. Mode energies of the N-site ring come from the
half-range sum over 1 <= j <= N/2 (with a parity term at j = N/2 for
even N); the thermodynamic limit gives E(p) on [0, 2*pi] together with
its first two derivatives, which DispersionProfile evaluates in one
place, one branch per family. Models are immutable after construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, _check_count, _check_number,
                     _check_real, _check_reals)
from .specfun import _horner, _polylog_circle_grid, zeta

_TWO_PI = 2.0 * math.pi

# the parameter fields each family takes; every other field stays None
_PARAMETERS = {
    "haldane-shastry": (),
    "finite-range": ("alphas",),
    "power-law": ("nu", "C"),
    "rational-cubic": ("J",),
    "custom-summable": ("h", "tail_bound"),
}

FAMILIES = tuple(_PARAMETERS)


@dataclass(frozen=True)
class InteractionModel:
    family: str
    alphas: tuple = None   # finite-range couplings alpha_1..alpha_r
    nu: float = None       # power-law exponent
    C: float = None        # power-law amplitude, 1 when unset
    J: float = None        # rational-cubic strength, h(x) = 1/x^2 - J/x^3
    h: object = None       # custom coupling callback h(j)
    tail_bound: object = None  # declared bound B(J) >= sum_{j>J} |h(j)|

    def __post_init__(self):
        # direct construction and the factories below pass the same checks
        if self.family not in FAMILIES:
            raise DomainError(f"unknown interaction family {self.family!r}")
        takes = ("family", *_PARAMETERS[self.family])
        for name, value in vars(self).items():
            if value is not None and name not in takes:
                raise DomainError(f"{self.family} model takes no {name}")
        if self.family == "finite-range":
            given = () if self.alphas is None else self.alphas
            alphas = _check_reals(given, "finite-range couplings").tolist()
            if np.ndim(given) != 1:
                raise DomainError("finite-range couplings must be a sequence, "
                                  f"got {given!r}")
            if len(alphas) < 1:
                raise DomainError(
                    "finite-range model needs at least one coupling")
            if alphas[-1] == 0.0:
                raise DomainError(
                    "trailing finite-range coupling must be nonzero")
            object.__setattr__(self, "alphas", tuple(alphas))
        elif self.family == "power-law":
            nu = _check_real(self.nu, "power-law exponent")
            if not nu > 1.0:
                raise DomainError("power-law coupling sum diverges for "
                                  f"nu <= 1 (got nu={nu})")
            C = _check_real(1.0 if self.C is None else self.C,
                            "power-law amplitude")
            if not C > 0.0:
                raise DomainError(
                    f"power-law amplitude must be positive, got {C}")
            object.__setattr__(self, "nu", nu)
            object.__setattr__(self, "C", C)
        elif self.family == "rational-cubic":
            object.__setattr__(
                self, "J", _check_real(self.J, "rational-cubic strength"))
        elif self.family == "custom-summable":
            if not callable(self.h) or not callable(self.tail_bound):
                raise DomainError(
                    "custom-summable model needs h(j) and a tail bound B(J), "
                    "both callable")

    @classmethod
    def haldane_shastry(cls):
        return cls(family="haldane-shastry")

    @classmethod
    def finite_range(cls, alphas):
        return cls(family="finite-range", alphas=alphas)

    @classmethod
    def power_law(cls, nu, C=1.0):
        return cls(family="power-law", nu=nu, C=C)

    @classmethod
    def rational_cubic(cls, J):
        return cls(family="rational-cubic", J=J)

    @classmethod
    def custom_summable(cls, h, tail_bound):
        return cls(family="custom-summable", h=h, tail_bound=tail_bound)

    def coupling(self, j, N):
        """h_N(j) at chord distance 1 <= j <= N/2 on the N-site ring."""
        if self.family == "haldane-shastry":
            return (math.pi / N) ** 2 / math.sin(math.pi * j / N) ** 2
        if self.family == "finite-range":
            return self.alphas[j - 1] if j <= len(self.alphas) else 0.0
        if self.family == "power-law":
            return self.C * float(j) ** -self.nu
        if self.family == "rational-cubic":
            return 1.0 / j ** 2 - self.J / j ** 3
        return float(self.h(j))


def mode_energies(model, N):
    """Single-mode energies eps_N(l) of the N-site ring, l = 0..N-1.

    eps_N(l) = 2 sum_{j=1}^{floor((N-1)/2)} [1 - cos(2 pi j l / N)] h_N(j)
               + [N even] (1 - (-1)^l) h_N(N/2)

    is a cosine transform of the couplings, with h_N(N/2) at half
    weight: one real FFT gives l <= N/2, and eps_N(N-l) = eps_N(l) the
    rest. eps_N(0) is exactly 0.
    """
    N = _check_count(N, "ring size")
    top = (N - 1) // 2
    h = np.zeros(N)
    h[1:top + 1] = [model.coupling(j, N) for j in range(1, top + 1)]
    if N % 2 == 0:
        h[N // 2] = 0.5 * model.coupling(N // 2, N)
    c = np.fft.rfft(h).real
    half = 2.0 * (c[0] - c)
    return np.concatenate([half, half[top:0:-1]])


# ---------------------------------------------------------------------------
# Clausen series for the rational-cubic slope near p = pi.
# Im Li_2(e^{i theta}) = theta (1 - log theta) + theta P(theta^2), where
# P(t) = sum_k zeta(2k) t^k / (k (2k+1) (2 pi)^{2k}); (theta/2pi)^2 <= 1/4
# on the half period, so 24 terms suffice. P has no constant term.

_LOG2 = math.log(2.0)


# the coefficients of P from specfun.zeta, read-only
_K = np.arange(1, 25, dtype=float)
_CL2_COEF = np.concatenate([[0.0], np.array([zeta(2.0 * k) for k in _K])
                            / (_K * (2.0 * _K + 1.0) * _TWO_PI ** (2.0 * _K))])
_CL2_COEF.flags.writeable = False


def _clausen2_near_pi_slope(u):
    # Im Li_2(e^{i(pi-u)}) / u for u in [0, pi/2].  The duplication identity
    # Cl2(pi-u) = Cl2(u) - Cl2(2u)/2 cancels the u(1 - log u) parts exactly,
    # so the slope is log 2 + P(u^2) - P(4u^2) with only relative error.
    # Rewriting E' around p = pi in this factored form keeps its sign exact
    # through the near-total cancellation at couplings close to the
    # monotonicity threshold; the naive difference of two O(pi-p) terms has
    # absolute noise that flips signs on fine scans.
    u2 = np.square(np.asarray(u, dtype=float))
    return _LOG2 + _horner(_CL2_COEF, u2) - _horner(_CL2_COEF, 4.0 * u2)


# ---------------------------------------------------------------------------

class DispersionProfile:
    """E(p), E'(p), E''(p) on [0, 2*pi] for one interaction model.

    One evaluator, _band, holds one branch per family and gives any of
    the three orders from one call, by closed form or series:
    power-law and rational-cubic share the zeta series of
    specfun._polylog_circle_grid, and finite-range and custom-summable
    sum their cosine series, each order with its own truncation. E_grid,
    E1_grid and E2_grid are its views of one order, and E, E1 and E2 are
    grids of one. A column has the same bits whatever orders it comes
    with. At
    the zone center the haldane-shastry and power-law (nu <= 2)
    dispersions have a cusp; derivative values there are one-sided
    limits where defined.
    """

    def __init__(self, model):
        self.model = model
        self._series_cache = {}

    # -- cosine-series couplings -----------------------------------------
    def _couplings(self, order):
        """(j, j^order h_j): the indices and order-`order` weights of the
        series E = 2 sum_j h_j (1 - cos j p).

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
        self._series_cache[order] = (j, j ** order * hj)
        return self._series_cache[order]

    # -- views of the evaluator: scalars are grids of one -----------------
    def E(self, p):
        return float(self.E_grid(_check_number(p, "momentum p"))[0])

    def E1(self, p):
        return float(self.E1_grid(_check_number(p, "momentum p"))[0])

    def E2(self, p):
        return float(self.E2_grid(_check_number(p, "momentum p"))[0])

    def E_grid(self, p):
        return self._band(_check_momentum(p), 0)[0]

    def E1_grid(self, p):
        return self._band(_check_momentum(p), 1)[0]

    def E2_grid(self, p):
        return self._band(_check_momentum(p), 2)[0]

    def _band(self, p, *orders):
        """E (order 0), E' (1) and E'' (2) at a checked float array of
        momenta in [0, 2*pi]: one array in p's shape per order asked."""
        m = self.model
        if m.family == "haldane-shastry":
            def column(o):
                return (0.5 * p * (_TWO_PI - p) if o == 0 else math.pi - p
                        if o == 1 else np.full(p.shape, -1.0))
        elif m.family == "power-law":
            # E = 2C [zeta(nu) - Re Li_nu], E' = 2C Im Li_{nu-1} and
            # E'' = 2C Re Li_{nu-2}. At the zone center Im Li is odd, so
            # E' = 0 at the cusp, and E'' is +inf for nu <= 3, where
            # sum j^{2-nu} diverges, and 2 C zeta(nu - 2) otherwise
            def column(o):
                li = _polylog_circle_grid(m.nu - o, p,
                                          "imag" if o == 1 else "real")
                return 2.0 * m.C * (zeta(m.nu) - li if o == 0 else li)
        elif m.family == "rational-cubic":
            def column(o):
                if o == 0:
                    li = _polylog_circle_grid(3.0, p, "real")
                    return (0.5 * p * (_TWO_PI - p)
                            - 2.0 * m.J * (zeta(3.0) - li))
                if o == 1:
                    h = math.pi - p
                    out = h - 2.0 * m.J * _polylog_circle_grid(2.0, p, "imag")
                    near = np.abs(h) < 0.5 * math.pi
                    if np.any(near):
                        hn = h[near]
                        slope = _clausen2_near_pi_slope(np.abs(hn))
                        out[near] = hn * (1.0 - 2.0 * m.J * slope)
                    return out
                if m.J == 0.0:
                    return np.full(p.shape, -1.0)
                # log|2 sin(p/2)| diverges at the zone center: E'' = -inf
                # for J > 0 and +inf for J < 0 there
                s = 2.0 * np.sin(0.5 * np.minimum(p, _TWO_PI - p))
                with np.errstate(divide="ignore"):
                    return -1.0 + 2.0 * m.J * np.log(s)
        else:
            # finite-range and custom-summable: the explicit cosine series
            def column(o):
                j, w = self._couplings(o)
                return _trig_sum(p, j, w, np.sin if o == 1 else np.cos,
                                 constant=0.0 if o else 2.0 * w.sum(),
                                 sign=2.0 if o else -2.0)
        return [column(o) for o in orders]


def _check_momentum(p):
    """Momenta as errors._check_reals reads them, so a scalar is a grid
    of one, on [0, 2*pi]; values within 1e-12 outside the zone are
    rounding and get clipped."""
    p = _check_reals(p, "momentum p")
    if p.size and not (-1e-12 <= p.min() and p.max() <= _TWO_PI + 1e-12):
        raise DomainError(
            f"momenta span [{p.min()}, {p.max()}], outside [0, 2*pi]")
    return np.minimum(np.maximum(p, 0.0, out=p), _TWO_PI, out=p)


def _trig_sum(p, j, w, trig, constant=0.0, sign=1.0):
    # constant + sign * sum_j w_j trig(j p) in p's shape, 2048 terms a block
    # so the outer product stays small. Rows are summed one by one, not by
    # a matrix product, whose rounding depends on how many rows there are:
    # a point gets the same value in any grid, a grid of one included.
    out = np.full(p.size, constant, dtype=float)
    for lo in range(0, j.size, 2048):
        blk = slice(lo, lo + 2048)
        terms = trig(np.outer(p, j[blk]))
        terms *= w[blk]
        out += sign * terms.sum(axis=1)
    return out.reshape(p.shape)


# uniform cells of the sign-change scans on (0, pi)
_SCAN_CELLS = 4096


def _half_period_grid():
    """Scan grid on (0, pi): midpoints of _SCAN_CELLS cells and geometric
    ladders toward both endpoints, sorted, read-only.

    Midpoints keep the exact zeros of E' at the interval ends out of sign
    scans; the ladders catch features that near-threshold couplings
    squeeze below any uniform resolution.
    """
    step = math.pi / _SCAN_CELLS
    base = (np.arange(_SCAN_CELLS) + 0.5) * step
    # each ladder goes on from the outermost midpoint, half a cell in;
    # reversed it rises to the first midpoint, and pi - ladder rises
    # from the last, so the three pieces are in order as they stand
    ladder = 0.5 * step * 2.0 ** -np.arange(1.0, 32.0)
    grid = np.concatenate([ladder[::-1], base, math.pi - ladder])
    grid.flags.writeable = False
    return grid


# the scan grid of every sign-change scan, built once
HALF_PERIOD_CANDIDATES = _half_period_grid()


def monotonicity_report(profile):
    """The interior sign changes of E' on (0, pi), sorted, as a tuple.

    E' is scanned for sign changes, and each is bisected to 1e-12. Two
    stationary points closer than a cell can leave E' with one sign at
    every grid point, as it dips through zero and back between two. So
    around each grid point where |E'| is least among it and its two
    neighbours, all three of one sign, the two cells are searched by
    _dip_below; where it finds E' of the other sign, E' is bisected on
    each side of that point. This catches an extremum of E' inside a
    cell whose two neighbours hold no other one; two extrema in
    neighbouring cells can hide each other from the grid.

    Finite-range couplings past index _SCAN_CELLS/4 are refused: their
    E' can change sign faster than the scan resolves. So is a band whose
    E' overflows doubles anywhere the scan looks.
    """
    top = len(profile.model.alphas or ())
    if top > _SCAN_CELLS // 4:
        raise AccuracyError(
            f"coupling index {top} is finer than the {_SCAN_CELLS}-cell "
            f"scan of E' resolves (at most {_SCAN_CELLS // 4})",
            achieved=top, target=_SCAN_CELLS // 4)

    def e1(p):
        return _finite_band(profile, p, 1)[0]

    cand = HALF_PERIOD_CANDIDATES
    d = e1(cand)
    neg = d < 0.0
    flip = neg[:-1] != neg[1:]
    brackets = [(cand[i], cand[i + 1], d[i], d[i + 1])
                for i in np.flatnonzero(flip)]
    size = np.abs(d)
    for k in 1 + np.flatnonzero((size[1:-1] < size[:-2])
                                & (size[1:-1] <= size[2:])):
        if flip[k - 1] or flip[k]:
            continue
        a, b = cand[k - 1], cand[k + 1]
        below = _dip_below(e1, a, b, neg[k])
        if below is not None:
            x, v = below
            brackets += [(a, x, d[k - 1], v), (x, b, v, d[k + 1])]
    return tuple(_kept_zeros(e1, sorted(brackets), 1e-12))


def _dip_below(f, a, b, neg):
    # A point (x, f(x)) of [a, b] where the grid function f has the
    # other sign than at a and b (negative there if neg), or None. |f|
    # is taken to have one minimum on [a, b]: 17 points zoom in on the
    # least |f| and its two neighbours, until one has the other sign or
    # the bracket is within 1e-12.
    while b - a > 1e-12:
        x = np.linspace(a, b, 17)
        v = f(x)
        other = np.flatnonzero((v < 0.0) != neg)
        if other.size:
            return x[other[0]], v[other[0]]
        k = int(np.argmin(np.abs(v)))
        a, b = x[max(k - 1, 0)], x[min(k + 1, 16)]
    return None


def _finite_band(profile, p, *orders):
    """profile._band(p, *orders), with a band that overflows doubles
    refused, naming the column ("E", "E'" or "E''") and its first
    non-finite value.

    E and E' are finite at every momentum in exact arithmetic, and E''
    at every momentum but the zone center p = 0 (2 pi), where the
    power-law and rational-cubic cusps make it infinite; so a value that
    is not finite, away from the zone center for E'', is an overflow.
    numpy's overflow and invalid-value warnings are silenced, as the
    refusal reports the first value they would warn about.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        band = profile._band(p, *orders)
    for order, e in zip(orders, band):
        bad = ~np.isfinite(e)
        if order == 2:
            bad &= (0.0 < p) & (p < _TWO_PI)
        bad = np.flatnonzero(bad)
        if bad.size:
            name = "E" + "'" * order
            raise DomainError(
                f"the band overflows: {name} is {e.flat[bad[0]]} at p = "
                f"{np.ravel(p)[bad[0]]}; the couplings are too large for "
                "doubles")
    return band


def half_period_zeros(f, xtol, grid=None):
    """Zeros of the grid function f on (0, pi) as floats, bisected to
    xtol, sorted.

    A cell of the sorted scan grid (HALF_PERIOD_CANDIDATES unless
    given) brackets a zero when f is negative at one end only, so an
    exact 0 is an ordinary bracket end. Zeros within 1e-12 of 0 or pi
    are dropped, and one within 1e-10 of the last zero kept is merged
    into it.
    """
    cand = HALF_PERIOD_CANDIDATES if grid is None else grid
    v = f(cand)
    neg = v < 0.0
    return _kept_zeros(f, [(cand[i], cand[i + 1], v[i], v[i + 1])
                           for i in np.flatnonzero(neg[:-1] != neg[1:])],
                       xtol)


def _kept_zeros(f, brackets, xtol):
    # half_period_zeros' rule on sorted, disjoint (a, b, f(a), f(b))
    # brackets: each bisected to xtol, then dropped or merged
    zeros = []
    for bracket in brackets:
        r = _bisect_sign_change(f, *bracket, xtol)
        if 1e-12 < r < math.pi - 1e-12 and (
                not zeros or r - zeros[-1] > 1e-10):
            zeros.append(float(r))
    return zeros


# bisection levels of a plain pass of _bisect_sign_change
_BISECT_LEVELS = 8


def _bisect_sign_change(f, a, b, fa, fb, xtol=1e-12):
    # Plain bisection of a sign change of f on [a, b], f(a) = fa and
    # f(b) = fb, down to b - a <= xtol, with f a grid function. Each grid
    # call evaluates a set of midpoints formed as plain bisection forms
    # them, 0.5 * (left + right) level by level; the walk then applies
    # the scalar rules while the next midpoint is in the set: f(m) == 0
    # returns m, else keep the half whose ends differ in sign. So the
    # root is bit for bit that of one f call per midpoint whenever f's
    # grid values equal its scalar values, and a bracket already within
    # xtol costs no call. The set is the path down to the secant root of
    # the bracket, which near a smooth root holds until the bracket is
    # about as narrow as the secant's error: two or three calls a root.
    # A path gains at least one level. Once one more could leave plain
    # passes (every midpoint of _BISECT_LEVELS levels) unable to finish
    # within the budget, one call more than plain passes alone take,
    # plain passes finish.
    def passes(levels):
        # plain passes that settle this many levels
        return -(-levels // _BISECT_LEVELS)

    calls, budget = 0, None
    while b - a > xtol:
        levels = max(1, math.ceil(math.log2((b - a) / xtol)))
        if budget is None:
            budget = passes(levels) + 1
        if calls + 1 + passes(levels - 1) <= budget:
            pts = _secant_path(a, b, fa, fb, xtol)
        else:
            pts = _plain_levels(a, b, min(levels, _BISECT_LEVELS))
        known = dict(zip(pts.tolist(), f(pts).tolist()))
        calls += 1
        while b - a > xtol:
            m = 0.5 * (a + b)
            if m not in known:
                break
            fm = known[m]
            if fm == 0.0:
                return m
            if (fa < 0.0) != (fm < 0.0):
                b, fb = m, fm
            else:
                a, fa = m, fm
    return 0.5 * (a + b)


def _secant_path(a, b, fa, fb, xtol):
    # the midpoints plain bisection forms if the root is where the
    # secant through (a, fa) and (b, fb) meets zero
    guess = a - fa * ((b - a) / (fb - fa))
    pts = []
    while b - a > xtol and len(pts) < 64:
        m = 0.5 * (a + b)
        pts.append(m)
        if guess < m:
            b = m
        else:
            a = m
    return np.array(pts)


def _plain_levels(a, b, levels):
    # every midpoint of the first `levels` levels of plain bisection
    n = 2 ** levels
    pts = np.empty(n + 1)
    pts[0], pts[n] = a, b
    step = n
    while step > 1:
        half = step // 2
        pts[half::step] = 0.5 * (pts[:-1:step] + pts[step::step])
        step = half
    return pts[1:-1]
