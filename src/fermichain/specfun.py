"""Special functions used throughout the library.

Riemann zeta (nu > 1), the polylogarithm on the unit circle, the
Barnes-G pair product log[G(1+beta)G(1-beta)], the Renyi entropy kernel
s_alpha(x) over an array x (a scalar is a grid of one) with the one
Renyi-order validator, and the one fixed-panel Gauss-Legendre rule
behind every smooth integral: free_energy and c_tilde each place their
panels, take the nodes from _panel_nodes, evaluate their integrand
there and sum _panel_rules.

One real-line Riemann zeta, _zeta_real, serves the whole library:
zeta(nu), the coefficients of the polylog series at any order, and (in
its Hurwitz form) the tail of the Barnes sum; Gamma and k! come from
math, so nothing here imports scipy. All routines are pure functions of
their arguments. Their only state is two functools.lru_cache caches of
pure functions, zeta values and the per-order polylog constants, whose
arrays are read-only.
"""

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, _check_number, _check_real, _check_reals

# Euler-Mascheroni constant, 20 digits
EULER_GAMMA = 0.57721566490153286061

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Riemann zeta

# B_2k / (2k)! for k = 1..8, each rounded once from the exact fraction
_B2K = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
        (-3617, 510))
_EULER_MACLAURIN = tuple(b / (d * math.factorial(2 * k))
                         for k, (b, d) in enumerate(_B2K, 1))
# pi - math.pi: pi^y = math.pi^y (1 + y _PI_LO / math.pi) to O(y^2 eps^2)
_PI_LO = 1.2246467991473532e-16


def _zeta_tail(s, a, d):
    """Terms of sum_{n >= a} n^{-s} (DLMF 25.2.9) for real s, with d = s - 1.

    a^{-d}/d + a^{-s}/2 + sum_k B_2k/(2k)! (s)_{2k-1} a^{1-s-2k}, a list
    for math.fsum. The caller passes d exactly, so the pole term keeps
    full relative accuracy next to s = 1. The eight Bernoulli terms
    leave a remainder below 1e-18 of zeta(s) at a = 10 for
    1/2 <= s < 64, and of the sum itself at a >= 81 for s <= 9.
    """
    p = a ** -s
    terms = [a ** -d / d, 0.5 * p]
    f = s * p / a
    inv_a2 = 1.0 / (a * a)
    for k, c in enumerate(_EULER_MACLAURIN, 1):
        terms.append(c * f)
        f *= (s + 2 * k - 1) * (s + 2 * k) * inv_a2
    return terms


def _sin_half_pi(x):
    # sin(pi x / 2), exactly 0 at the even integers: fmod and the
    # quadrant split are exact, so the angle left is |f| <= pi/4
    r = math.fmod(x, 4.0)
    n = round(r)
    f = 0.5 * math.pi * (r - n)
    return (math.sin(f), math.cos(f), -math.sin(f), -math.cos(f))[n % 4]


def _zeta_real(x):
    """Riemann zeta at a real float x: -1/2 at 0 and +inf at the pole 1.

    For x >= 1/2 the first nine terms of sum n^{-x} and the
    Euler-Maclaurin tail from n = 10, summed by math.fsum: within an
    ulp or two of a 40-digit reference. Below 1/2 the reflection
    2^x pi^{x-1} sin(pi x/2) Gamma(1-x) zeta(1-x) (DLMF 25.4.2), each
    factor taken from the exact x: the sine reduced exactly, so the
    trivial zeros stay accurate, pi^{x-1} as pi^x/pi and Gamma(1-x) as
    -x Gamma(-x), since a rounded 1 - x would cost tens of ulps at
    x = -30. That is within a few ulps of the reflection's scale
    2 (2 pi)^{x-1} Gamma(1-x) down to x = -100, below the lowest order
    the polylog series asks for. Gamma(-x) overflows (OverflowError)
    below x = -171.
    """
    if x >= 64.0:
        return 1.0                      # zeta(x) - 1 < 2^-63 rounds away
    if x >= 0.5:
        if x == 1.0:
            return math.inf
        return math.fsum([n ** -x for n in range(1, 10)]
                         + _zeta_tail(x, 10.0, x - 1.0))
    if abs(x) < 2.0 ** -30:
        # zeta(x) = -1/2 - x log(2 pi)/2 + O(x^2)
        return -0.5 - 0.5 * math.log(_TWO_PI) * x
    sine = _sin_half_pi(x)
    if sine == 0.0:
        return 0.0
    scale = (2.0 ** x * (math.pi ** x / math.pi) * (-x * math.gamma(-x))
             * (1.0 + (x - 1.0) * _PI_LO / math.pi))
    s = 1.0 - x
    return scale * sine * math.fsum([n ** -s for n in range(1, 10)]
                                    + _zeta_tail(s, 10.0, -x))


# the zeta(nu) behind every E_grid call of the power-law and
# rational-cubic families; bounded, as the orders a run uses are few
_zeta_cached = functools.lru_cache(maxsize=64)(_zeta_real)


def zeta(nu):
    """zeta(nu) for real nu > 1."""
    nu = _check_number(nu, "zeta order nu")
    if not nu > 1.0:
        raise DomainError(f"zeta requires nu > 1, got {nu}")
    return _zeta_cached(nu)


# ---------------------------------------------------------------------------
# Polylogarithm on the unit circle

# Stieltjes constants gamma_0..gamma_9 (20 digits):
# zeta(1+d) = 1/d + sum_j (-1)^j gamma_j d^j / j!
_STIELTJES = (0.57721566490153286061, -0.072815845483676724861,
              -0.0096903631928723184845, 0.0020538344203033458662,
              0.0023253700654673000575, 0.00079332381730106270175,
              -0.00023876934543019960987, -0.00052728956705775104607,
              -0.00035212335380303950960, -0.000034394774418088048178)
# orders within this distance of a positive integer take the log form
_NEAR_INTEGER = 0.05


def _horner(coef, t):
    """sum_k coef[k] t^k by Horner's rule, elementwise in t.

    Each coefficient costs two in-place operations, acc += c then
    acc *= t, and the constant coef[0] is added last.
    """
    acc = np.zeros(np.shape(t))
    for c in coef[:0:-1]:
        acc += c
        acc *= t
    acc += coef[0]
    return acc


@functools.lru_cache(maxsize=64)
def _series_constants(s):
    """Per-order constants of the zeta series for Li_s(e^{iq}).

    Li_s(e^{iq}) = Gamma(1-s)(-iq)^{s-1} + sum_k zeta(s-k)(iq)^k/k!
    (DLMF 25.12.12, |q| < 2 pi). Returns the series coefficients with
    the signs of i^k folded in, as one read-only (terms, 2) array whose
    row j holds the coefficients of q^{2j} and q^{2j+1}, and the
    singular term as (m, d, w, c): c q^d when m is None, else
    c q^m expm1(d (log q + w))/d, or c q^m (log q + w) at d = 0.

    Near a positive integer n = m + 1 the Gamma pole and zeta(s-m) cancel.
    With s = n + d, both are combined analytically into
        (iq)^m/m! [Z(d) - expm1(d (log(-iq) + G(d)/d)) / d],
    where Z(d) = zeta(1+d) - 1/d comes from the Stieltjes constants and
    G(d) = log Gamma(1-d) - sum_{i<=m} log(1 + d/i) from the series
    log Gamma(1-d) = gamma_E d + sum_{k>=2} zeta(k) d^k/k. At d = 0 the
    bracket is H_m - log(-iq). For 1 < s <= 25 both forms measure within
    1e-13 of mpmath at 30 digits on either side of the switch.

    The series keeps 100 terms. From m = round(s) - 1 = 100 on, the
    singular term and zeta(s-m) q^m/m! are each below pi^100/100!, about
    1e-108, on 0 <= q <= pi, so both are dropped (c = 0).
    """
    k = np.arange(100.0)
    coef = (np.array([_zeta_real(s - j) for j in range(100)])
            / np.array([math.factorial(j) for j in range(100)], dtype=float))
    n = round(s)
    d = s - n
    if n > k.size:
        singular = (None, 0.0, None, 0.0)
    elif n >= 1 and abs(d) <= _NEAR_INTEGER:
        m = n - 1
        coef[m] = sum((-d) ** j * g / math.factorial(j)
                      for j, g in enumerate(_STIELTJES)) / math.factorial(m)
        if d == 0.0:
            g_over_d = EULER_GAMMA - sum(1.0 / i for i in range(1, m + 1))
        else:
            g_over_d = (EULER_GAMMA
                        + sum(_zeta_real(float(j)) * d ** (j - 1) / j
                              for j in range(2, 18))
                        - sum(math.log1p(d / i) / d for i in range(1, m + 1)))
        singular = (m, d, complex(g_over_d, -0.5 * math.pi),
                    -(1j ** m) / math.factorial(m))
    else:
        # Gamma(1-s)(-iq)^{s-1} = Gamma(1-s) e^{-i pi (s-1)/2} q^{s-1}
        singular = (None, s - 1.0, None,
                    math.gamma(1.0 - s) * complex(
                        math.cos(0.5 * math.pi * (s - 1.0)),
                        -math.sin(0.5 * math.pi * (s - 1.0))))
    # |terms| <= |coef_k| pi^k on 0 <= q <= pi; drop those below 1e-18
    terms = np.flatnonzero(np.abs(coef) * math.pi ** k > 1e-18).max() + 1
    coef = coef[:terms] * np.where(k[:terms] % 4 < 2, 1.0, -1.0)
    pairs = np.zeros(((terms + 1) // 2, 2))
    pairs.ravel()[:terms] = coef
    pairs.flags.writeable = False  # every caller gets this array
    return pairs, singular


def _polylog_circle_grid(s, p, part):
    """Re or Im Li_s(e^{ip}) for real s, over a float array p in [0, 2*pi].

    Sums the zeta series of _series_constants on q = min(p, 2 pi - p)
    and conjugates for p > pi. Its even (real) and odd (imaginary)
    parts are two polynomials in q^2; part="real" or "imag" sums that
    part's polynomial by Horner's rule and returns a float array of p's
    shape.
    The series keeps every term that can exceed 1e-18 on 0 <= q <= pi,
    which is 23 to 28 Horner steps for 1 < s <= 4 and at most 32 for
    s >= -2. q = 0 gives zeta(s) for s > 1 and +inf (the divergent sum
    of j^{-s}) otherwise. Its callers check the momenta. Every operation
    is elementwise, so a point gets the same value in any grid.
    """
    p = np.asarray(p, dtype=float)
    odd = {"real": 0, "imag": 1}[part]
    fold = p > math.pi
    q = np.where(fold, _TWO_PI - p, p)
    pairs, (m, d, w, c) = _series_constants(float(s))
    with np.errstate(divide="ignore", invalid="ignore"):
        if m is None:
            singular = c * q ** d
        else:
            log_term = np.log(q) + w
            if d != 0.0:
                log_term = np.expm1(d * log_term) / d
            singular = c * q ** m * log_term
    out = _horner(pairs[:, odd], q * q)
    zero = q == 0.0
    if odd:
        out *= q
        out += singular.imag
        out[zero] = 0.0
        return np.where(fold, -out, out)
    out += singular.real
    out[zero] = zeta(s) if s > 1.0 else math.inf
    return out


def polylog_circle(nu, p):
    """Li_nu(e^{ip}) for nu > 1 and finite p, as a complex number.

    p is reduced to [0, 2*pi); p = 0 gives zeta(nu) exactly. Its real
    and imaginary parts are _polylog_circle_grid's on a grid of one.
    """
    nu = _check_number(nu, "polylog_circle order nu")
    if not nu > 1.0:
        raise DomainError(f"polylog_circle requires nu > 1, got {nu}")
    p = _check_real(p, "polylog_circle momentum p")
    if p < 0.0 or p > _TWO_PI:
        p = p % _TWO_PI
    return complex(_polylog_circle_grid(nu, [p], "real")[0],
                   _polylog_circle_grid(nu, [p], "imag")[0])


# ---------------------------------------------------------------------------
# Barnes-G pair product

def log_barnes_pair(beta):
    """log[G(1+beta)G(1-beta)] for complex beta with |Re beta| < 1/2.

    Uses the product form

        -(1+gamma_E) beta^2 + sum_{n>=1} [ n log(1 - beta^2/n^2) + beta^2/n ]

    with the summand ~ -beta^4/(2n^3); the sum is truncated adaptively and
    the first four tail orders are restored analytically, leaving a
    residual below 1e-13 on the whole strip. The tail's Hurwitz sums
    sum_{n>N} n^{-s} are the Euler-Maclaurin tail of _zeta_real.
    """
    b = _check_number(beta, "log_barnes_pair argument beta", complex)
    if not cmath.isfinite(b):
        raise DomainError(f"log_barnes_pair requires a finite beta, got {b}")
    if abs(b.real) >= 0.5:
        raise DomainError(f"log_barnes_pair requires |Re beta| < 1/2, got {b}")
    z = b * b
    az = abs(z)
    N = 80 + int(20.0 * math.sqrt(az))
    n = np.arange(1, N + 1, dtype=float)
    terms = n * np.log(1.0 - z / n ** 2) + z / n
    total = complex(terms.sum())
    # tail: sum_{n>N} n log(1-z/n^2)+z/n = -sum_{k>=2} z^k/k sum_{n>N} n^{1-2k}
    zk = z * z
    for k in (2, 3, 4, 5):
        total -= zk / k * math.fsum(
            _zeta_tail(2.0 * k - 1.0, N + 1.0, 2.0 * k - 2.0))
        zk = zk * z
    return -(1.0 + EULER_GAMMA) * z + total


# ---------------------------------------------------------------------------
# Fixed-panel Gauss-Legendre rule

# 20- and 10-point rules on [-1, 1]; on each panel the difference of the
# two is the error estimate. The positive nodes and their weights are the
# doubles numpy.polynomial.legendre.leggauss returns; its nodes are odd
# and its weights even bit for bit, so mirroring gives its arrays without
# loading numpy.polynomial or calling LAPACK at import.
def _mirrored(nodes, weights):
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


_X20, _W20 = _mirrored(
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
     0.5108670019508271, 0.636053680726515, 0.7463319064601508,
     0.8391169718222188, 0.912234428251326, 0.9639719272779138,
     0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
     0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
     0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
     0.017614007139150893])
_X10, _W10 = _mirrored(
    [0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
     0.8650633666889845, 0.9739065285171717],
    [0.2955242247147528, 0.2692667193099965, 0.219086362515982,
     0.1494513491505804, 0.06667134430868814])
_X30 = np.concatenate([_X20, _X10])


def _panel_nodes(lo, hi):
    """Half-widths h and (panels, 30) nodes (lo + h) + h x of [lo, hi].

    A node depends only on its panel's two edges, so a panel shared by
    several edge sets gets the same nodes in each.
    """
    half = 0.5 * (hi - lo)
    return half, (lo + half)[:, None] + half[:, None] * _X30


def _panel_rules(g, half):
    """Per-panel 20-point integrals and |Q20 - Q10| of node values g.

    g has shape (..., panels, 30), the values at _panel_nodes. Sums are
    elementwise products and .sum, so no BLAS call decides the
    rounding; callers sum the panels and gate the error themselves.
    """
    q20 = (g[..., :20] * _W20).sum(axis=-1) * half
    q10 = (g[..., 20:] * _W10).sum(axis=-1) * half
    return q20, np.abs(q20 - q10)


# ---------------------------------------------------------------------------
# Renyi order and the entropy kernel

def _check_alpha(alpha):
    """A Renyi order as a float: alpha > 0, inf included, NaN refused."""
    alpha = _check_number(alpha, "Renyi order")
    if math.isnan(alpha) or alpha <= 0.0:
        raise DomainError(f"Renyi order must be positive, got {alpha}")
    return alpha


def entropy_kernel(alpha, x):
    """s_alpha(x) for x = 2*lambda - 1 in [-1, 1], over an array x.

    s_alpha(x) = (1-alpha)^{-1} log[ ((1+x)/2)^alpha + ((1-x)/2)^alpha ],
    with the Shannon limit -sum q log q at alpha = 1 (convention
    0 log 0 = 0) and -log max(q) at alpha = inf. For 0 < |u| < 1/2,
    u = alpha - 1, it is -log1p(sum_q q expm1(u log q))/u, which uses
    sum q = 1 and so loses nothing to the 1/u. x is read as reals, a
    scalar as a grid of one that gives a float; points within 1e-9
    outside [-1, 1] are rounding and are clipped, any other raises.
    """
    s = _entropy_kernel(_check_alpha(alpha),
                        _check_reals(x, "entropy_kernel argument"))
    return float(s[0]) if np.ndim(x) == 0 else s


def _entropy_kernel(alpha, x):
    # entropy_kernel's core, on a checked order and a float array x
    ax = np.abs(x)
    inside = ax <= 1.0 + 1e-9
    if not inside.all():
        raise DomainError(
            f"entropy_kernel argument {x[~inside][0]} outside [-1, 1]")
    ax = np.minimum(ax, 1.0)
    qmax = 0.5 * (1.0 + ax)
    qmin = 0.5 * (1.0 - ax)
    u = alpha - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if math.isinf(alpha):
            s = -np.log(qmax)
        elif u == 0.0:
            s = -(qmax * np.log(qmax)
                  + np.where(qmin > 0.0, qmin * np.log(qmin), 0.0))
        elif abs(u) < 0.5:
            s = np.where(qmin > 0.0, -np.log1p(
                qmax * np.expm1(u * np.log(qmax))
                + qmin * np.expm1(u * np.log(qmin))) / u, 0.0)
        else:
            ratio = alpha * (np.log(qmin) - np.log(qmax))
            s = np.where(qmin > 0.0, (alpha * np.log(qmax) + np.log1p(
                np.exp(ratio))) / (1.0 - alpha), 0.0)
    return s
