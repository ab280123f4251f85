"""Block Renyi entropies: exact from the correlation spectrum, and the
large-L asymptotic form with its universal additive constant.

The exact entropy is a plain sum of the binary kernel over correlation
eigenvalues.  The asymptotic side needs two model-independent numbers,
the prefactor i1(alpha) = (1+alpha)/(6 alpha) and the constant
c_tilde(alpha), plus one model-dependent factor built from the Fermi
points.  c_tilde is computed two independent ways (a hyperbolic-kernel
integral and a digamma-weighted integral) so each can vouch for the
other.
"""

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import DomainError, QuadratureError
from .specfun import digamma_real_part, entropy_kernel
from .spectral import _check_block_length, correlation_spectrum


@dataclass(frozen=True)
class EntropyReport:
    alpha: float
    L: int
    s_exact: float
    s_asymptotic: float
    c_alpha: float
    c_tilde: float
    f_factor: float
    r_L: float


def _check_alpha(alpha):
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 0.0:
        raise DomainError(f"Renyi order must be positive, got {alpha}")
    return alpha


def renyi_exact(spectrum, alpha):
    """S_alpha of the block: sum of the entropy kernel over 2 lambda - 1."""
    alpha = _check_alpha(alpha)
    return float(sum(entropy_kernel(alpha, 2.0 * lam - 1.0)
                     for lam in spectrum.eigenvalues))


def _check_roots(roots):
    """Fermi points as floats, strictly increasing inside (0, pi)."""
    ps = [float(p) for p in roots]
    if not ps:
        raise DomainError("need at least one Fermi point")
    for p in ps:
        if not 0.0 < p < math.pi:
            raise DomainError(f"Fermi point {p} outside (0, pi)")
    for a, b in zip(ps, ps[1:]):
        if b <= a:
            raise DomainError(
                "Fermi points must be strictly increasing; coincident "
                "points make the cross factor singular")
    return ps


def f_factor(roots):
    """Model-dependent scale in the asymptotic entropy.

    For Fermi points 0 < p_0 < ... < p_m < pi:
    prod_i 2 sin p_i * prod_{j<i} [sin^2((p_i+p_j)/2) /
    sin^2((p_i-p_j)/2)]^{(-1)^{i+j}}.
    """
    ps = _check_roots(roots)
    val = 1.0
    for p in ps:
        val *= 2.0 * math.sin(p)
    for i in range(len(ps)):
        for j in range(i):
            ratio = (math.sin((ps[i] + ps[j]) / 2.0) ** 2
                     / math.sin((ps[i] - ps[j]) / 2.0) ** 2)
            val *= ratio if (i + j) % 2 == 0 else 1.0 / ratio
    return val


def i1(alpha):
    """Slope prefactor (1+alpha)/(6 alpha); 1/6 in the alpha->inf limit."""
    alpha = _check_alpha(alpha)
    if alpha == math.inf:
        return 1.0 / 6.0
    return (1.0 + alpha) / (6.0 * alpha)


# ---------------------------------------------------------------------------
# the universal constant, hyperbolic-kernel form
#
# The raw integrand alpha csch^2(t) - csch(t) csch(t/alpha) loses ~1/t^2
# digits at small t, so it is assembled from the remainder functions
# R1 = csch x - 1/x, R2 = csch^2 x - 1/x^2, Rc = coth x - 1/x whose
# divergent parts cancel symbolically.  Series below |x| = 0.1, direct
# hyperbolics above.

def _r1(x):
    if abs(x) <= 0.1:
        x2 = x * x
        return x * (-1.0 / 6.0 + x2 * (7.0 / 360.0 + x2 * (
            -31.0 / 15120.0 + x2 * (127.0 / 604800.0 + x2 * (
                -511.0 / 23950080.0 + x2 * (1414477.0 / 653837184000.0))))))
    if x > 350.0:
        # sinh overflows near 710; csch is below 1e-152 here anyway
        return 2.0 * math.exp(-x) - 1.0 / x
    return 1.0 / math.sinh(x) - 1.0 / x


def _r2(x):
    if abs(x) <= 0.1:
        x2 = x * x
        return -1.0 / 3.0 + x2 * (1.0 / 15.0 + x2 * (
            -2.0 / 189.0 + x2 * (1.0 / 675.0 + x2 * (
                -2.0 / 10395.0 + x2 * (1382.0 / 58046625.0)))))
    if x > 350.0:
        return 4.0 * math.exp(-2.0 * x) - 1.0 / (x * x)
    s = math.sinh(x)
    return 1.0 / (s * s) - 1.0 / (x * x)


def _rc(x):
    if abs(x) <= 0.1:
        x2 = x * x
        return x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (
            2.0 / 945.0 + x2 * (-1.0 / 4725.0 + x2 * (2.0 / 93555.0)))))
    return 1.0 / math.tanh(x) - 1.0 / x


def _t_star(alpha):
    # truncate once the integrand bound alpha e^{-2 min(1,1/alpha) t}/t
    # drops below 1e-14
    rate = 2.0 * min(1.0, 1.0 / alpha)
    t = 10.0
    while alpha * math.exp(-rate * t) / t >= 1e-14:
        t += 5.0
    return t


def _quad_checked(integrand, upper, scale, what):
    val, err = quad(integrand, 0.0, upper,
                    epsabs=1e-13, epsrel=1e-12, limit=300)
    if err * scale > 1e-9:
        raise QuadratureError(
            f"{what} integral did not converge", achieved=err * scale,
            target=1e-9)
    return val


def _c_tilde_one():
    def integrand(t):
        if t < 1e-7:
            return 2.0 / 3.0
        rc = _rc(t)
        return ((rc - t / 3.0) / (t * t) + _r2(t) * rc
                - math.expm1(-2.0 * t) / (3.0 * t))
    return _quad_checked(integrand, _t_star(1.0), 1.0, "c_tilde(1)")


def _c_tilde_infinity():
    def integrand(t):
        if t < 1e-7:
            return 1.0 / 3.0
        return ((_r1(t) / t - _r2(t) - 1.0 / 6.0) / t
                - math.expm1(-2.0 * t) / (6.0 * t))
    # tail here decays like 2 e^{-t}/t^2 (single csch power survives the
    # limit), slower than the generic 2 min(1, 1/alpha) rate
    t = 10.0
    while 2.0 * math.exp(-t) / (t * t) >= 1e-16:
        t += 5.0
    return _quad_checked(integrand, t, 1.0, "c_tilde(inf)")


def c_tilde(alpha):
    """Universal additive entropy constant.

    Generic alpha uses the hyperbolic-kernel integral over (0, inf);
    alpha within 1e-6 of 1, and alpha = inf, get dedicated integrands
    because the (1-alpha)^{-1} prefactor is ill-conditioned at 1.
    """
    alpha = _check_alpha(alpha)
    if alpha == math.inf:
        return _c_tilde_infinity()
    if abs(alpha - 1.0) < 1e-6:
        return _c_tilde_one()
    K = (1.0 - alpha * alpha) / (6.0 * alpha)

    def integrand(t):
        if t < 1e-7:
            return 2.0 * K
        bracket = (alpha * _r2(t) - _r1(t / alpha) / t - alpha * _r1(t) / t
                   - _r1(t) * _r1(t / alpha) - K)
        return (bracket - K * math.expm1(-2.0 * t)) / t

    scale = abs(1.0 / (1.0 - alpha))
    val = _quad_checked(integrand, _t_star(alpha), scale,
                        f"c_tilde({alpha})")
    return val / (1.0 - alpha)


# ---------------------------------------------------------------------------
# the same constant, digamma form (independent cross-check)

def _s_alpha_exponential(alpha, w):
    # entropy kernel at x = tanh(pi w) without forming tanh: the
    # eigenvalue weights become log1p of exponentially small arguments
    q = 2.0 * math.pi * w
    if alpha == math.inf:
        return math.log1p(math.exp(-q))
    if abs(alpha - 1.0) < 1e-6:
        e = math.exp(-q)
        return math.log1p(e) + q * e / (1.0 + e)
    return (math.log1p(math.exp(-alpha * q))
            - alpha * math.log1p(math.exp(-q))) / (1.0 - alpha)


def c_tilde_oracle(alpha):
    """c_tilde via the digamma-weighted eigenvalue-density integral."""
    alpha = _check_alpha(alpha)
    rate = 2.0 * math.pi * min(1.0, alpha)
    w_hi = 40.0 / rate + 2.0

    def integrand(w):
        return _s_alpha_exponential(alpha, w) * digamma_real_part(w)

    val, err = quad(integrand, 0.0, w_hi,
                    epsabs=1e-12, epsrel=1e-11, limit=300)
    if err * 4.0 / math.pi > 1e-9:
        raise QuadratureError(
            f"digamma-form c_tilde({alpha}) integral did not converge",
            achieved=err * 4.0 / math.pi, target=1e-9)
    return -(4.0 / math.pi) * val


# ---------------------------------------------------------------------------
# the asymptotic entropy

def renyi_asymptotic(analysis, L, alpha, spectrum=None):
    """Asymptotic block entropy and its error against the exact value.

    S_app = (m+1) i1(alpha) log(L f^{1/(m+1)}) + (m+1) c_tilde(alpha)
    for a sea with m+1 simple Fermi points.  The exact entropy comes
    from an eigendecomposition of the L x L correlation matrix; pass a
    precomputed spectrum to amortize it across alpha values.
    """
    L = _check_block_length(L)
    alpha = _check_alpha(alpha)
    if analysis.phase != "critical":
        raise DomainError(
            "asymptotic entropy needs a sea bounded by simple Fermi "
            f"points; phase is {analysis.phase!r}")
    roots = [p for p, _ in analysis.roots]
    nsea = len(roots)
    f = f_factor(roots)
    ct = c_tilde(alpha)
    pref = i1(alpha)
    s_app = nsea * pref * math.log(L * f ** (1.0 / nsea)) + nsea * ct
    c_alpha = pref * math.log(f) + nsea * ct
    if spectrum is None:
        spectrum = correlation_spectrum(analysis, L)
    elif spectrum.L != L:
        raise DomainError(
            f"spectrum is for block length {spectrum.L}, requested {L}")
    s_exact = renyi_exact(spectrum, alpha)
    return EntropyReport(alpha=alpha, L=L, s_exact=s_exact,
                         s_asymptotic=s_app, c_alpha=c_alpha, c_tilde=ct,
                         f_factor=f, r_L=s_app / s_exact - 1.0)
