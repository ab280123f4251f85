"""Block Renyi entropies: exact from the correlation spectrum, and the
large-L asymptotic form with its universal additive constant.

The exact entropy is the binary kernel over all correlation eigenvalues,
evaluated in one vector pass and summed elementwise.  The asymptotic
side needs two model-independent numbers, the prefactor
i1(alpha) = (1+alpha)/(6 alpha) and the constant c_tilde(alpha), plus
one model-dependent factor built from the Fermi points.  c_tilde is a
hyperbolic-kernel integral, one integrand for every alpha, on the
fixed-panel Gauss-Legendre rule of specfun._panel_nodes and
_panel_rules that free_energy uses too.  It does not depend on L or on
the sea, so it is computed once per order per process: an lru_cache of
at most 64 orders, keyed by the validated float.  Its independent
cross-check, a digamma-weighted integral on adaptive quad, is test code
and lives in tests/conftest.py.  An EntropyReport carries the two
entropies and derives their relative gap r_L.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError, _check_roots
from .specfun import (_check_alpha, _entropy_kernel, _horner, _panel_nodes,
                      _panel_rules, zeta)


@dataclass(frozen=True)
class EntropyReport:
    """The exact and asymptotic entropies of a block, and their relative
    gap r_L = s_asymptotic / s_exact - 1, derived when the report is
    built, by hand or with dataclasses.replace, and not passed."""

    s_exact: float
    s_asymptotic: float
    r_L: float = field(init=False)

    def __post_init__(self):
        # frozen, so the derived value goes into the instance dict
        vars(self).update(r_L=self.s_asymptotic / self.s_exact - 1.0)


def renyi_exact(spectrum, alpha):
    """S_alpha of the block: the entropy kernel over 2 lambda - 1, in one
    vector pass and one elementwise sum."""
    x = 2.0 * spectrum.eigenvalues - 1.0
    return float(_entropy_kernel(_check_alpha(alpha), x).sum())


def f_factor(roots):
    """Model-dependent scale in the asymptotic entropy.

    For Fermi points 0 < p_0 < ... < p_m < pi (one may be a number):
    prod_i 2 sin p_i * prod_{j<i} [sin^2((p_i+p_j)/2) /
    sin^2((p_i-p_j)/2)]^{(-1)^{i+j}}.
    """
    return _f_factor(_check_roots(roots))


def _f_factor(ps):
    # f_factor's core, on Fermi points that _check_roots would pass
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

# csch x - 1/x = sum_k _CSCH_SERIES[k] x^{2k+1}, with coefficients
# (-1)^{k+1} (2 - 4^{-k}) zeta(2k+2) / pi^{2k+2} from specfun.zeta (a
# Bernoulli-number form measured 1.7e-12 off at k = 1); 13 terms reach
# 1e-18 at x <= 1/2. Read-only.
_K = np.arange(13)
_CSCH_SERIES = ((-1.0) ** (_K + 1) * (2.0 - 4.0 ** -_K)
                * np.array([zeta(2.0 * k + 2.0) for k in _K])
                / math.pi ** (2 * _K + 2))
_CSCH_SERIES.flags.writeable = False


def _xcsch(x):
    # x csch x = 2 x e^{-x} / (1 - e^{-2x}), taken as 1 at x = 0
    return np.divide(2.0 * x * np.exp(-x), -np.expm1(-2.0 * x),
                     out=np.ones_like(x), where=x > 0.0)


def c_tilde(alpha):
    """Universal additive entropy constant.

    c_tilde = int_0^inf [csch t N(t) - (1 + 1/alpha) e^{-2t}/6] dt/t with
    N = (alpha csch t - csch(t/alpha))/(1 - alpha), one fixed
    Gauss-Legendre pass for every alpha > 0, 1 and inf included. N is
    summed as a power series in t/min(1, alpha) up to t = min(1, alpha)/2,
    taken as the plain quotient when |alpha - 1| > 1/2, and otherwise
    as csch t [cosh((t+y)/2) shc((y-t)/2) y csch y - 1] with
    y = t/alpha and shc x = sinh(x)/x, which has no cancellation at 1.
    Panels halve from t = 40 toward 0 down to min(1, alpha)/8; the summed
    per-panel |Q20 - Q10| is gated at 1e-9.

    Every call validates alpha; the integral runs once per order per
    process, in _c_tilde_integral.
    """
    return _c_tilde_integral(_check_alpha(alpha))


# keyed by the validated float, so 2, np.int64(2) and 2.0 share an entry;
# bounded, as the orders a run uses are few. A failed integral raises and
# is not stored.
@functools.lru_cache(maxsize=64)
def _c_tilde_integral(alpha):
    m = min(1.0, alpha)
    # sum_{j <= 2k+1} alpha^{-j} t^{2k+1} = s^{2k+1} sum_j m^{2k+1-j}
    # (m/alpha)^j with s = t/m: no factor exceeds 1, so none overflows
    odd = 2 * _K[:, None] + 1
    j = np.arange(26)
    coef = _CSCH_SERIES * np.where(
        j <= odd, m ** np.maximum(odd - j, 0) * (m / alpha) ** j,
        0.0).sum(axis=1)

    edges = np.concatenate([[0.0], 40.0 * 2.0 ** -np.arange(
        math.ceil(math.log2(320.0) - math.log2(m)), -1.0, -1.0)])
    half, t = _panel_nodes(edges[:-1], edges[1:])
    # below alpha ~ 1e-154 the integrand, of order 1/(alpha t), overflows;
    # any inf or nan it leaves in a panel sum fails the gate below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        small = t <= 0.5 * m
        N = np.empty_like(t)
        s = t[small] / m
        N[small] = -s * _horner(coef, s * s)
        u = t[~small]
        y = u / alpha
        if abs(alpha - 1.0) > 0.5:
            N[~small] = (_xcsch(u) - _xcsch(y)) / (u * (1.0 / alpha - 1.0))
        else:
            x = 0.5 * (y - u)
            shc = np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0.0)
            N[~small] = _xcsch(u) / u * (
                np.cosh(0.5 * (u + y)) * shc * _xcsch(y) - 1.0)
        q20, dq = _panel_rules((_xcsch(t) / t * N - (1.0 + 1.0 / alpha)
                                * np.exp(-2.0 * t) / 6.0) / t, half)
        val, err = q20.sum(), dq.sum()
    if not err <= 1e-9:
        raise QuadratureError(f"c_tilde({alpha}) integral did not converge",
                              achieved=float(err), target=1e-9)
    return float(val)


# ---------------------------------------------------------------------------
# the asymptotic entropy

def renyi_asymptotic(spectrum, alpha):
    """Asymptotic block entropy and its error against the exact value.

    S_app = (m+1) i1(alpha) log(L f^{1/(m+1)}) + (m+1) c_tilde(alpha)
    for a sea with m+1 simple Fermi points.  L and the Fermi points are
    the spectrum's own, which CorrelationSpectrum checked when it was
    built; the exact side is renyi_exact(spectrum, alpha).
    """
    alpha = _check_alpha(alpha)
    if spectrum.fermi_momenta is None:
        raise DomainError(
            "asymptotic entropy needs the Fermi points of a critical sea; "
            "this spectrum carries none")
    nsea = len(spectrum.fermi_momenta)
    f = _f_factor(spectrum.fermi_momenta)
    s_app = (nsea * i1(alpha) * math.log(spectrum.L * f ** (1.0 / nsea))
             + nsea * c_tilde(alpha))
    s_exact = renyi_exact(spectrum, alpha)
    return EntropyReport(s_exact=s_exact, s_asymptotic=s_app)
