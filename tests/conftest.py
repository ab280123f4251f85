import math

import numpy as np
import pytest

from fermichain.errors import DomainError, QuadratureError
from fermichain.specfun import _check_alpha


def _log_det_char(spectrum, lam):
    """log det(lam + 1 - 2 A_L) from the spectrum's eigenvalues, principal
    branch factor by factor: the eigenvalue-side reference for the
    determinant checks."""
    factors = complex(lam) + 1.0 - 2.0 * spectrum.eigenvalues
    return complex(np.sum(np.log(factors)))


@pytest.fixture
def log_det_char():
    return _log_det_char


def _s2_levinson(row):
    """S_2(L) for every L <= len(row) of the block with this correlation
    row, with no eigensolver.

    With x = 2 lambda - 1, lambda^2 + (1 - lambda)^2 = (1 + x^2) / 2, so
    S_2(L) = L log 2 - 2 Re log det(i + 1 - 2 A_L). One Levinson-Durbin
    pass on the Toeplitz row of i + 1 - 2A (Golub & Van Loan, Alg.
    4.7.1, which needs symmetry, not Hermiticity) gives the determinant
    of every leading block as c_0^L times the product of its prediction
    errors beta. Returns S_2(L) at index L - 1.
    """
    c = -2.0 * np.asarray(row, dtype=complex)
    c[0] += 1.0 + 1.0j
    r = c[1:] / c[0]
    n = c.size
    log_beta = np.zeros(n)    # log|det T_L / det T_{L-1}| at index L - 1
    y = np.empty(n - 1, dtype=complex)  # y[:k] solves T_k y = -r[:k]
    beta = 1.0 + 0j
    for k in range(1, n):
        head = y[:k - 1]
        alpha = -(r[k - 1] + (r[:k - 1][::-1] * head).sum()) / beta
        head += alpha * head[::-1]
        y[k - 1] = alpha
        beta *= 1.0 - alpha * alpha
        log_beta[k] = math.log(abs(beta))
    L = np.arange(1, n + 1)
    log_det = L * math.log(abs(c[0])) + np.cumsum(log_beta)
    return L * math.log(2.0) - 2.0 * log_det


@pytest.fixture
def s2_levinson():
    return _s2_levinson


def _digamma_real_part(w):
    """Re psi(1/2 + i w) for finite real w, from scipy.special.psi."""
    from scipy import special
    w = float(w)
    if not math.isfinite(w):
        raise DomainError("digamma_real_part requires finite w")
    return float(special.psi(complex(0.5, w)).real)


@pytest.fixture
def digamma_real_part():
    return _digamma_real_part


def _s_alpha_exponential(alpha, w):
    # entropy kernel at x = tanh(pi w) without forming tanh: the
    # eigenvalue weights become log1p of exponentially small arguments
    q = 2.0 * math.pi * w
    e = math.exp(-q)
    if alpha == math.inf:
        return math.log1p(e)
    if alpha == 1.0:
        return math.log1p(e) + q * e / (1.0 + e)
    if abs(alpha - 1.0) < 0.5:
        # log1p(e) + log[(1 + e^{-alpha q})/(1 + e)]/(1 - alpha), the
        # ratio written as 1 + sigma expm1((1 - alpha) q)
        sigma = e / (1.0 + e)
        return (math.log1p(e)
                - math.log1p(sigma * math.expm1((1.0 - alpha) * q))
                / (alpha - 1.0))
    return (math.log1p(math.exp(-alpha * q))
            - alpha * math.log1p(e)) / (1.0 - alpha)


def _c_tilde_oracle(alpha):
    """c_tilde via the digamma-weighted eigenvalue-density integral."""
    from scipy.integrate import quad
    alpha = _check_alpha(alpha)
    rate = 2.0 * math.pi * min(1.0, alpha)
    w_hi = 40.0 / rate + 2.0

    def integrand(w):
        return _s_alpha_exponential(alpha, w) * _digamma_real_part(w)

    # the kernel's knee sits at w ~ 1/(2 pi alpha), which quad alone
    # misses once alpha is large
    knees = [k / (2.0 * math.pi * alpha) for k in (1.0, 10.0, 100.0)]
    val, err = quad(integrand, 0.0, w_hi,
                    points=[w for w in knees if 0.0 < w < w_hi],
                    epsabs=1e-12, epsrel=1e-11, limit=300)
    if err * 4.0 / math.pi > 1e-9:
        raise QuadratureError(
            f"digamma-form c_tilde({alpha}) integral did not converge",
            achieved=err * 4.0 / math.pi, target=1e-9)
    return -(4.0 / math.pi) * val


@pytest.fixture
def c_tilde_oracle():
    return _c_tilde_oracle


def _calabrese_essler(alpha, L, p):
    """d_alpha(L): the leading oscillating correction to the Renyi entropy
    of a block of L sites in a one-arc sea with Fermi point p, alpha > 1
    and finite (Calabrese & Essler, J. Stat. Mech. (2010) P08029):

        2 cos(2 p L) / (1 - alpha) (2 L sin p)^(-2/alpha)
            [Gamma((1 + 1/alpha)/2) / Gamma((1 - 1/alpha)/2)]^2
    """
    ratio = (math.gamma((1.0 + 1.0 / alpha) / 2.0)
             / math.gamma((1.0 - 1.0 / alpha) / 2.0))
    return (2.0 * math.cos(2.0 * p * L) / (1.0 - alpha)
            * (2.0 * L * math.sin(p)) ** (-2.0 / alpha) * ratio * ratio)


@pytest.fixture
def calabrese_essler():
    return _calabrese_essler



# the golden finite-range seas that miss p = 0, one per topology of
# sea_half: couplings, mu, and what the sea is
AWAY_SEAS = [
    ((-1.0,), -1.0, "(pi/3, pi], c = 1"),
    ((-0.5, -1.0), -4.0, "about (1.17, 2.27), c = 2"),
    ((-1.0, 0.5, -1.0), -3.25, "(0.86, 1.23) and (2.39, pi], c = 3"),
]
