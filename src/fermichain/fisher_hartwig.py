"""Jump-symbol asymptotics of the characteristic determinant
det(lam + 1 - 2 A_L).

The symbol of this Toeplitz matrix is piecewise constant on the unit
circle with jumps at the Fermi points +-p_i, so its determinant
asymptotics are governed by a pure jump exponent beta and a constant b.
Branch convention throughout: log z = log|z| + i arg z with
arg in (-pi, pi], and z^a = e^{a log z}.
"""

import cmath
import math
from dataclasses import dataclass

from .entanglement import _check_roots, f_factor
from .errors import DomainError
from .specfun import log_barnes_pair
from .spectral import _check_block_length, correlation_spectrum, log_det_char

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FHSymbol:
    lam: complex
    beta: complex
    beta_j: tuple
    b: complex
    P: float
    jump_angles: tuple


def _check_off_cut(lam):
    lam = complex(lam)
    if -1.0 <= lam.real <= 1.0:
        dist = abs(lam.imag)
    else:
        dist = min(abs(lam - 1.0), abs(lam + 1.0))
    if dist <= 1e-9:
        raise DomainError(
            f"lambda={lam} is within 1e-9 of the eigenvalue support [-1, 1]")
    return lam


def symbol_params(roots, lam):
    """Jump parameters of the symbol of lam + 1 - 2 A_L.

    beta = (2 pi i)^{-1} log[(lam+1)/(lam-1)], the same at every jump up
    to the alternating sign beta_j = (-1)^j beta; P collects the jump
    positions, and b = (lam+1) [(lam+1)/(lam-1)]^{-P} is the constant
    part of the symbol.
    """
    ps = _check_roots(roots)
    lam = _check_off_cut(lam)
    log_ratio = cmath.log((lam + 1.0) / (lam - 1.0))
    beta = log_ratio / (2.0j * math.pi)
    m = len(ps) - 1
    P = sum((-1.0) ** k * p for k, p in enumerate(ps)) / math.pi + (m % 2)
    b = (lam + 1.0) * cmath.exp(-P * log_ratio)
    beta_j = tuple(beta if j % 2 == 0 else -beta
                   for j in range(2 * (m + 1)))
    angles = tuple(sorted([-p for p in ps] + ps))
    return FHSymbol(lam=lam, beta=beta, beta_j=beta_j, b=b, P=P,
                    jump_angles=angles)


def log_dl_asymptotic(symbol, L):
    """Asymptotic log det(lam + 1 - 2 A_L) for large L:

    -2 beta^2 log(L^{m+1} f) + L log(lam+1)
    - L P log[(lam+1)/(lam-1)] + 2(m+1) log[G(1+beta) G(1-beta)].
    """
    L = _check_block_length(L, minimum=2)
    roots = [p for p in symbol.jump_angles if p > 0.0]
    nsea = len(roots)
    lam = symbol.lam
    beta = symbol.beta
    log_ratio = cmath.log((lam + 1.0) / (lam - 1.0))
    out = -2.0 * beta * beta * (nsea * math.log(L) + math.log(f_factor(roots)))
    out += L * cmath.log(lam + 1.0)
    out -= L * symbol.P * log_ratio
    out += 2.0 * nsea * log_barnes_pair(beta)
    return out


def fh_deviation(analysis, lam, L_list):
    """|log D_L exact - asymptotic| for each L, exact side from the
    eigenvalues of the correlation matrix."""
    if analysis.phase != "critical":
        raise DomainError(
            "determinant asymptotics need a sea bounded by simple Fermi "
            f"points; phase is {analysis.phase!r}")
    roots = [p for p, _ in analysis.roots]
    symbol = symbol_params(roots, lam)
    sizes = [_check_block_length(L, minimum=2) for L in L_list]
    out = []
    for L in sizes:
        exact = log_det_char(correlation_spectrum(analysis, L), symbol.lam)
        out.append((L, abs(exact - log_dl_asymptotic(symbol, L))))
    return out
