"""Jump-symbol asymptotics of the characteristic determinant
det(lam + 1 - 2 A_L).

The symbol of this Toeplitz matrix is piecewise constant on the unit
circle with jumps at the Fermi points +-p_i, so its determinant
asymptotics are governed by a pure jump exponent beta and the symbol's
constant part.
Branch convention throughout: log z = log|z| + i arg z with
arg in (-pi, pi], and z^a = e^{a log z}.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import _f_factor
from .errors import (DomainError, _check_count, _check_number, _check_reals,
                     _check_roots)
from .specfun import log_barnes_pair
from .spectral import _critical_momenta, correlation_spectrum


@dataclass(frozen=True)
class FHSymbol:
    """Jump parameters of the symbol of lam + 1 - 2 A_L.

    Built from lam and the jump angles alone. The angles are the
    positive Fermi points alone, or the +-p set that mirrors them
    exactly; each is read as f_factor reads Fermi points, and any other
    set is refused, not rewritten. They are checked before lam, which
    must lie off the cut [-1, 1] and is stored as a complex, and the
    +-p tuple is stored. beta = (2 pi i)^{-1} log[(lam+1)/(lam-1)], the
    same at every jump up to an alternating sign; P collects the jump
    positions, so the symbol's constant part
    (lam+1) [(lam+1)/(lam-1)]^{-P} enters log_dl_asymptotic through lam
    and P alone. beta and P are derived, not passed, so
    dataclasses.replace of lam or the angles recomputes them.
    """

    lam: complex
    jump_angles: tuple
    beta: complex = field(init=False)
    P: float = field(init=False)

    def __post_init__(self):
        angles = _check_reals(self.jump_angles, "Fermi point")
        # a set symmetric about 0 is read by its upper half, any other whole
        mirrored = np.array_equal(angles, -angles[::-1])
        ps = _check_roots(angles[angles.size // 2:] if mirrored else angles)
        lam = _check_off_cut(self.lam)
        # frozen, so the checked and derived values go into the instance
        # dict; with m + 1 Fermi points, P ends in m mod 2
        vars(self).update(
            lam=lam, jump_angles=tuple(sorted([-p for p in ps] + ps)),
            beta=cmath.log((lam + 1.0) / (lam - 1.0)) / (2.0j * math.pi),
            P=sum((-1.0) ** k * p for k, p in enumerate(ps)) / math.pi
            + (len(ps) - 1) % 2)


def _check_off_cut(lam):
    lam = _check_number(lam, "lambda", complex)
    if not cmath.isfinite(lam):
        raise DomainError(f"lambda={lam} is not finite")
    if -1.0 <= lam.real <= 1.0:
        dist = abs(lam.imag)
    else:
        dist = min(abs(lam - 1.0), abs(lam + 1.0))
    if dist <= 1e-9:
        raise DomainError(
            f"lambda={lam} is within 1e-9 of the eigenvalue support [-1, 1]")
    return lam


def symbol_params(roots, lam):
    """The FHSymbol of lam + 1 - 2 A_L for a sea with Fermi points roots,
    as f_factor takes them, or their +-p set; FHSymbol checks the roots,
    once and before lam."""
    return FHSymbol(lam=lam, jump_angles=roots)


def log_dl_asymptotic(symbol, L):
    """Asymptotic log det(lam + 1 - 2 A_L) for large L:

    -2 beta^2 log(L^{m+1} f) + L log(lam+1)
    - L P log[(lam+1)/(lam-1)] + 2(m+1) log[G(1+beta) G(1-beta)].

    The positive jump angles are the Fermi points, which FHSymbol checked
    when it was built.
    """
    L = _check_count(L, "block length", minimum=2)
    roots = [p for p in symbol.jump_angles if p > 0.0]
    nsea = len(roots)
    lam = symbol.lam
    beta = symbol.beta
    log_ratio = cmath.log((lam + 1.0) / (lam - 1.0))
    out = -2.0 * beta * beta * (nsea * math.log(L)
                                + math.log(_f_factor(roots)))
    out += L * cmath.log(lam + 1.0)
    out -= L * symbol.P * log_ratio
    out += 2.0 * nsea * log_barnes_pair(beta)
    return out


def fh_deviation(analysis, lam, L_list):
    """|log D_L exact - asymptotic| for each L, exact side from the
    eigenvalues a_k of the correlation matrix: the sum of the principal
    logs of the factors lam + 1 - 2 a_k."""
    # the phase gate runs first: a gapped sea has no Fermi points at all
    symbol = symbol_params(
        _critical_momenta(analysis, "determinant asymptotics need"), lam)
    if np.ndim(L_list) != 1 or not np.size(L_list):
        raise DomainError("block lengths must form a non-empty 1-D sequence, "
                          f"got {L_list!r}")
    sizes = [_check_count(L, "block length", minimum=2) for L in L_list]
    out = []
    for L in sizes:
        eig = correlation_spectrum(analysis, L).eigenvalues
        # no factor vanishes: lam is more than 1e-9 from [-1, 1] and the
        # range gate keeps 2 a_k - 1 within 2e-10 of it
        exact = complex(np.sum(np.log(symbol.lam + 1.0 - 2.0 * eig)))
        out.append((L, abs(exact - log_dl_asymptotic(symbol, L))))
    return out
