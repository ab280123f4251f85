"""Jump-symbol asymptotics of the characteristic determinant
det(lam + 1 - 2 A_L).

The symbol of this Toeplitz matrix is lam - 1 on the Fermi sea and
lam + 1 off it: piecewise constant on the unit circle, with jumps at
the Fermi points +-p_i (for finite-range chains, Its, Mezzadri & Mo,
Commun. Math. Phys. 284 (2008) 117). Its determinant asymptotics are
governed by a pure jump exponent beta and the symbol's constant part,
which depends on the measure of the sea and not only on where it ends,
so the symbol is built from the sea itself.
Branch convention throughout: log z = log|z| + i arg z with
arg in (-pi, pi], and z^a = e^{a log z}.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import _f_factor
from .errors import (DomainError, _check_count, _check_number, _check_roots,
                     _fermi_edges)
from .specfun import log_barnes_pair
from .spectral import _critical_momenta, _filling, correlation_spectrum


@dataclass(frozen=True)
class FHSymbol:
    """Jump parameters of the symbol of lam + 1 - 2 A_L.

    Built from lam and sea_half, the filled intervals of [0, pi] as a
    critical FermiAnalysis holds them. The sea is checked first: its
    edges inside (0, pi), read by errors._fermi_edges, are its Fermi
    points, checked as f_factor checks Fermi points, and sea_half is
    stored as a tuple of float pairs. Then lam, which must lie off the
    cut [-1, 1], is stored as a complex. The rest is derived, not
    passed, so dataclasses.replace of lam or the sea recomputes it:
    jump_angles, the Fermi points and their mirror images -p;
    beta = (2 pi i)^{-1} log[(lam+1)/(lam-1)], the same at every jump
    up to an alternating sign; and P, the sea's measure over pi, which
    correlation_row puts on A_L's diagonal. The symbol's constant part
    (lam+1) [(lam+1)/(lam-1)]^{-P} enters log_dl_asymptotic through lam
    and P alone.
    """

    lam: complex
    sea_half: tuple
    jump_angles: tuple = field(init=False)
    beta: complex = field(init=False)
    P: float = field(init=False)

    def __post_init__(self):
        ps = _check_roots(_fermi_edges(self.sea_half))
        sea_half = tuple((float(a), float(b)) for a, b in self.sea_half)
        lam = _check_off_cut(self.lam)
        # frozen, so the checked and derived values go into the instance dict
        vars(self).update(
            lam=lam, sea_half=sea_half,
            jump_angles=tuple(sorted([-p for p in ps] + ps)),
            beta=cmath.log((lam + 1.0) / (lam - 1.0)) / (2.0j * math.pi),
            P=_filling(sea_half))


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
    _critical_momenta(analysis, "determinant asymptotics need")
    symbol = FHSymbol(lam=lam, sea_half=analysis.sea_half)
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
