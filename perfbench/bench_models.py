"""Benchmark-side description of the four coupling families.

Everything here is computed apart from fermichain: dispersions in closed
form, from truncated numpy series, or from mpmath polylogarithms; Fermi
seas from the closed-form roots or by bisection. The workloads use it to
place their inputs and the checks use it as the reference.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
SERIES_TERMS = 20000   # truncation of the power-law / rational-cubic series


@dataclass(frozen=True)
class Chain:
    """One coupling family with its parameters (C = 1 for power-law)."""

    family: str          # haldane-shastry, finite-range, power-law, rational-cubic
    alphas: tuple = ()
    nu: float = 0.0
    J: float = 0.0

    def cli_flags(self):
        flags = ["--model", self.family]
        if self.family == "finite-range":
            flags += ["--coeffs", ",".join(repr(a) for a in self.alphas)]
        elif self.family == "power-law":
            flags += ["--nu", repr(self.nu)]
        elif self.family == "rational-cubic":
            flags += ["--J", repr(self.J)]
        return flags

    # -- dispersion on a momentum grid, numpy ---------------------------
    def energy(self, p):
        p = np.asarray(p, dtype=float)
        if self.family == "haldane-shastry":
            return 0.5 * p * (TWO_PI - p)
        if self.family == "finite-range":
            k = np.arange(1, len(self.alphas) + 1)
            return 2.0 * (1.0 - np.cos(np.multiply.outer(p, k))) @ np.array(self.alphas)
        if self.family == "power-law":
            return 2.0 * _cos_series(p, self.nu)
        return 0.5 * p * (TWO_PI - p) - 2.0 * self.J * _cos_series(p, 3.0)

    # -- pointwise values to ~1e-15, mpmath for the polylog families ----
    def energy_exact(self, p):
        if self.family in ("haldane-shastry", "finite-range"):
            return float(self.energy(p))
        import mpmath
        z = mpmath.expj(p)
        if self.family == "power-law":
            return float(2.0 * (mpmath.zeta(self.nu) - mpmath.re(mpmath.polylog(self.nu, z))))
        gap = mpmath.zeta(3) - mpmath.re(mpmath.polylog(3, z))
        return float(0.5 * p * (TWO_PI - p) - 2.0 * self.J * gap)

    def velocity_exact(self, p):
        """|E'(p)|; E' = 2 Im Li_{nu-1} for power-law."""
        if self.family == "haldane-shastry":
            return abs(math.pi - p)
        if self.family == "finite-range":
            return abs(2.0 * sum((k + 1) * a * math.sin((k + 1) * p)
                                 for k, a in enumerate(self.alphas)))
        import mpmath
        z = mpmath.expj(p)
        if self.family == "power-law":
            return abs(float(2.0 * mpmath.im(mpmath.polylog(self.nu - 1.0, z))))
        return abs(math.pi - p - 2.0 * self.J * float(mpmath.im(mpmath.polylog(2, z))))

    def curvature_exact(self, p):
        """E''(p) of a finite-range chain (the tangency input)."""
        return 2.0 * sum((k + 1) ** 2 * a * math.cos((k + 1) * p)
                         for k, a in enumerate(self.alphas))

    def antiderivative(self, p):
        """F(p) with F' = E, F(0) = 0: Im Li_{nu+1} for the polylog families."""
        if self.family == "finite-range":
            return 2.0 * sum(a * (p - math.sin((k + 1) * p) / (k + 1))
                             for k, a in enumerate(self.alphas))
        parabola = 0.5 * math.pi * p * p - p ** 3 / 6.0
        if self.family == "haldane-shastry":
            return parabola
        import mpmath
        z = mpmath.expj(p)
        if self.family == "power-law":
            return float(2.0 * (mpmath.zeta(self.nu) * p
                                - mpmath.im(mpmath.polylog(self.nu + 1.0, z))))
        return parabola - 2.0 * self.J * float(
            mpmath.zeta(3) * p - mpmath.im(mpmath.polylog(4, z)))

    # -- Fermi sea on [0, pi] -------------------------------------------
    def half_sea(self, mu):
        """Intervals of [0, pi] with E < mu, for a band that is monotone or
        has one interior maximum (finite-range alpha_2 > 1/4)."""
        if self.family == "finite-range" and len(self.alphas) == 2:
            a1, a2 = self.alphas
            # E = 2 a1 (1 - c) + 4 a2 (1 - c^2) in c = cos p
            disc = max(4.0 * a1 * a1 - 16.0 * a2 * (mu - 2.0 * a1 - 4.0 * a2), 0.0)
            cs = [(-2.0 * a1 + s * math.sqrt(disc)) / (8.0 * a2) for s in (1.0, -1.0)]
            ps = sorted(math.acos(c) for c in cs if -1.0 <= c <= 1.0)
            if len(ps) == 2:
                return ((0.0, ps[0]), (ps[1], math.pi))
            return ((0.0, ps[0]),)
        if self.family == "haldane-shastry":
            return ((0.0, math.pi - math.sqrt(math.pi ** 2 - 2.0 * mu)),)
        return ((0.0, _bisect(lambda p: float(self.energy(p)) - mu, 1e-9, math.pi)),)

    def sign_changes(self, mu, points=512):
        """Sign changes of E - mu on a midpoint grid of (0, pi)."""
        p = (np.arange(points) + 0.5) * (math.pi / points)
        g = np.sign(self.energy(p) - mu)
        return int(np.count_nonzero(g[1:] != g[:-1]))


def _cos_series(p, s):
    # sum_{j <= SERIES_TERMS} (1 - cos j p) / j^s, in blocks to bound memory;
    # the neglected tail is below 2 SERIES_TERMS^(1-s) / (s - 1)
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape)
    for lo in range(1, SERIES_TERMS + 1, 2000):
        j = np.arange(lo, min(lo + 2000, SERIES_TERMS + 1), dtype=float)
        out = out + (1.0 - np.cos(np.multiply.outer(p, j))) @ j ** -s
    return out


def _bisect(f, a, b):
    fa = f(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < 1e-14:
            break
        fm = f(m)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def sea_row(half_sea, L):
    """First row of the L x L Toeplitz block of a reflection-symmetric sea:
    (1/2 pi) times the integral of e^{-ipd} over the sea."""
    d = np.arange(1, L, dtype=float)
    row = np.empty(L)
    row[0] = sum(b - a for a, b in half_sea) / math.pi
    row[1:] = sum(np.sin(b * d) - np.sin(a * d) for a, b in half_sea) / (math.pi * d)
    return row


def toeplitz_eigenvalues(row):
    idx = np.arange(row.size)
    return np.linalg.eigvalsh(row[np.abs(idx[:, None] - idx[None, :])])


def renyi(eigenvalues, alpha):
    """Renyi entropy of a free-fermion block from its correlation spectrum."""
    lam = np.clip(eigenvalues, 0.0, 1.0)
    q = np.maximum(lam, 1.0 - lam)
    r = 1.0 - q
    if alpha == 1.0:
        safe = np.where(r > 0.0, r, 1.0)
        return float(np.sum(-q * np.log(q) - r * np.log(safe)))
    if math.isinf(alpha):
        return float(np.sum(-np.log(q)))
    return float(np.sum((alpha * np.log(q) + np.log1p((r / q) ** alpha)) / (1.0 - alpha)))
