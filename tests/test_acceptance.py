"""End-to-end acceptance checks.

One test per guaranteed behavior, so a verbose run gives one pass/fail
line per item.  Tolerances are pinned inline; they are the accuracy
envelope the package promises, not what it typically achieves.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from fermichain import (
    DispersionProfile,
    InteractionModel,
    c_tilde,
    correlation_row,
    correlation_spectrum,
    f_factor,
    fermi_points,
    fh_deviation,
    free_energy,
    i1,
    low_temperature_fit,
    monotonicity_report,
    renyi_asymptotic,
    renyi_exact,
)

MU_HALF_FILLING = 3.0 * math.pi ** 2 / 8.0


def hs():
    return DispersionProfile(InteractionModel.haldane_shastry())


def fig8():
    return DispersionProfile(InteractionModel.finite_range((1.0, 0.5)))


def report(label, ok, detail=""):
    print(f"{label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{label}: {detail}"


def test_01_two_component_entropy_sweep():
    # finite-range (1, 1/2) at mu = 17/4: two Fermi points, and the
    # asymptotic entropy must track the exact one to stated accuracy
    started = time.perf_counter()
    analysis = fermi_points(fig8(), 4.25)
    ps = [p for p, _ in analysis.roots]
    report("roots near 1.71777 and 2.59356 (tol 5e-5)",
           abs(ps[0] - 1.71777) < 5e-5 and abs(ps[1] - 2.59356) < 5e-5,
           f"got {ps}")

    sizes = list(range(100, 501, 50))
    r = []
    for L in sizes:
        r.append(abs(renyi_asymptotic(correlation_spectrum(analysis, L),
                                      1.0).r_L))
    elapsed = time.perf_counter() - started
    report("entropy deviation r_100 <= 3e-5", r[0] <= 3e-5, f"got {r[0]:.3e}")
    report("entropy deviation r_500 <= 2e-6", r[-1] <= 2e-6,
           f"got {r[-1]:.3e}")
    # subleading oscillations allow single upticks but not a flat tail
    trend = all(r[i + 2] < r[i] for i in range(len(r) - 2)) and r[-1] < r[0]
    report("deviation trend decreasing over L = 100..500", trend,
           f"got {['%.2e' % x for x in r]}")
    report("sweep runtime under 2 minutes", elapsed < 120.0,
           f"got {elapsed:.1f}s")


def test_02_universal_constant_values():
    report("c_tilde(1) = 0.495018 (tol 1e-5)",
           abs(c_tilde(1.0) - 0.495018) < 1e-5, f"got {c_tilde(1.0):.7f}")
    report("c_tilde(inf) = 0.27970 (tol 1e-4)",
           abs(c_tilde(math.inf) - 0.27970) < 1e-4,
           f"got {c_tilde(math.inf):.6f}")
    zero = brentq(c_tilde, 0.02, 0.2, xtol=1e-10)
    report("c_tilde zero at alpha = 0.106022 (tol 1e-3)",
           abs(zero - 0.106022) < 1e-3, f"got {zero:.7f}")
    peak = minimize_scalar(lambda a: -c_tilde(a), method="golden",
                           bracket=(0.2, 0.32, 0.45),
                           options={"xtol": 1e-8})
    report("c_tilde maximum 0.632417 (tol 1e-3) at alpha = 0.321699 (tol 1e-3)",
           abs(-peak.fun - 0.632417) < 1e-3 and abs(peak.x - 0.321699) < 1e-3,
           f"got {-peak.fun:.7f} at {peak.x:.7f}")


def test_03_constant_cross_formula_agreement(c_tilde_oracle):
    # two unrelated integral representations of the same constant
    worst = 0.0
    for alpha in (0.25, 0.5, 2.0, 3.0, 10.0):
        worst = max(worst, abs(c_tilde(alpha) - c_tilde_oracle(alpha)))
    report("c_tilde route agreement <= 1e-7 over 5 orders", worst <= 1e-7,
           f"worst {worst:.3e}")


def test_04_entropy_prefactor_integral_identity():
    # quadrature of the entropy-kernel integral against (1 + alpha)/(6 alpha)
    def s_w(alpha, w):
        q = 2.0 * math.pi * w
        return (math.log1p(math.exp(-alpha * q))
                - alpha * math.log1p(math.exp(-q))) / (1.0 - alpha)

    worst = 0.0
    for alpha in np.linspace(0.1, 10.0, 20):
        w_hi = 40.0 / (2.0 * math.pi * min(1.0, alpha)) + 2.0
        val, _ = quad(lambda w: s_w(alpha, w), 0.0, w_hi,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        worst = max(worst, abs(4.0 / math.pi * val - i1(alpha)))
    report("prefactor quadrature vs closed form <= 1e-8 (20 orders)",
           worst <= 1e-8, f"worst {worst:.3e}")


def test_05_low_temperature_scaling():
    started = time.perf_counter()
    fit = low_temperature_fit(hs(), MU_HALF_FILLING)
    report("half-filled quadratic fit: exponent 2 (tol 0.05)",
           abs(fit.exponent - 2.0) < 0.05, f"got {fit.exponent:.4f}")
    report("half-filled quadratic fit: coefficient -1/3 (tol 2%)",
           abs(fit.coefficient + 1.0 / 3.0) < 0.02 / 3.0,
           f"got {fit.coefficient:.5f}")

    double = low_temperature_fit(fig8(), 4.5)
    report("double-root fit: exponent 1.5 (tol 0.05)",
           abs(double.exponent - 1.5) < 0.05, f"got {double.exponent:.4f}")
    rel = abs(double.coefficient / double.predicted_coefficient - 1.0)
    report("double-root fit: amplitude matches prediction (tol 5%)",
           rel < 0.05,
           f"got {double.coefficient:.5f} vs {double.predicted_coefficient:.5f}")

    ok = True
    detail = []
    for T in (0.05, 0.1, 0.2):
        below = free_energy(hs(), -1.0, T)       # gap 1 below the band
        above = free_energy(hs(), 6.0, T)        # gap 6 - pi^2/2 above
        gap_above = 6.0 - math.pi ** 2 / 2.0
        ok_b = abs(below.f - below.f0) <= T * math.exp(-1.0 / T)
        ok_a = abs(above.f - above.f0) <= T * math.exp(-gap_above / T)
        ok = ok and ok_b and ok_a
        detail.append(f"T={T}: {ok_b and ok_a}")
    report("gapped phases obey activation bounds at T in {0.05, 0.1, 0.2}",
           ok, "; ".join(detail))
    report("scaling checks under 1 minute",
           time.perf_counter() - started < 60.0)


def test_06_central_charge_from_entropy_slope():
    sizes = np.array([64, 128, 256, 512])
    design = np.column_stack([np.log(sizes), np.ones(sizes.size)])
    for label, prof, mu, m in (("half-filled", hs(), MU_HALF_FILLING, 0),
                               ("two-component", fig8(), 4.25, 1)):
        analysis = fermi_points(prof, mu)
        s1 = [renyi_exact(correlation_spectrum(analysis, int(L)), 1.0)
              for L in sizes]
        slope, intercept = np.linalg.lstsq(design, np.array(s1), rcond=None)[0]
        want = (m + 1) / 3.0
        report(f"{label} entropy slope (m+1)/3 (tol 2%)",
               abs(slope / want - 1.0) < 0.02, f"got {slope:.5f} want {want}")
        f = f_factor([p for p, _ in analysis.roots])
        c1 = math.log(f) / 3.0 + (m + 1) * c_tilde(1.0)
        got = s1[-1] - want * math.log(sizes[-1])
        report(f"{label} entropy intercept at L=512 (tol 5e-4)",
               abs(got - c1) < 5e-4, f"got {got:.6f} want {c1:.6f}")


def test_07_determinant_asymptotics_convergence():
    sizes = [8, 16, 32, 64, 128]
    for label, prof, mu in (("half-filled", hs(), MU_HALF_FILLING),
                            ("two-component", fig8(), 4.25)):
        analysis = fermi_points(prof, mu)
        devs = [d for _, d in fh_deviation(analysis, 3.0 + 0.0j, sizes)]
        # incommensurate Fermi pairs beat oscillations into the correction
        # term, so demand decay across doubled sizes rather than stepwise
        dec = (all(devs[i + 2] < devs[i] for i in range(len(devs) - 2))
               and devs[-1] < devs[0])
        report(f"{label} determinant deviation decreasing over L=8..128",
               dec, f"got {['%.2e' % d for d in devs]}")
        report(f"{label} determinant deviation < 1e-2 at L=128",
               devs[-1] < 1e-2, f"got {devs[-1]:.3e}")


def test_08_dispersion_identities_and_thresholds():
    # the inverse-square tail of the power-law family at decay 2 must
    # reproduce the parabola exactly
    quad_prof = DispersionProfile(InteractionModel.power_law(2.0, C=1.0))
    ref = hs()
    grid = np.linspace(0.0, 2.0 * math.pi, 100)
    worst = float(np.abs(quad_prof.E_grid(grid) - ref.E_grid(grid)).max())
    report("power-law decay-2 dispersion equals parabola (tol 1e-9)",
           worst <= 1e-9, f"worst {worst:.3e}")

    def threshold(make, lo, hi):
        # bisect the coupling on the monotone/non-monotone classifier edge
        def monotonic(c):
            return monotonicity_report(
                DispersionProfile(make(c))) == ()

        assert monotonic(lo)
        assert not monotonic(hi)
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if monotonic(mid):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t_fr = threshold(lambda j: InteractionModel.finite_range((1.0, j)),
                     0.2, 0.3)
    report("finite-range monotonicity threshold 1/4 (tol 1e-6)",
           abs(t_fr - 0.25) <= 1e-6, f"got {t_fr:.9f}")
    t_rc = threshold(InteractionModel.rational_cubic, 0.6, 0.8)
    want = 1.0 / (2.0 * math.log(2.0))
    report("rational-cubic monotonicity threshold 1/(2 log 2) (tol 1e-6)",
           abs(t_rc - want) <= 1e-6, f"got {t_rc:.9f} want {want:.9f}")


def _plain_determinant(a):
    # partial-pivot elimination, independent of the spectral route
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det *= a[k, k]
        if a[k, k] == 0.0:
            return 0.0j
        a[k + 1:, k:] = a[k + 1:, k:] - np.outer(
            a[k + 1:, k] / a[k, k], a[k, k:])
    return det


def test_09_spectral_sanity_battery(log_det_char):
    rng = np.random.default_rng(20260814)
    hs_prof = hs()
    band_top = math.pi ** 2 / 2.0
    for seed in range(10):
        mu = float(rng.uniform(0.4, band_top - 0.4))
        analysis = fermi_points(hs_prof, mu)
        L = int(rng.integers(4, 13))
        spec = correlation_spectrum(analysis, L)
        row = correlation_row(analysis, L)
        eig = spec.eigenvalues
        assert eig.min() >= -1e-10 and eig.max() <= 1.0 + 1e-10, (seed, mu)
        assert abs(eig.sum() - L * row[0]) <= 1e-9, (seed, mu)

        # eigenvalues of the leading principal submatrix interlace
        sub = correlation_spectrum(analysis, L - 1).eigenvalues
        assert np.all(eig[:-1] <= sub + 1e-9), (seed, mu)
        assert np.all(sub <= eig[1:] + 1e-9), (seed, mu)

        lam = complex(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0))
        idx = np.abs(np.subtract.outer(np.arange(L), np.arange(L)))
        dense = (lam + 1.0) * np.eye(L) - 2.0 * row[idx]
        brute = _plain_determinant(dense)
        got = log_det_char(spec, lam)
        assert abs(brute) > 0.0
        rel = abs(np.exp(got) - brute) / abs(brute)
        assert rel <= 1e-8, (seed, mu, rel)
    report("10-seed battery: bounds, trace, interlacing, determinants", True)
