import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fermichain import specfun
from fermichain.specfun import (
    EULER_GAMMA,
    _polylog_circle_grid,
    _zeta_real,
    _zeta_tail,
    zeta,
    polylog_circle,
    log_barnes_pair,
    entropy_kernel,
)
from fermichain.errors import DomainError

# reference values computed once with a 40-digit arbitrary precision run
ZETA3 = 1.2020569031595943
ZETA15 = 2.6123753486854883
PSI_HALF_PLUS_I = -0.051761650994412543
PSI_HALF_PLUS_2p5I = 0.90941748937082398
CATALAN = 0.91596559417721902
LI3_E_I = 0.4485730072800174 + 0.94286923678411146j
CL2_1 = 1.0139591323607685
LI15_E_07I = 0.56619750896105971 + 1.0764106906638162j
BARNES_03 = -0.14708753258019678
BARNES_01_02I = 0.047698071578617146 - 0.061662152889889609j
BARNES_LOG2 = 0.019106341105748371  # beta = -i log2 / (2 pi)


def test_zeta_frozen_values():
    assert zeta(3.0) == pytest.approx(ZETA3, abs=1e-14)
    assert zeta(1.5) == pytest.approx(ZETA15, abs=1e-13)
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-14)


def test_zeta_large_order_approaches_one():
    assert zeta(40.0) == pytest.approx(1.0 + 2.0 ** -40, rel=1e-12)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.5)


@pytest.mark.parametrize("n", [20, 10])
def test_gauss_legendre_tables_are_leggauss_bits(n):
    # the mirrored literals are the doubles numpy.polynomial returns
    x, w = np.polynomial.legendre.leggauss(n)
    assert getattr(specfun, f"_X{n}").tobytes() == x.tobytes()
    assert getattr(specfun, f"_W{n}").tobytes() == w.tobytes()


def test_polylog_dilog_at_i():
    # Li_2(i) = -pi^2/48 + i*Catalan
    v = polylog_circle(2.0, math.pi / 2.0)
    assert v.real == pytest.approx(-math.pi ** 2 / 48.0, abs=1e-12)
    assert v.imag == pytest.approx(CATALAN, abs=1e-12)


def test_polylog_frozen_values():
    v = polylog_circle(3.0, 1.0)
    assert v.real == pytest.approx(LI3_E_I.real, abs=1e-12)
    assert v.imag == pytest.approx(LI3_E_I.imag, abs=1e-12)
    assert polylog_circle(2.0, 1.0).imag == pytest.approx(CL2_1, abs=1e-12)
    v = polylog_circle(1.5, 0.7)
    assert v.real == pytest.approx(LI15_E_07I.real, abs=1e-11)
    assert v.imag == pytest.approx(LI15_E_07I.imag, abs=1e-11)


def test_polylog_dilog_closed_form_real_part():
    # Re Li_2(e^{ip}) = pi^2/6 - p(2 pi - p)/4 for p in [0, 2 pi]
    for p in np.linspace(1e-3, 2.0 * math.pi - 1e-3, 50):
        want = math.pi ** 2 / 6.0 - p * (2.0 * math.pi - p) / 4.0
        assert polylog_circle(2.0, p).real == pytest.approx(want, abs=1e-11)


def test_polylog_endpoint_is_zeta():
    assert polylog_circle(3.0, 0.0) == complex(zeta(3.0), 0.0)
    assert polylog_circle(3.0, 2.0 * math.pi) == complex(zeta(3.0), 0.0)


def test_polylog_conjugate_symmetry():
    for nu in (1.3, 2.0, 5.5):
        for p in (0.1, 1.0, 2.5):
            a = polylog_circle(nu, p)
            b = polylog_circle(nu, 2.0 * math.pi - p)
            assert b.real == pytest.approx(a.real, abs=1e-12)
            assert b.imag == pytest.approx(-a.imag, abs=1e-12)


def test_polylog_large_order_series_branch():
    # at nu = 30 the direct series is exact to machine precision
    p = 0.9
    j = np.arange(1, 61)
    want = complex((np.exp(1j * p * j) / j ** 30.0).sum())
    got = polylog_circle(30.0, p)
    assert got == pytest.approx(want, abs=1e-15)


def test_polylog_tiny_angle_matches_series():
    # near the z = 1 singularity at large nu both routes still work
    nu, p = 6.0, 1e-5
    j = np.arange(1, 4001)
    want = complex((np.exp(1j * p * j) / j ** nu).sum())
    got = polylog_circle(nu, p)
    assert got.real == pytest.approx(want.real, abs=1e-10)
    assert got.imag == pytest.approx(want.imag, abs=1e-10)


def test_polylog_domain():
    with pytest.raises(DomainError):
        polylog_circle(1.0, 0.3)
    for p in (math.nan, math.inf):
        with pytest.raises(DomainError):
            polylog_circle(2.0, p)


def test_polylog_reduces_momenta_outside_the_zone():
    for nu, p in ((2.0, 1.0), (3.5, 0.25), (1.5, 5.0)):
        want = polylog_circle(nu, p)
        for shifted in (p + 2.0 * math.pi, p - 2.0 * math.pi,
                        p + 6.0 * math.pi, p - 4.0 * math.pi):
            got = polylog_circle(nu, shifted)
            assert abs(got - want) <= 1e-13 * abs(want), (nu, shifted)


def test_digamma_refuses_nonfinite_w(digamma_real_part):
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            digamma_real_part(w)


def test_digamma_frozen_values(digamma_real_part):
    assert digamma_real_part(1.0) == pytest.approx(PSI_HALF_PLUS_I, abs=1e-13)
    assert digamma_real_part(2.5) == pytest.approx(PSI_HALF_PLUS_2p5I, abs=1e-13)
    # psi(1/2) = -gamma - 2 log 2
    want = -EULER_GAMMA - 2.0 * math.log(2.0)
    assert digamma_real_part(0.0) == pytest.approx(want, abs=1e-14)
    assert digamma_real_part(-1.0) == pytest.approx(PSI_HALF_PLUS_I, abs=1e-13)


def test_digamma_stirling_regime(digamma_real_part):
    # Re psi(1/2 + i w) -> log|1/2 + i w| as w grows
    w = 300.0
    want = 0.5 * math.log(0.25 + w * w)
    assert digamma_real_part(w) == pytest.approx(want, abs=1e-5)


def test_barnes_frozen_values():
    assert log_barnes_pair(0.3) == pytest.approx(BARNES_03, abs=1e-13)
    v = log_barnes_pair(0.1 + 0.2j)
    assert v.real == pytest.approx(BARNES_01_02I.real, abs=1e-13)
    assert v.imag == pytest.approx(BARNES_01_02I.imag, abs=1e-13)
    v = log_barnes_pair(-1j * math.log(2.0) / (2.0 * math.pi))
    assert v.real == pytest.approx(BARNES_LOG2, abs=1e-13)
    assert abs(v.imag) < 1e-15


def test_barnes_zero_and_evenness():
    assert log_barnes_pair(0.0) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        b = complex(rng.uniform(-0.49, 0.49), rng.uniform(-2.0, 2.0))
        a = log_barnes_pair(b)
        assert log_barnes_pair(-b) == pytest.approx(a, abs=1e-13)
        # G(1+conj(b)) = conj(G(1+b))
        c = log_barnes_pair(b.conjugate())
        assert c.real == pytest.approx(a.real, abs=1e-13)
        assert c.imag == pytest.approx(-a.imag, abs=1e-13)


def test_barnes_pure_imaginary_is_real():
    for t in (0.05, 0.7, 1.9):
        v = log_barnes_pair(1j * t)
        assert abs(v.imag) < 1e-14
        assert v.real > 0.0  # |G(1+it)|^2 > 1 for t != 0


def test_barnes_domain():
    with pytest.raises(DomainError):
        log_barnes_pair(0.5)
    with pytest.raises(DomainError):
        log_barnes_pair(-0.62 + 1j)
    for beta in (math.nan, complex(0.0, math.inf), complex(0.1, -math.inf),
                 complex(math.nan, 1.0), complex(0.1, math.nan)):
        with pytest.raises(DomainError, match="finite beta"):
            log_barnes_pair(beta)


# ---------------------------------------------------------------------------
# independent oracle: mpmath at 30 digits

TWO_PI = 2.0 * math.pi


def circle_ladder():
    """p = pi 2^-k toward 0, pi and 2 pi, plus points in between.

    The zone edge is the float 2 pi, so a point near it stands for the
    angle TWO_PI - p; oracle_polylog takes it there.
    """
    k = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0])
    return np.concatenate([math.pi * 2.0 ** -k, [0.7, 2.0],
                           math.pi * (1.0 - 2.0 ** -k[1::2]),
                           TWO_PI - math.pi * 2.0 ** -k[::3]])


def oracle_polylog(mpmath, s, p):
    if p > math.pi:
        return oracle_polylog(mpmath, s, TWO_PI - p).conjugate()
    with mpmath.workdps(30):
        return complex(mpmath.polylog(s, mpmath.expj(p)))


def test_zeta_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    nus = np.concatenate([1.0 + 2.0 ** -np.arange(1.0, 30.0, 4.0),
                          np.linspace(1.1, 40.0, 40)])
    with mpmath.workdps(30):
        want = [float(mpmath.zeta(nu)) for nu in nus]
    np.testing.assert_allclose([zeta(nu) for nu in nus], want,
                               rtol=1e-14, atol=0)


def zeta_scale(mpmath, x):
    # |zeta(x)|, or below 1/2 the reflection's scale 2 (2 pi)^{x-1}
    # Gamma(1-x) if that is larger; unlike zeta it has no zeros
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        want = mpmath.zeta(x) if x != 1 else mpmath.inf
        scale = abs(want)
        if x < 0.5:
            scale = max(scale, 2 * (2 * mpmath.pi) ** (x - 1)
                        * mpmath.gamma(1 - x))
        return want, scale


def check_zeta_real(mpmath, xs, rtol):
    for x in map(float, xs):
        want, scale = zeta_scale(mpmath, x)
        got = _zeta_real(x)
        if math.isinf(want):
            assert got == math.inf, x
        else:
            assert abs(got - want) <= rtol * scale, (x, got, float(want))


def test_zeta_real_matches_mpmath_on_the_line():
    mpmath = pytest.importorskip("mpmath")
    above = np.concatenate([np.linspace(0.5, 60.0, 239),
                            1.0 + np.array([-1e-10, 1e-10, -1e-6, 1e-6])])
    check_zeta_real(mpmath, above, 1e-15)
    below = np.concatenate([np.linspace(-35.0, 0.5, 143)[:-1],
                            [0.0, -1e-12, 1e-12, -1e-9, 1e-9, 0.4999]])
    check_zeta_real(mpmath, below, 3e-15)
    # the pole, the value at 0 and the trivial zeros, to the bit
    assert _zeta_real(1.0) == math.inf
    assert _zeta_real(0.0) == -0.5
    assert all(_zeta_real(-2.0 * n) == 0.0 for n in range(1, 18))
    # next to a trivial zero the relative error stays small as well
    for x in (-2.0 + 1e-9, -10.0 - 1e-12, -34.0 + 1e-6):
        want, _ = zeta_scale(mpmath, x)
        assert abs(_zeta_real(x) / want - 1) < 1e-14, x


@pytest.mark.parametrize("s", [2.0, 3.0, 1.6, 2.5, 3.9, -1.5])
def test_zeta_real_at_the_polylog_series_orders(s):
    # zeta(s - k) for the 100 orders _series_constants asks for
    mpmath = pytest.importorskip("mpmath")
    check_zeta_real(mpmath, s - np.arange(100.0), 3e-15)


def test_zeta_tail_matches_hurwitz():
    # the tail of log_barnes_pair: zeta(s, a) at odd s and a >= 81
    mpmath = pytest.importorskip("mpmath")
    for s in (3.0, 5.0, 7.0, 9.0):
        for a in (81.0, 100.0, 137.0, 250.0, 400.0):
            got = math.fsum(_zeta_tail(s, a, s - 1.0))
            with mpmath.workdps(40):
                want = mpmath.zeta(s, a)
            assert abs(got / want - 1) < 1e-15, (s, a)


# the orders named in the zeta-series design, plus both sides of the
# switch to the log form 0.05 from an integer
POLYLOG_ORDERS = (1.0001, 1.6, 2.0, 2.003, 2.5, 2.9499, 2.9501, 2.99, 3.0,
                  3.0499, 3.0501, 3.997, 3.9999, 4.0, 12.0001, 24.99, 25.0)


@pytest.mark.parametrize("nu", POLYLOG_ORDERS)
def test_polylog_matches_mpmath(nu):
    mpmath = pytest.importorskip("mpmath")
    p = circle_ladder()
    got = np.array([polylog_circle(nu, x) for x in p])
    want = np.array([oracle_polylog(mpmath, nu, x) for x in p])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nu", POLYLOG_ORDERS)
def test_polylog_grid_matches_scalar_bitwise(nu):
    # the ladder, the zone center and edge, and folded points p > pi
    p = np.concatenate([circle_ladder(), [0.0, math.pi, 3.5, 5.0, TWO_PI]])
    scalar = np.array([polylog_circle(nu, x) for x in p])
    for part in ("real", "imag"):
        grid = _polylog_circle_grid(nu, p, part)
        assert grid.tobytes() == getattr(scalar, part).tobytes(), part
        assert _polylog_circle_grid(nu, p.reshape(2, -1), part).tobytes() \
            == grid.tobytes(), part
    assert scalar[-5] == scalar[-1] == complex(zeta(nu), 0.0)


@pytest.mark.parametrize("nu", POLYLOG_ORDERS + (1.0, 0.5, -0.4, -2.0))
def test_polylog_grid_parts_are_the_complex_parts(nu):
    # E and E'' read the real part, E' the imaginary one, at orders down
    # to nu - 2; each part is a float array of p's shape
    mpmath = pytest.importorskip("mpmath")
    p = np.concatenate([circle_ladder(), [math.pi, 3.5, 5.0]])
    want = np.array([oracle_polylog(mpmath, nu, x) for x in p])
    scale = np.maximum(1.0, np.abs(want))
    for part, exact in (("real", want.real), ("imag", want.imag)):
        got = _polylog_circle_grid(nu, p.reshape(2, -1), part)
        assert got.dtype == np.float64 and got.shape == (2, p.size // 2)
        assert np.all(np.abs(got.ravel() - exact) <= 1e-12 * scale), part
    ends = [0.0, TWO_PI]
    assert _polylog_circle_grid(nu, ends, "real").tolist() == \
        [zeta(nu) if nu > 1.0 else math.inf] * 2
    assert _polylog_circle_grid(nu, ends, "imag").tolist() == [0.0, 0.0]


def test_digamma_matches_mpmath(digamma_real_part):
    mpmath = pytest.importorskip("mpmath")
    ws = np.concatenate([[0.0], np.geomspace(1e-3, 300.0, 25)])
    with mpmath.workdps(30):
        want = [float(mpmath.re(mpmath.digamma(mpmath.mpc(0.5, w))))
                for w in ws]
    np.testing.assert_allclose([digamma_real_part(w) for w in ws], want,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose([digamma_real_part(-w) for w in ws], want,
                               rtol=0, atol=1e-13)


def test_barnes_matches_mpmath():
    # the documented residual is 1e-13 on the whole strip |Re beta| < 1/2
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    betas = [complex(a, b) for a, b in zip(rng.uniform(-0.499, 0.499, 24),
                                           rng.uniform(-3.0, 3.0, 24))]
    betas += [0.3, 0.49, -0.49 + 0.5j, 2.5j]
    with mpmath.workdps(30):
        want = [complex(mpmath.log(mpmath.barnesg(1 + b))
                        + mpmath.log(mpmath.barnesg(1 - b))) for b in betas]
    got = [log_barnes_pair(b) for b in betas]
    for b, g, w in zip(betas, got, want):
        # the two logs may land on different branches; compare modulo 2 pi i
        d = g - w
        d -= 2j * math.pi * round(d.imag / (2.0 * math.pi))
        assert abs(d) < 1e-13, (b, g, w)


def test_entropy_kernel_binary_entropy():
    # alpha = 1 reduces to -q log q - (1-q) log(1-q), q = (1+x)/2
    assert entropy_kernel(1.0, 0.5) == pytest.approx(
        -0.75 * math.log(0.75) - 0.25 * math.log(0.25), abs=1e-15)
    assert entropy_kernel(1.0, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert entropy_kernel(1.0, 1.0) == 0.0
    assert entropy_kernel(1.0, -1.0) == 0.0


def test_entropy_kernel_alpha_one_matches_mpmath():
    # the alpha = 1 kernel against -(q log q) summed in 40 digits over the
    # kernel's own q_max and q_min, at 0, at +-1 (q_min = 0) and inside
    # the clipped band just outside +-1
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.linspace(-1.0, 1.0, 4001), [0.0, 1.0, -1.0],
                        1.0 + np.array([1e-16, 1e-12, 5e-10, 1e-9]),
                        -1.0 - np.array([1e-16, 1e-12, 5e-10, 1e-9]),
                        np.nextafter(1.0, 0.0) - np.arange(8) * 2e-16])
    ax = np.minimum(np.abs(x), 1.0)
    qmax, qmin = 0.5 * (1.0 + ax), 0.5 * (1.0 - ax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = entropy_kernel(1.0, x)
        grid = entropy_kernel(1.0, x.reshape(3, -1))
        one = [entropy_kernel(1.0, v) for v in x[-20:]]
    with mpmath.workdps(40):
        rel = []
        for g, pair in zip(got.tolist(), zip(qmax.tolist(), qmin.tolist())):
            w = -mpmath.fsum(mpmath.mpf(q) * mpmath.log(q)
                             for q in pair if q > 0.0)
            rel.append(float(abs(g - w) / w) if w else abs(g))
    assert max(rel) <= 2.3e-16
    assert np.array_equal(grid, got.reshape(3, -1))
    assert one == got[-20:].tolist()


def test_entropy_kernel_renyi_values():
    assert entropy_kernel(2.0, 0.5) == pytest.approx(
        -math.log(0.625), abs=1e-15)
    assert entropy_kernel(math.inf, 0.5) == pytest.approx(
        -math.log(0.75), abs=1e-15)
    assert entropy_kernel(math.inf, 0.0) == pytest.approx(
        math.log(2.0), abs=1e-15)
    assert entropy_kernel(0.5, 0.8) == pytest.approx(
        2.0 * math.log(math.sqrt(0.9) + math.sqrt(0.1)), abs=1e-14)


def test_entropy_kernel_alpha_one_continuity():
    for x in (0.0, 0.3, 0.999):
        s1 = entropy_kernel(1.0, x)
        assert entropy_kernel(1.0 + 9e-7, x) == pytest.approx(s1, abs=1e-6)
        assert entropy_kernel(1.0 - 9e-7, x) == pytest.approx(s1, abs=1e-6)
        # and further out, where the expm1 form still applies
        assert entropy_kernel(1.0 + 1e-5, x) == pytest.approx(s1, abs=1e-4)


def test_entropy_kernel_clamps_roundoff():
    assert entropy_kernel(2.0, 1.0 + 5e-10) == 0.0
    assert entropy_kernel(2.0, -1.0 - 5e-10) == 0.0
    with pytest.raises(DomainError):
        entropy_kernel(2.0, 1.0 + 1e-8)


def test_entropy_kernel_domain():
    for alpha in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            entropy_kernel(alpha, 0.3)
    for alpha in (0.5, 1.0, 2.0, math.inf):
        with pytest.raises(DomainError):
            entropy_kernel(alpha, math.nan)
        with pytest.raises(DomainError):
            entropy_kernel(alpha, np.array([0.0, 0.5, math.nan, 1.0]))


# one order per branch of the kernel and on both sides of each switch
KERNEL_ALPHAS = (0.25, 0.5, 0.9, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.3, 2.0, 10.0,
                 math.inf)
_NEAR_ONE = [1.0 - 10.0 ** -k for k in range(1, 16)]
KERNEL_XS = np.array([0.0, 1.0, -1.0, *_NEAR_ONE, *(-x for x in _NEAR_ONE)])


def oracle_entropy_kernel(mpmath, alpha, x):
    with mpmath.workdps(60):
        q = [(1 + mpmath.mpf(x)) / 2, (1 - mpmath.mpf(x)) / 2]
        if alpha == math.inf:
            return float(-mpmath.log(max(q)))
        if alpha == 1.0:
            return float(-sum(v * mpmath.log(v) for v in q if v > 0))
        a = mpmath.mpf(alpha)
        return float(mpmath.log(sum(v ** a for v in q)) / (1 - a))


def test_entropy_kernel_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for alpha in KERNEL_ALPHAS:
        want = [oracle_entropy_kernel(mpmath, alpha, x) for x in KERNEL_XS]
        np.testing.assert_allclose(entropy_kernel(alpha, KERNEL_XS), want,
                                   rtol=0, atol=1e-15, err_msg=str(alpha))


def test_entropy_kernel_scalar_calls_match_grid_bitwise():
    x = np.concatenate([KERNEL_XS, np.linspace(-1.0, 1.0, 41),
                        [1.0 + 5e-10, -1.0 - 5e-10]])
    for alpha in KERNEL_ALPHAS:
        scalar = np.array([entropy_kernel(alpha, v) for v in x])
        assert scalar.tobytes() == entropy_kernel(alpha, x).tobytes(), alpha


def test_entropy_kernel_scalar_gives_float():
    assert type(entropy_kernel(2.0, 0.5)) is float
    assert type(entropy_kernel(2.0, np.float64(0.5))) is float
    assert entropy_kernel(np.int64(2), 0.5) == entropy_kernel(2.0, 0.5)
    assert entropy_kernel(2.0, [0.5]).shape == (1,)


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=40.0))
def test_entropy_kernel_symmetric_and_bounded(x, alpha):
    # bound allows ~5e-12 cancellation noise when alpha sits just outside
    # the Shannon guard band
    s = entropy_kernel(alpha, x)
    assert entropy_kernel(alpha, -x) == pytest.approx(s, abs=1e-10)
    assert -1e-10 <= s <= math.log(2.0) + 1e-10


@given(st.floats(min_value=0.05, max_value=40.0))
def test_entropy_kernel_peak_at_equal_weights(alpha):
    assert entropy_kernel(alpha, 0.0) == pytest.approx(math.log(2.0), abs=1e-10)
    assert entropy_kernel(alpha, 0.4) < math.log(2.0)
