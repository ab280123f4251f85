"""Fermi points, phase classification, and low-temperature thermodynamics.

The chemical potential mu cuts the band E(p); everything here derives
from where and how the two meet: simple crossings give a critical phase
whose central charge counts Fermi seas, tangencies give multiple roots
with anomalous T^{1+1/nu} thermal scaling, and no crossing at all gives
a gapped phase with activated behavior. E is monotone between
consecutive band extrema (0, the stationary points of
monotonicity_report, pi), so a piece between two holds one crossing if
its ends lie on opposite sides of mu and neither is a tangency, and
none otherwise; models.half_period_zeros finds it on the piece's grid.
A zone edge where E' vanishes is a band extremum like the stationary
points, but never a Fermi point; mu on one inside the band is refused.
The same points place the panels of free_energy, which takes specfun's
fixed Gauss-Legendre rule, reads the dispersion only through grids of E
and reports its achieved quadrature error. A grid of temperatures takes one
pass, which free_energy and low_temperature_fit share: the panel edges
of every temperature come from one halving ladder, one grid call for E
evaluates the nodes of the distinct panels, and one array expression
gives the Fermi factor of every temperature at every node.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, DomainError, FitRejectedError,
                     QuadratureError, _check_real, _check_reals, _check_roots,
                     _fermi_edges)
from .models import (HALF_PERIOD_CANDIDATES, _finite_band, half_period_zeros,
                     monotonicity_report)
from .specfun import _panel_nodes, _panel_rules, zeta

_TWO_PI = 2.0 * math.pi


# the highest fitted T as a fraction of the extremum gap: the Sommerfeld
# corrections go as (T/gap)^2 and exp(-gap/T), 1e-2 and 5e-5 at a tenth
_CROSSOVER = 0.1

# narrowest panel at the zone-center cusps 0 and pi
_CUSP_WIDTH = math.pi * 2.0 ** -40


@dataclass(frozen=True)
class FermiAnalysis:
    """Where E(p) = mu on (0, pi) and what that means for the phase.

    roots holds (p_i, multiplicity) pairs sorted by p_i; velocities, the
    |E'| at each, line up with it. sea_half lists disjoint intervals of
    [0, pi] with E < mu, and sea, its reflection onto [0, 2*pi), is
    derived from it. central_charge is derived too: len(roots) when the
    phase is critical, else None. extremum_gap is the distance from mu
    to the nearest band value at an extremum (0, a stationary point,
    pi), a tangency or touched zone edge left out, or, if less, the
    band-value difference of two adjacent extrema that mu both touches:
    the scale at which the low-temperature law crosses over.

    Building one, by hand or with dataclasses.replace, derives sea and
    central_charge. A critical analysis holds its Fermi points twice, as
    roots and as the edges of sea_half inside (0, pi), so the positions
    are checked as f_factor checks Fermi points, and they must be the
    edges errors._fermi_edges reads off sea_half, each of multiplicity
    1, or DomainError is raised.
    """
    mu: float
    roots: tuple
    velocities: tuple
    sea: tuple = field(init=False)
    sea_half: tuple
    phase: str
    central_charge: object = field(init=False)
    e_min: float
    e_max: float
    stationary_points: tuple
    extremum_gap: float

    def __post_init__(self):
        if self.phase == "critical":
            ps = _check_roots([p for p, _ in self.roots])
            if (_fermi_edges(self.sea_half) != ps
                    or any(nu != 1 for _, nu in self.roots)):
                raise DomainError(
                    f"roots {self.roots} must be the edges of sea_half "
                    f"{self.sea_half} inside (0, pi), each simple")
        # frozen, so the derived values go into the instance dict
        vars(self).update(sea=_reflect_sea(self.sea_half), central_charge=(
            len(self.roots) if self.phase == "critical" else None))


@dataclass(frozen=True)
class ThermalResult:
    T: float
    f: float      # Helmholtz free energy per spin
    f0: float     # ground-state energy density
    quad_err: float  # achieved quadrature error, the larger of f's and f0's


@dataclass(frozen=True)
class LowTemperatureFit:
    exponent: float
    coefficient: float
    predicted_coefficient: object  # None when no scaling law applies
    residual: float
    thermal: tuple                 # the ThermalResult fitted at each T


def fermi_points(profile, mu):
    """Roots of E(p) = mu on (0, pi) with multiplicities, plus the phase."""
    return _analyze(profile, mu)


def _analyze(profile, mu):
    mu = _check_real(mu, "chemical potential")
    stationary = monotonicity_report(profile)
    extrema = [0.0, *stationary, math.pi]
    (band_vals,) = _finite_band(profile, np.array(extrema), 0)
    e_min = float(band_vals.min())
    e_max = float(band_vals.max())
    btol = 1e-12 * max(1.0, abs(mu), abs(e_min), abs(e_max))

    snap_tol = 1e-10 * max(1.0, abs(mu))
    # tangency: mu sits on a band extremum to working precision
    near = [p for p, e in zip(extrema, band_vals)
            if abs(e - mu) < snap_tol]
    tangent = [p for p in near if 0.0 < p < math.pi]
    # a zone edge is an extremum where E' vanishes, never a Fermi point
    ends = [p for p in near if p in (0.0, math.pi)]
    if ends:
        ends = [p for p, d in zip(ends, profile._band(np.array(ends), 1)[0])
                if abs(d) < 1e-8]
    # at a band edge it is the boundary, though mu may lie just inside
    if ends and e_min < band_vals[extrema.index(ends[0])] < e_max:
        raise DomainError(
            f"mu={mu} touches the band at the zone edge "
            f"p={'0' if ends[0] == 0.0 else 'pi'} inside the band; "
            "such a tangency is not classified")
    snapped = tangent + ends
    # two adjacent snapped extrema bound each other's law by their own
    # band-value difference, below the snap tolerance
    vals = band_vals.tolist()
    extremum_gap = min(
        [abs(e - mu) for p, e in zip(extrema, vals) if p not in snapped]
        + [abs(e - f) for p, q, e, f in zip(extrema, extrema[1:], vals,
                                            vals[1:])
           if p in snapped and q in snapped], default=math.inf)
    # one crossing per piece between extrema whose ends straddle mu;
    # none where an end is snapped, as the tangency is the crossing
    cand = HALF_PERIOD_CANDIDATES
    below = (band_vals < mu).tolist()
    crossing = []
    for a, b, lo, hi in zip(extrema, extrema[1:], below, below[1:]):
        if lo != hi and a not in snapped and b not in snapped:
            grid = np.concatenate([[a], cand[(cand > a) & (cand < b)], [b]])
            crossing += half_period_zeros(
                lambda p: profile._band(p, 0)[0] - mu, 1e-13, grid)
    # one E1 call gives the multiplicity check and the slopes; a point
    # has the same E1 bits in any grid
    points = crossing + tangent
    slopes = profile._band(np.array(points, dtype=float), 1)[0].tolist()
    slope_at = dict(zip(points, slopes))
    roots = tuple(sorted(
        [(r, 2 if abs(slope_at[r]) < 1e-8 else 1) for r in crossing]
        + [(pc, 2) for pc in tangent]))
    velocities = tuple(abs(slope_at[p]) for p, _ in roots)

    sea_half = _half_sea(profile, mu, [p for p, _ in roots])

    if any(nu >= 2 for _, nu in roots):
        phase = "non-critical-multiple-root"
    elif abs(mu - e_min) <= btol or abs(mu - e_max) <= btol:
        phase = "boundary"
    elif mu < e_min:
        phase = "gapped-below"
    elif mu > e_max:
        phase = "gapped-above"
    elif roots:
        phase = "critical"
    elif ends:
        phase = "boundary"
    else:
        raise AccuracyError(
            f"mu={mu} lies inside the band but no crossing was resolved",
            achieved=math.nan, target=1e-13)

    return FermiAnalysis(mu=mu, roots=roots, velocities=velocities,
                         sea_half=sea_half, phase=phase, e_min=e_min,
                         e_max=e_max, stationary_points=stationary,
                         extremum_gap=extremum_gap)


def _half_sea(profile, mu, root_ps):
    nodes = [0.0] + list(root_ps) + [math.pi]
    mids = 0.5 * (np.array(nodes[:-1]) + np.array(nodes[1:]))
    runs = []
    for a, b, e in zip(nodes[:-1], nodes[1:], profile._band(mids, 0)[0]):
        if e < mu:
            if runs and runs[-1][1] == a:
                runs[-1][1] = b  # tangency point interior to the sea
            else:
                runs.append([a, b])
    return tuple((a, b) for a, b in runs)


def _reflect_sea(sea_half):
    left = [[a, b] for a, b in sea_half]
    right = [[_TWO_PI - b, _TWO_PI - a] for a, b in reversed(sea_half)]
    if left and right and left[-1][1] == math.pi:
        left[-1][1] = right[0][1]
        right = right[1:]
    return tuple((a, b) for a, b in left + right)


def _panel_edges(analysis, T_grid):
    # Each gap between features (0, pi, band extrema, Fermi points) is
    # split at its midpoint, and each half halves toward its feature:
    # down to _CUSP_WIDTH at 0 and pi, else to T / (4 max(1, max v)).
    # A rung a + h 2^-j has the same bits at every T, so one ladder as
    # deep as the lowest T needs serves the whole grid, and each T keeps
    # the rungs down to its own depth. Returns one edge array per T.
    scale = 4.0 * max((1.0, *analysis.velocities))
    nears = [T / scale for T in T_grid]
    feats = sorted({0.0, math.pi, *analysis.stationary_points,
                    *(p for p, _ in analysis.roots)})
    always = np.ones((len(nears), 1), dtype=bool)
    points, keep = [[0.0]], [always]

    def ladder(h, cusp):
        # rung levels 1..K and, per T, whether it reaches each of them:
        # rungs h/2, h/4, ... down to the first fraction of h at most
        # the width
        depths = np.array([max(math.ceil(math.log2(h / width)), 0)
                           for width in ([_CUSP_WIDTH] if cusp else nears)],
                          dtype=float)
        levels = np.arange(1.0, depths.max() + 1)
        return levels, np.broadcast_to(levels <= depths[:, None],
                                       (len(nears), levels.size))

    for a, b in zip(feats[:-1], feats[1:]):
        h = 0.5 * (b - a)
        levels, reach = ladder(h, a == 0.0)
        points += [a + h * 2.0 ** -levels[::-1], [a + h]]
        keep += [reach[:, ::-1], always]
        levels, reach = ladder(h, b == math.pi)
        points += [b - h * 2.0 ** -levels, [b]]
        keep += [reach, always]
    points = np.concatenate(points)
    return [points[own] for own in np.concatenate(keep, axis=1)]


def _check_temperatures(T_grid):
    """A non-empty 1-D float array of positive, finite temperatures."""
    T_grid = _check_reals(T_grid, "temperature")
    if T_grid.ndim != 1 or T_grid.size == 0:
        raise DomainError("temperatures must form a non-empty 1-D grid, "
                          f"got shape {T_grid.shape}")
    if not np.all(T_grid > 0.0):
        raise DomainError(
            f"temperatures must be positive and finite, got {T_grid.tolist()}")
    return T_grid


# exp(-x) is left out (taken as 0) from x = 708 on, before numpy's
# vector exp turns to its slow path for subnormal results; log1p is
# left out at and below 2^-53, where log1p(y) == y in floating point
_EXP_CUT = 708.0
_LOG1P_CUT = 2.0 ** -53
# values of f's integrand array per block of temperatures (1 MB)
_BLOCK_VALUES = 2 ** 17


def _fermi_integrand(e, T_grid):
    """-T log(1 + e^{-e/T}) at node values e = E - mu, one row per T.

    Written as min(e, 0) - T log1p(exp(-|e|/T)), so that one vector exp
    and one vector log1p cover every temperature, in place of numpy's
    scalar logaddexp loop; the values left out are below T e^-708 (exp)
    or exact (log1p), and an |e|/T that overflows to inf is one of the
    former. The rows are built in one array, in place.
    """
    T = T_grid.reshape(-1, *(1,) * e.ndim)
    with np.errstate(over="ignore"):
        y = np.divide(np.abs(e), T, out=np.empty((T_grid.size, *e.shape)))
    live = y < _EXP_CUT
    np.exp(np.negative(y, out=y), out=y, where=live)
    np.maximum(y, 0.0, out=y)   # the left-out -|e|/T become 0
    np.log1p(y, out=y, where=y > _LOG1P_CUT)
    y *= T
    return np.subtract(np.minimum(e, 0.0), y, out=y)


def free_energy(profile, mu, T):
    """f(T) = -(T/pi) int_0^pi log[1 + e^{-(E(p)-mu)/T}] dp, plus f0.

    f0 = (1/pi) int_0^pi min(E - mu, 0) dp is the exact T -> 0 limit of
    f. Both come from one pass of specfun's fixed Gauss-Legendre panel
    rule over panels that halve toward each Fermi point and band
    extremum, where the thermal integrand kinks as T -> 0, and toward
    the zone-center cusps; one grid call for E at the 20- and 10-point nodes
    of every panel serves both. The summed per-panel |Q20 - Q10| is the
    achieved error, gated at 1e-10 for f0 and 1e-9 for f; quad_err is
    the larger of the two.

    T is a temperature or a non-empty 1-D grid of them, each read as a
    real by errors._check_reals; a scalar is a grid of one and gives a
    ThermalResult, a grid a tuple of them. The panels of a grid halve
    toward the same features by the same h 2^-k, deeper at lower T, so
    they largely coincide, edges bit for bit: one grid call for E on the
    distinct panels serves every T, and each T's result is that of a
    call at that T alone, bit for bit.
    """
    T_grid = _check_temperatures(T)
    results = _thermal_pass(profile, _analyze(profile, mu), T_grid)
    return results[0] if np.ndim(T) == 0 else results


def _thermal_pass(profile, analysis, T_grid):
    """free_energy's pass: one ThermalResult per T of a checked grid."""
    edges = _panel_edges(analysis, T_grid.tolist())
    # the complex key lo + i hi is exact and sorts by lo, then hi
    panels, which = np.unique(
        np.concatenate([edge[:-1] + 1j * edge[1:] for edge in edges]),
        return_inverse=True)
    half, nodes = _panel_nodes(panels.real, panels.imag)
    e = profile._band(nodes, 0)[0] - analysis.mu
    # per-panel rules on every distinct panel: f0's once, f's with one
    # row per T, its integrand taking a block of temperatures at a time
    q0, dq0 = _panel_rules(np.minimum(e, 0.0) / math.pi, half)
    q20 = np.empty((T_grid.size, half.size))
    dq = np.empty_like(q20)
    step = max(1, _BLOCK_VALUES // e.size)
    for lo in range(0, T_grid.size, step):
        g = _fermi_integrand(e, T_grid[lo:lo + step])
        g /= math.pi
        q20[lo:lo + step], dq[lo:lo + step] = _panel_rules(g, half)
    # each T sums its own panels, in order: f0, f and their errors
    sizes = [edge.size - 1 for edge in edges]
    row = np.repeat(np.arange(T_grid.size), sizes)
    parts = np.stack([q0[which], q20[row, which], dq0[which], dq[row, which]])
    ends = np.cumsum(sizes).tolist()
    results = []
    for t, lo, hi in zip(T_grid.tolist(), [0, *ends], ends):
        f0, f, *errs = parts[:, lo:hi].sum(axis=-1).tolist()
        for what, err, target in zip(("ground-energy", "free-energy"),
                                     errs, (1e-10, 1e-9)):
            if not err <= target:
                raise QuadratureError(
                    f"{what} quadrature reached only {err:.3e} (target "
                    f"{target:.0e}) at T={t}", achieved=err, target=target)
        results.append(ThermalResult(T=t, f=f, f0=f0, quad_err=max(errs)))
    return tuple(results)


def low_temperature_fit(profile, mu, T_grid=None):
    """Fit log|f - f0| against log T and compare with the predicted law.

    Critical phases must show f - f0 = -(pi T^2/6) sum 1/v_i; a band
    tangency (multiple root of order nu) instead gives the anomalous
    power 1 + 1/nu with amplitude
        -(2 b_k/pi)(1 - 2^{-1/nu}) Gamma(1+1/nu) zeta(1+1/nu),
    b_k = (nu! / |E^(nu)(p_k)|)^(1/nu), summed over the roots p_k of the
    top order nu. fermi_points gives roots of order nu <= 2, so every
    b_k comes from one grid of E'' at those roots.
    predicted_coefficient reports the law for the fitted (dominant)
    power; it is None for gapped and boundary phases. T_grid is a 1-D
    grid with at least 4 distinct temperatures, checked before the Fermi
    analysis; all of them share free_energy's one thermal pass, whose
    grid call for E covers the distinct panels of every T once. A critical
    or tangent sea whose extremum gap is under 10 max T is refused even
    when the line passes the residual gate: near a band extremum the law
    bends while the log-log line still looks straight.
    """
    if T_grid is None:
        T_grid = np.geomspace(1e-3, 1e-2, 8)
    T_grid = _check_temperatures(T_grid)
    if len(set(T_grid.tolist())) < 4:
        raise DomainError("need at least 4 distinct temperatures to fit")

    analysis = _analyze(profile, mu)
    results = _thermal_pass(profile, analysis, T_grid)
    gaps = np.array([r.f - r.f0 for r in results])
    if np.any(gaps >= 0.0):
        raise FitRejectedError(
            "f(T) - f0 is not strictly negative on the grid; no scaling "
            "regime to fit", achieved=math.inf, target=0.2)
    # the least-squares line in closed form: no LAPACK call for 2 columns
    x = np.log(T_grid)
    y = np.log(-gaps)
    dx = x - x.mean()
    slope = (dx * (y - y.mean())).sum() / (dx * dx).sum()
    intercept = y.mean() - slope * x.mean()
    residual = float(np.max(np.abs(slope * x + intercept - y)))
    if residual > 0.2:
        raise FitRejectedError(
            f"log-log fit residual {residual:.3f} exceeds 0.2; the grid "
            "is outside the leading-order regime", achieved=residual,
            target=0.2)
    t_max = float(T_grid.max())
    gap = analysis.extremum_gap
    if (analysis.phase in ("critical", "non-critical-multiple-root")
            and t_max > _CROSSOVER * gap):
        raise FitRejectedError(
            f"mu={analysis.mu} lies {gap:.3g} from a band extremum, so the "
            f"low-temperature law holds only up to T={_CROSSOVER * gap:.3g}; "
            f"the grid reaches T={t_max:.3g}", achieved=t_max / gap,
            target=_CROSSOVER)

    predicted = None
    if analysis.phase == "critical":
        predicted = -(math.pi / 6.0) * sum(1.0 / v
                                           for v in analysis.velocities)
    elif analysis.phase == "non-critical-multiple-root":
        nu = max(order for _, order in analysis.roots)
        top = [p for p, order in analysis.roots if order == nu]
        inv = 1.0 / nu
        predicted = 0.0
        for d in profile._band(np.array(top), 2)[0].tolist():
            b = (math.factorial(nu) / abs(d)) ** inv if d != 0.0 else math.inf
            predicted -= (2.0 * b / math.pi) * (1.0 - 2.0 ** -inv) \
                * math.gamma(1.0 + inv) * zeta(1.0 + inv)
    return LowTemperatureFit(exponent=float(slope),
                             coefficient=-math.exp(float(intercept)),
                             predicted_coefficient=predicted,
                             residual=residual, thermal=tuple(results))
