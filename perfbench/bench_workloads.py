"""The two workloads: seeded inputs, one operation at a time, and the
checks that run on the outputs after the timed region.

Each workload is built from a seed alone. fermichain sees only the
generated inputs, as CLI argument lists. The checks compare every
output with bench_models, which is independent of fermichain, or with a
property the method must have. Tolerances follow tests/test_acceptance.py.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import fermichain as fc
from fermichain import cli as fc_cli

import bench_models as bm
from bench_models import Chain

ALPHAS = (0.5, 1.0, 2.0, math.inf)
ALPHA_FLAG = "0.5,1,2,inf"
# eigenvalues closer than this to 0 or 1 are below the rounding floor of any
# double-precision eigensolver; for alpha < 1 the kernel ~ lambda^alpha turns
# that floor into an entropy difference far above 1e-10
EIGEN_FLOOR = 1e-13


class Mismatch(Exception):
    """An output disagrees with its reference: a wrong answer."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def entropy_tolerance(eig_ref, alpha):
    """1e-10, plus for alpha < 1 the entropy of the eigenvalues that sit
    within EIGEN_FLOOR of 0 or 1, which no eigensolver resolves."""
    if alpha >= 1.0:
        return 1e-10
    lam = np.clip(eig_ref, 0.0, 1.0)
    hidden = np.count_nonzero(np.minimum(lam, 1.0 - lam) < EIGEN_FLOOR)
    return 1e-10 + hidden * bm.renyi(np.array([EIGEN_FLOOR]), alpha)


def strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def fermichain_model(chain):
    if chain.family == "haldane-shastry":
        return fc.InteractionModel.haldane_shastry()
    if chain.family == "finite-range":
        return fc.InteractionModel.finite_range(chain.alphas)
    if chain.family == "power-law":
        return fc.InteractionModel.power_law(chain.nu)
    return fc.InteractionModel.rational_cubic(chain.J)


def _two_component_chain(rng):
    # finite-range (1, a2) with a2 > 1/4 has a maximum 2 + 4 a2 + 1/(4 a2)
    # above E(pi) = 4; mu sits at 30-70 % of that window
    a2 = float(rng.uniform(0.45, 0.6))
    top = 2.0 + 4.0 * a2 + 0.25 / a2
    return Chain("finite-range", (1.0, a2)), 4.0 + (top - 4.0) * float(rng.uniform(0.3, 0.7))


class Workload:
    """Base: ``ops`` lists the operations of one round, in order."""

    name = None
    salt = 0

    def __init__(self, seed, smoke=False, outdir="."):
        self.rng = np.random.default_rng([self.salt, seed % 2 ** 32])
        self.outdir = outdir
        self.ops = []

    def run_op(self, i, tag):
        raise NotImplementedError

    def check(self, rounds):
        """Status of every output, one list per round: "ok", "wrong: ..."
        for an output that fails a check, "raised: ..." where the operation
        raised. ``rounds`` holds the outputs of each round; an exception
        instance stands for an operation that raised it."""
        raise NotImplementedError


def _statuses(rounds, check_one):
    # check_one(i, output, round_outputs) raises Mismatch on a wrong output
    out = []
    for outputs in rounds:
        row = []
        for i, got in enumerate(outputs):
            if isinstance(got, Mismatch):
                row.append(f"wrong: {got}")
                continue
            if isinstance(got, Exception):
                row.append(f"raised: {type(got).__name__}: {got}")
                continue
            try:
                check_one(i, got, outputs)
                row.append("ok")
            except Mismatch as exc:
                row.append(f"wrong: {exc}")
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# thermo-fit: free-energy --fit through the CLI

@dataclass(frozen=True)
class ThermoCase:
    chain: Chain
    mu: float
    tangency: bool = False

    def argv(self, output):
        return (["free-energy"] + self.chain.cli_flags()
                + ["--mu", repr(self.mu), "--fit", "--format", "json",
                   "--output", output])


class ThermoFit(Workload):
    """Three closed-form cases (haldane-shastry, a two-component
    finite-range sea, the finite-range tangency), seven rational-cubic
    cases and one power-law case, each one free-energy --fit call.

    Both slow families spend their time in scalar E inside quadrature.
    Seven rational-cubic fits fill the middle of the sorted latencies, so
    op_p50 falls inside that one class; they are spread over the round so
    that their median samples the whole run, not one stretch of it.
    """

    name = "thermo-fit"
    salt = 1

    def __init__(self, seed, smoke=False, outdir="."):
        super().__init__(seed, smoke, outdir)
        rng = self.rng
        hs = ThermoCase(Chain("haldane-shastry"), float(rng.uniform(1.0, 4.0)))
        fr2 = ThermoCase(*_two_component_chain(rng))
        tangency = ThermoCase(Chain("finite-range", (1.0, 0.5)), 4.5, tangency=True)
        rc = [ThermoCase(Chain("rational-cubic", J=float(rng.uniform(0.45, 0.6))),
                         float(rng.uniform(1.0, 1.7))) for _ in range(7)]
        pl = ThermoCase(Chain("power-law", nu=float(rng.uniform(3.85, 4.0))),
                        float(rng.uniform(1.6, 2.6)))
        if smoke:
            self.ops = [hs, fr2, tangency]
        else:
            self.ops = [hs, rc[0], rc[1], fr2, rc[2], rc[3], tangency, rc[4], rc[5], pl, rc[6]]

    def run_op(self, i, tag):
        path = os.path.join(self.outdir, f"{tag}-op{i:02d}.json")
        rc = fc_cli.run(self.ops[i].argv(path))
        if rc != 0:
            raise RuntimeError(f"fermichain exited with code {rc}")
        return path

    def check(self, rounds):
        static = [self._check_analysis(case) for case in self.ops]
        refs = [self._reference(case) for case in self.ops]

        def check_one(i, path, _):
            if static[i]:
                raise Mismatch(static[i])
            try:
                with open(path, encoding="utf-8") as f:
                    results = json.load(f)["results"]
                rows = results["table"]["rows"]
                got_exponent = results["fit"]["exponent"]
                got_amplitude = results["fit"]["coefficient"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise Mismatch(f"unreadable output: {exc}") from None
            f0, amplitude, exponent, amp_tol = refs[i]
            for T, f_T, f0_got in rows:
                expect(abs(f0_got - f0) <= 1e-9, f"f0 {f0_got!r} vs closed form {f0!r}")
                expect(f_T < f0_got, f"f(T={T}) not below f0")
            expect(abs(got_exponent - exponent) < 0.05,
                   f"exponent {got_exponent} vs {exponent}")
            expect(abs(got_amplitude / amplitude - 1.0) < amp_tol,
                   f"amplitude {got_amplitude} vs {amplitude}")

        return _statuses(rounds, check_one)

    def _check_analysis(self, case):
        """Fermi points from fermichain, checked against E and its sign
        changes evaluated here; returns a message or None."""
        try:
            a = fc.fermi_points(fc.DispersionProfile(fermichain_model(case.chain)), case.mu)
        except Exception as exc:  # any fermichain failure makes the fit unverifiable
            return f"fermi_points raised {type(exc).__name__}: {exc}"
        try:
            for p, _ in a.roots:
                gap = case.chain.energy_exact(p) - case.mu
                expect(abs(gap) <= 1e-9, f"E(p={p}) - mu = {gap:.3e}")
            if case.tangency:
                expect(a.phase == "non-critical-multiple-root"
                       and [n for _, n in a.roots] == [2],
                       f"tangency read as {a.phase} with roots {a.roots}")
            else:
                changes = case.chain.sign_changes(case.mu)
                expect(a.phase == "critical" and a.central_charge == changes,
                       f"central charge {a.central_charge} ({a.phase}) vs "
                       f"{changes} sign changes")
        except Mismatch as exc:
            return str(exc)
        return None

    @staticmethod
    def _reference(case):
        """(f0, amplitude, exponent, amplitude tolerance) computed here."""
        chain, mu = case.chain, case.mu
        sea = chain.half_sea(mu)
        f0 = sum(chain.antiderivative(b) - chain.antiderivative(a) - mu * (b - a)
                 for a, b in sea) / math.pi
        if case.tangency:
            import mpmath
            p = sea[0][1]
            b = math.sqrt(2.0 / abs(chain.curvature_exact(p)))
            amplitude = -(2.0 * b / math.pi) * (1.0 - 2.0 ** -0.5) \
                * math.gamma(1.5) * float(mpmath.zeta(1.5))
            return f0, amplitude, 1.5, 0.05
        roots = [x for iv in sea for x in iv if 0.0 < x < math.pi]
        amplitude = -(math.pi / 6.0) * sum(1.0 / chain.velocity_exact(p) for p in roots)
        return f0, amplitude, 2.0, 0.02


# ---------------------------------------------------------------------------
# entropy-blocks: entropy --compare and fh-check through the CLI

class EntropyBlocks(Workload):
    """Block entropies and determinant asymptotics, one sea at a time.

    Three seas are drawn from the seed (haldane-shastry, one- and
    two-component finite-range) and run at L = 256. Blocks of 512 and 1024
    run on fixed seas: the two of the acceptance tests, finite-range
    (1, 1/2) at mu = 17/4 (the L ladder 256, 512, 1024 whose slope and
    decay are checked) and haldane-shastry at half filling, plus eight
    more closed-form seas at L = 512. The eigensolver hits its iteration
    cap on about one random sea in a hundred at L = 512 and one in five
    at L = 1024, so seed-drawn seas there would fail on some seeds only;
    the half-filled L = 1024 block fails that way on every run and is
    counted in ``failed``.

    The ten L = 512 blocks (about a second each) hold the median and
    half of the round's time, spread over the round so that their median
    samples the whole run. A round takes 20-25 s, so that two fit in a
    50-second run.
    """

    name = "entropy-blocks"
    salt = 2

    def __init__(self, seed, smoke=False, outdir="."):
        super().__init__(seed, smoke, outdir)
        rng = self.rng
        mid, large, top = (64, 128, 256) if smoke else (256, 512, 1024)
        hs, fr = Chain("haldane-shastry"), Chain("finite-range", (1.0, 0.1))
        ladder = (Chain("finite-range", (1.0, 0.5)), 4.25, (mid, large, top))
        half = (hs, 3.0 * math.pi ** 2 / 8.0, (large, top))
        drawn = [
            (hs, float(rng.uniform(1.5, 3.5)), (mid,)),
            (Chain("finite-range", (1.0, float(rng.uniform(0.05, 0.2)))),
             float(rng.uniform(1.5, 3.0)), (mid,)),
            _two_component_chain(rng) + ((mid,),),
        ]
        fixed = [(hs, mu, (large,)) for mu in (1.0, 1.5, 2.0, 2.5, 3.0)]
        fixed += [(fr, mu, (large,)) for mu in (1.5, 2.0, 2.5)]
        if smoke:
            fixed = fixed[2:3] + fixed[6:7]
        self.seas = [ladder, half] + drawn + fixed
        blocks = [(k, L) for k, (_, _, sizes) in enumerate(self.seas) for L in sizes]
        # one block of another size after every two of the median class
        # (starting with a small one, the warm-up)
        median_class = [b for b in blocks if b[1] == large]
        others = sorted((b for b in blocks if b[1] != large), key=lambda b: b[1])
        self.ops = []
        for j, other in enumerate(others):
            self.ops += [other] + median_class[2 * j:2 * j + 2]
        self.ops += median_class[2 * len(others):]

    def run_op(self, i, tag):
        k, L = self.ops[i]
        chain, mu, _ = self.seas[k]
        base = chain.cli_flags() + ["--mu", repr(mu), "--L", str(L)]
        paths = []
        for cmd, extra in (("entropy", ["--alpha", ALPHA_FLAG, "--compare"]),
                           ("fh-check", [])):
            path = os.path.join(self.outdir, f"{tag}-op{i:02d}-{cmd}.csv")
            rc = fc_cli.run([cmd] + base + extra + ["--output", path])
            if rc != 0:
                raise RuntimeError(f"fermichain {cmd} exited with code {rc}")
            paths.append(path)
        return tuple(paths)

    def check(self, rounds):
        refs = {}
        for k, L in self.ops:
            chain, mu, _ = self.seas[k]
            refs[k, L] = bm.toeplitz_eigenvalues(bm.sea_row(chain.half_sea(mu), L))

        def check_one(i, got, outputs):
            k, L = self.ops[i]
            entropies, deviation = got
            for alpha in ALPHAS:
                s, _ = entropies[alpha]
                want = bm.renyi(refs[k, L], alpha)
                expect(abs(s - want) <= entropy_tolerance(refs[k, L], alpha),
                       f"S_{alpha}(L={L}) {s!r} vs eigvalsh {want!r}")
            expect(deviation < 1e-2, f"FH deviation {deviation} at L={L}")
            self._check_sea(k, outputs)

        return _statuses([[got if isinstance(got, Exception) else self._parse(got)
                           for got in outputs] for outputs in rounds], check_one)

    def _check_sea(self, k, outputs):
        """Properties across the L ladder of sea k within one round."""
        pts = sorted(((self.ops[i][1], got) for i, got in enumerate(outputs)
                      if self.ops[i][0] == k and not isinstance(got, Exception)),
                     key=lambda point: point[0])
        if len(pts) < 2:
            return
        sizes = np.array([L for L, _ in pts], dtype=float)
        s1 = np.array([got[0][1.0][0] for _, got in pts])
        slope = np.polyfit(np.log(sizes), s1, 1)[0]
        chain, mu, _ = self.seas[k]
        want = len([x for iv in chain.half_sea(mu) for x in iv if 0.0 < x < math.pi]) / 3.0
        expect(abs(slope / want - 1.0) < 0.02,
               f"S_1 slope {slope:.5f} vs (m+1)/3 = {want:.5f}")
        # |r_L| falls steadily only at alpha = 1: for alpha > 1 the leading
        # correction oscillates as cos(2 p_F L) L^(-2/alpha), and at alpha < 1
        # the exact entropy sits on the eigenvalue rounding floor
        r = [abs(got[0][1.0][1]) for _, got in pts]
        expect(strictly_decreasing(r), f"|r_L| at alpha=1 not decreasing: {r}")
        # beats of the Fermi points reach the determinant too, so, as in the
        # acceptance tests, demand decay across doubled sizes, not stepwise
        dev = [got[1] for _, got in pts]
        expect(dev[-1] < dev[0] and all(dev[i + 2] < dev[i] for i in range(len(dev) - 2)),
               f"FH deviation not decaying with L: {dev}")

    @staticmethod
    def _parse(paths):
        """(entropies by alpha as (s_exact, r_L), FH deviation), or a
        Mismatch when the files are missing or malformed."""
        entropy_path, fh_path = paths
        try:
            with open(entropy_path, encoding="utf-8", newline="") as f:
                rows = list(csv.DictReader(f))
            entropies = {float(r["alpha"]): (float(r["s_exact"]), float(r["r_L"]))
                         for r in rows}
            with open(fh_path, encoding="utf-8", newline="") as f:
                (row,) = list(csv.DictReader(f))
            expect(sorted(entropies) == sorted(ALPHAS), f"orders {sorted(entropies)}")
            return entropies, float(row["deviation"])
        except (OSError, KeyError, ValueError) as exc:
            return Mismatch(f"unreadable output: {exc}")
        except Mismatch as exc:
            return exc


WORKLOADS = {w.name: w for w in (ThermoFit, EntropyBlocks)}
