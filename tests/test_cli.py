import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fermichain import (
    DispersionProfile,
    InteractionModel,
    correlation_spectrum,
    fermi_points,
    free_energy,
    renyi_exact,
)
from fermichain import cli, criticality, spectral
from fermichain.cli import main, run

FIG8 = ["--model", "finite-range", "--coeffs", "1,0.5", "--mu", "4.25"]
HS2 = ["--model", "haldane-shastry", "--mu", "2"]


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_phase_json_two_component(tmp_path):
    out = str(tmp_path / "phase.json")
    assert run(["phase", *FIG8, "--format", "json", "--output", out]) == 0
    doc = read_json(out)
    assert set(doc) == {"config", "results", "meta"}
    assert doc["config"]["command"] == "phase"
    assert doc["config"]["mu"] == 4.25
    assert doc["meta"]["version"]
    assert doc["meta"]["runtime_s"] > 0
    res = doc["results"]
    assert res["phase"] == "critical"
    assert res["central_charge"] == 2
    ps = [r["p"] for r in res["roots"]]
    assert abs(ps[0] - 1.71777) < 5e-5
    assert abs(ps[1] - 2.59356) < 5e-5
    assert all(r["nu"] == 1 for r in res["roots"])
    assert len(res["sea"]) == 3


def test_phase_csv_one_row_per_root(tmp_path):
    out = str(tmp_path / "phase.csv")
    assert run(["phase", *FIG8, "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["phase", "central_charge", "e_min", "e_max",
                      "root_index", "p", "nu", "velocity"]
    assert len(rows) == 2
    assert rows[0][0] == "critical"
    assert rows[0][4] == "0" and rows[1][4] == "1"
    assert float(rows[1][5]) == pytest.approx(2.59356, abs=5e-5)


def test_phase_csv_gapped_single_row(tmp_path):
    out = str(tmp_path / "phase.csv")
    assert run(["phase", "--model", "haldane-shastry", "--mu", "-1",
                "--output", out]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == "gapped-below"
    # no roots: central charge and root fields are empty cells
    assert rows[0][1] == "" and rows[0][5] == ""


def test_constants_known_value(tmp_path):
    out = str(tmp_path / "constants.csv")
    assert run(["constants", "--alpha", "1,inf", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "i1", "c_tilde"]
    assert float(rows[0][2]) == pytest.approx(0.495018, abs=1e-5)
    assert rows[1][0] == "inf"
    assert float(rows[1][1]) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert float(rows[1][2]) == pytest.approx(0.27970, abs=1e-4)
    # just outside the former 1e-6 snap, and past the overflow of
    # (1 - alpha^2)/(6 alpha) that once gave nan
    assert run(["constants", "--alpha", "1.0000011,1e200",
                "--output", out]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][2]) == pytest.approx(0.49501774120127044918,
                                              abs=1e-12)
    assert math.isfinite(float(rows[1][2]))


def test_entropy_compare_columns(tmp_path):
    out = str(tmp_path / "ent.csv")
    assert run(["entropy", *FIG8, "--alpha", "1,2", "--L", "20:40:10",
                "--compare", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["L", "alpha", "s_exact", "s_asymptotic", "r_L"]
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["20", "20", "30", "30", "40", "40"]
    for r in rows:
        assert abs(float(r[4])) < 1e-2


def test_entropy_without_compare_leaves_gaps(tmp_path):
    out = str(tmp_path / "ent.csv")
    assert run(["entropy", *FIG8, "--alpha", "2", "--L", "16,24",
                "--output", out]) == 0
    header, rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0][3] == "" and rows[0][4] == ""
    # 17 significant digits round-trip to the exact double
    model = InteractionModel.finite_range((1.0, 0.5))
    analysis = fermi_points(DispersionProfile(model), 4.25)
    want = renyi_exact(correlation_spectrum(analysis, 16), 2.0)
    assert float(rows[0][2]) == want


def test_free_energy_table_and_fit(tmp_path):
    out = str(tmp_path / "fe.json")
    assert run(["free-energy", "--model", "haldane-shastry", "--mu", "2",
                "--fit", "--format", "json", "--output", out]) == 0
    doc = read_json(out)
    tab = doc["results"]["table"]
    assert tab["columns"] == ["T", "f", "f0"]
    assert len(tab["rows"]) == 8
    temps = [r[0] for r in tab["rows"]]
    assert temps == sorted(temps)
    fit = doc["results"]["fit"]
    assert fit["exponent"] == pytest.approx(2.0, abs=0.05)
    assert fit["coefficient"] == pytest.approx(
        fit["predicted_coefficient"], rel=2e-2)


def test_free_energy_fit_analyses_once(tmp_path, monkeypatch):
    calls = []
    analyze = criticality._analyze

    def counted(profile, mu):
        calls.append(mu)
        return analyze(profile, mu)

    monkeypatch.setattr(criticality, "_analyze", counted)
    out = str(tmp_path / "fe.json")
    assert run(["free-energy", "--model", "haldane-shastry", "--mu", "2",
                "--T", "0.001:0.01:5", "--fit", "--format", "json",
                "--output", out]) == 0
    assert calls == [2.0]
    prof = DispersionProfile(InteractionModel.haldane_shastry())
    for T, f, f0 in read_json(out)["results"]["table"]["rows"]:
        direct = free_energy(prof, 2.0, T)
        assert (f, f0) == (direct.f, direct.f0)


def test_free_energy_csv_without_fit(tmp_path):
    out = str(tmp_path / "fe.csv")
    assert run(["free-energy", "--model", "haldane-shastry", "--mu", "2",
                "--T", "0.05,0.1", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header[:3] == ["T", "f", "f0"]
    assert len(rows) == 2
    assert rows[0][3] == ""
    assert float(rows[0][1]) < float(rows[0][2])


def test_free_energy_table_takes_one_thermal_pass(tmp_path, monkeypatch):
    # without --fit the table is still one E_grid call after the analysis,
    # made on the core
    shapes = []
    analyze = criticality._analyze
    E_grid = DispersionProfile._E_grid

    def counted(self, p):
        shapes.append(np.shape(p))
        return E_grid(self, p)

    def analyze_then_count(profile, mu):
        analysis = analyze(profile, mu)
        monkeypatch.setattr(DispersionProfile, "_E_grid", counted)
        return analysis

    monkeypatch.setattr(criticality, "_analyze", analyze_then_count)
    out = str(tmp_path / "fe.csv")
    assert run(["free-energy", *HS2, "--T", "0.001:0.01:5",
                "--output", out]) == 0
    assert len(shapes) == 1 and shapes[0][1] == 30
    assert len(read_csv(out)[1]) == 5


def test_fh_check_defaults(tmp_path):
    out = str(tmp_path / "fh.csv")
    assert run(["fh-check", "--model", "haldane-shastry", "--mu", "2",
                "--L", "8,16,32", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["L", "deviation"]
    devs = [float(r[1]) for r in rows]
    assert devs[0] > devs[1] > devs[2] > 0


def test_fh_check_after_entropy_same_bytes(tmp_path):
    # fh-check right after entropy on the same block takes the
    # eigenvalues the solver kept (no new solve), and writes the bytes a
    # fresh solve gives
    outs = []
    for keep in (True, False):
        spectral._solve.cache_clear()
        assert run(["entropy", *FIG8, "--L", "96", "--compare",
                    "--output", str(tmp_path / "s.csv")]) == 0
        if not keep:
            spectral._solve.cache_clear()
        misses = spectral._solve.cache_info().misses
        out = tmp_path / f"fh-{keep}.csv"
        assert run(["fh-check", *FIG8, "--L", "96",
                    "--output", str(out)]) == 0
        assert (spectral._solve.cache_info().misses == misses) == keep
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dispersion_grid(tmp_path):
    out = str(tmp_path / "disp.csv")
    assert run(["dispersion", "--model", "haldane-shastry",
                "--grid-points", "9", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["p", "E", "dE", "d2E"]
    assert len(rows) == 9
    prof = DispersionProfile(InteractionModel.haldane_shastry())
    p = float(rows[4][0])
    assert p == pytest.approx(math.pi, abs=1e-15)
    assert float(rows[4][1]) == pytest.approx(prof.E(math.pi), abs=1e-15)


def test_dispersion_nonfinite_cells(tmp_path):
    # slowly decaying couplings have a divergent curvature at p = 0
    out = str(tmp_path / "disp.csv")
    assert run(["dispersion", "--model", "power-law", "--nu", "2.5",
                "--grid-points", "5", "--output", out]) == 0
    _, rows = read_csv(out)
    assert math.isinf(float(rows[0][3]))


def test_json_maps_nonfinite_and_numpy_values(tmp_path):
    out = str(tmp_path / "disp.json")
    assert run(["dispersion", "--model", "power-law", "--nu", "2.5",
                "--grid-points", "5", "--format", "json",
                "--output", out]) == 0
    doc = read_json(out)
    rows = doc["results"]["rows"]
    assert rows[0][3] == "inf" and rows[-1][3] == "inf"
    assert all(isinstance(v, float) for v in rows[2])
    assert doc["config"]["grid_points"] == 5
    with open(out, "r", encoding="utf-8") as f:
        text = f.read()
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_write_text_leaves_no_stray_file(tmp_path, monkeypatch):
    target = str(tmp_path / "out.csv")
    cli._write_text(target, "a,b\n")
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(target).st_mode & 0o777 == 0o666 & ~umask

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli._write_text(target, "c,d\n")
    assert os.listdir(tmp_path) == ["out.csv"]
    with open(target, "r", encoding="utf-8") as f:
        assert f.read() == "a,b\n"


def test_exit_one_on_bad_flags(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    cases = [
        ["phase", "--model", "nonsense", "--mu", "1"],
        ["phase", "--model", "haldane-shastry"],
        ["phase", "--mu", "1"],
        ["entropy", *FIG8, "--L", "10:5:2"],
        ["entropy", *FIG8],
        ["free-energy", "--model", "haldane-shastry", "--mu", "2",
         "--T", "0:1:5"],
        ["constants", "--alpha", ""],
        ["phase", "--model", "haldane-shastry", "--mu", "abc"],
        ["phase", "--model", "power-law", "--nu", "inf", "--mu", "1"],
        ["nonsense-command"],
        # an output that cannot be written: no such directory, a directory
        ["constants", "--alpha", "2",
         "--output", str(tmp_path / "missing" / "x.csv")],
        ["constants", "--alpha", "2", "--output", str(tmp_path / "taken")],
    ]
    for argv in cases:
        capsys.readouterr()
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_exit_one_on_domain_error(tmp_path, capsys):
    out = str(tmp_path / "ent.csv")
    code = run(["entropy", "--model", "haldane-shastry", "--mu", "-1",
                "--alpha", "1", "--L", "8,16", "--output", out])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


MU_NOT_FINITE = "chemical potential must be finite"
T_NOT_POSITIVE = "temperatures must be positive and finite"

# argv and the library's message that refuses it
REFUSED = {
    **{f"{command}-mu-{mu}": ([command, "--model", "haldane-shastry",
                               "--mu", mu, *tail], MU_NOT_FINITE)
       for mu in ("inf", "nan")
       for command, tail in (("phase", []), ("free-energy", []),
                             ("entropy", ["--L", "8"]), ("fh-check", []))},
    "negative-T": (["free-energy", *HS2, "--T", "-0.001,0.002,0.004,0.008"],
                   T_NOT_POSITIVE),
    "negative-T-fit": (["free-energy", *HS2, "--T",
                        "-0.001,0.002,0.004,0.008", "--fit"],
                       T_NOT_POSITIVE),
    "repeated-T-fit": (["free-energy", *HS2, "--T",
                        "0.001,0.001,0.001,0.001", "--fit"],
                       "need at least 4 distinct temperatures"),
    "fh-check-lambda-nan": (["fh-check", *HS2, "--lambda-re", "nan"],
                            "lambda=(nan+0j) is not finite"),
    "fh-check-lambda-inf": (["fh-check", *HS2, "--lambda-im", "inf"],
                            "lambda=(3+infj) is not finite"),
    "rational-cubic-overflow": (["phase", "--model", "rational-cubic",
                                 "--J", "1e308", "--mu", "1"],
                                "the band overflows"),
    "power-law-overflow": (["phase", "--model", "power-law", "--nu", "2.5",
                            "--C", "1e308", "--mu", "1"],
                           "the band overflows"),
    "dispersion-rational-cubic-overflow": (
        ["dispersion", "--model", "rational-cubic", "--J", "1e308"],
        "the band overflows"),
    "dispersion-power-law-overflow": (
        ["dispersion", "--model", "power-law", "--nu", "2.5", "--C", "1e308"],
        "the band overflows"),
    # E is finite everywhere, but E' overflows next to the cusp
    "dispersion-power-law-slope-overflow": (
        ["dispersion", "--model", "power-law", "--nu", "1.6", "--C", "1e307",
         "--grid-points", "100000"],
        "the band overflows: E' is inf at p = 6.283248139660983e-05;"),
    # E is finite at the band's extrema, but E' overflows in the scan for
    # them, next to the cusp
    **{f"{command}-power-law-slope-overflow": (
        [command, "--model", "power-law", "--nu", "1.6", "--C", "1e307",
         "--mu", "1"],
        "the band overflows: E' is inf at p = 1.7857886709804195e-13;")
       for command in ("phase", "free-energy")},
    # E and E' are finite, E'' overflows away from the cusp
    "dispersion-power-law-curvature-overflow": (
        ["dispersion", "--model", "power-law", "--nu", "1.6", "--C", "1e305",
         "--grid-points", "100000"],
        "the band overflows: E'' is -inf at p = 6.283248139660983e-05;"),
}


@pytest.mark.parametrize("argv, message", REFUSED.values(),
                         ids=REFUSED.keys())
def test_library_refusals_exit_one(tmp_path, capsys, argv, message):
    # a non-finite mu or lambda or a non-positive temperature is refused
    # by the library, not by a second check in the front end, and no
    # refusal is preceded by a warning
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert os.listdir(tmp_path) == []


LAMBDA_NOT_FINITE = "lambda=.* is not finite"
COEFFS_NOT_FINITE = "finite-range couplings must be finite"

# argv whose last value starts with a dash, and the phase it finds or the
# library's refusal of it
NEGATIVE_VALUES = {
    "mu-e-notation": (["phase", "--model", "haldane-shastry",
                       "--mu", "-1e-3"], "gapped-below"),
    "mu-leading-dot": (["phase", "--model", "haldane-shastry",
                        "--mu", "-.5"], "gapped-below"),
    "coeffs-list": (["phase", "--model", "finite-range", "--mu", "-1",
                     "--coeffs", "-1,0.5"], "critical"),
    **{f"mu{token}": (["phase", "--model", "haldane-shastry", "--mu", token],
                      MU_NOT_FINITE)
       for token in ("-inf", "-Infinity", "-INF", "-nan", "-NaN")},
    "lambda-re-inf": (["fh-check", *HS2, "--lambda-re", "-inf"],
                      LAMBDA_NOT_FINITE),
    "lambda-im-nan": (["fh-check", *HS2, "--lambda-im", "-nan"],
                      LAMBDA_NOT_FINITE),
    **{f"coeffs{token}": (["phase", "--model", "finite-range", "--mu", "1",
                           "--coeffs", token], COEFFS_NOT_FINITE)
       for token in ("-inf,0.5", "-nan,0.5")},
}


@pytest.mark.parametrize("argv, outcome", NEGATIVE_VALUES.values(),
                         ids=NEGATIVE_VALUES.keys())
def test_negative_values_reach_their_converters(tmp_path, capsys, argv,
                                                outcome):
    # a negative value as its own token reads as it does after "=": the
    # same output, or the same refusal by the library
    out, want = tmp_path / "sep.csv", tmp_path / "eq.csv"
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    if outcome in (MU_NOT_FINITE, LAMBDA_NOT_FINITE, COEFFS_NOT_FINITE):
        errors = []
        for args in (argv, joined):
            assert run([*args, "--output", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert re.match(f"error: {outcome}", errors[-1]), errors[-1]
        assert errors[0] == errors[1]
        assert os.listdir(tmp_path) == []
        return
    assert run([*argv, "--output", str(out)]) == 0
    assert read_csv(out)[1][0][0] == outcome
    assert run([*joined, "--output", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


FRONT_END_REFUSED = {
    "coeffs-token": ["phase", "--model", "finite-range", "--coeffs", "1,x",
                     "--mu", "1"],
    "alpha-token": ["entropy", *HS2, "--alpha", "one", "--L", "8"],
    "T-token": ["free-energy", *HS2, "--T", "0.01,warm"],
    "L-token": ["entropy", *HS2, "--L", "8,ten"],
    "L-range-two-parts": ["entropy", *HS2, "--L", "8:16"],
    "L-range-token": ["entropy", *HS2, "--L", "8:x:2"],
    "L-range-zero-step": ["entropy", *HS2, "--L", "8:16:0"],
    "T-range-two-parts": ["free-energy", *HS2, "--T", "0.001:0.01"],
    "T-count-token": ["free-energy", *HS2, "--T", "0.001:0.01:many"],
    "T-count-one": ["free-energy", *HS2, "--T", "0.001:0.01:1"],
    "missing-coeffs": ["phase", "--model", "finite-range", "--mu", "1"],
    "missing-nu": ["phase", "--model", "power-law", "--mu", "1"],
    "missing-J": ["phase", "--model", "rational-cubic", "--mu", "1"],
    "grid-points-1": ["dispersion", "--model", "haldane-shastry",
                      "--grid-points", "1"],
    "stub-on-phase": ["phase", *HS2, "--gnuplot-stub"],
}


@pytest.mark.parametrize("case, argv", FRONT_END_REFUSED.items(),
                         ids=FRONT_END_REFUSED.keys())
def test_front_end_refusals_exit_one(tmp_path, capsys, case, argv):
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert os.listdir(tmp_path) == []
    # a malformed token, range or grid size is refused by the name of
    # its flag
    flag = ("grid-points" if case.startswith("grid-points")
            else case.split("-")[0])
    if flag in ("coeffs", "alpha", "T", "L", "grid-points"):
        assert f"argument --{flag}:" in err


# each CLI family's own model flags, and a value of every model flag
MODEL_FLAGS = {
    "haldane-shastry": [],
    "finite-range": ["coeffs"],
    "power-law": ["nu", "C"],
    "rational-cubic": ["J"],
}
FLAG_VALUES = {"coeffs": "1,0.5", "nu": "2.5", "C": "2", "J": "0.6"}
FOREIGN_FLAGS = [(family, flag) for family, own in MODEL_FLAGS.items()
                 for flag in FLAG_VALUES if flag not in own]


@pytest.mark.parametrize("family, flag", FOREIGN_FLAGS,
                         ids=[f"{fam}-{flag}" for fam, flag in FOREIGN_FLAGS])
def test_model_flag_of_another_family_refused(tmp_path, capsys, family,
                                              flag):
    # a model flag the family does not take was ignored yet echoed in
    # the JSON config; as a flag or a config key it is refused by the
    # name of its model field
    own = [t for f in MODEL_FLAGS[family] for t in (f"--{f}", FLAG_VALUES[f])]
    argv = ["phase", "--model", family, *own, "--mu", "1", "--format",
            "json", "--output", str(tmp_path / "p.json")]
    field = "alphas" if flag == "coeffs" else flag
    want = f"error: {family} model takes no {field}\n"
    assert run([*argv, f"--{flag}", FLAG_VALUES[flag]]) == 1
    assert capsys.readouterr().err == want
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: FLAG_VALUES[flag]}))
    assert run([*argv, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == want
    assert os.listdir(tmp_path) == ["cfg.json"]


# per command, its required flags in full; each is left out in turn
REQUIRED_FLAGS = {
    "dispersion": ["--model", "haldane-shastry"],
    "phase": HS2,
    "free-energy": HS2,
    "entropy": [*HS2, "--L", "8"],
    "fh-check": HS2,
}
MISSING_FLAG = [(command, k) for command, flags in REQUIRED_FLAGS.items()
                for k in range(0, len(flags), 2)]


@pytest.mark.parametrize(
    "command, k", MISSING_FLAG,
    ids=[f"{c}{REQUIRED_FLAGS[c][k]}" for c, k in MISSING_FLAG])
def test_required_flag_refused_before_the_command_runs(
        tmp_path, capsys, monkeypatch, command, k):
    def analyze(*args):
        raise AssertionError("the Fermi analysis ran")

    monkeypatch.setattr(criticality, "_analyze", analyze)
    flags = REQUIRED_FLAGS[command]
    argv = [command, *flags[:k], *flags[k + 2:], "--output",
            str(tmp_path / "out.csv")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {flags[k]} is required\n"
    assert os.listdir(tmp_path) == []


def test_exit_two_on_rejected_fit(tmp_path, capsys):
    out = str(tmp_path / "fe.csv")
    code = run(["free-energy", "--model", "haldane-shastry", "--mu", "-0.5",
                "--fit", "--output", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0
    # failure must not leave behind partial output
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".tmp")


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_exit_two_on_overflowing_thermal_ratio(tmp_path):
    # E fits in doubles but |E - mu| / T does not: the infinite ratio is
    # a left-out term of the Fermi integrand, not a numpy warning, and
    # the run fails only on its quadrature gate
    out = tmp_path / "fe.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fermichain.cli", "free-energy", "--model",
         "rational-cubic", "--J", "1e306", "--mu", "1", "--output", str(out)],
        env=_src_env(), cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == ("error: ground-energy quadrature reached only "
                           "3.318e+290 (target 1e-10) at T=0.001\n")
    assert os.listdir(tmp_path) == []


def test_power_law_large_orders_run(tmp_path):
    # orders past the polylog series' kept terms once raised IndexError
    # or OverflowError, or never returned
    for argv in (["phase", "--model", "power-law", "--nu", "101", "--mu", "1"],
                 ["dispersion", "--model", "power-law", "--nu", "400"],
                 ["phase", "--model", "power-law", "--nu", "1e308",
                  "--mu", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "fermichain.cli", *argv, "--output",
             str(tmp_path / "out.csv")], env=_src_env(), cwd=tmp_path,
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_csv_runs_are_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    argv = ["entropy", *FIG8, "--alpha", "1", "--L", "16,32", "--compare"]
    assert run(argv + ["--output", a]) == 0
    assert run(argv + ["--output", b]) == 0
    with open(a, "rb") as f:
        da = f.read()
    with open(b, "rb") as f:
        db = f.read()
    assert da == db


def test_json_runs_identical_up_to_runtime(tmp_path):
    out = str(tmp_path / "a.json")
    argv = ["constants", "--alpha", "0.5,1,2", "--format", "json",
            "--output", out]

    def lines():
        with open(out, "r", encoding="utf-8") as f:
            return [ln for ln in f if "runtime_s" not in ln]

    assert run(argv) == 0
    first = lines()
    assert run(argv) == 0
    assert lines() == first


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "finite-range",
        "coeffs": [1, 0.5],
        "mu": 4.25,
        "format": "json",
    }))
    out = str(tmp_path / "p.json")
    assert run(["phase", "--config", str(cfg), "--output", out]) == 0
    assert read_json(out)["results"]["central_charge"] == 2

    # explicit flags win over the config file
    out2 = str(tmp_path / "p2.json")
    assert run(["phase", "--config", str(cfg), "--mu", "-1",
                "--output", out2]) == 0
    doc = read_json(out2)
    assert doc["config"]["mu"] == -1
    assert doc["results"]["phase"] == "gapped-below"


def test_parser_shared_across_runs(tmp_path, capsys):
    # the parser is built once per process; a failed parse, a config
    # merge and a plain run each write what they write on a fresh one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "finite-range", "coeffs": [1, 0.5],
                               "mu": 4.25}))
    runs = [["phase", "--model", "haldane-shastry", "--mu", "abc"],
            ["phase", "--config", str(cfg), "--mu", "-1"],
            ["entropy", *FIG8, "--alpha", "0.5,inf", "--L", "16"]]

    def outputs(tag, fresh):
        got = []
        for k, argv in enumerate(runs):
            if fresh:
                cli._build_parser.cache_clear()
            out = tmp_path / f"{tag}{k}.csv"
            code = run([*argv, "--output", str(out)])
            got.append((code, capsys.readouterr().err,
                        out.read_bytes() if out.exists() else None))
        return got

    shared = outputs("shared", fresh=False)
    assert [code for code, _, _ in shared] == [1, 0, 0]
    assert outputs("alone", fresh=True) == shared


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    assert run(["phase", "--config", str(cfg), "--mu", "1"]) == 1
    assert "bogus" in capsys.readouterr().err

    # null and a bool spell no value of a valued flag
    for value in (None, True):
        cfg.write_text(json.dumps({"mu": value}))
        assert run(["phase", "--config", str(cfg), "--model",
                    "haldane-shastry"]) == 1
        assert capsys.readouterr().err == (
            f"error: config key mu has no flag value: {value!r}\n")

    cfg.write_text("[1, 2]")
    assert run(["phase", "--config", str(cfg), "--mu", "1"]) == 1

    cfg.write_text("{not json")
    assert run(["phase", "--config", str(cfg), "--mu", "1"]) == 1

    assert run(["phase", "--config", str(tmp_path / "absent.json"),
                "--mu", "1"]) == 1


@pytest.mark.parametrize("argv, config, flags", [
    (["dispersion", "--model", "haldane-shastry"], {"grid_points": "64"},
     ["--grid-points", "64"]),
    (["fh-check", *HS2, "--L", "8"], {"lambda_re": "3.0"},
     ["--lambda-re", "3.0"]),
    (["dispersion", "--model", "haldane-shastry"], {"grid_points": 10.5},
     None),
    (["dispersion", "--model", "haldane-shastry"], {"grid_points": 1},
     None),
    (["free-energy", *HS2], {"fit": "no"}, None),
    (["entropy", *HS2, "--L", "8"], {"compare": True}, ["--compare"]),
    (["entropy", *HS2, "--L", "8", "--compare"], {"compare": False}, []),
    (["entropy", *HS2], {"alpha": [0.5, "inf"], "L": "8:32:8"},
     ["--alpha", "0.5,inf", "--L", "8:32:8"]),
    (["free-energy", *HS2], {"T": [0.001, 0.002, 0.004, 0.008]},
     ["--T", "0.001,0.002,0.004,0.008"]),
], ids=["int-string", "float-string", "fractional-int", "grid-points-one",
        "switch-string", "switch-true", "switch-flag-wins",
        "float-list-and-range", "temperature-list"])
def test_config_values_parse_like_flags(tmp_path, capsys, argv, config,
                                        flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "from_config.csv"
    code = run([*argv, "--config", str(cfg), "--output", str(out)])
    if flags is None:
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if "grid_points" in config:
            assert "argument --grid-points:" in err
        assert not out.exists()
    else:
        assert code == 0
        want = tmp_path / "from_flags.csv"
        assert run([*argv, *flags, "--output", str(want)]) == 0
        assert out.read_bytes() == want.read_bytes()


def test_gnuplot_stub(tmp_path, capsys):
    out = str(tmp_path / "fh.csv")
    assert run(["fh-check", "--model", "haldane-shastry", "--mu", "2",
                "--L", "8,16", "--gnuplot-stub", "--output", out]) == 0
    with open(out + ".gp", "r", encoding="utf-8") as f:
        stub = f.read()
    assert "fh.csv" in stub and "plot" in stub

    # the stub targets csv data only
    assert run(["fh-check", "--model", "haldane-shastry", "--mu", "2",
                "--L", "8", "--format", "json", "--gnuplot-stub",
                "--output", str(tmp_path / "fh.json")]) == 1
    assert "csv" in capsys.readouterr().err


def test_gnuplot_stub_unwritable_leaves_no_file(tmp_path, capsys):
    # the stub's path is a directory: the run exits 1 and leaves neither
    # the data file nor the stub, nor any temp file
    (tmp_path / "x.csv.gp").mkdir()
    out = str(tmp_path / "x.csv")
    assert run(["constants", "--alpha", "2", "--gnuplot-stub",
                "--output", out]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(tmp_path) == ["x.csv.gp"]
    assert os.listdir(tmp_path / "x.csv.gp") == []


def test_stub_refused_before_the_command_runs(tmp_path, capsys,
                                              monkeypatch):
    # both --gnuplot-stub refusals come before any computation: phase,
    # which has no default plot, never starts its Fermi analysis
    def analyze(*args):
        raise AssertionError("the Fermi analysis ran")

    monkeypatch.setattr(criticality, "_analyze", analyze)
    out = str(tmp_path / "p.csv")
    assert run(["phase", *HS2, "--gnuplot-stub", "--output", out]) == 1
    assert capsys.readouterr().err == (
        "error: phase has no default plot; drop --gnuplot-stub\n")
    assert run(["phase", *HS2, "--gnuplot-stub", "--format", "json",
                "--output", out]) == 1
    assert capsys.readouterr().err == (
        "error: --gnuplot-stub needs --format csv\n")
    assert os.listdir(tmp_path) == []


# per command, flags and the JSON config keys they give besides command,
# format, output and gnuplot_stub: every flag that is set, --model as
# family, --T as T_values and --L as L_values
CONFIG_ECHO = {
    "dispersion": (["--model", "power-law", "--nu", "2.5", "--C", "2",
                    "--grid-points", "5"],
                   {"family", "nu", "C", "grid_points"}),
    "phase": (FIG8, {"family", "coeffs", "mu"}),
    "free-energy": ([*HS2, "--T", "0.01,0.02"],
                    {"family", "mu", "T_values", "fit"}),
    "entropy": ([*HS2, "--L", "8"],
                {"family", "mu", "alpha", "L_values", "compare"}),
    "fh-check": (["--model", "rational-cubic", "--J", "0.6", "--mu", "1",
                  "--L", "8"],
                 {"family", "J", "mu", "L_values", "lambda_re", "lambda_im"}),
    "constants": (["--alpha", "2"], {"alpha"}),
}


@pytest.mark.parametrize("command", CONFIG_ECHO)
def test_json_config_echoes_the_flags(tmp_path, monkeypatch, command):
    flags, keys = CONFIG_ECHO[command]
    monkeypatch.chdir(tmp_path)
    default = command.replace("-", "_") + ".json"
    assert run([command, *flags, "--format", "json"]) == 0
    config = read_json(default)["config"]
    assert config.keys() == keys | {"command", "format", "output",
                                    "gnuplot_stub"}
    assert (config["command"], config["output"]) == (command, default)
    # the same flags from a config file: the same echo, and no --config
    (tmp_path / "cfg.json").write_text(json.dumps(
        dict(zip([f[2:] for f in flags[::2]], flags[1::2]))))
    assert run([command, "--config", "cfg.json", "--format", "json",
                "--output", "from_file.json"]) == 0
    assert read_json("from_file.json")["config"] == {
        **config, "output": "from_file.json"}


def test_lambda_flags(tmp_path):
    out = str(tmp_path / "fh.csv")
    assert run(["fh-check", "--model", "haldane-shastry", "--mu", "2",
                "--L", "8", "--lambda-re", "2", "--lambda-im", "0.5",
                "--format", "json", "--output", out]) == 0
    doc = read_json(out)
    assert doc["config"]["lambda_re"] == 2
    assert doc["config"]["lambda_im"] == 0.5


def test_main_exits_with_run_code(tmp_path, monkeypatch):
    out = str(tmp_path / "c.csv")
    monkeypatch.setattr("sys.argv",
                        ["fermichain", "constants", "--alpha", "2",
                         "--output", out])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert os.path.exists(out)


RC = ["--model", "rational-cubic", "--J", "0.6", "--mu", "1"]
PL = ["--model", "power-law", "--nu", "2.5", "--mu", "1.5"]

# (name, the runs after which the probe lists the _PROBE_MODULES loaded),
# in the order they run in one process
_PROBE_STEPS = [
    ("hs_fr", [["phase", *HS2], ["free-energy", *FIG8, "--fit"]]
     + [["dispersion", *model[:-2]] for model in (HS2, FIG8)]),
    ("rc_pl", [[command, *model, *tail] for model in (RC, PL)
               for command, tail in (("phase", []),
                                     ("free-energy", ["--fit"]))]
     + [["dispersion", *model[:-2]] for model in (RC, PL)]),
    ("constants", [["constants"]]),
    ("fh_check", [["fh-check", *HS2, "--L", "8,16"]]),
    ("entropy", [["entropy", *HS2, "--L", "64", "--alpha", "0.5,1,inf",
                  "--compare"]]),
]

# the lazily loaded parts of numpy a command may pull in as a side
# effect; the probe also lists every scipy module loaded, and every
# file of scipy's package or of its bundled libraries that is mapped
_PROBE_MODULES = ["numpy.ma", "numpy.polynomial"]

_IMPORT_PROBE = """
import json, sys
import fermichain
from fermichain import cli
MODULES = json.loads(sys.argv[1])

def loaded():
    with open("/proc/self/maps") as maps:
        files = {line.split()[-1] for line in maps
                 if "/scipy/" in line or "/scipy.libs/" in line}
    return sorted(files) + sorted(
        m for m in sys.modules if m in MODULES or m.split(".")[0] == "scipy")

seen = {"import": loaded()}
for name, runs in json.loads(sys.argv[2]):
    for argv in runs:
        assert cli.run(argv) == 0, argv
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_cold_commands_load_only_the_modules_they_use(tmp_path):
    # a fresh process: importing fermichain and the phase, dispersion and
    # free-energy commands of every family, and constants, load no scipy
    # module or file, no numpy.ma and no numpy.polynomial; nor do
    # fh-check and entropy, whose spectrum binds numpy's own OpenBLAS
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                            json.dumps(_PROBE_MODULES),
                            json.dumps(_PROBE_STEPS)], env=_src_env(),
                           cwd=tmp_path, capture_output=True, text=True,
                           check=True)
    seen = json.loads(probe.stdout)
    assert seen["import"] == []
    assert seen["hs_fr"] == []
    assert seen["rc_pl"] == []
    assert seen["constants"] == []
    assert seen["fh_check"] == []
    assert seen["entropy"] == []
