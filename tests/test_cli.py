import json
import math
import os

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
from fermichain import cli, criticality
from fermichain.cli import main, run

FIG8 = ["--model", "finite-range", "--coeffs", "1,0.5", "--mu", "4.25"]


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


def test_fh_check_defaults(tmp_path):
    out = str(tmp_path / "fh.csv")
    assert run(["fh-check", "--model", "haldane-shastry", "--mu", "2",
                "--L", "8,16,32", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["L", "deviation"]
    devs = [float(r[1]) for r in rows]
    assert devs[0] > devs[1] > devs[2] > 0


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
        ["nonsense-command"],
    ]
    for argv in cases:
        capsys.readouterr()
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0


def test_exit_one_on_domain_error(tmp_path, capsys):
    out = str(tmp_path / "ent.csv")
    code = run(["entropy", "--model", "haldane-shastry", "--mu", "-1",
                "--alpha", "1", "--L", "8,16", "--output", out])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    assert run(["phase", "--config", str(cfg), "--mu", "1"]) == 1
    assert "bogus" in capsys.readouterr().err

    cfg.write_text("[1, 2]")
    assert run(["phase", "--config", str(cfg), "--mu", "1"]) == 1

    cfg.write_text("{not json")
    assert run(["phase", "--config", str(cfg), "--mu", "1"]) == 1

    assert run(["phase", "--config", str(tmp_path / "absent.json"),
                "--mu", "1"]) == 1


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
