"""The output of every subcommand on fixed configs, compared column by
column with the stored files under tests/golden/, which
tests/golden/regenerate.py writes.

Each float column has its tolerance next to it below, about ten times the
largest shift the column has shown across 28 earlier commits, 6f3b897 to
5928647: six eigensolvers from Householder tridiagonalisation with dsterf
to LAPACK's dsytrd_sy2sb, the in-house zeta, the array Fermi factor and
the monotone-piece root finder among them. The solver since, LAPACK's
dsytrd and dsterf on both parity sectors of one buffer, stays within
those tolerances. A column that never moved takes the accuracy its
computation claims. 1 and 2 BLAS threads give the
same bytes. Integer and text columns, and the input grids T, L and
alpha, must match exactly; so must a JSON document's config, while its
meta.runtime_s is not compared.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fermichain.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

# eigenvalues within FLOOR of 0 or 1 are the eigensolver's rounding noise
FLOOR = 1e-13
# s_exact at alpha >= 1: 2.1e-10 moved at most, finite-range L 2048 alpha
# 1. Below alpha = 1 add, per row, the kernel at FLOOR times the number of
# eigenvalues within FLOOR of 0 or 1: 1.1e-4 moved there, finite-range L
# 2048 alpha 0.5, against that row's bound of 1.2e-3
S_EXACT = 2e-9
# r_L = s_asymptotic / s_exact - 1 takes its tolerance from those of the
# two entropies, plus a few rounding errors of the quotient
R_ROUNDING = 1e-15
TOLERANCE = {
    # dispersion: 1.1e-14 / 5.3e-15 / 1.8e-15 moved at most, power-law,
    # before the in-house zeta
    "E": 1e-13, "dE": 5e-14, "d2E": 2e-14,
    # phase: e_max moved 7.1e-15 (power-law), e_min never; velocity moved
    # 4.4e-16; p never moved, and 1e-13 is the root bisection's tolerance
    "e_min": 1e-13, "e_max": 1e-13, "p": 1e-13, "velocity": 5e-15,
    # free-energy: f and f0 moved 2.2e-16; fit exponent, coefficient and
    # residual 3.1e-10 / 1.9e-10 / 1.6e-10, all before the in-house zeta;
    # the predicted coefficient 5.6e-17
    "f": 2e-15, "f0": 2e-15, "fit_exponent": 3e-9, "fit_coefficient": 2e-9,
    "residual": 2e-9, "fit_predicted": 1e-15,
    # constants: i1 is a closed form; c_tilde never moved, and its two
    # independent routes differ by up to 4.3e-14
    "i1": 1e-15, "c_tilde": 1e-12,
    # s_asymptotic never moved; it is c_tilde's bound
    "s_asymptotic": 1e-12,
    # fh-check deviation: 1.1e-11 moved at most, finite-range L 2048
    "deviation": 1e-10,
}
# JSON result names -> the CSV column whose tolerance they take
_JSON_NAMES = {"exponent": "fit_exponent", "coefficient": "fit_coefficient",
               "predicted_coefficient": "fit_predicted", "sea": "p"}


def _kernel(x, alpha):
    # the Renyi entropy of one eigenvalue x, alpha < 1
    return math.log(x ** alpha + (1.0 - x) ** alpha) / (1.0 - alpha)


def _read(path):
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def _entropy_tolerances(row, spectra):
    # tolerances of s_exact and r_L in one entropy row
    L, alpha, s_exact, s_app, _ = row
    alpha, s_exact, s_app = float(alpha), float(s_exact), float(s_app)
    exact = S_EXACT
    if alpha < 1.0:
        lam = spectra[int(L)]
        hidden = np.count_nonzero(np.minimum(lam, 1.0 - lam) < FLOOR)
        exact += hidden * _kernel(FLOOR, alpha)
    r_L = ((abs(s_app) * exact / s_exact + TOLERANCE["s_asymptotic"])
           / abs(s_exact) + R_ROUNDING)
    return {**TOLERANCE, "s_exact": exact, "r_L": r_L}


def _mismatches(header, want, got, tolerance):
    # the cells of `got` that differ from `want` by more than their
    # column's tolerance; a column without one must match as text
    assert len(got) == len(want)
    off = []
    for w, g in zip(want, got):
        tol = tolerance(w)
        for column, a, b in zip(header, w, g):
            t = tol.get(column)
            if a != b and (t is None or not abs(float(a) - float(b)) <= t):
                off.append((column, w[:2], a, b, t))
    return off


def _table(results):
    # a JSON results object as (header, rows of CSV cells): a table as it
    # is, anything else as one row of its leaves, named by their key
    if "columns" in results:
        return results["columns"], [[cli._fmt_cell(v) for v in row]
                                    for row in results["rows"]]
    leaves = []

    def walk(obj, name):
        if isinstance(obj, dict) and "columns" in obj:
            for row in obj["rows"]:
                leaves.extend(zip(obj["columns"], row))
        elif isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], key)
        elif isinstance(obj, list):
            for v in obj:
                walk(v, name)
        else:
            leaves.append((_JSON_NAMES.get(name, name), obj))

    walk(results, None)
    return [n for n, _ in leaves], [[cli._fmt_cell(v) for _, v in leaves]]


@pytest.fixture
def spectra(monkeypatch):
    # the eigenvalues of every block a command builds, by L
    kept = {}
    build = cli.correlation_spectrum

    def keep(analysis, L):
        spectrum = build(analysis, L)
        kept[L] = spectrum.eigenvalues
        return spectrum

    monkeypatch.setattr(cli, "correlation_spectrum", keep)
    return kept


def _tolerance(name, spectra):
    if name.startswith("entropy"):
        return lambda row: _entropy_tolerances(row, spectra)
    return lambda row: TOLERANCE


@pytest.mark.parametrize("name", sorted(regenerate.GOLDEN))
def test_cli_output_matches_golden(name, tmp_path, spectra):
    out = tmp_path / name
    assert cli.run([*regenerate.GOLDEN[name], "--output", str(out)]) == 0
    header, want = _read(GOLDEN / name)
    got_header, got = _read(out)
    assert got_header == header
    assert _mismatches(header, want, got, _tolerance(name, spectra)) == []


@pytest.mark.parametrize("name", sorted(regenerate.GOLDEN_JSON))
def test_cli_json_matches_golden(name, tmp_path, monkeypatch, spectra):
    argv = regenerate.GOLDEN_JSON[name]
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv) == 0
    want = json.loads((GOLDEN / name).read_text())
    got = json.loads((tmp_path / regenerate.default_output(argv)).read_text())
    assert got.keys() == want.keys() == {"config", "results", "meta"}
    assert got["config"] == want["config"]
    assert got["meta"].keys() == {"version", "runtime_s"}
    assert got["meta"]["version"] == want["meta"]["version"]
    header, want_rows = _table(want["results"])
    got_header, got_rows = _table(got["results"])
    assert got_header == header
    assert _mismatches(header, want_rows, got_rows,
                       _tolerance(name, spectra)) == []
