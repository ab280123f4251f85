"""The CSV of `entropy --compare` and `fh-check` on two seas, compared
column by column with the stored files under tests/golden/, which
tests/golden/regenerate.py writes.

Each float column has its tolerance next to it below, about ten times the
largest shift the column has shown between this eigensolver and six
earlier ones, from Householder tridiagonalisation with dsterf to the
hand-written bandwidth-16 stage 1; 1 and 2 BLAS threads give the same
bytes. Integer and text columns must match exactly.
"""

import csv
import importlib.util
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
# s_asymptotic: no solver moves it, and it never moved; c_tilde's two
# independent routes differ by up to 4.3e-14
S_ASYMPTOTIC = 1e-12
# fh-check deviation: 1.1e-11 moved at most, finite-range L 2048
DEVIATION = 1e-10
# r_L = s_asymptotic / s_exact - 1 takes its tolerance from those of the
# two entropies, plus a few rounding errors of the quotient
R_ROUNDING = 1e-15


def _kernel(x, alpha):
    # the Renyi entropy of one eigenvalue x, alpha < 1
    return math.log(x ** alpha + (1.0 - x) ** alpha) / (1.0 - alpha)


def _read(path):
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, rows


def _entropy_tolerances(row, spectra):
    # tolerances of s_exact, s_asymptotic and r_L in one golden row
    L, alpha, s_exact, s_app, _ = row
    alpha, s_exact, s_app = float(alpha), float(s_exact), float(s_app)
    exact = S_EXACT
    if alpha < 1.0:
        lam = spectra[int(L)]
        hidden = np.count_nonzero(np.minimum(lam, 1.0 - lam) < FLOOR)
        exact += hidden * _kernel(FLOOR, alpha)
    r_L = ((abs(s_app) * exact / s_exact + S_ASYMPTOTIC) / abs(s_exact)
           + R_ROUNDING)
    return {"s_exact": exact, "s_asymptotic": S_ASYMPTOTIC, "r_L": r_L}


@pytest.mark.parametrize("name", sorted(regenerate.GOLDEN))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    spectra = {}
    build = cli.correlation_spectrum

    def kept(analysis, L):
        spectrum = build(analysis, L)
        spectra[L] = spectrum.eigenvalues
        return spectrum

    monkeypatch.setattr(cli, "correlation_spectrum", kept)
    out = tmp_path / name
    assert cli.run([*regenerate.GOLDEN[name], "--output", str(out)]) == 0
    header, want = _read(GOLDEN / name)
    got_header, got = _read(out)
    assert got_header == header
    assert len(got) == len(want)
    off = []
    for w, g in zip(want, got):
        if name.startswith("entropy"):
            tolerance = _entropy_tolerances(w, spectra)
        else:
            tolerance = {"deviation": DEVIATION}
        for column, a, b in zip(header, w, g):
            if column not in tolerance:     # L and alpha: the same text
                if a != b:
                    off.append((column, w[0], a, b))
            elif not abs(float(a) - float(b)) <= tolerance[column]:
                off.append((column, w[:2], a, b, tolerance[column]))
    assert off == []
