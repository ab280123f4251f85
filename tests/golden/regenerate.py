"""Write the golden CLI outputs that tests/test_golden.py compares with.

Run from the repository root, with one BLAS thread:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py

Each .csv file is the table one fermichain command writes for one sea or
model, and each .json file the document one command writes to its
default output path, <command>.json, in the directory it runs in. The
script prints each file's sha256. A change that moves a number on
purpose reruns it and shows the diff in CHANGES.md.
"""

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SWEEP = ["--L", "64,128,256,512,1024,2048"]
MODELS = {
    "hs": ["--model", "haldane-shastry"],
    "fr_1_0.5": ["--model", "finite-range", "--coeffs", "1,0.5"],
    "pl_2.5": ["--model", "power-law", "--nu", "2.5"],
    "rc_0.6": ["--model", "rational-cubic", "--J", "0.6"],
}
# sea name -> model and chemical potential; haldane-shastry is half
# filled at mu = 3 pi^2 / 8
SEAS = {
    "hs_mu2": ("hs", "2"),
    "hs_half": ("hs", "3.7011016504085092"),
    "fr_1_0.5_mu4.25": ("fr_1_0.5", "4.25"),
    "pl_2.5_mu1.5": ("pl_2.5", "1.5"),
    "rc_0.6_mu1": ("rc_0.6", "1"),
}
# file name -> the command's arguments after `fermichain`
GOLDEN = {"constants.csv": ["constants"]}
for model, flags in MODELS.items():
    GOLDEN[f"dispersion_{model}.csv"] = ["dispersion", *flags,
                                         "--grid-points", "64"]
for sea, (model, mu) in SEAS.items():
    flags = [*MODELS[model], "--mu", mu]
    GOLDEN[f"phase_{sea}.csv"] = ["phase", *flags]
    GOLDEN[f"free_energy_{sea}.csv"] = ["free-energy", *flags, "--fit"]
    GOLDEN[f"entropy_{sea}.csv"] = ["entropy", *flags, *SWEEP, "--compare",
                                    "--alpha", "0.5,1,2,inf"]
    GOLDEN[f"fh_check_{sea}.csv"] = ["fh-check", *flags, *SWEEP]
# one JSON document per command, written without --output
GOLDEN_JSON = {
    "dispersion_rc_0.6.json": ["dispersion", *MODELS["rc_0.6"],
                               "--grid-points", "16", "--format", "json"],
    "phase_fr_1_0.5_mu4.25.json": ["phase", *MODELS["fr_1_0.5"],
                                   "--mu", "4.25", "--format", "json"],
    "free_energy_pl_2.5_mu1.5.json": ["free-energy", *MODELS["pl_2.5"],
                                      "--C", "2", "--mu", "3", "--fit",
                                      "--format", "json"],
    "entropy_hs_mu2.json": ["entropy", *MODELS["hs"], "--mu", "2",
                            "--L", "64,128", "--compare", "--alpha",
                            "0.5,inf", "--format", "json"],
    "fh_check_rc_0.6_mu1.json": ["fh-check", *MODELS["rc_0.6"], "--mu", "1",
                                 "--L", "16,32", "--lambda-re", "2.5",
                                 "--lambda-im", "-0.5", "--format", "json"],
    "constants.json": ["constants", "--alpha", "0.5,1,inf",
                       "--format", "json"],
}


def default_output(argv):
    # the path a --format json run without --output writes
    return argv[0].replace("-", "_") + ".json"


def main():
    from fermichain.cli import run
    for name, argv in GOLDEN.items():
        if run([*argv, "--output", str(HERE / name)]) != 0:
            sys.exit(f"fermichain {' '.join(argv)} failed")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv in GOLDEN_JSON.items():
            if run(argv) != 0:
                sys.exit(f"fermichain {' '.join(argv)} failed")
            shutil.move(default_output(argv), HERE / name)
        os.chdir(HERE)
    for name in [*GOLDEN, *GOLDEN_JSON]:
        digest = hashlib.sha256((HERE / name).read_bytes()).hexdigest()
        print(digest, name)


if __name__ == "__main__":
    main()
