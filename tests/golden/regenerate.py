"""Write the golden CLI outputs that tests/test_golden.py compares with.

Run from the repository root, with one BLAS thread:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden/regenerate.py

Each file is the CSV one fermichain command writes for one sea; the
script prints each file's sha256. A change that moves a number on
purpose reruns it and shows the diff in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SWEEP = ["--L", "64,128,256,512,1024,2048"]
SEAS = {
    "hs_mu2": ["--model", "haldane-shastry", "--mu", "2"],
    "fr_1_0.5_mu4.25": ["--model", "finite-range", "--coeffs", "1,0.5",
                        "--mu", "4.25"],
}
# file name -> the command's arguments after `fermichain`
GOLDEN = {}
for sea, flags in SEAS.items():
    GOLDEN[f"entropy_{sea}.csv"] = ["entropy", *flags, *SWEEP, "--compare",
                                    "--alpha", "0.5,1,2,inf"]
    GOLDEN[f"fh_check_{sea}.csv"] = ["fh-check", *flags, *SWEEP]


def main():
    from fermichain.cli import run
    for name, argv in GOLDEN.items():
        path = HERE / name
        if run([*argv, "--output", str(path)]) != 0:
            sys.exit(f"fermichain {' '.join(argv)} failed")
        print(hashlib.sha256(path.read_bytes()).hexdigest(), name)


if __name__ == "__main__":
    main()
