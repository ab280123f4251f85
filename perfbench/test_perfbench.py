"""Tests of the benchmark's own code, on the reduced-size smoke inputs."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_models as bm  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import WORKLOADS, EntropyBlocks, ThermoFit  # noqa: E402

SEED = 3


def one_round(wl):
    outputs = []
    for i in range(len(wl.ops)):
        try:
            outputs.append(wl.run_op(i, "t"))
        except Exception as exc:
            outputs.append(exc)
    return outputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_round_passes_every_check(name, tmp_path):
    wl = WORKLOADS[name](SEED, smoke=True, outdir=str(tmp_path))
    assert wl.check([one_round(wl)]) == [["ok"] * len(wl.ops)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(wl):
        return {k: v for k, v in vars(wl).items() if k != "rng"}

    for cls in WORKLOADS.values():
        assert inputs(cls(5)) == inputs(cls(5))
        assert inputs(cls(5)) != inputs(cls(6))


def test_shifted_entropy_is_counted_wrong(tmp_path):
    wl = EntropyBlocks(SEED, smoke=True, outdir=str(tmp_path))
    outputs = one_round(wl)
    path = outputs[4][0]
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[1]["s_exact"] = repr(float(rows[1]["s_exact"]) + 1e-6)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    (statuses,) = wl.check([outputs])
    assert statuses[4].startswith("wrong: S_1.0")
    assert statuses[:4] == ["ok"] * 4


def test_raised_and_wrong_outputs_are_told_apart(tmp_path):
    wl = ThermoFit(SEED, smoke=True, outdir=str(tmp_path))
    outputs = one_round(wl)
    outputs[0] = RuntimeError("boom")
    with open(outputs[1]) as f:
        doc = json.load(f)
    doc["results"]["fit"]["exponent"] += 0.1
    with open(outputs[1], "w") as f:
        json.dump(doc, f)
    (statuses,) = wl.check([outputs])
    assert statuses == ["raised: RuntimeError: boom", statuses[1], "ok"]
    assert statuses[1].startswith("wrong: exponent")


def test_reference_entropy_limits():
    # a filled band has no entanglement; a half-filled pair is maximal
    assert bm.renyi([0.0, 1.0], 1.0) == 0.0
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert bm.renyi([0.5], alpha) == pytest.approx(math.log(2.0), rel=1e-14)


def test_tracer_counts_repeat_and_originals_come_back(tmp_path):
    import fermichain
    from fermichain import cli, models, spectral
    originals = (fermichain.correlation_spectrum, cli.correlation_spectrum,
                 spectral.eigenvalues_symmetric, models.DispersionProfile.E)
    wl = EntropyBlocks(SEED, smoke=True, outdir=str(tmp_path))
    tracer = Tracer()
    runs = []
    for _ in range(2):
        tracer.install()
        try:
            one_round(wl)
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
        tracer.clear()
    assert (fermichain.correlation_spectrum, cli.correlation_spectrum,
            spectral.eigenvalues_symmetric, models.DispersionProfile.E) == originals
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in runs]
    assert counts[0] == counts[1]
    # entropy, then fh-check, which builds the same spectrum again
    assert counts[0]["cli.runs"] == 2 * len(wl.ops)
    assert counts[0]["spectral.eigen_calls"] == 2 * len(wl.ops)
    assert counts[0]["spectral.eigen_flops"] == sum(2 * (4 * L ** 3 // 3) for _, L in wl.ops)
    assert all(v >= 0.0 for k, v in runs[0].items() if k.endswith("_s"))


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "thermo-fit",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thermo-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
