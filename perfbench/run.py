"""fermichain benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload thermo-fit --seed 1 --seconds 50 --trace 0

Workloads: thermo-fit and entropy-blocks (see README.md). Each
is a closed loop: this one process issues one operation at a time and
repeats whole rounds of the same operations for ``--seconds``: at least
one round, no round that would end past the limit, and fewer than forty
operations. Outputs are checked after the timed region. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The traced run alternates an
untraced and a traced round, so it also reports the tracing overhead.
"""

import os

# one BLAS / OpenMP thread, fixed before numpy is first imported, so that
# timings do not depend on the library default or on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5   # one in --smoke mode
MAX_OPS = 40       # a run issues fewer untraced operations than this


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("thermo-fit", "entropy-blocks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def set_up(workload, seed, smoke, outdir):
    """Import fermichain from src/, build the inputs, run one untimed
    warm-up operation. Returns the workload object."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fermichain
    if os.path.dirname(os.path.dirname(os.path.abspath(fermichain.__file__))) != SRC:
        raise RuntimeError(f"fermichain imported from {fermichain.__file__}, not src/")
    from bench_workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, smoke=smoke, outdir=os.path.relpath(outdir, ROOT))
    try:
        wl.run_op(0, "warm")
    except Exception:  # the same operation fails again, and is counted, in every round
        pass
    return wl


def _time_setups(args):
    """Median time from process start to ready-for-the-first-operation, over
    SETUP_PROBES fresh processes run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        samples.append(elapsed)
    return statistics.median(samples)


def _round(wl, tag, latencies):
    """One round: every operation once, in order. Returns (wall, outputs);
    an operation that raises leaves its exception as its output."""
    outputs = []
    clock = time.perf_counter
    r0 = clock()
    for i in range(len(wl.ops)):
        t0 = clock()
        try:
            out = wl.run_op(i, tag)
        except Exception as exc:  # counted as a failed operation
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return clock() - r0, outputs


def main(argv=None):
    args = _parse_args(argv)
    outdir = os.path.join(OUT, args.workload)
    os.chdir(ROOT)   # CLI output paths, and so bytes written, are relative to the checkout
    if args.setup_probe:
        set_up(args.workload, args.seed, args.smoke, outdir)
        print("ready", flush=True)
        return 0

    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    setup_s = None if args.trace else _time_setups(args)
    wl = set_up(args.workload, args.seed, args.smoke, outdir)

    latencies, walls, rounds = [], [], []
    traced_walls, layer_runs = [], []
    tracer = None
    if args.trace:
        from bench_trace import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    passes = []
    while True:
        p0 = time.perf_counter()
        wall, outputs = _round(wl, f"u{len(walls):03d}", latencies)
        walls.append(wall)
        rounds.append(outputs)
        if tracer is not None:
            tracer.install()
            try:
                wall, outputs = _round(wl, f"t{len(traced_walls):03d}", [])
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            rounds.append(outputs)
            layer_runs.append(tracer.metrics())
            spans = tracer.spans()
            tracer.clear()
        # whole rounds only: stop before a pass that would end past --seconds,
        # and keep a run under forty operations, too few for a tail percentile
        passes.append(time.perf_counter() - p0)
        if (time.perf_counter() - start + statistics.mean(passes) > args.seconds
                or (len(walls) + 1) * len(wl.ops) >= MAX_OPS):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    statuses = [s for row in wl.check(rounds) for s in row]
    bad = [s for s in statuses if s != "ok"]
    for s in sorted(set(bad))[:10]:
        print(f"failed operation: {s}", file=sys.stderr)
    result = {"correct": not any(s.startswith("wrong") for s in bad),
              "attempted": len(statuses), "failed": len(bad)}

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        import numpy as np
        np.savez(os.path.join(outdir, "spans.npz"), **spans)
        metrics = {}
        for key in layer_runs[0]:
            values = [m[key] for m in layer_runs]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    raise RuntimeError(f"{key} differs between traced rounds: {values}")
                unit = "bytes" if key == "cli.bytes_written" else "count"
                metrics[key] = (values[0], unit)
            else:
                metrics[key] = (statistics.median(values), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(outdir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    with open(os.path.join(outdir, f"latencies-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"round_s": walls, "op_s": latencies}, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
