"""Batch command-line front end.

Subcommands produce plain data tables (CSV) or structured documents
(JSON) for dispersion curves, phase analyses, thermal scans, entropy
sweeps, determinant-asymptotics checks and the universal constants.
Output is written atomically (temp file + rename) and is byte-stable
for a fixed config, except for the meta.runtime_s field in JSON.

Exit codes: 0 success, 1 invalid input or domain error, 2 numerical
non-convergence.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .criticality import fermi_points, free_energy, low_temperature_fit
from .entanglement import c_tilde, i1, renyi_asymptotic, renyi_exact
from .errors import DomainError
from .fisher_hartwig import fh_deviation
from .models import DispersionProfile, InteractionModel
from .spectral import correlation_spectrum


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: str = None
    coeffs: tuple = None
    nu: float = None
    C: float = None
    J: float = None
    mu: float = None
    alpha: tuple = None
    L_values: tuple = None
    T_values: tuple = None
    lambda_re: float = None
    lambda_im: float = None
    grid_points: int = None
    fit: bool = None
    compare: bool = None
    fmt: str = "csv"
    output: str = ""
    gnuplot_stub: bool = False


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything through
    # the DomainError -> exit 1 path instead
    def error(self, message):
        raise DomainError(message)


def _fmt_float(x):
    if math.isfinite(x):
        return "%.17g" % x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _fmt_cell(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x))


def _json_ready(obj):
    # one pass before json.dumps: numpy scalars become Python numbers,
    # tuples become lists, and non-finite floats, which JSON has no
    # literal for, become the strings "inf", "-inf" and "nan"
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else _fmt_float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_text(path, text):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with open(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# flag parsing and config-file merging

def _parse_float_token(tok):
    tok = tok.strip()
    if tok.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise DomainError(f"not a number: {tok!r}") from None


def _parse_float_list(spec):
    vals = [_parse_float_token(t) for t in str(spec).split(",") if t.strip()]
    if not vals:
        raise DomainError(f"empty value list: {spec!r}")
    return tuple(vals)


def _parse_int_list(spec):
    spec = str(spec)
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(f"range spec must be min:max:step, got {spec!r}")
        try:
            lo, hi, step = (int(p) for p in parts)
        except ValueError:
            raise DomainError(f"non-integer range spec: {spec!r}") from None
        if lo < 1 or step < 1 or hi < lo:
            raise DomainError(f"bad range spec: {spec!r}")
        return tuple(range(lo, hi + 1, step))
    try:
        vals = tuple(int(t) for t in spec.split(",") if t.strip())
    except ValueError:
        raise DomainError(f"non-integer list: {spec!r}") from None
    if not vals:
        raise DomainError(f"empty value list: {spec!r}")
    return vals


def _parse_temperature_spec(spec):
    spec = str(spec)
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise DomainError(
                f"temperature spec must be min:max:count, got {spec!r}")
        lo = _parse_float_token(parts[0])
        hi = _parse_float_token(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise DomainError(f"non-integer grid count: {parts[2]!r}") from None
        if not (0.0 < lo < hi) or n < 2:
            raise DomainError(f"bad temperature spec: {spec!r}")
        return tuple(float(t) for t in np.geomspace(lo, hi, n))
    vals = _parse_float_list(spec)
    if any(t <= 0 or not math.isfinite(t) for t in vals):
        raise DomainError("temperatures must be positive and finite")
    return vals


def _build_parser():
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", choices=[
        "haldane-shastry", "finite-range", "power-law", "rational-cubic"])
    model_flags.add_argument("--coeffs")
    model_flags.add_argument("--nu", type=float)
    model_flags.add_argument("--C", type=float)
    model_flags.add_argument("--J", type=float)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--format", choices=["csv", "json"])
    out_flags.add_argument("--output")
    out_flags.add_argument("--config")
    out_flags.add_argument("--gnuplot-stub", action="store_true",
                           default=None)

    parser = _Parser(prog="fermichain",
                     description="long-range free-fermion chain toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", parents=[model_flags, out_flags],
                       help="tabulate E, E', E'' over one period")
    p.add_argument("--grid-points", type=int)

    p = sub.add_parser("phase", parents=[model_flags, out_flags],
                       help="Fermi points and phase at a chemical potential")
    p.add_argument("--mu", type=float)

    p = sub.add_parser("free-energy", parents=[model_flags, out_flags],
                       help="thermal free energy over a temperature grid")
    p.add_argument("--mu", type=float)
    p.add_argument("--T")
    p.add_argument("--fit", action="store_true", default=None)

    p = sub.add_parser("entropy", parents=[model_flags, out_flags],
                       help="block entropies over an L sweep")
    p.add_argument("--mu", type=float)
    p.add_argument("--alpha")
    p.add_argument("--L")
    p.add_argument("--compare", action="store_true", default=None)

    p = sub.add_parser("fh-check", parents=[model_flags, out_flags],
                       help="determinant asymptotics deviation over L")
    p.add_argument("--mu", type=float)
    p.add_argument("--L")
    p.add_argument("--lambda-re", type=float)
    p.add_argument("--lambda-im", type=float)

    p = sub.add_parser("constants", parents=[out_flags],
                       help="universal entropy constants per Renyi order")
    p.add_argument("--alpha")

    return parser


def _merge_config_file(args):
    if getattr(args, "config", None) is None:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    for key, value in data.items():
        dest = str(key).replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config"):
            raise DomainError(f"unknown config key: {key}")
        if getattr(args, dest) is None:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            setattr(args, dest, value)


def _resolve_model(args):
    family = getattr(args, "model", None)
    if family is None:
        raise DomainError("a --model family is required")
    if family == "haldane-shastry":
        return InteractionModel.haldane_shastry()
    if family == "finite-range":
        if getattr(args, "coeffs", None) is None:
            raise DomainError("finite-range needs --coeffs a1,a2,...")
        return InteractionModel.finite_range(_parse_float_list(args.coeffs))
    if family == "power-law":
        if getattr(args, "nu", None) is None:
            raise DomainError("power-law needs --nu")
        c = args.C if getattr(args, "C", None) is not None else 1.0
        return InteractionModel.power_law(float(args.nu), C=float(c))
    if family == "rational-cubic":
        if getattr(args, "J", None) is None:
            raise DomainError("rational-cubic needs --J")
        return InteractionModel.rational_cubic(float(args.J))
    raise DomainError(f"unknown model family {family!r}")


def _model_config(args):
    cfg = {"family": getattr(args, "model", None)}
    for key in ("coeffs", "nu", "C", "J"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _parse_float_list(val) if key == "coeffs" else float(val)
    return cfg


def _need_mu(args):
    if getattr(args, "mu", None) is None:
        raise DomainError("--mu is required")
    mu = float(args.mu)
    if not math.isfinite(mu):
        raise DomainError("--mu must be finite")
    return mu


# ---------------------------------------------------------------------------
# subcommands: each returns (config, header, rows, json_results, plot_cols)

def _cmd_dispersion(args):
    model = _resolve_model(args)
    prof = DispersionProfile(model)
    n = args.grid_points if args.grid_points is not None else 256
    if n < 2:
        raise DomainError(f"--grid-points must be at least 2, got {n}")
    ps = np.linspace(0.0, 2.0 * math.pi, int(n))
    e = prof.E_grid(ps)
    e1 = prof.E1_grid(ps)
    e2 = prof.E2_grid(ps)
    rows = [[float(p), float(ev), float(dv), float(d2v)]
            for p, ev, dv, d2v in zip(ps, e, e1, e2)]
    cfg = _model_config(args)
    cfg["grid_points"] = int(n)
    header = ["p", "E", "dE", "d2E"]
    return cfg, header, rows, {"columns": header, "rows": rows}, (1, 2)


def _cmd_phase(args):
    model = _resolve_model(args)
    mu = _need_mu(args)
    a = fermi_points(DispersionProfile(model), mu)
    cfg = _model_config(args)
    cfg["mu"] = mu
    header = ["phase", "central_charge", "e_min", "e_max",
              "root_index", "p", "nu", "velocity"]
    base = [a.phase, a.central_charge, a.e_min, a.e_max]
    if a.roots:
        rows = [base + [k, p, n, a.velocities[k]]
                for k, (p, n) in enumerate(a.roots)]
    else:
        rows = [base + [None, None, None, None]]
    results = {
        "phase": a.phase,
        "central_charge": a.central_charge,
        "e_min": a.e_min,
        "e_max": a.e_max,
        "roots": [{"p": p, "nu": n, "velocity": a.velocities[k]}
                  for k, (p, n) in enumerate(a.roots)],
        "sea": [list(iv) for iv in a.sea],
    }
    return cfg, header, rows, results, None


def _cmd_free_energy(args):
    model = _resolve_model(args)
    mu = _need_mu(args)
    prof = DispersionProfile(model)
    if getattr(args, "T", None) is not None:
        temps = _parse_temperature_spec(args.T)
    else:
        temps = tuple(float(t) for t in np.geomspace(1e-3, 1e-2, 8))
    if args.fit:
        fit = low_temperature_fit(prof, mu, T_grid=temps)
        thermal = fit.thermal
    else:
        fit = None
        analysis = fermi_points(prof, mu)
        thermal = [free_energy(prof, mu, t, analysis=analysis) for t in temps]
    header = ["T", "f", "f0", "fit_exponent", "fit_coefficient",
              "fit_predicted"]
    tail = ([fit.exponent, fit.coefficient, fit.predicted_coefficient]
            if fit is not None else [None, None, None])
    rows = [[r.T, r.f, r.f0] + tail for r in thermal]
    cfg = _model_config(args)
    cfg.update({"mu": mu, "T_values": temps, "fit": bool(args.fit)})
    results = {
        "table": {"columns": header[:3],
                  "rows": [[r.T, r.f, r.f0] for r in thermal]},
        "fit": None if fit is None else {
            "exponent": fit.exponent,
            "coefficient": fit.coefficient,
            "predicted_coefficient": fit.predicted_coefficient,
            "residual": fit.residual,
        },
    }
    return cfg, header, rows, results, (1, 2)


def _cmd_entropy(args):
    model = _resolve_model(args)
    mu = _need_mu(args)
    if getattr(args, "L", None) is None:
        raise DomainError("--L is required (min:max:step or comma list)")
    sizes = _parse_int_list(args.L)
    alphas = (_parse_float_list(args.alpha)
              if getattr(args, "alpha", None) is not None else (1.0,))
    compare = bool(args.compare)
    prof = DispersionProfile(model)
    analysis = fermi_points(prof, mu)
    rows = []
    for L in sizes:
        spectrum = correlation_spectrum(analysis, int(L))
        for alpha in alphas:
            if compare:
                rep = renyi_asymptotic(analysis, int(L), alpha,
                                       spectrum=spectrum)
                rows.append([int(L), alpha, rep.s_exact, rep.s_asymptotic,
                             rep.r_L])
            else:
                rows.append([int(L), alpha, renyi_exact(spectrum, alpha),
                             None, None])
    cfg = _model_config(args)
    cfg.update({"mu": mu, "alpha": alphas, "L_values": sizes,
                "compare": compare})
    header = ["L", "alpha", "s_exact", "s_asymptotic", "r_L"]
    return cfg, header, rows, {"columns": header, "rows": rows}, (1, 3)


def _cmd_fh_check(args):
    model = _resolve_model(args)
    mu = _need_mu(args)
    sizes = (_parse_int_list(args.L)
             if getattr(args, "L", None) is not None else (8, 16, 32, 64, 128))
    lam_re = args.lambda_re if args.lambda_re is not None else 3.0
    lam_im = args.lambda_im if args.lambda_im is not None else 0.0
    analysis = fermi_points(DispersionProfile(model), mu)
    devs = fh_deviation(analysis, complex(lam_re, lam_im),
                        [int(L) for L in sizes])
    rows = [[L, d] for L, d in devs]
    cfg = _model_config(args)
    cfg.update({"mu": mu, "L_values": sizes,
                "lambda_re": float(lam_re), "lambda_im": float(lam_im)})
    header = ["L", "deviation"]
    return cfg, header, rows, {"columns": header, "rows": rows}, (1, 2)


def _cmd_constants(args):
    alphas = (_parse_float_list(args.alpha)
              if getattr(args, "alpha", None) is not None
              else (0.25, 0.5, 1.0, 2.0, 3.0, 10.0, math.inf))
    rows = [[alpha, i1(alpha), c_tilde(alpha)] for alpha in alphas]
    header = ["alpha", "i1", "c_tilde"]
    return ({"alpha": alphas}, header, rows,
            {"columns": header, "rows": rows}, (1, 3))


_COMMANDS = {
    "dispersion": _cmd_dispersion,
    "phase": _cmd_phase,
    "free-energy": _cmd_free_energy,
    "entropy": _cmd_entropy,
    "fh-check": _cmd_fh_check,
    "constants": _cmd_constants,
}


def _render_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_gnuplot(data_path, plot_cols):
    # plot_cols holds 1-based gnuplot column indices
    x, y = plot_cols
    return (
        "# companion plotting stub\n"
        'set datafile separator ","\n'
        "set key autotitle columnhead\n"
        f'plot "{os.path.basename(data_path)}" using {x}:{y} '
        "with linespoints\n")


def run(argv):
    started = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        _merge_config_file(args)
        fmt = args.format if args.format is not None else "csv"
        output = (args.output if args.output is not None
                  else f"{args.command.replace('-', '_')}.{fmt}")
        stub = bool(args.gnuplot_stub)
        if stub and fmt != "csv":
            raise DomainError("--gnuplot-stub needs --format csv")
        cfg, header, rows, results, plot_cols = _COMMANDS[args.command](args)
        if stub and plot_cols is None:
            raise DomainError(
                f"{args.command} has no default plot; drop --gnuplot-stub")
        rc = RunConfig(command=args.command, fmt=fmt, output=output,
                       gnuplot_stub=stub, **cfg)
        if fmt == "csv":
            text = _render_csv(header, rows)
        else:
            cfg_doc = {k: v for k, v in asdict(rc).items() if v is not None}
            cfg_doc["format"] = cfg_doc.pop("fmt")
            doc = {"config": cfg_doc, "results": results,
                   "meta": {"version": __version__,
                            "runtime_s": time.perf_counter() - started}}
            text = json.dumps(_json_ready(doc), sort_keys=True,
                              indent=2) + "\n"
        _write_text(output, text)
        if stub:
            _write_text(output + ".gp", _render_gnuplot(output, plot_cols))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
