"""Batch command-line front end.

Subcommands produce plain data tables (CSV) or structured documents
(JSON) for dispersion curves, phase analyses, thermal scans, entropy
sweeps, determinant-asymptotics checks and the universal constants.
Output is written atomically (temp file + rename) and is byte-stable
for a fixed config, except for the meta.runtime_s field in JSON.

Exit codes: 0 success, 1 invalid input, domain error or an output that
cannot be written, 2 numerical non-convergence.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .criticality import fermi_points, free_energy, low_temperature_fit
from .entanglement import c_tilde, i1, renyi_asymptotic, renyi_exact
from .errors import DomainError
from .fisher_hartwig import fh_deviation
from .models import DispersionProfile, InteractionModel, _finite_band
from .spectral import correlation_spectrum


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts with a dash and then a digit or a dot and a
        # digit, or with -inf, -infinity or -nan (any case) alone or before
        # a comma, is a value, so -1e-3, -1,0.5, -inf and -inf,0.5 reach
        # their converters; no fermichain flag looks like that
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|(inf|infinity|nan)(,|$))", re.IGNORECASE)

    # argparse exits with status 2 on bad flags; route everything through
    # the DomainError -> exit 1 path instead
    def error(self, message):
        raise DomainError(message)


def _fmt_cell(x):
    # a table cell holds a str, a Python int, a float or None
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return "%.17g" % x


def _json_ready(obj):
    # one pass before json.dumps: numpy floats become Python floats,
    # tuples become lists, and non-finite floats, which JSON has no
    # literal for, become the strings "inf", "-inf" and "nan"
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else "%.17g" % obj
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
# flag parsing and config-file merging: argparse converts and defaults
# every flag; a converter's refusal comes back as "argument --FLAG: ..."

def _values(spec, kind=float):
    # comma separated; float() reads inf, Infinity and nan in any case
    try:
        vals = tuple(kind(t) for t in spec.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a list of {kind.__name__}: {spec!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError(f"empty value list: {spec!r}")
    return vals


def _range(spec, form, kinds):
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be {form}: {spec!r}")
    try:
        return tuple(kind(p) for kind, p in zip(kinds, parts))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range {form} has a malformed part: {spec!r}") from None


def _sizes(spec):
    if ":" not in spec:
        return _values(spec, int)
    lo, hi, step = _range(spec, "min:max:step", (int, int, int))
    if lo < 1 or step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range spec: {spec!r}")
    return tuple(range(lo, hi + 1, step))


def _grid_points(spec):
    try:
        n = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {spec!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


def _temperatures(spec):
    if ":" not in spec:
        return _values(spec)
    lo, hi, n = _range(spec, "min:max:count", (float, float, int))
    if not (0.0 < lo < hi < math.inf) or n < 2:
        raise argparse.ArgumentTypeError(f"bad temperature spec: {spec!r}")
    return tuple(float(t) for t in np.geomspace(lo, hi, n))


@functools.cache
def _build_parser():
    # a list default is converted once, here, as its flag value would be
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", choices=[
        "haldane-shastry", "finite-range", "power-law", "rational-cubic"])
    model_flags.add_argument("--coeffs", type=_values)
    model_flags.add_argument("--nu", type=float)
    model_flags.add_argument("--C", type=float)
    model_flags.add_argument("--J", type=float)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--format", choices=["csv", "json"], default="csv")
    out_flags.add_argument("--output")
    out_flags.add_argument("--config")
    out_flags.add_argument("--gnuplot-stub", action="store_true")

    parser = _Parser(prog="fermichain",
                     description="long-range free-fermion chain toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", parents=[model_flags, out_flags],
                       help="tabulate E, E', E'' over one period")
    p.add_argument("--grid-points", type=_grid_points, default=256)

    p = sub.add_parser("phase", parents=[model_flags, out_flags],
                       help="Fermi points and phase at a chemical potential")
    p.add_argument("--mu", type=float)

    p = sub.add_parser("free-energy", parents=[model_flags, out_flags],
                       help="thermal free energy over a temperature grid")
    p.add_argument("--mu", type=float)
    p.add_argument("--T", type=_temperatures,
                   default=_temperatures("1e-3:1e-2:8"))
    p.add_argument("--fit", action="store_true")

    p = sub.add_parser("entropy", parents=[model_flags, out_flags],
                       help="block entropies over an L sweep")
    p.add_argument("--mu", type=float)
    p.add_argument("--alpha", type=_values, default=_values("1"))
    p.add_argument("--L", type=_sizes)
    p.add_argument("--compare", action="store_true")

    p = sub.add_parser("fh-check", parents=[model_flags, out_flags],
                       help="determinant asymptotics deviation over L")
    p.add_argument("--mu", type=float)
    p.add_argument("--L", type=_sizes, default=_sizes("8,16,32,64,128"))
    p.add_argument("--lambda-re", type=float, default=3.0)
    p.add_argument("--lambda-im", type=float, default=0.0)

    p = sub.add_parser("constants", parents=[out_flags],
                       help="universal entropy constants per Renyi order")
    p.add_argument("--alpha", type=_values,
                   default=_values("0.25,0.5,1,2,3,10,inf"))

    return parser


def _config_flags(parser, command, path):
    # the config file as flag tokens of `command`, each parsed by the
    # same action as on the command line; a switch takes true or false
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config file must hold a JSON object")
    defaults = vars(parser.parse_args([command]))
    tokens = []
    for key, value in data.items():
        dest = str(key).replace("-", "_")
        if dest not in defaults or dest in ("command", "config"):
            raise DomainError(f"unknown config key: {key}")
        flag = "--" + dest.replace("_", "-")
        if defaults[dest] is False:        # a store_true switch
            if not isinstance(value, bool):
                raise DomainError(
                    f"config key {key} must be true or false, got {value!r}")
            if value:
                tokens.append(flag)
        else:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            if isinstance(value, bool) or not isinstance(
                    value, (str, int, float)):
                raise DomainError(
                    f"config key {key} has no flag value: {value!r}")
            tokens.append(f"{flag}={value}")
    return tokens


def _profile(args):
    # the model refuses a flag that the --model family does not take
    return DispersionProfile(InteractionModel(
        family=args.model, alphas=args.coeffs, nu=args.nu, C=args.C, J=args.J))


# ---------------------------------------------------------------------------
# subcommands: each returns (header, rows, json_results); json_results
# None stands for the table itself

def _cmd_dispersion(args):
    prof = _profile(args)
    ps = np.linspace(0.0, 2.0 * math.pi, args.grid_points)
    e = _finite_band(prof.E_grid, ps, "E")
    e1 = _finite_band(prof.E1_grid, ps, "E'")
    # E'' may be infinite at the zone-center cusps p = 0 and 2 pi only
    e2 = np.concatenate([prof.E2_grid(ps[:1]),
                         _finite_band(prof.E2_grid, ps[1:-1], "E''"),
                         prof.E2_grid(ps[-1:])])
    rows = [[float(p), float(ev), float(dv), float(d2v)]
            for p, ev, dv, d2v in zip(ps, e, e1, e2)]
    return ["p", "E", "dE", "d2E"], rows, None


def _cmd_phase(args):
    a = fermi_points(_profile(args), args.mu)
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
    return header, rows, results


def _cmd_free_energy(args):
    prof = _profile(args)
    if args.fit:
        fit = low_temperature_fit(prof, args.mu, T_grid=args.T)
        thermal = fit.thermal
    else:
        fit = None
        thermal = free_energy(prof, args.mu, args.T)
    header = ["T", "f", "f0", "fit_exponent", "fit_coefficient",
              "fit_predicted"]
    tail = ([fit.exponent, fit.coefficient, fit.predicted_coefficient]
            if fit is not None else [None, None, None])
    rows = [[r.T, r.f, r.f0] + tail for r in thermal]
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
    return header, rows, results


def _cmd_entropy(args):
    analysis = fermi_points(_profile(args), args.mu)
    rows = []
    for L in args.L:
        spectrum = correlation_spectrum(analysis, L)
        for alpha in args.alpha:
            if args.compare:
                rep = renyi_asymptotic(spectrum, alpha)
                rows.append([L, alpha, rep.s_exact, rep.s_asymptotic,
                             rep.r_L])
            else:
                rows.append([L, alpha, renyi_exact(spectrum, alpha),
                             None, None])
    return ["L", "alpha", "s_exact", "s_asymptotic", "r_L"], rows, None


def _cmd_fh_check(args):
    devs = fh_deviation(fermi_points(_profile(args), args.mu),
                        complex(args.lambda_re, args.lambda_im), args.L)
    return ["L", "deviation"], [[L, d] for L, d in devs], None


def _cmd_constants(args):
    rows = [[alpha, i1(alpha), c_tilde(alpha)] for alpha in args.alpha]
    return ["alpha", "i1", "c_tilde"], rows, None


# command -> (function, its required flags, its default plot's columns)
_COMMANDS = {
    "dispersion": (_cmd_dispersion, ("model",), (1, 2)),
    "phase": (_cmd_phase, ("model", "mu"), None),
    "free-energy": (_cmd_free_energy, ("model", "mu"), (1, 2)),
    "entropy": (_cmd_entropy, ("model", "mu", "L"), (1, 3)),
    "fh-check": (_cmd_fh_check, ("model", "mu"), (1, 2)),
    "constants": (_cmd_constants, (), (1, 3)),
}

# JSON config keys that are not the flag's own name
_CONFIG_KEYS = {"model": "family", "T": "T_values", "L": "L_values"}


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
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # config flags go before the command line's, so those win
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                [*argv[:at], *_config_flags(parser, args.command, args.config),
                 *argv[at:]])
        fmt = args.format
        # the default output path depends on the command and the format
        output = (args.output if args.output is not None
                  else f"{args.command.replace('-', '_')}.{fmt}")
        stub = args.gnuplot_stub
        if stub and fmt != "csv":
            raise DomainError("--gnuplot-stub needs --format csv")
        command, required, plot_cols = _COMMANDS[args.command]
        if stub and plot_cols is None:
            raise DomainError(
                f"{args.command} has no default plot; drop --gnuplot-stub")
        for flag in required:
            if getattr(args, flag) is None:
                raise DomainError(f"--{flag} is required")
        header, rows, results = command(args)
        if results is None:
            results = {"columns": header, "rows": rows}
        if fmt == "csv":
            text = _render_csv(header, rows)
        else:
            cfg = {_CONFIG_KEYS.get(k, k): v for k, v in vars(args).items()
                   if k != "config" and v is not None}
            doc = {"config": {**cfg, "output": output},
                   "results": results,
                   "meta": {"version": __version__,
                            "runtime_s": time.perf_counter() - started}}
            text = json.dumps(_json_ready(doc), sort_keys=True,
                              indent=2) + "\n"
        _write_text(output, text)
        if stub:
            try:
                _write_text(output + ".gp", _render_gnuplot(output, plot_cols))
            except BaseException:
                # a run that fails leaves neither file
                os.unlink(output)
                raise
        return 0
    except (ValueError, OSError) as exc:
        # OSError: the output cannot be written, e.g. a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
