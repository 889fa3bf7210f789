"""Command-line front end.

Five subcommands cover the workflow: ``groundstate`` (continuum profile),
``breather`` (assemble and save one breather), ``scaling`` (mu sweep with
log-log slopes), ``validate`` (recheck a saved breather, optionally by
direct integration), ``fem-check`` (lattice-vs-continuum functional gap).

Every option can also come from a key=value config file (``--config``);
explicit flags win over the file, the file wins over built-in defaults.

Exit codes: 0 success, 2 guard/resonance violations (bad parameters or
physics outside the validated regime), 3 iteration failures, 4 malformed
files.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import fields

import numpy as np

from .breather import (
    SCALING_COLUMNS,
    PipelineConfig,
    assemble_breather,
    error_vs_reference,
    kg_residual,
    load_breather,
    reference_coefficients,
    save_breather,
    save_breather_report,
    scaling_study,
)
from .dynamics import integrate_period
from .errors import ConvergenceError, FormatError, GuardError
from .feminterp import functional_remainder
from .groundstate import sample_reference, save_profile, solve_ground_state
from .lattice import BREATHER_MODES, GridSpec, block_norm_q, mirror_block, orbit_sizes

# The one option table.  Per subcommand, option key -> (type, default,
# help); a None default means "required".  build_parser turns key k into
# the flag --k (underscores as dashes), and the config-file merge reads the
# same keys, so an option exists in both places or in neither.  An option
# that is a PipelineConfig field takes its type and default from there.
_CONFIG = {f.name: f.default for f in fields(PipelineConfig)}


def _config_option(key, help_text):
    return (type(_CONFIG[key]), _CONFIG[key], help_text)


_N = (int, None, "lattice dimension, 1 or 2")
_P = (float, None, "nonlinearity exponent, 1/2 <= p < 2/n")
_A = (float, None, "lattice coupling in (0, 1/2)")
_MODE = _config_option("mode", "breather centering")
_L_MAX = _config_option("l_max", "harmonic window of the kernel continuation")
_R_MIN = _config_option("r_min", "physical box radius, K = r_min / mu")
_RESIDUAL_TARGET = _config_option(
    "residual_target",
    "widen the harmonic window of the final range pass until the truncated "
    "tail of the nonlinearity is below this residual (0: keep --l-max; "
    "wanted for non-integer p)",
)
_OPTIONS = {
    "groundstate": {
        "n": _N,
        "p": _P,
        "tol": (float, 1e-11, "residual tolerance of the 2d radial solve"),
        "out": (str, "groundstate", "basename of the .csv and .csv.json outputs"),
    },
    "breather": {
        "n": _N,
        "p": _P,
        "a": _A,
        "mu": (float, None, "amplitude parameter (lattice spacing)"),
        "mode": _MODE,
        "K": (int, 0, "explicit box half-width (overrides --r-min; 0: derive it)"),
        "l_max": _L_MAX,
        "r_min": _R_MIN,
        "tol": _config_option("tol", "range-equation contraction tolerance"),
        "kernel_tol": _config_option(
            "kernel_tol",
            "Newton tolerance on the kernel residual; its roundoff floor "
            "grows like a/mu^2, so values near 1e-13 end in a "
            "ConvergenceError at mu <= 0.02",
        ),
        "residual_target": _RESIDUAL_TARGET,
        "out": (str, "breather", "basename of the .kgbr and .json outputs"),
    },
    "scaling": {
        "n": _N,
        "p": _P,
        "a": _A,
        "mode": _MODE,
        "mu_list": (str, None, "comma-separated, strictly decreasing"),
        "l_max": _L_MAX,
        "r_min": _R_MIN,
        "residual_target": _RESIDUAL_TARGET,
        "out": (str, "scaling", "basename of the .csv and .json outputs"),
    },
    "validate": {
        "input": (str, None, "breather snapshot (.kgbr)"),
        "integrate": (bool, False, "leapfrog period check, raced by the continuum seed"),
        "steps": (int, 2048, "leapfrog steps per period"),
        "periods": (int, 1, "periods to integrate"),
        "out": (str, "", "JSON report path (default: print it)"),
    },
    "fem-check": {
        "n": _N,
        "p": _P,
        "mu_list": (str, "0.2,0.15,0.1,0.075,0.05", "comma-separated"),
        "r_min": (float, 45.0, "physical box radius, K = r_min / mu"),
        "out": (str, "", "JSON report path (default: none)"),
    },
}


def _parse_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise FormatError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise FormatError(f"cannot read config file {path}: {exc}") from exc
    return values


def _coerce(raw, typ, key):
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise FormatError(f"option {key}: cannot read {raw!r} as a flag")
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"option {key}: cannot read {raw!r} as {typ.__name__}") from exc


def _merge(args, command):
    """flags > config file > defaults; required keys must land somewhere."""
    file_values = _parse_config_file(args.config) if args.config else {}
    merged = {}
    for key, (typ, default, _) in _OPTIONS[command].items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_values:
            merged[key] = _coerce(file_values[key], typ, key)
        elif default is not None:
            merged[key] = default
        else:
            raise GuardError(f"{command}: missing required option --{key.replace('_', '-')}")
    return merged


def _parse_mu_list(text):
    try:
        mus = [float(tok) for tok in str(text).replace(";", ",").split(",") if tok]
    except ValueError as exc:
        raise FormatError(f"cannot parse mu list {text!r}") from exc
    if not mus:
        raise FormatError(f"empty mu list {text!r}")
    return mus


def _cmd_groundstate(opt):
    profile = solve_ground_state(opt["n"], opt["p"], tol=opt["tol"])
    path = f"{opt['out']}.csv"
    save_profile(path, profile)
    print(
        f"ground state n={opt['n']} p={opt['p']}: "
        f"multiplier={float(profile.multiplier)!r}"
    )
    print(
        f"amplitude={float(profile.amplitude)!r} "
        f"residual={profile.el_residual:.3e}"
    )
    print(f"wrote {path} and {path}.json")
    return 0


def _config_kwargs(opt):
    """The options that are PipelineConfig fields, and the coupling --a."""
    return {"coupling": opt["a"], **{k: v for k, v in opt.items() if k in _CONFIG}}


def _cmd_breather(opt):
    if opt["K"] != 0:
        opt["r_min"] = opt["K"] * opt["mu"]
    b = assemble_breather(PipelineConfig(**_config_kwargs(opt)))
    err = error_vs_reference(b)
    residual = kg_residual(b)
    save_breather(f"{opt['out']}.kgbr", b)
    save_breather_report(
        f"{opt['out']}.json",
        b,
        extra={"kg_residual": residual, "errors": err.to_dict()},
    )
    print(f"breather n={b.grid.n} mode={b.mode} mu={b.mu} K={b.grid.K}")
    print(f"omega={b.omega!r}")
    print(f"kg_residual={residual:.3e} symmetry={b.symmetry_error():.3e}")
    print(f"e_h2={err.e_h2:.6e} e_sup={err.e_sup:.6e}")
    print(f"wrote {opt['out']}.kgbr and {opt['out']}.json")
    return 0


def _cmd_scaling(opt):
    mus = _parse_mu_list(opt["mu_list"])
    start = last = time.perf_counter()

    def progress(mu, row):
        # this mu's wall time, and the process peak so far (ru_maxrss: KiB on Linux)
        nonlocal last
        now = time.perf_counter()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cost = f"wall={now - last:.3f}s peak_rss={peak:.0f} MB"
        last = now
        if row is None:
            print(f"  mu={mu}: failed {cost}", flush=True)
        else:
            print(f"  mu={mu}: e_h2={row.e_h2:.4e} e_sup={row.e_sup:.4e} "
                  f"residual={row.kg_residual:.2e} {cost}", flush=True)

    table = scaling_study(mus, progress=progress, **_config_kwargs(opt))
    print(f"sweep took {time.perf_counter() - start:.2f}s")
    table.to_csv(f"{opt['out']}.csv")
    table.to_json(f"{opt['out']}.json")
    if table.failures:
        print(f"failures: {table.failures}")
    for name in SCALING_COLUMNS:
        try:
            fit = table.slope(name)
        except GuardError as exc:
            print(f"slope({name}): unavailable ({exc})")
            continue
        print(f"slope({name}) = {fit.slope:.4f} +- {fit.stderr:.4f}")
    print(f"wrote {opt['out']}.csv and {opt['out']}.json")
    return 0


def _cmd_validate(opt):
    b = load_breather(opt["input"])
    err = error_vs_reference(b)
    payload = {
        "input": opt["input"],
        "n": b.grid.n,
        "mode": b.mode,
        "mu": b.mu,
        "omega": b.omega,
        "kg_residual": kg_residual(b),
        "symmetry_error": b.symmetry_error(),
        "errors": err.to_dict(),
    }
    if opt["integrate"]:  # the continuum seed races the breather
        for key, seed in (("integration", None),
                          ("continuum_seed", reference_coefficients(b))):
            rep = integrate_period(b, steps_per_period=opt["steps"],
                                   periods=opt["periods"], initial_coeffs=seed)
            payload[key] = rep.to_dict()
    text = json.dumps(payload, indent=2, default=float)
    if opt["out"]:
        with open(opt["out"], "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {opt['out']}")
    else:
        print(text)
    return 0


def _cmd_fem_check(opt):
    mus = _parse_mu_list(opt["mu_list"])
    profile = solve_ground_state(opt["n"], opt["p"])
    q = 2.0 * opt["p"]
    power = 4.0 * opt["p"] + 2.0
    rows = []
    for mu in mus:
        grid = GridSpec.for_radius(opt["n"], mu=mu, r_min=opt["r_min"])
        psi = sample_reference(profile, grid)  # on the block; both sums are the box's
        g_c, g_d, r_g = functional_remainder(mirror_block(psi, grid), grid, q=q)
        chain = float(
            mu**grid.n * np.sum(orbit_sizes(grid) * np.abs(psi) ** power)
            / (mu ** (grid.n / 2.0) * block_norm_q(psi, grid, mu)) ** power
        )
        rows.append({"mu": mu, "G_c": g_c, "G_d": g_d, "R_G": r_g,
                     "embedding_ratio": chain})
        print(f"  mu={mu}: G_c={g_c:.8e} G_d={g_d:.8e} R_G={r_g:+.3e}")
    payload = {"n": opt["n"], "p": opt["p"], "rows": rows}
    if len(rows) >= 4:
        x = np.log([r["mu"] for r in rows])
        y = np.log([abs(r["R_G"]) for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        payload["rg_slope"] = float(slope)
        print(f"slope(|R_G|) = {slope:.4f}")
    if opt["out"]:
        with open(opt["out"], "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {opt['out']}")
    return 0


_COMMANDS = {
    "groundstate": (_cmd_groundstate, "solve the continuum NLS profile"),
    "breather": (_cmd_breather, "assemble one breather and save it"),
    "scaling": (_cmd_scaling, "mu sweep with log-log slopes"),
    "validate": (_cmd_validate, "recheck a saved breather file"),
    "fem-check": (_cmd_fem_check, "lattice-vs-continuum functional gap"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgbreather",
        description="discrete breathers in Klein-Gordon lattices near the "
        "continuum NLS limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for key, (typ, _, option_help) in _OPTIONS[command].items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                sp.add_argument(flag, action="store_const", const=True,
                                help=option_help)
            elif key == "mode":
                sp.add_argument(flag, choices=tuple(BREATHER_MODES[2]),
                                help=option_help)
            else:
                sp.add_argument(flag, type=typ, help=option_help)
        sp.add_argument("--config", type=str,
                        help="key=value file; flags take precedence")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _merge(args, args.command)
        return _COMMANDS[args.command][0](options)
    except GuardError as exc:  # ResonanceError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
