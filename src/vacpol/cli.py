"""Command-line front end.

``vacpol <profile|validate|spectrum|heat-kernel|asymptotics> [flags]``

Exit codes: 0 success, 1 validation failures, 2 invalid parameters or
positivity violation, 3 infrared divergence, 4 numerical failure.

Output is deterministic: the plane terms of a grid are one batch per
distinct side record (a mirror-symmetric wall's two sides are one batch, in
which each distinct ``|x1|`` is evaluated once), rows come in ascending
``x1`` order, and every float is printed in its shortest round-trip decimal
form.  An optional ``--config FILE`` reads ``key=value`` lines (keys are the
long flag names); each entry acts as a flag placed right after the
sub-command, before the explicit ones, so explicit flags win.  An unreadable
file, an unknown key or a value its flag rejects exits 2 with a message
naming the file or the key.

The argument parser is built once per process, on the first :func:`main`
call, and only read after that: a config file never changes its defaults.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import reflecting as rf
from . import semitransparent as st
from .core import FieldConfig, sign
from .errors import (
    InfraredDivergenceError,
    NumericalFailureError,
    ParameterError,
    VacpolError,
)
from .heatkernel import DIRICHLET, ReflectingBC, SemitransparentBC, _check_tau, wall_kernel
from .validation import SUITES, run_all, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARAMETER = 2
EXIT_INFRARED = 3
EXIT_NUMERICAL = 4

PROFILE_COLUMNS = (
    "x1",
    "free",
    "plane",
    "total",
    "asympt_small",
    "asympt_large",
    "rel_dev_small",
    "rel_dev_large",
)


def _coupling(text):
    """Robin coupling: a float, or the token ``dirichlet``."""
    if text.strip().lower() == "dirichlet":
        return DIRICHLET
    return float(text)


def _float_list(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _fmt(value):
    if value is None:
        return "nan"
    return repr(float(value))


def _json_safe(value):
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def _add_field_args(p):
    p.add_argument("--d", type=int, default=3, help="space dimension (1..11)")
    p.add_argument("--m", type=float, default=1.0, help="field mass (>= 0)")
    p.add_argument("--kappa", type=float, default=1.0, help="renormalization scale")


def _add_bc_args(p):
    p.add_argument("--geometry", choices=("reflecting", "semitransparent"), default="reflecting")
    p.add_argument("--b-plus", type=_coupling, default=0.0,
                   help="Robin coupling on the x1 > 0 face, or 'dirichlet'")
    p.add_argument("--b-minus", type=_coupling, default=0.0,
                   help="Robin coupling on the x1 < 0 face, or 'dirichlet'")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0, help="delta coupling")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--omega-re", type=float, default=1.0)
    p.add_argument("--omega-im", type=float, default=0.0)


def _add_grid_args(p):
    p.add_argument("--x-min", type=float, default=0.1)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.add_argument("--sides", choices=("plus", "minus", "both"), default="plus")


def _add_output_args(p):
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    p.add_argument("--columns", default=",".join(PROFILE_COLUMNS),
                   help="comma-separated subset of the profile columns")


def _make_bc(args):
    if args.geometry == "reflecting":
        return ReflectingBC(args.b_plus, args.b_minus)
    omega = complex(args.omega_re, args.omega_im)
    norm = abs(omega)
    if not abs(norm - 1.0) <= 1e-9:
        raise ParameterError(f"omega must have unit modulus (|omega| = {norm})")
    omega /= norm
    return SemitransparentBC(args.alpha, args.beta, args.gamma, args.sigma, omega)


def _make_grid(args):
    if not 0.0 < args.x_min < args.x_max < math.inf:
        raise ParameterError(f"grid needs finite bounds 0 < x_min < x_max, got x_min = "
                             f"{args.x_min}, x_max = {args.x_max}")
    if args.points < 2:
        raise ParameterError("grid needs points >= 2")
    if args.spacing == "linear":
        base = np.linspace(args.x_min, args.x_max, args.points)
    else:
        base = np.geomspace(args.x_min, args.x_max, args.points)
    xs = []
    if args.sides in ("plus", "both"):
        xs.extend(float(x) for x in base)
    if args.sides in ("minus", "both"):
        xs.extend(float(-x) for x in base)
    return sorted(xs)


def _geometry_module(args):
    return rf if args.geometry == "reflecting" else st


def _profile_rows(mod, cfg, bc, xs):
    rows = [dict.fromkeys(PROFILE_COLUMNS) for _ in xs]
    if cfg.m == 0.0:
        for row, x1 in zip(rows, xs):
            value = mod.massless_value(cfg, bc, x1)
            row["x1"] = x1
            row["free"], row["plane"], row["total"] = value.free_term, value.plane_term, value.total
        return rows
    free = mod.free_term(cfg)
    # each column is one batch per distinct side record: one for a mirror-symmetric wall
    columns = zip(mod.plane_term(cfg, bc, xs), mod.small_x_asymptotic(cfg, bc, xs),
                  mod.large_x_asymptotic(cfg, bc, xs))
    for row, x1, (plane, small, large) in zip(rows, xs, columns):
        row["x1"], row["free"], row["plane"] = x1, free, float(plane)
        row["total"] = free + row["plane"]
        row["asympt_small"], row["asympt_large"] = float(small), float(large)
        for dev_key, asympt in (("rel_dev_small", row["asympt_small"]),
                                ("rel_dev_large", row["asympt_large"])):
            if asympt:
                row[dev_key] = abs(row["plane"] / asympt - 1.0)
    return rows


def _emit_rows(args, columns, rows, meta):
    out = sys.stdout  # looked up per call, so that redirect_stdout reaches it
    if args.output == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    else:
        payload = {
            "meta": meta,
            "rows": [{c: _json_safe(row[c]) for c in columns} for row in rows],
        }
        out.write(json.dumps(payload) + "\n")


def _meta_from(args, keys):
    meta = {}
    for key in keys:
        value = getattr(args, key)
        if isinstance(value, float) and math.isinf(value):
            value = "dirichlet"
        meta[key] = value
    return meta


def cmd_profile(args):
    cfg = FieldConfig(args.d, args.m, args.kappa)
    bc = _make_bc(args)
    mod = _geometry_module(args)
    xs = _make_grid(args)
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    unknown = [c for c in columns if c not in PROFILE_COLUMNS]
    if unknown:
        raise ParameterError(f"unknown columns {unknown}; available: {','.join(PROFILE_COLUMNS)}")
    rows = _profile_rows(mod, cfg, bc, xs)
    meta = _meta_from(args, ("geometry", "d", "m", "kappa", "x_min", "x_max",
                             "points", "spacing", "sides"))
    if args.geometry == "reflecting":
        meta.update(_meta_from(args, ("b_plus", "b_minus")))
    else:
        meta.update(_meta_from(args, ("alpha", "beta", "gamma", "sigma", "omega_re", "omega_im")))
    _emit_rows(args, columns, rows, meta)
    return EXIT_OK


def cmd_asymptotics(args):
    cfg = FieldConfig(args.d, args.m, args.kappa)
    if cfg.m == 0.0:
        raise ParameterError("asymptotics needs m > 0 (the laws are massive leading orders)")
    bc = _make_bc(args)
    mod = _geometry_module(args)
    xs = _make_grid(args)
    rows = [
        {"x1": x, "asympt_small": small, "asympt_large": large}
        for x, small, large in zip(xs, mod.small_x_asymptotic(cfg, bc, xs),
                                   mod.large_x_asymptotic(cfg, bc, xs))
    ]
    meta = _meta_from(args, ("geometry", "d", "m", "kappa"))
    _emit_rows(args, ["x1", "asympt_small", "asympt_large"], rows, meta)
    return EXIT_OK


def cmd_spectrum(args):
    report = _geometry_module(args).spectrum(_make_bc(args), args.m)
    payload = {
        "geometry": args.geometry,
        "m": args.m,
        "continuous_threshold": report.continuous_threshold,
        "point_eigenvalues": list(report.point_eigenvalues),
        "positive": report.positive,
    }
    if report.lambda_plus is not None:
        payload["lambda_plus"] = report.lambda_plus
        payload["lambda_minus"] = report.lambda_minus
    print(json.dumps(payload))
    return EXIT_OK if report.positive else EXIT_PARAMETER


def cmd_heat_kernel(args):
    bc = _make_bc(args)
    # every point of the table is checked before the wall's positivity
    for tau in args.tau:
        _check_tau(tau)
    for x in args.x:
        sign(x, "x1")
    for y in args.y:
        sign(y, "y1")
    kernel = wall_kernel(bc, args.m)
    rows = []
    is_semi = args.geometry == "semitransparent"
    for tau in args.tau:
        for x in args.x:
            for y in args.y:
                value = kernel(tau, x, y)
                if is_semi:
                    rows.append({"tau": tau, "x1": x, "y1": y,
                                 "re": value.real, "im": value.imag})
                else:
                    rows.append({"tau": tau, "x1": x, "y1": y, "value": value})
    columns = ["tau", "x1", "y1"] + (["re", "im"] if is_semi else ["value"])
    meta = _meta_from(args, ("geometry", "m"))
    _emit_rows(args, columns, rows, meta)
    return EXIT_OK


def cmd_validate(args):
    results = run_all() if args.suite == "all" else run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    if args.output == "json":
        print(json.dumps([
            {"name": r.name, "passed": r.passed, "deviation": _json_safe(r.deviation),
             "tolerance": r.tolerance, "detail": r.detail}
            for r in results
        ]))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name}: deviation={r.deviation:.3e} tolerance={r.tolerance:.3e}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vacpol",
        description="Renormalized vacuum polarization near a flat reflecting or "
                    "semitransparent wall.",
    )
    parser.add_argument("--config", default=None,
                        help="key=value file providing defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    children = {}

    def command(name, func, help_text):
        p = children[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    for name, func, help_text in (
        ("profile", cmd_profile, "tabulate free/plane/total and asymptotics on a grid"),
        ("asymptotics", cmd_asymptotics, "leading-order curves alone"),
    ):
        p = command(name, func, help_text)
        _add_field_args(p)
        _add_bc_args(p)
        _add_grid_args(p)
        _add_output_args(p)

    p = command("spectrum", cmd_spectrum, "threshold, point eigenvalues, positivity verdict")
    p.add_argument("--m", type=float, default=1.0)
    _add_bc_args(p)

    p = command("heat-kernel", cmd_heat_kernel, "tabulate kernel values on tau/x/y lists")
    p.add_argument("--m", type=float, default=0.0)
    _add_bc_args(p)
    p.add_argument("--tau", type=_float_list, default=(1.0,), help="comma-separated list")
    p.add_argument("--x", type=_float_list, default=(1.0,), help="comma-separated list")
    p.add_argument("--y", type=_float_list, default=(1.0,), help="comma-separated list")
    p.add_argument("--output", choices=("csv", "json"), default="csv")

    p = command("validate", cmd_validate, "run the built-in invariant suites")
    p.add_argument("--suite", choices=("all",) + tuple(sorted(SUITES)), default="all")
    p.add_argument("--output", choices=("text", "json"), default="text")

    return parser, children


@functools.cache
def _parser():
    """The parser of :func:`build_parser`, built once per process; nothing
    writes to it after that."""
    return build_parser()


def _load_config(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParameterError(f"cannot read config file {path!r}: {reason}") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line without '=' in {path!r}: {raw.rstrip()}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_argv(children, argv):
    """``argv`` with the ``--config`` file's entries as ``--flag=value``
    tokens right after the sub-command, where the explicit flags that
    follow override them."""
    # the top-level grammar alone: the config file, the sub-command and
    # the tokens after it
    boot = argparse.ArgumentParser(prog="vacpol", add_help=False)
    boot.add_argument("--config")
    boot.add_argument("command", nargs="?")
    boot.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = boot.parse_known_args(argv)
    command = known.command
    actions = {action.dest: action for action in children[command]._actions
               if action.dest != "help"}
    tokens = []
    for key, text in _load_config(known.config).items():
        action = actions.get(key)
        if action is None:
            raise ParameterError(f"config key {key!r} is not a flag of '{command}'")
        try:
            value = action.type(text) if action.type is not None else text
        except (ValueError, TypeError):
            raise ParameterError(f"config key {key!r}: invalid value {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ParameterError(f"config key {key!r}: {text!r} is not one of "
                                 f"{', '.join(map(str, action.choices))}")
        tokens.append(f"{action.option_strings[0]}={text}")
    at = len(argv) - len(known.rest)
    return argv[:at] + tokens + argv[at:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, children = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # parse again, with the file's entries as flags
            args = parser.parse_args(_config_argv(children, argv))
        # looked up by name per call: a binding replaced after the parser was
        # built (a test double, a tracing wrapper) is the one that runs
        return globals()[args.func.__name__](args)
    except ParameterError as exc:
        print(f"vacpol: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except InfraredDivergenceError as exc:
        print(f"vacpol: infrared divergence: {exc}", file=sys.stderr)
        return EXIT_INFRARED
    except NumericalFailureError as exc:
        print(f"vacpol: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VacpolError as exc:
        print(f"vacpol: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
