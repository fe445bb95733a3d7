"""Command-line front door: parameter configs in, CSV/JSON tables out.

Subcommands wrap the library modules one to one:

  eval      truncated values on a time grid (with the two-panel preset)
  lift      one two-level increment as JSON
  norms     seminorm estimates, exponent fits, and the witness
  converge  convergence-rate report (CSV or JSON)
  rde       driven differential equation paths (with the three-level preset)
  demo      equal-base mixed-integral table
  bounds    elementary-integral bound diagnostics

COMMANDS gives each mode of each subcommand the flags it reads, with their
defaults; the first mode whose REQUIRED flags are all given runs.  A given
flag that mode does not read (a second component source, say) or a second
value of a one-value flag exits 1 naming the flag.

Every CSV carries a header row and trailing '#' metadata comments recording
the full parameter set and the library version; output is byte-identical
across runs for identical flags.  Exit codes: 0 success, 1 parameter or
validation error (the message names the flag or constraint), 2 when a
requested tolerance is unreachable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParameterError, ToleranceUnreachable
from .holder import estimate_exponent, nonconvergence_witness
from .iterated import FrequencyPair, bound_diagnostics
from .phase import to_fraction, unit_time
from .rde import BilinearField, RdeProblem, solve_ode_truncated, solve_rough
from .roughpath import convergence_report, lift_limit, lift_truncated, rough_norm
from .trigseries import mixed_integral_table
from .weierstrass import (
    Phase,
    TruncationPolicy,
    VectorWeierstrass,
    eval_truncated,
    validate_component,
    vector_from_config,
)

FIGURE_COMPONENTS = ({"b": 2, "a": "18/25"}, {"b": 3, "a": "3/5"})
MAX_EVAL_POINTS = (1 << 16) + 1  # eval sums each point on its own: about 0.34 ms a point at N = 20, d = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for tolerance only
        raise ParameterError(message)


def _at_least(low: int):
    """argparse type for an int flag of at least ``low``; argparse names the flag on failure."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"
    return parse


def _named(parse):
    """argparse type from a library parser, so that argparse names the flag before its message."""
    def typed(text):
        try:
            return parse(text)
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


def _list_flag(flag: str, text: str, kind) -> list:
    """The comma-separated ``kind`` values of a list flag."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(f"{flag}: expected comma-separated {kind.__name__} values, "
                             f"got {text!r}") from None


# Every flag once: dest -> (option, argparse type, or None for a switch, help).
FLAGS = {
    "figure_params": ("--figure-params", None, "use the standard two-component parameter pair"),
    "config": ("--config", str, "JSON config file with a components list"),
    "b": ("--b", int, "component base"),
    "a": ("--a", str, "amplitude ratio, e.g. 18/25"),
    "component_alpha": ("--alpha", float, "Hoelder exponent per component (instead of --a)"),
    "phase": ("--phase", Phase, "cos or sin"),
    "figure1": ("--figure1", None, "emit the two-panel preset for the standard parameter pair"),
    "figure3": ("--figure3", None, "emit the three-level preset (N = 4, 8, 12)"),
    "witness": ("--witness", None, "non-convergence witness per component"),
    "estimate_exponent": ("--estimate-exponent", None, "fit the Hoelder exponent"),
    "rough": ("--rough", None, "use the rough stepper"),
    "N": ("--N", int, "truncation level"),
    "tol": ("--tol", float, "tolerance; the tails set the level"),
    "eps_prime": ("--eps-prime", float, "tail slack of the tolerance"),
    "norm_alpha": ("--alpha", float, "seminorm exponent, in (1/3, min component alpha]"),
    "Ns": ("--Ns", str, "comma-separated truncation levels"),
    "grid_step": ("--grid-step", _named(to_fraction), "rational grid step, e.g. 1/1024"),
    "step": ("--step", _named(to_fraction), "rational solver step, e.g. 1/4096"),
    "s": ("--s", _named(unit_time), "rational interval start in [0, 1]"),
    "t": ("--t", _named(unit_time), "rational interval end in [0, 1]"),
    "points": ("--points", _at_least(2), "output points"),
    "depth": ("--depth", _at_least(1), "dyadic grid depth"),
    "eps": ("--eps", float, "bound slack"),
    "beta": ("--beta", float, "second-level exponent"),
    "json": ("--json", None, "write JSON instead of CSV"),
    "y0": ("--y0", str, "comma-separated start state"),
    "b1": ("--b1", int, "first base"),
    "b2": ("--b2", int, "second base"),
    "n": ("--n", int, "first-base mode"),
    "ell": ("--ell", int, "second-base mode"),
    "samples": ("--samples", _at_least(1), "sampled intervals"),
    "out": ("--out", str, "output path (stdout when absent)"),
}


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _emit(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path, header, rows, metadata: dict) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    for key in metadata:
        lines.append(f"# {key}={_fmt(metadata[key])}")
    lines.append(f"# generator=weierpath {__version__}")
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path, payload: dict, v: VectorWeierstrass) -> None:
    payload = {**payload, "components": [c.to_config() for c in v.components],
               "generator": f"weierpath {__version__}"}
    _emit(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _components_from_args(args) -> VectorWeierstrass:
    # args holds the flags of one component source (see _with_sources)
    if hasattr(args, "figure_params"):
        return VectorWeierstrass(
            [validate_component(c["b"], a=c["a"], phase=args.phase) for c in FIGURE_COMPONENTS]
        )
    if hasattr(args, "config"):
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"--config: cannot read {args.config}: {exc}") from exc
        return vector_from_config(cfg)
    bs, amps, alphas = args.b, args.a, getattr(args, "component_alpha", [])
    if not bs:
        raise ParameterError("--b: give at least one base (or use --config / a preset)")
    if amps and alphas:
        raise ParameterError("give --a or --alpha per component, not both")
    key, values = ("a", amps) if amps else ("alpha", alphas)
    if len(values) != len(bs):
        raise ParameterError(f"--{key}: need exactly one value per --b (got {len(values)} for {len(bs)})")
    return VectorWeierstrass([validate_component(b, **{key: x}, phase=args.phase)
                              for b, x in zip(bs, values)])


def _truncation(args):
    """(truncation, metadata): a TruncationPolicy in a tolerance mode, else the level --N."""
    if hasattr(args, "tol"):
        return (TruncationPolicy.tolerance(args.tol, args.eps_prime),
                {"tol": args.tol, "epsPrime": args.eps_prime})
    return args.N, {"N": args.N}


def _meta_components(v: VectorWeierstrass) -> dict:
    return {
        f"component{i}": json.dumps(c.to_config(), sort_keys=True)
        for i, c in enumerate(v.components)
    }


# ---------------------------------------------------------------------------
# subcommands; each reads exactly the flags of its mode in COMMANDS


def _cmd_eval(args) -> int:
    v = _components_from_args(args)
    if args.mode == "figure1":
        flag, count, step = "--points", args.points, Fraction(1, args.points - 1)
        grid = {"grid": f"uniform {args.points} points on [0,1]"}
    else:
        if not (0 < args.grid_step <= 1):
            raise ParameterError("--grid-step must lie in (0, 1]")
        flag, count, step = "--grid-step", int(1 / args.grid_step) + 1, args.grid_step
        grid = {"grid_step": args.grid_step}
    if count > MAX_EVAL_POINTS:
        raise ParameterError(f"{flag} gives {count} points, above {MAX_EVAL_POINTS} (cost guard)")
    times = [k * step for k in range(count)]
    rows = [(t, *(eval_truncated(c, args.N, t) for c in v.components)) for t in times]
    header = [f"W{i+1}" for i in range(v.d)]
    meta = {"N": args.N, **grid, **_meta_components(v)}
    if args.mode == "figure1":
        _write_csv(f"{args.out}_curves.csv", ["t"] + header, rows, meta)
        _write_csv(f"{args.out}_parametric.csv", header, [row[1:] for row in rows], meta)
    else:
        _write_csv(args.out, ["t"] + header, rows, meta)
    return 0


def _cmd_lift(args) -> int:
    v = _components_from_args(args)
    truncation, mode = _truncation(args)
    lift = lift_truncated if isinstance(truncation, int) else lift_limit
    inc = lift(v, truncation, args.s, args.t)
    _write_json(args.out, {
        "s": _fmt(args.s),
        "t": _fmt(args.t),
        "first": inc.first.tolist(),
        "second": inc.second.tolist(),
        **mode,
    }, v)
    return 0


def _cmd_norms(args) -> int:
    v = _components_from_args(args)
    if args.mode == "witness":
        witnesses = [nonconvergence_witness(c, args.N) for c in v.components]
        _write_json(args.out, {"N": args.N, "witnesses": [
            {"t": _fmt(w.witness_t), "lowerBound": w.lower_bound, "measuredRatio": w.measured_ratio}
            for w in witnesses
        ]}, v)
        return 0
    if args.mode == "exponent":
        fits = [estimate_exponent(c, args.N, args.depth) for c in v.components]
        rows = [(i, *row) for i, fit in enumerate(fits) for row in fit.csv_rows()]
        meta = {"N": args.N, "depth": args.depth, **_meta_components(v)}
        for i, fit in enumerate(fits):
            meta.update({f"alphaHat{i}": fit.alpha_hat, f"constant{i}": fit.constant})
        _write_csv(args.out, ["component", "m", "scale", "supIncrement"], rows, meta)
        return 0
    truncation, _ = _truncation(args)
    _write_json(args.out, rough_norm(v, truncation, args.norm_alpha, args.depth).to_json_dict(), v)
    return 0


def _cmd_converge(args) -> int:
    v = _components_from_args(args)
    report = convergence_report(
        v, _list_flag("--Ns", args.Ns, int),
        alpha=args.norm_alpha, eps=args.eps, beta=args.beta,
        eps_prime=args.eps_prime, depth=args.depth,
    )
    if args.json:
        _write_json(args.out, report.to_json_dict(), v)
        return 0
    keys = ("fittedRatio fittedRatioFirst fittedRatioSecond theoreticalRho kappa beta eps "
            "epsPrime alpha referenceLevel monotone gridSpec").split()
    report_dict = report.to_json_dict()
    meta = {**{k: report_dict[k] for k in keys}, **_meta_components(v)}
    _write_csv(args.out, ["N", "supFirst", "supSecond"], report.csv_rows(), meta)
    return 0


def _cmd_rde(args) -> int:
    v = _components_from_args(args)
    y0 = np.array(_list_flag("--y0", args.y0, float))
    problem = RdeProblem(BilinearField(), v, y0, step=args.step)
    header = ["t"] + [f"Y{i+1}" for i in range(v.d)]
    meta_common = {"y0": args.y0, **_meta_components(v)}
    if args.mode == "figure3":
        for N in (4, 8, 12):
            path = solve_ode_truncated(problem, N, output_points=args.points)
            _write_csv(f"{args.out}_N{N}.csv", header, path.csv_rows(), {"N": N, **meta_common})
        return 0
    truncation, mode = _truncation(args)
    solve = solve_ode_truncated if args.mode == "ode" else solve_rough
    path = solve(problem, truncation, output_points=args.points)
    kind = {"ode": "ode-truncated", "rough N": "rough-truncated", "rough tol": "rough-limit"}
    _write_csv(args.out, header, path.csv_rows(), {"mode": kind[args.mode], **mode, **meta_common})
    return 0


def _cmd_demo(args) -> int:
    a = validate_component(args.b, a=args.a).a_rational
    table = mixed_integral_table(args.b, float(a), _list_flag("--Ns", args.Ns, int),
                                 args.s, args.t)
    header = ["N", "F1dG1", "F2dG2", "sumCombo", "diffCombo",
              "deltaF1dG1", "deltaF2dG2", "deltaSum", "deltaDiff"]
    rows = [tuple("" if x is None else x for x in row) for row in table.csv_rows()]
    _write_csv(args.out, header, rows,
               {"b": args.b, "a": _fmt(a), "s": _fmt(table.s), "t": _fmt(table.t)})
    return 0


def _cmd_bounds(args) -> int:
    pair = FrequencyPair(args.b1, args.b2, args.n, args.ell)
    den = 1 << args.depth
    # geometric width coverage: several offsets at each dyadic separation
    per_scale = max(1, args.samples // args.depth)
    sample = []
    for j in range(args.depth, 0, -1):
        width = 1 << (args.depth - j)
        for i in range(per_scale):
            lo = (i * 7919) % (den - width)
            sample.append((Fraction(lo, den), Fraction(lo + width, den)))
    diag = bound_diagnostics(pair, sample, eps=args.eps, phase=Phase(args.phase))
    meta = {"eps": args.eps, **diag.constants, "flagged": ",".join(diag.flagged) or "none"}
    _write_csv(args.out, ["n", "ell", "s", "t", "J", "bound_i", "bound_ii", "bound_iii", "bound_iv"],
               diag.csv_rows(), meta)
    return 0


# ---------------------------------------------------------------------------
# the table: subcommand -> (handler, help, {(mode, component source): flag -> default})

REQUIRED = object()
_PRESET = {"figure_params": False, "phase": "cos"}  # the fixed pair; --figure-params is redundant
_TOL = {"tol": REQUIRED, "eps_prime": 0.1}
_ST = {"s": Fraction(0), "t": Fraction(1)}
_PATH = {"points": 1025, "step": None, "y0": "1,0"}


def _with_sources(modes: dict, *per_component: str) -> dict:
    """Each mode keyed by (name, source) for each component source in turn; a preset has none."""
    sources = {"--figure-params": {"figure_params": REQUIRED, "phase": "cos"},
               "--config": {"config": REQUIRED},
               "--b": {**{dest: [] for dest in per_component}, "phase": "cos"}}
    return {(name, source): {**components, **flags} for name, flags in modes.items()
            for source, components in ([(None, {})] if "figure_params" in flags else sources.items())}


COMMANDS = {
    "eval": (_cmd_eval, "truncated values on a time grid", _with_sources({
        "figure1": {"figure1": REQUIRED, **_PRESET, "N": 20, "points": 2049, "out": "figure1"},
        "grid": {"N": 20, "grid_step": Fraction(1, 1024)},
    }, "b", "a", "component_alpha")),
    "lift": (_cmd_lift, "one rough increment as JSON", _with_sources({
        "tol": {**_TOL, **_ST},
        "N": {"N": 20, **_ST},
    }, "b", "a", "component_alpha")),
    "norms": (_cmd_norms, "seminorm estimate, exponent fit, or witness", _with_sources({
        "witness": {"witness": REQUIRED, "N": 10},
        "exponent": {"estimate_exponent": REQUIRED, "N": 20, "depth": 10},
        "seminorm tol": {"norm_alpha": REQUIRED, **_TOL, "depth": 10},
        "seminorm N": {"norm_alpha": REQUIRED, "N": 20, "depth": 10},
    }, "b", "a")),
    "converge": (_cmd_converge, "convergence-rate report", _with_sources({
        "report": {"Ns": "4,5,6,7,8,9,10,11,12", "norm_alpha": None, "eps": 0.02, "beta": None,
                   "eps_prime": 0.1, "depth": 8, "json": False},
    }, "b", "a")),
    "rde": (_cmd_rde, "paths of dY = M(Y) dW for the 2x2 bilinear field", _with_sources({
        "figure3": {"figure3": REQUIRED, **_PRESET, **_PATH, "out": "figure3"},
        "rough tol": {"rough": REQUIRED, **_TOL, **_PATH},
        "rough N": {"rough": REQUIRED, "N": 8, **_PATH},
        "ode": {"N": 8, **_PATH},
    }, "b", "a", "component_alpha")),
    "demo": (_cmd_demo, "equal-base mixed-integral table", {("table", None): {
        "b": 2, "a": "18/25", "Ns": "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
        "s": Fraction(0), "t": Fraction(7, 10)}}),
    "bounds": (_cmd_bounds, "elementary-integral bound diagnostics", {("diagnostics", None): {
        "b1": REQUIRED, "b2": REQUIRED, "n": REQUIRED, "ell": REQUIRED, "eps": REQUIRED,
        "phase": "cos", "depth": 10, "samples": 100}}),
}


def _mode(command: str, given) -> tuple:
    """The (mode, component source) that the ``given`` dests select, and the flags it reads."""
    for key, flags in COMMANDS[command][2].items():
        if all(dest in given for dest, default in flags.items() if default is REQUIRED):
            return key, {"out": None, **flags}
    missing = next(dest for dest, default in flags.items() if default is REQUIRED and dest not in given)
    raise ParameterError(f"{FLAGS[missing][0]}: required by the {command} {key[0]} mode")


def _check(args) -> None:
    """Exit 1 on a flag the chosen mode does not read; else fill in its defaults."""
    given = {dest: value for dest, value in vars(args).items() if dest != "command"}
    (args.mode, source), flags = _mode(args.command, given)
    label = f"the {args.command} {args.mode} mode" + (f" (components from {source})" if source else "")
    for dest, value in given.items():
        if dest not in flags:
            raise ParameterError(f"{FLAGS[dest][0]}: not read by {label}")
        if isinstance(value, list) and not isinstance(flags[dest], list):
            if len(value) > 1:
                raise ParameterError(f"{FLAGS[dest][0]}: {label} reads one value, got {len(value)}")
            given[dest] = value[0]
    vars(args).update({**flags, **given})


def build_parser() -> _Parser:
    parser = _Parser(prog="weierpath", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"weierpath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, modes) in COMMANDS.items():
        # absent flags stay unset, so _check sees exactly the flags given
        p = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        read = {"out"}.union(*modes.values())
        for dest in (dest for dest in FLAGS if dest in read):
            option, kind, doc = FLAGS[dest]
            action = {"action": "store_true"} if kind is None else {"action": "append", "type": kind}
            p.add_argument(option, dest=dest, help=doc, **action)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check(args)
        return COMMANDS[args.command][0](args)
    except ToleranceUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
