"""Command-line front door: parameter configs in, CSV/JSON tables out.

Subcommands wrap the library modules one to one:

  eval      truncated values on a time grid (with the two-panel preset)
  lift      one two-level increment as JSON
  norms     seminorm estimates, exponent fits, and the witness
  converge  convergence-rate report (CSV or JSON)
  rde       driven differential equation paths (with the three-level preset)
  demo      equal-base mixed-integral table
  bounds    elementary-integral bound diagnostics

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


def _list_flag(flag: str, text, kind, default: list) -> list:
    """The comma-separated ``kind`` values of a list flag, or ``default`` when it is absent."""
    if not text:
        return default
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(f"{flag}: expected comma-separated {kind.__name__} values, "
                             f"got {text!r}") from None


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _write_csv(path, header, rows, metadata: dict) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    for key in metadata:
        lines.append(f"# {key}={_fmt(metadata[key])}")
    lines.append(f"# generator=weierpath {__version__}")
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload["generator"] = f"weierpath {__version__}"
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _components_from_args(args) -> VectorWeierstrass:
    if any(getattr(args, flag, False) for flag in ("figure1", "figure3", "figure_params")):
        return VectorWeierstrass(
            [validate_component(c["b"], a=c["a"], phase=args.phase) for c in FIGURE_COMPONENTS]
        )
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"--config: cannot read {args.config}: {exc}") from exc
        return vector_from_config(cfg)
    bs = args.b or []
    amps = args.a or []
    alphas = getattr(args, "component_alpha", None) or []
    if not bs:
        raise ParameterError("--b: give at least one base (or use --config / a preset)")
    if amps and alphas:
        raise ParameterError("give --a or --alpha per component, not both")
    values = amps if amps else alphas
    if len(values) != len(bs):
        flag = "--a" if amps else "--alpha"
        raise ParameterError(f"{flag}: need exactly one value per --b (got {len(values)} for {len(bs)})")
    comps = []
    for b, val in zip(bs, values):
        if amps:
            comps.append(validate_component(b, a=val, phase=args.phase))
        else:
            comps.append(validate_component(b, alpha=float(val), phase=args.phase))
    return VectorWeierstrass(comps)


def _component_flags(p: _Parser, with_alpha: bool = True) -> None:
    p.add_argument("--b", type=int, action="append", help="component base (repeatable)")
    p.add_argument("--a", action="append", help="amplitude ratio, e.g. 18/25 (repeatable)")
    if with_alpha:
        p.add_argument("--alpha", dest="component_alpha", action="append",
                       help="Hoelder exponent per component (alternative to --a)")
    p.add_argument("--phase", default="cos", choices=["cos", "sin"])
    p.add_argument("--config", help="JSON config file with a components list")
    p.add_argument("--figure-params", dest="figure_params", action="store_true",
                   help="use the standard two-component parameter pair")


def _truncation_flags(p: _Parser) -> None:
    p.add_argument("--N", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, default=0.1)


def _truncation(args, default_N: int):
    """(truncation, metadata): a TruncationPolicy if --tol is given, else --N or ``default_N``."""
    if args.tol is not None:
        return (TruncationPolicy.tolerance(args.tol, args.eps_prime),
                {"tol": args.tol, "epsPrime": args.eps_prime})
    N = args.N if args.N is not None else default_N
    return N, {"N": N}


def _meta_components(v: VectorWeierstrass) -> dict:
    return {
        f"component{i}": json.dumps(c.to_config(), sort_keys=True)
        for i, c in enumerate(v.components)
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    v = _components_from_args(args)
    N = args.N if args.N is not None else 20
    if args.figure1:
        times = [Fraction(k, args.points - 1) for k in range(args.points)]
    else:
        step = to_fraction(args.grid_step) if args.grid_step else Fraction(1, 1024)
        if not (0 < step <= 1):
            raise ParameterError("--grid-step must lie in (0, 1]")
        times = [k * step for k in range(int(1 / step) + 1)]
    rows = [(t, *(eval_truncated(c, N, t) for c in v.components)) for t in times]
    header = [f"W{i+1}" for i in range(v.d)]
    if args.figure1:
        out = args.out or "figure1"
        meta = {"N": N, "grid": f"uniform {args.points} points on [0,1]", **_meta_components(v)}
        _write_csv(f"{out}_curves.csv", ["t"] + header, rows, meta)
        _write_csv(f"{out}_parametric.csv", header, [row[1:] for row in rows], meta)
        return 0
    meta = {"N": N, "grid_step": step, **_meta_components(v)}
    _write_csv(args.out, ["t"] + header, rows, meta)
    return 0


def _cmd_lift(args) -> int:
    v = _components_from_args(args)
    s = unit_time(to_fraction(args.s))
    t = unit_time(to_fraction(args.t))
    truncation, mode = _truncation(args, 20)
    lift = lift_truncated if isinstance(truncation, int) else lift_limit
    inc = lift(v, truncation, s, t)
    _write_json(args.out, {
        "s": _fmt(s),
        "t": _fmt(t),
        "first": inc.first.tolist(),
        "second": inc.second.tolist(),
        "components": [c.to_config() for c in v.components],
        **mode,
    })
    return 0


def _cmd_norms(args) -> int:
    v = _components_from_args(args)
    if args.witness:
        N = args.N if args.N is not None else 10
        results = [nonconvergence_witness(c, N) for c in v.components]
        _write_json(args.out, {
            "N": N,
            "witnesses": [
                {"t": _fmt(w.witness_t), "lowerBound": w.lower_bound,
                 "measuredRatio": w.measured_ratio}
                for w in results
            ],
            "components": [c.to_config() for c in v.components],
        })
        return 0
    if args.estimate_exponent:
        N = args.N if args.N is not None else 20
        rows = []
        fits = []
        for i, c in enumerate(v.components):
            fit = estimate_exponent(c, N, args.depth)
            fits.append(fit)
            rows.extend((i, m, scale, sup) for (m, scale, sup) in fit.csv_rows())
        meta = {"N": N, "depth": args.depth, **_meta_components(v)}
        for i, fit in enumerate(fits):
            meta[f"alphaHat{i}"] = fit.alpha_hat
            meta[f"constant{i}"] = fit.constant
        _write_csv(args.out, ["component", "m", "scale", "supIncrement"], rows, meta)
        return 0
    if args.norm_alpha is None:
        raise ParameterError("--alpha: required for the seminorm estimate")
    truncation, _ = _truncation(args, 20)
    est = rough_norm(v, truncation, args.norm_alpha, args.depth)
    _write_json(args.out, {
        **est.to_json_dict(),
        "components": [c.to_config() for c in v.components],
    })
    return 0


def _cmd_converge(args) -> int:
    v = _components_from_args(args)
    Ns = _list_flag("--Ns", args.Ns, int, list(range(4, 13)))
    report = convergence_report(
        v, Ns,
        alpha=args.norm_alpha, eps=args.eps, beta=args.beta,
        eps_prime=args.eps_prime, depth=args.depth,
    )
    if args.json:
        _write_json(args.out, {
            **report.to_json_dict(),
            "components": [c.to_config() for c in v.components],
        })
        return 0
    keys = ("fittedRatio fittedRatioFirst fittedRatioSecond theoreticalRho kappa beta eps "
            "epsPrime alpha referenceLevel monotone gridSpec").split()
    report_dict = report.to_json_dict()
    meta = {**{k: report_dict[k] for k in keys}, **_meta_components(v)}
    _write_csv(args.out, ["N", "supFirst", "supSecond"], report.csv_rows(), meta)
    return 0


def _cmd_rde(args) -> int:
    v = _components_from_args(args)
    y0 = np.array(_list_flag("--y0", args.y0, float, [1.0, 0.0]))
    step = to_fraction(args.step) if args.step else None
    problem = RdeProblem(BilinearField(), v, y0, step=step)
    meta_common = {"y0": args.y0 or "1,0", **_meta_components(v)}
    if args.figure3:
        out = args.out or "figure3"
        for N in (4, 8, 12):
            path = solve_ode_truncated(problem, N, output_points=args.points)
            _write_csv(
                f"{out}_N{N}.csv",
                ["t"] + [f"Y{i+1}" for i in range(v.d)],
                path.csv_rows(),
                {"N": N, **meta_common},
            )
        return 0
    if args.rough:
        truncation, mode = _truncation(args, 8)
        mode = {"mode": "rough-limit" if args.tol is not None else "rough-truncated", **mode}
        path = solve_rough(problem, truncation, step=step, output_points=args.points)
    else:
        N = args.N if args.N is not None else 8
        mode = {"mode": "ode-truncated", "N": N}
        path = solve_ode_truncated(problem, N, output_points=args.points)
    _write_csv(args.out, ["t"] + [f"Y{i+1}" for i in range(v.d)],
               path.csv_rows(), {**mode, **meta_common})
    return 0


def _cmd_demo(args) -> int:
    b = args.b[0] if args.b else 2
    a = validate_component(b, a=args.a[0]).a_rational if args.a else Fraction(18, 25)
    Ns = _list_flag("--Ns", args.Ns, int, list(range(1, 17)))
    table = mixed_integral_table(b, float(a), Ns, to_fraction(args.s), to_fraction(args.t))
    header = ["N", "F1dG1", "F2dG2", "sumCombo", "diffCombo",
              "deltaF1dG1", "deltaF2dG2", "deltaSum", "deltaDiff"]
    rows = [tuple("" if x is None else x for x in row) for row in table.csv_rows()]
    _write_csv(args.out, header, rows,
               {"b": b, "a": _fmt(a), "s": _fmt(table.s), "t": _fmt(table.t)})
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
    meta = {"eps": args.eps, **{k: v for k, v in diag.constants.items()},
            "flagged": ",".join(diag.flagged) or "none"}
    _write_csv(args.out, ["n", "ell", "s", "t", "J", "bound_i", "bound_ii", "bound_iii", "bound_iv"],
               diag.csv_rows(), meta)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="weierpath", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"weierpath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="truncated values on a time grid")
    _component_flags(p)
    p.add_argument("--N", type=int)
    p.add_argument("--grid-step", help="rational grid step, e.g. 1/1024")
    p.add_argument("--points", type=_at_least(2), default=2049, help="points for --figure1")
    p.add_argument("--figure1", action="store_true",
                   help="emit the two-panel preset for the standard parameter pair")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("lift", help="one rough increment as JSON")
    _component_flags(p)
    _truncation_flags(p)
    p.add_argument("--s", default="0")
    p.add_argument("--t", default="1")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("norms", help="seminorm estimate, exponent fit, or witness")
    _component_flags(p, with_alpha=False)
    p.add_argument("--alpha", dest="norm_alpha", type=float,
                   help="seminorm exponent (must lie in (1/3, min component alpha])")
    _truncation_flags(p)
    p.add_argument("--depth", type=_at_least(1), default=10)
    p.add_argument("--estimate-exponent", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("converge", help="convergence-rate report")
    _component_flags(p, with_alpha=False)
    p.add_argument("--Ns", help="comma-separated truncation levels")
    p.add_argument("--alpha", dest="norm_alpha", type=float)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--beta", type=float)
    p.add_argument("--eps-prime", dest="eps_prime", type=float, default=0.1)
    p.add_argument("--depth", type=_at_least(1), default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("rde", help="paths of dY = M(Y) dW for the 2x2 bilinear field")
    _component_flags(p)
    _truncation_flags(p)
    p.add_argument("--step")
    p.add_argument("--y0", help="comma-separated start state (default 1,0)")
    p.add_argument("--points", type=_at_least(2), default=1025)
    p.add_argument("--rough", action="store_true", help="use the rough stepper")
    p.add_argument("--figure3", action="store_true",
                   help="emit the three-level preset (N = 4, 8, 12)")
    p.set_defaults(fn=_cmd_rde)

    p = sub.add_parser("demo", help="equal-base mixed-integral table")
    _component_flags(p)
    p.add_argument("--Ns", help="comma-separated levels (default 1..16)")
    p.add_argument("--s", default="0")
    p.add_argument("--t", default="7/10")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("bounds", help="elementary-integral bound diagnostics")
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--phase", default="cos", choices=["cos", "sin"])
    p.add_argument("--depth", type=_at_least(1), default=10)
    p.add_argument("--samples", type=_at_least(1), default=100)
    p.set_defaults(fn=_cmd_bounds)
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ToleranceUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
