"""Command-line front end.

Dispatches to the computational modules and emits machine-readable
tables: CSV with one leading #-comment recording the exact invocation
and version, or JSON with --format json.  Numbers are printed with
enough digits that re-parsing a file reproduces the in-memory values
exactly.  Exit codes: 0 success, 1 validation or usage error, 2
numerical-convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shlex
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .ballavg import (
    ball_volume,
    psi_bound_check,
    psi_lipschitz_check,
    psi_on_grid,
    volume_regularity,
)
from .errors import ConvergenceError, ValidationError
from .groups import parse_group, parse_param
from .model import (
    direction_convergence,
    finite_sum_check,
    load_spectrum,
    theorem_mean_report,
    time_grid,
)
from .spherical import hc_c_function, spherical_fn_many
from .surface import (
    _ORBIT_SUM_T_MAX,
    CuspIndicator,
    HPoint,
    decay_scan,
    mc_average,
    parse_observable,
)

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit_table(args, columns: Sequence[str], rows: List[list], comments: Sequence[str] = ()) -> None:
    invocation = getattr(args, "_invocation", "rankone")
    if getattr(args, "format", "csv") == "json":
        payload = {
            "tool": "rankone",
            "version": __version__,
            "invocation": invocation,
            "comments": list(comments),
            "columns": list(columns),
            "rows": [[_jsonable(cell) for cell in row] for row in rows],
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        return
    buffer = io.StringIO()
    buffer.write(f"# rankone {__version__} :: {invocation}\n")
    for line in comments:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    _write_text(args.out, buffer.getvalue())


def _group(args):
    return parse_group(args.group, rho_prime=args.rho_prime)


def _linspace(args) -> np.ndarray:
    if not (args.steps >= 2):
        raise ValidationError("need steps >= 2")
    if not (args.t_max > args.t_min):
        raise ValidationError("need t-max > t-min")
    return np.linspace(args.t_min, args.t_max, args.steps)


def _parse_t_grid(text: str) -> np.ndarray:
    """Radius grids as start:stop:step (inclusive) or comma-separated values."""
    try:
        if ":" in text:
            start, stop, step = (float(p) for p in text.split(":"))
            if not (step > 0.0 and stop >= start):
                raise ValueError("need stop >= start and step > 0")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return start + step * np.arange(count)
        return np.array([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ValidationError(f"bad t grid {text!r}: {exc}") from exc


def _parse_base(text: str) -> HPoint:
    try:
        x_str, y_str = text.split(",")
        return HPoint(float(x_str), float(y_str))
    except ValueError as exc:
        raise ValidationError(f"bad base point {text!r} (want x,y with y > 0)") from exc


def cmd_sphfn(args) -> int:
    group = _group(args)
    param = parse_param(args.param)
    ts = _linspace(args)
    values = spherical_fn_many(group, param, ts)
    decay = group.rho - param.re_s(group)
    envelope = (1.0 + ts) * np.exp(-decay * ts)
    if param.is_trivial or param.s_complex(group) == 0.0:
        ratio = np.full_like(ts, math.nan)
    else:
        c_mag = abs(hc_c_function(group, param))
        ratio = np.abs(values) * np.exp(decay * ts) / c_mag
    rows = [[float(t), float(v), float(e), float(r)]
            for t, v, e, r in zip(ts, values, envelope, ratio)]
    _emit_table(args, ["t", "phi", "decay_envelope", "asymptote_ratio"], rows)
    return 0


def cmd_psi(args) -> int:
    group = _group(args)
    param = parse_param(args.param)
    if not (args.t_min > 0.0):
        raise ValidationError("ball averages need t-min > 0")
    ts = _linspace(args)
    values = psi_on_grid(group, param, ts)
    scaled = values * np.exp((group.rho - param.re_s(group)) * ts)
    comments = []
    if args.check_bound is not None:
        sup = psi_bound_check(group, [param], ts, args.check_bound)
        bound_ratio = np.abs(values) * np.exp((group.rho - args.check_bound) * ts) / ts
        comments.append(f"bound check r={args.check_bound:g}: sup ratio {sup:.17g}")
    else:
        bound_ratio = np.full_like(ts, math.nan)
    if args.check_lipschitz:
        jumps, bounds = psi_lipschitz_check(group, param, ts)
        violated = jumps > bounds + 1e-9
        if np.any(violated):
            k = int(np.argmax(violated))
            raise ConvergenceError(
                f"shell bound violated at t={ts[k]:g}: jump {jumps[k]:.3e} > {bounds[k]:.3e}"
            )
        comments.append(f"shell bound verified on {ts.size - 1} consecutive steps")
    rows = [[float(t), float(v), float(s), float(b)]
            for t, v, s, b in zip(ts, values, scaled, bound_ratio)]
    _emit_table(args, ["t", "psi", "psi_times_envelope", "bound_ratio"], rows, comments)
    return 0


def cmd_volume(args) -> int:
    # Ball volumes do not depend on rho', so volume takes --group alone.
    group = parse_group(args.group)
    if args.t is not None:
        # The single radius prints one bare number, so the table's options
        # would be dropped without a word.
        table_only = {"--out": args.out is not None, "--format json": args.format == "json",
                      "--eps": args.eps is not None, "--t-min": args.t_min is not None,
                      "--t-max": args.t_max is not None, "--steps": args.steps is not None}
        for flag, given in table_only.items():
            if given:
                raise ValidationError(f"{flag} applies to the radius table only, not to --t")
        print(_fmt(ball_volume(group, args.t)))
        return 0
    if args.t_max is None:
        raise ValidationError("need --t or --t-min/--t-max/--steps")
    # None until here, so that --t refuses them even at their default values.
    args.t_min = 0.1 if args.t_min is None else args.t_min
    args.steps = 50 if args.steps is None else args.steps
    ts = _linspace(args)
    volumes = ball_volume(group, ts)
    regularity = volume_regularity(group, ts, args.eps) if args.eps else np.full_like(ts, math.nan)
    rows = [[float(t), float(v), float(r)] for t, v, r in zip(ts, volumes, regularity)]
    _emit_table(args, ["t", "volume", "regularity"], rows)
    return 0


def cmd_simulate(args) -> int:
    spec, f = load_spectrum(args.spec)
    ts = _linspace(args)
    report = theorem_mean_report(spec, f, ts)
    if len(spec.atoms) >= 2 and f.atom_norms[1] > 0.0:
        distances = direction_convergence(spec, f, ts)
    else:
        distances = np.full_like(ts, math.nan)
    rows = [[float(t), float(d), float(e), float(r), float(dd)]
            for t, d, e, r, dd in zip(
                ts, report.deviations, report.envelopes, report.ratios, distances)]
    comments = [f"sup ratio {report.sup_ratio:.17g}"]
    # No exponent is fitted when fewer than two deviations are positive.
    if report.fitted_exponent is not None:
        comments.append(f"fitted exponent {report.fitted_exponent:.17g}")
    _emit_table(args, ["t", "deviation", "envelope", "ratio", "direction_distance"],
                rows, comments)
    return 0


def _check_appendable(path: str, columns: Sequence[str]) -> None:
    # A row appended under other columns would be read as those.
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, encoding="utf-8", newline="") as handle:
            handle.readline()
            header = next(csv.reader([handle.readline()]), [])
        if header != list(columns):
            raise ValidationError(f"{path} has columns {header}, not {list(columns)}")


def _append_csv_row(path: str, invocation: str, columns: Sequence[str], row: list) -> None:
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if fresh:
            handle.write(f"# rankone {__version__} :: {invocation}\n")
            writer.writerow(columns)
        writer.writerow([_fmt(cell) for cell in row])


_MC_COLUMNS = ["t", "samples", "seed", "observable", "base_x", "base_y",
               "estimate", "stderr", "space_mean", "ball_mean", "z"]


def cmd_mc(args) -> int:
    obs = parse_observable(args.obs)
    base = _parse_base(args.base)
    if args.out is not None:
        _check_appendable(args.out, _MC_COLUMNS)
    run = mc_average(args.t, args.samples, obs, args.seed, base=base)
    # The space mean is the limit of the ball average as t grows.  For the
    # cusp indicators the ball average itself, the value estimated, is
    # known exactly at 0 < t <= 12, and z measures the estimate against it.
    space_mean = obs.mean()
    ball_mean = z = None
    if isinstance(obs, CuspIndicator) and 0.0 < run.t <= _ORBIT_SUM_T_MAX:
        ball_mean = obs.ball_mean(run.t, base)
        if run.standard_error > 0.0:
            z = (run.estimate - ball_mean) / run.standard_error
    line = (
        f"t={args.t:g} samples={args.samples} seed={args.seed} obs={run.observable} "
        f"estimate={_fmt(run.estimate)} stderr={_fmt(run.standard_error)} "
        f"space_mean={_fmt(space_mean)}"
    )
    if ball_mean is not None:
        line += f" ball_mean={_fmt(ball_mean)}"
    if z is not None:
        line += f" z={_fmt(z)}"
    if args.format == "json":
        payload = {
            "tool": "rankone", "version": __version__,
            "invocation": args._invocation,
            "t": args.t, "samples": args.samples, "seed": args.seed,
            "observable": run.observable, "base": [base.x, base.y],
            "estimate": run.estimate, "stderr": run.standard_error,
            "space_mean": space_mean, "ball_mean": ball_mean, "z": z,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(line)
    if args.out is not None:
        # Every row has the same columns, so runs of any observable append
        # to one file; a value that is not defined is an empty cell.
        _append_csv_row(
            args.out, args._invocation, _MC_COLUMNS,
            [args.t, args.samples, args.seed, run.observable, base.x, base.y,
             run.estimate, run.standard_error, space_mean,
             "" if ball_mean is None else ball_mean, "" if z is None else z],
        )
    return 0


def cmd_mc_scan(args) -> int:
    obs = parse_observable(args.obs)
    base = _parse_base(args.base)
    ts = _parse_t_grid(args.t_grid)
    report = decay_scan(ts, args.samples, obs, args.seed, base=base)
    rows = [[float(t), float(est), float(se), float(dev), float(env)]
            for t, est, se, dev, env in zip(
                report.ts, report.estimates, report.stderrs,
                report.deviations, report.envelopes)]
    comments = [f"envelope constant {report.fitted_constant:.17g}"]
    if report.fitted_exponent is not None:
        comments.append(
            f"fitted exponent {report.fitted_exponent:.17g}"
            f" +- {report.fitted_exponent_stderr:.17g}"
        )
    _emit_table(args, ["t", "estimate", "stderr", "deviation", "envelope"],
                rows, comments)
    return 0


def cmd_grid(args) -> int:
    if args.points:
        ts = time_grid(args.delta, args.m_max)
        rows = [[i, float(t)] for i, t in enumerate(ts)]
        _emit_table(args, ["index", "t"], rows,
                    [f"delta {args.delta:g}, {ts.size} points"])
        return 0
    report = finite_sum_check(args.delta, args.m_max, enumerate_limit=args.enumerate_limit)
    rows = [[int(m), float(s), float(p), float(d), float(dp)]
            for m, s, p, d, dp in zip(
                report.m_values, report.interval_sums, report.partial_sums,
                report.dominating_terms, report.dominating_partial_sums)]
    comments = [
        f"domination slack {report.domination_min_slack:.17g} "
        f"up to m={report.domination_checked_to}",
        f"enumeration max rel gap {report.enumeration_max_rel_gap:.17g}",
        f"cauchy gap at M={report.cauchy_m}: {report.cauchy_gap:.17g}",
    ]
    _emit_table(
        args,
        ["m", "interval_sum", "partial_sum", "dominating_term", "dominating_partial_sum"],
        rows, comments,
    )
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all(report=print)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _add_output(parser):
    parser.add_argument("--out", default=None,
                        help="output path (default: standard output)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_group(parser, rho_prime=True):
    parser.add_argument("--group", default="so:3",
                        help="so:n | su:n | sp:n | f4 | custom:n1,n2 (default so:3)")
    if rho_prime:
        parser.add_argument("--rho-prime", type=float, default=None,
                            help="restricted decay parameter bound (default: rho)")


def _add_range(parser, t_min, t_max, steps):
    parser.add_argument("--t-min", type=float, default=t_min)
    parser.add_argument("--t-max", type=float, default=t_max)
    parser.add_argument("--steps", type=int, default=steps)


def build_parser() -> _Parser:
    parser = _Parser(prog="rankone", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"rankone {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND",
                                parser_class=_Parser)

    p = sub.add_parser("sphfn",
                       help="spherical function values on a radius grid")
    _add_group(p)
    _add_output(p)
    _add_range(p, 0.01, 10.0, 100)
    p.add_argument("--param", required=True, help="trivial | c:S | p:LAM")
    p.set_defaults(fn=cmd_sphfn)

    p = sub.add_parser("psi",
                       help="ball-averaged spherical function on a radius grid")
    _add_group(p)
    _add_output(p)
    _add_range(p, 0.5, 10.0, 40)
    p.add_argument("--param", required=True, help="trivial | c:S | p:LAM")
    p.add_argument("--check-lipschitz", action="store_true",
                   help="verify the shell continuity bound on consecutive steps")
    p.add_argument("--check-bound", type=float, default=None, metavar="R",
                   help="emit |psi| e^{(rho-R)t}/t and its sup")
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("volume", help="Haar volume of B_t")
    _add_group(p, rho_prime=False)
    _add_output(p)
    p.add_argument("--t", type=float, default=None, help="single radius: print m(B_t)")
    p.add_argument("--t-min", type=float, default=None, help="table: smallest radius (default 0.1)")
    p.add_argument("--t-max", type=float, default=None, help="table: largest radius")
    p.add_argument("--steps", type=int, default=None, help="table: number of radii (default 50)")
    p.add_argument("--eps", type=float, default=None,
                   help="also emit the shell regularity ratio at this width")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("simulate",
                       help="spectral-model deviation report")
    _add_output(p)
    p.add_argument("--spec", required=True, help="spectrum config file (JSON)")
    _add_range(p, 1.0, 40.0, 79)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("mc",
                       help="Monte Carlo ball average on the modular surface")
    _add_output(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--obs", required=True, help="cusp:Y | disk:cx,cy,r | const")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--base", default="0.1,1.3", help="base point x,y")
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("mc-scan",
                       help="Monte Carlo deviation scan across radii")
    _add_output(p)
    p.add_argument("--t-grid", required=True, help="start:stop:step or t1,t2,...")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--obs", required=True, help="cusp:Y | disk:cx,cy,r | const")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--base", default="0.1,1.3", help="base point x,y")
    p.set_defaults(fn=cmd_mc_scan)

    p = sub.add_parser("grid",
                       help="refining time grid and its summability report")
    _add_output(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m-max", type=int, default=200)
    p.add_argument("--enumerate-limit", type=int, default=60)
    p.add_argument("--points", action="store_true",
                   help="emit the grid points instead of the summability table")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("verify",
                       help="run the acceptance suite (exit 0 iff all pass)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        code = exit_request.code
        return code if isinstance(code, int) else 1
    args._invocation = " ".join(["rankone"] + [shlex.quote(a) for a in argv])
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"rankone: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"rankone: convergence failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rankone: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
