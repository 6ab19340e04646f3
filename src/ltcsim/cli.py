"""Command-line interface: simulate, bounds, verify, approximate.

Exit codes: 0 success, 1 usage, 2 parse (files, field expressions),
3 numeric (divergence, domain violations, bound violations).  The first
line written on any failure is ``ERROR <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .approx import PipelineConfig, approximate_trajectory
from .errors import ExprError, FormatError, LtcError
from .expr import parse_field
from .io import (
    _check_writable,
    _csv_text,
    _fmt,
    _write_text,
    read_network,
    read_trajectory,
    write_network,
    write_trajectory,
)
from .solver import Method, SolverConfig, simulate
from .verify import monitor_trajectory, state_bounds, tau_bounds

__all__ = ["cli_dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Flag values like "-1.5:1.5,-1.5:1.5" or "-0.3,1" must be accepted
        # as values, not mistaken for option names.
        self._negative_number_matcher = re.compile(r"^-[\d.:,eE+-]+$")

    def error(self, message):
        raise _UsageError(message)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated numbers, got {text!r}")


def _parse_domain(text: str) -> list[list[float]]:
    rows = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise _UsageError(
                f"--domain expects comma-separated lo:hi pairs, got {part!r}"
            )
        try:
            rows.append([float(bits[0]), float(bits[1])])
        except ValueError:
            raise _UsageError(f"--domain has a non-numeric bound in {part!r}")
    return rows


def _cmd_simulate(args) -> int:
    net = read_network(args.net)
    init = _parse_floats(args.init, "--init")
    try:
        config = SolverConfig(Method(args.method), args.dt, args.t_end, args.record_every)
    except ValueError as exc:
        raise _UsageError(str(exc))
    traj = simulate(net, init, config)
    write_trajectory(traj, args.out)
    print(f"wrote {traj.n_points} states to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    net = read_network(args.net)
    taus = [tau_bounds(i, net) for i in range(net.size)]
    boxes = None if net.n_gaps else state_bounds(net)
    header = f"{'neuron':>6}  {'tau_min':>22}  {'tau_max':>22}"
    if boxes is not None:
        header += f"  {'box_lo':>22}  {'box_hi':>22}"
    print(header)
    for i in range(net.size):
        line = f"{i:>6}  {_fmt(taus[i].tau_min):>22}  {_fmt(taus[i].tau_max):>22}"
        if boxes is not None:
            line += f"  {_fmt(boxes[i].lo):>22}  {_fmt(boxes[i].hi):>22}"
        print(line)
    if boxes is None:
        print("state boxes undefined: network has gap junctions")
    for t in taus:
        print(f"TAU {t.neuron} {_fmt(t.tau_min)} {_fmt(t.tau_max)}")
    if boxes is not None:
        for b in boxes:
            print(f"BOX {b.neuron} {_fmt(b.lo)} {_fmt(b.hi)}")
    return 0


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise _UsageError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    net = read_network(args.net)
    traj = read_trajectory(args.traj)
    report = monitor_trajectory(traj, net, args.tolerance)
    for v in report.entries:
        print(
            f"VIOLATION {v.kind.value} t={_fmt(v.time)} neuron={v.neuron} "
            f"value={_fmt(v.value)} bound={_fmt(v.bound)}"
        )
    if report.ok:
        print(f"OK: no violations at tolerance {_fmt(report.tolerance)}")
        return 0
    summary = f"{len(report.entries)} violation(s) at tolerance {_fmt(report.tolerance)}"
    print(summary)
    print(f"ERROR numeric: {summary}", file=sys.stderr)
    return 3


def _condition_line(name: str, ok: bool, detail: str) -> str:
    return f"  {name:<14} {'PASS' if ok else 'FAIL'}  {detail}"


def _cmd_approximate(args) -> int:
    exprs = [s.strip() for s in args.field.split(";")]
    domain = _parse_domain(args.domain)
    if len(domain) != len(exprs):
        raise _UsageError(
            f"--domain has {len(domain)} axes but --field has {len(exprs)} coordinates"
        )
    fld = parse_field(exprs, domain)
    x0 = _parse_floats(args.x0, "--x0")
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        raise _UsageError(f"--horizon must be finite and > 0, got {args.horizon}")
    try:
        config = PipelineConfig(
            n_features=args.features,
            n_samples=args.samples,
            ridge=args.ridge,
            seed=args.seed,
            tau_base=args.tau,
            w_l=args.wl,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    report = approximate_trajectory(fld, x0, args.horizon, config)

    if args.out_net:
        write_network(report.network, args.out_net)
    if args.out_traj:
        n = fld.dim
        header = ["t", *(f"x{i}_ref" for i in range(n)), *(f"x{i}_ltc" for i in range(n))]
        rows = np.column_stack([report.times, report.reference_states,
                                report.network_outputs])
        _write_text(args.out_traj, [_csv_text(header, rows)], "trajectory")
    cond = report.conditions
    report_lines = [
        "approximation report",
        f"  field dim      n = {fld.dim}",
        f"  features       N = {args.features}",
        f"  seed           {args.seed}",
        f"  tau            {_fmt(args.tau)}",
        f"  w_l            {_fmt(args.wl)}",
        f"  fit sup_error  {_fmt(report.fitted.sup_error)}",
        f"  lipschitz_f    {_fmt(report.lipschitz_f)}",
        f"  l_gtilde       {_fmt(report.l_gtilde)}",
        f"  eta            {_fmt(report.eta)}",
        f"  epsilon_l      {_fmt(report.epsilon_l)}",
        f"  tau_sys range  [{_fmt(cond.tau_sys_min)}, {_fmt(cond.tau_sys_max)}]",
        _condition_line("condition_a", cond.ok_a, f"margin={_fmt(cond.margin_a)}"),
        _condition_line(
            "condition_b",
            cond.ok_b,
            f"bias_margin={_fmt(cond.margin_b_bias)} "
            f"rate_margin={_fmt(cond.margin_b_rate)}",
        ),
        _condition_line(
            "tau_wl", cond.ok_tau_wl, f"margin={_fmt(cond.margin_tau_wl)}"
        ),
        f"sup_traj_error = {_fmt(report.sup_traj_error)}",
    ]
    text = "\n".join(report_lines) + "\n"
    if args.report:
        _write_text(args.report, [text], "report")
    print(text, end="")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ltcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="integrate a network and write a CSV")
    p.add_argument("--net", required=True)
    p.add_argument("--init", required=True, help="comma-separated initial state")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--method", default="rk4",
                   choices=["euler", "rk4", "semi-implicit"])
    p.add_argument("--record-every", type=int, default=1, dest="record_every")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("bounds", help="print per-neuron tau intervals and state boxes")
    p.add_argument("--net", required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="check a trajectory against the bounds")
    p.add_argument("--net", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("approximate", help="run the trajectory approximation pipeline")
    p.add_argument("--field", required=True,
                   help="semicolon-separated expressions over x1..xn")
    p.add_argument("--domain", required=True, help="comma-separated lo:hi per axis")
    p.add_argument("--x0", required=True, help="comma-separated initial point")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--features", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=100.0)
    p.add_argument("--wl", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--out-net", dest="out_net")
    p.add_argument("--out-traj", dest="out_traj")
    p.add_argument("--report", dest="report")
    p.set_defaults(handler=_cmd_approximate)
    return parser


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise _UsageError("missing subcommand "
                              "(simulate | bounds | verify | approximate)")
        for dest, kind in (("out", "trajectory"), ("out_net", "network"),
                           ("out_traj", "trajectory"), ("report", "report")):
            _check_writable(getattr(args, dest, None), kind)
        return args.handler(args)
    except _UsageError as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ExprError) as exc:
        print(f"ERROR parse: {exc}", file=sys.stderr)
        return 2
    except (LtcError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"ERROR numeric: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
