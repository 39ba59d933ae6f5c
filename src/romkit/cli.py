"""Command-line entry points.

    romkit fom      --config FILE --out DIR
    romkit offline  --config FILE --out DIR [--seed S] [--modes Nu,Np]
    romkit online   --bundle DIR --out DIR [--dt-r X] [--modes Nu,Np]
    romkit compare  --fom DIR --rom DIR --out DIR [--bundle DIR [--modes Nu,Np]]
    romkit rb       [--problem demo] [--train M] [--modes N] [--test K] [--out FILE]

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, NumericalError, RankError, ShapeError
from . import pipeline
from .affine_rb import demo_problem, fom_solve, rb_offline, rb_online
from .fom import fom_run
from .grid import SnapshotSet, write_table


def _cmd_fom(args):
    cfg = pipeline.parse_config(Path(args.config))
    fom_cfg = pipeline.build_fom_config(cfg)
    result = fom_run(fom_cfg)
    out = Path(args.out)
    snaps = result.snapshots
    snaps.save(out)
    write_table(out / "outlet_pressure.csv", ["t", "outlet", "p"],
                ((t, k, p) for t, row in zip(snaps.times, snaps.outlet_pressure)
                 for k, p in enumerate(row)))
    n_out = result.outlet_flux.shape[1]
    write_table(out / "diagnostics.csv",
                ["step", "t", "poisson_residual", "div_max", *(f"Q_{k}" for k in range(n_out)),
                 *(f"P_{k}" for k in range(n_out))],
                ((i + 1, result.step_times[i + 1], result.poisson_residual[i], result.div_max[i],
                  *result.outlet_flux[i], *result.step_outlet_pressure[i + 1])
                 for i in range(result.n_steps)))
    drift = "n/a" if result.cycle_drift is None else f"{result.cycle_drift:.3e}"
    print(f"fom: {result.n_steps} steps, {len(result.snapshots)} snapshots, "
          f"{result.wall_time:.2f}s, cycle drift {drift} -> {out}")
    return 0


def _parse_modes(text):
    if text is None:
        return None
    try:
        nu_str, np_str = text.split(",")
        return int(nu_str), int(np_str)
    except ValueError:
        raise ConfigurationError(f"--modes expects 'Nu,Np', got {text!r}")


def _cmd_offline(args):
    cfg = pipeline.parse_config(Path(args.config))
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    modes = _parse_modes(args.modes)
    if modes is not None:
        cfg["n_u"], cfg["n_p"] = str(modes[0]), str(modes[1])
    bundle, timings = pipeline.offline(cfg, out_dir=args.out)
    print(f"offline: bundle at {args.out} "
          f"(velocity modes {bundle.basis_u.n_primary} + {bundle.basis_u.n_supremizer} "
          f"supremizers, pressure modes "
          f"{0 if bundle.basis_p is None else bundle.basis_p.n_modes}; "
          f"total {timings['total']:.1f}s)")
    return 0


def _cmd_online(args):
    bundle = pipeline.Bundle.load(args.bundle)
    rec, report = pipeline.online(bundle, dt_r=args.dt_r, modes=_parse_modes(args.modes))
    report.sweep = pipeline.error_vs_n(bundle, dt_r=args.dt_r)
    out = Path(args.out)
    rec.save(out / "reconstruction")
    report.write(out)
    avg_u = report.time_avg("err_u")
    msg = "n/a" if avg_u is None else f"{avg_u:.3e}"
    print(f"online: speedup {report.speedup:.0f}x, time-avg velocity error {msg} -> {out}")
    return 0


def _cmd_compare(args):
    fom_set = SnapshotSet.load(args.fom)
    rom_set = SnapshotSet.load(args.rom)
    if args.bundle is None:
        if args.modes is not None:
            raise ConfigurationError("--modes names a model of the bundle: it needs --bundle")
        report = pipeline.compare(fom_set, rom_set)
    else:
        bundle = pipeline.Bundle.load(args.bundle)
        _, basis_u, basis_p = bundle.select(*(_parse_modes(args.modes) or ()))
        report = pipeline.compare(fom_set, rom_set, basis_u, basis_p, bundle.lifting,
                                  bundle.lift_pressure)
    report.write(args.out)
    print(f"compare: time-avg err_u {report.time_avg('err_u'):.3e}, "
          f"err_p {report.time_avg('err_p'):.3e} -> {args.out}")
    return 0


def _cmd_rb(args):
    if args.problem != "demo":
        raise ConfigurationError(f"unknown problem {args.problem!r} (only 'demo' is built in)")
    problem = demo_problem()
    mus = np.linspace(*problem.param_box[0], args.train)[:, None]
    space = rb_offline(problem, mus, n_modes=args.modes)
    test_mus = np.linspace(*problem.param_box[0], args.test)
    rows = []
    for mu in test_mus:
        _, s_fom = fom_solve(problem, [mu])
        _, s_rb = rb_online(space, [mu])
        rows.append((mu, s_fom, s_rb, abs(s_fom - s_rb)))
    write_table(args.out or sys.stdout, ["mu", "s_fom", "s_rb", "err"], rows)
    if args.out:
        print(f"rb: {args.test} test points -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="romkit",
                                     description="hybrid reduced-order modeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fom", help="run the full-order solver and store snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fom)

    p = sub.add_parser("offline", help="build a reduced-order bundle")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--modes", help="Nu,Np")
    p.set_defaults(fn=_cmd_offline)

    p = sub.add_parser("online", help="evaluate a bundle and report errors")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dt-r", dest="dt_r", type=float)
    p.add_argument("--modes", help="Nu,Np")
    p.set_defaults(fn=_cmd_online)

    p = sub.add_parser("compare", help="compare two snapshot directories")
    p.add_argument("--fom", required=True)
    p.add_argument("--rom", required=True)
    p.add_argument("--bundle", help="also report the projection floors of the bundle's model")
    p.add_argument("--modes", help="Nu,Np of that model (default: the bundle's)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("rb", help="stationary affine reduced-basis demo")
    p.add_argument("--problem", default="demo")
    p.add_argument("--train", type=int, default=12)
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--test", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, ShapeError, FormatError, RankError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
