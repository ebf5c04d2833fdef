"""Command-line interface: scenario runs, parameter sweeps, identifier
verification, and config validation.

Exit codes: 0 success, 1 config or usage error, 2 integration failure or a
dead sweep worker, 3 acceptance-threshold failure (with --assert), 141
(128 + SIGPIPE) when stdout's reader has gone, as in ``adreg validate
cfg.json | true``: that prints nothing to stderr.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import (IntegrationBlowupError, InvalidConfigError, InvalidInputError,
                     SweepWorkerError)
from .harness import TRIALS, format_report, run_core_process, verify_identifier_requirement
from .hybrid import arc_bytes, check_step, jump_bound
from .scenario import (JUMP_MATRICES, ScenarioConfig, _wire, physical_memory, run_scenario,
                       run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_THRESHOLD = 3
EXIT_PIPE = 141


def _load_config(path):
    return ScenarioConfig.from_json(path)


def cmd_simulate(args):
    if args.assert_max_y != args.assert_max_y:  # NaN, which no summary exceeds
        raise InvalidConfigError("--assert-max-y must be a number other than NaN")
    cfg = _load_config(args.config)
    result = run_scenario(cfg)
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    if args.assert_max_y is not None:
        if result.summary["steady_state_max_y"] > args.assert_max_y:
            print(
                f"steady_state_max_y {result.summary['steady_state_max_y']:.6g} "
                f"exceeds threshold {args.assert_max_y:.6g}",
                file=sys.stderr,
            )
            return EXIT_THRESHOLD
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise InvalidConfigError(f"--values must be comma-separated numbers, "
                                 f"got {args.values!r}") from None
    rows = run_sweep(cfg, args.axis, values)
    print("value,steady_state_max_y,settling_time_s,error")
    for row in rows:
        if "error" in row:
            print(f"{row['value']:.17g},,,{row['error']}")
        else:
            print(
                f"{row['value']:.17g},{row['steady_state_max_y']:.17g},"
                f"{row['settling_time_s']:.17g},"
            )
    return EXIT_OK


CORE_PROCESS_S = 10.0  # check-identifier's core process, whatever sim.horizon is


def cmd_check_identifier(args):
    """Verify the configured identifier on the synthetic core process: its
    samples are tau(w) and u*(w) on the pre-jump rows of w in CORE_PROCESS_S s
    at step sim.dt, and a window of n_window must fill, for the oracle to compare.
    The core process's arc and the walk's arrays must each fit in physical
    memory; the walk's error names identifier.N."""
    cfg = _load_config(args.config)
    if cfg.identifier["kind"] == "none":
        raise InvalidConfigError("check-identifier needs an identifier kind != none")
    # the test process is the synthetic-linear plant with the config's rho,
    # p0 and, if given, w0 (its default depends on the kind)
    given = {key: cfg.plant[key] for key in ("rho", "p0", "w0") if key in cfg.plant}
    cell = _wire(replace(cfg, plant={"kind": "synthetic-linear", **given}, output={}))
    plant, clock, dt = cell.plant, cell.clock, cfg.sim["dt"]
    try:  # _wire checked the config's own arc; the core process's, of w, t and j, is another
        check_step(clock, CORE_PROCESS_S, dt, 2)
        fits = arc_bytes(clock, CORE_PROCESS_S, dt, 2) <= physical_memory()
    except InvalidConfigError:  # more bytes than an array can index
        fits = False
    if not fits:
        raise InvalidConfigError(f"sim.dt = {dt!r}: the arc of check-identifier's "
                                 f"{CORE_PROCESS_S:g} s core process does not fit in the "
                                 f"{physical_memory()} bytes of physical memory")
    # the walk's arrays: 1 + 2 TRIALS identifiers, one jump at a time, and the
    # oracle's regressor rows of every sample with their Gram
    d_sigma, samples = cell.cost.d_sigma, jump_bound(clock, CORE_PROCESS_S)
    parts = [(f"{1 + 2 * TRIALS} identifier states", (1 + 2 * TRIALS) * cell.ident.state_bytes()),
             ("a jump", JUMP_MATRICES * 8 * d_sigma**2),
             (f"the oracle's rows of at most {samples} samples and their Gram",
              8 * (samples + d_sigma) * d_sigma)]
    total = sum(nbytes for _, nbytes in parts)
    if total > physical_memory():
        raise InvalidConfigError(
            f"identifier.N = {cfg.identifier['N']}: check-identifier's walk at d_sigma = "
            f"{d_sigma} holds {', '.join(f'{what}, {n} bytes' for what, n in parts)}: "
            f"{total} bytes in all, more than the {physical_memory()} bytes of physical memory")
    etas, us = run_core_process(clock, plant.eval_s, cell.v0[cell.lay.w], plant.tau_rows,
                                plant.ustar_rows, horizon=CORE_PROCESS_S, dt=dt)
    if not us.size:
        period = f", clock.period = {clock.period!r}" if clock.period is not None else ""
        raise InvalidConfigError(f"clock.t_low = {clock.t_low!r}{period}: the clock makes no "
                                 f"jump in check-identifier's {CORE_PROCESS_S:g} s core process")
    if us.size < (cell.ident.n_window or 0):
        raise InvalidConfigError(f"identifier.N_w = {cell.ident.n_window} is more than the "
                                 f"{us.size} samples of check-identifier's "
                                 f"{CORE_PROCESS_S:g} s core process")
    try:
        report = verify_identifier_requirement(cell.ident, etas, us)
    except InvalidInputError as exc:  # a Gram of samples past the float range
        raise InvalidConfigError(f"plant.w0 = {cell.v0[cell.lay.w].tolist()}: the identifier's "
                                 f"jump on check-identifier's {CORE_PROCESS_S:g} s core process "
                                 f"from it fails: {exc}") from None
    print(format_report(report))
    ok = report["optimality"] and report["stability"] and report["regularity"]
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_validate(args):
    """Resolve and wire the config, as ``simulate`` does before its first
    step, and print the run's cost (README, ``validate``) and the resolved
    config."""
    cfg = _load_config(args.config)
    cell = _wire(cfg)
    cost = cell.cost
    print(f"config ok: {args.config}")
    print(f"cost: d_sigma = {cost.d_sigma}; F {cost.f_bytes} bytes, arc buffer "
          f"{cost.arc_bytes} bytes, compiling {cost.compile_bytes} bytes, identifier jump "
          f"{cost.jump_bytes} bytes, jump record {cost.record_bytes} bytes: {cost.total_bytes} "
          f"of {cost.memory} bytes of physical memory; closed-loop field {cost.field_terms} "
          f"terms; at most {cost.jumps} jumps, "
          f"d_sigma^3 x jumps = {cost.d_sigma**3 * cost.jumps}; largest |lambda| dt = "
          f"{cell.lambda_dt:.4g}")
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adreg",
        description="Adaptive internal-model regulation: scenario runner and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one closed-loop scenario")
    p.add_argument("config")
    p.add_argument("--assert-max-y", type=float, default=None,
                   help="exit 3 if steady_state_max_y exceeds this threshold")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep ell or the regressor order N")
    p.add_argument("config")
    p.add_argument("--axis", choices=("ell", "N"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-identifier",
                       help="verify the identifier requirement on a test process")
    p.add_argument("config")
    p.set_defaults(func=cmd_check_identifier)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its message (or -h its help)
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        # a run that overflows ends as one integration-failure line: the flow's
        # finite check in hybrid.simulate catches every non-finite value numpy makes
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: the Python docs' SIGPIPE recipe sends the
        # rest of stdout, flushed at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (InvalidConfigError, InvalidInputError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationBlowupError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except SweepWorkerError as exc:
        print(f"sweep failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
