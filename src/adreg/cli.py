"""Command-line interface: scenario runs, parameter sweeps, identifier
verification, and config validation.

Exit codes: 0 success, 1 config error, 2 integration failure,
3 acceptance-threshold failure (with --assert).
"""

import argparse
import json
import sys

from .errors import IntegrationBlowupError, InvalidConfigError, InvalidInputError
from .harness import CoreProcessRun, format_report, verify_identifier_requirement
from .scenario import ScenarioConfig, _wire, run_scenario, run_sweep, state_layout

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_THRESHOLD = 3


def _load_config(path):
    return ScenarioConfig.from_json(path)


def cmd_simulate(args):
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


def cmd_check_identifier(args):
    """Verify the configured identifier on the synthetic core process."""
    cfg = _load_config(args.config)
    if cfg.identifier["kind"] == "none":
        raise InvalidConfigError("check-identifier needs an identifier kind != none")
    cell = _wire(cfg.replace_in("plant", kind="synthetic-linear"))
    plant, lay = cell.plant, state_layout(cell.im.d_eta)
    run = CoreProcessRun(clock=cell.clock, exo=plant.eval_s, w0=cell.v0[lay.w],
                         tau_eval=plant.extras["tau"], ustar_eval=plant.extras["ustar"])
    report = verify_identifier_requirement(cell.ident, run, horizon=10.0)
    print(format_report(report))
    ok = report["optimality"] and report["stability"] and report["regularity"]
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_validate(args):
    """Resolve and wire the config, as ``simulate`` does before its first
    step, and print the resolved config."""
    cfg = _load_config(args.config)
    _wire(cfg)
    print(f"config ok: {args.config}")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, InvalidInputError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationBlowupError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
