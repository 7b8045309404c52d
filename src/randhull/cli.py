"""Command-line entry points.

Subcommands: sample, net build, distance, bound, check-class, rates,
deviation, lower-bound-family.  Each subcommand takes only those of the
shared flags (--seed, --threads, --out, --format, --config) that its handler
reads, so any other one is a usage error.  Results go to --out when given,
otherwise to stdout; CSV schemas match the report writers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from .bounds import (
    ClassParams,
    check_class_membership,
    deviation_bound,
    family_params,
    fit_class_l,
)
from .estimators import HullMetric, MetricSpec
from .experiments import (
    ExperimentConfig,
    body_to_dict,
    build_lower_bound_family,
    bump_volume_defect_exact,
    emit_report,
    load_experiment_config,
    run_deviation_experiment,
    run_rate_experiment,
    write_json,
    write_text,
)
from .geometry import load_body
from .nets import build_net, load_net, net_to_dict
from .sampling import load_points, points_to_csv, sample


def _at_least_one(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


_SHARED_FLAGS = {
    "seed": dict(type=int, default=None, help="master seed override"),
    "threads": dict(type=_at_least_one, default=1, help="worker threads (>= 1)"),
    "out": dict(default=None, help="output path (default: stdout)"),
    "format": dict(choices=("csv", "json"), default=None),
    "config": dict(required=True, help="experiment config (YAML)"),
}


def _shared_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _seed_or(args, fallback: int = 0) -> int:
    return fallback if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_sample(args) -> int:
    body = load_body(args.body)
    cloud = sample(body, args.mode, args.n, _seed_or(args))
    write_text(points_to_csv(cloud.points), args.out)
    return 0


def _cmd_net_build(args) -> int:
    net = build_net(args.d, args.delta, _seed_or(args))
    write_json(net_to_dict(net), args.out)
    return 0


def _cmd_distance(args) -> int:
    body = load_body(args.body)
    if args.net is not None:
        net = load_net(args.net)
        net_delta = net.delta
    else:  # built only for a cloud that the facets do not read
        net = functools.partial(build_net, body.dim, args.net_delta, _seed_or(args))
        net_delta = args.net_delta
    metric = HullMetric(MetricSpec("hausdorff"), body, net=net)
    value, certified = metric.certified(load_points(args.points))
    report = {"value": value, "certified_upper": certified, "net_delta": net_delta}
    emit_report(report, args.out, args.format or "json")
    return 0


def _cmd_bound(args) -> int:
    params = ClassParams.from_dict(json.loads(args.params))
    ev = deviation_bound(params, args.d, args.n, args.x)
    emit_report(asdict(ev), args.out, args.format or "json")
    return 0


def _cmd_check_class(args) -> int:
    if args.family == "fit" and (args.alpha is None or args.eps0 is None):
        args.usage_error("--family fit needs --alpha and --eps0")
    needs = {"smooth": "interior", "boundary": "boundary"}.get(args.family, args.mode)
    if args.mode not in (None, needs):
        args.usage_error(f"--family {args.family} needs --mode {needs}")
    args.mode = needs or "interior"
    body = load_body(args.body)
    kw = dict(
        u_probes=args.u_probes,
        eps_grid=args.eps_grid,
        n_mc=args.n_mc,
        seed=_seed_or(args),
    )
    if args.family == "fit":
        params = fit_class_l(body, args.mode, args.alpha, args.eps0, **kw)
        report = check_class_membership(body, args.mode, params, **kw)
        write_json({"fitted": params.to_dict(), "report": report.to_dict()}, args.out)
        return 0
    try:  # args.mode is now interior for --family smooth, boundary for boundary
        params = family_params(f"smooth_{args.mode}", body)
    except ValueError as exc:
        args.usage_error(f"--family {args.family} on {args.body}: {exc}")
    report = check_class_membership(body, args.mode, params, **kw)
    write_json(report.to_dict(), args.out)
    return 0


def _load_config_with_overrides(args) -> ExperimentConfig:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    return config


def _cmd_rates(args) -> int:
    config = _load_config_with_overrides(args)
    report = run_rate_experiment(config, threads=args.threads)
    emit_report(report, args.out, args.format or "csv")
    return 0


def _cmd_deviation(args) -> int:
    config = _load_config_with_overrides(args)
    x_grid = np.linspace(0.0, args.x_max, args.x_points)
    report = run_deviation_experiment(config, x_grid, threads=args.threads)
    emit_report(report, args.out, args.format or "csv")
    return 0


def _cmd_lower_bound_family(args) -> int:
    bodies = build_lower_bound_family(args.d, args.big_r, args.delta, args.alpha_bump)
    doc = {
        "bodies": [body_to_dict(b) for b in bodies],
        "packing_size": len(bodies) - 1,
        "pairwise_hausdorff": args.alpha_bump * args.delta**2,
        "volume_defect": bump_volume_defect_exact(bodies[1]),
    }
    write_json(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randhull",
        description="Random-polytope estimation of convex bodies: sampling, "
        "nets, distances, deviation bounds and rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded cloud and write points CSV")
    _shared_flags(p, "seed", "out")
    p.add_argument("--body", required=True, help="body spec JSON")
    p.add_argument("--mode", choices=("interior", "boundary"), default="interior")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    p_net = sub.add_parser("net", help="sphere net operations")
    net_sub = p_net.add_subparsers(dest="net_command", required=True)
    p = net_sub.add_parser("build", help="build a packing/covering net")
    _shared_flags(p, "seed", "out")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_net_build)

    p = sub.add_parser("distance", help="Hausdorff deficit of a cloud's hull")
    _shared_flags(p, "seed", "out", "format")
    p.add_argument("--body", required=True)
    p.add_argument("--points", required=True, help="points CSV")
    p.add_argument("--net", default=None, help="net JSON (else built on the fly)")
    p.add_argument("--net-delta", type=float, default=1e-2)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("bound", help="deviation-bound threshold and tail")
    _shared_flags(p, "out", "format")
    p.add_argument("--params", required=True, help='JSON {"alpha":..,"L":..,"eps0":..}')
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("check-class", help="probe the cap-mass class condition")
    _shared_flags(p, "seed", "out")
    p.add_argument("--body", required=True)
    p.add_argument("--mode", choices=("interior", "boundary"))
    p.add_argument("--family", choices=("smooth", "boundary", "fit"), required=True)
    p.add_argument("--alpha", type=float, default=None, help="for --family fit")
    p.add_argument("--eps0", type=float, default=None, help="for --family fit")
    p.add_argument("--u-probes", type=int, default=64)
    p.add_argument("--eps-grid", type=int, default=64)
    p.add_argument("--n-mc", type=int, default=100_000)
    p.set_defaults(func=_cmd_check_class, usage_error=p.error)

    p = sub.add_parser("rates", help="convergence-rate experiment from a config")
    _shared_flags(p, "seed", "threads", "out", "format", "config")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("deviation", help="tail-domination experiment from a config")
    _shared_flags(p, "seed", "threads", "out", "format", "config")
    p.add_argument("--x-max", type=float, default=30.0)
    p.add_argument("--x-points", type=int, default=61)
    p.set_defaults(func=_cmd_deviation)

    p = sub.add_parser("lower-bound-family", help="dented-ball minimax family")
    _shared_flags(p, "out")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--R", dest="big_r", type=float, default=1.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha-bump", type=float, default=0.01)
    p.set_defaults(func=_cmd_lower_bound_family)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
