"""Command-line entry point: tessellation construction, training, the gap
study and the verification harnesses.  Configuration comes from an optional
`key = value` file plus flag overrides; every run writes a resolved-config
snapshot next to its outputs."""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import autoencoder as ae
from . import data as datamod
from . import experiments as exp
from .batch_design import OPTIMAL_MAX_POINTS, lcm_assign, optimal_assign
from .discrepancy import NumericalFailure
from .seeding import derive_rng
from .tessellation import (CVT, E8, R_STAR, DegenerateRegionError, Tessellation, e8_tessellation,
                           lloyd_cvt)
from .trainer import (TrainConfig, TrainingAborted, build_tessellation, train_baseline,
                      train_twae, train_twae_regularized)


class CheckFailed(RuntimeError):
    pass


# typed failures of a run, reported in one line with exit code 2
_RUN_ERRORS = (TrainingAborted, ae.ForwardNumericalError, NumericalFailure,
               DegenerateRegionError, FloatingPointError)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that main
    reports them in one `error:` line, as it does every bad value."""

    def error(self, message):
        raise ValueError(message)


def _config_parser():
    parser = _Parser(add_help=False)
    parser.add_argument("--config", help="key = value config file; flags override")
    return parser


def _read_config_file(path, command):
    """The flags of a UTF-8 config file for command: each `key = value` line
    is `--key=value`, with `_` read as `-`, so argparse checks it exactly as
    that flag, one line at a time so that an error names its line.  A config
    file names no other config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8: {err}") from None
    line_parser, flags = build_parser(required=False)[0], []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not (key and sep):
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key == "config":
            raise ValueError(f"{path}:{lineno}: a config file cannot name another config file")
        flag = f"--{key.replace('_', '-')}={value}"
        try:
            line_parser.parse_args([command, flag])
        except ValueError as err:  # an unknown key or a bad value
            raise ValueError(f"{path}:{lineno}: {err}") from None
        flags.append(flag)
    return flags


def _ranged(parse, low=None, strict=False):
    """An argparse type: parse's value of the text, refused unless it is
    finite and >= low (> low if strict); a NaN fails the bound."""
    def check(text):
        value = parse(text)
        if low is not None and not (value > low if strict else value >= low):
            relation = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {relation} {low}, got {value}")
        if not abs(value) < math.inf:  # NaN too; math.isfinite overflows on a huge int
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value
    check.__name__ = parse.__name__  # argparse says "invalid int value: 'x'"
    return check


_COUNT, _SEED = _ranged(int, 1), _ranged(int, 0)
_FINITE, _FINITE_GE0, _FINITE_GT0 = _ranged(float), _ranged(float, 0), _ranged(float, 0, True)


def _int_list(text):
    """An argparse type: the comma-separated ints of the text, empty items skipped."""
    try:
        return [int(item) for item in text.split(",") if item]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated ints, got {text!r}") from None


def _prepare_out(args):
    os.makedirs(args.out, exist_ok=True)
    snapshot = {k: v for k, v in vars(args).items() if k != "func"}
    with open(os.path.join(args.out, "resolved_config.json"), "w") as fh:
        json.dump(snapshot, fh, indent=2, default=str, sort_keys=True)


def _write_tessellation(args, tess):
    with open(os.path.join(args.out, "tessellation.json"), "w") as fh:
        fh.write(tess.to_json())


def _load_dataset(args):
    if args.dataset == "ring":
        return datamod.gen_gaussian_ring(args.modes, args.radius, args.sigma,
                                         args.count, args.seed)
    if args.dataset == "ball":
        return datamod.gen_uniform_ball_dataset(args.data_dim, args.count, args.seed)
    if not args.idx_images:  # --dataset idx
        raise ValueError("--idx-images required for --dataset idx")
    return datamod.load_idx(args.idx_images)


def _train_config(args, data_dim):
    lam = args.lam
    if lam is None:
        lam = 1.0 if args.estimator == "SW" else 0.01
    return TrainConfig(
        m=args.m, chunk_size=args.n_chunk, epochs=args.epochs,
        latent_dim=args.latent_dim, layer_sizes=[data_dim] + args.hidden,
        lam=lam, alpha=args.alpha, estimator=args.estimator,
        estimator_config={"num_projections": args.projections},
        tessellation_kind=args.tessellation, seed=args.seed,
        learning_rate=args.learning_rate)


def cmd_cvt(args):
    tess, stats = lloyd_cvt(args.dim, args.m, args.mc_samples, args.max_iters,
                            args.energy_tol, args.seed)
    _write_tessellation(args, tess)
    print(f"cvt: m={args.m} dim={args.dim} iters={len(stats['energies'])} "
          f"final_energy={stats['energies'][-1]:.6f} reseeds={stats['reseeds']}")


def cmd_e8(args):
    tess = e8_tessellation()
    _write_tessellation(args, tess)
    print(f"e8: shell_radius={R_STAR:.6f} regions={tess.region_count}")


def cmd_train(args):
    dataset = _load_dataset(args)
    config = _train_config(args, dataset.shape[1])
    tess = build_tessellation(config)
    trainers = {"twae": train_twae, "twae-reg": train_twae_regularized,
                "baseline": train_baseline}
    params, log = trainers[args.mode](config, dataset, tess=tess)
    log.to_csv(os.path.join(args.out, "metrics.csv"))
    ae.save_checkpoint(params, os.path.join(args.out, "checkpoint"),
                       seed=args.seed, step=len(log.records))
    _write_tessellation(args, tess)
    print(f"train[{args.mode}]: epochs={config.epochs} "
          f"final_recon={log.epoch_means('recon')[-1]:.6f} "
          f"final_latent={log.epoch_means('latent')[-1]:.6f}")


def cmd_gap(args):
    dataset = _load_dataset(args)
    params, _ = ae.load_checkpoint(args.checkpoint)
    try:
        with open(args.tessellation, encoding="utf-8") as fh:
            tess = Tessellation.from_json(fh.read())
    except (ValueError, TypeError) as err:  # TypeError: generators numpy cannot read as floats
        raise ValueError(f"{args.tessellation}: {err}") from None
    result = exp.gap_study(params, tess, dataset, args.n, args.trials,
                           args.projections, args.seed,
                           out_csv=os.path.join(args.out, "gap.csv"))
    print(f"gap: mean_per_region_gap={result['mean_gap']:.6f} "
          f"global={result['global']:.6f} "
          f"global_baseline={result['global_baseline']:.6f} "
          f"topped_up={result['topped_up']}")


def cmd_rates(args):
    r1, r2 = exp.rate_study_sw(args.dim, args.n_grid, args.trials, args.projections,
                               args.seed, out_csv=os.path.join(args.out, "rates.csv"))
    print(f"rates: |sw2(Pn,Qn)-ref| slope={r1.slope:.3f}, "
          f"sw2(Pn,Pn') slope={r2.slope:.3f}")


def cmd_ineq(args):
    if any(args.n_points % m for m in (2, 4, 8)):
        raise ValueError(f"--n-points must divide by 8 (m = 2, 4, 8), got {args.n_points}")
    total_violations = 0
    for m in (2, 4, 8):
        res = exp.eq19_check(args.n_points, m, args.dim, args.trials, args.seed,
                             out_csv=os.path.join(args.out, f"ineq_m{m}.csv"))
        total_violations += res["violations"]
        print(f"ineq m={m}: violations={res['violations']} "
              f"min_margin={res['margins'].min():.3e}")
    res = exp.theorem6_check([5, 10, 50], [args.dim], args.trials, args.seed,
                             out_csv=os.path.join(args.out, "trace_bound.csv"))
    total_violations += res["violations"]
    print(f"trace bound: violations={res['violations']} of {res['instances']}")
    if total_violations:
        raise CheckFailed(f"{total_violations} inequality violations")


def cmd_varcheck(args):
    res = exp.variance_check(args.dim, args.n, args.trials, args.step_scale,
                             args.seed, out_csv=os.path.join(args.out, "varcheck.csv"))
    print(f"varcheck: shared={res['mean_shared']:.6f} "
          f"independent={res['mean_independent']:.6f}")
    if not res["mean_shared"] <= res["mean_independent"]:  # a NaN fails too
        raise CheckFailed("shared-batch error exceeded independent-batch error")


def cmd_assign_bench(args):
    if args.n_points % args.m:
        raise ValueError(f"--n-points {args.n_points} is not a positive multiple of --m {args.m}")
    rng = derive_rng(args.seed, 0)
    points = rng.standard_normal((args.n_points, args.dim))
    if args.dim <= 8:
        generators = lloyd_cvt(args.dim, args.m, seed=args.seed)[0].generators
    else:
        generators = rng.standard_normal((args.m, args.dim)) * 0.3
    capacity = args.n_points // args.m
    solvers = [("lcm", lcm_assign)]
    if args.n_points <= OPTIMAL_MAX_POINTS:
        solvers.append(("optimal", optimal_assign))
    rows = []
    for name, solve in solvers:
        t0 = time.perf_counter()
        plan = solve(points, generators, capacity)
        rows.append([name, args.n_points, args.m, args.dim, time.perf_counter() - t0, plan.cost])
    datamod.write_csv(os.path.join(args.out, "assign_bench.csv"),
                      ["method", "n_points", "m", "dim", "seconds", "cost"], rows)
    for row in rows:
        print(f"{row[0]}: N={row[1]} m={row[2]} d={row[3]} "
              f"time={row[4]:.3f}s cost={row[5]:.4f}")


def build_parser(required=True):
    """The tessae parser and its commands; required=False builds one that
    checks a config line on its own, with no flag required."""
    parser = _Parser(prog="tessae")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _config_parser()

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=_SEED, default=0)
        sp.set_defaults(func=func)
        return sp

    sp = add("cvt", cmd_cvt, help="build and save a CVT of the unit ball")
    sp.add_argument("--dim", type=_COUNT, required=required)
    sp.add_argument("--m", type=_COUNT, required=required)
    sp.add_argument("--mc-samples", type=_COUNT, default=None)
    sp.add_argument("--max-iters", type=_COUNT, default=100)
    sp.add_argument("--energy-tol", type=_FINITE_GE0, default=1e-4)

    add("e8", cmd_e8, help="build and save the 241-region E8 tessellation")

    def add_data_args(sp):
        sp.add_argument("--dataset", choices=["ring", "ball", "idx"], default="ring")
        sp.add_argument("--count", type=_COUNT, default=4000)
        sp.add_argument("--modes", type=_COUNT, default=8)
        sp.add_argument("--radius", type=_FINITE, default=1.0)
        sp.add_argument("--sigma", type=_FINITE_GT0, default=0.1)
        sp.add_argument("--data-dim", type=_COUNT, default=2)
        sp.add_argument("--idx-images")

    sp = add("train", cmd_train, help="train an auto-encoder")
    add_data_args(sp)
    sp.add_argument("--mode", choices=["twae", "twae-reg", "baseline"], default="twae")
    sp.add_argument("--m", type=_COUNT, default=20)
    sp.add_argument("--n-chunk", type=_COUNT, default=200)
    sp.add_argument("--epochs", type=_COUNT, default=10)
    sp.add_argument("--latent-dim", type=_COUNT, default=2)
    sp.add_argument("--hidden", type=_int_list, default="64,64",
                    help="comma-separated hidden widths")
    sp.add_argument("--lambda", dest="lam", type=_FINITE_GE0, default=None,
                    help="latent weight; default 1 for SW, 0.01 for the others")
    sp.add_argument("--alpha", type=_FINITE_GE0, default=0.2)
    sp.add_argument("--estimator", choices=ae.ESTIMATORS, default="SW")
    sp.add_argument("--projections", type=_COUNT, default=1000)
    sp.add_argument("--tessellation", choices=[CVT, E8], default=CVT)
    sp.add_argument("--learning-rate", type=_FINITE_GE0, default=1e-3)

    sp = add("gap", cmd_gap, help="per-region prior-matching gap study")
    add_data_args(sp)
    sp.add_argument("--checkpoint", required=required, help="checkpoint path prefix")
    sp.add_argument("--tessellation", required=required, help="tessellation JSON path")
    sp.add_argument("--n", type=_COUNT, default=50)
    sp.add_argument("--trials", type=_COUNT, default=4)
    sp.add_argument("--projections", type=_COUNT, default=256)

    sp = add("rates", cmd_rates, help="sliced-discrepancy convergence rates")
    sp.add_argument("--dim", type=_COUNT, default=64)
    sp.add_argument("--n-grid", type=_int_list, default="32,64,128,256,512,1024,2048,4096")
    sp.add_argument("--trials", type=_COUNT, default=20)
    sp.add_argument("--projections", type=_COUNT, default=1000)

    sp = add("ineq", cmd_ineq, help="deterministic inequality audits")
    sp.add_argument("--n-points", type=_COUNT, default=128)
    sp.add_argument("--dim", type=_COUNT, default=2)
    sp.add_argument("--trials", type=_COUNT, default=100)

    sp = add("varcheck", cmd_varcheck, help="shared-batch variance check")
    sp.add_argument("--dim", type=_COUNT, default=8)
    sp.add_argument("--n", type=_COUNT, default=32)
    sp.add_argument("--trials", type=_COUNT, default=100)
    sp.add_argument("--step-scale", type=_FINITE, default=0.1)

    sp = add("assign-bench", cmd_assign_bench,
             help="least-cost vs optimal assignment timing/cost")
    sp.add_argument("--n-points", type=_COUNT, default=20000)
    sp.add_argument("--m", type=_COUNT, default=400)
    sp.add_argument("--dim", type=_COUNT, default=64)

    return parser, sub.choices


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        # config flags go ahead of the command line's, so the last (a flag) wins
        if argv and argv[0] in commands:
            pre = _config_parser()
            cfg_path = pre.parse_known_args(argv[1:])[0].config
            if cfg_path is not None:
                argv[1:1] = _read_config_file(cfg_path, argv[0])
        args = parser.parse_args(argv)
        _prepare_out(args)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.func(args)
    except SystemExit as err:  # --help
        return err.code if err.code is not None else 0
    except CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
