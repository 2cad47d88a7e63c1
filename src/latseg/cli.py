"""Command-line front end: train, predict, eval, filter, lattice-stats.

Exit codes: 0 success, 1 runtime error, 2 usage, configuration or file-system
error.

numpy and the compute modules are imported inside the command handlers, not
at module scope: --threads writes the BLAS thread-count environment
variables, which only take effect if they are set before numpy first loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path


THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _set_thread_env(n):
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _load_cloud_dir(dir_path):
    from .data import _CODECS, load_cloud
    from .errors import ConfigError

    p = Path(dir_path)
    if not p.is_dir():
        raise ConfigError(f"not a directory: {p}")
    files = sorted(
        f for f in p.rglob("*") if f.is_file() and f.suffix.lower() in _CODECS
    )
    if not files:
        raise ConfigError(f"no point-cloud files under {p}")
    return files, [load_cloud(f) for f in files]


def _require_formats(*paths):
    """Refuse any cloud path, input or output, whose suffix names no format,
    before any work."""
    from .data import _codec
    from .errors import ConfigError, UnsupportedError

    for path in paths:
        try:
            _codec(path)
        except UnsupportedError as exc:
            raise ConfigError(str(exc)) from None


def _refuse_ply_extras(out, extras):
    """Refuse, before any work, extra channels bound for a PLY out path."""
    from .data import _codec, save_ply
    from .errors import ConfigError

    if extras and _codec(out)[1] is save_ply:
        raise ConfigError(f"PLY cannot store extra channels: {extras}; "
                          f"write {out} as xyz text instead")


# ------------------------------------------------------------------- train


def cmd_train(args):
    from . import network, train
    from .config import _to_lambda, load_run_config
    from .errors import ConfigError
    from .lattice import LatticeConfig

    cfg = load_run_config(args.config)
    lam = None if args.lam is None else _to_lambda(args.lam, "--lambda", None)
    flags = {"seed": args.seed, "lambda0": lam, "output_dir": args.out,
             "checkpoint": args.checkpoint}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    if cfg.arch is None:
        raise ConfigError("config is missing required key 'arch'")
    if cfg.data_dir is None:
        raise ConfigError("config is missing required key 'data_dir'")

    _, clouds = _load_cloud_dir(cfg.data_dir)
    dim = clouds[0].channel_matrix(cfg.lattice_channels, cfg.gravity_axis).shape[1]
    lattice = LatticeConfig(dim, cfg.lattice_scale(dim))
    spec = network.parse_arch(cfg.arch, lattice, cfg.num_classes)

    out_dir = Path(cfg.output_dir) if cfg.output_dir else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train.train_loop(
        spec,
        clouds,
        cfg,
        feature_channels=cfg.feature_channels,
        lattice_channels=cfg.lattice_channels,
        metrics_path=out_dir / "metrics.csv",
        checkpoint_path=out_dir / "model.splt",
        state_path=out_dir / "state.splt",
        resume_from=cfg.checkpoint,
    )
    if result.history:
        _, loss, acc, _ = result.history[-1]
        print(f"trained {result.iterations} iterations, "
              f"final loss {loss:.6f}, accuracy {acc:.4f}")
    else:
        print(f"trained {result.iterations} iterations")
    print(f"artifacts in {out_dir}: model.splt, state.splt, metrics.csv")
    return 0


# ----------------------------------------------------------------- predict


def cmd_predict(args):
    from . import network
    from .checkpoint import load_checkpoint
    from .data import load_cloud, save_cloud

    _require_formats(args.cloud, args.out)
    _refuse_ply_extras(args.out, "prob0, prob1, ... (--probs)" if args.probs else "")
    spec, params, feature_channels, lattice_channels = load_checkpoint(args.checkpoint)
    cloud = load_cloud(args.cloud)
    features = cloud.channel_matrix(feature_channels)
    lattice_feats = cloud.channel_matrix(lattice_channels)
    probs, _ = network.forward(spec, params, features, lattice_feats)
    labels = network.predict(probs)
    out = cloud.replace(labels=labels)
    if args.probs:
        out = out.with_channels([f"prob{c}" for c in range(probs.shape[1])], probs)
    save_cloud(out, args.out)
    print(f"wrote {out.num_points} labeled points to {args.out}")
    return 0


# -------------------------------------------------------------------- eval


def _require_labels(cloud, path):
    from .errors import ConfigError

    if cloud.labels is None:
        raise ConfigError(f"no label channel in {path}")
    return cloud.labels


def cmd_eval(args):
    from .data import compute_iou, load_cloud, shapenet_miou
    from .errors import ConfigError

    pred_path, gt_path = Path(args.pred), Path(args.gt)
    if pred_path.is_dir() != gt_path.is_dir():
        raise ConfigError("prediction and ground truth must both be files "
                          "or both be directories")

    if pred_path.is_dir():
        pred_files, pred_clouds = _load_cloud_dir(pred_path)
        rel = [f.relative_to(pred_path) for f in pred_files]
        gt_clouds = []
        for r in rel:
            target = gt_path / r
            if not target.is_file():
                raise ConfigError(f"ground truth missing for {r}")
            gt_clouds.append(load_cloud(target))
        preds = [_require_labels(c, f) for c, f in zip(pred_clouds, pred_files)]
        gts = [_require_labels(c, gt_path / r) for c, r in zip(gt_clouds, rel)]
    else:
        _require_formats(args.pred, args.gt)
        preds = [_require_labels(load_cloud(pred_path), pred_path)]
        gts = [_require_labels(load_cloud(gt_path), gt_path)]
        rel = [Path(pred_path.name)]  # a lone file is categorised by its name

    if args.mode == "average_iou":
        import numpy as np

        report = compute_iou(
            np.concatenate(preds), np.concatenate(gts), ignore_label=args.ignore_label
        )
        print(report.table())
        print(f"average iou: {report.average:.4f}")
        if args.out:
            Path(args.out).write_text("\n".join(report.csv_rows()) + "\n")
    else:
        # category = first directory component of the relative path, or the
        # stem's prefix before '_' for flat layouts
        categories = []
        for r in rel:
            parts = Path(r).parts
            if len(parts) > 1:
                categories.append(parts[0])
            elif "_" in Path(r).stem:
                categories.append(Path(r).stem.split("_")[0])
            else:
                categories.append("all")
        scores = shapenet_miou(preds, gts, categories, ignore_label=args.ignore_label)
        for cat in sorted(scores.per_category):
            print(f"{cat}: {scores.per_category[cat]:.4f}")
        for warning in scores.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"class average miou: {scores.class_average:.4f}")
        print(f"instance average miou: {scores.instance_average:.4f}")
        if args.out:
            rows = [f"{c},{v!r}" for c, v in sorted(scores.per_category.items())]
            rows.append(f"class_average,{scores.class_average!r}")
            rows.append(f"instance_average,{scores.instance_average!r}")
            Path(args.out).write_text("\n".join(rows) + "\n")
    return 0


# ------------------------------------------------------------------ filter


def cmd_filter(args):
    from .bcl import project
    from .config import _to_lambda, _to_str_tuple
    from .data import _FEATURES, load_cloud, save_cloud
    from .errors import ConfigError
    from .lattice import LatticeConfig

    channels = _to_str_tuple(args.channels, "--channels", None)
    if "xyz" in channels:
        raise ConfigError("positions cannot be transported; pick value channels")
    lam = _to_lambda(args.lam, "--lambda", None)
    _require_formats(args.src, args.dst, args.out)
    # labels are left to channel_matrix, which says they are no feature
    _refuse_ply_extras(args.out, ", ".join(
        c for c in channels if c not in _FEATURES and c != "labels"))
    src = load_cloud(args.src)
    dst = load_cloud(args.dst)
    values = src.channel_matrix(channels)
    out_values = project(values, src.positions, dst.positions,
                         LatticeConfig(3, lam[0] if len(lam) == 1 else lam))
    out = dst.with_channels(channels, out_values)
    save_cloud(out, args.out)
    print(f"projected {', '.join(channels)} from {args.src} onto "
          f"{out.num_points} points, wrote {args.out}")
    return 0


# ----------------------------------------------------------- lattice-stats


def cmd_lattice_stats(args):
    from .config import _to_positive_floats
    from .data import load_cloud
    from .lattice import LatticeConfig, build_lattice

    lambdas = _to_positive_floats(args.lam, "--lambda", None)
    _require_formats(args.cloud)
    cloud = load_cloud(args.cloud)
    # every lattice is built before the first line, so a failing scale
    # leaves stdout empty
    rows = ["lambda vertices occupancy adjacency_fill"]
    for lam in lambdas:
        lattice = build_lattice(cloud.positions, LatticeConfig(3, lam))
        rows.append(f"{lam:g} {lattice.num_vertices} "
                    f"{lattice.occupancy_ratio():.6e} {lattice.adjacency_fill():.4f}")
    print("\n".join(rows))
    return 0


# ----------------------------------------------------------------- parsing


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="thread count for numeric kernels (set before "
                             "numpy loads; 1 gives reproducible runs)")

    parser = argparse.ArgumentParser(
        prog="latseg",
        description="Sparse-lattice point-cloud segmentation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="train a network from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--checkpoint", default=None,
                   help="training state file to resume from")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="initial lattice scale override")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="label a cloud with a trained checkpoint")
    p.add_argument("cloud", help="input point-cloud file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="labeled output cloud")
    p.add_argument("--probs", action="store_true",
                   help="also store per-class probabilities as extra channels")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("eval", parents=[common],
                       help="score predictions against ground truth")
    p.add_argument("pred", help="predicted cloud file or directory")
    p.add_argument("gt", help="ground-truth cloud file or directory")
    p.add_argument("--mode", choices=("average_iou", "shapenet_miou"),
                   default="average_iou")
    p.add_argument("--ignore-label", type=int, default=None)
    p.add_argument("--out", default=None, help="also write the report as CSV")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("filter", parents=[common],
                       help="project channels from one cloud onto another")
    p.add_argument("src", help="source cloud carrying the channels")
    p.add_argument("dst", help="destination cloud to resample onto")
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="lam", default="1",
                   help="lattice scale (one value or x,y,z triple)")
    p.add_argument("--channels", default="rgb",
                   help="comma-separated channels to transport")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("lattice-stats", parents=[common],
                       help="vertex counts and fill ratios per lattice scale")
    p.add_argument("cloud", help="input point-cloud file")
    p.add_argument("--lambda", dest="lam", default="1",
                   help="comma-separated scales to sweep")
    p.set_defaults(handler=cmd_lattice_stats)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        _set_thread_env(args.threads)

    from .errors import ConfigError, LatSegError, ParseError

    try:
        return args.handler(args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except LatSegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
