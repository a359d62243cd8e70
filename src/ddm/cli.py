"""Command-line entry points: gen-data, train, infer, eval.

Every run directory receives a ``config.json`` snapshot of the fully
resolved configuration, so results can be reproduced from the artefacts
alone.  Exit codes: 0 success, 1 configuration or usage problem, 2 broken
or missing data, 3 numerical failure.  ``DDM_LOG_LEVEL`` selects the log
verbosity (DEBUG, INFO, WARNING, ERROR, CRITICAL).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import config as configmod
from .checkpoint import atomic_write_text
from .config import METRICS, ABLATIONS, RunConfig, read_jsonl, write_jsonl
from .errors import ConfigError, DDMError, DataError
from .evaluation import VideoOutcome, evaluate, format_csv, format_table
from .inference import Prediction, predict_dataset, score_and_predict
from .model import BoundaryModel
from .plot import score_curve_svg
from .synth import generate_dataset, read_dataset, read_manifest, write_dataset
from .training import load_checkpoint, train

log = logging.getLogger("ddm.cli")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data
    problems, so route usage errors through the normal error path."""

    def error(self, message):
        raise ConfigError(message)


def configure_logging() -> None:
    name = os.environ.get("DDM_LOG_LEVEL", "WARNING").upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        raise ConfigError(f"unknown DDM_LOG_LEVEL {name!r}")
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s",
                        force=True)
    logging.getLogger("ddm").setLevel(level)


# ---------------------------------------------------------------------------
# configuration plumbing


# override flag -> (the config fields it sets, its argparse options)
OVERRIDES = {
    "seed": (("gen.seed", "train.seed"),
             dict(type=int, help="override every seed field")),
    "ablate": (("model.ablate",),
               dict(choices=ABLATIONS, help="architecture variant")),
    "metric": (("model.metric",),
               dict(choices=METRICS, help="frame-distance metric")),
    "stride": (("clip.stride",),
               dict(type=int, help="frame step between clip samples")),
    "theta": (("post.theta",),
              dict(type=float, help="score threshold for kept boundaries")),
    "window": (("post.window",),
               dict(type=int, help="local-maximum half width in grid steps")),
    "matching": (("eval.matching",),
                 dict(choices=configmod.MATCHINGS,
                      help="how predictions are paired with boundaries")),
    "aggregation": (("eval.aggregation",),
                    dict(choices=configmod.AGGREGATIONS,
                         help="pool counts or average per-video scores")),
}


def resolve_config(args) -> RunConfig:
    preset = getattr(args, "preset", None)
    path = getattr(args, "config", None)
    if preset and path:
        raise ConfigError("--preset and --config are mutually exclusive")
    if preset:
        cfg = configmod.PRESETS[preset]()
    elif path:
        cfg = configmod.load_file(path)
    else:
        cfg = RunConfig()

    for flag, (fields, _) in OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        for name in fields:
            section, key = name.split(".")
            part = dataclasses.replace(getattr(cfg, section), **{key: value})
            cfg = dataclasses.replace(cfg, **{section: part})
    return cfg


def snapshot_config(cfg: RunConfig, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(os.fspath(out_dir), "config.json"),
                      configmod.dumps(cfg))


def _add_config_flags(sub, *overrides):
    sub.add_argument("--config", metavar="FILE",
                     help="JSON run configuration")
    sub.add_argument("--preset", choices=sorted(configmod.PRESETS),
                     help="named base configuration")
    for flag in overrides:
        sub.add_argument(f"--{flag}", **OVERRIDES[flag][1])


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    cfg = resolve_config(args)
    records = generate_dataset(cfg.gen, workers=args.workers)
    write_dataset(records, args.out)
    snapshot_config(cfg, args.out)
    log.info("generated %d videos into %s", len(records), args.out)
    print(f"wrote {len(records)} videos to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    snapshot_config(cfg, args.out)
    videos = read_dataset(args.data, split="train")
    model = BoundaryModel(cfg.model, seed=cfg.train.seed)
    result = train(model, videos, cfg, out_dir=args.out,
                   resume_from=args.resume)
    last = result.loss_rows[-1] if result.loss_rows else None
    if last is not None:
        print(f"trained {last[0]} steps; final loss {last[2]:.5f}")
    print(f"checkpoint: {result.final_path}")
    return 0


def cmd_infer(args) -> int:
    cfg = resolve_config(args)
    videos = read_dataset(args.data, split=args.split)
    for video in videos if args.plot else ():
        # the id becomes a file name under plots/
        if video.video_id in ("", ".", "..") or any(
                c in video.video_id for c in "/\\\0"):
            raise DataError(f"{args.data}: video id {video.video_id!r} is "
                            f"not a plain file name, so it cannot name a plot")
    model = BoundaryModel(cfg.model, seed=cfg.train.seed)
    load_checkpoint(args.checkpoint, model)
    snapshot_config(cfg, args.out)

    if args.plot:
        predictions = []
        plot_dir = os.path.join(os.fspath(args.out), "plots")
        os.makedirs(plot_dir, exist_ok=True)
        for video in videos:
            prediction, positions, scores, kept = score_and_predict(
                model, video, cfg)
            predictions.append(prediction)
            svg = score_curve_svg(positions, scores, kept,
                                  theta=cfg.post.theta,
                                  boundaries=video.boundaries,
                                  title=video.video_id)
            atomic_write_text(
                os.path.join(plot_dir, f"{video.video_id}.svg"), svg)
    else:
        predictions = predict_dataset(model, videos, cfg,
                                      workers=args.workers)

    path = os.path.join(os.fspath(args.out), "predictions.jsonl")
    write_jsonl(path, predictions)
    total = sum(len(p.positions) for p in predictions)
    print(f"wrote {len(predictions)} videos, {total} boundaries to {path}")
    return 0


def read_predictions(path) -> dict[str, tuple[int, ...]]:
    """Predicted positions per video; a video may appear on one line only."""
    out: dict[str, tuple[int, ...]] = {}
    for lineno, pred in read_jsonl(path, Prediction):
        if pred.video in out:
            raise DataError(f"{path}:{lineno}: duplicate video {pred.video!r}")
        out[pred.video] = pred.positions
    return out


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    entries = read_manifest(args.data, split=args.split)
    predicted = read_predictions(args.predictions)

    unknown = sorted(set(predicted) - {entry.id for entry in entries})
    if unknown:
        raise DataError(
            f"{args.predictions}: predictions for unknown videos {unknown}")
    for entry in entries:
        for p in predicted.get(entry.id, ()):
            if not 0 <= p < entry.num_frames:
                raise DataError(
                    f"{args.predictions}: video {entry.id!r} has position "
                    f"{p} outside [0, {entry.num_frames})")

    outcomes = [
        VideoOutcome(video_id=entry.id, num_frames=entry.num_frames,
                     predictions=predicted.get(entry.id, ()),
                     boundaries=entry.boundaries)
        for entry in entries]
    report = evaluate(outcomes, cfg.eval)
    sys.stdout.write(format_table(report))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(os.fspath(args.out), "report.csv"),
                          format_csv(report))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="ddm",
                     description="boundary detection on synthetic videos")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic dataset")
    _add_config_flags(p, "seed")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a model on the train split")
    _add_config_flags(p, "seed", "ablate", "metric", "stride")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--resume", metavar="CHECKPOINT")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="score a split with a checkpoint")
    _add_config_flags(p, "seed", "ablate", "metric", "stride", "theta",
                      "window")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--split", default="val")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--plot", action="store_true",
                   help="write per-video score curves as SVG")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    _add_config_flags(p, "matching", "aggregation")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--predictions", required=True, metavar="FILE")
    p.add_argument("--out", metavar="DIR",
                   help="also write report.csv here")
    p.add_argument("--split", default="val")
    p.set_defaults(func=cmd_eval)
    return parser


def entry(argv=None) -> int:
    try:
        configure_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DDMError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(entry())
