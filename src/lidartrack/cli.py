"""The ``lidartrack`` command: generate, train, track, eval.

Every command resolves one flat config (defaults, then ``--preset``, then
``--config``, then flag overrides), writes the resolved snapshot next to
its outputs, and is fully reproducible from that snapshot plus the seed.
Exit status: 0 on success, 1 on runtime failure, 2 on usage or config
errors; failures print a one-line JSON error summary to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from lidartrack.config import ConfigError, ExperimentConfig, PRESETS
from lidartrack.data import is_dynamic, make_synthetic_dataset, make_training_pairs, read_native, write_native
from lidartrack.evaluation import (
    KalmanCVTracker,
    OpeReport,
    ZeroMotionTracker,
    distractor_protocol,
    export_predictions,
    mean_wall_ms,
    render_report,
    run_ope,
    score_predictions,
)
from lidartrack.geometry import infer_rtm
from lidartrack.nn import Model, load_checkpoint, save_checkpoint
from lidartrack.pipeline import NetworkTracker, train

__all__ = ["main"]

BASELINES = {"zero-motion": ZeroMotionTracker, "kalman-cv": KalmanCVTracker}

CHECKPOINT_NAME = "checkpoint.lidartrack"


def _add_common(sp: argparse.ArgumentParser, *, dataset: bool) -> None:
    sp.add_argument("--config", help="JSON config file (flat key: value object)")
    sp.add_argument("--preset", choices=sorted(PRESETS), help="built-in config preset")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--out", required=True, help="output directory")
    if dataset:
        sp.add_argument("--dataset", help="native-format dataset directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidartrack",
        description="Motion-centric LiDAR single-object tracking experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    _add_common(gen, dataset=False)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train the tracker on a dataset")
    _add_common(tr, dataset=True)
    tr.add_argument("--resume", help="checkpoint to continue training from")
    tr.set_defaults(func=cmd_train)

    tk = sub.add_parser("track", help="run a tracker over a dataset and export predictions")
    _add_common(tk, dataset=True)
    src = tk.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint", help="trained model checkpoint")
    src.add_argument("--baseline", choices=sorted(BASELINES), help="classical baseline")
    tk.set_defaults(func=cmd_track)

    ev = sub.add_parser("eval", help="score predictions or run a tracker under OPE")
    _add_common(ev, dataset=True)
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--predictions", help="exported predictions to score")
    src.add_argument("--checkpoint", help="trained model checkpoint")
    src.add_argument("--baseline", choices=sorted(BASELINES), help="classical baseline")
    ev.add_argument(
        "--distractor-sweep",
        metavar="K1,K2,...",
        help="regenerate scenes per K and evaluate robustness; no --dataset",
    )
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage already
        return int(exc.code or 0)
    try:
        overrides = {"seed": args.seed} if args.seed is not None else None
        cfg = ExperimentConfig.from_sources(
            preset=args.preset, config_file=args.config, overrides=overrides
        )
        status = args.func(args, cfg)
        if status == 0:
            _write_snapshot(Path(args.out), args, cfg)
        return status
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except Exception as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def _write_snapshot(out: Path, args, cfg: ExperimentConfig) -> None:
    doc = {
        "command": args.command,
        "preset": args.preset,
        "out": str(out),
        "inputs": {
            key: getattr(args, key, None)
            for key in ("dataset", "checkpoint", "predictions", "resume", "baseline")
            if getattr(args, key, None) is not None
        },
        "config": cfg.to_dict(),
    }
    (out / "config.resolved.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_tracklets(dataset: Optional[str]):
    if not dataset:
        raise ConfigError("--dataset is required for this command")
    tracklets = read_native(dataset)
    if not tracklets:
        raise ValueError(f"no tracklets found at {dataset}")
    return tracklets


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args, cfg: ExperimentConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = make_synthetic_dataset(
        cfg.n_tracklets,
        cfg.scene_template(),
        master_seed=cfg.seed,
        motions=cfg.motion_cycle(),
    )
    write_native(dataset, out)
    n_frames = sum(len(t.frames) for t in dataset)
    pairs = make_training_pairs(dataset)
    dynamic = sum(is_dynamic(infer_rtm(p.prev_box, p.cur_box)) for p in pairs)
    print(
        f"wrote {len(dataset)} tracklets ({n_frames} frames, "
        f"{dynamic} dynamic / {len(pairs) - dynamic} static pairs) to {out}"
    )
    return 0


def cmd_train(args, cfg: ExperimentConfig) -> int:
    tracklets = _load_tracklets(args.dataset)
    pairs = make_training_pairs(tracklets)
    start_epoch = 0
    if args.resume:
        model, extra = load_checkpoint(args.resume)
        start_epoch = extra.get("epochs_completed", 0)
        if type(start_epoch) is not int or start_epoch < 0:  # refuse a JSON float, string, bool or null
            raise ValueError(f"{args.resume}: epochs_completed must be a non-negative integer, got {start_epoch!r}")
        if start_epoch >= cfg.epochs:
            raise ValueError(
                f"{args.resume}: checkpoint has already completed {start_epoch} epochs; "
                f"config targets {cfg.epochs}"
            )
        stored, want = model.config, cfg.model_config()
        if replace(stored, seed=want.seed) != want:
            raise ValueError(
                f"checkpoint architecture {stored} does not match config {want}"
            )
    else:
        model = Model(cfg.model_config())

    metrics = train(model, pairs, cfg.train_config(start_epoch=start_epoch))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(
        model,
        out / CHECKPOINT_NAME,
        extra={"epochs_completed": cfg.epochs, "seed": cfg.seed},
    )
    # a resumed run appends its epochs' rows to the log the earlier run wrote
    with open(out / "metrics.jsonl", "a" if args.resume else "w", encoding="utf-8") as f:
        f.writelines(json.dumps(row) + "\n" for row in metrics)
    last = metrics[-1] if metrics else {}
    print(
        f"trained epochs {start_epoch}..{cfg.epochs - 1} on {len(pairs)} pairs; "
        f"final loss {last.get('loss', float('nan')):.4f}; "
        f"checkpoint at {out / CHECKPOINT_NAME}"
    )
    return 0


def cmd_track(args, cfg: ExperimentConfig) -> int:
    tracklets = _load_tracklets(args.dataset)
    tracker = _make_tracker(args, cfg)
    results = [(t.id, tracker.track(list(t.frames), t.gt_boxes[0])) for t in tracklets]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_predictions(results, out / "predictions.jsonl")
    mean_ms = mean_wall_ms([d.wall_ms for _, r in results for d in r.diagnostics])
    fps = 1e3 / mean_ms if mean_ms > 0 else float("inf")
    print(
        f"tracked {len(results)} tracklets; mean per-frame wall time "
        f"{mean_ms:.2f} ms ({fps:.1f} FPS); predictions at {out / 'predictions.jsonl'}"
    )
    return 0


def _parse_sweep(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--distractor-sweep must be comma-separated ints: {exc}")
    if not values or any(v < 0 for v in values):
        raise ConfigError("--distractor-sweep needs one or more non-negative ints")
    return values


def _make_tracker(args, cfg: ExperimentConfig):
    if args.baseline:
        return BASELINES[args.baseline]()
    model, _ = load_checkpoint(args.checkpoint)
    return NetworkTracker(model, seed=cfg.seed, margin=cfg.margin, n_points=cfg.n_points)


def _write_report(out: Path, report: OpeReport) -> str:
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    text = render_report(report)
    (out / "report.txt").write_text(text, encoding="utf-8")
    return text


def cmd_eval(args, cfg: ExperimentConfig) -> int:
    sweep = _parse_sweep(args.distractor_sweep) if args.distractor_sweep else None
    if sweep is not None and args.predictions:
        raise ConfigError("--distractor-sweep needs a tracker, not --predictions")
    if sweep is not None and args.dataset:
        raise ConfigError(
            "--distractor-sweep regenerates its scenes; drop --dataset"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if sweep is not None:
        tracker = _make_tracker(args, cfg)
        rows = distractor_protocol(
            tracker,
            cfg.scene_template(),
            cfg.n_tracklets,
            sweep,
            master_seed=cfg.seed,
            motions=cfg.motion_cycle(),
        )
        doc = {
            "tracker": rows[0][1].tracker,
            "rows": [{"k": k, "report": r.to_dict()} for k, r in rows],
        }
        (out / "distractor_sweep.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        header = f"{'K':>4}{'Success':>10}{'Precision':>12}{'frames':>9}"
        lines = [f"tracker: {doc['tracker']}", header, "-" * len(header)]
        for k, report in rows:
            lines.append(
                f"{k:>4d}{report.success:>10.2f}{report.precision:>12.2f}"
                f"{report.n_frames:>9d}"
            )
        text = "\n".join(lines) + "\n"
        (out / "distractor_sweep.txt").write_text(text, encoding="utf-8")
        print(text, end="")
        return 0

    if args.predictions:
        report = score_predictions(args.predictions, _load_tracklets(args.dataset))
    else:
        report = run_ope(_make_tracker(args, cfg), _load_tracklets(args.dataset))
    text = _write_report(out, report)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
