"""Train the fixed desk checkpoint that the tracking workloads load.

    python3 perfbench/make_checkpoint.py

The recipe is the desk preset (128-point crops, batch 32, 3 distractors,
mixed motion) on 160 synthetic tracklets generated from master seed 7001,
trained for 10 epochs from a model seeded with 0.  The tracking workloads
generate their held-out scenes from other seeds.  Everything is seeded, so
the command writes the same weights on the same numpy/BLAS build; a
different build may round differently, which changes the tracking
benchmark's success and precision figures, so re-measure the baseline after
regenerating the checkpoint.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lidartrack import config as lt_config  # noqa: E402
from lidartrack import data as lt_data  # noqa: E402
from lidartrack import nn as lt_nn  # noqa: E402
from lidartrack import pipeline  # noqa: E402

CHECKPOINT = HERE / "checkpoint" / "desk.lidartrack"
TRAIN_TRACKLETS = 160
TRAIN_MASTER_SEED = 7001
EPOCHS = 10


def main() -> int:
    cfg = replace(lt_config.ExperimentConfig.from_sources(preset="desk"), epochs=EPOCHS)
    tracklets = lt_data.make_synthetic_dataset(
        TRAIN_TRACKLETS, cfg.scene_template(), master_seed=TRAIN_MASTER_SEED, motions=cfg.motion_cycle()
    )
    model = lt_nn.Model(cfg.model_config())
    start = time.perf_counter()
    rows = pipeline.train(model, lt_data.make_training_pairs(tracklets), cfg.train_config())
    for row in rows:
        print(f"epoch {row['epoch']}: loss {row['loss']:.4f}", flush=True)
    CHECKPOINT.parent.mkdir(parents=True, exist_ok=True)
    lt_nn.save_checkpoint(
        model,
        CHECKPOINT,
        extra={
            "recipe": "desk preset",
            "train_tracklets": TRAIN_TRACKLETS,
            "train_master_seed": TRAIN_MASTER_SEED,
            "epochs": EPOCHS,
            "final_loss": rows[-1]["loss"],
        },
    )
    print(f"wrote {CHECKPOINT} after {time.perf_counter() - start:.0f} s of training")
    return 0


if __name__ == "__main__":
    sys.exit(main())
