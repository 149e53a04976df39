"""Point-network model: shared MLP stacks, pooling forwards, checkpoints.

The model owns seven small MLPs.  Segmentation runs a per-point trunk and
classifies each point from its local feature joined with the pooled global
feature.  The two regression stages each run a per-point encoder, pool each
pair's points to one embedding, and decode with linear heads; training runs
a whole batch of pairs through one graph, inference one pair.  All forwards
accept plain arrays and lift them into the autograd graph, so the same code
path serves training and inference; inference runs it under ``no_grad()``,
which records no graph.

Checkpoints are a single binary file: magic, format version, a JSON header
(config echo plus caller metadata), then raw little-endian float32
parameters in declaration order.  A human-readable JSON sidecar with the
same header is written next to the file.  Weights are always stored as
float32; loading a float64 model therefore rounds, while the float32
production configuration round-trips bit for bit.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from lidartrack.nn.autograd import (
    Tensor,
    linear,
    pooled_linear,
    relu,
    segment_maxpool,
    slice_cols,
)

__all__ = [
    "ModelConfig",
    "Mlp",
    "Model",
    "mlp_forward",
    "segment_forward",
    "segment_forward_batched",
    "stage1_forward",
    "stage2_forward",
    "save_checkpoint",
    "load_checkpoint",
]

_MAGIC = b"LTRK"
_FORMAT_VERSION = 1

SEG_IN = 14          # xyzt + targetness + 9 key-point distances
STAGE1_IN = 4        # xyzt of the segmented target
STAGE2_IN = 3        # xyz in the coarse-box frame
RTM_DIM = 4          # dx, dy, dz, dyaw
MOTION_OUT = RTM_DIM + 2   # motion vector + dynamic/static logits


@dataclass(frozen=True)
class ModelConfig:
    point_widths: tuple[int, ...] = (64, 128, 256)
    head_hidden: int = 128
    dtype: str = "float32"
    seed: int = 0

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        if len(self.point_widths) == 0 or any(w < 1 for w in self.point_widths):
            raise ValueError("point_widths must be positive and non-empty")
        if self.head_hidden < 1:
            raise ValueError(f"head_hidden must be at least 1, got {self.head_hidden!r}")
        object.__setattr__(self, "point_widths", tuple(int(w) for w in self.point_widths))

    @property
    def embed_dim(self) -> int:
        return self.point_widths[-1]


class Mlp:
    """A stack of affine layers with ReLU between them (none after the last)."""

    def __init__(self, widths: list[int], rng: np.random.Generator, dtype: np.dtype):
        self.layers: list[tuple[Tensor, Tensor]] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)
            b = np.zeros(fan_out, dtype=dtype)
            self.layers.append((Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)))

    def parameters(self) -> list[Tensor]:
        return [t for pair in self.layers for t in pair]

    def __call__(self, x: Tensor) -> Tensor:
        return mlp_forward(x, self.layers)


def mlp_forward(x: Tensor, layers) -> Tensor:
    for i, (w, b) in enumerate(layers):
        x = linear(x, w, b)
        if i + 1 < len(layers):
            x = relu(x)
    return x


class Model:
    """All trainable parameters for both tracking stages."""

    def __init__(self, config: ModelConfig | None = None):
        self.config = config or ModelConfig()
        dtype = np.dtype(self.config.dtype)
        rng = np.random.default_rng(self.config.seed)
        pw = list(self.config.point_widths)
        emb = self.config.embed_dim
        hid = self.config.head_hidden
        # declaration order fixes the checkpoint parameter layout
        self.seg_trunk = Mlp([SEG_IN] + pw, rng, dtype)
        self.seg_head = Mlp([2 * emb, hid, 2], rng, dtype)
        self.stage1_encoder = Mlp([STAGE1_IN] + pw, rng, dtype)
        self.motion_head = Mlp([emb, hid, MOTION_OUT], rng, dtype)
        self.prev_refine_head = Mlp([emb, hid, RTM_DIM], rng, dtype)
        self.stage2_trunk = Mlp([STAGE2_IN] + pw, rng, dtype)
        self.stage2_head = Mlp([emb, hid, RTM_DIM], rng, dtype)
        self._mlps = [
            self.seg_trunk,
            self.seg_head,
            self.stage1_encoder,
            self.motion_head,
            self.prev_refine_head,
            self.stage2_trunk,
            self.stage2_head,
        ]

    def parameters(self) -> list[Tensor]:
        return [p for m in self._mlps for p in m.parameters()]

    def seg_parameters(self) -> list[Tensor]:
        return self.seg_trunk.parameters() + self.seg_head.parameters()

    def stage1_parameters(self) -> list[Tensor]:
        return (
            self.stage1_encoder.parameters()
            + self.motion_head.parameters()
            + self.prev_refine_head.parameters()
        )

    def stage2_parameters(self) -> list[Tensor]:
        return self.stage2_trunk.parameters() + self.stage2_head.parameters()

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def lift(self, array) -> Tensor:
        """Wrap an input array as a constant graph node in the model dtype."""
        return Tensor(np.asarray(array, dtype=self.config.dtype))


def segment_forward_batched(features, model: Model, batch: int) -> Tensor:
    """Per-point two-class logits for `batch` stacked equal-size samples.

    `features` holds the samples' rows concatenated, (batch * n, 14).  Each
    point is classified from its local feature joined with its sample's
    pooled global feature; the head's first layer applies its pooled half
    once per sample, so the join is never built.
    """
    x = model.lift(features)
    if x.data.ndim != 2 or x.data.shape[1] != SEG_IN:
        raise ValueError(f"expected (rows, {SEG_IN}) features, got {x.data.shape}")
    if batch < 1 or x.data.shape[0] % batch != 0:
        raise ValueError(f"{x.data.shape[0]} rows do not split into {batch} equal samples")
    local = model.seg_trunk(x)
    (w, b), *rest = model.seg_head.layers
    pooled = segment_maxpool(local, [x.data.shape[0] // batch] * batch)
    hidden = relu(pooled_linear(local, pooled, w, b))
    return mlp_forward(hidden, rest)


def segment_forward(features, model: Model) -> Tensor:
    return segment_forward_batched(features, model, batch=1)


def stage1_forward(points, model: Model, sizes: Sequence[int]) -> tuple[Tensor, Tensor, Tensor]:
    """Encode segmented target points into motion outputs, one row per pair.

    `points` holds the pairs' target points stacked, (sum(sizes), 4), and
    `sizes` their row counts.  Returns (motion 4-vectors, dynamic/static
    logits, previous-box refinement 4-vectors), each a (pairs, k) graph
    node.
    """
    x = model.lift(points)
    if x.data.ndim != 2 or x.data.shape[1] != STAGE1_IN:
        raise ValueError(f"expected (n, {STAGE1_IN}) points, got {x.data.shape}")
    emb = segment_maxpool(model.stage1_encoder(x), sizes)
    motion = model.motion_head(emb)
    rtm4 = slice_cols(motion, 0, RTM_DIM)
    logits = slice_cols(motion, RTM_DIM, MOTION_OUT)
    refine4 = model.prev_refine_head(emb)
    return rtm4, logits, refine4


def stage2_forward(points, model: Model, sizes: Sequence[int]) -> Tensor:
    """Refinement 4-vectors (pairs, 4) from merged points in each coarse frame.

    `points` holds the pairs' merged points stacked, (sum(sizes), 3), and
    `sizes` their row counts.
    """
    x = model.lift(points)
    if x.data.ndim != 2 or x.data.shape[1] != STAGE2_IN:
        raise ValueError(f"expected (n, {STAGE2_IN}) points, got {x.data.shape}")
    return model.stage2_head(segment_maxpool(model.stage2_trunk(x), sizes))


def _header_dict(model: Model, extra: dict | None) -> dict:
    cfg = asdict(model.config)
    cfg["point_widths"] = list(cfg["point_widths"])
    return {
        "format_version": _FORMAT_VERSION,
        "config": cfg,
        "extra": dict(extra or {}),
        "param_count": len(model.parameters()),
        "param_elems": model.num_parameters(),
    }


def save_checkpoint(model: Model, path, extra: dict | None = None) -> None:
    """Write parameters as float32 plus a JSON header and a .json sidecar."""
    header = _header_dict(model, extra)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(p.data.astype("<f4").tobytes() for p in model.parameters())
    blob = _MAGIC + struct.pack("<II", _FORMAT_VERSION, len(header_bytes)) + header_bytes + body
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(blob)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a Model from a checkpoint; returns (model, extra metadata)."""
    with open(str(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 12 + header_len:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        cfg = dict(header["config"])
        cfg["point_widths"] = tuple(cfg["point_widths"])
        model = Model(ModelConfig(**cfg))
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise ValueError(f"extra is a JSON {type(extra).__name__}, not an object")
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise ValueError(f"{path}: bad header: {exc}") from exc
    params = model.parameters()
    body = blob[12 + header_len :]
    expected = model.num_parameters() * 4
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} parameter bytes, found {len(body)}")
    offset = 0
    for p in params:
        n = p.data.size
        flat = np.frombuffer(body, dtype="<f4", count=n, offset=offset)
        p.data = flat.astype(model.config.dtype).reshape(p.data.shape).copy()
        offset += n * 4
    return model, extra
