"""Minimal trainable point-network stack (numpy only).

Layout:
    autograd   Tensor, reverse-mode tape, no_grad, primitive ops
    losses     cross-entropy and Huber scalar losses
    network    model definition, forwards, checkpoint IO
    optim      Adam
    gradcheck  finite-difference gradient validation
"""

from lidartrack.nn.autograd import (
    Tensor,
    add,
    add_const,
    backward,
    linear,
    matmul_const,
    no_grad,
    pin_heap,
    pooled_linear,
    relu,
    scale,
    segment_maxpool,
    slice_cols,
    zero_grad,
)
from lidartrack.nn.gradcheck import grad_check
from lidartrack.nn.losses import cross_entropy, huber
from lidartrack.nn.network import (
    Mlp,
    Model,
    ModelConfig,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    segment_forward,
    segment_forward_batched,
    stage1_forward,
    stage2_forward,
)
from lidartrack.nn.optim import Adam

__all__ = [
    "Adam",
    "Mlp",
    "Model",
    "ModelConfig",
    "Tensor",
    "add",
    "add_const",
    "backward",
    "cross_entropy",
    "grad_check",
    "huber",
    "linear",
    "load_checkpoint",
    "matmul_const",
    "mlp_forward",
    "no_grad",
    "pin_heap",
    "pooled_linear",
    "relu",
    "save_checkpoint",
    "scale",
    "segment_forward",
    "segment_forward_batched",
    "segment_maxpool",
    "slice_cols",
    "stage1_forward",
    "stage2_forward",
    "zero_grad",
]
