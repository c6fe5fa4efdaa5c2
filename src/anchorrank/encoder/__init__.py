"""Small transformer encoder with explicit forward/backward passes.

Everything is plain numpy float64: deterministic, finite-difference
checkable, and fast enough at desk scale.
"""

from anchorrank.encoder.adam import AdamState, adam_step
from anchorrank.encoder.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from anchorrank.encoder.config import EncoderConfig
from anchorrank.encoder.model import EncoderGraph, attention_from_position, attention_map, cls_score
from anchorrank.encoder.params import init_params, param_shapes, zero_grads

__all__ = [
    "AdamState",
    "adam_step",
    "Checkpoint",
    "CheckpointError",
    "EncoderConfig",
    "EncoderGraph",
    "attention_from_position",
    "attention_map",
    "cls_score",
    "init_params",
    "load_checkpoint",
    "param_shapes",
    "save_checkpoint",
    "zero_grads",
]
