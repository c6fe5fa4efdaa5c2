from __future__ import annotations

import numpy as np

from anchorrank.encoder.config import EncoderConfig

INIT_STD = 0.02
# The dtype the encoder trains, scores and stores checkpoints in.
PARAM_DTYPE = np.float32


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape table; the single source of truth for the
    parameter tree layout."""
    d, f, v = config.hidden, config.ffn_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, d),
        "pos_emb": (config.max_len, d),
        "seg_emb": (2, d),
        "emb_ln_g": (d,),
        "emb_ln_b": (d,),
    }
    for i in range(config.layers):
        p = f"layer{i}."
        shapes[p + "wq"] = (d, d)
        shapes[p + "bq"] = (d,)
        shapes[p + "wk"] = (d, d)
        shapes[p + "bk"] = (d,)
        shapes[p + "wv"] = (d, d)
        shapes[p + "bv"] = (d,)
        shapes[p + "wo"] = (d, d)
        shapes[p + "bo"] = (d,)
        shapes[p + "ln1_g"] = (d,)
        shapes[p + "ln1_b"] = (d,)
        shapes[p + "w1"] = (d, f)
        shapes[p + "b1"] = (f,)
        shapes[p + "w2"] = (f, d)
        shapes[p + "b2"] = (d,)
        shapes[p + "ln2_g"] = (d,)
        shapes[p + "ln2_b"] = (d,)
    shapes["mlm_w"] = (d, v)
    shapes["mlm_b"] = (v,)
    shapes["cls_w1"] = (d, d)
    shapes["cls_b1"] = (d,)
    shapes["cls_w2"] = (d,)
    shapes["cls_b2"] = (1,)
    return shapes


def init_params(config: EncoderConfig, seed: int) -> dict[str, np.ndarray]:
    """Gaussian(0, 0.02) weights, zero biases/shifts, unit layer-norm scales,
    all PARAM_DTYPE.  The weights are float64 draws rounded to PARAM_DTYPE."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.endswith("_g"):
            params[name] = np.ones(shape, dtype=PARAM_DTYPE)
        elif leaf.startswith("b") or leaf.endswith("_b") or leaf == "cls_b2":
            params[name] = np.zeros(shape, dtype=PARAM_DTYPE)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(PARAM_DTYPE)
    return params


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}
