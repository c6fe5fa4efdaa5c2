from __future__ import annotations

import itertools
import operator

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


# Each tensor of a FlatTree starts on an ALIGN-byte boundary of its buffer.
# On a 2-core x86-64 host, OpenBLAS 0.3.31 (Haswell kernels, one thread)
# took 117-126 us for an (8, 48, 64) @ (64, 256) product with the weight
# 4-48 bytes past a 64-byte boundary and 79-82 us with it on one, for the
# same bits.  numpy itself only aligns arrays to 16 bytes.
ALIGN = 64


class FlatTree(dict):
    """A name -> array tree whose arrays are views of one contiguous buffer
    `flat`: the keys in sorted order, each on an ALIGN-byte boundary, all of
    one dtype, with zeros in the gaps between.  An elementwise operation
    over the whole tree is one operation over `flat`.  `layout` is
    (dtype, buffer size, the (key, shape, slice) of each tensor)."""

    def __init__(self, like: dict[str, np.ndarray]) -> None:
        """A zero tree laid out like `like`: a FlatTree lends its own
        layout, any other tree is laid out from its keys, shapes and dtype.
        A tree of mixed dtypes cannot share one buffer: a ValueError naming
        the first tensor, in key order, whose dtype is not the first one's."""
        if isinstance(like, FlatTree):
            self.layout = like.layout
        else:
            keys = sorted(like)
            dtype = like[keys[0]].dtype if keys else np.dtype(PARAM_DTYPE)
            for key in keys:
                if like[key].dtype != dtype:
                    raise ValueError(f"{key!r} is {like[key].dtype} but {keys[0]!r} is {dtype}: a tree of mixed dtypes cannot share one buffer")
            step = max(1, ALIGN // dtype.itemsize)
            starts = [0, *itertools.accumulate(-(-like[key].size // step) * step for key in keys)]
            self.layout = (dtype, starts[-1], tuple((key, like[key].shape, slice(a, a + like[key].size)) for key, a in zip(keys, starts)))
        dtype, size, tensors = self.layout
        raw = np.zeros(size + ALIGN // dtype.itemsize, dtype=dtype)
        start = (-raw.ctypes.data % ALIGN) // dtype.itemsize
        self.flat = raw[start : start + size]
        super().__init__((key, self.flat[where].reshape(shape)) for key, shape, where in tensors)
        self._keys = tuple(self)
        self._views = tuple(self.values())

    def holds_views(self, tree: dict[str, np.ndarray]) -> bool:
        """Whether tree holds this tree's views and nothing else, so that
        writing `flat` writes every array of tree."""
        return len(tree) == len(self._views) and all(map(operator.is_, map(tree.get, self._keys), self._views))

    def check(self, tree: dict[str, np.ndarray], name: str) -> None:
        """A ValueError naming the first tensor, in key order, that tree
        lacks, adds, or holds in another dtype or shape than the layout's."""
        dtype, _, tensors = self.layout
        want = {key: f"{dtype} {shape}" for key, shape, _ in tensors}
        for key in sorted(want.keys() | tree.keys()):
            got = f"{tree[key].dtype} {tree[key].shape}" if key in tree else "nothing"
            if got != want.get(key, "nothing"):
                raise ValueError(f"{name}[{key!r}]: {got}, where the layout has {want.get(key, 'nothing')}")


def zero_grads(params: dict[str, np.ndarray]) -> FlatTree:
    """A zero gradient tree in params' layout, in one fresh buffer: a
    FlatTree lends its layout, any other tree is laid out afresh.  The one
    gradient form adam_step takes."""
    return FlatTree(params)
