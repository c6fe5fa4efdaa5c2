from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

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


# Each tensor of a Layout starts on an ALIGN-byte boundary of its buffer.
# On a 2-core x86-64 host, OpenBLAS 0.3.31 (Haswell kernels, one thread)
# took 117-126 us for an (8, 48, 64) @ (64, 256) product with the weight
# 4-48 bytes past a 64-byte boundary and 79-82 us with it on one, for the
# same bits.  numpy itself only aligns arrays to 16 bytes.
ALIGN = 64


@dataclass(frozen=True)
class Layout:
    """Where each tensor of a tree sits in one contiguous buffer: the
    tree's keys in sorted order, each on an ALIGN-byte boundary, all of
    one dtype, with zeros in the gaps between."""

    keys: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    slices: tuple[slice, ...]
    dtype: np.dtype
    size: int

    @classmethod
    def of(cls, tree: dict[str, np.ndarray]) -> "Layout":
        """tree's layout.  A tree of mixed dtypes cannot share one buffer:
        a ValueError naming the first tensor, in key order, whose dtype is
        not the first one's."""
        keys = tuple(sorted(tree))
        dtype = tree[keys[0]].dtype if keys else np.dtype(PARAM_DTYPE)
        for key in keys:
            if tree[key].dtype != dtype:
                raise ValueError(f"{key!r} is {tree[key].dtype} but {keys[0]!r} is {dtype}: a tree of mixed dtypes cannot share one buffer")
        shapes = tuple(tree[key].shape for key in keys)
        sizes = [math.prod(shape) for shape in shapes]
        step = max(1, ALIGN // dtype.itemsize)
        starts = [0, *itertools.accumulate(-(-n // step) * step for n in sizes)]
        return cls(keys, shapes, tuple(slice(a, a + n) for a, n in zip(starts, sizes)), dtype, starts[-1])

    def check(self, tree: dict[str, np.ndarray], name: str) -> None:
        """A ValueError naming the first tensor, in key order, that tree
        lacks, adds, or holds in another dtype or shape than the layout's."""
        want = dict(zip(self.keys, self.shapes))
        for key in sorted(want.keys() | tree.keys()):
            got = f"{tree[key].dtype} {tree[key].shape}" if key in tree else "nothing"
            expected = f"{self.dtype} {want[key]}" if key in want else "nothing"
            if got != expected:
                raise ValueError(f"{name}[{key!r}]: {got}, where the layout has {expected}")

    def buffer(self) -> np.ndarray:
        """A fresh zero buffer of the layout's size that starts on an
        ALIGN-byte boundary."""
        raw = np.zeros(self.size + ALIGN // self.dtype.itemsize, dtype=self.dtype)
        start = (-raw.ctypes.data % ALIGN) // self.dtype.itemsize
        return raw[start : start + self.size]

    def gather(self, tree: dict[str, np.ndarray]) -> np.ndarray:
        """A fresh buffer holding the arrays of tree, which fits the layout."""
        flat = self.buffer()
        for key, where in zip(self.keys, self.slices):
            flat[where] = tree[key].reshape(-1)
        return flat

    def zeros(self) -> "FlatTree":
        return FlatTree(self, self.buffer())

    def flatten(self, tree: dict[str, np.ndarray], name: str) -> np.ndarray:
        """tree's arrays as one flat array: the buffer of a FlatTree of this
        layout that still holds its views, else a gathered copy of a tree
        that passes check."""
        if isinstance(tree, FlatTree) and tree.layout == self and tree.holds_views(tree):
            return tree.flat
        self.check(tree, name)
        return self.gather(tree)


class FlatTree(dict):
    """A name -> array tree whose arrays are views, in `layout`'s order,
    of one contiguous buffer `flat`: an elementwise operation over the
    whole tree is one operation over `flat`."""

    def __init__(self, layout: Layout, flat: np.ndarray) -> None:
        super().__init__((key, flat[where].reshape(shape)) for key, where, shape in zip(layout.keys, layout.slices, layout.shapes))
        self.layout = layout
        self.flat = flat
        self._views = tuple(self.values())

    def holds_views(self, tree: dict[str, np.ndarray]) -> bool:
        """Whether tree holds this tree's views and nothing else, so that
        writing `flat` writes every array of tree."""
        return len(tree) == len(self._views) and all(map(operator.is_, map(tree.get, self.layout.keys), self._views))


def zero_grads(params: dict[str, np.ndarray]) -> FlatTree:
    """A zero gradient tree in params' layout, in one fresh buffer: a
    FlatTree lends its layout, any other tree is laid out by Layout.of."""
    layout = params.layout if isinstance(params, FlatTree) else Layout.of(params)
    return layout.zeros()
