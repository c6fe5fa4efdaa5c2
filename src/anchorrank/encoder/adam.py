"""Adaptive-moment optimizer with bias correction, over one flat buffer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from anchorrank.encoder.params import FlatTree


@dataclass
class AdamState:
    """The step count, and the parameters and both moments: FlatTrees that
    share one layout, which zero_grads(params) lends its gradient tree.
    The two scratch rows hold a step's intermediates."""

    step: int
    params: FlatTree
    m: FlatTree
    v: FlatTree
    scratch: np.ndarray

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "AdamState":
        """Zero moments for params, after moving params into one flat
        buffer: each value of the caller's dict is rebound, in place, to a
        view of a copy, and the arrays it held are not written.  A tree of
        mixed dtypes is a ValueError that leaves params alone."""
        laid = FlatTree(params)
        for key, view in laid.items():
            view[...] = params[key]
        params.update(laid)
        return cls(0, laid, FlatTree(laid), FlatTree(laid), np.empty((2, laid.flat.size), laid.flat.dtype))


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One in-place update of every parameter, as 14 array operations over
    the flat buffers.

        m_t = b1 m + (1-b1) g        v_t = b2 v + (1-b2) g^2
        theta -= lr * (m_t / (1-b1^t)) / (sqrt(v_t / (1-b2^t)) + eps)

    params must hold the views AdamState.zeros laid it out in, and grads
    be a zero_grads tree of that layout, still holding its own views.
    Anything else is a ValueError raised before anything is written; it
    names the first tensor that does not fit the layout, if one does not.

    Each operation is elementwise, with the Python-float scalars of
    stepping one tensor at a time, in the same order: every element gets
    the bits that a walk over the keys gives it."""
    laid = state.params
    if not laid.holds_views(params):
        laid.check(params, "params")
        raise ValueError("params does not hold the views AdamState.zeros laid it out in")
    if not (isinstance(grads, FlatTree) and grads.layout == laid.layout and grads.holds_views(grads)):
        laid.check(grads, "grads")
        raise ValueError("grads is not a zero_grads tree of params' layout that holds its own views")
    p, m, v, g = laid.flat, state.m.flat, state.v.flat, grads.flat
    s1, s2 = state.scratch
    b1, b2 = betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, 1.0 - b2, out=s1)
    np.multiply(s1, g, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, bc1, out=s1)
    np.multiply(s1, lr, out=s1)
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, eps, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(p, s1, out=p)
