"""Forward/backward primitives. Each forward returns (out, cache); the
matching backward consumes the upstream gradient and the cache.

Every primitive computes in its inputs' dtype.  The constants are Python
floats on purpose: numpy promotes a float32 array that meets a np.float64
scalar to float64, and a Python float it does not."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-12
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def layer_norm(x, g, b):
    # sum / d is what ndarray.mean computes, bit for bit, without the
    # Python-level dispatch that dominates the cost at one or a few rows
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * g + b
    return out, (xhat, inv, g)


def layer_norm_backward(dout, cache):
    xhat, inv, g = cache
    dg = (dout * xhat).sum(axis=tuple(range(dout.ndim - 1)))
    db = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dxhat = dout * g
    d = dout.shape[-1]
    dx = inv * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d
    )
    return dx, dg, db


def linear(x, w, b):
    return x @ w + b, (x, w)


def linear_backward(dout, cache):
    x, w = cache
    dx = dout @ w.T
    dw = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dw, db


def gelu(x):
    phi_cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * phi_cdf, (x, phi_cdf)


def gelu_backward(dout, cache):
    x, phi_cdf = cache
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return dout * (phi_cdf + x * pdf)


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dprobs, probs, axis=-1):
    inner = (dprobs * probs).sum(axis=axis, keepdims=True)
    return probs * (dprobs - inner)

