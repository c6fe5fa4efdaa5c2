"""Forward/backward primitives. Each forward returns (out, cache); the
matching backward consumes the upstream gradient and the cache.

Every primitive computes in its inputs' dtype.  The constants are Python
floats on purpose: numpy promotes a float32 array that meets a np.float64
scalar to float64, and a Python float it does not."""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-12
# BERT's GELU, the tanh approximation of x * Phi(x) (Hendrycks & Gimpel,
# arXiv:1606.08415): 0.5 * x * (1 + tanh(c * (x + a * x**3))), c = sqrt(2/pi)
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


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
    # x * (c + c*a * x**2) in place, which saves the temporaries of the
    # textbook expression; it agrees with it to float32 rounding
    u = x * x
    u *= _GELU_C * _GELU_A
    u += _GELU_C
    u *= x
    t = np.tanh(u, out=u)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, (x, t)


def gelu_backward(dout, cache):
    # d/dx = 0.5 * (1 + t + x * (1 - t**2) * (c + 3*c*a * x**2))
    x, t = cache
    dx = x * x
    dx *= 3.0 * _GELU_C * _GELU_A
    dx += _GELU_C
    dx *= x
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    dx *= sech2
    dx += t
    dx += 1.0
    dx *= dout
    dx *= 0.5
    return dx


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dprobs, probs, axis=-1):
    inner = (dprobs * probs).sum(axis=axis, keepdims=True)
    return probs * (dprobs - inner)

