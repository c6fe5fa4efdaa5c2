"""Forward/backward primitives. Each forward returns (out, cache); the
matching backward consumes the upstream gradient and the cache.

Each forward allocates its output once and never writes into its
arguments, which callers cache for the backward; callers in model.py in
turn write only into arrays they have just made (a residual add).

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
    # Python-level dispatch that dominates the cost at one or a few rows.
    # ((x - mu) * inv) * g + b, written into the fresh x - mu and the output
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xhat = x - mu
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
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
    out = x @ w
    out += b
    return out, (x, w)


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
    # fmax.reduce is ndarray.max on a row without NaN, and cheaper; a row
    # with a NaN comes out all NaN either way
    e = x - np.fmax.reduce(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(dprobs, probs, axis=-1):
    inner = (dprobs * probs).sum(axis=axis, keepdims=True)
    return probs * (dprobs - inner)

