"""Forward/backward primitives. Each forward returns (out, cache); the
matching backward consumes the upstream gradient and the cache.

Each primitive writes only into arrays it makes, never into its
arguments, which callers cache for the backward; callers in model.py in
turn write only into arrays they have just made (a residual add).  The
operations run in place in a fixed order: that order keeps the bits and
the few temporaries each primitive makes.

The backward primitives take a sequence (rows, features) or a stack
(B, rows, features): a weight, bias or layer-norm gradient of a stack
comes back per member, as that member alone would give it, for the
caller to add up in member order.

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
    # sum / d is what ndarray.mean computes, and np.add.reduce what
    # ndarray.sum runs, bit for bit, without the Python-level dispatch that
    # dominates the cost at one or a few rows.
    # ((x - mu) * inv) * g + b, written into x - mu and the output
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    xhat = np.subtract(x, mu)
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv, g)


def layer_norm_backward(dout, cache):
    # inv * (dxhat - sum(dxhat) / d - xhat * sum(dxhat * xhat) / d), each
    # operation in that order, written into dxhat and one scratch array
    xhat, inv, g = cache
    t = np.multiply(dout, xhat)
    dg = np.add.reduce(t, axis=-2)
    db = np.add.reduce(dout, axis=-2)
    dx = np.multiply(dout, g)
    d = dout.shape[-1]
    mean_dxhat = np.add.reduce(dx, axis=-1, keepdims=True) / d
    np.multiply(dx, xhat, out=t)
    np.multiply(xhat, np.add.reduce(t, axis=-1, keepdims=True), out=t)
    t /= d
    dx -= mean_dxhat
    dx -= t
    dx *= inv
    return dx, dg, db


def linear(x, w, b):
    out = np.matmul(x, w)
    out += b
    return out, (x, w)


def linear_backward(dout, cache):
    # a stack's dw (B, in, out) holds one product per member, for the
    # caller to add up in member order.  Over one row each entry of dw is
    # a single product, which a broadcast multiply rounds once, as the
    # K = 1 GEMM does, at a fraction of its cost; the two differ only
    # where the GEMM's +0 is a -0, and either adds into a +0-started
    # gradient to the same bits.  Over more rows the GEMM stays: its fused
    # multiply-adds have no numpy equivalent.
    x, w = cache
    dx = np.matmul(dout, w.T)
    xt = x.swapaxes(-1, -2)
    dw = np.multiply(xt, dout) if x.shape[-2] == 1 else np.matmul(xt, dout)
    db = np.add.reduce(dout, axis=-2)
    return dx, dw, db


def gelu(x):
    # x * (c + c*a * x**2) in place, which saves the temporaries of the
    # textbook expression; it agrees with it to float32 rounding
    u = np.multiply(x, x)
    u *= _GELU_C * _GELU_A
    u += _GELU_C
    u *= x
    t = np.tanh(u, out=u)
    out = np.add(t, 1.0)
    out *= x
    out *= 0.5
    return out, (x, t)


def gelu_backward(dout, cache):
    # d/dx = 0.5 * (1 + t + x * (1 - t**2) * (c + 3*c*a * x**2))
    x, t = cache
    dx = np.multiply(x, x)
    dx *= 3.0 * _GELU_C * _GELU_A
    dx += _GELU_C
    dx *= x
    sech2 = np.multiply(t, t)
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
    e = np.subtract(x, np.fmax.reduce(x, axis=axis, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def softmax_backward(dprobs, probs, axis=-1):
    # probs * (dprobs - sum(dprobs * probs)), in one array
    out = np.multiply(dprobs, probs)
    inner = np.add.reduce(out, axis=axis, keepdims=True)
    np.subtract(dprobs, inner, out=out)
    out *= probs
    return out
