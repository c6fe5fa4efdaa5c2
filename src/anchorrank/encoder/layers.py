"""Forward/backward primitives. Each forward returns (out, cache); the
matching backward consumes the upstream gradient and the cache.

Every primitive can take the arrays it computes into from allocators
called as np.empty(shape, dtype): `new` for the arrays it returns, and,
in a backward, `tmp` for a scratch array that the caller may hand out
again once the call has returned.  A model.Workspace gives a training
step the same memory as the step before.  Without one (None, the
default), numpy allocates as for an operator: `out=new and new(...)`
asks the allocator only when there is one.  None stays the default
rather than np.empty: pre-training's per-sequence graphs use no
Workspace, and an np.empty plus an out= argument on each of their calls
cost the `train` benchmark 3.8% (items_per_kref 1106.5 -> 1064.4,
medians of 4 alternating pairs at seed 42).  Each primitive writes only
into those arrays, never into its arguments, which callers cache for
the backward; callers in model.py in turn write only into arrays they
have just made (a residual add).

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


def layer_norm(x, g, b, new=None):
    # sum / d is what ndarray.mean computes, bit for bit, without the
    # Python-level dispatch that dominates the cost at one or a few rows.
    # ((x - mu) * inv) * g + b, written into x - mu and the output
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xhat = np.subtract(x, mu, out=new and new(x.shape, x.dtype))
    out = np.multiply(xhat, xhat, out=new and new(x.shape, x.dtype))
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    np.multiply(xhat, g, out=out)
    out += b
    return out, (xhat, inv, g)


def layer_norm_backward(dout, cache, new=None, tmp=None):
    # inv * (dxhat - sum(dxhat) / d - xhat * sum(dxhat * xhat) / d), each
    # operation in that order, written into dxhat and one scratch array
    xhat, inv, g = cache
    t = np.multiply(dout, xhat, out=tmp and tmp(dout.shape, dout.dtype))
    dg = t.sum(axis=-2)
    db = dout.sum(axis=-2)
    dx = np.multiply(dout, g, out=new and new(dout.shape, dout.dtype))
    d = dout.shape[-1]
    mean_dxhat = dx.sum(axis=-1, keepdims=True) / d
    np.multiply(dx, xhat, out=t)
    np.multiply(xhat, t.sum(axis=-1, keepdims=True), out=t)
    t /= d
    dx -= mean_dxhat
    dx -= t
    dx *= inv
    return dx, dg, db


def linear(x, w, b, new=None):
    out = np.matmul(x, w, out=new and new(x.shape[:-1] + w.shape[1:], x.dtype))
    out += b
    return out, (x, w)


def linear_backward(dout, cache, new=None, tmp=None):
    # a stack's dw (B, in, out) holds one product per member, in tmp: the
    # caller adds it up before it hands tmp out again
    x, w = cache
    dx = np.matmul(dout, w.T, out=new and new(dout.shape[:-1] + w.shape[:1], dout.dtype))
    dw = np.matmul(x.swapaxes(-1, -2), dout, out=tmp and tmp(x.shape[:-2] + w.shape, dout.dtype))
    db = dout.sum(axis=-2)
    return dx, dw, db


def gelu(x, new=None):
    # x * (c + c*a * x**2) in place, which saves the temporaries of the
    # textbook expression; it agrees with it to float32 rounding
    u = np.multiply(x, x, out=new and new(x.shape, x.dtype))
    u *= _GELU_C * _GELU_A
    u += _GELU_C
    u *= x
    t = np.tanh(u, out=u)
    out = np.add(t, 1.0, out=new and new(x.shape, x.dtype))
    out *= x
    out *= 0.5
    return out, (x, t)


def gelu_backward(dout, cache, new=None, tmp=None):
    # d/dx = 0.5 * (1 + t + x * (1 - t**2) * (c + 3*c*a * x**2))
    x, t = cache
    dx = np.multiply(x, x, out=new and new(x.shape, x.dtype))
    dx *= 3.0 * _GELU_C * _GELU_A
    dx += _GELU_C
    dx *= x
    sech2 = np.multiply(t, t, out=tmp and tmp(t.shape, t.dtype))
    np.subtract(1.0, sech2, out=sech2)
    dx *= sech2
    dx += t
    dx += 1.0
    dx *= dout
    dx *= 0.5
    return dx


def softmax(x, axis=-1, new=None):
    # fmax.reduce is ndarray.max on a row without NaN, and cheaper; a row
    # with a NaN comes out all NaN either way
    e = np.subtract(x, np.fmax.reduce(x, axis=axis, keepdims=True), out=new and new(x.shape, x.dtype))
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_backward(dprobs, probs, axis=-1, new=None):
    # probs * (dprobs - sum(dprobs * probs)), in one array
    out = np.multiply(dprobs, probs, out=new and new(probs.shape, probs.dtype))
    inner = out.sum(axis=axis, keepdims=True)
    np.subtract(dprobs, inner, out=out)
    out *= probs
    return out
