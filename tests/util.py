"""Shared oracles for the test suite: finite differences, independent NLL,
the joint hinge+MLM loss used for gradient checking, the per-key Adam step,
and small helpers that only tests need."""

import math
from dataclasses import dataclass

import numpy as np

from anchorrank.encoder import EncoderGraph, zero_grads
from anchorrank.encoder.params import ALIGN


def as_dtype(params, dtype):
    """A copy of params in dtype.  The pipeline's params are float32; the
    gradient checks run the same encoder on float64 copies, where a central
    difference at eps=1e-4 is not swamped by rounding."""
    return {k: v.astype(dtype) for k, v in params.items()}


def encode(params, config, token_ids, segment_ids=None):
    """Run the encoder; returns (hidden states (n, d), attention maps
    (layers, heads, n, n))."""
    g = EncoderGraph(params, config, token_ids, segment_ids)
    return g.hidden, g.attention


def mlm_logits(params, config, token_ids, segment_ids, positions) -> np.ndarray:
    return EncoderGraph(params, config, token_ids, segment_ids).mlm_logits(positions)


def unmask(masked_ids, labels) -> np.ndarray:
    """Restore the original token ids of mask_tokens' masked copy from its
    (position, original token id) labels."""
    ids = masked_ids.copy()
    for pos, original in labels:
        ids[pos] = original
    return ids


def poisson_pmf(lam: float, x: int) -> float:
    """P(X=x) for a true Poisson: lam^x e^-lam / x!."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if x < 0:
        return 0.0
    return math.exp(x * math.log(lam) - lam - math.lgamma(x + 1))


def log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlm_nll(logits, label_ids):
    """Mean negative log-likelihood; independent reimplementation."""
    label_ids = np.asarray(label_ids, dtype=np.int64)
    if label_ids.size == 0:
        return 0.0
    ls = log_softmax(logits)
    return float(-ls[np.arange(label_ids.size), label_ids].mean())


def mlm_loss(logits, labels) -> float:
    """mlm_nll over (position, original token id) labels, as mask_tokens
    returns them; 0 when nothing was masked."""
    return mlm_nll(logits, [t for _, t in labels])


def joint_loss(params, config, pos_ids, pos_segs, neg_ids, neg_segs, mask_positions, mask_labels):
    """Scalar hinge + MLM loss over one positive/negative sequence pair."""
    g_pos = EncoderGraph(params, config, pos_ids, pos_segs)
    s_pos = g_pos.cls_score()
    logits = g_pos.mlm_logits(mask_positions)
    g_neg = EncoderGraph(params, config, neg_ids, neg_segs)
    s_neg = g_neg.cls_score()
    hinge = max(0.0, 1.0 - s_pos + s_neg)
    return hinge + mlm_nll(logits, mask_labels)


def joint_loss_gradients(params, config, pos_ids, pos_segs, neg_ids, neg_segs, mask_positions, mask_labels):
    """Analytic gradients of joint_loss; returns (grads, loss)."""
    mask_labels = np.asarray(mask_labels, dtype=np.int64)
    grads = zero_grads(params)

    g_pos = EncoderGraph(params, config, pos_ids, pos_segs)
    s_pos = g_pos.cls_score()
    logits = g_pos.mlm_logits(mask_positions)
    g_neg = EncoderGraph(params, config, neg_ids, neg_segs)
    s_neg = g_neg.cls_score()

    hinge = max(0.0, 1.0 - s_pos + s_neg)
    loss = hinge + mlm_nll(logits, mask_labels)

    d_logits = np.exp(log_softmax(logits))
    d_logits[np.arange(mask_labels.size), mask_labels] -= 1.0
    d_logits /= max(mask_labels.size, 1)

    d_pos = -1.0 if hinge > 0.0 else 0.0
    g_pos.backward(grads, d_score=d_pos, d_mlm_logits=d_logits)
    if hinge > 0.0:
        g_neg.backward(grads, d_score=1.0)
    return grads, loss


def finite_difference_grads(loss_fn, params, eps=1e-4, keys=None):
    """Central finite differences of loss_fn() w.r.t. every parameter entry.

    loss_fn must close over params; entries are perturbed in place and
    restored.
    """
    out = {}
    for name in keys if keys is not None else sorted(params):
        arr = params[name]
        grad = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn()
            flat[i] = orig - eps
            lm = loss_fn()
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * eps)
        out[name] = grad
    return out


def max_relative_error(analytic, numeric, floor=1e-6):
    """max over entries of |a-n| / max(|a|, |n|, floor)."""
    worst = 0.0
    for key in numeric:
        a, n = analytic[key], numeric[key]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


@dataclass
class ReferenceAdamState:
    """Adam's state as one array per key, for reference_adam_step.  params
    is the caller's tree, kept as it is: run_steps reads the attribute."""

    step: int
    params: dict
    m: dict
    v: dict

    @classmethod
    def zeros(cls, params):
        return cls(0, params, reference_zero_grads(params), reference_zero_grads(params))


def assert_one_buffer(tree):
    """tree's arrays view one buffer, in sorted-key order, each starting on
    an ALIGN-byte boundary."""
    owner = tree[min(tree)].base
    assert owner is not None and all(tree[k].base is owner for k in tree)
    starts = [tree[k].ctypes.data for k in sorted(tree)]
    assert starts == sorted(starts) and all(a % ALIGN == 0 for a in starts)
    ends = [tree[k].ctypes.data + tree[k].nbytes for k in sorted(tree)]
    assert all(end <= start for end, start in zip(ends, starts[1:]))


def reference_zero_grads(params):
    """One fresh zero array per key."""
    return {k: np.zeros_like(v) for k, v in params.items()}


def reference_adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """adam_step as it was before the flat layout: each tensor stepped in
    turn, keys walked in sorted order.  The bitwise reference for the
    flat step."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for key in sorted(params):
        g = grads[key]
        m = state.m[key]
        v = state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params[key] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
