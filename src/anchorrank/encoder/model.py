"""Encoder forward graph: embeddings + post-norm transformer layers, with
attention map extraction, CLS scoring and MLM heads, and an exact analytic
backward pass; plus two forward-only paths that share the same layer code:
a [CLS] scorer for inference and the last layer's attention map for the
sampler.

Every path computes in the params' dtype: float32 for the pipeline, whose
params come from init_params or load_checkpoint, and float64 for the
gradient checks, which pass float64 params to the same functions."""

from __future__ import annotations

import math

import numpy as np

from anchorrank.corpus import CLS_ID
from anchorrank.encoder import layers as lyr
from anchorrank.encoder.config import EncoderConfig


# Query-row selections for _layer: a basic slice is a view, so the all-rows
# case computes exactly what a layer over the whole sequence computes.
ALL_ROWS = slice(None)
CLS_ROW = slice(0, 1)


def _check_inputs(config: EncoderConfig, token_ids, segment_ids):
    """Validated int64 (token_ids, segment_ids); segment ids default to 0."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim != 1 or token_ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-d sequence")
    n = token_ids.size
    if n > config.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {config.max_len}; caller must truncate")
    if token_ids.min() < 0 or token_ids.max() >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if segment_ids is None:
        segment_ids = np.zeros(n, dtype=np.int64)
    else:
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if segment_ids.shape != (n,):
            raise ValueError("segment_ids must align with token_ids")
        if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() > 1):
            raise ValueError("segment ids must be 0 or 1")
    return token_ids, segment_ids


def _require_leading_cls(token_ids) -> None:
    if token_ids[0] != CLS_ID:
        raise ValueError("sequence must begin with [CLS] to be scored")


def _output_rows(outputs, n: int):
    """The last layer's query rows for EncoderGraph: ALL_ROWS for None,
    else the sorted distinct positions of outputs."""
    if outputs is None:
        return ALL_ROWS
    rows = np.unique(np.asarray(outputs, dtype=np.int64).reshape(-1))
    if rows.size == 0:
        raise ValueError("outputs must name at least one position")
    if rows[0] < 0 or rows[-1] >= n:
        raise ValueError("output position out of range")
    return rows


def _embed(params, token_ids, segment_ids):
    """Layer-normed token + position + segment embeddings; (out, ln cache)."""
    n = token_ids.size
    e = params["tok_emb"][token_ids] + params["pos_emb"][:n] + params["seg_emb"][segment_ids]
    return lyr.layer_norm(e, params["emb_ln_g"], params["emb_ln_b"])


def _attention(params, config: EncoderConfig, i: int, x, xq) -> dict:
    """Layer i's attention probabilities, queries from xq and keys from every
    row of x.  Returns the layer-cache entries it computes: the Q and K
    linear caches, their per-head splits qh and kh, and probs (heads,
    len(xq), n)."""
    pre = f"layer{i}."
    heads, head_dim = config.heads, config.head_dim
    q, q_cache = lyr.linear(xq, params[pre + "wq"], params[pre + "bq"])
    k, k_cache = lyr.linear(x, params[pre + "wk"], params[pre + "bk"])
    qh = q.reshape(xq.shape[0], heads, head_dim).transpose(1, 0, 2)
    kh = k.reshape(x.shape[0], heads, head_dim).transpose(1, 0, 2)
    probs = lyr.softmax((qh @ kh.transpose(0, 2, 1)) * (1.0 / math.sqrt(head_dim)))
    return {"q_cache": q_cache, "k_cache": k_cache, "qh": qh, "kh": kh, "probs": probs}


def _layer(params, config: EncoderConfig, i: int, x, rows):
    """Post-norm transformer layer i over x (n, hidden).

    Keys and values come from every row of x; queries, the residual
    stream, both layer norms and the FFN only from x[rows], so the output
    has the rows of x[rows].  Returns (out, cache); the cache holds what
    EncoderGraph.backward needs, including rows and the attention
    probabilities (heads, len(rows), n).
    """
    pre = f"layer{i}."
    xq = x[rows]
    cache = _attention(params, config, i, x, xq)
    v, v_cache = lyr.linear(x, params[pre + "wv"], params[pre + "bv"])
    vh = v.reshape(x.shape[0], config.heads, config.head_dim).transpose(1, 0, 2)
    ctx = cache["probs"] @ vh
    merged = ctx.transpose(1, 0, 2).reshape(xq.shape[0], config.hidden)
    attn_out, o_cache = lyr.linear(merged, params[pre + "wo"], params[pre + "bo"])
    h1, ln1_cache = lyr.layer_norm(xq + attn_out, params[pre + "ln1_g"], params[pre + "ln1_b"])
    f_pre, f1_cache = lyr.linear(h1, params[pre + "w1"], params[pre + "b1"])
    f_act, gelu_cache = lyr.gelu(f_pre)
    ffn_out, f2_cache = lyr.linear(f_act, params[pre + "w2"], params[pre + "b2"])
    out, ln2_cache = lyr.layer_norm(h1 + ffn_out, params[pre + "ln2_g"], params[pre + "ln2_b"])
    cache.update(
        rows=rows,
        v_cache=v_cache,
        vh=vh,
        o_cache=o_cache,
        ln1_cache=ln1_cache,
        f1_cache=f1_cache,
        gelu_cache=gelu_cache,
        f2_cache=f2_cache,
        ln2_cache=ln2_cache,
    )
    return out, cache


def _add_segment_rows(acc, segment_ids, d_rows) -> None:
    """np.add.at(acc, segment_ids, d_rows) for 0/1 segment ids, as two
    masked row sums.  Each sum starts from acc's row and goes down axis 0,
    which numpy adds row by row for more than one column: the same
    additions in the same order as np.add.at, so the same bits, at a
    fraction of its cost."""
    for seg in (0, 1):
        acc[seg] = np.concatenate((acc[seg : seg + 1], d_rows[segment_ids == seg])).sum(axis=0)


def _cls_head(params, h_cls):
    """Two-layer tanh MLP over the [CLS] row; (score, tanh activations)."""
    c_act = np.tanh(h_cls @ params["cls_w1"] + params["cls_b1"])
    return float(c_act @ params["cls_w2"] + params["cls_b2"][0]), c_act


class EncoderGraph:
    """One recorded forward pass over a single sequence.

    Heads attach lazily via cls_score() / mlm_logits(); backward() then
    propagates the supplied upstream gradients through heads, layers and
    embeddings in one sweep, accumulating into a shared gradient tree.
    A graph is single-shot: backward() may only be called once.

    `outputs` names the positions whose last-layer states a head will
    read; the last layer then runs, forward and backward, for those rows
    only (keys and values still cover every row), and `hidden` holds
    their states in ascending position order.  Gradients are exact for
    any loss of those rows.  None keeps every row.
    """

    def __init__(self, params, config: EncoderConfig, token_ids, segment_ids=None, outputs=None):
        token_ids, segment_ids = _check_inputs(config, token_ids, segment_ids)
        self.params = params
        self.config = config
        self.token_ids = token_ids
        self.segment_ids = segment_ids
        rows = _output_rows(outputs, token_ids.size)
        self.outputs = None if outputs is None else rows

        h, self._emb_ln_cache = _embed(params, token_ids, segment_ids)
        self._layer_caches: list[dict] = []
        last = config.layers - 1
        for i in range(config.layers):
            h, cache = _layer(params, config, i, h, rows if i == last else ALL_ROWS)
            self._layer_caches.append(cache)

        self.hidden = h
        self._cls_cache = None
        self._cls_value = None
        self._mlm_cache = None
        self._spent = False

    @property
    def attention(self) -> np.ndarray:
        """Attention probabilities of every layer, (layers, heads, n, n);
        stacked on request, since training never reads them."""
        if self.outputs is not None:
            raise ValueError("a graph with outputs has no full last-layer attention map")
        return np.stack([c["probs"] for c in self._layer_caches])

    def cls_score(self) -> float:
        """Two-layer tanh MLP over the [CLS] representation; unbounded."""
        _require_leading_cls(self.token_ids)
        if self.outputs is not None and self.outputs[0] != 0:
            raise ValueError("cls_score needs position 0 among the graph's outputs")
        if self._cls_cache is None:
            h_cls = self.hidden[0]
            self._cls_value, c_act = _cls_head(self.params, h_cls)
            self._cls_cache = (h_cls, c_act)
        return self._cls_value

    def mlm_logits(self, positions) -> np.ndarray:
        """Vocabulary logits for each masked position; (len(positions), vocab)."""
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        if positions.size and (positions.min() < 0 or positions.max() >= self.token_ids.size):
            raise ValueError("masked position out of range")
        rows = positions
        if self.outputs is not None:
            rows = np.searchsorted(self.outputs, positions)
            if not np.array_equal(self.outputs[np.minimum(rows, self.outputs.size - 1)], positions):
                raise ValueError("masked position not among the graph's outputs")
        h_masked = self.hidden[rows]
        self._mlm_cache = (rows, h_masked)
        return h_masked @ self.params["mlm_w"] + self.params["mlm_b"]

    def backward(self, grads: dict[str, np.ndarray], d_score: float = 0.0, d_mlm_logits=None) -> None:
        """Accumulate exact loss gradients into grads, given upstream
        gradients for the attached heads."""
        if self._spent:
            raise RuntimeError("backward() already called on this graph")
        self._spent = True
        params = self.params
        n = self.token_ids.size
        d_hidden = np.zeros_like(self.hidden)

        if d_score != 0.0:
            if self._cls_cache is None:
                raise RuntimeError("cls_score() was never called on this graph")
            h_cls, c_act = self._cls_cache
            grads["cls_w2"] += d_score * c_act
            grads["cls_b2"] += d_score
            dc_pre = (d_score * params["cls_w2"]) * (1.0 - c_act * c_act)
            grads["cls_w1"] += np.outer(h_cls, dc_pre)
            grads["cls_b1"] += dc_pre
            d_hidden[0] += params["cls_w1"] @ dc_pre

        if d_mlm_logits is not None:
            if self._mlm_cache is None:
                raise RuntimeError("mlm_logits() was never called on this graph")
            rows, h_masked = self._mlm_cache
            d_logits = np.asarray(d_mlm_logits)
            if d_logits.shape != (rows.size, self.config.vocab_size):
                raise ValueError("d_mlm_logits shape mismatch")
            grads["mlm_w"] += h_masked.T @ d_logits
            grads["mlm_b"] += d_logits.sum(axis=0)
            np.add.at(d_hidden, rows, d_logits @ params["mlm_w"].T)

        heads, head_dim = self.config.heads, self.config.head_dim
        scale = 1.0 / math.sqrt(head_dim)
        dout = d_hidden
        for i in reversed(range(self.config.layers)):
            c = self._layer_caches[i]
            pre = f"layer{i}."
            dres2, dg, db = lyr.layer_norm_backward(dout, c["ln2_cache"])
            grads[pre + "ln2_g"] += dg
            grads[pre + "ln2_b"] += db
            df_act, dw2, db2 = lyr.linear_backward(dres2, c["f2_cache"])
            grads[pre + "w2"] += dw2
            grads[pre + "b2"] += db2
            df_pre = lyr.gelu_backward(df_act, c["gelu_cache"])
            dh1_ffn, dw1, db1 = lyr.linear_backward(df_pre, c["f1_cache"])
            grads[pre + "w1"] += dw1
            grads[pre + "b1"] += db1
            dh1 = dres2 + dh1_ffn
            dres1, dg1, db1n = lyr.layer_norm_backward(dh1, c["ln1_cache"])
            grads[pre + "ln1_g"] += dg1
            grads[pre + "ln1_b"] += db1n
            dmerged, dwo, dbo = lyr.linear_backward(dres1, c["o_cache"])
            grads[pre + "wo"] += dwo
            grads[pre + "bo"] += dbo
            m = dmerged.shape[0]
            dctx = dmerged.reshape(m, heads, head_dim).transpose(1, 0, 2)
            dprobs = dctx @ c["vh"].transpose(0, 2, 1)
            dvh = c["probs"].transpose(0, 2, 1) @ dctx
            dscores = lyr.softmax_backward(dprobs, c["probs"]) * scale
            dqh = dscores @ c["kh"]
            dkh = dscores.transpose(0, 2, 1) @ c["qh"]
            dq = dqh.transpose(1, 0, 2).reshape(m, -1)
            dk = dkh.transpose(1, 0, 2).reshape(n, -1)
            dv = dvh.transpose(1, 0, 2).reshape(n, -1)
            dx_q, dwq, dbq = lyr.linear_backward(dq, c["q_cache"])
            grads[pre + "wq"] += dwq
            grads[pre + "bq"] += dbq
            dx_k, dwk, dbk = lyr.linear_backward(dk, c["k_cache"])
            grads[pre + "wk"] += dwk
            grads[pre + "bk"] += dbk
            dx_v, dwv, dbv = lyr.linear_backward(dv, c["v_cache"])
            grads[pre + "wv"] += dwv
            grads[pre + "bv"] += dbv
            # the query rows' gradient lands on rows of dx_k; over all rows
            # this sums in the same order as dres1 + dx_q + dx_k + dx_v
            dx_k[c["rows"]] += dres1 + dx_q
            dout = dx_k + dx_v

        de, dg, db = lyr.layer_norm_backward(dout, self._emb_ln_cache)
        grads["emb_ln_g"] += dg
        grads["emb_ln_b"] += db
        np.add.at(grads["tok_emb"], self.token_ids, de)
        grads["pos_emb"][:n] += de
        _add_segment_rows(grads["seg_emb"], self.segment_ids, de)


def cls_score(params, config, token_ids, segment_ids=None) -> float:
    """Forward-only [CLS] score of one sequence: EncoderGraph(...,
    outputs=[0]).cls_score(), bitwise, without backward caches.

    The last layer computes keys and values for every row but the rest of
    the layer for the [CLS] row only.  Its one-row matrix products round
    differently from the all-rows ones, so the score matches the full
    graph's to rounding (about 1e-16 in float64, 1e-8 in float32) rather
    than bitwise.
    """
    token_ids, segment_ids = _check_inputs(config, token_ids, segment_ids)
    _require_leading_cls(token_ids)
    h, _ = _embed(params, token_ids, segment_ids)
    last = config.layers - 1
    for i in range(config.layers):
        h, _ = _layer(params, config, i, h, CLS_ROW if i == last else ALL_ROWS)
    return _cls_head(params, h[0])[0]


def attention_map(params, config: EncoderConfig, token_ids) -> np.ndarray:
    """Forward-only attention probabilities (heads, n, n) of the last layer:
    EncoderGraph(...).attention[-1] without backward caches or the stacked
    maps of every layer.

    The layers below the last run whole; the last computes only Q, K and
    the softmax, over every row, so the map is bitwise the graph's.
    """
    token_ids, segment_ids = _check_inputs(config, token_ids, None)
    h, _ = _embed(params, token_ids, segment_ids)
    last = config.layers - 1
    for i in range(last):
        h, _ = _layer(params, config, i, h, ALL_ROWS)
    return _attention(params, config, last, h, h[ALL_ROWS])["probs"]
