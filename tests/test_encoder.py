import json
import math
import os
import platform
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from anchorrank.cli import FULL_PROFILE, main
from anchorrank.corpus import CLS_ID, SEP_ID
from anchorrank.encoder import (
    AdamState,
    Checkpoint,
    CheckpointError,
    EncoderConfig,
    EncoderGraph,
    adam_step,
    cls_scores,
    init_params,
    load_checkpoint,
    save_checkpoint,
    stack_runs,
    zero_grads,
)
from anchorrank.encoder import layers as layers_module
from anchorrank.encoder import model as model_module
from anchorrank.encoder.layers import gelu, gelu_backward, layer_norm, softmax
from anchorrank.pretrain import mlm_forward_backward, mlm_loss_and_grad
from util import (
    ReferenceAdamState,
    as_dtype,
    assert_one_buffer,
    encode,
    finite_difference_grads,
    joint_loss,
    joint_loss_gradients,
    log_softmax,
    max_relative_error,
    mlm_logits,
    mlm_nll,
    reference_adam_step,
    reference_zero_grads,
)

CFG = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)

# Paths that share their arithmetic are checked bitwise in both dtypes; paths
# whose products round differently are checked to these tolerances, set from
# each dtype's precision (float32's epsilon is 1.2e-7, float64's 2.2e-16).
DTYPES = (np.float64, np.float32)
ROUNDING = {np.float64: 1e-12, np.float32: 1e-4}


@pytest.fixture(scope="module")
def params():
    return init_params(CFG, seed=7)


def seq(*ids):
    return np.array(ids, dtype=np.int64)


@pytest.fixture
def built_graphs(monkeypatch):
    """Substitutes a recording EncoderGraph in encoder.model; the list it
    returns gets, for each graph built, (a weakref to it, its stack shape,
    the number of earlier graphs still alive when it was built)."""
    built = []

    class Recording(EncoderGraph):
        def __init__(self, *args, **kwargs):
            alive = sum(ref() is not None for ref, _, _ in built)
            super().__init__(*args, **kwargs)
            built.append((weakref.ref(self), self.token_ids.shape, alive))

    monkeypatch.setattr(model_module, "EncoderGraph", Recording)
    return built


class TestEncode:
    def test_hidden_shape(self, params):
        ids = seq(CLS_ID, 7, 8, 9, SEP_ID)
        h, attn = encode(params, CFG, ids)
        assert h.shape == (5, CFG.hidden)
        assert attn.shape == (CFG.layers, CFG.heads, 5, 5)

    def test_single_token_attention_row(self, params):
        h, attn = encode(params, CFG, seq(CLS_ID))
        assert np.allclose(attn, 1.0)

    def test_rows_stochastic(self, params):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, CFG.max_len + 1))
            ids = rng.integers(0, CFG.vocab_size, size=n)
            _, attn = encode(params, CFG, ids)
            assert np.all(attn >= 0.0)
            assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance_without_positions(self, params):
        p = {k: v.copy() for k, v in params.items()}
        p["pos_emb"][:] = 0.0
        a = seq(CLS_ID, 7, 8, 9, SEP_ID)
        b = seq(CLS_ID, 8, 7, 9, SEP_ID)
        ha, _ = encode(p, CFG, a)
        hb, _ = encode(p, CFG, b)
        assert np.allclose(ha[1], hb[2], atol=1e-9)
        assert np.allclose(ha[2], hb[1], atol=1e-9)
        assert np.allclose(ha[3], hb[3], atol=1e-9)

    def test_overlength_rejected(self, params):
        with pytest.raises(ValueError, match="max_len"):
            encode(params, CFG, np.zeros(CFG.max_len + 1, dtype=np.int64))

    def test_bad_token_id_rejected(self, params):
        with pytest.raises(ValueError, match="vocabulary"):
            encode(params, CFG, seq(CLS_ID, CFG.vocab_size))


class TestClsScore:
    def test_zero_final_layer_scores_zero(self, params):
        p = {k: v.copy() for k, v in params.items()}
        p["cls_w2"][:] = 0.0
        p["cls_b2"][:] = 0.0
        assert cls_scores(p, CFG, [(seq(CLS_ID, 7, 8, SEP_ID), seq(0, 0, 0, 0))])[0] == 0.0

    def test_deterministic(self, params):
        ids, segs = seq(CLS_ID, 5, 6, 7, SEP_ID), seq(0, 0, 0, 0, 0)
        assert cls_scores(params, CFG, [(ids, segs)]) == cls_scores(params, CFG, [(ids, segs)])

    def test_sensitive_to_document_segment(self, params):
        quer = [CLS_ID, 9, 10, SEP_ID]
        a = seq(*quer, 11, 12, SEP_ID)
        b = seq(*quer, 13, 14, SEP_ID)
        segs = np.array([0, 0, 0, 0, 1, 1, 1])
        assert cls_scores(params, CFG, [(a, segs)])[0] != cls_scores(params, CFG, [(b, segs)])[0]

    def test_requires_leading_cls(self, params):
        with pytest.raises(ValueError, match="CLS"):
            cls_scores(params, CFG, [(seq(7, 8), seq(0, 0))])

    @pytest.mark.parametrize(
        "ids, segs, match",
        [
            (seq(), None, "non-empty"),
            (np.full(CFG.max_len + 1, CLS_ID), None, "max_len"),
            (seq(CLS_ID, CFG.vocab_size), None, "vocabulary"),
            (seq(CLS_ID, -1), None, "vocabulary"),
            (seq(CLS_ID, 7), np.array([0, 2]), "0 or 1"),
            (seq(CLS_ID, 7), np.array([0]), "align"),
        ],
    )
    def test_input_checks_match_graph(self, params, ids, segs, match):
        with pytest.raises(ValueError, match=match):
            cls_scores(params, CFG, [(ids, segs)])
        with pytest.raises(ValueError, match=match):
            EncoderGraph(params, CFG, ids, segs)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_matches_encoder_graph(self, layers):
        # the scorer runs the last layer on the [CLS] row alone, so one-row
        # products round differently: equal to rounding, not bitwise
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(layers)
        noisy = {k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}
        for dtype in DTYPES:
            p = as_dtype(noisy, dtype)
            for n in range(1, cfg.max_len + 1):
                ids = np.concatenate(([CLS_ID], rng.integers(0, cfg.vocab_size, n - 1)))
                segs = rng.integers(0, 2, n)
                expected = EncoderGraph(p, cfg, ids, segs).cls_score()
                assert cls_scores(p, cfg, [(ids, segs)])[0] == pytest.approx(expected, rel=0.0, abs=ROUNDING[dtype])


class TestStackedScores:
    STACK_CFG = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=48)

    def sequences(self, rng, lengths):
        out = []
        for n in lengths:
            ids = rng.integers(0, self.STACK_CFG.vocab_size, n)
            ids[0] = CLS_ID
            out.append((ids, rng.integers(0, 2, n)))
        return out

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bitwise_equal_to_graph_and_one_sequence(self, dtype):
        cfg = self.STACK_CFG
        rng = np.random.default_rng(11)
        p = as_dtype({k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=11).items()}, dtype)
        for b in (1, 2, 5, 8, 9, 13):
            for n in (4, 17, 48):
                sequences = self.sequences(rng, [n] * b)
                scores = cls_scores(p, cfg, sequences)
                for (ids, segs), score in zip(sequences, scores):
                    one = cls_scores(p, cfg, [(ids, segs)])[0]
                    assert score == one == EncoderGraph(p, cfg, ids, segs, outputs=[0]).cls_score(), (b, n)

    @pytest.mark.parametrize(
        "column, value, match",
        [(0, 7, "CLS"), (3, 40, "vocabulary"), (3, -1, "vocabulary"), (None, 2, "0 or 1")],
        ids=["no-leading-cls", "id-over-range", "negative-id", "segment-2"],
    )
    def test_bad_row_in_a_stack_rejected_as_one_sequence(self, params, column, value, match):
        sequences = self.sequences(np.random.default_rng(0), [6] * 5)
        ids, segs = sequences[3]
        if column is None:
            segs[4] = value
        else:
            ids[column] = value
        with pytest.raises(ValueError, match=match):
            cls_scores(params, CFG, [(ids, segs)])
        with pytest.raises(ValueError, match=match):
            cls_scores(params, CFG, sequences)

    @pytest.mark.parametrize(
        "ids, segs, match",
        [
            (seq(), seq(), "non-empty"),
            (np.full(CFG.max_len + 1, CLS_ID), np.zeros(CFG.max_len + 1, dtype=np.int64), "max_len"),
            (seq(CLS_ID, 7, 8), seq(0, 0), "align"),
        ],
        ids=["empty", "over-max-len", "misaligned-segments"],
    )
    def test_bad_sequence_rejected(self, params, ids, segs, match):
        with pytest.raises(ValueError, match=match):
            cls_scores(params, CFG, [(seq(CLS_ID, 7, 8), seq(0, 0, 1)), (ids, segs)])

    def test_input_order_and_stack_budget(self, built_graphs):
        # lengths interleaved, one group over STACK_TOKENS: every stack holds
        # one length and at most STACK_TOKENS tokens, and each score lands
        # at its sequence's index
        cfg = self.STACK_CFG
        p = as_dtype(init_params(cfg, seed=4), np.float32)
        sequences = self.sequences(np.random.default_rng(4), [48, 5, 48, 17] * 5 + [48] * 7)
        scores = cls_scores(p, cfg, sequences)
        stacks = [shape for _, shape, _ in built_graphs]
        assert scores == [cls_scores(p, cfg, [pair])[0] for pair in sequences]
        assert sorted(stacks) == [(1, 48), (5, 5), (5, 17), (8, 48), (8, 48)]
        assert all(b * n <= model_module.STACK_TOKENS for b, n in stacks)
        assert cls_scores(p, cfg, []) == []

    def test_one_graph_alive_at_a_time(self, built_graphs):
        # each stack's graph is gone before the next is built: two live
        # stacks' arrays page-fault the allocator's memory in afresh
        cfg = self.STACK_CFG
        p = as_dtype(init_params(cfg, seed=4), np.float32)
        cls_scores(p, cfg, self.sequences(np.random.default_rng(4), [48, 5, 48, 17] * 5 + [48] * 7))
        assert [alive for _, _, alive in built_graphs] == [0] * 5
        assert all(ref() is None for ref, _, _ in built_graphs)


class TestStackRuns:
    """stack_runs, the one rule that cuts stacks, for fine-tuning in batch
    order and for cls_scores over its pairs sorted by length."""

    def test_a_length_over_the_budget_stacks_alone(self):
        # 512 is the full profile's max_len
        assert model_module.STACK_TOKENS < 512
        assert list(stack_runs([512] * 3)) == [(0, 1), (1, 2), (2, 3)]

    def test_no_lengths_no_stack(self):
        assert list(stack_runs([])) == []

    def test_empty_sequence_is_the_graph_error(self, params):
        for sequences in ([(seq(), seq())], [(seq(), seq())] * 2 + [(seq(CLS_ID, 7), seq(0, 0))]):
            with pytest.raises(ValueError, match="non-empty"):
                cls_scores(params, CFG, sequences)


def _random_case(cfg, rng, n):
    """A [CLS]-led sequence of length n, random segments, and 1-3 masked
    positions after [CLS] with their labels."""
    ids = np.concatenate(([CLS_ID], rng.integers(0, cfg.vocab_size, n - 1)))
    segs = rng.integers(0, 2, n)
    count = int(rng.integers(1, min(3, n - 1) + 1))
    positions = np.sort(rng.choice(np.arange(1, n), size=count, replace=False))
    labels = rng.integers(0, cfg.vocab_size, count)
    return ids, segs, positions, labels


def _head_grads(params, cfg, ids, segs, head, positions, labels, outputs):
    """(loss, hidden, grads) of a graph read by `head`: "cls" takes the
    [CLS] score as the loss, "mlm" the NLL at `positions`, "both" their
    sum."""
    g = EncoderGraph(params, cfg, ids, segs, outputs=outputs)
    loss, d_logits = 0.0, None
    if head in ("cls", "both"):
        loss += g.cls_score()
    if head in ("mlm", "both"):
        logits = g.mlm_logits(positions)
        loss += mlm_nll(logits, labels)
        d_logits = np.exp(log_softmax(logits))
        d_logits[np.arange(labels.size), labels] -= 1.0
        d_logits /= labels.size
    grads = zero_grads(params)
    g.backward(grads, d_score=1.0 if head != "mlm" else 0.0, d_mlm_logits=d_logits)
    return loss, g.hidden, grads


def _head_outputs(head, positions):
    return {"cls": [0], "mlm": positions, "both": np.concatenate(([0], positions))}[head]


class TestPrunedOutputs:
    """EncoderGraph(outputs=...) runs its last layer for the named rows only."""

    HEADS = ["cls", "mlm", "both"]

    @pytest.mark.parametrize("head", HEADS)
    def test_gradient_check(self, head):
        cfg = EncoderConfig(layers=2, heads=2, hidden=8, ffn_dim=16, vocab_size=15, max_len=10)
        rng = np.random.default_rng(17)
        params = {k: v + rng.normal(0.0, 0.3, v.shape) for k, v in init_params(cfg, seed=17).items()}
        ids, segs, positions, labels = _random_case(cfg, rng, 9)
        outputs = _head_outputs(head, positions)
        analytic = _head_grads(params, cfg, ids, segs, head, positions, labels, outputs)[2]
        numeric = finite_difference_grads(
            lambda: _head_grads(params, cfg, ids, segs, head, positions, labels, outputs)[0], params
        )
        assert max_relative_error(analytic, numeric) <= 1e-3

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("head", HEADS)
    def test_matches_full_graph(self, layers, head):
        # exact gradients of the same loss; the pruned rows' products round
        # differently, so equal to rounding, not bitwise.  b_k's true
        # gradient is 0 (softmax ignores a shift of every score), so both
        # graphs give rounding noise there: errors are scaled by the largest
        # gradient entry, not per entry
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(layers)
        noisy = {k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}
        for dtype in DTYPES:
            params, tol = as_dtype(noisy, dtype), ROUNDING[dtype]
            for n in range(2, cfg.max_len + 1):
                ids, segs, positions, labels = _random_case(cfg, rng, n)
                outputs = _head_outputs(head, positions)
                loss_f, hidden_f, grads_f = _head_grads(params, cfg, ids, segs, head, positions, labels, None)
                loss_p, hidden_p, grads_p = _head_grads(params, cfg, ids, segs, head, positions, labels, outputs)
                assert loss_p == pytest.approx(loss_f, rel=tol, abs=tol)
                assert np.abs(hidden_p - hidden_f[np.unique(outputs)]).max() <= tol
                scale = max(np.abs(g).max() for g in grads_f.values())
                for k in grads_f:
                    assert np.abs(grads_p[k] - grads_f[k]).max() <= tol * scale, k

    def test_every_row_is_the_full_graph_bitwise(self, params):
        rng = np.random.default_rng(4)
        for dtype in DTYPES:
            p = as_dtype(params, dtype)
            for n in range(2, CFG.max_len + 1):
                ids, segs, positions, labels = _random_case(CFG, rng, n)
                full = _head_grads(p, CFG, ids, segs, "both", positions, labels, None)
                every = _head_grads(p, CFG, ids, segs, "both", positions, labels, np.arange(n))
                assert full[0] == every[0]
                assert np.array_equal(full[1], every[1])
                for k in full[2]:
                    assert np.array_equal(full[2][k], every[2][k]), k

    @pytest.mark.parametrize("layers", [1, 3])
    def test_cls_row_equals_cls_score_bitwise(self, layers):
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(layers)
        noisy = {k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}
        for dtype in DTYPES:
            p = as_dtype(noisy, dtype)
            for n in range(1, cfg.max_len + 1):
                ids = np.concatenate(([CLS_ID], rng.integers(0, cfg.vocab_size, n - 1)))
                segs = rng.integers(0, 2, n)
                assert EncoderGraph(p, cfg, ids, segs, outputs=[0]).cls_score() == cls_scores(p, cfg, [(ids, segs)])[0]

    def test_outputs_sorted_and_distinct(self, params):
        ids = seq(CLS_ID, 7, 8, 9, SEP_ID)
        g = EncoderGraph(params, CFG, ids, outputs=[3, 1, 3])
        assert g.outputs.tolist() == [1, 3]
        assert g.hidden.shape == (2, CFG.hidden)
        assert EncoderGraph(params, CFG, ids).outputs is None

    def test_mlm_position_not_in_outputs_rejected(self, params):
        g = EncoderGraph(params, CFG, seq(CLS_ID, 7, 8, 9, SEP_ID), outputs=[1, 3])
        for positions in ([2], [1, 4], [0]):
            with pytest.raises(ValueError, match="not among the graph's outputs"):
                g.mlm_logits(positions)
        assert g.mlm_logits([3, 1]).shape == (2, CFG.vocab_size)

    def test_cls_score_without_row_zero_rejected(self, params):
        g = EncoderGraph(params, CFG, seq(CLS_ID, 7, 8, SEP_ID), outputs=[1, 2])
        with pytest.raises(ValueError, match="position 0"):
            g.cls_score()

    @pytest.mark.parametrize("outputs, match", [([], "at least one"), ([0, 4], "out of range"), ([-1], "out of range")])
    def test_bad_outputs_rejected(self, params, outputs, match):
        with pytest.raises(ValueError, match=match):
            EncoderGraph(params, CFG, seq(CLS_ID, 7, 8, SEP_ID), outputs=outputs)

    def test_attention_of_pruned_graph_rejected(self, params):
        g = EncoderGraph(params, CFG, seq(CLS_ID, 7, 8, SEP_ID), outputs=[0])
        with pytest.raises(ValueError, match="attention"):
            g.attention


class TestMlmLogits:
    def test_shape(self, params):
        ids = seq(CLS_ID, 7, 8, 9, SEP_ID)
        logits = mlm_logits(params, CFG, ids, None, [1, 3])
        assert logits.shape == (2, CFG.vocab_size)

    def test_empty_positions(self, params):
        logits = mlm_logits(params, CFG, seq(CLS_ID, 7), None, [])
        assert logits.shape == (0, CFG.vocab_size)

    def test_softmax_rows_sum_to_one(self, params):
        logits = mlm_logits(params, CFG, seq(CLS_ID, 7, 8, 9), None, [1, 2, 3])
        assert np.allclose(softmax(logits).sum(axis=-1), 1.0, atol=1e-12)


class TestLayerNorm:
    def test_normalized_mean_zero_var_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 5.0, size=(17, 33))
        _, (xhat, _, _) = layer_norm(x, np.ones(33), np.zeros(33))
        assert np.allclose(xhat.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(xhat.var(axis=-1), 1.0, atol=1e-5)


def _textbook_linear(x, w, b):
    return x @ w + b


def _textbook_layer_norm(x, g, b):
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + layers_module.LN_EPS)
    xhat = xc * inv
    return xhat * g + b, xhat, inv


def _textbook_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestForwardKernels:
    """The forward primitives compute their textbook expressions to the bit
    while working in the arrays they allocate, and never write into an
    argument."""

    HIDDEN, FFN, HEADS = 32, 64, 2

    @staticmethod
    def inputs(dtype, shape, rng):
        # one sequence (n, d), a stack (B, n, d), and a stack's one-row
        # slice (B, 1, d), which is a strided view
        x = rng.normal(0.0, 3.0, shape).astype(dtype)
        return {"one": x[0], "stack": x, "row-slice": x[:, 0:1]}

    @staticmethod
    def unchanged(args, call):
        before = [a.copy() for a in args]
        out = call(*args)
        for a, b in zip(args, before):
            _assert_bitwise(a, b)
        return out

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_linear_is_product_plus_bias(self, dtype):
        rng = np.random.default_rng(21)
        w = rng.normal(size=(self.HIDDEN, self.FFN)).astype(dtype)
        b = rng.normal(size=self.FFN).astype(dtype)
        for x in self.inputs(dtype, (5, 9, self.HIDDEN), rng).values():
            out, (cx, cw) = self.unchanged((x, w, b), layers_module.linear)
            _assert_bitwise(out, _textbook_linear(x, w, b))
            assert cx is x and cw is w

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_layer_norm_is_the_textbook_expression(self, dtype):
        rng = np.random.default_rng(22)
        g = rng.normal(1.0, 0.2, self.HIDDEN).astype(dtype)
        b = rng.normal(0.0, 0.2, self.HIDDEN).astype(dtype)
        for x in self.inputs(dtype, (5, 9, self.HIDDEN), rng).values():
            out, (xhat, inv, cg) = self.unchanged((x, g, b), layer_norm)
            want, want_xhat, want_inv = _textbook_layer_norm(x, g, b)
            _assert_bitwise(out, want)
            _assert_bitwise(xhat, want_xhat)
            _assert_bitwise(inv, want_inv)
            assert cg is g

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_is_the_textbook_expression(self, dtype):
        rng = np.random.default_rng(23)
        for x in self.inputs(dtype, (5, self.HEADS, 9, 9), rng).values():
            _assert_bitwise(self.unchanged((x,), softmax), _textbook_softmax(x))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_of_special_rows(self, dtype):
        inf, nan = math.inf, math.nan
        x = np.array(
            [
                [1.0, inf, -2.0, 0.5],
                [-inf, -inf, -inf, -inf],
                [0.5, nan, -1.0, 2.0],
                [nan, inf, -inf, 0.0],
                [nan, nan, nan, nan],
                [0.0, -0.0, 0.0, -0.0],
                [-0.0, -0.0, -0.0, -0.0],
                [-inf, 3.0, -inf, 1.0],
            ],
            dtype=dtype,
        )
        with np.errstate(invalid="ignore"):
            got = self.unchanged((x,), softmax)
            want = _textbook_softmax(x)
        assert got.dtype == want.dtype
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got[:5]).all() and not np.isnan(got[5:]).any()
        _assert_bitwise(got[5:], want[5:])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_embed_is_token_plus_position_plus_segment(self, dtype):
        rng = np.random.default_rng(24)
        p = as_dtype({k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(CFG, seed=24).items()}, dtype)
        ids = rng.integers(0, CFG.vocab_size, (4, 11))
        segs = rng.integers(0, 2, (4, 11))
        tables = [p[k] for k in ("tok_emb", "pos_emb", "seg_emb", "emb_ln_g", "emb_ln_b")]
        for i, s in ((ids, segs), (ids[2], segs[2])):
            e = p["tok_emb"][i] + p["pos_emb"][: i.shape[-1]] + p["seg_emb"][s]
            out, (xhat, _, _) = self.unchanged(tables, lambda *_: model_module._embed(p, i, s))
            want, want_xhat, _ = _textbook_layer_norm(e, p["emb_ln_g"], p["emb_ln_b"])
            _assert_bitwise(out, want)
            _assert_bitwise(xhat, want_xhat)

    def test_forward_paths_leave_params_unchanged(self, params):
        rng = np.random.default_rng(25)
        ids, segs, positions, _ = _random_case(CFG, rng, 12)
        tables = list(params.values())

        def forwards(*_):
            cls_scores(params, CFG, [(ids, segs)] * 3)
            g = EncoderGraph(params, CFG, ids, segs)
            g.cls_score()
            g.mlm_logits(positions)

        self.unchanged(tables, forwards)


class TestGelu:
    """BERT's GELU: the tanh approximation of x * Phi(x) (Hendrycks & Gimpel,
    arXiv:1606.08415)."""

    GRID = np.linspace(-8.0, 8.0, 4001)

    def test_matches_tanh_formula(self):
        c = math.sqrt(2.0 / math.pi)
        want = np.array([0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3))) for x in self.GRID])
        out, _ = gelu(self.GRID)
        assert out.dtype == np.float64
        assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()

    def test_within_5e_4_of_exact_gelu(self):
        exact = np.array([x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in self.GRID])
        assert np.abs(gelu(self.GRID)[0] - exact).max() <= 5e-4

    def test_backward_matches_central_differences(self):
        # relative to the largest entry: below x = -5 the derivative is under
        # 1e-8, and the central difference of 1 + tanh there is rounding
        rng = np.random.default_rng(4)
        x = np.concatenate([self.GRID, rng.normal(0.0, 2.0, 500)])
        dout = rng.normal(size=x.shape)
        h = 1e-6
        numeric = dout * (gelu(x + h)[0] - gelu(x - h)[0]) / (2.0 * h)
        analytic = gelu_backward(dout, gelu(x)[1])
        assert analytic.dtype == np.float64
        assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()

    def test_float32_in_float32_out(self):
        x = np.random.default_rng(5).normal(0.0, 2.0, (7, 16)).astype(np.float32)
        out, cache = gelu(x)
        dx = gelu_backward(np.ones_like(x), cache)
        assert _not_float32([("out", out), *_float_arrays(cache, "cache"), ("dx", dx)]) == []
        assert np.abs(out - gelu(x.astype(np.float64))[0]).max() <= 1e-6 * np.abs(out).max()


def test_encoder_runs_without_scipy():
    # the program is numpy-only: with scipy unimportable, the CLI module
    # imports and a graph runs forward and backward
    src = Path(model_module.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import anchorrank.cli
from anchorrank.encoder import EncoderConfig, EncoderGraph, init_params, zero_grads
cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, vocab_size=12, max_len=8)
params = init_params(cfg, seed=0)
ids = np.array([{CLS_ID}, 6, 7, {SEP_ID}, 8, {SEP_ID}])
graph = EncoderGraph(params, cfg, ids, np.array([0, 0, 0, 0, 1, 1]))
graph.cls_score()
grads = zero_grads(params)
graph.backward(grads, d_score=1.0)
assert np.any(grads["layer0.w1"] != 0.0)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_allocator_thresholds_taken_on_glibc():
    # mallopt returns 1 for a value glibc takes and 0 for one it refuses;
    # both thresholds must exceed the full profile's largest array, a
    # float32 attention map (heads, max_len, max_len)
    assert model_module.MALLOPT == (1, 1)
    full = FULL_PROFILE["encoder"]
    attention_bytes = full["heads"] * full["max_len"] ** 2 * 4
    assert attention_bytes < model_module.MMAP_THRESHOLD <= model_module.TRIM_THRESHOLD


class TestBackward:
    def test_gradient_check_small_model(self):
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=23, max_len=12)
        params = as_dtype(init_params(cfg, seed=11), np.float64)
        rng = np.random.default_rng(5)
        pos_ids = np.concatenate(([CLS_ID], rng.integers(5, cfg.vocab_size, 6), [SEP_ID]))
        pos_segs = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        neg_ids = np.concatenate(([CLS_ID], rng.integers(5, cfg.vocab_size, 5), [SEP_ID]))
        neg_segs = np.array([0, 0, 0, 1, 1, 1, 1])
        mask_positions = [2, 5]
        mask_labels = [7, 9]

        analytic, _ = joint_loss_gradients(
            params, cfg, pos_ids, pos_segs, neg_ids, neg_segs, mask_positions, mask_labels
        )
        numeric = finite_difference_grads(
            lambda: joint_loss(params, cfg, pos_ids, pos_segs, neg_ids, neg_segs, mask_positions, mask_labels),
            params,
        )
        assert max_relative_error(analytic, numeric) <= 1e-3

    def test_unused_embedding_rows_zero_grad(self, params):
        ids = seq(CLS_ID, 7, 8, SEP_ID)
        g = EncoderGraph(params, CFG, ids)
        g.cls_score()
        grads = zero_grads(params)
        g.backward(grads, d_score=1.0)
        used = set(ids.tolist())
        for row in range(CFG.vocab_size):
            if row not in used:
                assert np.all(grads["tok_emb"][row] == 0.0)

    def test_zero_upstream_zero_grads(self, params):
        g = EncoderGraph(params, CFG, seq(CLS_ID, 7, 8))
        g.cls_score()
        grads = zero_grads(params)
        g.backward(grads, d_score=0.0)
        assert all(np.all(v == 0.0) for v in grads.values())

    def test_backward_single_use(self, params):
        g = EncoderGraph(params, CFG, seq(CLS_ID, 7))
        g.cls_score()
        grads = zero_grads(params)
        g.backward(grads, d_score=1.0)
        with pytest.raises(RuntimeError):
            g.backward(grads, d_score=1.0)

    @pytest.mark.parametrize(
        "members, d_score",
        [
            (None, [0.1]),
            (None, (0.1,)),
            (None, np.array([0.1])),
            (None, "0.1"),
            (None, None),
            (None, True),
            (3, 0.1),
            (3, [0.1, 0.2]),
            (3, [0.1, "0.2", 0.3]),
            (3, [0.1, None, 0.3]),
            (3, [[0.1], [0.2], [0.3]]),
            (3, np.zeros((3, 1))),
            ((0, 2), 0.1),
            ((0, 2), [0.1, 0.2, 0.3]),
            (2, [0.1]),
        ],
    )
    def test_d_score_is_one_real_number_per_member(self, params, members, d_score):
        # a single sequence (None), a stack of 3, and views of that stack: a
        # pair of members, (0, 2), and one member, 2
        ids, segs = TestStackedGraph.case(CFG, np.random.default_rng(10), 3, 6)
        if members is None:
            g, good = EncoderGraph(params, CFG, ids[0], segs[0]), 0.5
        else:
            g = EncoderGraph(params, CFG, ids, segs, outputs=[[0], [0], [0, 3]])
            g = g if members == 3 else g.view(*members) if isinstance(members, tuple) else g.view(members)
            good = 0.5 if members == 2 else [0.5] * (3 if members == 3 else 2)
        g.cls_score()
        grads = zero_grads(params)
        with pytest.raises(ValueError, match="d_score") as caught:
            g.backward(grads, d_score=d_score)
        assert repr(d_score) in str(caught.value)
        # raised before grads or the graph changed
        assert not any(np.any(v) for v in grads.values())
        g.backward(grads, d_score=good)
        assert np.any(grads["cls_w2"])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_segment_rows_are_add_at_bitwise(self, dtype):
        rng = np.random.default_rng(6)
        for hidden in (2, 8, 64):
            for n in (1, 2, 9, 41, 48):
                d_rows = rng.normal(size=(n, hidden)).astype(dtype)
                segs = rng.integers(0, 2, n)
                acc = rng.normal(size=(2, hidden)).astype(dtype)
                expected = acc.copy()
                np.add.at(expected, segs, d_rows)
                model_module._add_segment_rows(acc, segs, d_rows)
                assert acc.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_one_row_weight_gradient_is_the_gemm_bitwise(self, dtype):
        # over one row each entry is one product; the GEMM may write +0
        # where the product is -0, and either adds into a gradient to the
        # same bits, whether it starts at +0 or holds values
        rng = np.random.default_rng(8)
        for d_in, d_out in ((64, 64), (64, 256), (256, 64)):
            w, b = rng.normal(size=(d_in, d_out)).astype(dtype), np.zeros(d_out, dtype)
            for lead in ((), (1,), (2,), (8,)):
                for rows in (1, 2):
                    x = rng.normal(size=lead + (rows, d_in)).astype(dtype)
                    dout = rng.normal(size=lead + (rows, d_out)).astype(dtype)
                    x[..., ::5] = 0.0
                    dout[..., ::7] = 0.0
                    _, cache = layers_module.linear(x, w, b)
                    _, dw, _ = layers_module.linear_backward(dout, cache)
                    gemm = np.matmul(x.swapaxes(-1, -2), dout)
                    assert dw.dtype == gemm.dtype and np.array_equal(dw, gemm)
                    assert dw[gemm != 0].tobytes() == gemm[gemm != 0].tobytes()
                    for acc in (np.zeros_like(gemm), rng.normal(size=gemm.shape).astype(dtype)):
                        _assert_bitwise(acc + dw, acc + gemm)
                    if rows > 1:
                        _assert_bitwise(dw, gemm)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_row_scatter_is_add_at_bitwise(self, dtype):
        # ids repeat within a member and across a stack's members, [CLS]
        # once and [SEP] once or twice per member, into a non-zero acc
        rng = np.random.default_rng(9)
        for hidden in (8, 64):
            for b, n in ((1, 5), (8, 48), (8, 12)):
                ids = rng.integers(5, 12, (b, n))
                ids[:, 0] = CLS_ID
                ids[:, n // 2] = SEP_ID
                ids[::2, -1] = SEP_ID
                d_rows = rng.normal(size=(b, n, hidden)).astype(dtype)
                for ids_, d_rows_ in ((ids, d_rows), (ids[0], d_rows[0])):
                    acc = rng.normal(size=(12, hidden)).astype(dtype)
                    expected = acc.copy()
                    np.add.at(expected, ids_, d_rows_)
                    model_module._add_rows(acc, ids_, d_rows_)
                    _assert_bitwise(acc, expected)

    @pytest.mark.parametrize("layout", ["column-slice", "fortran"])
    def test_row_scatter_refuses_an_accumulator_without_a_flat_view(self, layout):
        # a flat copy would take the adds and drop them
        base = np.zeros((6, 8), np.float32)
        acc = base[:, :4] if layout == "column-slice" else np.asfortranarray(base)
        d_rows = np.ones((3, acc.shape[1]), np.float32)
        with pytest.raises(ValueError):
            model_module._add_rows(acc, np.array([1, 1, 2]), d_rows)
        assert not acc.any()

    def test_mlm_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((3, 57))
        assert abs(mlm_nll(logits, [4, 5, 6]) - np.log(57)) < 1e-9


class TestStackedGraph:
    """A stack of equal-length sequences is one graph whose scores and
    gradients are, to the bit, those of its members run one by one."""

    @staticmethod
    def case(cfg, rng, b, n):
        ids = rng.integers(0, cfg.vocab_size, (b, n))
        ids[:, 0] = CLS_ID
        return ids, rng.integers(0, 2, (b, n))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bitwise_equal_to_members_one_by_one(self, dtype, layers):
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=48)
        rng = np.random.default_rng(40 + layers)
        p = as_dtype({k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}, dtype)
        # gradients that start away from zero, so the order in which the
        # members' contributions are added shows in the bits
        start = as_dtype({k: rng.normal(0.0, 1.0, v.shape) for k, v in p.items()}, dtype)
        for outputs in ([0], None):
            for b in (1, 2, 8):
                for n in (2, 48):
                    ids, segs = self.case(cfg, rng, b, n)
                    # Python floats, as a training step computes them; the
                    # second member's is 0, so its head adds nothing
                    d_scores = rng.normal(0.0, 1.0, b).tolist()
                    if b > 1:
                        d_scores[1] = 0.0
                    want = {k: v.copy() for k, v in start.items()}
                    want_scores = []
                    for i in range(b):
                        g = EncoderGraph(p, cfg, ids[i], segs[i], outputs=outputs)
                        want_scores.append(g.cls_score())
                        g.backward(want, d_score=d_scores[i])
                    got = {k: v.copy() for k, v in start.items()}
                    g = EncoderGraph(p, cfg, ids, segs, outputs=outputs)
                    assert g.cls_score() == want_scores, (outputs, b, n)
                    g.backward(got, d_score=d_scores)
                    for k in want:
                        _assert_bitwise(got[k], want[k])

    def test_states_and_attention_are_the_members(self, params):
        rng = np.random.default_rng(3)
        ids, segs = self.case(CFG, rng, 3, 9)
        g = EncoderGraph(params, CFG, ids, segs)
        assert g.hidden.shape == (3, 9, CFG.hidden)
        assert g.attention.shape == (CFG.layers, 3, CFG.heads, 9, 9)
        for i in range(3):
            one = EncoderGraph(params, CFG, ids[i], segs[i])
            _assert_bitwise(g.hidden[i], one.hidden)
            _assert_bitwise(g.attention[:, i], one.attention)

    def test_stack_rejects_mlm_logits(self, params):
        ids, segs = self.case(CFG, np.random.default_rng(4), 2, 5)
        g = EncoderGraph(params, CFG, ids, segs, outputs=[0, 2])
        with pytest.raises(ValueError, match="single-sequence"):
            g.mlm_logits([2])

    def test_d_score_needs_one_value_per_member(self, params):
        ids, segs = self.case(CFG, np.random.default_rng(5), 3, 5)
        g = EncoderGraph(params, CFG, ids, segs, outputs=[0])
        g.cls_score()
        with pytest.raises(ValueError, match="one value per member"):
            g.backward(zero_grads(params), d_score=[0.1, 0.2])

    @pytest.mark.parametrize("d_score", [None, 0.5, np.float32(0.5)], ids=["default", "float", "numpy-scalar"])
    def test_scalar_d_score_on_a_stack_rejected(self, params, d_score):
        ids, segs = self.case(CFG, np.random.default_rng(5), 3, 5)
        g = EncoderGraph(params, CFG, ids, segs, outputs=[0])
        g.cls_score()
        kwargs = {} if d_score is None else {"d_score": d_score}
        with pytest.raises(ValueError, match="one value per member"):
            g.backward(zero_grads(params), **kwargs)
        # the rejected call left the graph able to back-propagate
        g.backward(zero_grads(params), d_score=[0.1, 0.2, 0.3])


class TestPerMemberOutputs:
    """A stack whose members read different rows runs its last layer once
    per run of consecutive members with the same rows; the stack, and every
    view of some of its members, gives the bits of those members' graphs
    built and back-propagated one by one."""

    # every member's outputs hold [CLS]; the rest are masked positions
    CASES = (
        [[0], [0], [0, 3, 5]],
        [[0, 3, 5], [0]],
        [[0], [0, 2], [0, 2]],
        [[0], [0, 4, 8], [0]],
    )

    @staticmethod
    def alone(outs):
        """Which members form a run of their own."""
        return [all(outs[j] != outs[b] for j in (b - 1, b + 1) if 0 <= j < len(outs)) for b in range(len(outs))]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layers", [1, 2])
    def test_every_view_is_its_members_one_by_one(self, dtype, layers):
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=48)
        rng = np.random.default_rng(60 + layers)
        p = as_dtype({k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}, dtype)
        # gradients that start away from zero, so the order in which the
        # members' contributions are added shows in the bits
        start = as_dtype({k: rng.normal(0.0, 1.0, v.shape) for k, v in p.items()}, dtype)
        for outs in self.CASES:
            ids, segs = TestStackedGraph.case(cfg, rng, len(outs), 9)
            d_scores = rng.normal(0.0, 1.0, len(outs)).tolist()
            d_logits = [rng.normal(0.0, 1.0, (len(o) - 1, cfg.vocab_size)).astype(dtype) for o in outs]
            for a, c in [(a, c) for a in range(len(outs)) for c in range(a + 1, len(outs) + 1)]:
                graph = EncoderGraph(p, cfg, ids, segs, outputs=outs)
                view = graph.view(a) if c == a + 1 else graph.view(a, c)
                alone = self.alone(outs[a:c])
                # the MLM head attaches to a member alone in its run, through
                # a view of that member
                masked = [view.view(i).mlm_logits(outs[a + i][1:]) if alone[i] else None for i in range(c - a)]
                scores = view.cls_score()
                got = {k: v.copy() for k, v in start.items()}
                d_mlm = [d_logits[a + i] if alone[i] else None for i in range(c - a)]
                if c == a + 1:
                    view.backward(got, d_score=d_scores[a], d_mlm_logits=d_mlm[0])
                    hidden, scores = [view.hidden], [scores]
                else:
                    view.backward(got, d_score=d_scores[a:c], d_mlm_logits=d_mlm)
                    hidden = view.hidden
                want = {k: v.copy() for k, v in start.items()}
                for i, b in enumerate(range(a, c)):
                    one = EncoderGraph(p, cfg, ids[b], segs[b], outputs=outs[b])
                    _assert_bitwise(hidden[i], one.hidden)
                    _assert_bitwise(graph.hidden[b], one.hidden)
                    assert scores[i] == one.cls_score(), (outs, a, c, b)
                    if alone[i]:
                        _assert_bitwise(masked[i], one.mlm_logits(outs[b][1:]))
                    one.backward(want, d_score=d_scores[b], d_mlm_logits=d_mlm[i])
                for k in want:
                    _assert_bitwise(got[k], want[k])

    @pytest.mark.parametrize("outer, inner", [((1, 4), (1, None)), ((0, 4), (1, 3)), ((1, 3), (1, None))])
    def test_a_view_of_a_view_is_its_members(self, params, outer, inner):
        ids, segs = TestStackedGraph.case(CFG, np.random.default_rng(11), 4, 8)
        outs = [[0], [0], [0], [0, 2]]
        view = EncoderGraph(params, CFG, ids, segs, outputs=outs).view(*outer).view(*inner)
        first = outer[0] + inner[0]
        members = range(first, first + 1 if inner[1] is None else outer[0] + inner[1])
        single = inner[1] is None
        scores = view.cls_score()
        d_scores = [0.5 + b for b in members]
        got, want = zero_grads(params), zero_grads(params)
        view.backward(got, d_score=d_scores[0] if single else d_scores)
        for i, b in enumerate(members):
            one = EncoderGraph(params, CFG, ids[b], segs[b], outputs=outs[b])
            _assert_bitwise(view.hidden if single else view.hidden[i], one.hidden)
            assert (scores if single else scores[i]) == one.cls_score()
            one.backward(want, d_score=d_scores[i])
        for k in want:
            _assert_bitwise(got[k], want[k])

    def test_members_with_the_same_outputs_share_one_last_layer(self, params, monkeypatch):
        layer_inputs = []

        def layer(p, cfg, i, x, rows):
            layer_inputs.append((i, x.shape[:-1]))
            return real_layer(p, cfg, i, x, rows)

        real_layer = model_module._layer
        monkeypatch.setattr(model_module, "_layer", layer)
        ids, segs = TestStackedGraph.case(CFG, np.random.default_rng(6), 3, 7)
        g = EncoderGraph(params, CFG, ids, segs, outputs=[[0, 2], [0, 2], [0, 2]])
        assert g.outputs.tolist() == [0, 2] and g.hidden.shape == (3, 2, CFG.hidden)
        assert layer_inputs == [(0, (3, 7)), (1, (3, 7))]
        layer_inputs.clear()
        mixed = EncoderGraph(params, CFG, ids, segs, outputs=[[0], [0], [0, 2]])
        assert [o.tolist() for o in mixed.outputs] == [[0], [0], [0, 2]]
        assert [h.shape for h in mixed.hidden] == [(1, CFG.hidden)] * 2 + [(2, CFG.hidden)]
        # a run of one member is a single sequence, and views run no layer
        mixed.view(0, 2).cls_score()
        mixed.view(2).mlm_logits([2])
        assert layer_inputs == [(0, (3, 7)), (1, (2, 7)), (1, (7,))]

    @pytest.mark.parametrize("outputs", [[[0], [0], [0]], [[0]], ([0], [0, 1], [0, 2])])
    def test_wrong_number_of_lists_names_the_count(self, params, outputs):
        ids, segs = TestStackedGraph.case(CFG, np.random.default_rng(7), 2, 5)
        with pytest.raises(ValueError, match=f"{len(outputs)} position lists for a stack of 2 members"):
            EncoderGraph(params, CFG, ids, segs, outputs=outputs)

    @pytest.mark.parametrize("start, stop", [(-1, None), (3, None), (1, 1), (0, 4)])
    def test_view_out_of_range_rejected(self, params, start, stop):
        ids, segs = TestStackedGraph.case(CFG, np.random.default_rng(8), 3, 5)
        with pytest.raises(ValueError, match="not among the graph's 3"):
            EncoderGraph(params, CFG, ids, segs, outputs=[0]).view(start, stop)

    def test_a_member_back_propagates_once(self, params):
        ids, segs = TestStackedGraph.case(CFG, np.random.default_rng(9), 3, 6)
        g = EncoderGraph(params, CFG, ids, segs, outputs=[[0], [0], [0, 3]])
        g.cls_score()
        grads = zero_grads(params)
        # heads attach to the graph or view they are called on, and to the
        # views of its whole runs: member 0 is part of a run of two
        first = g.view(0)
        first.cls_score()
        first.backward(grads, d_score=1.0)
        for again in (lambda: g.view(0).backward(grads, d_score=1.0), lambda: g.view(0, 2).backward(grads, d_score=[1.0, 1.0]), lambda: g.backward(grads, d_score=[1.0, 1.0, 1.0])):
            with pytest.raises(RuntimeError, match="already called"):
                again()
        # the members not yet back-propagated still can be, once
        rest = g.view(1, 3)
        rest.cls_score()
        rest.backward(grads, d_score=[1.0, 1.0])
        with pytest.raises(RuntimeError, match="already called"):
            g.view(2).backward(grads, d_score=1.0)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, params):
        p = {k: v.copy() for k, v in params.items()}
        state = AdamState.zeros(p)
        adam_step(p, zero_grads(p), state, lr=0.1)
        for k in params:
            assert np.array_equal(p[k], params[k])

    def test_first_step_closed_form(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState.zeros(p)
        g = zero_grads(state.params)
        g["w"][...] = [0.5, -0.25, 0.0]
        lr, eps = 1e-3, 1e-8
        adam_step(p, g, state, lr=lr, eps=eps)
        expected = np.array([1.0, -2.0, 3.0]) - lr * g["w"] / (np.abs(g["w"]) + eps)
        assert np.allclose(p["w"], expected, atol=1e-12)

    def test_two_runs_bitwise_identical(self):
        def run():
            cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, vocab_size=12, max_len=8)
            p = init_params(cfg, seed=3)
            state = AdamState.zeros(p)
            rng = np.random.default_rng(9)
            for _ in range(5):
                g = EncoderGraph(p, cfg, np.concatenate(([CLS_ID], rng.integers(5, 12, 4))))
                g.cls_score()
                grads = zero_grads(p)
                g.backward(grads, d_score=1.0)
                adam_step(p, grads, state, lr=1e-3)
            return p

        p1, p2 = run(), run()
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_zeros_lays_params_out_in_one_buffer(self, params):
        p = dict(params)
        state = AdamState.zeros(p)
        # each value now views the one buffer, in sorted-key order, and the
        # gaps between are zeros; the arrays the dict held are neither kept
        # nor written
        assert_one_buffer(p)
        flat = state.params.flat
        gaps = np.ones(flat.size, dtype=bool)
        for k in p:
            assert p[k] is state.params[k] and np.shares_memory(p[k], flat)
            start = (p[k].ctypes.data - flat.ctypes.data) // flat.itemsize
            gaps[start : start + p[k].size] = False
        assert gaps.any() and not flat[gaps].any()
        for k in params:
            assert p[k] is not params[k]
            assert p[k].tobytes() == params[k].tobytes()

    @staticmethod
    def noisy_grads(p, rng):
        """A gradient tree in p's layout with exact zeros and -0.0 entries,
        and none for mlm_w, as in fine-tuning."""
        grads = zero_grads(p)
        for k, g in grads.items():
            if k != "mlm_w":
                g[...] = rng.normal(0.0, 1e-2, g.shape)
                g[rng.random(g.shape) < 0.2] = 0.0
                g[rng.random(g.shape) < 0.2] = -0.0
        return grads

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_flat_step_is_the_per_key_step_bit_for_bit(self, params, dtype):
        # six steps with the learning rate ramped over the first three; odd
        # steps pass the same gradients copied into zero_grads of the
        # state's own tree, even steps zero_grads of the caller's dict
        p, want = as_dtype(params, dtype), as_dtype(params, dtype)
        state, ref = AdamState.zeros(p), ReferenceAdamState.zeros(want)
        rng = np.random.default_rng(11)
        for step in range(1, 7):
            grads = self.noisy_grads(p, rng)
            assert np.any((grads.flat == 0.0) & np.signbit(grads.flat))
            lr = 1e-3 * min(1.0, step / 3)
            given = grads if step % 2 == 0 else zero_grads(state.params)
            given.flat[...] = grads.flat
            adam_step(p, given, state, lr=lr)
            reference_adam_step(want, grads, ref, lr=lr)
        assert state.step == ref.step == 6
        for name, got, exp in (("params", p, want), ("m", state.m, ref.m), ("v", state.v, ref.v)):
            for k in exp:
                assert got[k].dtype == dtype
                assert got[k].tobytes() == exp[k].tobytes(), (name, k)
        assert not state.m["mlm_w"].any() and p["mlm_w"].tobytes() == as_dtype(params, dtype)["mlm_w"].tobytes()
        # the gaps between the tensors are still zeros
        for tree in (state.params, state.m, state.v):
            assert np.count_nonzero(tree.flat) == sum(np.count_nonzero(a) for a in tree.values())

    @staticmethod
    def stepped_once(params):
        """Laid-out params and their state after one step, so that the
        moments are not zero."""
        p = {k: v.copy() for k, v in params.items()}
        state = AdamState.zeros(p)
        adam_step(p, TestAdam.noisy_grads(p, np.random.default_rng(5)), state, lr=1e-3)
        return p, state

    @staticmethod
    def assert_nothing_written(p, state, before):
        held, params_bytes, m_bytes, v_bytes, step = before
        assert all(p[k] is held[k] for k in held) and len(p) == len(held)
        assert (state.params.flat.tobytes(), state.m.flat.tobytes(), state.v.flat.tobytes()) == (params_bytes, m_bytes, v_bytes)
        assert state.step == step

    @staticmethod
    def snapshot(p, state):
        return dict(p), state.params.flat.tobytes(), state.m.flat.tobytes(), state.v.flat.tobytes(), state.step

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda g: g.pop("mlm_w"), r"^grads\['mlm_w'\]: nothing, where the layout has float32 \(32, 40\)$"),
            (lambda g: g.update(extra=np.zeros(2, np.float32)), r"^grads\['extra'\]: float32 \(2,\), where the layout has nothing$"),
            (lambda g: g.update(mlm_b=g["mlm_b"][:-1]), r"^grads\['mlm_b'\]: float32 \(39,\), where the layout has float32 \(40,\)$"),
            (lambda g: g.update(cls_b2=g["cls_b2"].astype(np.float64)), r"^grads\['cls_b2'\]: float64 \(1,\), where the layout has float32 \(1,\)$"),
        ],
        ids=["missing", "extra", "shape", "dtype"],
    )
    def test_grads_that_do_not_fit_are_refused_before_any_write(self, params, change, message):
        p, state = self.stepped_once(params)
        grads = self.noisy_grads(p, np.random.default_rng(6))
        change(grads)
        before = self.snapshot(p, state)
        with pytest.raises(ValueError, match=message):
            adam_step(p, grads, state, lr=1e-3)
        self.assert_nothing_written(p, state, before)

    def test_params_of_mixed_dtypes_are_refused(self, params):
        mixed = {k: v.copy() for k, v in params.items()}
        mixed["cls_b2"] = mixed["cls_b2"].astype(np.float64)
        held = dict(mixed)
        with pytest.raises(ValueError, match="^'cls_b2' is float64 but 'cls_b1' is float32: a tree of mixed dtypes"):
            AdamState.zeros(mixed)
        assert all(mixed[k] is held[k] for k in held) and len(mixed) == len(held)
        # a laid-out tree, one of whose tensors is swapped for another dtype
        p, state = self.stepped_once(params)
        p["cls_b2"] = p["cls_b2"].astype(np.float64)
        before = self.snapshot(p, state)
        with pytest.raises(ValueError, match=r"^params\['cls_b2'\]: float64 \(1,\), where the layout has float32 \(1,\)$"):
            adam_step(p, zero_grads(state.params), state, lr=1e-3)
        self.assert_nothing_written(p, state, before)

    def test_params_that_are_not_the_laid_out_views_are_refused(self, params):
        # an array of the right shape and dtype that is not the state's view
        # would never see the step
        p, state = self.stepped_once(params)
        p["cls_b2"] = p["cls_b2"].copy()
        before = self.snapshot(p, state)
        with pytest.raises(ValueError, match="does not hold the views"):
            adam_step(p, zero_grads(state.params), state, lr=1e-3)
        self.assert_nothing_written(p, state, before)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda p, g: {k: a.copy() for k, a in g.items()}, "^grads is not a zero_grads tree"),
            (lambda p, g: dict(g), "^grads is not a zero_grads tree"),
            (lambda p, g: g.update(cls_b2=g["cls_b2"].copy()) or g, "^grads is not a zero_grads tree"),
            (lambda p, g: zero_grads(as_dtype(p, np.float64)), r"^grads\['cls_b1'\]: float64 \(32,\), where the layout has float32 \(32,\)$"),
            (lambda p, g: zero_grads({k: a for k, a in p.items() if k != "mlm_b"}), r"^grads\['mlm_b'\]: nothing, where the layout has float32 \(40,\)$"),
        ],
        ids=["plain_dict", "dict_of_the_views", "rebound_view", "other_dtype", "other_keys"],
    )
    def test_grads_not_zero_grads_of_the_layout_are_refused_before_any_write(self, params, make, message):
        # a tree of the right keys, shapes and dtype is still refused unless
        # it is zero_grads' own, whose buffer the step reads
        p, state = self.stepped_once(params)
        grads = make(p, self.noisy_grads(p, np.random.default_rng(6)))
        before = self.snapshot(p, state)
        with pytest.raises(ValueError, match=message):
            adam_step(p, grads, state, lr=1e-3)
        self.assert_nothing_written(p, state, before)

    def test_zero_grads_of_the_state_shares_its_layout(self, params):
        p = dict(params)
        state = AdamState.zeros(p)
        grads = zero_grads(state.params)
        assert grads.layout is state.params.layout is state.m.layout is state.v.layout
        assert not np.shares_memory(grads.flat, state.params.flat) and not grads.flat.any()
        assert_one_buffer(grads)
        # zero_grads of the caller's dict lays it out afresh, alike
        assert zero_grads(p).layout == state.params.layout

    def test_backward_into_the_flat_layout(self, params):
        # tok_emb's gradient is scattered through its flat view (_add_rows),
        # which a view of the flat buffer has without a copy
        grads, want = zero_grads(params), reference_zero_grads(params)
        assert np.shares_memory(grads["tok_emb"].reshape(-1, copy=False), grads.flat)
        for tree in (grads, want):
            g = EncoderGraph(params, CFG, seq(CLS_ID, 7, 8, 7, SEP_ID, 9, SEP_ID), seq(0, 0, 0, 0, 0, 1, 1))
            g.cls_score()
            g.backward(tree, d_score=1.0)
        assert_one_buffer(grads)
        assert grads["tok_emb"].any()
        for k in want:
            assert grads[k].tobytes() == want[k].tobytes(), k


class TestCheckpoint:
    def test_round_trip_bitwise(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG, extra={"stage": "test", "seed": 7})
        ck = load_checkpoint(path)
        assert isinstance(ck, Checkpoint)
        assert ck.config == CFG
        assert ck.extra["stage"] == "test"
        for k in params:
            assert ck.params[k].dtype == np.float32
            assert np.array_equal(ck.params[k], params[k])

    def test_float32_params_round_trip_bitwise(self, params, tmp_path):
        # the float32 bytes are stored as they are, so loading gives the
        # same bits
        p = {k: v.copy() for k, v in params.items()}
        state = AdamState.zeros(p)
        g = EncoderGraph(p, CFG, seq(CLS_ID, 7, 8, 9, SEP_ID))
        g.cls_score()
        grads = zero_grads(p)
        g.backward(grads, d_score=1.0)
        adam_step(p, grads, state, lr=1e-3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, CFG)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        assert json.loads(raw[12 : 12 + header_len])["dtype"] == "<f4"
        ck = load_checkpoint(path)
        for k in p:
            assert p[k].dtype == ck.params[k].dtype == np.float32
            assert ck.params[k].tobytes() == p[k].tobytes(), k

    def test_vocab_size_mismatch_rejected(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        other = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=99, max_len=24)
        with pytest.raises(CheckpointError, match="vocab_size"):
            load_checkpoint(path, expected_config=other)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: {k: v for k, v in h.items() if k != "config"}, "no encoder config"),
            (lambda h: {**h, "config": [2, 2]}, "mapping"),
            (lambda h: {**h, "config": {**h["config"], "depth": 3}}, "unknown keys"),
            (lambda h: {**h, "config": {**h["config"], "dropout": 0.0}}, r"unknown keys \['dropout'\]"),
            (lambda h: {**h, "config": {k: v for k, v in h["config"].items() if k != "max_len"}}, "missing keys"),
            (lambda h: {**h, "config": {**h["config"], "layers": "2"}}, "layers"),
            (lambda h: {**h, "config": {**h["config"], "hidden": 32.0}}, "hidden"),
            (lambda h: {**h, "config": {**h["config"], "layers": 0}}, "layers"),
            (lambda h: [h], "JSON object"),
            (lambda h: b"{not json", "unreadable header"),
            (lambda h: b"\xff\xfe", "unreadable header"),
            (lambda h: {**h, "extra": "vocab"}, "extra"),
            (lambda h: {**h, "dtype": "<f8"}, "payload dtype"),
        ],
        ids=[
            "no-config",
            "config-not-object",
            "unknown-key",
            "pre-removal-dropout-key",
            "missing-key",
            "string-value",
            "float-for-int",
            "invalid-value",
            "header-not-object",
            "header-not-json",
            "header-not-utf8",
            "extra-not-object",
            "float32-payload",
        ],
    )
    def test_malformed_header_rejected(self, params, tmp_path, capsys, edit, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG, extra={"vocab": ["t"] * CFG.vocab_size})
        raw = path.read_bytes()
        start = len(b"ANCRCKPT") + 4
        (header_len,) = struct.unpack("<I", raw[start - 4 : start])
        header = edit(json.loads(raw[start : start + header_len]))
        encoded = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
        path.write_bytes(raw[: start - 4] + struct.pack("<I", len(encoded)) + encoded + raw[start + header_len :])

        with pytest.raises(CheckpointError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        capsys.readouterr()
        assert main(["rerank", "--seed", "1", "--workdir", str(tmp_path), "--init", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0]

    def test_file_size_is_the_layout_at_four_bytes_per_value(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG, extra={"stage": "test"})
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        tensors = sum(2 + len(k.encode("utf-8")) + 1 + 8 * v.ndim + 4 * v.size for k, v in params.items())
        assert len(raw) == 8 + 4 + header_len + 4 + tensors

    def test_float64_tensor_refused_by_name(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        wide = {**params, "mlm_b": params["mlm_b"].astype(np.float64)}
        with pytest.raises(CheckpointError, match="'mlm_b' is float64"):
            save_checkpoint(path, wide, CFG)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tensor_refused_on_save_naming_file_and_tensor(self, params, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        broken = {**params, "layer0.wq": params["layer0.wq"].copy()}
        broken["layer0.wq"][3, 1] = bad
        with pytest.raises(CheckpointError, match="'layer0.wq' holds NaN or infinite values") as info:
            save_checkpoint(path, broken, CFG)
        assert str(path) in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tensor_refused_on_load_naming_file_and_tensor(self, params, tmp_path, capsys, bad):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG, extra={"vocab": ["t"] * CFG.vocab_size})
        raw = bytearray(path.read_bytes())
        name = b"layer0.wq"
        payload = raw.index(struct.pack("<H", len(name)) + name) + 2 + len(name) + 1 + 8 * 2
        raw[payload + 4 : payload + 8] = np.float32(bad).astype("<f4").tobytes()
        path.write_bytes(bytes(raw))

        with pytest.raises(CheckpointError, match="'layer0.wq' holds NaN or infinite values") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        capsys.readouterr()
        assert main(["rerank", "--seed", "1", "--workdir", str(tmp_path), "--init", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0] and "layer0.wq" in errors[0]

    def test_version_one_float64_file_refused_naming_it(self, params, tmp_path, capsys):
        # the layout before float32 payloads: version 1, every value widened
        # to <f8.  It is refused, not converted; rerunning the stage that
        # wrote it rewrites it
        header = {"version": 1, "config": CFG.to_dict(), "dtype": "<f8", "extra": {"vocab": ["t"] * CFG.vocab_size}}
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        raw = b"ANCRCKPT" + struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", len(params))
        for name in sorted(params):
            arr = params[name]
            raw += struct.pack("<H", len(name)) + name.encode("utf-8") + struct.pack("<B", arr.ndim)
            raw += b"".join(struct.pack("<Q", dim) for dim in arr.shape)
            raw += arr.astype("<f8").tobytes()
        path = tmp_path / "old.ckpt"
        path.write_bytes(raw)

        with pytest.raises(CheckpointError, match="unsupported version 1") as info:
            load_checkpoint(path, expected_config=CFG)
        assert str(path) in str(info.value)
        capsys.readouterr()
        assert main(["rerank", "--seed", "1", "--workdir", str(tmp_path), "--init", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0]

    def test_truncated_file_names_path(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError, match="truncated") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_encode_identical_after_round_trip(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        ck = load_checkpoint(path)
        ids = seq(CLS_ID, 7, 8, 9, SEP_ID)
        h0, _ = encode(params, CFG, ids)
        h1, _ = encode(ck.params, CFG, ids)
        assert np.array_equal(h0, h1)


def _float_arrays(tree, path=""):
    """(path, array) for every floating-point array in a nest of dicts,
    tuples and lists."""
    if isinstance(tree, np.ndarray):
        if tree.dtype.kind == "f":
            yield path, tree
    elif isinstance(tree, dict):
        for k, v in tree.items():
            yield from _float_arrays(v, f"{path}.{k}")
    elif isinstance(tree, (tuple, list)):
        for i, v in enumerate(tree):
            yield from _float_arrays(v, f"{path}[{i}]")


def _not_float32(named):
    return [(name, a.dtype) for name, a in named if a.dtype != np.float32]


def _record_primitives(monkeypatch) -> list:
    """Wrap every forward and backward layer primitive; the returned list
    gathers (name, array) for each floating-point array they return."""
    seen = []

    def recording(name, f):
        def wrapped(*args):
            out = f(*args)
            seen.extend(_float_arrays(out, name))
            return out

        return wrapped

    for name in ("linear", "layer_norm", "gelu", "softmax"):
        for fn in (name, name + "_backward"):
            monkeypatch.setattr(layers_module, fn, recording(fn, getattr(layers_module, fn)))
    return seen


class TestFloat32:
    """float32 params keep every tensor float32: no constant, head or
    upstream gradient promotes the encoder to float64."""

    def test_init_params_is_float32(self, params):
        assert _not_float32(params.items()) == []

    @pytest.mark.parametrize("outputs", [None, "cls", "cls+masked"])
    def test_graph_states_caches_and_grads(self, params, outputs, monkeypatch):
        # the recorded primitives cover the backward's intermediates, which
        # the float32 gradient tree would silently cast back down
        seen = _record_primitives(monkeypatch)
        rng = np.random.default_rng(2)
        ids, segs, positions, labels = _random_case(CFG, rng, 12)
        rows = {None: None, "cls": [0], "cls+masked": np.concatenate(([0], positions))}[outputs]
        g = EncoderGraph(params, CFG, ids, segs, outputs=rows)
        g.cls_score()
        logits = None if outputs == "cls" else g.mlm_logits(positions)
        d_logits = None if logits is None else mlm_loss_and_grad(logits, list(zip(positions, labels)))[1]
        grads = zero_grads(params)
        g.backward(grads, d_score=1.0, d_mlm_logits=d_logits)
        named = [("hidden", g.hidden), *_float_arrays(g._emb_ln_cache, "emb"), *_float_arrays(g._layer_caches, "layers")]
        named += _float_arrays([run.cache for run in g._runs], "last")
        named += _float_arrays(grads, "grads")
        if logits is not None:
            named += [("logits", logits), ("d_logits", d_logits)]
        assert {"linear_backward[0]", "layer_norm_backward[0]", "gelu_backward", "softmax_backward"} <= {n for n, _ in seen}
        assert _not_float32([*named, *seen]) == []
        assert any(np.any(v != 0.0) for v in grads.values())

    def test_mlm_step_grads_and_adam_moments(self, params):
        p = {k: v.copy() for k, v in params.items()}
        packed = seq(CLS_ID, 7, 8, 9, 10, 11, SEP_ID, 12, 13, SEP_ID), seq(0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
        grads = zero_grads(p)
        loss = mlm_forward_backward(packed, p, CFG, np.random.default_rng(0), grads, 0.5)
        assert loss is not None and np.any(grads["mlm_w"] != 0.0)
        state = AdamState.zeros(p)
        adam_step(p, grads, state, lr=1e-3)
        named = [*_float_arrays(grads, "grads"), *_float_arrays(state.m, "m"), *_float_arrays(state.v, "v")]
        assert _not_float32([*named, *_float_arrays(p, "params")]) == []

    def test_cls_score_internals_and_attention_map(self, params, monkeypatch):
        # every primitive's output and cache, and the [CLS] head's input and
        # activations, as cls_scores computes them, and every layer's
        # attention map, which the sampler reads
        seen = _record_primitives(monkeypatch)
        real_cls_head = model_module._cls_head

        def cls_head(p, h_cls):
            score, c_act = real_cls_head(p, h_cls)
            seen.extend([("h_cls", h_cls), ("c_act", c_act)])
            return score, c_act

        monkeypatch.setattr(model_module, "_cls_head", cls_head)
        ids, segs = seq(CLS_ID, 7, 8, 9, SEP_ID, 10, 11, SEP_ID), seq(0, 0, 0, 0, 0, 1, 1, 1)
        score = cls_scores(params, CFG, [(ids, segs)])[0]
        assert isinstance(score, float)
        assert {name for name, _ in seen} >= {"linear[0]", "layer_norm[0]", "gelu[0]", "softmax", "h_cls", "c_act"}
        amap = EncoderGraph(params, CFG, ids).attention
        assert _not_float32([*seen, ("attention", amap)]) == []

    @pytest.mark.parametrize("head", TestPrunedOutputs.HEADS)
    def test_gradients_agree_with_float64(self, head):
        # the same float32-representable params in both dtypes: the float32
        # graph's gradients are the float64 graph's to float32 rounding,
        # relative to the largest gradient entry
        cfg = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(8)
        p32 = as_dtype({k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=8).items()}, np.float32)
        p64 = as_dtype(p32, np.float64)
        for n in (2, 9, 24):
            ids, segs, positions, labels = _random_case(cfg, rng, n)
            outputs = _head_outputs(head, positions)
            loss32, _, g32 = _head_grads(p32, cfg, ids, segs, head, positions, labels, outputs)
            loss64, _, g64 = _head_grads(p64, cfg, ids, segs, head, positions, labels, outputs)
            assert loss32 == pytest.approx(loss64, rel=1e-3)
            scale = max(np.abs(g).max() for g in g64.values())
            for k in g64:
                assert g32[k].dtype == np.float32
                assert np.abs(g32[k] - g64[k]).max() <= 1e-3 * scale, k
