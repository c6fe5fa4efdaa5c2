import json
import struct
from pathlib import Path

import numpy as np
import pytest

from anchorrank.cli import main
from anchorrank.corpus import CLS_ID, SEP_ID
from anchorrank.encoder import (
    AdamState,
    Checkpoint,
    CheckpointError,
    EncoderConfig,
    EncoderGraph,
    adam_step,
    attention_map,
    cls_score,
    init_params,
    load_checkpoint,
    save_checkpoint,
    zero_grads,
)
from anchorrank.encoder import layers as layers_module
from anchorrank.encoder import model as model_module
from anchorrank.encoder.layers import layer_norm, softmax
from anchorrank.pretrain import PackedSequence, mlm_forward_backward, mlm_loss_and_grad
from util import (
    as_dtype,
    encode,
    finite_difference_grads,
    joint_loss,
    joint_loss_gradients,
    log_softmax,
    max_relative_error,
    mlm_logits,
    mlm_nll,
)

DATA = Path(__file__).parent / "data"
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
        assert cls_score(p, CFG, seq(CLS_ID, 7, 8, SEP_ID)) == 0.0

    def test_deterministic(self, params):
        ids = seq(CLS_ID, 5, 6, 7, SEP_ID)
        assert cls_score(params, CFG, ids) == cls_score(params, CFG, ids)

    def test_sensitive_to_document_segment(self, params):
        quer = [CLS_ID, 9, 10, SEP_ID]
        a = seq(*quer, 11, 12, SEP_ID)
        b = seq(*quer, 13, 14, SEP_ID)
        segs = np.array([0, 0, 0, 0, 1, 1, 1])
        assert cls_score(params, CFG, a, segs) != cls_score(params, CFG, b, segs)

    def test_requires_leading_cls(self, params):
        with pytest.raises(ValueError, match="CLS"):
            cls_score(params, CFG, seq(7, 8))

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
            cls_score(params, CFG, ids, segs)
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
                assert cls_score(p, cfg, ids, segs) == pytest.approx(expected, rel=0.0, abs=ROUNDING[dtype])


class TestAttentionMap:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bitwise_equal_to_encoder_graph(self, layers):
        # the same operations on the same rows as the graph: equal to the bit
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(layers)
        noisy = {k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}
        for dtype in DTYPES:
            p = as_dtype(noisy, dtype)
            for n in range(1, cfg.max_len + 1):
                ids = np.concatenate(([CLS_ID], rng.integers(0, cfg.vocab_size, n - 1)))
                graph = EncoderGraph(p, cfg, ids)
                assert np.array_equal(attention_map(p, cfg, ids), graph.attention[-1])


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
                assert EncoderGraph(p, cfg, ids, segs, outputs=[0]).cls_score() == cls_score(p, cfg, ids, segs)

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

    def test_mlm_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((3, 57))
        assert abs(mlm_nll(logits, [4, 5, 6]) - np.log(57)) < 1e-9


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, params):
        p = {k: v.copy() for k, v in params.items()}
        state = AdamState.zeros(p)
        adam_step(p, zero_grads(p), state, lr=0.1)
        for k in params:
            assert np.array_equal(p[k], params[k])

    def test_first_step_closed_form(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        g = {"w": np.array([0.5, -0.25, 0.0])}
        state = AdamState.zeros(p)
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

    def test_float32_params_and_moments_round_trip_bitwise(self, params, tmp_path):
        # float32 values are stored widened to float64, which is exact, so
        # the cast back on load gives the same bits
        p = {k: v.copy() for k, v in params.items()}
        state = AdamState.zeros(p)
        g = EncoderGraph(p, CFG, seq(CLS_ID, 7, 8, 9, SEP_ID))
        g.cls_score()
        grads = zero_grads(p)
        g.backward(grads, d_score=1.0)
        adam_step(p, grads, state, lr=1e-3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, CFG, adam=state)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        assert json.loads(raw[12 : 12 + header_len])["dtype"] == "<f8"
        ck = load_checkpoint(path)
        assert ck.adam.step == 1
        for saved, loaded in ((p, ck.params), (state.m, ck.adam.m), (state.v, ck.adam.v)):
            for k in saved:
                assert saved[k].dtype == loaded[k].dtype == np.float32
                assert loaded[k].tobytes() == saved[k].tobytes(), k

    def test_float64_checkpoint_loads_as_float32(self):
        # written by the float64 encoder that preceded float32 params:
        # init_params(TINY, seed=3) in float64, saved with no Adam moments.
        # Loading rounds each value to float32, which is what init_params
        # now does to the same draws
        tiny = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, vocab_size=12, max_len=8)
        ck = load_checkpoint(DATA / "float64_init_seed3.ckpt", expected_config=tiny)
        expected = init_params(tiny, seed=3)
        assert ck.extra == {"stage": "test"} and ck.adam is None
        assert sorted(ck.params) == sorted(expected)
        for k in expected:
            assert ck.params[k].dtype == np.float32
            assert np.array_equal(ck.params[k], expected[k]), k

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
            (lambda h: {**h, "adam_step": "1"}, "optimizer step"),
            (lambda h: {**h, "dtype": "<f4"}, "payload dtype"),
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
            "bad-adam-step",
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

    def test_value_beyond_float32_range_rejected(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        wide = as_dtype(params, np.float64)
        wide["mlm_b"][3] = 1e39
        save_checkpoint(path, wide, CFG)
        with pytest.raises(CheckpointError, match="'mlm_b' holds a value beyond the float32 range") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_truncated_file_names_path(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError, match="truncated") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_encode_identical_after_round_trip(self, params, tmp_path):
        path = tmp_path / "model.ckpt"
        state = AdamState.zeros(params)
        save_checkpoint(path, params, CFG, adam=state)
        ck = load_checkpoint(path)
        assert ck.adam is not None and ck.adam.step == 0
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
        named += _float_arrays(grads, "grads")
        if logits is not None:
            named += [("logits", logits), ("d_logits", d_logits)]
        assert {"linear_backward[0]", "layer_norm_backward[0]", "gelu_backward", "softmax_backward"} <= {n for n, _ in seen}
        assert _not_float32([*named, *seen]) == []
        assert any(np.any(v != 0.0) for v in grads.values())

    def test_mlm_step_grads_and_adam_moments(self, params):
        p = {k: v.copy() for k, v in params.items()}
        ids, segs = seq(CLS_ID, 7, 8, 9, 10, 11, SEP_ID, 12, 13, SEP_ID), seq(0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
        packed = PackedSequence(token_ids=ids, segment_ids=segs)
        grads = zero_grads(p)
        loss = mlm_forward_backward(packed, p, CFG, np.random.default_rng(0), grads, 0.5)
        assert loss is not None and np.any(grads["mlm_w"] != 0.0)
        state = AdamState.zeros(p)
        adam_step(p, grads, state, lr=1e-3)
        named = [*_float_arrays(grads, "grads"), *_float_arrays(state.m, "m"), *_float_arrays(state.v, "v")]
        assert _not_float32([*named, *_float_arrays(p, "params")]) == []

    def test_cls_score_internals_and_attention_map(self, params, monkeypatch):
        # every primitive's output and cache, and the [CLS] head's input and
        # activations, as the forward-only paths compute them
        seen = _record_primitives(monkeypatch)
        real_cls_head = model_module._cls_head

        def cls_head(p, h_cls):
            score, c_act = real_cls_head(p, h_cls)
            seen.extend([("h_cls", h_cls), ("c_act", c_act)])
            return score, c_act

        monkeypatch.setattr(model_module, "_cls_head", cls_head)
        ids, segs = seq(CLS_ID, 7, 8, 9, SEP_ID, 10, 11, SEP_ID), seq(0, 0, 0, 0, 0, 1, 1, 1)
        score = cls_score(params, CFG, ids, segs)
        assert isinstance(score, float)
        assert {name for name, _ in seen} >= {"linear[0]", "layer_norm[0]", "gelu[0]", "softmax", "h_cls", "c_act"}
        amap = attention_map(params, CFG, ids)
        assert _not_float32([*seen, ("attention_map", amap)]) == []

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
