import json
import struct

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
    attention_from_position,
    attention_map,
    cls_score,
    init_params,
    load_checkpoint,
    save_checkpoint,
    zero_grads,
)
from anchorrank.encoder.layers import layer_norm, softmax
from util import (
    encode,
    finite_difference_grads,
    joint_loss,
    joint_loss_gradients,
    max_relative_error,
    mlm_logits,
    mlm_nll,
)

CFG = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)


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


class TestAttentionFromPosition:
    def test_single_head_single_position_identity(self):
        maps = np.zeros((1, 1, 3, 3))
        maps[0, 0] = [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]]
        out = attention_from_position(maps, 0, {1})
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_two_heads_average(self):
        maps = np.zeros((1, 2, 2, 2))
        maps[0, 0, 0] = [1.0, 0.0]
        maps[0, 1, 0] = [0.0, 1.0]
        maps[0, :, 1] = [0.5, 0.5]
        out = attention_from_position(maps, 0, {0})
        assert np.allclose(out, [0.5, 0.5])

    def test_multi_position_matches_manual_average(self, params):
        ids = seq(CLS_ID, 6, 7, 8, 9, SEP_ID)
        _, attn = encode(params, CFG, ids)
        out = attention_from_position(attn, -1, {2, 3})
        manual = (attn[-1][:, 2, :].mean(axis=0) + attn[-1][:, 3, :].mean(axis=0)) / 2.0
        assert np.allclose(out, manual, atol=1e-12)
        assert abs(out.sum() - 1.0) < 1e-6

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            attention_from_position(np.ones((1, 1, 2, 2)) * 0.5, 0, set())


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
        # products round differently: equal to float64 rounding, not bitwise
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(layers)
        p = {k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}
        for n in range(1, cfg.max_len + 1):
            ids = np.concatenate(([CLS_ID], rng.integers(0, cfg.vocab_size, n - 1)))
            segs = rng.integers(0, 2, n)
            expected = EncoderGraph(p, cfg, ids, segs).cls_score()
            assert cls_score(p, cfg, ids, segs) == pytest.approx(expected, rel=0.0, abs=1e-12)


class TestAttentionMap:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_bitwise_equal_to_encoder_graph(self, layers):
        # the same operations on the same rows as the graph: equal to the bit
        cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24)
        rng = np.random.default_rng(layers)
        p = {k: v + rng.normal(0.0, 0.5, v.shape) for k, v in init_params(cfg, seed=layers).items()}
        for n in range(1, cfg.max_len + 1):
            ids = np.concatenate(([CLS_ID], rng.integers(0, cfg.vocab_size, n - 1)))
            graph = EncoderGraph(p, cfg, ids)
            assert np.array_equal(attention_map(p, cfg, ids), graph.attention[-1])
            for layer in range(-layers, layers):
                assert np.array_equal(attention_map(p, cfg, ids, layer), graph.attention[layer])

    @pytest.mark.parametrize("layer", [CFG.layers, -CFG.layers - 1])
    def test_layer_out_of_range_rejected(self, params, layer):
        with pytest.raises(ValueError, match="out of range"):
            attention_map(params, CFG, seq(CLS_ID, 7, SEP_ID), layer)


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


class TestDropout:
    def test_disabled_is_identity(self):
        from anchorrank.encoder.layers import dropout

        x = np.arange(12.0).reshape(3, 4)
        out, mask = dropout(x, 0.0, np.random.default_rng(0))
        assert mask is None
        assert np.array_equal(out, x)

    def test_backward_matches_forward_scaling(self):
        from anchorrank.encoder.layers import dropout, dropout_backward

        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 16))
        out, mask = dropout(x, 0.4, np.random.default_rng(2))
        assert np.array_equal(out, x * mask)
        dout = rng.normal(size=x.shape)
        assert np.array_equal(dropout_backward(dout, mask), dout * mask)

    def test_training_graph_uses_dropout_inference_does_not(self, params):
        cfg = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=40, max_len=24, dropout=0.5)
        ids = seq(CLS_ID, 7, 8, 9, SEP_ID)
        h_train = EncoderGraph(params, cfg, ids, dropout_rng=np.random.default_rng(0)).hidden
        h_plain, _ = encode(params, cfg, ids)
        h_plain2, _ = encode(params, cfg, ids)
        assert not np.allclose(h_train, h_plain)
        assert np.array_equal(h_plain, h_plain2)


class TestBackward:
    def test_gradient_check_small_model(self):
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=23, max_len=12)
        params = init_params(cfg, seed=11)
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
            assert np.array_equal(ck.params[k], params[k])

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
