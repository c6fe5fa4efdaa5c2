import dataclasses
import json
import logging
import math
import struct

import numpy as np
import pytest

from anchorrank import pretrain
from anchorrank.corpus import CLS_ID, MASK_ID, NUM_SPECIAL_TOKENS, SEP_ID, Vocabulary, build_vocab, clean_corpus, parse_corpus
from anchorrank.encoder import EncoderConfig, EncoderGraph, cls_scores, init_params, param_shapes, zero_grads
from anchorrank.pretrain import (
    PackError,
    TrainConfig,
    TrainError,
    batch_schedule,
    hinge_loss,
    joint_step,
    mask_tokens,
    mlm_warmup,
    pack_input,
    pack_pair,
    pairwise_accuracy,
    run_steps,
    train,
)
from anchorrank.ranker import FinetuneConfig, RankerModel, RankingExample, collection_from_corpus, finetune
from anchorrank.taskgen import PairGenerator, PretrainPair, TaskGenConfig, derive_rng
from anchorrank.sampler import default_stopwords
from anchorrank.synth import SynthConfig, build_synthetic_corpus
from conftest import TableAttentionSampler
from util import mlm_loss, unmask


def small_vocab(n_terms=30):
    return Vocabulary.from_terms([f"t{i}" for i in range(n_terms)])


def assert_packed_equal(got, want):
    """Two (token_ids, segment_ids) packings hold the same arrays."""
    assert len(got) == len(want) == 2
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestPack:
    def test_basic_layout(self):
        vocab = small_vocab()
        ids, segs = pack_input([f"t{i}" for i in range(3)], [f"t{i}" for i in range(10)], vocab, 512)
        assert ids.dtype == segs.dtype == np.int64
        assert ids.size == 16  # 1 + 3 + 1 + 10 + 1
        assert ids[0] == CLS_ID
        assert ids[4] == SEP_ID
        assert ids[-1] == SEP_ID
        assert list(segs[:5]) == [0] * 5
        assert list(segs[5:]) == [1] * 11

    def test_doc_truncated_from_tail(self):
        vocab = small_vocab()
        doc = [f"t{i % 30}" for i in range(600)]
        ids, segs = pack_input(["t0", "t1", "t2"], doc, vocab, 512)
        assert ids.size == 512
        assert (segs == 1).sum() == 507  # 506 doc tokens + final [SEP]

    def test_multiword_elements_flattened(self):
        vocab = small_vocab()
        ids, _ = pack_input(["t0 t1", "t2"], ["t3"], vocab, 64)
        assert ids.size == 1 + 3 + 1 + 1 + 1

    def test_overlong_query_keeps_half_the_window(self):
        vocab = small_vocab()
        query = [f"t{i % 30}" for i in range(62)]
        doc = [f"t{i % 7}" for i in range(100)]
        ids, segs = pack_input(query, doc, vocab, 64)
        assert ids.size == 64
        assert list(ids[1:33]) == vocab.encode(query[:32])
        assert ids[33] == SEP_ID
        assert list(ids[34:63]) == vocab.encode(doc[:29])
        assert (segs == 0).sum() == 34

    @pytest.mark.parametrize("max_len", [4, 5, 6, 7])
    def test_smallest_windows_fit(self, max_len):
        vocab = small_vocab()
        ids, segs = pack_input(["t1 t2", "t3"], ["t4", "t5"], vocab, max_len)
        assert ids.size == max_len
        assert (segs == 0).sum() == 2 + min(max_len // 2, max_len - 3)

    def test_window_without_room_rejected(self):
        with pytest.raises(PackError, match="max_len 3"):
            pack_input(["t0"], ["t1"], small_vocab(), 3)

    def test_empty_query(self):
        with pytest.raises(PackError):
            pack_input([], ["t0"], small_vocab(), 64)


class TestPackedForm:
    CFG = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=40, max_len=32)

    def test_one_packing_scores_to_the_bit_on_every_path(self):
        # what pack_input returns goes to cls_scores, to a graph and into a
        # stack as it is; b has a's length but another segment split
        vocab = small_vocab()
        params = init_params(self.CFG, seed=0)
        a = pack_input(["t1", "t2"], ["t3", "t4", "t5"], vocab, 32)
        b = pack_input(["t6", "t7", "t8"], ["t9", "t10"], vocab, 32)
        assert len(a[0]) == len(b[0]) and not np.array_equal(a[1], b[1])
        single = EncoderGraph(params, self.CFG, *a, outputs=[0]).cls_score()
        stacked = EncoderGraph(params, self.CFG, *zip(a, b), outputs=[0]).cls_score()
        assert struct.pack("<d", single) == struct.pack("<d", cls_scores(params, self.CFG, [a])[0])
        assert struct.pack("<d", single) == struct.pack("<d", stacked[0])
        assert struct.pack("<d", stacked[1]) == struct.pack("<d", cls_scores(params, self.CFG, [b])[0])


class TestMask:
    def packed(self, n_doc=17, vocab=None):
        vocab = vocab or small_vocab()
        return pack_input(["t0", "t1", "t2"], [f"t{(i % 25) + 3}" for i in range(n_doc)], vocab, 512)

    def test_exact_count_at_twenty_maskable(self):
        ids, _ = self.packed(n_doc=17)  # 3 query + 17 doc = 20 maskable
        _, labels = mask_tokens(ids, 30 + NUM_SPECIAL_TOKENS, np.random.default_rng(0))
        assert len(labels) == 3

    def test_minimum_one_when_tiny(self):
        vocab = small_vocab()
        ids, _ = pack_input(["t0"], ["t1"], vocab, 64)  # 2 maskable
        _, labels = mask_tokens(ids, 35, np.random.default_rng(0))
        assert len(labels) == 1

    def test_specials_never_masked(self):
        ids, _ = self.packed()
        special_positions = set(np.flatnonzero(ids < NUM_SPECIAL_TOKENS).tolist())
        for trial in range(10_000):
            _, labels = mask_tokens(ids, 35, np.random.default_rng(trial))
            assert not special_positions & {p for p, _ in labels}

    def test_category_frequencies(self):
        vocab = Vocabulary.from_terms([f"t{i}" for i in range(3000)])
        doc = [f"t{i}" for i in range(300)]
        ids, _ = pack_input(["t0", "t1", "t2"], doc, vocab, 512)
        rng = np.random.default_rng(12)
        n_mask = n_rand = n_keep = 0
        total = 0
        while total < 100_000:
            masked_ids, labels = mask_tokens(ids, len(vocab), rng)
            for pos, orig in labels:
                got = masked_ids[pos]
                if got == MASK_ID:
                    n_mask += 1
                elif got == orig:
                    n_keep += 1
                else:
                    n_rand += 1
            total += len(labels)
        assert n_mask / total == pytest.approx(0.8, abs=0.01)
        assert n_rand / total == pytest.approx(0.1, abs=0.01)
        assert n_keep / total == pytest.approx(0.1, abs=0.01)

    def test_unmask_restores_sequence(self):
        ids, _ = self.packed()
        assert np.array_equal(unmask(*mask_tokens(ids, 35, np.random.default_rng(5))), ids)


class TestLosses:
    def test_hinge_values(self):
        assert hinge_loss(2.0, 0.5) == 0.0
        assert hinge_loss(0.0, 0.0) == 1.0
        assert hinge_loss(-0.3, 0.4) == pytest.approx(1.7)

    def test_hinge_nonnegative_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p, q = rng.normal(size=2) * 5
            h = hinge_loss(p, q)
            assert h >= 0.0
            assert h == max(0.0, 1.0 - p + q)

    def test_hinge_gradient_signs_by_finite_difference(self):
        eps = 1e-6
        # inside the margin: d/dpos = -1, d/dneg = +1
        for p, q in [(0.2, 0.1), (-1.0, 0.5)]:
            dpos = (hinge_loss(p + eps, q) - hinge_loss(p - eps, q)) / (2 * eps)
            dneg = (hinge_loss(p, q + eps) - hinge_loss(p, q - eps)) / (2 * eps)
            assert dpos == pytest.approx(-1.0, abs=1e-6)
            assert dneg == pytest.approx(1.0, abs=1e-6)
        # outside the margin: both zero
        dpos = (hinge_loss(3.0 + eps, 0.0) - hinge_loss(3.0 - eps, 0.0)) / (2 * eps)
        assert dpos == 0.0

    def test_mlm_uniform_is_log_vocab(self):
        logits = np.zeros((4, 250))
        labels = [(i, i + 7) for i in range(4)]
        assert mlm_loss(logits, labels) == pytest.approx(math.log(250), abs=1e-9)

    def test_mlm_confident_correct_goes_to_zero(self):
        logits = np.full((2, 50), -30.0)
        logits[0, 3] = 30.0
        logits[1, 4] = 30.0
        assert mlm_loss(logits, [(0, 3), (1, 4)]) < 1e-9

    def test_mlm_empty(self):
        assert mlm_loss(np.zeros((0, 10)), []) == 0.0


def make_pair(task, query, pos, neg, neg_query=None, seed_path="x"):
    return PretrainPair(
        task=task,
        query_tokens=query,
        pos_doc_id=pos,
        neg_doc_id=neg,
        neg_query_tokens=neg_query,
        provenance={},
        seed_path=seed_path,
    )


class TestPackPair:
    def setup_method(self):
        self.vocab = small_vocab()
        docs = {"A": ["t3", "t4"], "B": ["t7"]}
        self.docs = lambda pid: docs[pid]

    def test_negative_swaps_document_or_query(self):
        pos, neg = pack_pair(make_pair("qdm", ["t1"], "A", "B"), self.vocab, self.docs, 32)
        assert_packed_equal(pos, pack_input(["t1"], ["t3", "t4"], self.vocab, 32))
        assert_packed_equal(neg, pack_input(["t1"], ["t7"], self.vocab, 32))
        pos, neg = pack_pair(make_pair("rqp", ["t1"], "A", None, neg_query=["t2"]), self.vocab, self.docs, 32)
        assert_packed_equal(pos, pack_input(["t1"], ["t3", "t4"], self.vocab, 32))
        assert_packed_equal(neg, pack_input(["t2"], ["t3", "t4"], self.vocab, 32))

    def test_rqp_without_negative_query_errors(self):
        pair = make_pair("rqp", ["t1"], "A", None, seed_path="rqp/7")
        with pytest.raises(TrainError, match="rqp/7 missing negative query"):
            pack_pair(pair, self.vocab, self.docs, 32)


def two_graph_step(pairs, params, enc_config, vocab, doc_tokens, config, grads, rng):
    """joint_step as it was before equal-length pairs were stacked: the
    positive and the negative each score as a graph of its own, back-
    propagated positive first.  The bitwise reference for the stacked step."""
    weights = config.task_weights
    n = len(pairs)
    task_sums = {t: 0.0 for t in pretrain.TASKS}
    task_counts = {t: 0 for t in pretrain.TASKS}
    mlm_sum = 0.0
    w_mlm = weights.get("mlm", 1.0)
    for pair in pairs:
        pos_packed, neg_packed = pack_pair(pair, vocab, doc_tokens, config.max_len)
        g_pos = EncoderGraph(params, enc_config, *pos_packed, outputs=[0])
        s_pos = g_pos.cls_score()
        g_neg = EncoderGraph(params, enc_config, *neg_packed, outputs=[0])
        s_neg = g_neg.cls_score()
        hinge = hinge_loss(s_pos, s_neg)
        task_sums[pair.task] += hinge
        task_counts[pair.task] += 1
        w_task = weights.get(pair.task, 1.0)
        if hinge > 0.0 and w_task != 0.0:
            g_pos.backward(grads, d_score=-(w_task / n))
            g_neg.backward(grads, d_score=w_task / n)
        pair_mlm = pretrain.mlm_forward_backward(pos_packed, params, enc_config, rng, grads, w_mlm / n)
        if pair_mlm is not None:
            mlm_sum += pair_mlm
    components = {t: task_sums[t] / n for t in pretrain.TASKS}
    components["mlm"] = mlm_sum / n
    total = sum(weights.get(k, 1.0) * v for k, v in components.items())
    return {"total": total, "components": components, "task_counts": task_counts, "pairs": n}


@pytest.fixture
def graph_shapes(monkeypatch):
    """Substitutes a recording EncoderGraph in pretrain; the list it returns
    gets the token_ids shape of each graph built, in build order."""
    shapes = []

    class Recording(EncoderGraph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            shapes.append(self.token_ids.shape)

    monkeypatch.setattr(pretrain, "EncoderGraph", Recording)
    return shapes


class TestJointStep:
    CFG = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=40, max_len=32)
    CLS_HEAD = ("cls_w1", "cls_b1", "cls_w2", "cls_b2")

    def setup_method(self):
        self.vocab = small_vocab()
        self.docs = {
            "A": ["t3", "t4", "t5", "t6"],
            "B": ["t7", "t8"],
            "C": ["t9", "t10", "t11"],
            "D": ["t12", "t13", "t14"],
            "E": ["t15", "t16", "t17", "t18"],
        }
        self.lookup = lambda pid: self.docs[pid]
        self.tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=32, seed=0)

    def equal_length(self, pair):
        pos, neg = pack_pair(pair, self.vocab, self.lookup, 32)
        return len(pos[0]) == len(neg[0])

    def assert_same_bits_as_two_graphs(self, pairs, params, tcfg=None):
        """joint_step's record and every gradient tensor, byte for byte
        those of two_graph_step; returns joint_step's (record, gradients)."""
        tcfg = tcfg or self.tcfg
        grads, want_grads = zero_grads(params), zero_grads(params)
        got = joint_step(pairs, params, self.CFG, self.vocab, self.lookup, tcfg, grads, np.random.default_rng(3))
        want = two_graph_step(pairs, params, self.CFG, self.vocab, self.lookup, tcfg, want_grads, np.random.default_rng(3))
        assert json.dumps(got) == json.dumps(want)
        for k in want_grads:
            assert grads[k].tobytes() == want_grads[k].tobytes(), k
        return got, grads

    def test_equal_length_rqp_pair_keeps_the_bits(self):
        pair = make_pair("rqp", ["t0", "t1"], "A", None, neg_query=["t5", "t6"])
        assert self.equal_length(pair)
        record, grads = self.assert_same_bits_as_two_graphs([pair], init_params(self.CFG, seed=4))
        # the hinge was back-propagated (cls_b2's two additions cancel)
        assert record["components"]["rqp"] > 0.0 and np.any(grads["cls_w2"])

    def test_unequal_length_qdm_pair_keeps_the_bits(self):
        pair = make_pair("qdm", ["t2"], "A", "B")
        assert not self.equal_length(pair)
        self.assert_same_bits_as_two_graphs([pair], init_params(self.CFG, seed=5))

    def test_mixed_batch_keeps_the_bits(self):
        pairs = [
            make_pair("rqp", ["t0", "t1"], "A", None, neg_query=["t5", "t6"]),
            make_pair("qdm", ["t2"], "B", "C"),
            make_pair("acm", ["t3"], "C", "D"),
            make_pair("rdp", ["t0", "t4", "t6"], "A", "B"),
        ]
        assert [self.equal_length(p) for p in pairs] == [True, False, True, False]
        self.assert_same_bits_as_two_graphs(pairs, init_params(self.CFG, seed=6))

    def test_equal_length_satisfied_margin_leaves_only_the_mlm_gradient(self):
        pair = make_pair("qdm", ["t1"], "A", "E")
        assert self.equal_length(pair)
        params = init_params(self.CFG, seed=7)
        acts = []
        for packed in pack_pair(pair, self.vocab, self.lookup, 32):
            hidden = EncoderGraph(params, self.CFG, *packed).hidden[0]
            acts.append(np.tanh(hidden @ params["cls_w1"] + params["cls_b1"]))
        delta = acts[0] - acts[1]
        params["cls_w2"] = 2.0 * delta / (delta @ delta)
        record, grads = self.assert_same_bits_as_two_graphs([pair], params)
        assert record["components"]["qdm"] == 0.0
        assert not any(np.any(grads[k]) for k in self.CLS_HEAD)
        assert np.any(grads["mlm_w"])

    def test_equal_length_pair_at_task_weight_zero_keeps_the_bits(self):
        pair = make_pair("rqp", ["t0", "t1"], "A", None, neg_query=["t5", "t6"])
        tcfg = dataclasses.replace(self.tcfg, task_weights={"rqp": 0.0})
        record, grads = self.assert_same_bits_as_two_graphs([pair], init_params(self.CFG, seed=8), tcfg)
        assert record["components"]["rqp"] > 0.0
        assert not any(np.any(grads[k]) for k in self.CLS_HEAD)

    def test_equal_length_pair_builds_one_stack(self, graph_shapes):
        pair = make_pair("rqp", ["t0", "t1"], "A", None, neg_query=["t5", "t6"])
        n = len(pack_pair(pair, self.vocab, self.lookup, 32)[0][0])
        params = init_params(self.CFG, seed=4)
        joint_step([pair], params, self.CFG, self.vocab, self.lookup, self.tcfg, zero_grads(params), np.random.default_rng(0))
        assert graph_shapes == [(2, n), (n,)]

    def test_unequal_length_pair_builds_three_graphs(self, graph_shapes):
        pair = make_pair("qdm", ["t2"], "A", "B")
        pos, neg = pack_pair(pair, self.vocab, self.lookup, 32)
        params = init_params(self.CFG, seed=5)
        joint_step([pair], params, self.CFG, self.vocab, self.lookup, self.tcfg, zero_grads(params), np.random.default_rng(0))
        assert graph_shapes == [pos[0].shape, neg[0].shape, pos[0].shape]

    def test_satisfied_margin_no_mlm_is_noop(self):
        # all-OOV tokens encode to [UNK] (special, never masked); the output
        # weights are solved so the score gap sits beyond the margin
        docs = {"A": ["zzz"] * 5, "B": ["yyy"] * 2}
        pair = make_pair("qdm", ["www"], "A", "B")
        params = init_params(self.CFG, seed=0)
        pos = pack_input(pair.query_tokens, docs["A"], self.vocab, 32)
        neg = pack_input(pair.query_tokens, docs["B"], self.vocab, 32)
        acts = []
        for packed in (pos, neg):
            hidden = EncoderGraph(params, self.CFG, *packed).hidden[0]
            acts.append(np.tanh(hidden @ params["cls_w1"] + params["cls_b1"]))
        delta = acts[0] - acts[1]
        params["cls_w2"] = 2.0 * delta / (delta @ delta)
        grads = zero_grads(params)
        metrics = joint_step(
            [pair], params, self.CFG, self.vocab, lambda p: docs[p], self.tcfg, grads, np.random.default_rng(0)
        )
        assert metrics["total"] == 0.0
        # an all-zero gradient is what leaves Adam's update at zero
        for k in grads:
            assert not np.any(grads[k]), k

    def test_single_task_batch_components(self):
        params = init_params(self.CFG, seed=1)
        pairs = [make_pair("rdp", ["t0", "t1"], "A", "B"), make_pair("rdp", ["t2"], "C", "A")]
        metrics = joint_step(
            pairs, params, self.CFG, self.vocab, self.lookup, self.tcfg, zero_grads(params), np.random.default_rng(0)
        )
        comp = metrics["components"]
        assert comp["rqp"] == comp["qdm"] == comp["acm"] == 0.0
        assert metrics["total"] == pytest.approx(comp["rdp"] + comp["mlm"], abs=1e-12)

    def test_total_is_sum_of_components(self):
        params = init_params(self.CFG, seed=2)
        pairs = [
            make_pair("rqp", ["t0", "t1"], "A", "A", neg_query=["t5", "t6"]),
            make_pair("qdm", ["t2"], "B", "C"),
            make_pair("acm", ["t3"], "C", "B"),
        ]
        metrics = joint_step(
            pairs, params, self.CFG, self.vocab, self.lookup, self.tcfg, zero_grads(params), np.random.default_rng(1)
        )
        assert metrics["total"] == pytest.approx(sum(metrics["components"].values()), abs=1e-9)

    def test_overlong_rdp_query_trains(self):
        # a 40-token sentence at max_len 32: the query keeps 16 tokens
        params = init_params(self.CFG, seed=3)
        grads = zero_grads(params)
        pair = make_pair("rdp", [f"t{i % 30}" for i in range(40)], "A", "B")
        metrics = joint_step(
            [pair], params, self.CFG, self.vocab, self.lookup, self.tcfg, grads, np.random.default_rng(0)
        )
        assert math.isfinite(metrics["total"]) and metrics["components"]["rdp"] >= 0.0
        assert any(np.any(g != 0.0) for g in grads.values())

    def test_unknown_doc_id_errors(self):
        params = init_params(self.CFG, seed=0)
        pair = make_pair("qdm", ["t0"], "A", "B")

        def lookup(pid):
            raise TrainError(f"pair references unknown page {pid!r}")

        with pytest.raises(TrainError, match="unknown page"):
            joint_step([pair], params, self.CFG, self.vocab, lookup, self.tcfg, zero_grads(params), np.random.default_rng(0))


class TestTrainLoop:
    def make_setup(self, corpus):
        vocab = build_vocab(corpus, max_size=300)
        sampler = TableAttentionSampler(vocab, stopwords=default_stopwords())
        pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=3, summary_max_tokens=24)).generate()
        enc = EncoderConfig(layers=1, heads=2, hidden=32, ffn_dim=64, vocab_size=len(vocab), max_len=48)
        return vocab, pairs, enc

    def test_epochs_zero_returns_init(self, corpus):
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=0, batch_size=4, max_len=48, seed=5, summary_max_tokens=24)
        params, logs = train(pairs, corpus, enc, tcfg, vocab)
        reference = init_params(enc, tcfg.seed)
        for k in params:
            assert np.array_equal(params[k], reference[k])
        assert logs == []

    def test_max_steps_zero_returns_init(self, corpus):
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4, max_len=48, seed=5, summary_max_tokens=24, max_steps=0)
        params, logs = train(pairs, corpus, enc, tcfg, vocab)
        reference = init_params(enc, tcfg.seed)
        for k in params:
            assert np.array_equal(params[k], reference[k])
        assert logs == []

    def test_warmup_max_steps_zero_returns_init(self, corpus):
        vocab, _, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4, max_len=48, seed=2, summary_max_tokens=24, max_steps=0)
        params = mlm_warmup(corpus, enc, tcfg, vocab)
        reference = init_params(enc, tcfg.seed)
        for k in params:
            assert np.array_equal(params[k], reference[k])

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            TrainConfig(max_steps=-3)

    @pytest.mark.parametrize("field, value, rule", [
        ("lr", 0.0, "positive"),
        ("lr", float("nan"), "positive"),
        ("epochs", -1, "an integer >= 0"),
        ("batch_size", 0, "an integer >= 1"),
        ("max_len", 3, "an integer >= 4"),
        ("log_every", 0, "an integer >= 1"),
        ("max_steps", -1, "an integer >= 0"),
        # range() would raise TypeError on a float at the first step, and
        # a bool is not a count
        ("epochs", 2.5, "an integer >= 0"),
        ("batch_size", 2.5, "an integer >= 1"),
        ("batch_size", True, "an integer >= 1"),
        ("max_len", 48.0, "an integer >= 4"),
        ("log_every", 2.5, "an integer >= 1"),
        ("max_steps", 2.5, "an integer >= 0"),
    ], ids=[
        "lr-zero", "lr-nan", "epochs", "batch_size", "max_len", "log_every", "max_steps",
        "epochs-float", "batch_size-float", "batch_size-bool", "max_len-float", "log_every-float", "max_steps-float",
    ])
    def test_bad_schedule_field_rejected_naming_rule_and_value(self, field, value, rule):
        with pytest.raises(ValueError) as info:
            pretrain.Schedule(**{field: value})
        assert str(info.value) == f"{field} must be {rule}, got {value}"

    @pytest.mark.parametrize("value", [-5, 0, 2.5])
    def test_bad_summary_max_tokens_rejected(self, value):
        with pytest.raises(ValueError, match=f"summary_max_tokens must be an integer >= 1, got {value}"):
            TrainConfig(summary_max_tokens=value)

    def test_unknown_task_weight_rejected(self):
        with pytest.raises(ValueError, match="task_weights keys \\['rqq'\\]"):
            TrainConfig(task_weights={"rqp": 1.0, "rqq": 0.5})

    @pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf"), float("-inf")])
    def test_bad_task_weight_rejected_naming_rule_and_value(self, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(task_weights={"rqp": value})
        assert str(info.value) == f"task_weights.rqp must be a finite number >= 0, got {value}"

    def test_zero_task_weight_accepted(self):
        # warm-up turns the pairwise tasks off with it
        assert TrainConfig(task_weights={"rqp": 0.0, "mlm": 0}).task_weights["rqp"] == 0.0

    def test_missing_task_weights_fill_a_new_dict(self):
        weights = {"rqp": 0.0}
        tcfg = TrainConfig(task_weights=weights)
        assert weights == {"rqp": 0.0}
        assert tcfg.task_weights == {"rqp": 0.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0}

    def test_one_log_record_per_step(self, corpus, caplog):
        # the benchmark times training steps from these records
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4, max_len=48, seed=5, summary_max_tokens=24, log_every=1)
        caplog.set_level(logging.INFO, logger="anchorrank.pretrain")
        _, logs = train(pairs, corpus, enc, tcfg, vocab)
        steps = 2 * math.ceil(len(pairs) / 4)
        records = [r for r in caplog.records if r.name == "anchorrank.pretrain"]
        assert len(records) == steps
        assert [e["step"] for e in logs] == list(range(1, steps + 1))

    def test_loss_decreases(self, corpus):
        vocab, pairs, enc = self.make_setup(corpus)
        assert len(pairs) >= 4
        tcfg = TrainConfig(
            lr=3e-3, epochs=60, batch_size=4, max_len=48, seed=5,
            summary_max_tokens=24, log_every=1, max_steps=60,
        )
        _, logs = train(pairs, corpus, enc, tcfg, vocab)
        first = np.mean([e["total"] for e in logs[:5]])
        last = np.mean([e["total"] for e in logs[-5:]])
        assert last < first

    def test_deterministic_checkpoint(self, corpus, tmp_path):
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(
            lr=1e-3, epochs=3, batch_size=4, max_len=48, seed=9, summary_max_tokens=24, max_steps=6
        )
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        train(pairs, corpus, enc, tcfg, vocab, checkpoint_path=p1)
        train(pairs, corpus, enc, tcfg, vocab, checkpoint_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_holds_only_the_parameters(self, corpus, tmp_path):
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=48, seed=9, summary_max_tokens=24, max_steps=2)
        path = tmp_path / "model.ckpt"
        train(pairs, corpus, enc, tcfg, vocab, checkpoint_path=path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + header_len])
        (n_tensors,) = struct.unpack("<I", raw[12 + header_len : 16 + header_len])
        assert n_tensors == len(param_shapes(enc))
        assert set(header) == {"version", "config", "dtype", "extra"}

    def test_warmup_runs_and_is_deterministic(self, corpus):
        vocab, _, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=48, seed=2, summary_max_tokens=24, max_steps=4)
        w1 = mlm_warmup(corpus, enc, tcfg, vocab)
        w2 = mlm_warmup(corpus, enc, tcfg, vocab)
        init = init_params(enc, tcfg.seed)
        assert any(not np.array_equal(w1[k], init[k]) for k in w1)
        for k in w1:
            assert np.array_equal(w1[k], w2[k])

    def test_warmup_cuts_an_overlong_sentence(self):
        # max_len 16 leaves room for 13 sentence tokens; the only sentence
        # has 20, so warm-up packs its head rather than finding no sentence
        record = {"id": "p", "title": "p", "url": "u", "text": " ".join(f"w{i}" for i in range(20)), "anchors": []}
        corpus = parse_corpus([json.dumps(record)])
        assert [len(sent.tokens) for sent in corpus.iter_sentences()] == [20]
        vocab = build_vocab(corpus, max_size=100)
        enc = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, vocab_size=len(vocab), max_len=16)
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=1, max_len=16, seed=2, summary_max_tokens=4)
        params = mlm_warmup(corpus, enc, tcfg, vocab)
        init = init_params(enc, tcfg.seed)
        assert any(not np.array_equal(params[k], init[k]) for k in params)

    def test_pairwise_accuracy_range(self, corpus):
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=48, seed=5, summary_max_tokens=24)
        params = init_params(enc, 0)
        acc = pairwise_accuracy(pairs, params, enc, vocab, corpus, tcfg)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("side", ["pos_doc_id", "neg_doc_id"])
    def test_unknown_page_is_one_error_before_the_first_step(self, corpus, side, tmp_path, caplog):
        vocab, pairs, enc = self.make_setup(corpus)
        bad = dataclasses.replace(pairs[-1], **{side: "nope"})
        pairs = [*pairs[:-1], bad]
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=48, seed=5, summary_max_tokens=24, log_every=1)
        message = f"^pair {bad.seed_path!r} references unknown page 'nope'$"
        caplog.set_level(logging.INFO, logger="anchorrank.pretrain")
        with pytest.raises(TrainError, match=message):
            train(pairs, corpus, enc, tcfg, vocab, checkpoint_path=tmp_path / "m.ckpt", metrics_path=tmp_path / "m.jsonl")
        assert not [r for r in caplog.records if r.name == "anchorrank.pretrain"]
        assert not list(tmp_path.iterdir())
        with pytest.raises(TrainError, match=message):
            pairwise_accuracy(pairs, init_params(enc, 0), enc, vocab, corpus, tcfg)


@pytest.fixture(scope="module")
def long_world():
    """A 40-page synthetic corpus whose page summaries fill a 48-token
    encoder: 16 pairs, three of whose packings run past 48 tokens in a
    wider window."""
    raw, _ = build_synthetic_corpus(SynthConfig(pages=40, topics=4, train_queries=20, eval_queries=10, seed=3))
    corpus = clean_corpus(raw, min_words=100)
    vocab = build_vocab(corpus, max_size=600)
    sampler = TableAttentionSampler(vocab, stopwords=default_stopwords())
    pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=3, summary_max_tokens=64, per_task_cap=4)).generate()
    enc = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=len(vocab), max_len=48)
    return corpus, vocab, pairs, enc


class TestEncoderWindow:
    """Every stage packs to its encoder's max_len: a config window of 64
    once overran the 48-token encoder, and one of 24 trained on shorter
    packings."""

    @staticmethod
    def tcfg(max_len, **changes):
        return TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=max_len, seed=5, summary_max_tokens=64, **changes)

    @pytest.mark.parametrize("window", [24, 64])
    def test_train(self, long_world, window):
        corpus, vocab, pairs, enc = long_world
        want, _ = train(pairs, corpus, enc, self.tcfg(48), vocab)
        got, _ = train(pairs, corpus, enc, self.tcfg(window), vocab)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k

    @pytest.mark.parametrize("window", [24, 64])
    def test_warmup(self, long_world, window):
        corpus, vocab, _, enc = long_world
        want = mlm_warmup(corpus, enc, self.tcfg(48, max_steps=6), vocab)
        got = mlm_warmup(corpus, enc, self.tcfg(window, max_steps=6), vocab)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k

    @pytest.mark.parametrize("window", [24, 64])
    def test_pairwise_accuracy(self, long_world, window, monkeypatch):
        corpus, vocab, pairs, enc = long_world
        params = init_params(enc, 0)
        scored = []

        def recording_cls_scores(params, config, packings):
            scored.append([(ids.tobytes(), segs.tobytes()) for ids, segs in packings])
            return cls_scores(params, config, packings)

        monkeypatch.setattr(pretrain, "cls_scores", recording_cls_scores)
        want = pairwise_accuracy(pairs, params, enc, vocab, corpus, self.tcfg(48))
        assert pairwise_accuracy(pairs, params, enc, vocab, corpus, self.tcfg(window)) == want
        assert scored[1] == scored[0]


class TestBatchSchedule:
    CFG = TrainConfig(epochs=2, batch_size=3, seed=4)

    def schedule(self, n, stage="pretrain", **changes):
        cfg = dataclasses.replace(self.CFG, **changes)
        return [(step, epoch, idx.tolist()) for step, epoch, idx in batch_schedule(n, cfg, stage)]

    def expected(self, stage):
        o0, o1 = (derive_rng(4, stage, "epoch", e).permutation(7).tolist() for e in (0, 1))
        return [(1, 0, o0[:3]), (2, 0, o0[3:6]), (3, 0, o0[6:]), (4, 1, o1[:3]), (5, 1, o1[3:6]), (6, 1, o1[6:])]

    def test_exact_sequence(self):
        got = self.schedule(7)
        assert got == self.expected("pretrain")
        for epoch in (0, 1):
            assert sorted(i for _, e, idx in got if e == epoch for i in idx) == list(range(7))

    def test_each_stage_has_its_own_stream(self):
        assert self.schedule(7, "finetune") == self.expected("finetune")
        assert self.expected("finetune") != self.expected("pretrain")

    def test_stops_mid_epoch(self):
        assert self.schedule(7, max_steps=4) == self.expected("pretrain")[:4]

    def test_nothing_to_run(self):
        assert self.schedule(7, epochs=0) == []
        assert self.schedule(7, max_steps=0) == []
        assert self.schedule(0) == []


class TestRunSteps:
    """The one step driver, with Adam replaced by a recorder of its lr."""

    def run(self, monkeypatch, n, warmup, **changes):
        lrs = []
        monkeypatch.setattr(pretrain, "adam_step", lambda params, grads, adam, lr: lrs.append(lr))
        seen = []

        def body(indices, grads):
            assert not grads["w"].any()  # fresh zero grads every step
            grads["w"] += 1.0
            seen.append(indices.tolist())
            return {"total": 0.5}

        cfg = dataclasses.replace(TrainConfig(lr=0.3, epochs=2, batch_size=2, seed=4, log_every=10), **changes)
        out = run_steps(n, cfg, "pretrain", {"w": np.zeros(2)}, body, logging.getLogger("test"), warmup)
        return out, lrs, seen

    def test_steps_follow_the_batch_schedule(self, monkeypatch):
        (_, last), lrs, seen = self.run(monkeypatch, 5, 0.0)
        cfg = TrainConfig(lr=0.3, epochs=2, batch_size=2, seed=4)
        assert seen == [idx.tolist() for _, _, idx in batch_schedule(5, cfg, "pretrain")]
        assert last == len(lrs) == 6

    def test_no_warmup_is_exactly_the_configured_lr(self, monkeypatch):
        _, lrs, _ = self.run(monkeypatch, 5, 0.0)
        assert lrs == [0.3] * 6

    def test_warmup_ramps_linearly(self, monkeypatch):
        _, lrs, _ = self.run(monkeypatch, 5, 0.5)
        assert lrs == [0.3 * min(1.0, k / 3) for k in range(1, 7)]

    def test_records_every_log_every_and_at_max_steps(self, monkeypatch):
        (records, last), _, _ = self.run(monkeypatch, 5, 0.0, log_every=2, max_steps=5)
        assert [(r["step"], r["epoch"], r["total"]) for r in records] == [(2, 0, 0.5), (4, 1, 0.5), (5, 1, 0.5)]
        assert last == 5

    def test_nothing_to_run(self, monkeypatch):
        (records, last), lrs, _ = self.run(monkeypatch, 5, 0.1, max_steps=0)
        assert (records, last, lrs) == ([], 0, [])


# stage, logger it logs on, a parameter that makes its loss NaN
STAGES = [
    ("warmup", "anchorrank.pretrain", "mlm_b"),
    ("pretrain", "anchorrank.pretrain", "mlm_b"),
    ("finetune", "anchorrank.ranker", "cls_b2"),
]


class TestStagesShareTheDriver:
    STEPS = 3

    def run_stage(self, stage, corpus, monkeypatch, checkpoint_path, poison=None):
        vocab = build_vocab(corpus, max_size=300)
        enc = EncoderConfig(layers=1, heads=2, hidden=32, ffn_dim=64, vocab_size=len(vocab), max_len=48)
        params = init_params(enc, seed=2)
        if poison is not None:
            params[poison][:] = np.nan
        if stage == "finetune":
            model = RankerModel(params=params, config=enc, vocab=vocab)
            pages = ["river", "mac", "fruit", "company", "news"]
            examples = [RankingExample(f"q{i}", "water stream", pid, int(pid == "river")) for i, pid in enumerate(pages)]
            cfg = FinetuneConfig(lr=1e-3, epochs=5, batch_size=2, max_len=48, log_every=1, max_steps=self.STEPS)
            finetune(model, examples, collection_from_corpus(corpus), cfg, checkpoint_path=checkpoint_path)
            return
        cfg = TrainConfig(
            lr=1e-3, epochs=5, batch_size=2, max_len=48, seed=2, summary_max_tokens=24, log_every=1, max_steps=self.STEPS
        )
        if stage == "warmup":
            monkeypatch.setattr(pretrain, "init_params", lambda enc_config, seed: params)
            mlm_warmup(corpus, enc, cfg, vocab, checkpoint_path=checkpoint_path)
        else:
            sampler = TableAttentionSampler(vocab, stopwords=default_stopwords())
            pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=3, summary_max_tokens=24)).generate()
            train(pairs, corpus, enc, cfg, vocab, init=params, checkpoint_path=checkpoint_path)

    @pytest.mark.parametrize("stage, logger, _", STAGES, ids=[s[0] for s in STAGES])
    def test_one_log_record_per_step(self, stage, logger, _, corpus, monkeypatch, tmp_path, caplog):
        # the benchmark times training steps from these records
        caplog.set_level(logging.INFO, logger=logger)
        self.run_stage(stage, corpus, monkeypatch, tmp_path / "out.ckpt")
        records = [r.getMessage().split()[:3] for r in caplog.records if r.name == logger]
        assert records == [[stage, "step", f"{k}/{self.STEPS}"] for k in range(1, self.STEPS + 1)]

    @pytest.mark.parametrize("stage, _, poison", STAGES, ids=[s[0] for s in STAGES])
    def test_non_finite_loss_names_the_stage_and_writes_nothing(self, stage, _, poison, corpus, monkeypatch, tmp_path):
        with pytest.raises(TrainError, match=f"^{stage} step 1: non-finite loss"), np.errstate(invalid="ignore"):
            self.run_stage(stage, corpus, monkeypatch, tmp_path / "out.ckpt", poison=poison)
        assert not (tmp_path / "out.ckpt").exists()
