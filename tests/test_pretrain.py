import math

import numpy as np
import pytest

from anchorrank.corpus import CLS_ID, MASK_ID, NUM_SPECIAL_TOKENS, SEP_ID, Vocabulary, build_vocab
from anchorrank.encoder import EncoderConfig, init_params
from anchorrank.pretrain import (
    MaskedBatch,
    PackError,
    TrainConfig,
    TrainError,
    hinge_loss,
    joint_step,
    mask_tokens,
    mlm_loss,
    mlm_warmup,
    pack_input,
    pairwise_accuracy,
    train,
    unmask,
)
from anchorrank.encoder.adam import AdamState
from anchorrank.taskgen import PairGenerator, PretrainPair, TaskGenConfig
from anchorrank.sampler import default_stopwords
from conftest import TableAttentionSampler


def small_vocab(n_terms=30):
    return Vocabulary.from_terms([f"t{i}" for i in range(n_terms)])


class TestPack:
    def test_basic_layout(self):
        vocab = small_vocab()
        seq = pack_input([f"t{i}" for i in range(3)], [f"t{i}" for i in range(10)], vocab, 512)
        assert seq.token_ids.size == 16  # 1 + 3 + 1 + 10 + 1
        assert seq.token_ids[0] == CLS_ID
        assert seq.token_ids[4] == SEP_ID
        assert seq.token_ids[-1] == SEP_ID
        assert list(seq.segment_ids[:5]) == [0] * 5
        assert list(seq.segment_ids[5:]) == [1] * 11

    def test_doc_truncated_from_tail(self):
        vocab = small_vocab()
        doc = [f"t{i % 30}" for i in range(600)]
        seq = pack_input(["t0", "t1", "t2"], doc, vocab, 512)
        assert seq.token_ids.size == 512
        assert (seq.segment_ids == 1).sum() == 507  # 506 doc tokens + final [SEP]

    def test_multiword_elements_flattened(self):
        vocab = small_vocab()
        seq = pack_input(["t0 t1", "t2"], ["t3"], vocab, 64)
        assert seq.token_ids.size == 1 + 3 + 1 + 1 + 1

    def test_query_too_long(self):
        vocab = small_vocab()
        with pytest.raises(PackError):
            pack_input([f"t{i % 30}" for i in range(62)], ["t0"], vocab, 64)

    def test_empty_query(self):
        with pytest.raises(PackError):
            pack_input([], ["t0"], small_vocab(), 64)


class TestMask:
    def packed(self, n_doc=17, vocab=None):
        vocab = vocab or small_vocab()
        return pack_input(["t0", "t1", "t2"], [f"t{(i % 25) + 3}" for i in range(n_doc)], vocab, 512)

    def test_exact_count_at_twenty_maskable(self):
        seq = self.packed(n_doc=17)  # 3 query + 17 doc = 20 maskable
        batch = mask_tokens(seq, 30 + NUM_SPECIAL_TOKENS, np.random.default_rng(0))
        assert len(batch.labels) == 3

    def test_minimum_one_when_tiny(self):
        vocab = small_vocab()
        seq = pack_input(["t0"], ["t1"], vocab, 64)  # 2 maskable
        batch = mask_tokens(seq, 35, np.random.default_rng(0))
        assert len(batch.labels) == 1

    def test_specials_never_masked(self):
        seq = self.packed()
        special_positions = set(np.flatnonzero(seq.token_ids < NUM_SPECIAL_TOKENS).tolist())
        for trial in range(10_000):
            batch = mask_tokens(seq, 35, np.random.default_rng(trial))
            assert not special_positions & {p for p, _ in batch.labels}

    def test_category_frequencies(self):
        vocab = Vocabulary.from_terms([f"t{i}" for i in range(3000)])
        doc = [f"t{i}" for i in range(300)]
        seq = pack_input(["t0", "t1", "t2"], doc, vocab, 512)
        rng = np.random.default_rng(12)
        n_mask = n_rand = n_keep = 0
        total = 0
        while total < 100_000:
            batch = mask_tokens(seq, len(vocab), rng)
            for pos, orig in batch.labels:
                got = batch.seq.token_ids[pos]
                if got == MASK_ID:
                    n_mask += 1
                elif got == orig:
                    n_keep += 1
                else:
                    n_rand += 1
            total += len(batch.labels)
        assert n_mask / total == pytest.approx(0.8, abs=0.01)
        assert n_rand / total == pytest.approx(0.1, abs=0.01)
        assert n_keep / total == pytest.approx(0.1, abs=0.01)

    def test_unmask_restores_sequence(self):
        seq = self.packed()
        batch = mask_tokens(seq, 35, np.random.default_rng(5))
        assert np.array_equal(unmask(batch), seq.token_ids)


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


class TestJointStep:
    CFG = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=40, max_len=32)

    def setup_method(self):
        self.vocab = small_vocab()
        self.docs = {
            "A": ["t3", "t4", "t5", "t6"],
            "B": ["t7", "t8"],
            "C": ["t9", "t10", "t11"],
        }
        self.lookup = lambda pid: self.docs[pid]
        self.tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=32, seed=0)

    def test_satisfied_margin_no_mlm_is_noop(self):
        # all-OOV tokens encode to [UNK] (special, never masked); the output
        # weights are solved so the score gap sits beyond the margin
        from anchorrank.encoder import EncoderGraph

        docs = {"A": ["zzz"] * 5, "B": ["yyy"] * 2}
        pair = make_pair("qdm", ["www"], "A", "B")
        params = init_params(self.CFG, seed=0)
        pos = pack_input(pair.query_tokens, docs["A"], self.vocab, 32)
        neg = pack_input(pair.query_tokens, docs["B"], self.vocab, 32)
        acts = []
        for seq in (pos, neg):
            hidden = EncoderGraph(params, self.CFG, seq.token_ids, seq.segment_ids).hidden[0]
            acts.append(np.tanh(hidden @ params["cls_w1"] + params["cls_b1"]))
        delta = acts[0] - acts[1]
        params["cls_w2"] = 2.0 * delta / (delta @ delta)
        before = {k: v.copy() for k, v in params.items()}
        adam = AdamState.zeros(params)
        metrics = joint_step(
            [pair], params, self.CFG, self.vocab, lambda p: docs[p], self.tcfg, adam, np.random.default_rng(0)
        )
        assert metrics["total"] == 0.0
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_single_task_batch_components(self):
        params = init_params(self.CFG, seed=1)
        adam = AdamState.zeros(params)
        pairs = [make_pair("rdp", ["t0", "t1"], "A", "B"), make_pair("rdp", ["t2"], "C", "A")]
        metrics = joint_step(
            pairs, params, self.CFG, self.vocab, self.lookup, self.tcfg, adam, np.random.default_rng(0)
        )
        comp = metrics["components"]
        assert comp["rqp"] == comp["qdm"] == comp["acm"] == 0.0
        assert metrics["total"] == pytest.approx(comp["rdp"] + comp["mlm"], abs=1e-12)

    def test_total_is_sum_of_components(self):
        params = init_params(self.CFG, seed=2)
        adam = AdamState.zeros(params)
        pairs = [
            make_pair("rqp", ["t0", "t1"], "A", "A", neg_query=["t5", "t6"]),
            make_pair("qdm", ["t2"], "B", "C"),
            make_pair("acm", ["t3"], "C", "B"),
        ]
        metrics = joint_step(
            pairs, params, self.CFG, self.vocab, self.lookup, self.tcfg, adam, np.random.default_rng(1)
        )
        assert metrics["total"] == pytest.approx(sum(metrics["components"].values()), abs=1e-9)

    def test_dropout_config_changes_training_deterministically(self):
        drop_cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=40, max_len=32, dropout=0.3)
        pairs = [make_pair("qdm", ["t0", "t1"], "A", "B")]

        def one_step(cfg):
            params = init_params(cfg, seed=4)
            adam = AdamState.zeros(params)
            joint_step(pairs, params, cfg, self.vocab, self.lookup, self.tcfg, adam, np.random.default_rng(2))
            return params

        with_dropout = one_step(drop_cfg)
        replay = one_step(drop_cfg)
        without = one_step(self.CFG)
        for k in with_dropout:
            assert np.array_equal(with_dropout[k], replay[k])
        assert any(not np.array_equal(with_dropout[k], without[k]) for k in with_dropout)

    def test_unknown_doc_id_errors(self):
        params = init_params(self.CFG, seed=0)
        adam = AdamState.zeros(params)
        pair = make_pair("qdm", ["t0"], "A", "B")

        def lookup(pid):
            raise TrainError(f"pair references unknown page {pid!r}")

        with pytest.raises(TrainError, match="unknown page"):
            joint_step([pair], params, self.CFG, self.vocab, lookup, self.tcfg, adam, np.random.default_rng(0))


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

    def test_warmup_runs_and_is_deterministic(self, corpus):
        vocab, _, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=48, seed=2, summary_max_tokens=24, max_steps=4)
        w1 = mlm_warmup(corpus, enc, tcfg, vocab)
        w2 = mlm_warmup(corpus, enc, tcfg, vocab)
        init = init_params(enc, tcfg.seed)
        assert any(not np.array_equal(w1[k], init[k]) for k in w1)
        for k in w1:
            assert np.array_equal(w1[k], w2[k])

    def test_pairwise_accuracy_range(self, corpus):
        vocab, pairs, enc = self.make_setup(corpus)
        tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, max_len=48, seed=5, summary_max_tokens=24)
        params = init_params(enc, 0)
        acc = pairwise_accuracy(pairs, params, enc, vocab, corpus, tcfg)
        assert 0.0 <= acc <= 1.0
