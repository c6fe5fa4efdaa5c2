import math

import numpy as np
import pytest

from anchorrank import ranker
from anchorrank.corpus import build_vocab
from anchorrank.encoder import EncoderConfig, encode, init_params, save_checkpoint
from anchorrank.ranker import (
    DocRecord,
    FinetuneConfig,
    RankerModel,
    RankingExample,
    collection_from_corpus,
    document_text,
    examples_from_candidates,
    finetune,
    load_model,
    read_candidates,
    read_collection,
    read_queries,
    rerank,
    score,
    write_candidates,
    write_collection,
    write_queries,
)

def make_model(corpus, seed=0, zero_head=False):
    vocab = build_vocab(corpus, max_size=300)
    cfg = EncoderConfig(layers=1, heads=2, hidden=32, ffn_dim=64, vocab_size=len(vocab), max_len=48)
    params = init_params(cfg, seed=seed)
    if zero_head:
        params["cls_w2"][:] = 0.0
        params["cls_b2"][:] = 0.0
    return RankerModel(params=params, config=cfg, vocab=vocab)


class TestDocumentText:
    def test_concatenation_order(self):
        doc = DocRecord(id="d", title="a", url="u", body="b c")
        assert document_text(doc) == ["a", "u", "b", "c"]

    def test_empty_url(self):
        doc = DocRecord(id="d", title="title", url="", body="body")
        assert document_text(doc) == ["title", "body"]

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            document_text(DocRecord(id="d", title="", url="", body=""))

    def test_url_tokenized(self):
        doc = DocRecord(id="d", title="", url="https://example.org/ocean", body="")
        assert document_text(doc) == ["https", "example", "org", "ocean"]

    def test_returned_list_does_not_alias_cached_tokens(self):
        doc = DocRecord(id="d", title="a", url="u", body="b c")
        tokens = document_text(doc)
        tokens[0] = "z"
        tokens.append("extra")
        assert document_text(doc) == ["a", "u", "b", "c"]
        assert doc.tokens == ("a", "u", "b", "c")


class TestScore:
    def test_zero_head_scores_half(self, corpus):
        model = make_model(corpus, zero_head=True)
        doc = collection_from_corpus(corpus)["mac"]
        assert score(model, "laptop hardware", doc) == pytest.approx(0.5)

    def test_strictly_in_unit_interval(self, corpus):
        model = make_model(corpus)
        docs = collection_from_corpus(corpus)
        for doc in docs.values():
            s = score(model, "water stream", doc)
            assert 0.0 < s < 1.0

    def test_uniform_prediction_bce_is_log_two(self):
        s = 0.5
        loss = -(1 * math.log(s) + 0 * math.log(1 - s))
        assert loss == pytest.approx(math.log(2), abs=1e-12)


class TestFinetune:
    def setup_examples(self, corpus):
        collection = collection_from_corpus(corpus)
        examples = [
            RankingExample("q1", "laptop hardware computer", "mac", 1),
            RankingExample("q1", "laptop hardware computer", "river", 0),
            RankingExample("q2", "orchard fruit trees", "fruit", 1),
            RankingExample("q2", "orchard fruit trees", "company", 0),
            RankingExample("q3", "water stream valleys", "river", 1),
            RankingExample("q3", "water stream valleys", "mac", 0),
        ]
        return collection, examples

    def test_non_binary_label_rejected(self, corpus):
        collection, _ = self.setup_examples(corpus)
        model = make_model(corpus)
        bad = [RankingExample("q", "text", "mac", 2)]
        with pytest.raises(ValueError, match="binary"):
            finetune(model, bad, collection, FinetuneConfig(epochs=1))

    def test_unknown_doc_rejected(self, corpus):
        collection, _ = self.setup_examples(corpus)
        model = make_model(corpus)
        bad = [RankingExample("q", "text", "missing", 1)]
        with pytest.raises(ValueError, match="unknown document"):
            finetune(model, bad, collection, FinetuneConfig(epochs=1))

    def test_zero_epochs_keeps_params_bitwise(self, corpus):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        tuned = finetune(model, examples, collection, FinetuneConfig(epochs=0))
        for k in model.params:
            assert np.array_equal(tuned.params[k], model.params[k])
        ids = np.array([2, 6, 7, 3])
        h0, _ = encode(model.params, model.config, ids)
        h1, _ = encode(tuned.params, tuned.config, ids)
        assert np.array_equal(h0, h1)

    def test_input_model_never_mutated(self, corpus):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        before = {k: v.copy() for k, v in model.params.items()}
        finetune(model, examples, collection, FinetuneConfig(lr=1e-3, epochs=2, batch_size=3))
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_learns_separable_toy_data(self, corpus):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus, seed=3)
        cfg = FinetuneConfig(lr=3e-3, epochs=40, batch_size=6, max_len=48, seed=1, max_steps=60)
        tuned = finetune(model, examples, collection, cfg)
        wins = 0
        for qid, text in [("q1", "laptop hardware computer"), ("q2", "orchard fruit trees"), ("q3", "water stream valleys")]:
            pos = next(e.doc_id for e in examples if e.query_id == qid and e.label == 1)
            neg = next(e.doc_id for e in examples if e.query_id == qid and e.label == 0)
            if score(tuned, text, collection[pos]) > score(tuned, text, collection[neg]):
                wins += 1
        assert wins >= 2

    def test_warmup_schedule_positive_steps(self, corpus):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        # warmup of 0 steps would divide by zero; config guards the range
        with pytest.raises(ValueError):
            FinetuneConfig(warmup=1.0)
        tuned = finetune(model, examples, collection, FinetuneConfig(lr=1e-3, epochs=1, batch_size=2, warmup=0.5))
        assert any(not np.array_equal(tuned.params[k], model.params[k]) for k in model.params)


class TestRerank:
    def test_single_candidate(self, corpus):
        model = make_model(corpus)
        collection = collection_from_corpus(corpus)
        out = rerank(model, "any query", [("mac", 9.0)], k=10, collection=collection)
        assert [d for d, _ in out] == ["mac"]

    def test_ties_preserve_input_order(self, corpus):
        model = make_model(corpus, zero_head=True)  # all scores 0.5
        collection = collection_from_corpus(corpus)
        candidates = [("river", 3.0), ("mac", 2.0), ("fruit", 1.0)]
        out = rerank(model, "query text", candidates, k=10, collection=collection)
        assert [d for d, _ in out] == ["river", "mac", "fruit"]

    def test_k_truncates(self, corpus):
        model = make_model(corpus)
        collection = collection_from_corpus(corpus)
        candidates = [("river", 3.0), ("mac", 2.0), ("fruit", 1.0), ("company", 0.5)]
        out = rerank(model, "query", candidates, k=2, collection=collection)
        assert len(out) == 2

    def test_permutation_prefix_of_input(self, corpus):
        model = make_model(corpus, seed=5)
        collection = collection_from_corpus(corpus)
        candidates = [("river", 3.0), ("mac", 2.0), ("fruit", 1.0), ("company", 0.5)]
        out = rerank(model, "technology company", candidates, k=10, collection=collection)
        assert sorted(d for d, _ in out) == sorted(d for d, _ in candidates)

    def test_monotone_score_transform_keeps_order(self, corpus):
        model = make_model(corpus, seed=5)
        collection = collection_from_corpus(corpus)
        candidates = [("river", 3.0), ("mac", 2.0), ("fruit", 1.0), ("company", 0.5)]
        base = rerank(model, "technology company", candidates, k=10, collection=collection)
        shifted = RankerModel(
            params={k: v.copy() for k, v in model.params.items()},
            config=model.config,
            vocab=model.vocab,
        )
        shifted.params["cls_b2"][:] += 3.0  # strictly increasing transform of every score
        again = rerank(shifted, "technology company", candidates, k=10, collection=collection)
        assert [d for d, _ in base] == [d for d, _ in again]

    def test_each_document_tokenized_once(self, corpus, monkeypatch):
        model = make_model(corpus)
        collection = collection_from_corpus(corpus)
        calls = []
        real_tokenize = ranker.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(ranker, "tokenize", counting_tokenize)
        candidates = [(doc_id, 1.0) for doc_id in sorted(collection)]
        queries = ["laptop hardware", "orchard fruit", "water stream", "laptop hardware"]
        for query in queries:
            rerank(model, query, candidates, k=3, collection=collection)
        # one call per query, three per document (title, url, body)
        assert len(calls) == len(queries) + 3 * len(collection)


class TestModelIO:
    def test_load_model_round_trip(self, corpus, tmp_path):
        model = make_model(corpus)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, model.config, extra={"vocab": model.vocab.id_to_term})
        loaded = load_model(path)
        assert loaded.vocab.id_to_term == model.vocab.id_to_term
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])

    def test_checkpoint_without_vocab_rejected(self, corpus, tmp_path):
        model = make_model(corpus)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, model.config, extra={})
        with pytest.raises(ValueError, match="vocabulary"):
            load_model(path)


class TestDataFiles:
    def test_collection_round_trip(self, corpus, tmp_path):
        collection = collection_from_corpus(corpus)
        path = tmp_path / "collection.jsonl"
        write_collection(collection, path)
        assert read_collection(path) == collection

    def test_candidates_round_trip(self, tmp_path):
        cands = {"q1": [("d1", 9.5), ("d2", 8.0)], "q2": [("d3", 1.0)]}
        path = tmp_path / "cands.txt"
        write_candidates(cands, path)
        assert read_candidates(path) == cands

    def test_queries_round_trip(self, tmp_path):
        queries = {"q1": "laptop hardware", "q2": "orchard fruit"}
        path = tmp_path / "queries.tsv"
        write_queries(queries, path)
        assert read_queries(path) == queries

    def test_examples_from_candidates(self):
        queries = {"q1": "text"}
        cands = {"q1": [("d1", 2.0), ("d2", 1.0)]}
        qrels = {"q1": {"d1": 2}}
        examples = examples_from_candidates(queries, cands, qrels)
        assert [(e.doc_id, e.label) for e in examples] == [("d1", 1), ("d2", 0)]
