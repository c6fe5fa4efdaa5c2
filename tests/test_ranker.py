import logging
import math
import re
import resource
import tracemalloc

import numpy as np
import pytest

from anchorrank import ranker
from anchorrank.corpus import SPECIAL_TOKENS, build_vocab, tokenize
from anchorrank.encoder import CheckpointError, EncoderConfig, EncoderGraph, init_params, load_checkpoint, save_checkpoint
from anchorrank.encoder import model as model_module
from anchorrank.evalkit import read_run
from anchorrank.pretrain import TrainError, pack_input, run_steps
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
    read_collection,
    read_queries,
    rerank,
    score,
    write_collection,
    write_queries,
)
from anchorrank.synth import SynthConfig, build_retrieval_split, build_synthetic_corpus, synth_dataset
from util import encode

def make_model(corpus, seed=0, zero_head=False, layers=1):
    vocab = build_vocab(corpus, max_size=300)
    cfg = EncoderConfig(layers=layers, heads=2, hidden=32, ffn_dim=64, vocab_size=len(vocab), max_len=48)
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

    def test_max_steps_zero_keeps_params_bitwise(self, corpus, tmp_path):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        cfg = FinetuneConfig(lr=1e-3, epochs=2, batch_size=2, max_steps=0)
        tuned = finetune(model, examples, collection, cfg, checkpoint_path=tmp_path / "f.ckpt")
        for k in model.params:
            assert np.array_equal(tuned.params[k], model.params[k])
        assert load_checkpoint(tmp_path / "f.ckpt").extra["steps"] == 0

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            FinetuneConfig(max_steps=-3)

    def test_no_examples_is_a_train_error_and_writes_nothing(self, corpus, tmp_path):
        collection, _ = self.setup_examples(corpus)
        with pytest.raises(TrainError, match="no fine-tuning examples"):
            finetune(make_model(corpus), [], collection, FinetuneConfig(epochs=3), checkpoint_path=tmp_path / "f.ckpt")
        assert not (tmp_path / "f.ckpt").exists()

    def test_non_finite_loss_is_a_train_error(self, corpus):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        model.params["cls_b2"][:] = np.nan
        with pytest.raises(TrainError, match="non-finite"), np.errstate(invalid="ignore"):
            finetune(model, examples, collection, FinetuneConfig(lr=1e-3, epochs=1, batch_size=2))

    def test_one_log_record_per_step(self, corpus, caplog):
        # the benchmark times training steps from these records
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        cfg = FinetuneConfig(lr=1e-3, epochs=3, batch_size=4, log_every=1, max_steps=3)
        caplog.set_level(logging.INFO, logger="anchorrank.ranker")
        finetune(model, examples, collection, cfg)
        records = [r for r in caplog.records if r.name == "anchorrank.ranker"]
        assert [r.getMessage().split()[2] for r in records] == ["1/3", "2/3", "3/3"]

    def test_input_model_never_mutated(self, corpus):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        before = {k: v.copy() for k, v in model.params.items()}
        finetune(model, examples, collection, FinetuneConfig(lr=1e-3, epochs=2, batch_size=3))
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_each_query_tokenized_once(self, corpus, monkeypatch):
        collection, examples = self.setup_examples(corpus)
        model = make_model(corpus)
        for doc in collection.values():
            doc.tokens  # documents cache their tokens; only queries are counted
        calls = []
        real_tokenize = ranker.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(ranker, "tokenize", counting_tokenize)
        finetune(model, examples, collection, FinetuneConfig(lr=1e-3, epochs=3, batch_size=2))
        assert sorted(calls) == sorted({ex.query_text for ex in examples})

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

    @pytest.mark.parametrize("value", [1.0, -0.1, float("nan")])
    def test_bad_warmup_rejected_naming_rule_and_value(self, value):
        with pytest.raises(ValueError) as info:
            FinetuneConfig(warmup=value)
        assert str(info.value) == f"warmup must be in [0, 1), got {value}"


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

    def test_overlong_query_returns_a_valid_list(self, corpus):
        # 60 tokens against max_len 48: the query is cut, not rejected
        model = make_model(corpus, seed=5)
        collection = collection_from_corpus(corpus)
        candidates = [("river", 3.0), ("mac", 2.0), ("fruit", 1.0), ("company", 0.5)]
        query = " ".join(["technology", "company", "river", "fruit"] * 15)
        out = rerank(model, query, candidates, k=3, collection=collection)
        assert len(out) == 3 and len({d for d, _ in out}) == 3
        assert {d for d, _ in out} <= {d for d, _ in candidates}
        assert all(0.0 < s < 1.0 for _, s in out)

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


def stack_collection(corpus):
    """Ten long documents, which fill max_len 48 behind a two-word query,
    and one short one: 11 candidates that pack to two lengths."""
    words = " ".join(page.text for page in corpus.iter_pages()).split()
    docs = {f"long{i}": DocRecord(id=f"long{i}", title="", url="", body=" ".join(words[3 * i : 3 * i + 60])) for i in range(10)}
    docs["short"] = DocRecord(id="short", title="orchard", url="", body="fruit")
    return docs


class TestStackedRerank:
    QUERY = "technology company"

    def per_candidate(self, model, candidates, collection, k):
        scored = [(ranker.score_tokens(model, tokenize(self.QUERY), collection[d].tokens), i) for i, (d, _) in enumerate(candidates)]
        scored.sort(key=lambda t: (-t[0], t[1]))
        return [(candidates[i][0], s) for s, i in scored[:k]]

    def test_two_lengths_return_the_per_candidate_list(self, corpus):
        model = make_model(corpus, seed=5)
        collection = stack_collection(corpus)
        candidates = [(doc_id, 1.0) for doc_id in ["long0", "long1", "long2", "long3", "short", *[f"long{i}" for i in range(4, 10)]]]
        lengths = {len(pack_input(tokenize(self.QUERY), collection[d].tokens, model.vocab, 48)[0]) for d, _ in candidates}
        assert lengths == {7, 48}
        for k in (3, len(candidates)):
            assert rerank(model, self.QUERY, candidates, k=k, collection=collection) == self.per_candidate(model, candidates, collection, k)

    def test_peak_memory_bounded_by_the_stack_budget(self, corpus):
        # a stack holds at most STACK_TOKENS tokens, so 30 candidates of
        # max_len 48 peak where 8 do; one stack of 30 would peak at ~3.5x
        vocab = build_vocab(corpus, max_size=300)
        cfg = EncoderConfig(layers=1, heads=4, hidden=64, ffn_dim=256, vocab_size=len(vocab), max_len=48)
        model = RankerModel(params=init_params(cfg, seed=3), config=cfg, vocab=vocab)
        collection = stack_collection(corpus)
        collection.update({f"copy{i}": DocRecord(id=f"copy{i}", title="", url="", body=collection[f"long{i % 10}"].body) for i in range(20)})
        long_ids = [d for d in collection if d != "short"]
        assert len(long_ids) == 30

        def peak(n):
            candidates = [(d, 1.0) for d in long_ids[:n]]
            rerank(model, self.QUERY, candidates, k=5, collection=collection)  # warm the token caches
            tracemalloc.start()
            try:
                rerank(model, self.QUERY, candidates, k=5, collection=collection)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(30) <= 1.25 * peak(8)


def per_example_finetune(model, examples, collection, config):
    """The fine-tuning loop of one graph per example, in batch order: what
    finetune's stacked step must equal to the bit."""
    params = {k: v.copy() for k, v in model.params.items()}

    def body(indices, grads):
        loss = 0.0
        for ex in [examples[i] for i in indices]:
            packed = pack_input(tokenize(ex.query_text), collection[ex.doc_id].tokens, model.vocab, config.max_len)
            graph = EncoderGraph(params, model.config, *packed, outputs=[0])
            s = ranker._sigmoid(graph.cls_score())
            loss += -(ex.label * math.log(s + 1e-12) + (1 - ex.label) * math.log(1.0 - s + 1e-12))
            graph.backward(grads, d_score=(s - ex.label) / len(indices))
        return {"total": loss / len(indices)}

    run_steps(len(examples), config, "finetune", params, body, logging.getLogger("reference"), config.warmup)
    return params


class RecordingGraph(EncoderGraph):
    """EncoderGraph that keeps the shape of every stack it is built on."""

    shapes: list = []

    def __init__(self, params, config, token_ids, *args, **kwargs):
        super().__init__(params, config, token_ids, *args, **kwargs)
        RecordingGraph.shapes.append(self.token_ids.shape)


class TestStackedFinetune:
    QUERIES = ["technology company", "orchard fruit", "water"]

    @pytest.mark.parametrize("stack_tokens", [model_module.STACK_TOKENS, 100])
    def test_mixed_lengths_match_the_per_example_loop(self, corpus, monkeypatch, stack_tokens):
        # three queries of different lengths against ten documents that
        # fill max_len and one short one: batches hold runs of several
        # lengths, and a stack budget of 100 tokens cuts the 48-token runs
        model = make_model(corpus, seed=2, layers=2)
        collection = stack_collection(corpus)
        docs = [f"long{i}" for i in range(10)] + ["short"] * 4
        examples = [RankingExample(f"q{i % 3}", self.QUERIES[i % 3], d, int(i % 4 == 0)) for i, d in enumerate(docs)]
        cfg = FinetuneConfig(lr=1e-3, epochs=3, batch_size=6, max_len=48, seed=4)
        monkeypatch.setattr(model_module, "STACK_TOKENS", stack_tokens)
        monkeypatch.setattr(ranker, "EncoderGraph", RecordingGraph)
        monkeypatch.setattr(RecordingGraph, "shapes", [])
        tuned = finetune(model, examples, collection, cfg)
        want = per_example_finetune(model, examples, collection, cfg)
        for k in want:
            assert tuned.params[k].tobytes() == want[k].tobytes(), k
        shapes = RecordingGraph.shapes
        assert len({n for _, n in shapes}) >= 3 and max(b for b, _ in shapes) > 1
        assert len(shapes) > 9  # more stacks than the 9 steps
        assert all(b * n <= stack_tokens or b == 1 for b, n in shapes)

    @pytest.mark.parametrize("window", [24, 64])
    def test_packs_to_the_encoders_window_whatever_the_config_says(self, corpus, window):
        # the long documents fill the 48-token encoder: a config window of
        # 64 once overran it at the first step, and one of 24 trained on
        # shorter packings than rerank makes
        model = make_model(corpus, seed=2)
        collection = stack_collection(corpus)
        examples = [RankingExample("q", "technology company", d, int(d == "short")) for d in collection]

        def tuned(max_len):
            cfg = FinetuneConfig(lr=1e-3, epochs=2, batch_size=4, max_len=max_len, seed=4)
            return finetune(model, examples, collection, cfg).params

        want, got = tuned(48), tuned(window)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k

    @staticmethod
    def toy_finetune(corpus):
        # the toy profile's encoder, whose 8 x 48 stacks make arrays that
        # glibc's default thresholds map fresh and return after every step
        vocab = build_vocab(corpus, max_size=300)
        cfg = EncoderConfig(layers=2, heads=4, hidden=64, ffn_dim=256, vocab_size=len(vocab), max_len=48)
        model = RankerModel(params=init_params(cfg, seed=0), config=cfg, vocab=vocab)
        examples = [RankingExample("q", "technology company", f"long{i}", i % 2) for i in range(8)]
        return model, examples, stack_collection(corpus), FinetuneConfig(lr=1e-3, epochs=4, batch_size=8, max_len=48)

    @pytest.mark.skipif(model_module.MALLOPT is None, reason="the C library has no mallopt")
    def test_consecutive_steps_compute_in_the_same_buffers(self, corpus, monkeypatch):
        # after the first step, each step's arrays reuse the heap memory the
        # one before freed: about 1,400 minor faults per step without the
        # encoder's allocator setting, almost none with it
        faults = []

        def counting_run_steps(n, config, stage, params, body, *rest):
            def counted(indices, grads):
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
                return body(indices, grads)

            out = run_steps(n, config, stage, params, counted, *rest)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return out

        monkeypatch.setattr(ranker, "run_steps", counting_run_steps)
        finetune(*self.toy_finetune(corpus))
        assert len(faults) == 5  # four steps and the end
        assert faults[-1] - faults[1] < 100

    def test_buffers_released_on_return(self, corpus):
        # finetune keeps no array of its steps once it returns: what stays
        # traced is the returned model's parameters and no more
        model, examples, collection, config = self.toy_finetune(corpus)
        finetune(model, examples, collection, config)  # warm the token caches
        tracemalloc.start()
        try:
            tuned = finetune(model, examples, collection, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params_bytes = sum(p.nbytes for p in tuned.params.values())
        assert peak > kept + params_bytes  # the steps did make arrays
        assert kept < params_bytes + 64 * 1024


class TestModelIO:
    def test_load_model_round_trip(self, corpus, tmp_path):
        model = make_model(corpus)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.params, model.config, extra={"vocab": model.vocab.id_to_term})
        loaded = load_model(path)
        assert loaded.vocab.id_to_term == model.vocab.id_to_term
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])

    @pytest.mark.parametrize(
        "terms",
        [list("abcdefgh"), [*SPECIAL_TOKENS, "x", "x", "y"], "abcdefgh", [*SPECIAL_TOKENS, "x"]],
        ids=["no-special-tokens", "repeated-term", "string", "too-few-terms"],
    )
    def test_bad_vocabulary_rejected(self, terms, tmp_path):
        cfg = EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, vocab_size=8, max_len=16)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params(cfg, seed=0), cfg, extra={"vocab": terms})
        with pytest.raises(CheckpointError, match="vocabulary") as info:
            load_model(path)
        assert str(path) in str(info.value)

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

    @pytest.mark.parametrize("field", ["id", "title", "url", "body"])
    @pytest.mark.parametrize("value", [7, None, ["x"]])
    def test_collection_non_string_field_rejected(self, tmp_path, field, value):
        import json

        rec = {"id": "d1", "title": "t", "url": "u", "body": "b", field: value}
        path = tmp_path / "collection.jsonl"
        path.write_text(json.dumps({"id": "d0", "body": "x"}) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="line 2: id, title, url and body must be strings") as info:
            read_collection(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "rec", [{"id": "d2", "title": "", "url": "", "body": ""}, {"id": "d2"}], ids=["empty-fields", "no-fields"]
    )
    def test_document_without_text_rejected(self, tmp_path, rec):
        import json

        path = tmp_path / "collection.jsonl"
        path.write_text(json.dumps({"id": "d1", "title": "t", "url": "", "body": ""}) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="line 2: document 'd2' has no text") as info:
            read_collection(path)
        assert str(path) in str(info.value)

    def test_candidates_round_trip(self, tmp_path):
        # synth writes both splits' candidate lists as runs that read back,
        # in order, as the lists it built
        cfg = SynthConfig(pages=40, topics=4, train_queries=8, eval_queries=6, candidates_per_query=5, seed=7)
        paths = synth_dataset(tmp_path, cfg)
        train, eval_split = build_retrieval_split(cfg, build_synthetic_corpus(cfg)[1])
        for split, name in ((train, "train_candidates"), (eval_split, "eval_candidates")):
            assert list(read_run(paths[name]).items()) == list(split["candidates"].items())
        assert ranker.read_candidates is read_run  # the name bench/run.py's train set-up reads them by

    @pytest.mark.parametrize("field, value, minimum", [
        ("train_queries", -5, 0),
        ("eval_queries", -1, 0),
        ("candidates_per_query", 0, 1),
        ("train_queries", 2.0, 0),
        ("candidates_per_query", True, 1),
        ("pages", 40.5, 2),
        ("topics", 4.0, 1),
    ], ids=["train-negative", "eval-negative", "candidates-zero", "train-float", "candidates-bool", "pages-float", "topics-float"])
    def test_bad_synth_count_rejected_naming_rule_and_value(self, field, value, minimum):
        with pytest.raises(ValueError) as info:
            SynthConfig(**{field: value})
        assert str(info.value) == f"{field} must be an integer >= {minimum}, got {value!r}"

    @pytest.mark.parametrize("pages, topics, limit", [(200, 8, 180), (16, 2, 13), (40, 4, 35), (9, 4, 9)])
    def test_candidates_per_query_limit_filled_and_one_more_rejected(self, pages, topics, limit):
        # a query draws its page, up to 4 pages of its own topic and the
        # pages of other topics; the largest topic leaves the fewest
        small = {"pages": pages, "topics": topics, "train_queries": 2, "eval_queries": 2}
        cfg = SynthConfig(**small, candidates_per_query=limit)
        for split in build_retrieval_split(cfg, build_synthetic_corpus(cfg)[1]):
            assert {len(c) for c in split["candidates"].values()} == {limit}
        with pytest.raises(ValueError) as info:
            SynthConfig(**small, candidates_per_query=limit + 1)
        assert str(info.value) == (
            f"candidates_per_query must be at most {limit} for these pages and topics, got {limit + 1}"
        )

    def test_queries_round_trip(self, tmp_path):
        queries = {"q1": "laptop hardware", "q2": "orchard fruit"}
        path = tmp_path / "queries.tsv"
        write_queries(queries, path)
        assert read_queries(path) == queries

    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tlaptop hardware\nq2\torchard fruit\nq1\triver delta\n")
        with pytest.raises(ValueError, match="line 3: duplicate query id 'q1'") as info:
            read_queries(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text", ["", "!!!", " - "], ids=["empty", "punctuation", "dash"])
    def test_query_without_words_rejected(self, text, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text(f"q1\tlaptop hardware\nq2\t{text}\n")
        with pytest.raises(ValueError, match="line 2: query 'q2' has no word token") as info:
            read_queries(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("qid", ["", "q 1", "q1 "], ids=["empty", "inner-space", "trailing-space"])
    def test_query_id_a_run_cannot_hold_rejected(self, qid, tmp_path):
        # a run line is whitespace-separated: such a qid would be written as
        # a line that read_run refuses
        path = tmp_path / "queries.tsv"
        path.write_text(f"q0\tlaptop hardware\n{qid}\tfoo bar\n")
        message = f"line 2: query id {qid!r} is empty or holds whitespace"
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            read_queries(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("doc_id", ["", "d 1", "\td1"], ids=["empty", "inner-space", "leading-tab"])
    def test_document_id_a_run_cannot_hold_rejected(self, doc_id, tmp_path):
        import json

        path = tmp_path / "collection.jsonl"
        path.write_text(json.dumps({"id": "d0", "body": "x"}) + "\n" + json.dumps({"id": doc_id, "body": "y"}) + "\n")
        message = f"line 2: document id {doc_id!r} is empty or holds whitespace"
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            read_collection(path)
        assert str(path) in str(info.value)

    def test_examples_from_candidates(self):
        queries = {"q1": "text"}
        cands = {"q1": [("d1", 2.0), ("d2", 1.0)]}
        qrels = {"q1": {"d1": 2}}
        examples = examples_from_candidates(queries, cands, qrels)
        assert [(e.doc_id, e.label) for e in examples] == [("d1", 1), ("d2", 0)]

    def test_candidate_query_without_text_rejected(self):
        # a query missing from queries is an error, not a silently dropped list
        with pytest.raises(ValueError, match="candidate query 'ghost' has no query text"):
            examples_from_candidates({"q1": "text"}, {"q1": [("d1", 1.0)], "ghost": [("d1", 1.0)]}, {})
