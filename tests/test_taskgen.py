import numpy as np
import pytest

from anchorrank.corpus import Vocabulary, anchor_occurrence_index, build_vocab, tokenize
from anchorrank.sampler import default_stopwords, poisson_length
from anchorrank.taskgen import (
    PairGenerator,
    PretrainPair,
    TaskGenConfig,
    build_acm_pair,
    build_qdm_pair,
    build_rdp_pair,
    build_rqp_pair,
    derive_rng,
    mix_tasks,
    read_pairs,
    sentence_query_tokens,
    write_pairs,
)
from conftest import TableAttentionSampler


def news_sentence(corpus, index):
    return corpus.pages["news"].sentences[index]


def make_sampler(corpus, **kwargs):
    vocab = build_vocab(corpus, max_size=500)
    kwargs.setdefault("stopwords", default_stopwords())
    return TableAttentionSampler(vocab, **kwargs)


def seed_with_poisson_value(lam, want):
    for seed in range(1000):
        if poisson_length(lam, np.random.default_rng(seed)) == want:
            return seed
    raise AssertionError("no seed found")


class TestRQP:
    def test_worked_example(self, corpus):
        sent = news_sentence(corpus, 0)
        anchor = next(a for a in sent.anchors if a.surface == "MacBook Pro")
        sampler = make_sampler(corpus, context_weights={"unveiled": 60.0, "laptop": 60.0})
        seed = seed_with_poisson_value(3.0, 2)
        pair = build_rqp_pair(sent, anchor, corpus, sampler, np.random.default_rng(seed), lam=3.0)
        assert pair is not None
        assert pair.query_tokens == ["macbook pro", "unveiled", "laptop"]
        assert pair.pos_doc_id == pair.neg_doc_id == "mac"
        assert len(pair.neg_query_tokens) == 3

    def test_negative_never_contains_anchor_terms(self, corpus):
        sent = news_sentence(corpus, 0)
        anchor = next(a for a in sent.anchors if a.surface == "MacBook Pro")
        sampler = make_sampler(corpus)
        for seed in range(25):
            pair = build_rqp_pair(sent, anchor, corpus, sampler, np.random.default_rng(seed))
            if pair is None:
                continue
            for element in pair.neg_query_tokens:
                assert "macbook" not in element.split()
                assert "pro" not in element.split()

    def test_equal_lengths_always(self, corpus):
        sent = news_sentence(corpus, 0)
        sampler = make_sampler(corpus)
        for seed in range(25):
            for anchor in sent.anchors:
                pair = build_rqp_pair(sent, anchor, corpus, sampler, np.random.default_rng(seed))
                if pair is not None:
                    assert len(pair.neg_query_tokens) == len(pair.query_tokens)
                    assert pair.query_tokens[0] == anchor.normalized_surface()

    def test_self_link_skipped(self, corpus):
        sent = news_sentence(corpus, 2)
        anchor = sent.anchors[0]
        assert anchor.target_id == "news"
        sampler = make_sampler(corpus)
        assert build_rqp_pair(sent, anchor, corpus, sampler, np.random.default_rng(0)) is None


class TestQDM:
    def test_ambiguous_surface_pair(self, corpus):
        index = anchor_occurrence_index(corpus)
        sampler = make_sampler(corpus)
        pair = build_qdm_pair("apple", index["apple"], corpus, sampler, np.random.default_rng(3))
        assert pair is not None
        assert pair.pos_doc_id != pair.neg_doc_id
        assert sorted([pair.pos_doc_id, pair.neg_doc_id]) == ["company", "fruit"]

    def test_single_destination_no_pair(self, corpus):
        index = anchor_occurrence_index(corpus)
        sampler = make_sampler(corpus)
        assert build_qdm_pair("macbook pro", index["macbook pro"], corpus, sampler, np.random.default_rng(0)) is None

    def test_pos_neg_distinct_over_seeds(self, corpus):
        index = anchor_occurrence_index(corpus)
        sampler = make_sampler(corpus)
        for seed in range(20):
            pair = build_qdm_pair("apple", index["apple"], corpus, sampler, np.random.default_rng(seed))
            assert pair is None or pair.pos_doc_id != pair.neg_doc_id


class TestRDP:
    def test_high_importance_anchor_wins(self, corpus):
        sent = news_sentence(corpus, 0)
        sampler = make_sampler(corpus, row_toward_cls={"apple": 0.9, "macbook": 0.1, "pro": 0.1})
        pair = build_rdp_pair(sent, corpus, sampler, np.random.default_rng(0))
        assert pair is not None
        assert pair.pos_doc_id == "company"
        assert pair.neg_doc_id == "mac"
        assert pair.provenance["pos_importance"] >= pair.provenance["neg_importance"]

    def test_tie_breaks_by_sentence_position(self, corpus):
        sent = news_sentence(corpus, 0)
        sampler = make_sampler(corpus, row_toward_cls={"apple": 0.4, "macbook": 0.4, "pro": 0.4})
        pair = build_rdp_pair(sent, corpus, sampler, np.random.default_rng(0))
        assert pair is not None
        # "apple" occurs before "macbook pro": equal importance -> earlier wins
        assert pair.pos_doc_id == "company"

    def test_query_is_full_sentence_with_phrases(self, corpus):
        sent = news_sentence(corpus, 0)
        sampler = make_sampler(corpus)
        pair = build_rdp_pair(sent, corpus, sampler, np.random.default_rng(1))
        assert pair is not None
        assert pair.query_tokens == sentence_query_tokens(sent)
        assert "macbook pro" in pair.query_tokens
        assert pair.query_tokens[:2] == ["apple", "unveiled"]

    def test_single_anchor_sentence_skipped(self, corpus):
        sent = news_sentence(corpus, 1)
        sampler = make_sampler(corpus)
        assert build_rdp_pair(sent, corpus, sampler, np.random.default_rng(0)) is None


class TestACM:
    def test_negative_excludes_both_pages(self, corpus):
        sent = news_sentence(corpus, 0)
        sampler = make_sampler(corpus)
        for seed in range(20):
            pair = build_acm_pair(sent, corpus, sampler, np.random.default_rng(seed))
            assert pair is not None
            assert pair.neg_doc_id not in (pair.pos_doc_id, corpus.pages[pair.pos_doc_id].id)
            q_anchor = pair.provenance["query_anchor"]
            assert pair.neg_doc_id != corpus.pages[sent.page_id].id or pair.neg_doc_id == "news"
            assert pair.query_tokens[0] == q_anchor

    def test_three_page_corpus_forces_negative(self, corpus):
        # restrict to news + the two anchored pages: negative must be news
        from anchorrank.corpus import HyperlinkCorpus

        mini = HyperlinkCorpus({pid: corpus.pages[pid] for pid in ("news", "company", "mac")})
        sent = mini.pages["news"].sentences[0]
        sampler = make_sampler(mini)
        pair = build_acm_pair(sent, mini, sampler, np.random.default_rng(0))
        assert pair is not None
        assert pair.neg_doc_id == "news"

    def test_deterministic_under_seed(self, corpus):
        sent = news_sentence(corpus, 0)
        sampler = make_sampler(corpus)
        p1 = build_acm_pair(sent, corpus, sampler, np.random.default_rng(9))
        p2 = build_acm_pair(sent, corpus, sampler, np.random.default_rng(9))
        assert p1 == p2


def dummy_pairs(task, count):
    return [
        PretrainPair(task=task, query_tokens=["q"], pos_doc_id="a", neg_doc_id="b",
                     neg_query_tokens=None, provenance={}, seed_path=f"{task}/{i}")
        for i in range(count)
    ]


class TestMix:
    def test_uniform_shares_under_budget(self):
        streams = {t: dummy_pairs(t, 1000) for t in ("rqp", "qdm", "rdp", "acm")}
        mixed = list(mix_tasks(streams, np.random.default_rng(0)))
        assert len(mixed) == 4000
        head = mixed[:2000]
        for t in ("rqp", "qdm", "rdp", "acm"):
            share = sum(1 for p in head if p.task == t) / len(head)
            assert abs(share - 0.25) < 0.05

    def test_single_stream(self):
        streams = {"rqp": dummy_pairs("rqp", 5), "qdm": [], "rdp": [], "acm": []}
        mixed = list(mix_tasks(streams, np.random.default_rng(0)))
        assert [p.task for p in mixed] == ["rqp"] * 5

    def test_all_empty(self):
        assert list(mix_tasks({"rqp": [], "qdm": []}, np.random.default_rng(0))) == []

    def test_deterministic(self):
        streams1 = {t: dummy_pairs(t, 50) for t in ("rqp", "qdm")}
        streams2 = {t: dummy_pairs(t, 50) for t in ("rqp", "qdm")}
        m1 = [p.seed_path for p in mix_tasks(streams1, np.random.default_rng(4))]
        m2 = [p.seed_path for p in mix_tasks(streams2, np.random.default_rng(4))]
        assert m1 == m2


class TestGenerator:
    def test_generate_all_tasks_and_determinism(self, corpus):
        sampler = make_sampler(corpus)
        cfg = TaskGenConfig(lam=3.0, summary_max_tokens=64, seed=11)
        pairs1 = PairGenerator(corpus, sampler, cfg).generate()
        pairs2 = PairGenerator(corpus, sampler, cfg).generate()
        assert pairs1 == pairs2
        tasks = {p.task for p in pairs1}
        assert {"rqp", "qdm", "rdp", "acm"} <= tasks

    def test_no_self_link_pairs(self, corpus):
        sampler = make_sampler(corpus)
        pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=0)).generate()
        for p in pairs:
            if p.task == "rqp":
                assert p.provenance["page_id"] != p.pos_doc_id

    def test_per_task_cap(self, corpus):
        sampler = make_sampler(corpus)
        pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=0, per_task_cap=1)).generate()
        for t in ("rqp", "qdm", "rdp", "acm"):
            assert sum(1 for p in pairs if p.task == t) <= 1

    def test_pairs_file_round_trip(self, corpus, tmp_path):
        sampler = make_sampler(corpus)
        pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=5)).generate()
        path = tmp_path / "pairs.jsonl"
        n = write_pairs(pairs, path)
        assert n == len(pairs)
        assert read_pairs(path) == pairs

    def test_pairs_file_field_names(self, corpus, tmp_path):
        import json

        sampler = make_sampler(corpus)
        pairs = PairGenerator(corpus, sampler, TaskGenConfig(seed=5)).generate()
        path = tmp_path / "pairs.jsonl"
        write_pairs(pairs, path)
        with path.open() as f:
            rec = json.loads(f.readline())
        assert set(rec) == {"task", "query", "pos_doc_id", "neg_doc_id", "neg_query", "provenance", "seed_path"}


GOOD_RQP = {"task": "rqp", "query": ["a", "b"], "pos_doc_id": "d1", "neg_doc_id": "d1", "neg_query": ["c"]}


class TestReadPairsRejects:
    @pytest.mark.parametrize(
        "change, match",
        [
            ({"task": "rqq"}, "unknown task 'rqq'"),
            ({"query": "a b"}, "query is not a list of strings"),
            ({"query": ["a", 2]}, "query is not a list of strings"),
            ({"neg_query": "c"}, "neg_query is not a list of strings"),
            ({"neg_query": None}, "rqp record has no neg_query"),
            ({"pos_doc_id": ["d1"]}, "must be strings"),
        ],
    )
    def test_bad_record_names_file_and_line(self, tmp_path, change, match):
        import json

        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(GOOD_RQP) + "\n" + json.dumps({**GOOD_RQP, **change}) + "\n")
        with pytest.raises(ValueError, match=match) as info:
            read_pairs(path)
        assert f"{path}: line 2" in str(info.value)


class TestTaskGenConfig:
    def test_unknown_per_task_cap_key_rejected(self):
        with pytest.raises(ValueError, match="per_task_cap keys \\['rdpp'\\]"):
            TaskGenConfig(per_task_cap={"rdp": 3, "rdpp": 3})

    def test_non_positive_lam_rejected(self):
        with pytest.raises(ValueError, match="lam must be positive"):
            TaskGenConfig(lam=0.0)


def test_derive_rng_stable_and_independent():
    a1 = derive_rng(7, "rqp", "page", 0).integers(0, 1 << 30, 4)
    a2 = derive_rng(7, "rqp", "page", 0).integers(0, 1 << 30, 4)
    b = derive_rng(7, "rqp", "page", 1).integers(0, 1 << 30, 4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
