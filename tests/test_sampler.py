import math
from pathlib import Path

import numpy as np
import pytest

from anchorrank.corpus import CLS_TOKEN, SEP_TOKEN, AnchorSpan, Sentence, Vocabulary, tokenize
from anchorrank.encoder import EncoderConfig, stack_runs
from anchorrank.sampler import (
    AttentionSampler,
    SamplerError,
    TermDistribution,
    anchor_positions,
    default_stopwords,
    load_stopwords,
    merge_position_weights,
    normalize,
    poisson_length,
    sample_word_set,
)
from util import poisson_pmf


def make_vocab(*texts):
    terms = sorted({t for text in texts for t in tokenize(text)})
    return Vocabulary.from_terms(terms)


def make_sentence(text, surface=None, target="t1", page_id="p", index=0):
    tokens = tuple(tokenize(text))
    anchors = ()
    if surface is not None:
        sfc = tokenize(surface)
        start = None
        for i in range(len(tokens) - len(sfc) + 1):
            if list(tokens[i : i + len(sfc)]) == sfc:
                start = i
                break
        assert start is not None, f"{surface!r} not found in {text!r}"
        cstart = text.lower().index(sfc[0])
        anchors = (
            AnchorSpan(
                start=cstart,
                end=cstart + len(surface),
                surface=surface,
                target_id=target,
                token_start=start,
                token_end=start + len(sfc),
            ),
        )
    return Sentence(page_id=page_id, index=index, text=text, tokens=tokens, anchors=anchors)


class FakeAttentionSampler(AttentionSampler):
    """Deterministic attention rows from a token -> weight table."""

    def __init__(self, vocab, stopwords=frozenset(), weights=None, default=1.0):
        super().__init__(params=None, config=EncoderConfig(vocab_size=len(vocab)), vocab=vocab, stopwords=stopwords)
        self.weights = dict(weights or {})
        self.default = default

    def _stack_attention(self, sequences):
        rows = [np.array([self.weights.get(t, self.default) for t in seq], dtype=float) for seq in sequences]
        return [np.tile(row / row.sum(), (1, len(row), 1)) for row in rows]


class TestMerge:
    def test_repeated_token_sums(self):
        beta = merge_position_weights([0.1, 0.2, 0.3], ["a", "b", "a"])
        assert beta == pytest.approx({"a": 0.4, "b": 0.2})

    def test_all_distinct_is_permutation(self):
        beta = merge_position_weights([0.5, 0.2, 0.3], ["x", "y", "z"])
        assert beta == pytest.approx({"x": 0.5, "y": 0.2, "z": 0.3})

    def test_single_repeated_token(self):
        beta = merge_position_weights([0.25, 0.25, 0.5], ["t", "t", "t"])
        assert beta == pytest.approx({"t": 1.0})

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            merge_position_weights([0.5], ["a", "b"])


class TestNormalize:
    def test_uniform(self):
        dist = normalize({"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3})
        assert np.allclose(dist.probs, 0.25)

    def test_shift_invariance(self):
        beta = {"a": 0.1, "b": 0.7, "c": 0.2}
        shifted = {k: v + 123.4 for k, v in beta.items()}
        d1, d2 = normalize(beta), normalize(shifted)
        assert d1.terms == d2.terms
        assert np.allclose(d1.probs, d2.probs, atol=1e-12)

    def test_two_term_value(self):
        dist = normalize({"a": 1.0, "b": 0.0})
        assert dist.prob_of("a") == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert dist.prob_of("a") == pytest.approx(0.7311, abs=1e-4)

    def test_exclusions_and_specials_dropped(self):
        beta = {"a": 1.0, "the": 5.0, CLS_TOKEN: 9.0, SEP_TOKEN: 9.0, "b": 1.0}
        dist = normalize(beta, exclusions={"the"})
        assert set(dist.terms) == {"a", "b"}
        assert dist.prob_of("the") == 0.0
        assert abs(dist.probs.sum() - 1.0) <= 1e-9

    def test_empty_support_rejected(self):
        with pytest.raises(SamplerError):
            normalize({"the": 1.0}, exclusions={"the"})


class TestPoisson:
    def test_pmf_at_one(self):
        assert poisson_pmf(3.0, 1) == pytest.approx(3.0 * math.exp(-3.0), abs=1e-12)
        assert poisson_pmf(3.0, 1) == pytest.approx(0.14936, abs=1e-5)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        draws = [poisson_length(0.1, rng) for _ in range(2000)]
        assert min(draws) >= 1

    def test_truncated_mean(self):
        rng = np.random.default_rng(1)
        lam = 3.0
        draws = [poisson_length(lam, rng) for _ in range(20000)]
        expected = lam / (1.0 - math.exp(-lam))
        assert np.mean(draws) == pytest.approx(expected, rel=0.03)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            poisson_length(0.0, np.random.default_rng(0))


class TestSampleWordSet:
    def dist(self, probs: dict):
        terms = list(probs)
        return TermDistribution(terms=terms, probs=np.array(list(probs.values())))

    def test_all_mass_on_two_terms(self):
        d = self.dist({"a": 0.5, "b": 0.5, "c": 0.0, "d": 0.0})
        ws = sample_word_set(d, 2, rng=np.random.default_rng(0))
        assert sorted(ws) == ["a", "b"]

    def test_length_exceeds_support(self):
        d = self.dist({"a": 0.6, "b": 0.4})
        ws = sample_word_set(d, 5, rng=np.random.default_rng(0))
        assert sorted(ws) == ["a", "b"]

    def test_deterministic_under_seed(self):
        d = self.dist({"a": 0.2, "b": 0.3, "c": 0.25, "d": 0.25})
        sets = [sample_word_set(d, 2, rng=np.random.default_rng(42)) for _ in range(3)]
        assert sets[0] == sets[1] == sets[2]

    def test_anchor_head_then_source_order(self):
        d = self.dist({"first": 0.25, "second": 0.25, "third": 0.25, "fourth": 0.25})
        ws = sample_word_set(d, 4, anchor_surface="the anchor", rng=np.random.default_rng(0))
        assert ws == ["the anchor", "first", "second", "third", "fourth"]

    def test_no_duplicates(self):
        d = self.dist({"a": 0.7, "b": 0.1, "c": 0.1, "d": 0.1})
        for seed in range(20):
            ws = sample_word_set(d, 3, rng=np.random.default_rng(seed))
            assert len(set(ws)) == len(ws)


class TestAttentionSampler:
    def test_uniform_rows_give_uniform_distribution(self):
        vocab = make_vocab("red fox jumps over lazy dog")
        sampler = FakeAttentionSampler(vocab, stopwords=frozenset({"over"}))
        sent = make_sentence("red fox jumps over lazy dog", surface="fox")
        dist = sampler.anchor_term_distribution(sent, sent.anchors[0])
        # fox (anchor) and over (stopword) excluded; remaining four uniform
        assert set(dist.terms) == {"red", "jumps", "lazy", "dog"}
        assert np.allclose(dist.probs, 0.25, atol=1e-12)

    def test_concentrated_attention_dominates(self):
        vocab = make_vocab("apple unveiled the new macbook pro laptop")
        sampler = FakeAttentionSampler(vocab, stopwords=default_stopwords(), weights={"laptop": 40.0})
        sent = make_sentence("apple unveiled the new macbook pro laptop", surface="macbook pro")
        dist = sampler.anchor_term_distribution(sent, sent.anchors[0])
        assert dist.terms[int(np.argmax(dist.probs))] == "laptop"

    def test_excluded_anchor_terms_never_sampled(self):
        vocab = make_vocab("alpha beta gamma delta")
        sampler = FakeAttentionSampler(vocab)
        dist = sampler.cls_term_distribution(["alpha", "beta", "gamma", "delta"], {"beta"})
        assert dist.prob_of("beta") == 0.0
        rng = np.random.default_rng(0)
        for _ in range(200):
            ws = sample_word_set(dist, 2, rng=rng)
            assert "beta" not in ws

    def test_page_of_only_anchor_and_stopwords_errors(self):
        vocab = make_vocab("the beta of")
        sampler = FakeAttentionSampler(vocab, stopwords=frozenset({"the", "of"}))
        with pytest.raises(SamplerError):
            sampler.cls_term_distribution(["the", "beta", "of"], {"beta"})

    def test_distribution_sums_to_one(self):
        vocab = make_vocab("one two three four five six")
        sampler = FakeAttentionSampler(vocab, weights={"two": 3.0, "five": 0.1})
        dist = sampler.cls_term_distribution(["one", "two", "three", "four", "five", "six"], ())
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "probs",
        [[0.5, np.nan, 0.5], [1.0, np.inf, 0.0], [1.5, -0.5, 0.0], [1.0, 0.0, -np.inf]],
        ids=["nan", "inf", "negative", "-inf"],
    )
    def test_non_finite_or_negative_probabilities_refused(self, probs):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TermDistribution(terms=["a", "b", "c"], probs=np.array(probs))

    def test_first_draw_frequencies_match_probs(self):
        probs = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
        dist = TermDistribution(terms=list(probs), probs=np.array(list(probs.values())))
        rng = np.random.default_rng(7)
        counts = {t: 0 for t in probs}
        trials = 20000
        for _ in range(trials):
            first = None
            remaining = dist.probs.copy()
            idx = int(rng.choice(len(dist.terms), p=remaining / remaining.sum()))
            first = dist.terms[idx]
            counts[first] += 1
        for term, p in probs.items():
            assert counts[term] / trials == pytest.approx(p, abs=0.02)


class TestRealEncoderPath:
    def test_anchor_distribution_from_real_encoder(self):
        from anchorrank.encoder import EncoderConfig, init_params

        text = "quick silver wolf runs beyond frozen river tonight"
        vocab = make_vocab(text)
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=len(vocab), max_len=16)
        params = init_params(cfg, seed=0)
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        sent = make_sentence(text, surface="wolf")
        dist = sampler.anchor_term_distribution(sent, sent.anchors[0])
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9
        assert "wolf" not in dist.terms

    def test_truncated_anchor_errors(self):
        from anchorrank.encoder import EncoderConfig, init_params

        words = " ".join(f"w{i}" for i in range(20)) + " target"
        vocab = make_vocab(words)
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=len(vocab), max_len=8)
        params = init_params(cfg, seed=0)
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        sent = make_sentence(words, surface="target")
        with pytest.raises(SamplerError, match="truncated"):
            sampler.anchor_term_distribution(sent, sent.anchors[0])


def small_encoder(vocab, max_len=24, layers=2, dtype=np.float64):
    from anchorrank.encoder import EncoderConfig, init_params

    cfg = EncoderConfig(layers=layers, heads=2, hidden=16, ffn_dim=32, vocab_size=len(vocab), max_len=max_len)
    rng = np.random.default_rng(0)
    return {k: (v + rng.normal(0.0, 0.5, v.shape)).astype(dtype) for k, v in init_params(cfg, seed=0).items()}, cfg


def reference_rows(params, cfg, vocab, tokens, position_lists):
    """The sampler before its memo: one full training-graph forward per
    lookup, and each row the mean of its last-layer map over heads and over
    the sorted distinct positions."""
    from anchorrank.encoder import EncoderGraph

    seq = [CLS_TOKEN, *tokens[: cfg.max_len - 2], SEP_TOKEN]
    maps = EncoderGraph(params, cfg, vocab.encode(seq)).attention[-1]
    return seq, [maps[:, sorted(set(positions)), :].mean(axis=(0, 1)) for positions in position_lists]


class TestAttentionMemo:
    @pytest.fixture()
    def forwarded(self, monkeypatch):
        """Every EncoderGraph the sampler builds, as the token ids of each
        of its members."""
        import anchorrank.sampler as sampler_module

        graphs = []

        class CountingGraph(sampler_module.EncoderGraph):
            def __init__(self, params, config, token_ids, *args, **kwargs):
                ids = np.asarray(token_ids)
                graphs.append([tuple(row) for row in ids.reshape(-1, ids.shape[-1])])
                super().__init__(params, config, token_ids, *args, **kwargs)

        monkeypatch.setattr(sampler_module, "EncoderGraph", CountingGraph)
        return graphs

    @pytest.fixture()
    def setup(self, corpus):
        from anchorrank.corpus import build_vocab

        vocab = build_vocab(corpus, max_size=200)
        params, cfg = small_encoder(vocab)
        return corpus, vocab, params, cfg

    def test_same_distributions_and_gammas_as_uncached(self, setup):
        from anchorrank.corpus import page_summary

        corpus, vocab, params, cfg = setup
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        for _ in range(2):  # the second pass is served from the memo
            for page in corpus.iter_pages():
                summary = page_summary(page, 32)
                seq, (row,) = reference_rows(params, cfg, vocab, summary, [[0]])
                expected = normalize(merge_position_weights(row, seq), {"apple"})
                dist = sampler.cls_term_distribution(summary, {"apple"})
                assert dist.terms == expected.terms and np.array_equal(dist.probs, expected.probs)
                for sent in page.sentences:
                    positions = [[p + 1 for p in range(a.token_start, a.token_end)] for a in sent.anchors]
                    seq, rows = reference_rows(params, cfg, vocab, list(sent.tokens), positions)
                    for anchor, row in zip(sent.anchors, rows):
                        expected = normalize(merge_position_weights(row, seq), set(anchor.surface_tokens()))
                        dist = sampler.anchor_term_distribution(sent, anchor)
                        assert dist.terms == expected.terms and np.array_equal(dist.probs, expected.probs)
                    assert sampler.anchor_cls_attention(sent) == [float(row[0]) for row in rows]
        # the first anchor of a sentence fills its siblings' rows and the
        # rows anchor_cls_attention reads: one forward per sequence
        sequences = {tuple(page_summary(page, 32)) for page in corpus.iter_pages()}
        sequences |= {tuple(s.tokens) for page in corpus.iter_pages() for s in page.sentences if s.anchors}
        assert sampler.forwards == len(sequences) < sampler.lookups

    @staticmethod
    def recording_sampler(params, cfg, vocab):
        """A sampler whose three builders record the token ids of the
        sequence each one looks up, in call order."""
        looked_up = []
        sampler = AttentionSampler(params, cfg, vocab, stopwords=default_stopwords())
        for name, tokens_of in [
            ("anchor_term_distribution", lambda sentence, anchor: sentence.tokens),
            ("cls_term_distribution", lambda tokens, *rest, **kw: tokens),
            ("anchor_cls_attention", lambda sentence: sentence.tokens),
        ]:
            method = getattr(sampler, name)

            def recorded(*args, method=method, tokens_of=tokens_of, **kwargs):
                tokens = tokens_of(*args, **kwargs)[: cfg.max_len - 2]
                looked_up.append(tuple(vocab.encode([CLS_TOKEN, *tokens, SEP_TOKEN])))
                return method(*args, **kwargs)

            setattr(sampler, name, recorded)
        return sampler, looked_up

    # summaries of 9 tokens make the fixture's three summaries as long as
    # its first anchored sentence but not its second, so generate() stacks
    # four sequences that only a sort by length brings together
    GENERATE = {"lam": 2.0, "summary_max_tokens": 9, "seed": 1}

    def test_one_forward_per_distinct_sequence(self, setup, forwarded):
        from anchorrank.taskgen import PairGenerator, TaskGenConfig

        corpus, vocab, params, cfg = setup
        sampler, looked_up = self.recording_sampler(params, cfg, vocab)
        assert PairGenerator(corpus, sampler, TaskGenConfig(**self.GENERATE)).generate()
        encoded = [member for graph in forwarded for member in graph]
        assert len(looked_up) == sampler.lookups > len(set(looked_up))
        # each sequence looked up is encoded once, and none other
        assert len(encoded) == sampler.forwards == len(set(looked_up))
        assert set(encoded) == set(looked_up)

    def test_generate_builds_one_graph_per_stack(self, setup, monkeypatch):
        # every graph generate() builds is a stack of the sampler's, cut by
        # stack_runs over the distinct sequences sorted by length
        from anchorrank.encoder import EncoderGraph
        from anchorrank.taskgen import PairGenerator, TaskGenConfig

        corpus, vocab, params, cfg = setup
        shapes = []
        init = EncoderGraph.__init__

        def counting(graph, params, config, token_ids, *args, **kwargs):
            shapes.append(np.shape(token_ids))
            init(graph, params, config, token_ids, *args, **kwargs)

        monkeypatch.setattr(EncoderGraph, "__init__", counting)
        sampler, looked_up = self.recording_sampler(params, cfg, vocab)
        assert PairGenerator(corpus, sampler, TaskGenConfig(**self.GENERATE)).generate()
        lengths = sorted(len(seq) for seq in set(looked_up))
        assert shapes == [(stop - start, lengths[start]) for start, stop in stack_runs(lengths)]
        assert len(shapes) < sampler.forwards == len(lengths)

    def prime_units(self, corpus, summary_tokens):
        """Every sentence with anchors, with all their positions, and every
        page summary, with [CLS]: the units generate() primes and more."""
        from anchorrank.corpus import page_summary

        units = [(page_summary(page, summary_tokens), [[0]]) for page in corpus.iter_pages()]
        units += [
            (list(s.tokens), [anchor_positions(a) for a in s.anchors])
            for page in corpus.iter_pages()
            for s in page.sentences
            if s.anchors
        ]
        return units

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_primed_rows_are_the_single_graph_rows(self, corpus, layers, dtype):
        from anchorrank.corpus import build_vocab, page_summary

        vocab = build_vocab(corpus, max_size=200)
        params, cfg = small_encoder(vocab, layers=layers, dtype=dtype)
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        units = self.prime_units(corpus, 10)
        sampler.prime(units)
        primed = sampler.forwards
        assert primed == len({tuple(tokens) for tokens, _ in units}) and sampler.lookups == 0
        for page in corpus.iter_pages():
            summary = page_summary(page, 10)
            seq, (row,) = reference_rows(params, cfg, vocab, summary, [[0]])
            expected = normalize(merge_position_weights(row, seq), {"apple"})
            dist = sampler.cls_term_distribution(summary, {"apple"})
            assert dist.terms == expected.terms and dist.probs.tobytes() == expected.probs.tobytes()
            for sent in page.sentences:
                if not sent.anchors:
                    continue
                positions = [anchor_positions(a) for a in sent.anchors]
                seq, rows = reference_rows(params, cfg, vocab, list(sent.tokens), positions)
                for anchor, row in zip(sent.anchors, rows):
                    expected = normalize(merge_position_weights(row, seq), set(anchor.surface_tokens()))
                    dist = sampler.anchor_term_distribution(sent, anchor)
                    assert dist.terms == expected.terms and dist.probs.tobytes() == expected.probs.tobytes()
                gammas = sampler.anchor_cls_attention(sent)
                assert np.array(gammas).tobytes() == np.array([float(row[0]) for row in rows]).tobytes()
        assert sampler.forwards == primed  # every lookup hit

    def test_prime_skips_what_the_memo_holds(self, setup, forwarded):
        corpus, vocab, params, cfg = setup
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        units = self.prime_units(corpus, 10)
        sampler.prime(units)
        graphs, forwards = len(forwarded), sampler.forwards
        sampler.prime(units)
        assert len(forwarded) == graphs and sampler.forwards == forwards

    def test_a_miss_after_prime_still_encodes_lazily(self, setup, forwarded):
        corpus, vocab, params, cfg = setup
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        sent = next(s for p in corpus.iter_pages() for s in p.sentences if len(s.anchors) > 1)
        sampler.prime([(list(sent.tokens), [anchor_positions(a) for a in sent.anchors])])
        assert len(forwarded) == sampler.forwards == 1
        sampler.anchor_term_distribution(sent, sent.anchors[1])
        assert len(forwarded) == sampler.forwards == 1
        # the sentence's [CLS] row was not primed: its lookup encodes again,
        # as one sequence, to the single graph's bits
        tokens = list(sent.tokens)
        dist = sampler.cls_term_distribution(tokens)
        seq, (row,) = reference_rows(params, cfg, vocab, tokens, [[0]])
        expected = normalize(merge_position_weights(row, seq))
        assert dist.terms == expected.terms and dist.probs.tobytes() == expected.probs.tobytes()
        assert sampler.forwards == 2 and forwarded[-1] == [tuple(vocab.encode(seq))]
        # a position list that is empty or out of range is left to its lookup
        sampler.prime([(["laptop"], [[], [5]])])
        assert sampler.forwards == 2
        with pytest.raises(SamplerError, match="truncated"):
            sampler._lookup_rows(["laptop"], [[5]])
        assert sampler.forwards == 2

    def test_sequences_equal_after_truncation_share_a_forward(self, setup, forwarded):
        corpus, vocab, _, _ = setup
        params, cfg = small_encoder(vocab, max_len=6)
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        words = ["laptop", "hardware", "computer", "with", "fast", "chips", "bright"]
        first = sampler.cls_term_distribution(words)
        second = sampler.cls_term_distribution(words[:4] + ["display"])
        assert len(forwarded) == sampler.forwards == 1 and sampler.lookups == 2
        assert first.terms == second.terms == words[:4] and np.array_equal(first.probs, second.probs)

    def test_mutating_a_result_leaves_the_memo_intact(self, setup):
        corpus, vocab, params, cfg = setup
        sampler = AttentionSampler(params, cfg, vocab, stopwords=frozenset())
        sent = next(s for p in corpus.iter_pages() for s in p.sentences if len(s.anchors) > 1)
        tokens = list(sent.tokens)
        expected = AttentionSampler(params, cfg, vocab, stopwords=frozenset()).cls_term_distribution(tokens)
        dist = sampler.cls_term_distribution(tokens)
        dist.probs[:] = 0.0
        dist.terms.reverse()
        again = sampler.cls_term_distribution(tokens)
        assert again.terms == expected.terms and np.array_equal(again.probs, expected.probs)
        gammas = sampler.anchor_cls_attention(sent)
        gammas[0] = -1.0
        assert sampler.anchor_cls_attention(sent)[0] != -1.0
        assert sampler.lookups == 4 and sampler.forwards == 2


class MapSampler(AttentionSampler):
    """Attention maps given outright: (heads, n, n) over [CLS] + tokens + [SEP]."""

    def __init__(self, vocab, maps):
        super().__init__(params=None, config=EncoderConfig(vocab_size=len(vocab)), vocab=vocab, stopwords=frozenset())
        self.maps = np.asarray(maps, dtype=float)

    def _stack_attention(self, sequences):
        return [self.maps for _ in sequences]


class TestRowAveraging:
    """A memoised row is the maps' mean over heads and query positions."""

    def test_single_head_single_position_identity(self):
        maps = [[[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.1, 0.1, 0.8]]]
        _, (row,) = MapSampler(make_vocab("x"), maps)._lookup_rows(["x"], [[1]])
        assert np.array_equal(row, [1.0, 0.0, 0.0])

    def test_two_heads_average(self):
        maps = np.zeros((2, 3, 3))
        maps[0, 0] = [1.0, 0.0, 0.0]
        maps[1, 0] = [0.0, 1.0, 0.0]
        _, (row,) = MapSampler(make_vocab("x"), maps)._lookup_rows(["x"], [[0]])
        assert np.array_equal(row, [0.5, 0.5, 0.0])

    def test_multi_position_matches_manual_average(self):
        from anchorrank.encoder import EncoderGraph

        vocab = make_vocab("red fox jumps over")
        params, cfg = small_encoder(vocab)
        tokens = ["red", "fox", "jumps", "over"]
        _, (row,) = AttentionSampler(params, cfg, vocab, stopwords=frozenset())._lookup_rows(tokens, [[3, 2, 3]])
        attn = EncoderGraph(params, cfg, vocab.encode([CLS_TOKEN, *tokens, SEP_TOKEN])).attention[-1]
        manual = (attn[:, 2, :].mean(axis=0) + attn[:, 3, :].mean(axis=0)) / 2.0
        assert np.allclose(row, manual, atol=1e-12)
        assert abs(row.sum() - 1.0) < 1e-6

    def test_empty_positions_rejected(self):
        with pytest.raises(SamplerError, match="empty"):
            MapSampler(make_vocab("x"), np.ones((1, 3, 3)))._lookup_rows(["x"], [[]])


def test_load_stopwords_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nthe\nof\n\nAnd\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "of", "and"})


def test_default_stopwords_nonempty():
    stops = default_stopwords()
    assert "the" in stops
    assert len(stops) >= 25


def test_default_stopwords_is_load_stopwords_of_the_packaged_file():
    import anchorrank

    packaged = Path(anchorrank.__file__).parent / "data" / "stopwords.txt"
    assert default_stopwords() == load_stopwords(packaged)
