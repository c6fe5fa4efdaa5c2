import json

import pytest

from anchorrank.corpus import (
    CorpusError,
    SPECIAL_TOKENS,
    UNK_ID,
    Page,
    Vocabulary,
    anchor_occurrence_index,
    build_vocab,
    clean_corpus,
    page_summary,
    parse_corpus,
    read_corpus,
    split_sentences,
    tokenize,
    write_corpus,
)


def record(pid, text, anchors=(), title=None, url=None):
    return {
        "id": pid,
        "title": title if title is not None else pid,
        "url": url if url is not None else f"https://example.org/{pid}",
        "text": text,
        "anchors": list(anchors),
    }


def anchor_in(text, surface, target, occurrence=0):
    start = -1
    for _ in range(occurrence + 1):
        start = text.index(surface, start + 1)
    return {"start": start, "end": start + len(surface), "surface": surface, "target_id": target}


def lines(*records):
    return [json.dumps(r) for r in records]


class TestParse:
    def test_single_record_round(self):
        text = "Apple unveiled the MacBook Pro"
        rec = record("p1", text, [anchor_in(text, "MacBook Pro", "p2")])
        corpus = parse_corpus(lines(rec))
        assert len(corpus) == 1
        page = corpus.pages["p1"]
        assert len(page.sentences) == 1
        sent = page.sentences[0]
        assert len(sent.anchors) == 1
        assert sent.anchors[0].surface == "MacBook Pro"
        assert sent.tokens == ("apple", "unveiled", "the", "macbook", "pro")
        a = sent.anchors[0]
        assert list(sent.tokens[a.token_start : a.token_end]) == ["macbook", "pro"]

    def test_empty_stream(self):
        corpus = parse_corpus([])
        assert len(corpus) == 0

    def test_anchor_out_of_range(self):
        rec = record("p1", "short", [{"start": 0, "end": 99, "surface": "short", "target_id": "p2"}])
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus(lines(rec))

    def test_anchor_offset_not_finite(self):
        rec = record("p1", "short", [{"start": float("inf"), "end": 3, "surface": "sho", "target_id": "p2"}])
        with pytest.raises(CorpusError, match="line 1: anchor 0: missing or malformed fields"):
            parse_corpus(lines(rec))

    def test_surface_mismatch(self):
        rec = record("p1", "some body", [{"start": 0, "end": 4, "surface": "nope", "target_id": "p2"}])
        with pytest.raises(CorpusError, match="surface"):
            parse_corpus(lines(rec))

    def test_duplicate_page_id(self):
        with pytest.raises(CorpusError, match="duplicate"):
            parse_corpus(lines(record("p1", "a"), record("p1", "b")))

    @pytest.mark.parametrize("anchors", [5, None, "apple", {"start": 0}])
    def test_anchors_not_a_list(self, anchors):
        with pytest.raises(CorpusError, match="line 2: anchors must be a list"):
            parse_corpus(lines(record("p0", "a"), {**record("p1", "a"), "anchors": anchors}))

    def test_read_corpus_names_the_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines(record("p1", "a"), {**record("p2", "b"), "anchors": 5})) + "\n")
        with pytest.raises(CorpusError, match="line 2: anchors must be a list") as info:
            read_corpus(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_malformed_json_reports_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus([json.dumps(record("p1", "a")), "{broken"])


class TestSplitSentences:
    def test_two_sentences(self):
        page = Page(id="p", title="", url="", text="A b. C d.")
        assert [s.text for s in split_sentences(page)] == ["A b.", "C d."]

    def test_boundary_inside_anchor_suppressed(self):
        text = "The U.S. Navy sailed. More text here."
        rec = record("p", text, [anchor_in(text, "U.S. Navy", "q")])
        corpus = parse_corpus(lines(rec))
        sents = corpus.pages["p"].sentences
        assert len(sents) == 2
        assert "U.S. Navy" in sents[0].text
        a = sents[0].anchors[0]
        assert list(sents[0].tokens[a.token_start : a.token_end]) == ["u", "s", "navy"]

    def test_no_terminal_punctuation(self):
        page = Page(id="p", title="", url="", text="no punctuation at all")
        assert len(split_sentences(page)) == 1

    def test_exclaim_question(self):
        page = Page(id="p", title="", url="", text="Really?! Yes. Sure")
        assert [s.text for s in split_sentences(page)] == ["Really?!", "Yes.", "Sure"]


class TestClean:
    def make_corpus(self):
        long_text = " ".join(f"w{i}" for i in range(150)) + ". Links to other."
        short_text = " ".join(f"w{i}" for i in range(50))
        recs = [
            record("long", long_text, [anchor_in(long_text, "other", "short")]),
            record("short", short_text),
        ]
        return parse_corpus(lines(*recs))

    def test_threshold(self):
        cleaned = clean_corpus(self.make_corpus(), min_words=100)
        assert cleaned.page_ids() == ["long"]

    def test_anchor_to_removed_page_dropped(self):
        cleaned = clean_corpus(self.make_corpus(), min_words=100)
        page = cleaned.pages["long"]
        assert all(not s.anchors for s in page.sentences)
        assert sum(len(s.tokens) for s in page.sentences) > 0

    def test_min_words_zero_identity(self):
        corpus = self.make_corpus()
        # make every target resolvable first so cleaning is a no-op
        cleaned = clean_corpus(corpus, min_words=0)
        assert cleaned.to_records() == corpus.to_records()

    def test_all_targets_resolve_after_clean(self):
        cleaned = clean_corpus(self.make_corpus(), min_words=0)
        for sent in cleaned.iter_sentences():
            for a in sent.anchors:
                assert a.target_id in cleaned.pages


class TestVocabulary:
    def test_frequency_and_ties(self):
        text = "b b b a a c"
        corpus = parse_corpus(lines(record("p", text)))
        vocab = build_vocab(corpus, max_size=10)
        assert len(vocab) == 3 + len(SPECIAL_TOKENS)
        # b most frequent, then a/c; equal-frequency pair a < c would apply at ties
        assert vocab.term_to_id["b"] < vocab.term_to_id["a"]

    def test_tie_lexicographic(self):
        corpus = parse_corpus(lines(record("p", "zed ant zed ant")))
        vocab = build_vocab(corpus, max_size=10)
        assert vocab.term_to_id["ant"] < vocab.term_to_id["zed"]

    def test_max_size_truncates(self):
        corpus = parse_corpus(lines(record("p", "a a b b c")))
        vocab = build_vocab(corpus, max_size=2)
        assert len(vocab) == 2 + len(SPECIAL_TOKENS)
        assert "c" not in vocab.term_to_id

    def test_oov_maps_to_unk(self):
        corpus = parse_corpus(lines(record("p", "a b")))
        vocab = build_vocab(corpus, max_size=10)
        assert vocab.encode(["zzz"]) == [UNK_ID]

    def test_max_size_invalid(self):
        corpus = parse_corpus(lines(record("p", "a")))
        with pytest.raises(ValueError):
            build_vocab(corpus, max_size=0)

    def test_deterministic_and_file_round_trip(self, tmp_path):
        corpus = parse_corpus(lines(record("p", "c a b a c c")))
        v1 = build_vocab(corpus, max_size=100)
        v2 = build_vocab(corpus, max_size=100)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        v1.save(p1)
        v2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        v3 = type(v1).load(p1)
        assert v3.id_to_term == v1.id_to_term

    def test_duplicate_term_in_file_names_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join([*SPECIAL_TOKENS, "a", "b", "a"]) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate vocabulary term 'a'") as info:
            Vocabulary.load(path)
        assert str(path) in str(info.value)


class TestSummary:
    def test_first_section_before_blank_line(self):
        text = "Intro sentence one. Intro two.\n\nBody paragraph here with more words."
        corpus = parse_corpus(lines(record("p", text)))
        assert corpus.pages["p"].first_section == tokenize("Intro sentence one. Intro two.")

    def test_no_blank_line_falls_back_to_sentences(self):
        text = " ".join(f"Sent {i} ends here." for i in range(15))
        corpus = parse_corpus(lines(record("p", text)))
        page = corpus.pages["p"]
        assert page.first_section == tokenize(" ".join(f"Sent {i} ends here." for i in range(10)))

    def test_truncation(self):
        text = "one two three four five\n\nrest of the body"
        corpus = parse_corpus(lines(record("p", text)))
        assert page_summary(corpus.pages["p"], max_tokens=3) == ["one", "two", "three"]
        assert page_summary(corpus.pages["p"], max_tokens=512) == ["one", "two", "three", "four", "five"]


class TestAnchorIndex:
    def test_case_folded_and_grouped(self):
        t1 = "I ate an Apple today. It was nice."
        t2 = "The apple computer arrived."
        recs = [
            record("p1", t1, [anchor_in(t1, "Apple", "fruit")]),
            record("p2", t2, [anchor_in(t2, "apple", "company")]),
            record("fruit", "about the fruit"),
            record("company", "about the company"),
        ]
        corpus = parse_corpus(lines(*recs))
        index = anchor_occurrence_index(corpus)
        assert set(index) == {"apple"}
        assert len(index["apple"]) == 2
        assert {o.target_id for o in index["apple"]} == {"fruit", "company"}

    def test_single_occurrence_still_indexed(self):
        t = "See the manual now."
        corpus = parse_corpus(lines(record("p", t, [anchor_in(t, "manual", "m")]), record("m", "m body")))
        index = anchor_occurrence_index(corpus)
        assert len(index["manual"]) == 1

    def test_no_anchors(self):
        corpus = parse_corpus(lines(record("p", "plain text")))
        assert anchor_occurrence_index(corpus) == {}

    def test_dedup_same_sentence_same_target(self):
        t = "apple and apple again"
        corpus = parse_corpus(
            lines(
                record("p", t, [anchor_in(t, "apple", "x", 0), anchor_in(t, "apple", "x", 1)]),
                record("x", "x body"),
            )
        )
        index = anchor_occurrence_index(corpus)
        assert len(index["apple"]) == 1


class TestRoundTrip:
    def test_serialize_parse_round_trip(self, tmp_path):
        t1 = "First page mentions second page. And more text follows here today."
        recs = [
            record("a", t1, [anchor_in(t1, "second page", "b")]),
            record("b", "Second page body text."),
        ]
        corpus = parse_corpus(lines(*recs))
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        reread = read_corpus(path)
        assert reread.to_records() == corpus.to_records()
        idx = (tmp_path / "corpus.jsonl.idx").read_text().split()
        assert idx == corpus.page_ids()

    def test_anchor_surface_reconstruction(self):
        t = "Alpha beta GAMMA delta. Epsilon zeta."
        corpus = parse_corpus(lines(record("p", t, [anchor_in(t, "GAMMA delta", "q")]), record("q", "q")))
        for sent in corpus.iter_sentences():
            for a in sent.anchors:
                assert list(sent.tokens[a.token_start : a.token_end]) == a.surface_tokens()
