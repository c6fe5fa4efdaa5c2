import json
import os

# One BLAS thread, as the benchmark runs its workloads: set before numpy is
# first imported, and only where the caller has not chosen a count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

from anchorrank.corpus import clean_corpus, parse_corpus
from anchorrank.encoder import EncoderConfig
from anchorrank.sampler import AttentionSampler

# Reproducible property tests: a fixed example sequence, no per-example time
# limit (timings on a loaded host say nothing about correctness) and no
# example database written into the checkout.
settings.register_profile("anchorrank", derandomize=True, deadline=None, database=None)
settings.load_profile("anchorrank")


def anchor_in(text, surface, target, occurrence=0):
    start = -1
    for _ in range(occurrence + 1):
        start = text.index(surface, start + 1)
    return {"start": start, "end": start + len(surface), "surface": surface, "target_id": target}


def toy_corpus():
    """Five pages: four destinations plus a news page whose sentences carry
    the anchors (one ambiguous surface, one multi-anchor sentence, one
    self-link)."""
    docs = {
        "mac": (
            "Laptop hardware computer with fast chips and bright display for daily work.\n\n"
            "Extra body text follows here with more detail about portable machines."
        ),
        "fruit": (
            "Sweet orchard fruit grown on tall trees with crisp flesh and dark seeds.\n\n"
            "More botany body text about growing season and harvest storage."
        ),
        "company": (
            "Technology company selling phones computers and music players worldwide every year.\n\n"
            "More business body text about revenue products and design studios."
        ),
        "river": (
            "Long water stream flowing through green valleys toward the open sea below mountains.\n\n"
            "More geography body text about springs deltas and seasonal floods."
        ),
    }
    sent_a = "Apple unveiled the new MacBook Pro laptop yesterday evening."
    sent_b = "An apple pie uses fresh orchard fruit and warm spice."
    sent_c = "The news desk links to the news desk constantly."
    news_text = f"{sent_a} {sent_b} {sent_c}\n\nTrailing body text for the news page itself."
    news_anchors = [
        anchor_in(news_text, "Apple", "company"),
        anchor_in(news_text, "MacBook Pro", "mac"),
        anchor_in(news_text, "apple", "fruit"),
        anchor_in(news_text, "news desk", "news", occurrence=1),
    ]
    records = [
        {"id": pid, "title": pid, "url": f"https://example.org/{pid}", "text": text, "anchors": []}
        for pid, text in docs.items()
    ]
    records.append(
        {
            "id": "news",
            "title": "news",
            "url": "https://example.org/news",
            "text": news_text,
            "anchors": news_anchors,
        }
    )
    corpus = parse_corpus(json.dumps(r) for r in records)
    return clean_corpus(corpus, min_words=1)


@pytest.fixture()
def corpus():
    return toy_corpus()


class TableAttentionSampler(AttentionSampler):
    """Mock attention: one fixed row per query position.

    row_toward_cls gives each token's attention weight onto the [CLS] key
    position (used for importance); context_weights gives the weights every
    query position spreads over the other keys.
    """

    def __init__(self, vocab, stopwords=frozenset(), context_weights=None, row_toward_cls=None, default=1.0):
        super().__init__(params=None, config=EncoderConfig(vocab_size=len(vocab)), vocab=vocab, stopwords=stopwords)
        self.context_weights = dict(context_weights or {})
        self.row_toward_cls = dict(row_toward_cls or {})
        self.default = default

    def _stack_attention(self, sequences):
        return [self._maps(seq) for seq in sequences]

    def _maps(self, seq):
        n = len(seq)
        # rows are intentionally not normalized: tests drive the merged
        # weights directly
        base = np.array([self.context_weights.get(t, self.default) for t in seq], dtype=float)
        maps = np.tile(base, (1, n, 1))
        if self.row_toward_cls:
            for q, token in enumerate(seq):
                toward = self.row_toward_cls.get(token)
                if toward is None:
                    continue
                row = np.full(n, (1.0 - toward) / max(n - 1, 1))
                row[0] = toward
                maps[0, q] = row
        return maps
