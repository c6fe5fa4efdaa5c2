"""Attention-derived term distributions and pseudo-query word sets.

The pipeline per query unit is: encode the sequence, pull the head-averaged
attention row for the query positions (anchor tokens, or [CLS]), merge
repeated terms, softmax-normalize over the allowed support, then draw a
without-replacement word set whose length comes from a zero-truncated
Poisson.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from anchorrank.corpus import CLS_TOKEN, SEP_TOKEN, SPECIAL_TOKENS, AnchorSpan, Sentence, Vocabulary
from anchorrank.encoder import EncoderConfig, EncoderGraph, attention_from_position


class SamplerError(ValueError):
    """Unusable input for distribution building (empty support, truncated anchor)."""


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One term per line; blank lines and '#' comments ignored."""
    terms = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.add(line.lower())
    return frozenset(terms)


def default_stopwords() -> frozenset[str]:
    text = resources.files("anchorrank").joinpath("data/stopwords.txt").read_text(encoding="utf-8")
    return frozenset(
        line.strip().lower()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


@dataclass
class TermDistribution:
    """Normalized sampling distribution over distinct vocabulary terms.

    Terms are kept in first-occurrence order of the source sequence so that
    sampled word sets can be emitted in original position order.  Terms
    outside the support (specials, stopwords, explicit exclusions) carry
    probability zero by omission.
    """

    terms: list[str]
    probs: np.ndarray
    provenance: str  # "anchor" or "cls"
    source: str = ""

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.probs):
            raise ValueError("terms and probs must align")
        if abs(float(np.sum(self.probs)) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")

    def prob_of(self, term: str) -> float:
        try:
            return float(self.probs[self.terms.index(term)])
        except ValueError:
            return 0.0


@dataclass
class WordSet:
    """Sampled pseudo-query tokens; the anchor surface, when present, is the
    head element and may be a multi-word phrase."""

    tokens: list[str]
    anchor_included: bool
    truncated: bool = False


def merge_position_weights(alpha, tokens) -> dict[str, float]:
    """Sum per-position weights into per-distinct-term weights, keyed in
    first-occurrence order."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (len(tokens),):
        raise ValueError("alpha must align with tokens")
    beta: dict[str, float] = {}
    for token, weight in zip(tokens, alpha):
        beta[token] = beta.get(token, 0.0) + float(weight)
    return beta


def normalize(beta: dict[str, float], exclusions=(), provenance: str = "anchor", source: str = "") -> TermDistribution:
    """Softmax the merged weights over the non-excluded support.

    Special tokens are always excluded; callers add stopwords and (for the
    negative sampler) the anchor's own terms.  Shift-invariant by softmax.
    """
    excluded = set(exclusions) | set(SPECIAL_TOKENS)
    support = [(t, w) for t, w in beta.items() if t not in excluded]
    if not support:
        raise SamplerError("empty support after exclusions")
    weights = np.array([w for _, w in support], dtype=float)
    weights -= weights.max()
    e = np.exp(weights)
    probs = e / e.sum()
    return TermDistribution(terms=[t for t, _ in support], probs=probs, provenance=provenance, source=source)


def poisson_length(lam: float, rng: np.random.Generator) -> int:
    """Zero-truncated Poisson draw: resample until the value is >= 1."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    while True:
        x = int(rng.poisson(lam))
        if x >= 1:
            return x


def sample_word_set(
    dist: TermDistribution,
    length: int,
    anchor_surface: str | None = None,
    rng: np.random.Generator | None = None,
) -> WordSet:
    """Draw `length` distinct terms without replacement by iterative
    renormalized draws.

    When the support is smaller than `length`, the whole support is returned
    and the set is flagged truncated.  Output order: anchor surface first
    (if given), then sampled terms in original source position order.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if rng is None:
        raise ValueError("an rng is required")
    n = len(dist.terms)
    take = min(length, n)
    remaining = dist.probs.astype(float).copy()
    chosen: list[int] = []
    for _ in range(take):
        total = remaining.sum()
        idx = int(rng.choice(n, p=remaining / total))
        chosen.append(idx)
        remaining[idx] = 0.0
    chosen.sort()
    tokens = [dist.terms[i] for i in chosen]
    if anchor_surface is not None:
        tokens = [anchor_surface] + tokens
    return WordSet(tokens=tokens, anchor_included=anchor_surface is not None, truncated=take < length)


class AttentionSampler:
    """Bundles a fixed encoder checkpoint with the vocabulary and stopword
    list, exposing the two distribution builders used by pair construction.

    Sampling-time attention always comes from one encoder layer (the last,
    by default) with dropout disabled.  Tests substitute attention by
    overriding _sequence_attention.
    """

    def __init__(
        self,
        params,
        config: EncoderConfig | None,
        vocab: Vocabulary,
        stopwords: frozenset[str] | None = None,
        layer: int = -1,
    ):
        self.params = params
        self.config = config
        self.vocab = vocab
        self.stopwords = default_stopwords() if stopwords is None else frozenset(stopwords)
        self.layer = layer

    def _sequence_attention(self, tokens: list[str]) -> tuple[list[str], np.ndarray]:
        """Encode [CLS] + tokens + [SEP] (truncating tokens to fit) and
        return (sequence tokens, per-head attention maps at the chosen
        layer, shape (heads, n, n))."""
        budget = self.config.max_len - 2
        tokens = list(tokens[:budget])
        seq_tokens = [CLS_TOKEN] + tokens + [SEP_TOKEN]
        ids = self.vocab.encode(seq_tokens)
        graph = EncoderGraph(self.params, self.config, ids)
        return seq_tokens, graph.attention[self.layer]

    def _distribution(self, tokens, query_positions, exclusions, provenance, source) -> TermDistribution:
        seq_tokens, maps = self._sequence_attention(tokens)
        n = len(seq_tokens)
        for pos in query_positions:
            if not 0 <= pos < n:
                raise SamplerError(f"query position {pos} truncated out of the sequence")
        alpha = attention_from_position(maps[np.newaxis], 0, query_positions)
        beta = merge_position_weights(alpha, seq_tokens)
        return normalize(beta, exclusions=set(exclusions) | self.stopwords, provenance=provenance, source=source)

    def anchor_term_distribution(self, sentence: Sentence, anchor: AnchorSpan) -> TermDistribution:
        """Distribution over the sentence's context terms, conditioned on the
        anchor positions; the anchor's own terms are excluded (they return
        verbatim as the word-set head)."""
        if not (0 <= anchor.token_start < anchor.token_end <= len(sentence.tokens)):
            raise SamplerError("anchor token range outside sentence")
        positions = [p + 1 for p in range(anchor.token_start, anchor.token_end)]  # +1 for [CLS]
        anchor_terms = set(anchor.surface_tokens())
        return self._distribution(
            list(sentence.tokens),
            positions,
            anchor_terms,
            provenance="anchor",
            source=f"{sentence.page_id}/{sentence.index}",
        )

    def cls_term_distribution(self, page_tokens, excluded_anchor_terms=(), source: str = "") -> TermDistribution:
        """Distribution over page terms, conditioned on [CLS]; terms of the
        excluded anchor carry probability zero."""
        return self._distribution(
            list(page_tokens),
            [0],
            set(excluded_anchor_terms),
            provenance="cls",
            source=source,
        )

    def anchor_cls_attention(self, sentence: Sentence) -> list[float]:
        """Per-anchor importance: head-averaged attention from the anchor's
        positions to the [CLS] position, one value per sentence anchor."""
        seq_tokens, maps = self._sequence_attention(list(sentence.tokens))
        n = len(seq_tokens)
        gammas: list[float] = []
        for anchor in sentence.anchors:
            positions = [p + 1 for p in range(anchor.token_start, anchor.token_end)]
            if any(not 0 <= p < n for p in positions):
                raise SamplerError("anchor truncated out of the sequence")
            row = attention_from_position(maps[np.newaxis], 0, positions)
            gammas.append(float(row[0]))
        return gammas
