"""Attention-derived term distributions and pseudo-query word sets.

The pipeline per query unit is: encode the sequence, pull the head-averaged
attention row for the query positions (anchor tokens, or [CLS]), merge
repeated terms, softmax-normalize over the allowed support, then draw a
without-replacement word set whose length comes from a zero-truncated
Poisson.  Attention always comes from the encoder's last layer.  The rows
are memoised per sampler, so a sequence that several query units share is
encoded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from anchorrank.corpus import CLS_TOKEN, SEP_TOKEN, SPECIAL_TOKENS, AnchorSpan, Sentence, Vocabulary, numbered_lines
from anchorrank.encoder import EncoderConfig, attention_map


class SamplerError(ValueError):
    """Unusable input for distribution building (empty support, truncated anchor)."""


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One term per line; blank lines and '#' comments ignored."""
    terms = set()
    for _, line in numbered_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            terms.add(line.lower())
    return frozenset(terms)


def default_stopwords() -> frozenset[str]:
    """load_stopwords over the packaged data/stopwords.txt."""
    with resources.as_file(resources.files("anchorrank").joinpath("data/stopwords.txt")) as path:
        return load_stopwords(path)


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


def normalize(beta: dict[str, float], exclusions=()) -> TermDistribution:
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
    return TermDistribution(terms=[t for t, _ in support], probs=probs)


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
    *,
    rng: np.random.Generator,
) -> list[str]:
    """Pseudo-query tokens: `length` distinct terms drawn without
    replacement by iterative renormalized draws.

    When the support is smaller than `length`, the whole support is
    returned.  Output order: anchor surface first (if given; it may be a
    multi-word phrase), then sampled terms in original source position
    order.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
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
    return tokens


class AttentionSampler:
    """Bundles a fixed encoder checkpoint with the vocabulary and stopword
    list, exposing the two distribution builders used by pair construction.

    Sampling-time attention always comes from the encoder's last layer.
    Each head-averaged attention row is memoised by (sequence tokens, query
    positions); `lookups` counts builder calls and `forwards` the encoder
    forwards run to fill the memo.  Tests substitute attention by
    overriding _sequence_attention.
    """

    def __init__(
        self,
        params,
        config: EncoderConfig,
        vocab: Vocabulary,
        stopwords: frozenset[str] | None = None,
    ):
        self.params = params
        self.config = config
        self.vocab = vocab
        self.stopwords = default_stopwords() if stopwords is None else frozenset(stopwords)
        self.lookups = 0
        self.forwards = 0
        self._rows: dict[tuple, np.ndarray] = {}

    def _sequence_tokens(self, tokens) -> list[str]:
        """[CLS] + tokens + [SEP], with tokens cut to fit max_len."""
        return [CLS_TOKEN, *tokens[: self.config.max_len - 2], SEP_TOKEN]

    def _sequence_attention(self, tokens: list[str]) -> tuple[list[str], np.ndarray]:
        """Encode [CLS] + tokens + [SEP] (truncating tokens to fit) and
        return (sequence tokens, per-head attention maps of the last layer,
        shape (heads, n, n))."""
        seq_tokens = self._sequence_tokens(tokens)
        ids = self.vocab.encode(seq_tokens)
        return seq_tokens, attention_map(self.params, self.config, ids)

    def _attention_rows(self, tokens, wanted, fill=()) -> tuple[list[str], list[np.ndarray]]:
        """(sequence tokens, the head-averaged attention row of each position
        list in `wanted`).

        A row averages the maps over heads and over the sorted distinct
        positions of its list.  A miss runs one forward and memoises the
        rows of `wanted` and of the in-range position lists in `fill` (a
        sentence's other anchors), so that later lookups on the same
        sequence hit; a lookup for positions that no earlier miss filled
        encodes the sequence again.
        Only rows are kept, never the (heads, n, n) maps.  The builders
        hand out new objects made from the rows (a TermDistribution, a list
        of floats), so no caller can write into the memo.
        """
        self.lookups += 1
        seq_tokens = self._sequence_tokens(tokens)
        n = len(seq_tokens)
        for positions in wanted:
            if not positions:
                raise SamplerError("empty query position list")
            for pos in positions:
                if not 0 <= pos < n:
                    raise SamplerError(f"query position {pos} truncated out of the sequence")
        seq = tuple(seq_tokens)

        def key(positions):
            return seq, tuple(sorted(set(positions)))

        keys = [key(positions) for positions in wanted]
        if any(k not in self._rows for k in keys):
            _, maps = self._sequence_attention(tokens)
            self.forwards += 1
            in_range = [positions for positions in fill if all(0 <= p < n for p in positions)]
            for k in map(key, [*wanted, *in_range]):
                if k not in self._rows:
                    self._rows[k] = maps[:, list(k[1]), :].mean(axis=(0, 1))
        return seq_tokens, [self._rows[k] for k in keys]

    def _distribution(self, tokens, query_positions, exclusions, fill=()) -> TermDistribution:
        seq_tokens, (alpha,) = self._attention_rows(tokens, [query_positions], fill)
        beta = merge_position_weights(alpha, seq_tokens)
        return normalize(beta, exclusions=set(exclusions) | self.stopwords)

    def anchor_term_distribution(self, sentence: Sentence, anchor: AnchorSpan) -> TermDistribution:
        """Distribution over the sentence's context terms, conditioned on the
        anchor positions; the anchor's own terms are excluded (they return
        verbatim as the word-set head)."""
        if not (0 <= anchor.token_start < anchor.token_end <= len(sentence.tokens)):
            raise SamplerError("anchor token range outside sentence")
        return self._distribution(
            list(sentence.tokens),
            _anchor_positions(anchor),
            set(anchor.surface_tokens()),
            fill=[_anchor_positions(a) for a in sentence.anchors],
        )

    def cls_term_distribution(self, page_tokens, excluded_anchor_terms=()) -> TermDistribution:
        """Distribution over page terms, conditioned on [CLS]; terms of the
        excluded anchor carry probability zero."""
        return self._distribution(list(page_tokens), [0], set(excluded_anchor_terms))

    def anchor_cls_attention(self, sentence: Sentence) -> list[float]:
        """Per-anchor importance: head-averaged attention from the anchor's
        positions to the [CLS] position, one value per sentence anchor."""
        positions = [_anchor_positions(a) for a in sentence.anchors]
        _, rows = self._attention_rows(list(sentence.tokens), positions)
        return [float(row[0]) for row in rows]


def _anchor_positions(anchor: AnchorSpan) -> list[int]:
    """The anchor's token positions in [CLS] + sentence + [SEP]."""
    return [p + 1 for p in range(anchor.token_start, anchor.token_end)]
