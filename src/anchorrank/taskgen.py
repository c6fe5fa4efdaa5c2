"""Construction of the four pairwise pre-training tasks.

Each builder is a pure function of (corpus, sampler checkpoint, derived
rng), so the emitted pairs file is bitwise reproducible for a fixed seed.
Anchors pointing at their own containing page are excluded everywhere.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from anchorrank.corpus import (
    AnchorOccurrence,
    AnchorSpan,
    HyperlinkCorpus,
    Sentence,
    anchor_occurrence_index,
    numbered_lines,
    page_summary,
)
from anchorrank.sampler import AttentionSampler, SamplerError, poisson_length, sample_word_set

log = logging.getLogger(__name__)

TASK_RQP = "rqp"
TASK_QDM = "qdm"
TASK_RDP = "rdp"
TASK_ACM = "acm"
TASKS = (TASK_RQP, TASK_QDM, TASK_RDP, TASK_ACM)


@dataclass
class PretrainPair:
    """One pairwise training example.

    For RQP the negative is a second query against the same document, so
    pos_doc_id == neg_doc_id and neg_query_tokens is set; for the other
    tasks the negative is a different document and neg_query_tokens is None.
    """

    task: str
    query_tokens: list[str]
    pos_doc_id: str
    neg_doc_id: str
    neg_query_tokens: list[str] | None
    provenance: dict
    seed_path: str


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """Independent child generator keyed by a stable string path, so pair
    construction order never changes the draws."""
    path = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    words = [int(w) for w in np.frombuffer(digest[:16], dtype=np.uint32)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


def _usable_anchor(anchor: AnchorSpan, sentence: Sentence, corpus: HyperlinkCorpus) -> bool:
    return anchor.target_id != sentence.page_id and anchor.target_id in corpus.pages


def _distinct_anchors(sentence: Sentence, corpus: HyperlinkCorpus) -> dict[str, dict]:
    """Usable sentence anchors grouped by normalized surface, in first
    occurrence order; the first occurrence fixes the destination page."""
    groups: dict[str, dict] = {}
    for a in sentence.anchors:
        if not _usable_anchor(a, sentence, corpus):
            continue
        key = a.normalized_surface()
        if key not in groups:
            groups[key] = {"target": a.target_id, "first_pos": a.token_start, "occurrences": []}
        groups[key]["occurrences"].append(a)
    return groups


def sentence_query_tokens(sentence: Sentence) -> list[str]:
    """Full sentence token list with each anchor emitted as one phrase."""
    out: list[str] = []
    pos = 0
    for a in sorted(sentence.anchors, key=lambda a: a.token_start):
        out.extend(sentence.tokens[pos : a.token_start])
        out.append(" ".join(sentence.tokens[a.token_start : a.token_end]))
        pos = a.token_end
    out.extend(sentence.tokens[pos:])
    return out


def build_rqp_pair(
    sentence: Sentence,
    anchor: AnchorSpan,
    corpus: HyperlinkCorpus,
    sampler: AttentionSampler,
    rng: np.random.Generator,
    lam: float = 3.0,
    summary_max_tokens: int = 512,
    seed_path: str = "",
) -> PretrainPair | None:
    """Anchor-plus-context query vs a query sampled from the destination
    page itself; both score against the destination page summary."""
    if not _usable_anchor(anchor, sentence, corpus):
        return None
    target = corpus.pages[anchor.target_id]
    summary = page_summary(target, summary_max_tokens)
    if not summary:
        return None
    try:
        context_dist = sampler.anchor_term_distribution(sentence, anchor)
    except SamplerError as exc:
        log.debug("rqp skip %s: %s", seed_path, exc)
        return None
    length = poisson_length(lam, rng)
    pos_query = sample_word_set(context_dist, length, anchor_surface=anchor.normalized_surface(), rng=rng)

    anchor_terms = set(anchor.surface_tokens())
    try:
        page_dist = sampler.cls_term_distribution(summary, anchor_terms)
    except SamplerError as exc:
        log.debug("rqp skip %s: %s", seed_path, exc)
        return None
    neg_query = sample_word_set(page_dist, len(pos_query), rng=rng)
    if len(neg_query) != len(pos_query):
        log.debug("rqp skip %s: negative support too small for equal lengths", seed_path)
        return None
    return PretrainPair(
        task=TASK_RQP,
        query_tokens=pos_query,
        pos_doc_id=target.id,
        neg_doc_id=target.id,
        neg_query_tokens=neg_query,
        provenance={"page_id": sentence.page_id, "sentence_index": sentence.index, "anchor": anchor.normalized_surface()},
        seed_path=seed_path,
    )


def build_qdm_pair(
    surface: str,
    occurrences: list[AnchorOccurrence],
    corpus: HyperlinkCorpus,
    sampler: AttentionSampler,
    rng: np.random.Generator,
    lam: float = 3.0,
    seed_path: str = "",
) -> PretrainPair | None:
    """Disambiguation pair for one ambiguous anchor surface: the context
    query must prefer the occurrence's true destination over another page
    the same surface links to elsewhere."""
    usable = [
        o
        for o in occurrences
        if o.target_id != o.page_id and o.target_id in corpus.pages and o.page_id in corpus.pages
    ]
    distinct = sorted({o.target_id for o in usable})
    if len(distinct) < 2:
        return None
    occ = usable[int(rng.integers(len(usable)))]
    sentence = corpus.pages[occ.page_id].sentences[occ.sentence_index]
    anchor = sentence.anchors[occ.anchor_index]
    try:
        context_dist = sampler.anchor_term_distribution(sentence, anchor)
    except SamplerError as exc:
        log.debug("qdm skip %s: %s", seed_path, exc)
        return None
    length = poisson_length(lam, rng)
    query = sample_word_set(context_dist, length, anchor_surface=anchor.normalized_surface(), rng=rng)
    negatives = [t for t in distinct if t != occ.target_id]
    neg = negatives[int(rng.integers(len(negatives)))]
    return PretrainPair(
        task=TASK_QDM,
        query_tokens=query,
        pos_doc_id=occ.target_id,
        neg_doc_id=neg,
        neg_query_tokens=None,
        provenance={"surface": surface, "page_id": occ.page_id, "sentence_index": occ.sentence_index},
        seed_path=seed_path,
    )


def build_rdp_pair(
    sentence: Sentence,
    corpus: HyperlinkCorpus,
    sampler: AttentionSampler,
    rng: np.random.Generator,
    seed_path: str = "",
) -> PretrainPair | None:
    """Long-query pair: the full sentence against the pages of two of its
    anchors, ordered by [CLS]-attention importance."""
    groups = _distinct_anchors(sentence, corpus)
    if len(groups) < 2:
        return None
    try:
        gammas = sampler.anchor_cls_attention(sentence)
    except SamplerError as exc:
        log.debug("rdp skip %s: %s", seed_path, exc)
        return None

    eta: dict[str, float] = {key: 0.0 for key in groups}
    for anchor, gamma in zip(sentence.anchors, gammas):
        if not _usable_anchor(anchor, sentence, corpus):
            continue
        eta[anchor.normalized_surface()] += gamma

    surfaces = list(groups)
    weights = np.array([eta[s] for s in surfaces], dtype=float)
    shifted = np.exp(weights - weights.max())
    probs = shifted / shifted.sum()

    first = int(rng.choice(len(surfaces), p=probs))
    rest = probs.copy()
    rest[first] = 0.0
    second = int(rng.choice(len(surfaces), p=rest / rest.sum()))

    ordered = sorted((first, second), key=lambda i: (-weights[i], groups[surfaces[i]]["first_pos"]))
    pos_key, neg_key = surfaces[ordered[0]], surfaces[ordered[1]]
    pos_doc, neg_doc = groups[pos_key]["target"], groups[neg_key]["target"]
    if pos_doc == neg_doc:
        return None
    return PretrainPair(
        task=TASK_RDP,
        query_tokens=sentence_query_tokens(sentence),
        pos_doc_id=pos_doc,
        neg_doc_id=neg_doc,
        neg_query_tokens=None,
        provenance={
            "page_id": sentence.page_id,
            "sentence_index": sentence.index,
            "pos_anchor": pos_key,
            "neg_anchor": neg_key,
            "pos_importance": float(eta[pos_key]),
            "neg_importance": float(eta[neg_key]),
        },
        seed_path=seed_path,
    )


def build_acm_pair(
    sentence: Sentence,
    corpus: HyperlinkCorpus,
    sampler: AttentionSampler,
    rng: np.random.Generator,
    lam: float = 3.0,
    summary_max_tokens: int = 512,
    seed_path: str = "",
) -> PretrainPair | None:
    """Co-occurrence pair: a query built from one anchor's page must prefer
    the co-occurring anchor's page over a random corpus page."""
    groups = _distinct_anchors(sentence, corpus)
    if len(groups) < 2:
        return None
    surfaces = list(groups)
    pick = rng.choice(len(surfaces), size=2, replace=False)
    first_key, second_key = surfaces[int(pick[0])], surfaces[int(pick[1])]
    first_page = corpus.pages[groups[first_key]["target"]]
    second_page = corpus.pages[groups[second_key]["target"]]

    summary = page_summary(first_page, summary_max_tokens)
    if not summary:
        return None
    try:
        dist = sampler.cls_term_distribution(summary, set(first_key.split()))
    except SamplerError as exc:
        log.debug("acm skip %s: %s", seed_path, exc)
        return None
    length = poisson_length(lam, rng)
    query = sample_word_set(dist, length, anchor_surface=first_key, rng=rng)

    candidates = [pid for pid in corpus.page_ids() if pid not in (first_page.id, second_page.id)]
    if not candidates:
        return None
    neg = candidates[int(rng.integers(len(candidates)))]
    return PretrainPair(
        task=TASK_ACM,
        query_tokens=query,
        pos_doc_id=second_page.id,
        neg_doc_id=neg,
        neg_query_tokens=None,
        provenance={
            "page_id": sentence.page_id,
            "sentence_index": sentence.index,
            "query_anchor": first_key,
            "pos_anchor": second_key,
        },
        seed_path=seed_path,
    )


def mix_tasks(streams: dict[str, Iterable[PretrainPair]], rng: np.random.Generator) -> Iterator[PretrainPair]:
    """Interleave pair streams, drawing the next task uniformly among the
    streams that still have pairs; exhausted streams drop out."""
    iterators = {task: iter(stream) for task, stream in streams.items()}
    pending: dict[str, PretrainPair] = {}
    for task in sorted(iterators):
        nxt = next(iterators[task], None)
        if nxt is not None:
            pending[task] = nxt
    while pending:
        active = sorted(pending)
        task = active[int(rng.integers(len(active)))]
        yield pending.pop(task)
        nxt = next(iterators[task], None)
        if nxt is not None:
            pending[task] = nxt


@dataclass
class TaskGenConfig:
    """per_task_cap may be one integer for every task or a {task: cap}
    mapping; missing tasks are uncapped.  pair_budget truncates the mixed
    stream."""

    lam: float = 3.0
    summary_max_tokens: int = 512
    per_task_cap: int | dict[str, int] | None = None
    pair_budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        unknown = sorted(set(self.per_task_cap) - set(TASKS)) if isinstance(self.per_task_cap, dict) else []
        if unknown:
            raise ValueError(f"unknown per_task_cap keys {unknown} (expected among {', '.join(TASKS)})")

    def cap_for(self, task: str) -> int | None:
        if self.per_task_cap is None:
            return None
        if isinstance(self.per_task_cap, dict):
            cap = self.per_task_cap.get(task)
            return int(cap) if cap is not None else None
        return int(self.per_task_cap)


class PairGenerator:
    """Scans a cleaned corpus in deterministic order and emits the mixed
    pair stream for all four tasks."""

    def __init__(self, corpus: HyperlinkCorpus, sampler: AttentionSampler, config: TaskGenConfig):
        self.corpus = corpus
        self.sampler = sampler
        self.config = config

    def rqp_stream(self) -> Iterator[PretrainPair]:
        for page in self.corpus.iter_pages():
            for sent in page.sentences:
                for a_idx, anchor in enumerate(sent.anchors):
                    seed_path = f"rqp/{page.id}/{sent.index}/{a_idx}"
                    pair = build_rqp_pair(
                        sent,
                        anchor,
                        self.corpus,
                        self.sampler,
                        derive_rng(self.config.seed, seed_path),
                        lam=self.config.lam,
                        summary_max_tokens=self.config.summary_max_tokens,
                        seed_path=seed_path,
                    )
                    if pair is not None:
                        yield pair

    def qdm_stream(self) -> Iterator[PretrainPair]:
        index = anchor_occurrence_index(self.corpus)
        for surface in sorted(index):
            seed_path = f"qdm/{surface}"
            pair = build_qdm_pair(
                surface,
                index[surface],
                self.corpus,
                self.sampler,
                derive_rng(self.config.seed, seed_path),
                lam=self.config.lam,
                seed_path=seed_path,
            )
            if pair is not None:
                yield pair

    def rdp_stream(self) -> Iterator[PretrainPair]:
        for page in self.corpus.iter_pages():
            for sent in page.sentences:
                seed_path = f"rdp/{page.id}/{sent.index}"
                pair = build_rdp_pair(
                    sent,
                    self.corpus,
                    self.sampler,
                    derive_rng(self.config.seed, seed_path),
                    seed_path=seed_path,
                )
                if pair is not None:
                    yield pair

    def acm_stream(self) -> Iterator[PretrainPair]:
        for page in self.corpus.iter_pages():
            for sent in page.sentences:
                seed_path = f"acm/{page.id}/{sent.index}"
                pair = build_acm_pair(
                    sent,
                    self.corpus,
                    self.sampler,
                    derive_rng(self.config.seed, seed_path),
                    lam=self.config.lam,
                    summary_max_tokens=self.config.summary_max_tokens,
                    seed_path=seed_path,
                )
                if pair is not None:
                    yield pair

    def generate(self) -> list[PretrainPair]:
        streams: dict[str, Iterable[PretrainPair]] = {
            TASK_RQP: self.rqp_stream(),
            TASK_QDM: self.qdm_stream(),
            TASK_RDP: self.rdp_stream(),
            TASK_ACM: self.acm_stream(),
        }
        for task in list(streams):
            cap = self.config.cap_for(task)
            if cap is not None:
                streams[task] = islice(streams[task], cap)
        mixed = mix_tasks(streams, derive_rng(self.config.seed, "mix"))
        pairs = list(mixed if self.config.pair_budget is None else islice(mixed, self.config.pair_budget))
        log.info(
            "%d pairs; sampler: %d attention lookups, %d encoder forwards",
            len(pairs),
            self.sampler.lookups,
            self.sampler.forwards,
        )
        return pairs


def pair_to_record(pair: PretrainPair) -> dict:
    return {
        "task": pair.task,
        "query": list(pair.query_tokens),
        "pos_doc_id": pair.pos_doc_id,
        "neg_doc_id": pair.neg_doc_id,
        "neg_query": list(pair.neg_query_tokens) if pair.neg_query_tokens is not None else None,
        "provenance": pair.provenance,
        "seed_path": pair.seed_path,
    }


def _tokens(rec: dict, key: str) -> list[str]:
    value = rec[key]
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{key} is not a list of strings")
    return list(value)


def pair_from_record(rec: dict) -> PretrainPair:
    """Inverse of pair_to_record; a record that pre-training could not use
    is a ValueError, KeyError or TypeError."""
    if rec["task"] not in TASKS:
        raise ValueError(f"unknown task {rec['task']!r} (expected one of {', '.join(TASKS)})")
    if rec["task"] == TASK_RQP and rec.get("neg_query") is None:
        raise ValueError("rqp record has no neg_query")
    if not isinstance(rec["pos_doc_id"], str) or not isinstance(rec["neg_doc_id"], str):
        raise ValueError("pos_doc_id and neg_doc_id must be strings")
    return PretrainPair(
        task=rec["task"],
        query_tokens=_tokens(rec, "query"),
        pos_doc_id=rec["pos_doc_id"],
        neg_doc_id=rec["neg_doc_id"],
        neg_query_tokens=_tokens(rec, "neg_query") if rec.get("neg_query") is not None else None,
        provenance=rec.get("provenance", {}),
        seed_path=rec.get("seed_path", ""),
    )


def write_pairs(pairs: Iterable[PretrainPair], path: str | Path) -> int:
    count = 0
    with Path(path).open("w", encoding="utf-8") as f:
        for pair in pairs:
            f.write(json.dumps(pair_to_record(pair), ensure_ascii=False) + "\n")
            count += 1
    return count


def read_pairs(path: str | Path) -> list[PretrainPair]:
    pairs = []
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            pairs.append(pair_from_record(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {line_no}: bad pair record: {exc}") from None
    return pairs
