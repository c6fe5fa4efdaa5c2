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
from anchorrank.sampler import AttentionSampler, SamplerError, anchor_positions, poisson_length, sample_word_set

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
            groups[key] = {"target": a.target_id, "first_pos": a.token_start}
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
    page itself; both score against the destination page summary.  Either
    distribution's SamplerError reaches the caller."""
    if not _usable_anchor(anchor, sentence, corpus):
        return None
    target = corpus.pages[anchor.target_id]
    summary = page_summary(target, summary_max_tokens)
    if not summary:
        return None
    context_dist = sampler.anchor_term_distribution(sentence, anchor)
    length = poisson_length(lam, rng)
    pos_query = sample_word_set(context_dist, length, anchor_surface=anchor.normalized_surface(), rng=rng)

    anchor_terms = set(anchor.surface_tokens())
    page_dist = sampler.cls_term_distribution(summary, anchor_terms)
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
    the same surface links to elsewhere.  The context distribution's
    SamplerError reaches the caller."""
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
    context_dist = sampler.anchor_term_distribution(sentence, anchor)
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
    anchors, ordered by [CLS]-attention importance.  The importances'
    SamplerError reaches the caller."""
    groups = _distinct_anchors(sentence, corpus)
    if len(groups) < 2:
        return None
    gammas = sampler.anchor_cls_attention(sentence)

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
            # rounded, so that a rounding-level change to the sampler leaves
            # the pairs file byte-equal when the pairs are the same
            "pos_importance": round(float(eta[pos_key]), 6),
            "neg_importance": round(float(eta[neg_key]), 6),
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
    the co-occurring anchor's page over a random corpus page.  The page
    distribution's SamplerError reaches the caller."""
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
    dist = sampler.cls_term_distribution(summary, set(first_key.split()))
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


def check_count(name: str, value, minimum: int) -> None:
    """A count must be an int, not a bool or a float, of at least minimum."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass
class TaskGenConfig:
    """per_task_cap may be one integer for every task or a {task: cap}
    mapping; missing tasks are uncapped and a cap of 0 turns a task off.
    pair_budget truncates the mixed stream."""

    lam: float = 3.0
    summary_max_tokens: int = 512
    per_task_cap: int | dict[str, int] | None = None
    pair_budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lam > 0:  # NaN fails too
            raise ValueError(f"lam must be positive, got {self.lam}")
        if isinstance(self.per_task_cap, dict):
            unknown = sorted(set(self.per_task_cap) - set(TASKS))
            if unknown:
                raise ValueError(f"unknown per_task_cap keys {unknown} (expected among {', '.join(TASKS)})")
            for task, cap in self.per_task_cap.items():
                check_count(f"per_task_cap.{task}", cap, 0)
        elif self.per_task_cap is not None:
            check_count("per_task_cap", self.per_task_cap, 0)
        if self.pair_budget is not None:
            check_count("pair_budget", self.pair_budget, 1)
        check_count("summary_max_tokens", self.summary_max_tokens, 1)

    def cap_for(self, task: str) -> int | None:
        if isinstance(self.per_task_cap, dict):
            return self.per_task_cap.get(task)
        return self.per_task_cap


class PairGenerator:
    """Walks a cleaned corpus in deterministic order and emits the mixed
    pair stream for all four tasks.  `yields` counts, per task, the seeds
    tried and the pairs generate() returned; under a pair_budget, tried
    also counts the seeds of pairs that mix_tasks drew ahead and the
    budget then dropped."""

    def __init__(self, corpus: HyperlinkCorpus, sampler: AttentionSampler, config: TaskGenConfig):
        self.corpus = corpus
        self.sampler = sampler
        self.config = config
        self.yields = {task: {"kept": 0, "tried": 0} for task in TASKS}

    def _pairs(self, task: str, build, seeds: Iterable[tuple], **options) -> Iterator[PretrainPair]:
        """One build per (seed_path, *args) seed, each drawing from its own
        stream derive_rng(seed, seed_path), so caps and task mixing never
        change another seed's pair.  A seed whose build raises SamplerError
        (the sampler cannot serve it) is tried, logged once and skipped."""
        counts = self.yields[task]
        for seed_path, *args in seeds:
            counts["tried"] += 1
            rng = derive_rng(self.config.seed, seed_path)
            try:
                pair = build(*args, self.corpus, self.sampler, rng, seed_path=seed_path, **options)
            except SamplerError as exc:
                log.debug("%s skip %s: %s", task, seed_path, exc)
                continue
            if pair is not None:
                yield pair

    def _prime_sampler(self) -> None:
        """Encode, in stacks, the sequences the builders look up: each
        sentence with a usable anchor, with the positions of all its anchors,
        and each non-empty summary of a usable anchor's target, with [CLS].
        Under a cap or a pair budget, this encodes sequences that the
        stopped walk would not have looked up."""
        units, targets = [], {}
        for s in self.corpus.iter_sentences():
            usable = [a.target_id for a in s.anchors if _usable_anchor(a, s, self.corpus)]
            if usable:
                units.append((s.tokens, [anchor_positions(a) for a in s.anchors]))
                targets.update(dict.fromkeys(usable))
        for target in targets:
            summary = page_summary(self.corpus.pages[target], self.config.summary_max_tokens)
            if summary:
                units.append((summary, [[0]]))
        self.sampler.prime(units)

    def generate(self) -> list[PretrainPair]:
        cfg = self.config
        self._prime_sampler()
        sentences = self.corpus.iter_sentences
        index = anchor_occurrence_index(self.corpus)
        options = {"lam": cfg.lam, "summary_max_tokens": cfg.summary_max_tokens}
        # the builders are looked up here, not bound at import, so that a
        # wrapper installed on this module's names sees every call
        streams = {
            TASK_RQP: self._pairs(TASK_RQP, build_rqp_pair, (
                (f"rqp/{s.page_id}/{s.index}/{i}", s, a) for s in sentences() for i, a in enumerate(s.anchors)
            ), **options),
            TASK_QDM: self._pairs(TASK_QDM, build_qdm_pair, ((f"qdm/{k}", k, index[k]) for k in sorted(index)), lam=cfg.lam),
            TASK_RDP: self._pairs(TASK_RDP, build_rdp_pair, ((f"rdp/{s.page_id}/{s.index}", s) for s in sentences())),
            TASK_ACM: self._pairs(TASK_ACM, build_acm_pair, ((f"acm/{s.page_id}/{s.index}", s) for s in sentences()), **options),
        }
        capped = {task: islice(stream, cfg.cap_for(task)) for task, stream in streams.items()}
        pairs = list(islice(mix_tasks(capped, derive_rng(cfg.seed, "mix")), cfg.pair_budget))
        for pair in pairs:
            self.yields[pair.task]["kept"] += 1
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
    if not any(t.split() for t in value):
        raise ValueError(f"{key} holds no word")
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
