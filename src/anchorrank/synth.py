"""Synthetic topic-clustered corpus generator.

Pages cluster into topics with disjoint content vocabularies; anchor texts
are the titles of (mostly same-topic) destination pages, a handful of
ambiguous surfaces link to different pages depending on the containing
topic, and some sentences carry several anchors.  Queries name one target
page (its title token plus topic words), so relevance is learnable but the
first-stage candidate order carries no signal.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from anchorrank.corpus import HyperlinkCorpus, parse_corpus, write_corpus
from anchorrank.evalkit import Qrels, write_qrels, write_run
from anchorrank.ranker import collection_from_corpus, write_collection, write_queries
from anchorrank.taskgen import _check_count, derive_rng

log = logging.getLogger(__name__)

TOPIC_NAMES = ("ocean", "desert", "forest", "meadow", "glacier", "canyon", "harbor", "prairie")
AMBIGUOUS_SURFACES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa", "sigma", "omega")
FILLERS = ("the", "a", "of", "and", "with", "near", "some", "from", "quite", "very")
WORDS_PER_TOPIC = 40
MIN_BODY_WORDS = 115


@dataclass
class SynthConfig:
    pages: int = 200
    topics: int = 8
    train_queries: int = 100
    eval_queries: int = 50
    candidates_per_query: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.topics <= len(TOPIC_NAMES):
            raise ValueError(f"topics must be in [1, {len(TOPIC_NAMES)}]")
        if self.pages < self.topics * 2:
            raise ValueError("need at least two pages per topic")
        for name, minimum in (("train_queries", 0), ("eval_queries", 0), ("candidates_per_query", 1)):
            _check_count(name, getattr(self, name), minimum)
        if self.train_queries + self.eval_queries > self.pages:
            raise ValueError("more queries than pages to target")


class _SentenceBuilder:
    """Accumulates words into page text while tracking anchor offsets."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.length = 0
        self.anchors: list[dict] = []
        self.word_count = 0

    def _append(self, piece: str) -> None:
        if self.parts and not self.parts[-1].endswith(("\n", " ")):
            self.parts.append(" ")
            self.length += 1
        self.parts.append(piece)
        self.length += len(piece)

    def word(self, w: str) -> None:
        self._append(w)
        self.word_count += 1

    def anchor(self, surface: str, target_id: str) -> None:
        self._append(surface)
        start = self.length - len(surface)
        self.anchors.append({"start": start, "end": self.length, "surface": surface, "target_id": target_id})
        self.word_count += len(surface.split())

    def end_sentence(self) -> None:
        self.parts.append(".")
        self.length += 1

    def blank_line(self) -> None:
        self.parts.append("\n\n")
        self.length += 2

    def text(self) -> str:
        return "".join(self.parts)


def _topic_words(topic: str) -> list[str]:
    return [f"{topic}{i}" for i in range(WORDS_PER_TOPIC)]


def _page_meta(cfg: SynthConfig) -> list[dict]:
    """Topic, id, title per page; even pages get a two-token title so some
    anchors are multi-word."""
    metas = []
    topics = TOPIC_NAMES[: cfg.topics]
    for i in range(cfg.pages):
        topic = topics[i % cfg.topics]
        head = f"{topic}p{i}"
        title = f"{head} guide" if i % 2 == 0 else head
        metas.append({"id": f"pg{i:04d}", "topic": topic, "title": title, "head": head})
    return metas


def build_synthetic_corpus(cfg: SynthConfig) -> tuple[HyperlinkCorpus, list[dict]]:
    """Returns (parsed corpus, page metadata).  Fully deterministic in
    cfg.seed."""
    metas = _page_meta(cfg)
    by_topic: dict[str, list[dict]] = {}
    for meta in metas:
        by_topic.setdefault(meta["topic"], []).append(meta)

    # each ambiguous surface gets one owner page per topic in a rotating
    # subset of topics, so the same surface resolves differently by context
    ambiguous: dict[str, dict[str, str]] = {}
    topics = list(by_topic)
    for s_idx, surface in enumerate(AMBIGUOUS_SURFACES):
        owners: dict[str, str] = {}
        for t_idx in range(min(3, len(topics))):
            topic = topics[(s_idx + t_idx) % len(topics)]
            owner = by_topic[topic][s_idx % len(by_topic[topic])]
            owners[topic] = owner["id"]
        ambiguous[surface] = owners

    records = []
    for meta in metas:
        rng = derive_rng(cfg.seed, "synth", "page", meta["id"])
        words = _topic_words(meta["topic"])
        same_topic = [m for m in by_topic[meta["topic"]] if m["id"] != meta["id"]]
        other_topic = [m for m in metas if m["topic"] != meta["topic"]]
        builder = _SentenceBuilder()

        def plain_words(n: int) -> None:
            for _ in range(n):
                if rng.random() < 0.25:
                    builder.word(FILLERS[int(rng.integers(len(FILLERS)))])
                else:
                    builder.word(words[int(rng.integers(len(words)))])

        def anchor_to(target_meta: dict) -> None:
            surface = target_meta["title"]
            if rng.random() < 0.3:
                surface = surface[0].upper() + surface[1:]
            builder.anchor(surface, target_meta["id"])

        # summary: two anchor-free sentences; the first opens with the title,
        # which also guarantees every title token is in-vocab
        for w in meta["title"].split():
            builder.word(w)
        plain_words(int(rng.integers(10, 15)))
        builder.end_sentence()
        plain_words(int(rng.integers(12, 17)))
        builder.end_sentence()
        builder.blank_line()

        sent_idx = 0
        while builder.word_count < MIN_BODY_WORDS:
            kind = sent_idx % 5
            plain_words(int(rng.integers(4, 7)))
            if kind == 0 and len(same_topic) >= 2:
                # co-occurring anchors share the page's topic; the first is
                # mentioned twice up front so its merged importance and its
                # position both mark it as the dominant anchor
                first = same_topic[int(rng.integers(len(same_topic)))]
                second = same_topic[int(rng.integers(len(same_topic)))]
                while second["id"] == first["id"]:
                    second = same_topic[int(rng.integers(len(same_topic)))]
                anchor_to(first)
                plain_words(int(rng.integers(2, 4)))
                builder.anchor(first["title"], first["id"])
                plain_words(int(rng.integers(2, 4)))
                anchor_to(second)
            elif kind == 1 and same_topic:
                anchor_to(same_topic[int(rng.integers(len(same_topic)))])
            elif kind == 2:
                owned = [s for s in AMBIGUOUS_SURFACES if meta["topic"] in ambiguous[s]]
                if owned and rng.random() < 0.8:
                    surface = owned[int(rng.integers(len(owned)))]
                    builder.anchor(surface, ambiguous[surface][meta["topic"]])
                elif same_topic:
                    anchor_to(same_topic[int(rng.integers(len(same_topic)))])
            elif kind == 3:
                pool = same_topic if rng.random() < 0.8 and same_topic else other_topic
                if pool:
                    anchor_to(pool[int(rng.integers(len(pool)))])
            elif kind == 4 and sent_idx % 10 == 9:
                builder.anchor(meta["title"], meta["id"])  # self-link, excluded downstream
            plain_words(int(rng.integers(4, 7)))
            builder.end_sentence()
            sent_idx += 1

        records.append(
            {
                "id": meta["id"],
                "title": meta["title"],
                "url": f"https://example.org/{meta['topic']}/{meta['head']}",
                "text": builder.text(),
                "anchors": builder.anchors,
            }
        )

    corpus = parse_corpus(json.dumps(r) for r in records)
    return corpus, metas


def build_retrieval_split(
    cfg: SynthConfig, metas: list[dict]
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Train and eval splits: queries, graded qrels, shuffled candidate
    lists whose input order is uncorrelated with relevance."""
    rng = derive_rng(cfg.seed, "synth", "queries")
    order = rng.permutation(len(metas))
    chosen = [metas[i] for i in order[: cfg.train_queries + cfg.eval_queries]]
    splits = {
        "train": chosen[: cfg.train_queries],
        "eval": chosen[cfg.train_queries :],
    }
    out: dict[str, dict] = {}
    for split, pages in splits.items():
        queries: dict[str, str] = {}
        qrels: Qrels = {}
        candidates: dict[str, list[tuple[str, float]]] = {}
        for idx, meta in enumerate(pages):
            qid = f"{split}{idx:03d}"
            q_rng = derive_rng(cfg.seed, "synth", "query", qid)
            words = _topic_words(meta["topic"])
            extra = [words[int(q_rng.integers(len(words)))] for _ in range(2)]
            queries[qid] = f"{meta['head']} {' '.join(extra)}"

            # one graded relevant (the named page) among same-topic and
            # cross-topic distractors, shuffled so the input order carries
            # no signal; the title match in the query makes it learnable
            same = [m["id"] for m in metas if m["topic"] == meta["topic"] and m["id"] != meta["id"]]
            other = [m["id"] for m in metas if m["topic"] != meta["topic"]]
            qrels[qid] = {meta["id"]: int(q_rng.integers(1, 4))}
            n_same = min(4, len(same), cfg.candidates_per_query - 1)
            pick_same = [same[i] for i in q_rng.choice(len(same), size=n_same, replace=False)]
            n_other = cfg.candidates_per_query - 1 - n_same
            pick_other = [other[i] for i in q_rng.choice(len(other), size=n_other, replace=False)]
            docs = [meta["id"]] + pick_same + pick_other
            q_rng.shuffle(docs)
            candidates[qid] = [(doc, float(cfg.candidates_per_query - r)) for r, doc in enumerate(docs)]
        out[split] = {"queries": queries, "qrels": qrels, "candidates": candidates}
    return out["train"], out["eval"]


def synth_dataset(out_dir: str | Path, cfg: SynthConfig) -> dict[str, Path]:
    """Write the full synthetic dataset; returns the path map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus, metas = build_synthetic_corpus(cfg)
    train, eval_split = build_retrieval_split(cfg, metas)

    paths = {
        "corpus": out / "corpus.jsonl",
        "collection": out / "collection.jsonl",
        "train_queries": out / "train_queries.tsv",
        "train_qrels": out / "train_qrels.txt",
        "train_candidates": out / "train_candidates.txt",
        "eval_queries": out / "eval_queries.tsv",
        "eval_qrels": out / "eval_qrels.txt",
        "eval_candidates": out / "eval_candidates.txt",
    }
    write_corpus(corpus, paths["corpus"])
    write_collection(collection_from_corpus(corpus), paths["collection"])
    write_queries(train["queries"], paths["train_queries"])
    write_qrels(train["qrels"], paths["train_qrels"])
    write_run(train["candidates"], paths["train_candidates"], tag="synth")
    write_queries(eval_split["queries"], paths["eval_queries"])
    write_qrels(eval_split["qrels"], paths["eval_qrels"])
    write_run(eval_split["candidates"], paths["eval_candidates"], tag="synth")
    log.info("synthetic dataset: %d pages, %d train / %d eval queries", len(corpus), len(train["queries"]), len(eval_split["queries"]))
    return paths
