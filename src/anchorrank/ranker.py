"""Fine-tuning the pre-trained encoder as a pointwise reranker, and
reranking first-stage candidate lists."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from anchorrank.corpus import HyperlinkCorpus, Vocabulary, tokenize
from anchorrank.encoder import AdamState, EncoderConfig, EncoderGraph, adam_step, cls_score, load_checkpoint, save_checkpoint, zero_grads
from anchorrank.pretrain import pack_input
from anchorrank.taskgen import derive_rng

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DocRecord:
    id: str
    title: str
    url: str
    body: str

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """Tokens of title + url + body, in that order, computed on first use
        and kept; truncation happens at pack time, not here.  The record is
        frozen, so they cannot go stale."""
        if not (self.title or self.url or self.body):
            raise ValueError(f"document {self.id!r} has no text fields")
        return tuple(tokenize(self.title) + tokenize(self.url) + tokenize(self.body))


def document_text(doc: DocRecord) -> list[str]:
    """A fresh list of the document's tokens (DocRecord.tokens)."""
    return list(doc.tokens)


@dataclass
class RankingExample:
    query_id: str
    query_text: str
    doc_id: str
    label: int


@dataclass
class FinetuneConfig:
    lr: float = 1e-5
    epochs: int = 2
    warmup: float = 0.1
    batch_size: int = 128
    seed: int = 0
    max_len: int = 512
    log_every: int = 50
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("lr and batch_size must be positive, epochs >= 0")
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError("warmup portion must be in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "epochs": self.epochs,
            "warmup": self.warmup,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "max_len": self.max_len,
            "log_every": self.log_every,
            "max_steps": self.max_steps,
        }


@dataclass
class RankerModel:
    params: dict[str, np.ndarray]
    config: EncoderConfig
    vocab: Vocabulary


def load_model(path: str | Path, expected_config: EncoderConfig | None = None) -> RankerModel:
    ck = load_checkpoint(path, expected_config=expected_config)
    terms = ck.extra.get("vocab")
    if not terms:
        raise ValueError(f"{path}: checkpoint carries no vocabulary")
    vocab = Vocabulary(id_to_term=list(terms), term_to_id={t: i for i, t in enumerate(terms)})
    return RankerModel(params=ck.params, config=ck.config, vocab=vocab)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def score_tokens(model: RankerModel, query_tokens: Sequence[str], doc_tokens: Sequence[str]) -> float:
    """Relevance probability in (0, 1): logistic over the CLS score of the
    packed (query, document) sequence."""
    packed = pack_input(query_tokens, doc_tokens, model.vocab, model.config.max_len)
    return _sigmoid(cls_score(model.params, model.config, packed.token_ids, packed.segment_ids))


def score(model: RankerModel, query_text: str, doc: DocRecord) -> float:
    return score_tokens(model, tokenize(query_text), document_text(doc))


def finetune(
    model: RankerModel,
    examples: Sequence[RankingExample],
    collection: dict[str, DocRecord],
    config: FinetuneConfig,
    checkpoint_path: str | Path | None = None,
) -> RankerModel:
    """Minimize mean binary cross-entropy with linear learning-rate warmup
    over the first `warmup` portion of steps, then a constant rate.

    The input model is left untouched; training happens on a copy, so the
    loaded checkpoint stays bitwise intact until the first step.
    """
    for ex in examples:
        if ex.label not in (0, 1):
            raise ValueError(f"fine-tuning labels must be binary, got {ex.label!r} for {ex.query_id}/{ex.doc_id}")
        if ex.doc_id not in collection:
            raise ValueError(f"example references unknown document {ex.doc_id!r}")

    params = {k: v.copy() for k, v in model.params.items()}
    adam = AdamState.zeros(params)
    drop_rng = derive_rng(config.seed, "finetune", "dropout") if model.config.dropout > 0.0 else None

    steps_per_epoch = math.ceil(len(examples) / config.batch_size) if examples else 0
    total_steps = config.epochs * steps_per_epoch
    if config.max_steps is not None:
        total_steps = min(total_steps, config.max_steps)
    warmup_steps = max(1, round(config.warmup * total_steps)) if total_steps else 1

    step = 0
    done = False
    for epoch in range(config.epochs):
        if done:
            break
        order = derive_rng(config.seed, "finetune", "epoch", epoch).permutation(len(examples))
        for start in range(0, order.size, config.batch_size):
            batch = [examples[i] for i in order[start : start + config.batch_size]]
            grads = zero_grads(params)
            loss = 0.0
            for ex in batch:
                packed = pack_input(tokenize(ex.query_text), collection[ex.doc_id].tokens, model.vocab, config.max_len)
                graph = EncoderGraph(params, model.config, packed.token_ids, packed.segment_ids, dropout_rng=drop_rng)
                z = graph.cls_score()
                s = _sigmoid(z)
                eps = 1e-12
                loss += -(ex.label * math.log(s + eps) + (1 - ex.label) * math.log(1.0 - s + eps))
                graph.backward(grads, d_score=(s - ex.label) / len(batch))
            loss /= len(batch)
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite fine-tune loss at step {step + 1}")
            step += 1
            lr = config.lr * min(1.0, step / warmup_steps)
            adam_step(params, grads, adam, lr=lr)
            if step % config.log_every == 0:
                log.info("finetune step %d/%d loss %.4f lr %.2e", step, total_steps, loss, lr)
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break

    out = RankerModel(params=params, config=model.config, vocab=model.vocab)
    if checkpoint_path is not None:
        meta = {"stage": "finetune", "finetune_config": config.to_dict(), "vocab": model.vocab.id_to_term, "steps": step}
        save_checkpoint(checkpoint_path, params, model.config, extra=meta)
    return out


def rerank(
    model: RankerModel,
    query_text: str,
    candidates: Sequence[tuple[str, float]],
    k: int,
    collection: dict[str, DocRecord],
) -> list[tuple[str, float]]:
    """Sort candidates by model score, ties broken by first-stage order,
    truncated to k.  The output is always a permutation-prefix of the
    input documents."""
    if not candidates:
        raise ValueError("candidate list is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    query_tokens = tokenize(query_text)
    scored = []
    for idx, (doc_id, _) in enumerate(candidates):
        if doc_id not in collection:
            raise ValueError(f"candidate document {doc_id!r} missing from collection")
        scored.append((doc_id, score_tokens(model, query_tokens, collection[doc_id].tokens), idx))
    scored.sort(key=lambda t: (-t[1], t[2]))
    return [(doc_id, s) for doc_id, s, _ in scored[:k]]


def read_collection(path: str | Path) -> dict[str, DocRecord]:
    """JSONL records with id, title, url, body."""
    docs: dict[str, DocRecord] = {}
    with Path(path).open("r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                doc = DocRecord(id=rec["id"], title=rec.get("title", ""), url=rec.get("url", ""), body=rec.get("body", ""))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: line {line_no}: bad document record: {exc}") from None
            if doc.id in docs:
                raise ValueError(f"{path}: line {line_no}: duplicate document id {doc.id!r}")
            docs[doc.id] = doc
    return docs


def collection_from_corpus(corpus: HyperlinkCorpus) -> dict[str, DocRecord]:
    return {
        page.id: DocRecord(id=page.id, title=page.title, url=page.url, body=page.text)
        for page in corpus.iter_pages()
    }


def write_collection(docs: dict[str, DocRecord], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for doc_id in sorted(docs):
            d = docs[doc_id]
            f.write(json.dumps({"id": d.id, "title": d.title, "url": d.url, "body": d.body}, ensure_ascii=False) + "\n")


def read_candidates(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """First-stage lists: lines of "qid docid rank score"."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    with Path(path).open("r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}: line {line_no}: expected 'qid docid rank score'")
            qid, doc_id, rank_s, score_s = parts
            try:
                rank, retrieval = int(rank_s), float(score_s)
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: bad rank or score") from None
            rows.setdefault(qid, []).append((rank, doc_id, retrieval))
    out: dict[str, list[tuple[str, float]]] = {}
    for qid, entries in rows.items():
        entries.sort(key=lambda t: t[0])
        docs = [d for _, d, _ in entries]
        if len(set(docs)) != len(docs):
            raise ValueError(f"{path}: duplicate candidate document for query {qid!r}")
        out[qid] = [(d, s) for _, d, s in entries]
    return out


def write_candidates(candidates: dict[str, list[tuple[str, float]]], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for qid in sorted(candidates):
            for rank, (doc_id, retrieval) in enumerate(candidates[qid], start=1):
                f.write(f"{qid} {doc_id} {rank} {retrieval:.6f}\n")


def read_queries(path: str | Path) -> dict[str, str]:
    """Tab-separated "qid<TAB>query text" lines."""
    queries: dict[str, str] = {}
    with Path(path).open("r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: line {line_no}: expected 'qid<TAB>text'")
            qid, text = line.split("\t", 1)
            queries[qid] = text
    return queries


def write_queries(queries: dict[str, str], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for qid in sorted(queries):
            f.write(f"{qid}\t{queries[qid]}\n")


def examples_from_candidates(
    queries: dict[str, str],
    candidates: dict[str, list[tuple[str, float]]],
    qrels: dict[str, dict[str, int]],
) -> list[RankingExample]:
    """Pointwise training examples: every candidate judged relevant
    (grade >= 1) is a positive, the rest are negatives."""
    examples = []
    for qid in sorted(candidates):
        if qid not in queries:
            continue
        judged = qrels.get(qid, {})
        for doc_id, _ in candidates[qid]:
            label = 1 if judged.get(doc_id, 0) >= 1 else 0
            examples.append(RankingExample(query_id=qid, query_text=queries[qid], doc_id=doc_id, label=label))
    return examples
