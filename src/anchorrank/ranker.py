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

from anchorrank.corpus import CorpusError, HyperlinkCorpus, Vocabulary, numbered_lines, tokenize
from anchorrank.encoder import CheckpointError, EncoderConfig, EncoderGraph, cls_scores, stack_runs
from anchorrank.encoder import load_checkpoint, save_checkpoint
from anchorrank.encoder import adam_step, zero_grads  # noqa: F401  (bench/perlayer.py wraps these two names here)
from anchorrank.evalkit import read_run as read_candidates  # noqa: F401  (bench/run.py:243, the train set-up, calls it by this name)
from anchorrank.pretrain import Schedule, TrainError, pack_input, run_steps

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
class FinetuneConfig(Schedule):
    lr: float = 1e-5
    epochs: int = 2
    warmup: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.warmup < 1.0:
            raise ValueError(f"warmup must be in [0, 1), got {self.warmup}")


@dataclass
class RankerModel:
    params: dict[str, np.ndarray]
    config: EncoderConfig
    vocab: Vocabulary


def load_model(path: str | Path, expected_config: EncoderConfig | None = None) -> RankerModel:
    """A checkpoint whose vocabulary is not a Vocabulary.from_id_to_term
    list of config.vocab_size terms is a CheckpointError."""
    ck = load_checkpoint(path, expected_config=expected_config)
    try:
        vocab = Vocabulary.from_id_to_term(ck.extra.get("vocab"))
    except CorpusError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if len(vocab) != ck.config.vocab_size:
        raise CheckpointError(f"{path}: vocabulary has {len(vocab)} terms, config.vocab_size is {ck.config.vocab_size}")
    return RankerModel(params=ck.params, config=ck.config, vocab=vocab)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def score_tokens(model: RankerModel, query_tokens: Sequence[str], doc_tokens: Sequence[str]) -> float:
    """Relevance probability in (0, 1): logistic over the CLS score of the
    packed (query, document) sequence, bitwise what rerank gives it."""
    packed = pack_input(query_tokens, doc_tokens, model.vocab, model.config.max_len)
    return _sigmoid(cls_scores(model.params, model.config, [packed])[0])


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

    A step packs its batch, cuts it into runs of consecutive equal-length
    packings (encoder.stack_runs), and back-propagates one stacked graph
    per run, in batch order: the same bits as one graph per example.
    """
    query_tokens: dict[str, list[str]] = {}
    for ex in examples:
        if ex.label not in (0, 1):
            raise ValueError(f"fine-tuning labels must be binary, got {ex.label!r} for {ex.query_id}/{ex.doc_id}")
        if ex.doc_id not in collection:
            raise ValueError(f"example references unknown document {ex.doc_id!r}")
        if ex.query_text not in query_tokens:
            query_tokens[ex.query_text] = tokenize(ex.query_text)

    if not examples and config.epochs > 0:
        raise TrainError("no fine-tuning examples")

    params = {k: v.copy() for k, v in model.params.items()}

    def body(indices, grads):
        batch = [examples[i] for i in indices]
        packings = [
            pack_input(query_tokens[ex.query_text], collection[ex.doc_id].tokens, model.vocab, model.config.max_len)
            for ex in batch
        ]
        loss = 0.0
        for start, stop in stack_runs([len(token_ids) for token_ids, _ in packings]):
            graph = EncoderGraph(params, model.config, *zip(*packings[start:stop]), outputs=[0])
            d_scores = []
            for ex, logit in zip(batch[start:stop], graph.cls_score()):
                s = _sigmoid(logit)
                eps = 1e-12
                loss += -(ex.label * math.log(s + eps) + (1 - ex.label) * math.log(1.0 - s + eps))
                d_scores.append((s - ex.label) / len(indices))
            graph.backward(grads, d_score=d_scores)
        return {"total": loss / len(indices)}

    _, step = run_steps(len(examples), config, "finetune", params, body, log, config.warmup)
    if checkpoint_path is not None:
        meta = {"stage": "finetune", "finetune_config": config.to_dict(), "vocab": model.vocab.id_to_term, "steps": step}
        save_checkpoint(checkpoint_path, params, model.config, extra=meta)
    return RankerModel(params=params, config=model.config, vocab=model.vocab)


def rerank(
    model: RankerModel,
    query_text: str,
    candidates: Sequence[tuple[str, float]],
    k: int,
    collection: dict[str, DocRecord],
) -> list[tuple[str, float]]:
    """Sort candidates by model score, ties broken by first-stage order,
    truncated to k.  The output is always a permutation-prefix of the
    input documents.

    Every candidate is packed first and the packings are scored in stacks
    of equal length (cls_scores); each score is bitwise
    score_tokens' for that candidate."""
    if not candidates:
        raise ValueError("candidate list is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    query_tokens = tokenize(query_text)
    packings = []
    for doc_id, _ in candidates:
        if doc_id not in collection:
            raise ValueError(f"candidate document {doc_id!r} missing from collection")
        packings.append(pack_input(query_tokens, collection[doc_id].tokens, model.vocab, model.config.max_len))
    scores = [_sigmoid(s) for s in cls_scores(model.params, model.config, packings)]
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    return [(candidates[i][0], scores[i]) for i in order[:k]]


def read_collection(path: str | Path) -> dict[str, DocRecord]:
    """JSONL records with id, title, url, body; a record whose title, url
    and body are all empty, or whose id is not one word, is an error."""
    docs: dict[str, DocRecord] = {}
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            doc = DocRecord(id=rec["id"], title=rec.get("title", ""), url=rec.get("url", ""), body=rec.get("body", ""))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {line_no}: bad document record: {exc}") from None
        if not all(isinstance(v, str) for v in (doc.id, doc.title, doc.url, doc.body)):
            raise ValueError(f"{path}: line {line_no}: id, title, url and body must be strings")
        if doc.id.split() != [doc.id]:  # a run line holds it as one field
            raise ValueError(f"{path}: line {line_no}: document id {doc.id!r} is empty or holds whitespace")
        if doc.id in docs:
            raise ValueError(f"{path}: line {line_no}: duplicate document id {doc.id!r}")
        if not (doc.title or doc.url or doc.body):
            raise ValueError(f"{path}: line {line_no}: document {doc.id!r} has no text")
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


def read_queries(path: str | Path) -> dict[str, str]:
    """Tab-separated "qid<TAB>query text" lines, one per query id; a qid
    must be one word."""
    queries: dict[str, str] = {}
    for line_no, line in numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ValueError(f"{path}: line {line_no}: expected 'qid<TAB>text'")
        qid, text = line.split("\t", 1)
        if qid.split() != [qid]:  # a run line holds it as one field
            raise ValueError(f"{path}: line {line_no}: query id {qid!r} is empty or holds whitespace")
        if qid in queries:
            raise ValueError(f"{path}: line {line_no}: duplicate query id {qid!r}")
        if not tokenize(text):
            raise ValueError(f"{path}: line {line_no}: query {qid!r} has no word token")
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
            raise ValueError(f"candidate query {qid!r} has no query text")
        judged = qrels.get(qid, {})
        for doc_id, _ in candidates[qid]:
            label = 1 if judged.get(doc_id, 0) >= 1 else 0
            examples.append(RankingExample(query_id=qid, query_text=queries[qid], doc_id=doc_id, label=label))
    return examples
