"""Input packing, MLM masking, the pairwise + MLM losses, and the joint
pre-training loop."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from anchorrank.corpus import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIAL_TOKENS,
    SEP_ID,
    HyperlinkCorpus,
    Vocabulary,
    page_summary,
)
from anchorrank.encoder import AdamState, EncoderConfig, EncoderGraph, adam_step, cls_score, init_params, save_checkpoint, zero_grads
from anchorrank.taskgen import TASKS, PretrainPair, derive_rng

log = logging.getLogger(__name__)


class PackError(ValueError):
    """Query/document cannot be packed within max_len."""


class TrainError(RuntimeError):
    """Training diverged or received invalid inputs."""


@dataclass
class PackedSequence:
    """[CLS] query [SEP] document [SEP] with 0/1 segment ids; sequences are
    packed unpadded, so every position is attended to."""

    token_ids: np.ndarray
    segment_ids: np.ndarray


@dataclass
class MaskedBatch:
    seq: PackedSequence
    labels: list[tuple[int, int]]  # (position, original token id)


def flatten_query(query_tokens: Sequence[str]) -> list[str]:
    """Word-set elements may be multi-word phrases (anchor surfaces); split
    them back into vocabulary tokens for encoding."""
    return [t for element in query_tokens for t in element.split()]


def pack_input(query_tokens: Sequence[str], doc_tokens: Sequence[str], vocab: Vocabulary, max_len: int) -> PackedSequence:
    query = flatten_query(query_tokens)
    if not query:
        raise PackError("query must be non-empty")
    if len(query) + 3 > max_len:
        raise PackError(f"query of {len(query)} tokens cannot fit in max_len {max_len}")
    budget = max_len - 3 - len(query)
    doc = list(doc_tokens)[:budget]
    ids = [CLS_ID] + vocab.encode(query) + [SEP_ID] + vocab.encode(doc) + [SEP_ID]
    segs = [0] * (len(query) + 2) + [1] * (len(doc) + 1)
    return PackedSequence(token_ids=np.array(ids, dtype=np.int64), segment_ids=np.array(segs, dtype=np.int64))


def mask_tokens(seq: PackedSequence, vocab_size: int, rng: np.random.Generator, mask_rate: float = 0.15) -> MaskedBatch:
    """Select round(mask_rate * maskable) positions (at least one when any
    exist); replace with [MASK] 80% of the time, a random non-special token
    10%, and leave unchanged 10%.  Special tokens are never selected."""
    ids = seq.token_ids.copy()
    maskable = np.flatnonzero(ids >= NUM_SPECIAL_TOKENS)
    labels: list[tuple[int, int]] = []
    if maskable.size:
        count = max(1, round(mask_rate * maskable.size))
        chosen = np.sort(rng.choice(maskable, size=count, replace=False))
        for pos in chosen:
            pos = int(pos)
            labels.append((pos, int(ids[pos])))
            roll = rng.random()
            if roll < 0.8:
                ids[pos] = MASK_ID
            elif roll < 0.9:
                ids[pos] = int(rng.integers(NUM_SPECIAL_TOKENS, vocab_size))
            # else: unchanged
    masked = PackedSequence(token_ids=ids, segment_ids=seq.segment_ids)
    return MaskedBatch(seq=masked, labels=labels)


def unmask(batch: MaskedBatch) -> np.ndarray:
    """Restore the original token ids from the labels."""
    ids = batch.seq.token_ids.copy()
    for pos, original in batch.labels:
        ids[pos] = original
    return ids


def hinge_loss(p_pos: float, p_neg: float) -> float:
    """max(0, 1 - p_pos + p_neg)."""
    if not (math.isfinite(p_pos) and math.isfinite(p_neg)):
        raise TrainError(f"non-finite scores in hinge loss: {p_pos}, {p_neg}")
    return max(0.0, 1.0 - p_pos + p_neg)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlm_loss(logits: np.ndarray, labels: Sequence[tuple[int, int]]) -> float:
    """Mean negative log-likelihood of the original tokens; 0 when nothing
    was masked."""
    if len(labels) == 0:
        return 0.0
    targets = np.array([t for _, t in labels], dtype=np.int64)
    ls = _log_softmax(np.asarray(logits, dtype=np.float64))
    return float(-ls[np.arange(targets.size), targets].mean())


def mlm_loss_and_grad(logits: np.ndarray, labels: Sequence[tuple[int, int]]) -> tuple[float, np.ndarray]:
    targets = np.array([t for _, t in labels], dtype=np.int64)
    ls = _log_softmax(np.asarray(logits, dtype=np.float64))
    loss = float(-ls[np.arange(targets.size), targets].mean())
    d_logits = np.exp(ls)
    d_logits[np.arange(targets.size), targets] -= 1.0
    d_logits /= targets.size
    return loss, d_logits


def default_task_weights() -> dict[str, float]:
    return {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0}


@dataclass
class TrainConfig:
    """Full-profile training constants are the defaults; toy profiles override them."""

    lam: float = 3.0
    lr: float = 1e-4
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    max_len: int = 512
    mask_rate: float = 0.15
    task_weights: dict[str, float] = field(default_factory=default_task_weights)
    summary_max_tokens: int = 512
    log_every: int = 50
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.lr <= 0 or self.batch_size < 1 or self.max_len < 4:
            raise ValueError("lam, lr, batch_size, max_len must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError("mask_rate must be in (0, 1)")
        for key in default_task_weights():
            self.task_weights.setdefault(key, 1.0)

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "lr": self.lr,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "max_len": self.max_len,
            "mask_rate": self.mask_rate,
            "task_weights": dict(self.task_weights),
            "summary_max_tokens": self.summary_max_tokens,
            "log_every": self.log_every,
            "max_steps": self.max_steps,
        }


def summary_lookup(corpus: HyperlinkCorpus, max_tokens: int) -> Callable[[str], list[str]]:
    cache: dict[str, list[str]] = {}

    def lookup(page_id: str) -> list[str]:
        if page_id not in cache:
            if page_id not in corpus.pages:
                raise TrainError(f"pair references unknown page {page_id!r}")
            cache[page_id] = page_summary(corpus.pages[page_id], max_tokens)
        return cache[page_id]

    return lookup


def joint_step(
    pairs: Sequence[PretrainPair],
    params: dict[str, np.ndarray],
    enc_config: EncoderConfig,
    vocab: Vocabulary,
    doc_tokens: Callable[[str], list[str]],
    config: TrainConfig,
    adam: AdamState,
    rng: np.random.Generator,
) -> dict:
    """One optimizer step over a batch of pairs.

    Per pair: the clean positive and negative packings are scored (the
    hinge is attributed to the pair's task), and the MLM objective runs on
    a masked forward of the positive packing.  Scoring masked inputs would
    let the margin be satisfied by detecting [MASK] tokens, so the scored
    packings are never masked.  Logged components are sums over the batch
    divided by batch size, so the total is literally their weighted sum.
    """
    if not pairs:
        raise TrainError("empty batch")
    weights = config.task_weights
    n = len(pairs)
    grads = zero_grads(params)
    task_sums = {t: 0.0 for t in TASKS}
    task_counts = {t: 0 for t in TASKS}
    mlm_sum = 0.0
    drop_rng = rng if enc_config.dropout > 0.0 else None

    for pair in pairs:
        pos_doc = doc_tokens(pair.pos_doc_id)
        pos_packed = pack_input(pair.query_tokens, pos_doc, vocab, config.max_len)
        if pair.task == "rqp":
            if not pair.neg_query_tokens:
                raise TrainError(f"rqp pair {pair.seed_path} missing negative query")
            neg_packed = pack_input(pair.neg_query_tokens, pos_doc, vocab, config.max_len)
        else:
            neg_packed = pack_input(pair.query_tokens, doc_tokens(pair.neg_doc_id), vocab, config.max_len)

        g_pos = EncoderGraph(params, enc_config, pos_packed.token_ids, pos_packed.segment_ids, dropout_rng=drop_rng)
        s_pos = g_pos.cls_score()
        g_neg = EncoderGraph(params, enc_config, neg_packed.token_ids, neg_packed.segment_ids, dropout_rng=drop_rng)
        s_neg = g_neg.cls_score()
        hinge = hinge_loss(s_pos, s_neg)
        task_sums[pair.task] += hinge
        task_counts[pair.task] += 1

        w_task = weights.get(pair.task, 1.0)
        w_mlm = weights.get("mlm", 1.0)
        if hinge > 0.0 and w_task != 0.0:
            g_pos.backward(grads, d_score=-(w_task / n))
            g_neg.backward(grads, d_score=w_task / n)

        masked = mask_tokens(pos_packed, enc_config.vocab_size, rng, config.mask_rate)
        if masked.labels:
            g_mlm = EncoderGraph(params, enc_config, masked.seq.token_ids, masked.seq.segment_ids, dropout_rng=drop_rng)
            logits = g_mlm.mlm_logits([p for p, _ in masked.labels])
            pair_mlm, d_logits = mlm_loss_and_grad(logits, masked.labels)
            mlm_sum += pair_mlm
            if w_mlm != 0.0:
                g_mlm.backward(grads, d_mlm_logits=d_logits * (w_mlm / n))

    components = {t: task_sums[t] / n for t in TASKS}
    components["mlm"] = mlm_sum / n
    total = sum(weights.get(k, 1.0) * v for k, v in components.items())
    if not math.isfinite(total):
        raise TrainError(f"non-finite loss: components={components}")
    adam_step(params, grads, adam, lr=config.lr)
    return {"total": total, "components": components, "task_counts": task_counts, "pairs": n}


def _batches(order: np.ndarray, batch_size: int) -> Iterable[np.ndarray]:
    for start in range(0, order.size, batch_size):
        yield order[start : start + batch_size]


def train(
    pairs: Sequence[PretrainPair],
    corpus: HyperlinkCorpus,
    enc_config: EncoderConfig,
    config: TrainConfig,
    vocab: Vocabulary,
    init: dict[str, np.ndarray] | None = None,
    checkpoint_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
    extra_meta: dict | None = None,
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Run the joint pre-training loop and optionally write the checkpoint
    and a JSONL metrics log.  Deterministic for a fixed config and seed."""
    if not pairs and config.epochs > 0:
        raise TrainError("no training pairs")
    params = {k: v.copy() for k, v in init.items()} if init is not None else init_params(enc_config, config.seed)
    adam = AdamState.zeros(params)
    doc_tokens = summary_lookup(corpus, config.summary_max_tokens)
    mask_rng = derive_rng(config.seed, "pretrain", "mask")

    logs: list[dict] = []
    step = 0
    done = False
    for epoch in range(config.epochs):
        if done:
            break
        order = derive_rng(config.seed, "pretrain", "epoch", epoch).permutation(len(pairs))
        for batch_idx in _batches(order, config.batch_size):
            metrics = joint_step(
                [pairs[i] for i in batch_idx], params, enc_config, vocab, doc_tokens, config, adam, mask_rng
            )
            step += 1
            if step % config.log_every == 0 or (config.max_steps is not None and step >= config.max_steps):
                entry = {"step": step, "epoch": epoch, **metrics}
                logs.append(entry)
                log.info(
                    "step %d total %.4f mlm %.4f", step, metrics["total"], metrics["components"]["mlm"]
                )
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break

    meta = {"stage": "pretrain", "train_config": config.to_dict(), "vocab": vocab.id_to_term, "steps": step}
    if extra_meta:
        meta.update(extra_meta)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, enc_config, extra=meta, adam=adam)
    if metrics_path is not None:
        with Path(metrics_path).open("w", encoding="utf-8") as f:
            for entry in logs:
                f.write(json.dumps(entry) + "\n")
    return params, logs


def mlm_warmup(
    corpus: HyperlinkCorpus,
    enc_config: EncoderConfig,
    config: TrainConfig,
    vocab: Vocabulary,
    checkpoint_path: str | Path | None = None,
) -> dict[str, np.ndarray]:
    """MLM-only warm-up used to produce the fixed sampling checkpoint: each
    example packs a sentence with its own page's summary and trains only
    the masked-token objective (all pairwise weights zero)."""
    examples = []
    doc_tokens = summary_lookup(corpus, config.summary_max_tokens)
    for sent in corpus.iter_sentences():
        if sent.tokens and len(sent.tokens) + 3 <= config.max_len:
            examples.append(sent)
    if not examples and config.epochs > 0:
        raise TrainError("no usable sentences for warm-up")

    params = init_params(enc_config, config.seed)
    adam = AdamState.zeros(params)
    mask_rng = derive_rng(config.seed, "warmup", "mask")
    drop_rng = mask_rng if enc_config.dropout > 0.0 else None
    step = 0
    done = False
    for epoch in range(config.epochs):
        if done:
            break
        order = derive_rng(config.seed, "warmup", "epoch", epoch).permutation(len(examples))
        for batch_idx in _batches(order, config.batch_size):
            batch = [examples[i] for i in batch_idx]
            grads = zero_grads(params)
            total = 0.0
            contributing = 0
            for sent in batch:
                packed = pack_input(list(sent.tokens), doc_tokens(sent.page_id), vocab, config.max_len)
                masked = mask_tokens(packed, enc_config.vocab_size, mask_rng, config.mask_rate)
                if not masked.labels:
                    continue
                graph = EncoderGraph(params, enc_config, masked.seq.token_ids, masked.seq.segment_ids, dropout_rng=drop_rng)
                logits = graph.mlm_logits([p for p, _ in masked.labels])
                loss, d_logits = mlm_loss_and_grad(logits, masked.labels)
                total += loss
                contributing += 1
                graph.backward(grads, d_mlm_logits=d_logits / len(batch))
            if not math.isfinite(total):
                raise TrainError("non-finite warm-up loss")
            adam_step(params, grads, adam, lr=config.lr)
            step += 1
            if step % config.log_every == 0:
                log.info("warmup step %d mlm %.4f", step, total / max(contributing, 1))
            if config.max_steps is not None and step >= config.max_steps:
                done = True
                break

    if checkpoint_path is not None:
        meta = {"stage": "sampler-warmup", "train_config": config.to_dict(), "vocab": vocab.id_to_term}
        save_checkpoint(checkpoint_path, params, enc_config, extra=meta)
    return params


def pairwise_accuracy(
    pairs: Sequence[PretrainPair],
    params: dict[str, np.ndarray],
    enc_config: EncoderConfig,
    vocab: Vocabulary,
    corpus: HyperlinkCorpus,
    config: TrainConfig,
) -> float:
    """Fraction of pairs whose positive packing outscores the negative."""
    if not pairs:
        raise ValueError("no pairs to evaluate")
    doc_tokens = summary_lookup(corpus, config.summary_max_tokens)
    wins = 0
    for pair in pairs:
        pos_doc = doc_tokens(pair.pos_doc_id)
        pos = pack_input(pair.query_tokens, pos_doc, vocab, config.max_len)
        if pair.task == "rqp":
            neg = pack_input(pair.neg_query_tokens, pos_doc, vocab, config.max_len)
        else:
            neg = pack_input(pair.query_tokens, doc_tokens(pair.neg_doc_id), vocab, config.max_len)
        s_pos = cls_score(params, enc_config, pos.token_ids, pos.segment_ids)
        s_neg = cls_score(params, enc_config, neg.token_ids, neg.segment_ids)
        if s_pos > s_neg:
            wins += 1
    return wins / len(pairs)
