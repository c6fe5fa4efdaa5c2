"""Input packing, MLM masking, the pairwise + MLM losses, and the joint
pre-training loop."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

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

MASK_RATE = 0.15


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


def mask_tokens(seq: PackedSequence, vocab_size: int, rng: np.random.Generator) -> MaskedBatch:
    """Select round(MASK_RATE * maskable) positions (at least one when any
    exist); replace with [MASK] 80% of the time, a random non-special token
    10%, and leave unchanged 10%.  Special tokens are never selected."""
    ids = seq.token_ids.copy()
    maskable = np.flatnonzero(ids >= NUM_SPECIAL_TOKENS)
    labels: list[tuple[int, int]] = []
    if maskable.size:
        count = max(1, round(MASK_RATE * maskable.size))
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


def hinge_loss(p_pos: float, p_neg: float) -> float:
    """max(0, 1 - p_pos + p_neg)."""
    if not (math.isfinite(p_pos) and math.isfinite(p_neg)):
        raise TrainError(f"non-finite scores in hinge loss: {p_pos}, {p_neg}")
    return max(0.0, 1.0 - p_pos + p_neg)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlm_loss_and_grad(logits: np.ndarray, labels: Sequence[tuple[int, int]]) -> tuple[float, np.ndarray]:
    """Mean NLL of the labels and its gradient w.r.t. logits.  Both are
    computed in float64; the gradient is returned in the logits' dtype, so
    the graph's backward stays in its own."""
    targets = np.array([t for _, t in labels], dtype=np.int64)
    ls = _log_softmax(np.asarray(logits, dtype=np.float64))
    loss = float(-ls[np.arange(targets.size), targets].mean())
    d_logits = np.exp(ls)
    d_logits[np.arange(targets.size), targets] -= 1.0
    d_logits /= targets.size
    return loss, d_logits.astype(logits.dtype, copy=False)


def mlm_forward_backward(
    packed: PackedSequence,
    params: dict[str, np.ndarray],
    enc_config: EncoderConfig,
    rng: np.random.Generator,
    grads: dict[str, np.ndarray],
    scale: float,
) -> float | None:
    """Mask `packed` from rng, run the masked graph for the masked rows
    only, and accumulate scale times the gradient of its MLM loss into
    grads.  Returns that (unscaled) loss, or None when nothing was
    masked."""
    masked = mask_tokens(packed, enc_config.vocab_size, rng)
    if not masked.labels:
        return None
    positions = [p for p, _ in masked.labels]
    graph = EncoderGraph(params, enc_config, masked.seq.token_ids, masked.seq.segment_ids, outputs=positions)
    loss, d_logits = mlm_loss_and_grad(graph.mlm_logits(positions), masked.labels)
    if scale != 0.0:
        graph.backward(grads, d_mlm_logits=d_logits * scale)
    return loss


def default_task_weights() -> dict[str, float]:
    return {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0}


@dataclass
class Schedule:
    """What run_steps reads; full-profile constants are the defaults, toy profiles override them."""

    lr: float = 1e-4
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    max_len: int = 512
    log_every: int = 50
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.batch_size < 1 or self.max_len < 4 or self.epochs < 0:
            raise ValueError("lr, batch_size, max_len must be positive and epochs >= 0")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainConfig(Schedule):
    task_weights: dict[str, float] = field(default_factory=default_task_weights)
    summary_max_tokens: int = 512

    def __post_init__(self) -> None:
        super().__post_init__()
        unknown = sorted(set(self.task_weights) - set(default_task_weights()))
        if unknown:
            raise ValueError(f"unknown task_weights keys {unknown} (expected among {', '.join(default_task_weights())})")
        for key in default_task_weights():
            self.task_weights.setdefault(key, 1.0)


def summary_lookup(corpus: HyperlinkCorpus, max_tokens: int) -> Callable[[str], list[str]]:
    cache: dict[str, list[str]] = {}

    def lookup(page_id: str) -> list[str]:
        if page_id not in cache:
            if page_id not in corpus.pages:
                raise TrainError(f"pair references unknown page {page_id!r}")
            cache[page_id] = page_summary(corpus.pages[page_id], max_tokens)
        return cache[page_id]

    return lookup


def pack_pair(
    pair: PretrainPair, vocab: Vocabulary, doc_tokens: Callable[[str], list[str]], max_len: int
) -> tuple[PackedSequence, PackedSequence]:
    """The positive and negative packings of a pair: an rqp negative swaps
    in the negative query against the same document, every other task the
    negative document against the same query."""
    pos_doc = doc_tokens(pair.pos_doc_id)
    pos = pack_input(pair.query_tokens, pos_doc, vocab, max_len)
    if pair.task == "rqp":
        if not pair.neg_query_tokens:
            raise TrainError(f"rqp pair {pair.seed_path} missing negative query")
        neg = pack_input(pair.neg_query_tokens, pos_doc, vocab, max_len)
    else:
        neg = pack_input(pair.query_tokens, doc_tokens(pair.neg_doc_id), vocab, max_len)
    return pos, neg


def joint_step(
    pairs: Sequence[PretrainPair],
    params: dict[str, np.ndarray],
    enc_config: EncoderConfig,
    vocab: Vocabulary,
    doc_tokens: Callable[[str], list[str]],
    config: TrainConfig,
    grads: dict[str, np.ndarray],
    rng: np.random.Generator,
) -> dict:
    """Accumulate a batch of pairs' gradient into grads; return its loss record.

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
    task_sums = {t: 0.0 for t in TASKS}
    task_counts = {t: 0 for t in TASKS}
    mlm_sum = 0.0

    w_mlm = weights.get("mlm", 1.0)
    for pair in pairs:
        pos_packed, neg_packed = pack_pair(pair, vocab, doc_tokens, config.max_len)
        g_pos = EncoderGraph(params, enc_config, pos_packed.token_ids, pos_packed.segment_ids, outputs=[0])
        s_pos = g_pos.cls_score()
        g_neg = EncoderGraph(params, enc_config, neg_packed.token_ids, neg_packed.segment_ids, outputs=[0])
        s_neg = g_neg.cls_score()
        hinge = hinge_loss(s_pos, s_neg)
        task_sums[pair.task] += hinge
        task_counts[pair.task] += 1

        w_task = weights.get(pair.task, 1.0)
        if hinge > 0.0 and w_task != 0.0:
            g_pos.backward(grads, d_score=-(w_task / n))
            g_neg.backward(grads, d_score=w_task / n)

        pair_mlm = mlm_forward_backward(pos_packed, params, enc_config, rng, grads, w_mlm / n)
        if pair_mlm is not None:
            mlm_sum += pair_mlm

    components = {t: task_sums[t] / n for t in TASKS}
    components["mlm"] = mlm_sum / n
    total = sum(weights.get(k, 1.0) * v for k, v in components.items())
    return {"total": total, "components": components, "task_counts": task_counts, "pairs": n}


def batch_schedule(n: int, config: Schedule, stage: str) -> Iterator[tuple[int, int, np.ndarray]]:
    """(step, epoch, indices) for each optimizer step of a training stage.

    Each epoch draws one permutation of range(n) from the stage's own
    stream, derive_rng(config.seed, stage, "epoch", epoch), and cuts it
    into config.batch_size slices (the last may be short).  Steps count
    from 1 across epochs; the schedule ends after config.epochs epochs or
    config.max_steps steps, whichever comes first, so max_steps=0 yields
    nothing.
    """
    step = 0
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, stage, "epoch", epoch).permutation(n)
        for start in range(0, n, config.batch_size):
            if config.max_steps is not None and step >= config.max_steps:
                return
            step += 1
            yield step, epoch, order[start : start + config.batch_size]


def run_steps(
    n: int, config: Schedule, stage: str, params: dict[str, np.ndarray],
    body: Callable, logger: logging.Logger, warmup: float,
) -> tuple[AdamState, list[dict], int]:
    """The optimizer steps of one training stage over n examples.  Per step
    of batch_schedule, body(indices, grads) accumulates the batch gradient
    into fresh zero grads and returns a record with its "total" loss; a
    non-finite total is a TrainError, else one Adam step at config.lr,
    ramped linearly over the first `warmup` portion of the steps.  Every
    log_every-th step and step max_steps log one line on `logger` and keep
    {"step", "epoch", **record}.  Returns (Adam state, kept records, last
    step run)."""
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    if config.max_steps is not None:
        total_steps = min(total_steps, config.max_steps)
    warmup_steps = max(1, round(warmup * total_steps))
    adam = AdamState.zeros(params)
    records: list[dict] = []
    step = 0
    for step, epoch, indices in batch_schedule(n, config, stage):
        grads = zero_grads(params)
        record = body(indices, grads)
        if not math.isfinite(record["total"]):
            raise TrainError(f"{stage} step {step}: non-finite loss {record}")
        lr = config.lr * min(1.0, step / warmup_steps)
        adam_step(params, grads, adam, lr=lr)
        if step % config.log_every == 0 or step == config.max_steps:
            records.append({"step": step, "epoch": epoch, **record})
            logger.info("%s step %d/%d loss %.4f lr %.2e", stage, step, total_steps, record["total"], lr)
    return adam, records, step


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
    doc_tokens = summary_lookup(corpus, config.summary_max_tokens)
    mask_rng = derive_rng(config.seed, "pretrain", "mask")

    def body(indices, grads):
        return joint_step([pairs[i] for i in indices], params, enc_config, vocab, doc_tokens, config, grads, mask_rng)

    adam, logs, step = run_steps(len(pairs), config, "pretrain", params, body, log, 0.0)
    meta = {"stage": "pretrain", "train_config": config.to_dict(), "vocab": vocab.id_to_term, "steps": step, **(extra_meta or {})}
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
    mask_rng = derive_rng(config.seed, "warmup", "mask")

    def body(indices, grads):
        total = 0.0
        contributing = 0
        scale = 1.0 / len(indices)
        for sent in [examples[i] for i in indices]:
            packed = pack_input(list(sent.tokens), doc_tokens(sent.page_id), vocab, config.max_len)
            loss = mlm_forward_backward(packed, params, enc_config, mask_rng, grads, scale)
            if loss is not None:
                total += loss
                contributing += 1
        return {"total": total / max(contributing, 1)}

    run_steps(len(examples), config, "warmup", params, body, log, 0.0)
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
        pos, neg = pack_pair(pair, vocab, doc_tokens, config.max_len)
        s_pos = cls_score(params, enc_config, pos.token_ids, pos.segment_ids)
        s_neg = cls_score(params, enc_config, neg.token_ids, neg.segment_ids)
        if s_pos > s_neg:
            wins += 1
    return wins / len(pairs)
