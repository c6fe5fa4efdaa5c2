"""MRR@k / nDCG@k over ranked runs and graded relevance judgments, plus
readers and writers for the standard whitespace-delimited file formats."""

from __future__ import annotations

import logging
import math
from pathlib import Path

from anchorrank.corpus import numbered_lines

log = logging.getLogger(__name__)

# run: query id -> ordered (doc id, score); qrels: query id -> doc id -> grade
RankedRun = dict[str, list[tuple[str, float]]]
Qrels = dict[str, dict[str, int]]


def read_run(path: str | Path) -> RankedRun:
    """Lines of "qid Q0 docid rank score tag", the one layout of every
    ranked list: first-stage candidates and reranked runs alike.  Per
    query, ranks must be contiguous from 1 and docs unique, and every score
    is finite; an error names the line that breaks the rule."""
    rows: dict[str, list[tuple[int, str, float, int]]] = {}
    for line_no, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ValueError(f"{path}: line {line_no}: expected 6 fields 'qid Q0 docid rank score tag'")
        qid, _, doc_id, rank_s, score_s, _ = parts
        try:
            rank, score = int(rank_s), float(score_s)
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: bad rank or score") from None
        if not math.isfinite(score):
            raise ValueError(f"{path}: line {line_no}: score {score_s!r} is not a finite number")
        rows.setdefault(qid, []).append((rank, doc_id, score, line_no))
    run: RankedRun = {}
    for qid, entries in rows.items():
        entries.sort(key=lambda t: t[0])
        seen = set()
        for expected, (rank, doc_id, _, line_no) in enumerate(entries, start=1):
            if rank != expected:
                raise ValueError(f"{path}: line {line_no}: query {qid!r}: ranks are not contiguous from 1")
            if doc_id in seen:
                raise ValueError(f"{path}: line {line_no}: query {qid!r}: duplicate document {doc_id!r}")
            seen.add(doc_id)
        run[qid] = [(d, s) for _, d, s, _ in entries]
    return run


def write_run(run: RankedRun, path: str | Path, tag: str = "anchorrank") -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for qid in sorted(run):
            for rank, (doc_id, score) in enumerate(run[qid], start=1):
                f.write(f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_qrels(path: str | Path) -> Qrels:
    """Lines of "qid 0 docid grade"; grades are non-negative integers and
    a (qid, docid) pair is judged once."""
    qrels: Qrels = {}
    for line_no, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ValueError(f"{path}: line {line_no}: expected 4 fields 'qid 0 docid grade'")
        qid, _, doc_id, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: bad grade") from None
        if grade < 0:
            raise ValueError(f"{path}: line {line_no}: negative grade")
        judged = qrels.setdefault(qid, {})
        if doc_id in judged:
            raise ValueError(f"{path}: line {line_no}: duplicate judgment for query {qid!r}, document {doc_id!r}")
        judged[doc_id] = grade
    return qrels


def write_qrels(qrels: Qrels, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for qid in sorted(qrels):
            for doc_id in sorted(qrels[qid]):
                f.write(f"{qid} 0 {doc_id} {qrels[qid][doc_id]}\n")


def mrr_at_k(run: RankedRun, qrels: Qrels, k: int) -> float:
    """Mean over run queries of 1/rank of the first doc with grade >= 1 in
    the top k; queries without judgments contribute 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not run:
        raise ValueError("run is empty")
    total = 0.0
    for qid in sorted(run):
        judged = qrels.get(qid)
        if judged is None:
            log.debug("query %r has no judgments; contributes 0", qid)
            continue
        for rank, (doc_id, _) in enumerate(run[qid][:k], start=1):
            if judged.get(doc_id, 0) >= 1:
                total += 1.0 / rank
                break
    return total / len(run)


def _dcg(grades, k: int) -> float:
    return sum((2.0**g - 1.0) / math.log2(rank + 1) for rank, g in enumerate(grades[:k], start=1))


def ndcg_at_k(run: RankedRun, qrels: Qrels, k: int) -> float:
    """DCG with gain 2^grade - 1 and log2(rank+1) discount, normalized per
    query by the ideal ordering of its judged grades; all-zero queries
    contribute 0."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not run:
        raise ValueError("run is empty")
    total = 0.0
    for qid in sorted(run):
        judged = qrels.get(qid)
        if not judged:
            log.debug("query %r has no judgments; contributes 0", qid)
            continue
        gains = [judged.get(doc_id, 0) for doc_id, _ in run[qid]]
        ideal = sorted(judged.values(), reverse=True)
        idcg = _dcg(ideal, k)
        if idcg == 0.0:
            continue
        total += _dcg(gains, k) / idcg
    return total / len(run)


def evaluate(run: RankedRun, qrels: Qrels, ks=(10, 100)) -> dict[str, float]:
    if not ks:
        raise ValueError("ks must name at least one cutoff")
    report: dict[str, float] = {}
    for k in ks:
        report[f"MRR@{k}"] = mrr_at_k(run, qrels, k)
        report[f"nDCG@{k}"] = ndcg_at_k(run, qrels, k)
    return report


def format_report(report: dict[str, float]) -> str:
    width = max(len(k) for k in report)
    lines = [f"{name.ljust(width)}  {value:.4f}" for name, value in report.items()]
    return "\n".join(lines)
