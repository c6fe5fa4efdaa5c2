"""Hyperlink-annotated corpus handling.

Parses line-delimited page records, cleans them, splits pages into
sentences with anchor spans mapped to token ranges, and builds the
vocabulary and anchor-occurrence index used by the pair builders.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIAL_TOKENS = len(SPECIAL_TOKENS)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
# Sentence-final punctuation run followed by whitespace.
_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s)")
_BLANK_LINE_RE = re.compile(r"\n[ \t]*\n")

FIRST_SECTION_SENTENCE_FALLBACK = 10


class CorpusError(ValueError):
    """Malformed corpus input."""


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; whitespace and punctuation are separators."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


@dataclass(frozen=True)
class AnchorSpan:
    """A hyperlink occurrence: character span, surface string, destination page.

    Offsets are half-open character offsets into the page text, also for
    the anchors a sentence holds.  A sentence's anchors carry token_start
    and token_end, the contiguous range of its tokens covering the span;
    the multi-word surface is treated as one unit by all consumers.
    """

    start: int
    end: int
    surface: str
    target_id: str
    token_start: int = -1
    token_end: int = -1

    def surface_tokens(self) -> list[str]:
        return tokenize(self.surface)

    def normalized_surface(self) -> str:
        return " ".join(self.surface_tokens())


@dataclass(frozen=True)
class Sentence:
    page_id: str
    index: int
    text: str
    tokens: tuple[str, ...]
    anchors: tuple[AnchorSpan, ...]


@dataclass
class Page:
    """A page record; its sentences and summary derive from its text and anchors."""

    id: str
    title: str
    url: str
    text: str
    anchors: list[AnchorSpan] = field(default_factory=list)
    sentences: list[Sentence] = field(init=False)
    first_section: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.sentences = split_sentences(self)
        self.first_section = first_section_tokens(self)

    def body_word_count(self) -> int:
        """Whitespace-delimited word count of the raw body."""
        return len(self.text.split())

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "url": self.url,
            "text": self.text,
            "anchors": [
                {"start": a.start, "end": a.end, "surface": a.surface, "target_id": a.target_id}
                for a in self.anchors
            ],
        }


@dataclass
class HyperlinkCorpus:
    pages: dict[str, Page] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pages)

    def page_ids(self) -> list[str]:
        return sorted(self.pages)

    def iter_pages(self) -> Iterator[Page]:
        for pid in self.page_ids():
            yield self.pages[pid]

    def iter_sentences(self) -> Iterator[Sentence]:
        for page in self.iter_pages():
            yield from page.sentences

    def counts(self) -> dict[str, int]:
        n_sents = sum(len(p.sentences) for p in self.pages.values())
        n_anchors = sum(len(s.anchors) for s in self.iter_sentences())
        return {"pages": len(self.pages), "sentences": n_sents, "anchors": n_anchors}

    def to_records(self) -> list[dict]:
        return [self.pages[pid].to_record() for pid in self.page_ids()]


def split_sentences(page: Page) -> list[Sentence]:
    """Deterministic sentence segmentation on ". ! ?" followed by whitespace.

    A candidate boundary that falls strictly inside an anchor's character
    span is suppressed so anchors are never split across sentences.
    """
    text = page.text
    if not text.strip():
        return []

    boundaries = []
    for m in _BOUNDARY_RE.finditer(text):
        b = m.end()
        if any(a.start < b < a.end for a in page.anchors):
            continue
        boundaries.append(b)

    spans: list[tuple[int, int]] = []
    start = 0
    for b in boundaries:
        if b > start:
            spans.append((start, b))
        start = b
        while start < len(text) and text[start].isspace():
            start += 1
    if start < len(text):
        spans.append((start, len(text)))

    sentences: list[Sentence] = []
    anchors = sorted(page.anchors, key=lambda a: (a.start, a.end))
    for s_start, s_end in spans:
        while s_end > s_start and text[s_end - 1].isspace():
            s_end -= 1
        sent_text = text[s_start:s_end]
        if not sent_text:
            continue
        inside = [a for a in anchors if s_start <= a.start and a.end <= s_end]
        sentences.append(_finish_sentence(page.id, len(sentences), sent_text, s_start, inside))

    dropped = len(anchors) - sum(len(s.anchors) for s in sentences)
    if dropped:
        log.debug("page %s: dropped %d unmappable anchor(s)", page.id, dropped)
    return sentences


def _finish_sentence(page_id: str, index: int, text: str, start: int, raw_anchors: list[AnchorSpan]) -> Sentence:
    """Tokenize one sentence, which starts at page offset `start`, and map
    anchors to contiguous token ranges.

    Anchors whose span does not reproduce its surface after tokenization,
    or whose token range overlaps an earlier anchor, are dropped.
    """
    spans = [(m.group().lower(), start + m.start(), start + m.end()) for m in _TOKEN_RE.finditer(text)]
    tokens = tuple(t for t, _, _ in spans)

    kept: list[AnchorSpan] = []
    last_end = 0
    for a in raw_anchors:
        covering = [i for i, (_, ts, te) in enumerate(spans) if ts < a.end and te > a.start]
        if not covering:
            log.debug("page %s sentence %d: anchor %r covers no tokens", page_id, index, a.surface)
            continue
        t0, t1 = covering[0], covering[-1] + 1
        if list(tokens[t0:t1]) != a.surface_tokens():
            log.debug("page %s sentence %d: anchor %r misaligned with tokens", page_id, index, a.surface)
            continue
        if t0 < last_end:
            log.debug("page %s sentence %d: anchor %r overlaps a previous anchor", page_id, index, a.surface)
            continue
        kept.append(replace(a, token_start=t0, token_end=t1))
        last_end = t1
    return Sentence(page_id=page_id, index=index, text=text, tokens=tokens, anchors=tuple(kept))


def first_section_tokens(page: Page) -> list[str]:
    """Tokens of the page summary: text up to the first blank line, else
    the first few sentences."""
    m = _BLANK_LINE_RE.search(page.text)
    if m:
        section = tokenize(page.text[: m.start()])
        if section:
            return section
    head = page.sentences[:FIRST_SECTION_SENTENCE_FALLBACK]
    return tokenize(" ".join(s.text for s in head))


def _page_from_record(rec: dict, line_no: int) -> Page:
    for key in ("id", "title", "url", "text"):
        if key not in rec or not isinstance(rec[key], str):
            raise CorpusError(f"line {line_no}: missing or non-string field {key!r}")
    if not rec["id"]:
        raise CorpusError(f"line {line_no}: empty page id")

    text = rec["text"]
    raw_anchors = rec.get("anchors", [])
    if not isinstance(raw_anchors, list):
        raise CorpusError(f"line {line_no}: anchors must be a list, got {type(raw_anchors).__name__}")
    anchors: list[AnchorSpan] = []
    for j, a in enumerate(raw_anchors):
        try:
            start, end, surface, target = a["start"], a["end"], a["surface"], a["target_id"]
        except (KeyError, TypeError):
            raise CorpusError(f"line {line_no}: anchor {j}: missing or malformed fields") from None
        for key, offset in (("start", start), ("end", end)):
            if type(offset) is not int:
                raise CorpusError(f"line {line_no}: anchor {j}: {key} must be an integer, got {offset!r}")
        if not (0 <= start < end <= len(text)):
            raise CorpusError(
                f"line {line_no}: anchor {j}: span [{start},{end}) out of range for text of length {len(text)}"
            )
        if text[start:end] != surface:
            raise CorpusError(f"line {line_no}: anchor {j}: surface does not match text span")
        if not isinstance(target, str) or not target:
            raise CorpusError(f"line {line_no}: anchor {j}: empty target_id")
        anchors.append(AnchorSpan(start=start, end=end, surface=surface, target_id=target))

    return Page(id=rec["id"], title=rec["title"], url=rec["url"], text=text, anchors=anchors)


def parse_corpus(lines: Iterable[str]) -> HyperlinkCorpus:
    """Parse line-delimited JSON page records into a HyperlinkCorpus.

    Raises CorpusError with the offending line number on malformed input
    or duplicate page ids.  Anchor targets are not resolved here; that is
    clean_corpus's job.
    """
    corpus = HyperlinkCorpus()
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {line_no}: invalid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise CorpusError(f"line {line_no}: record is not an object")
        page = _page_from_record(rec, line_no)
        if page.id in corpus.pages:
            raise CorpusError(f"line {line_no}: duplicate page id {page.id!r}")
        corpus.pages[page.id] = page
    log.info("parsed corpus: %s", corpus.counts())
    return corpus


def clean_corpus(corpus: HyperlinkCorpus, min_words: int = 100) -> HyperlinkCorpus:
    """Drop short pages and unresolvable anchors.

    Pages with fewer than min_words whitespace-delimited body words, or an
    empty summary, are removed.  A page that had an anchor pointing at a
    removed or unknown page is rebuilt without it, and so split again
    exactly as reading its record back splits it; other pages are kept as
    they are.
    """
    kept = {
        pid: p
        for pid, p in corpus.pages.items()
        if p.body_word_count() >= min_words and p.first_section
    }
    out: dict[str, Page] = {}
    for pid in sorted(kept):
        page = kept[pid]
        anchors = [a for a in page.anchors if a.target_id in kept]
        out[pid] = page if len(anchors) == len(page.anchors) else replace(page, anchors=anchors)
    cleaned = HyperlinkCorpus(out)
    log.info("cleaned corpus (min_words=%d): %s", min_words, cleaned.counts())
    return cleaned


@dataclass
class Vocabulary:
    """Term/id mapping with the five special tokens at fixed ids 0-4."""

    id_to_term: list[str]
    term_to_id: dict[str, int]

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "Vocabulary":
        return cls.from_id_to_term([*SPECIAL_TOKENS, *terms])

    @classmethod
    def from_id_to_term(cls, id_to_term) -> "Vocabulary":
        """The vocabulary of the given id -> term list: the five special
        tokens at ids 0-4, then distinct string terms."""
        if not isinstance(id_to_term, list) or id_to_term[:NUM_SPECIAL_TOKENS] != list(SPECIAL_TOKENS):
            raise CorpusError("vocabulary missing special-token header")
        term_to_id: dict[str, int] = {}
        for i, t in enumerate(id_to_term):
            if not isinstance(t, str):
                raise CorpusError(f"vocabulary term {t!r} is not a string")
            if term_to_id.setdefault(t, i) != i:
                raise CorpusError(f"duplicate vocabulary term {t!r}")
        return cls(id_to_term=list(id_to_term), term_to_id=term_to_id)

    def __len__(self) -> int:
        return len(self.id_to_term)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.term_to_id.get(t, UNK_ID) for t in tokens]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.id_to_term) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        terms = [line.rstrip("\n") for _, line in numbered_lines(path)]
        try:
            return cls.from_id_to_term(terms)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None


def build_vocab(corpus: HyperlinkCorpus, max_size: int) -> Vocabulary:
    """Top max_size corpus terms by frequency, ties broken lexicographically."""
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    counts: Counter[str] = Counter()
    for sent in corpus.iter_sentences():
        counts.update(sent.tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
    return Vocabulary.from_terms(t for t, _ in ranked)


def page_summary(page: Page, max_tokens: int) -> list[str]:
    """First-section tokens truncated at max_tokens; stands in for the document."""
    return page.first_section[:max_tokens]


@dataclass(frozen=True)
class AnchorOccurrence:
    page_id: str
    sentence_index: int
    anchor_index: int
    target_id: str


def anchor_occurrence_index(corpus: HyperlinkCorpus) -> dict[str, list[AnchorOccurrence]]:
    """All occurrences of each case-folded anchor surface across the corpus.

    Per surface, occurrences are deduplicated on (sentence, target page) and
    listed in deterministic page/sentence order.
    """
    index: dict[str, list[AnchorOccurrence]] = {}
    seen: set[tuple[str, str, int, str]] = set()
    for page in corpus.iter_pages():
        for sent in page.sentences:
            for a_idx, anchor in enumerate(sent.anchors):
                key = anchor.surface.casefold()
                dedup = (key, page.id, sent.index, anchor.target_id)
                if dedup in seen:
                    continue
                seen.add(dedup)
                index.setdefault(key, []).append(
                    AnchorOccurrence(
                        page_id=page.id,
                        sentence_index=sent.index,
                        anchor_index=a_idx,
                        target_id=anchor.target_id,
                    )
                )
    return index


def write_corpus(corpus: HyperlinkCorpus, path: str | Path) -> None:
    """Write one JSON record per line, pages in id order."""
    with Path(path).open("w", encoding="utf-8") as f:
        for rec in corpus.to_records():
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) over a UTF-8 text file; text that does not decode
    is a ValueError naming the file."""
    with Path(path).open("r", encoding="utf-8") as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def read_corpus(path: str | Path) -> HyperlinkCorpus:
    """parse_corpus over a file; its CorpusError names the file."""
    try:
        return parse_corpus(line for _, line in numbered_lines(path))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
