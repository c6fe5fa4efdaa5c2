"""Damaged input files: every reader either parses the file or raises
ValueError (CorpusError is one) naming the file, never another exception;
load_checkpoint raises only CheckpointError naming the file."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anchorrank import evalkit
from anchorrank.corpus import Vocabulary, read_corpus
from anchorrank.encoder import CheckpointError, EncoderConfig, init_params, load_checkpoint, save_checkpoint
from anchorrank.ranker import read_candidates, read_collection, read_queries
from anchorrank.sampler import load_stopwords
from anchorrank.synth import SynthConfig, synth_dataset
from anchorrank.taskgen import PretrainPair, read_pairs, write_pairs


def first_lines(path, n):
    return b"".join(path.read_bytes().splitlines(keepends=True)[:n])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """reader name -> (reader, bytes of a file it parses)."""
    d = tmp_path_factory.mktemp("valid")
    synth_dataset(d, SynthConfig(pages=16, topics=2, train_queries=4, eval_queries=4, candidates_per_query=4, seed=3))
    evalkit.write_run({"q1": [("pg0001", 2.5), ("pg0002", 1.0)], "q2": [("pg0003", 0.5)]}, d / "r.run")
    pairs = [
        PretrainPair("rqp", ["red", "apple"], "pg0001", "pg0001", ["green"], {"page_id": "pg0001"}, "rqp/0"),
        PretrainPair("qdm", ["river"], "pg0002", "pg0003", None, {}, "qdm/1"),
        PretrainPair("acm", ["apple", "pie"], "pg0003", "pg0001", None, {"anchor": "apple"}, "acm/2"),
    ]
    write_pairs(pairs, d / "pairs.jsonl")
    Vocabulary.from_terms(["apple", "river", "pie", "orchard"]).save(d / "vocab.txt")
    (d / "stopwords.txt").write_text("# common words\nthe\nof\n\nand\n", encoding="utf-8")
    files = {
        "read_corpus": (read_corpus, first_lines(d / "corpus.jsonl", 3)),
        "read_run": (evalkit.read_run, (d / "r.run").read_bytes()),
        "read_qrels": (evalkit.read_qrels, (d / "eval_qrels.txt").read_bytes()),
        "read_candidates": (read_candidates, (d / "eval_candidates.txt").read_bytes()),
        "read_queries": (read_queries, (d / "eval_queries.tsv").read_bytes()),
        "read_collection": (read_collection, first_lines(d / "collection.jsonl", 3)),
        "read_pairs": (read_pairs, (d / "pairs.jsonl").read_bytes()),
        "load_vocabulary": (Vocabulary.load, (d / "vocab.txt").read_bytes()),
        "load_stopwords": (load_stopwords, (d / "stopwords.txt").read_bytes()),
    }
    work = tmp_path_factory.mktemp("fuzz")
    for name, (reader, data) in files.items():
        path = work / name
        path.write_bytes(data)
        reader(path)  # the undamaged file parses
    return work, files


READERS = [
    "read_corpus",
    "read_run",
    "read_qrels",
    "read_candidates",
    "read_queries",
    "read_collection",
    "read_pairs",
    "load_vocabulary",
    "load_stopwords",
]


@pytest.mark.parametrize("name", READERS)
@given(truncate=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(0, 255))
def test_damaged_file_raises_only_value_error(valid_files, name, truncate, where, byte):
    work, files = valid_files
    reader, data = files[name]
    at = int(where * len(data))
    damaged = data[:at] if truncate else data[:at] + bytes([byte]) + data[at + 1 :]
    path = work / name
    path.write_bytes(damaged)
    try:
        reader(path)
    except ValueError:
        pass


@pytest.mark.parametrize("name", READERS)
def test_text_that_is_not_utf8_names_the_file(valid_files, name):
    work, files = valid_files
    reader, data = files[name]
    path = work / f"{name}.latin1"
    path.write_bytes(data[:10] + b"\xff" + data[10:])
    with pytest.raises(ValueError, match="not UTF-8") as info:
        reader(path)
    assert str(path) in str(info.value)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    d = tmp_path_factory.mktemp("ckpt")
    cfg = EncoderConfig(layers=1, heads=2, hidden=4, ffn_dim=8, vocab_size=12, max_len=8)
    params = init_params(cfg, seed=0)
    save_checkpoint(d / "valid.ckpt", params, cfg, extra={"stage": "test"})
    return d, (d / "valid.ckpt").read_bytes()


@given(truncate=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(0, 255))
def test_damaged_checkpoint_raises_only_checkpoint_error(valid_checkpoint, truncate, where, byte):
    # a corrupted name, dim or length must not escape as UnicodeDecodeError,
    # MemoryError, OverflowError or a bare ValueError
    d, data = valid_checkpoint
    at = int(where * len(data))
    damaged = data[:at] if truncate else data[:at] + bytes([byte]) + data[at + 1 :]
    path = d / "damaged.ckpt"
    path.write_bytes(damaged)
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
