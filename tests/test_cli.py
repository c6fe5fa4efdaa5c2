import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from anchorrank.cli import ARTIFACTS, COMMANDS, main
from anchorrank.evalkit import read_run

GOLDEN = Path(__file__).parent / "data" / "cli_seed5_digests.json"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cliwork")


@pytest.fixture(scope="module")
def config_path(workdir):
    cfg = {
        "seed": 5,
        "profile": "toy",
        "workdir": str(workdir),
        "synth": {"pages": 40, "topics": 4, "train_queries": 20, "eval_queries": 10, "candidates_per_query": 8},
        "corpus": {"min_words": 100, "vocab_size": 600},
        "taskgen": {"lam": 3.0, "summary_max_tokens": 32, "per_task_cap": {"rdp": 40, "acm": 60}, "pair_budget": None},
        "warmup": {"lr": 1e-3, "epochs": 1, "batch_size": 8, "max_steps": 30, "log_every": 100},
        "pretrain": {
            "lr": 1e-3,
            "epochs": 3,
            "batch_size": 8,
            "max_steps": 60,
            "log_every": 20,
            "task_weights": {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0},
        },
        "finetune": {"lr": 1e-3, "epochs": 2, "warmup": 0.1, "batch_size": 8, "max_steps": 30, "log_every": 100},
        "rerank": {"k": 8},
        "eval": {"ks": [10, 100]},
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outputs_in(directory, command):
    """A paths entry for every artifact command writes, each a fresh file
    under directory."""
    return {key: str(directory / name) for key, (name, writer) in ARTIFACTS.items() if writer == command}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


class TestPipeline:
    def test_01_missing_input_names_producer(self, config_path, workdir, capsys):
        # pretrain without --init reads clean.jsonl first
        assert main(["pretrain", "--config", config_path]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: missing input {workdir / 'clean.jsonl'} (corpus_clean); produce it with `anchorrank ingest`"]

    def test_02_synth(self, config_path, workdir):
        assert main(["synth", "--config", config_path]) == 0
        assert (workdir / "corpus.jsonl").exists()
        assert not (workdir / "corpus.jsonl.idx").exists()
        assert (workdir / "corpus.jsonl.meta.json").exists()
        assert (workdir / "eval_candidates.txt").exists()

    def test_03_ingest(self, config_path, workdir):
        assert main(["ingest", "--config", config_path]) == 0
        assert (workdir / "clean.jsonl").exists()
        assert (workdir / "vocab.txt").exists()

    def test_03_ingest_makes_the_vocab_directory(self, config_path, workdir, tmp_path):
        cfg = json.loads(Path(config_path).read_text())
        vocab = tmp_path / "w" / "sub" / "vocab.txt"
        cfg["workdir"] = str(tmp_path)
        cfg["paths"] = {"corpus": str(workdir / "corpus.jsonl"), "vocab": str(vocab)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["ingest", "--config", str(path)]) == 0
        assert vocab.read_text() == (workdir / "vocab.txt").read_text()

    def test_04_warm_sampler(self, config_path, workdir):
        assert main(["warm-sampler", "--config", config_path]) == 0
        assert (workdir / "sampler.ckpt").exists()

    def test_05_build_pairs_deterministic(self, config_path, workdir):
        assert main(["build-pairs", "--config", config_path]) == 0
        pairs = workdir / "pairs.jsonl"
        first = sha256(pairs)
        assert main(["build-pairs", "--config", config_path]) == 0
        assert sha256(pairs) == first

    def test_05_build_pairs_reports_sampler_work(self, config_path, workdir, capsys):
        assert main(["build-pairs", "--config", config_path]) == 0
        out = capsys.readouterr().out.splitlines()
        lines = [line for line in out if line.startswith("sampler:")]
        assert len(lines) == 1
        counts = re.fullmatch(r"sampler: (\d+) attention lookups, (\d+) encoder forwards", lines[0])
        lookups, forwards = map(int, counts.groups())
        assert 0 < forwards < lookups
        lines = [line for line in out if line.startswith("kept/tried:")]
        assert len(lines) == 1
        assert re.fullmatch(r"kept/tried: rqp \d+/\d+, qdm \d+/\d+, rdp \d+/\d+, acm \d+/\d+", lines[0])
        printed = {t: {"kept": int(k), "tried": int(n)} for t, k, n in re.findall(r"(\w+) (\d+)/(\d+)", lines[0])}
        yields = json.loads((workdir / "pairs.jsonl.meta.json").read_text())["yields"]
        assert yields == printed
        assert all(y["kept"] <= y["tried"] for y in yields.values())
        lines = (workdir / "pairs.jsonl").read_text().splitlines()
        assert sum(y["kept"] for y in yields.values()) == len(lines)

    def test_06_pretrain(self, config_path, workdir):
        assert main(["pretrain", "--config", config_path]) == 0
        assert (workdir / "pretrained.ckpt").exists()
        metrics = (workdir / "pretrain_metrics.jsonl").read_text().splitlines()
        assert metrics
        record = json.loads(metrics[0])
        assert set(record["components"]) == {"rqp", "qdm", "rdp", "acm", "mlm"}

    def test_06_pretrain_makes_the_metrics_directory(self, config_path, tmp_path):
        cfg = json.loads(Path(config_path).read_text())
        metrics = tmp_path / "w" / "new" / "metrics.jsonl"
        cfg["pretrain"]["max_steps"] = 2
        cfg["paths"] = {"pretrain_metrics": str(metrics), "pretrain_ckpt": str(tmp_path / "out.ckpt")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["pretrain", "--config", str(path)]) == 0
        assert (tmp_path / "out.ckpt").exists()
        assert json.loads(metrics.read_text().splitlines()[-1])["step"] == 2

    @pytest.mark.parametrize("command", ["build-pairs", "pretrain"], ids=["build-pairs", "pretrain-init"])
    def test_06_checkpoint_on_another_vocabulary_is_one_error(self, command, config_path, workdir, tmp_path, capsys):
        # the same terms at swapped ids: the size still matches, the
        # embeddings do not
        copy = tmp_path / "w"
        copy.mkdir()
        for name in ("clean.jsonl", "vocab.txt", "sampler.ckpt", "pairs.jsonl", "pretrained.ckpt"):
            (copy / name).write_bytes((workdir / name).read_bytes())
        terms = (copy / "vocab.txt").read_text().splitlines()
        terms[10], terms[11] = terms[11], terms[10]
        (copy / "vocab.txt").write_text("\n".join(terms) + "\n")
        # the copy already holds pairs.jsonl and pretrained.ckpt, so the
        # outputs go to a directory of their own
        out = tmp_path / "out"
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = outputs_in(out, command)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = ["--config", str(path), "--workdir", str(copy)]
        if command == "build-pairs":
            argv, ckpt = ["build-pairs", *argv], copy / "sampler.ckpt"
        else:
            argv, ckpt = ["pretrain", *argv, "--init", str(copy / "pretrained.ckpt")], copy / "pretrained.ckpt"
        assert main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert f"checkpoint {ckpt} was trained on another vocabulary than {copy / 'vocab.txt'}" in errors[0]
        assert not out.exists()

    def test_06_negative_task_weight_is_one_error(self, config_path, tmp_path, capsys):
        cfg = json.loads(Path(config_path).read_text())
        cfg["pretrain"]["task_weights"] = {"rqp": -1}
        cfg["paths"] = outputs_in(tmp_path, "pretrain")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["pretrain", "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: task_weights.rqp must be a finite number >= 0, got -1"]
        assert not any(Path(out).exists() for out in cfg["paths"].values())

    def test_07_finetune(self, config_path, workdir):
        assert main(["finetune", "--config", config_path]) == 0
        assert (workdir / "finetuned.ckpt").exists()

    @pytest.mark.parametrize("command, section, key, value, message", [
        ("warm-sampler", "warmup", "log_every", 0, "log_every"),
        ("pretrain", "pretrain", "log_every", 0, "log_every"),
        ("finetune", "finetune", "log_every", 0, "log_every"),
        ("pretrain", "paths", "pairs", "empty.jsonl", "no training pairs"),
        ("ingest", "corpus", "vocab_size", 0, "corpus.vocab_size must be an integer >= 1, got 0"),
        ("ingest", "corpus", "min_words", -5, "corpus.min_words must be an integer >= 0, got -5"),
        ("rerank", "rerank", "k", 0, "rerank.k must be an integer >= 1, got 0"),
    ], ids=["warmup-log_every", "pretrain-log_every", "finetune-log_every", "empty-pairs",
            "corpus-vocab_size", "corpus-min_words", "rerank-k"])
    def test_07_bad_training_input_is_one_error_before_any_step(
        self, command, section, key, value, message, config_path, tmp_path, capsys
    ):
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = outputs_in(tmp_path / "out", command)
        (tmp_path / "empty.jsonl").write_text("")
        cfg[section][key] = str(tmp_path / value) if section == "paths" else value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert not any((tmp_path / "out").glob("*"))

    def test_07_pair_with_unknown_page_is_one_error_before_any_step(self, config_path, workdir, tmp_path, capsys, caplog):
        lines = (workdir / "pairs.jsonl").read_text().splitlines()
        bad = {**json.loads(lines[-1]), "pos_doc_id": "nope"}
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join([*lines[:-1], json.dumps(bad)]) + "\n")
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = {"pairs": str(pairs), **outputs_in(tmp_path / "out", "pretrain")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        caplog.set_level(logging.INFO, logger="anchorrank.pretrain")
        assert main(["pretrain", "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: pair {bad['seed_path']!r} references unknown page 'nope'"]
        assert not [r for r in caplog.records if r.name == "anchorrank.pretrain"]
        assert not any((tmp_path / "out").glob("*"))

    def test_08_rerank(self, config_path, workdir):
        assert main(["rerank", "--config", config_path]) == 0
        run_lines = (workdir / "rerank.run").read_text().splitlines()
        assert run_lines and len(run_lines[0].split()) == 6

    @pytest.mark.parametrize("encoder, differ", [
        ({"max_len": 64}, "encoder.max_len is 48 there and 64 in the config"),
        ({"max_len": 24}, "encoder.max_len is 48 there and 24 in the config"),
        ({"ffn_dim": 128, "max_len": 64},
         "encoder.ffn_dim is 256 there and 128 in the config; encoder.max_len is 48 there and 64 in the config"),
    ], ids=["longer", "shorter", "two-fields"])
    @pytest.mark.parametrize("command, ckpt", [
        ("build-pairs", "sampler.ckpt"),
        ("pretrain", "sampler.ckpt"),
        ("finetune", "pretrained.ckpt"),
        ("rerank", "finetuned.ckpt"),
    ], ids=["build-pairs", "pretrain-init", "finetune", "rerank"])
    def test_08_checkpoint_on_another_encoder_is_one_error_before_any_input(
        self, command, ckpt, encoder, differ, config_path, workdir, tmp_path, capsys
    ):
        # a longer max_len once overran the 48-token checkpoint at the first
        # step, and a shorter one fine-tuned on packings that rerank never
        # makes; the inputs named here do not exist, so the error must come
        # before any other input is read
        cfg = json.loads(Path(config_path).read_text())
        cfg["encoder"] = encoder
        missing = {key: str(tmp_path / f"missing-{key}") for key in ("corpus_clean", "vocab", "pairs", "collection")}
        cfg["paths"] = {**missing, **outputs_in(tmp_path / "out", command)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path)]
        if command == "pretrain":
            argv += ["--init", str(workdir / ckpt)]
        assert main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: checkpoint {workdir / ckpt} has another encoder: {differ}"]
        assert not (tmp_path / "out").exists()

    def test_08_first_stage_run_is_read_as_candidates(self, config_path, workdir, tmp_path):
        # candidates as a first-stage retriever writes them: its own tag and
        # negative scores, such as "train000 Q0 pg0001 1 -5.99003 bm25"
        docs = [json.loads(line)["id"] for line in (workdir / "collection.jsonl").read_text().splitlines()[:4]]
        cfg = json.loads(Path(config_path).read_text())
        cfg["finetune"]["max_steps"] = 2
        cfg["paths"] = {"finetune_ckpt": str(tmp_path / "ft.ckpt"), "run": str(tmp_path / "rerank.run")}
        qids = {}
        for split in ("train", "eval"):
            qids[split] = [line.split("\t")[0] for line in (workdir / f"{split}_queries.tsv").read_text().splitlines()]
            lines = [f"{q} Q0 {d} {r} {-5.99003 - r:.5f} bm25\n" for q in qids[split] for r, d in enumerate(docs, 1)]
            (tmp_path / f"{split}.run").write_text("".join(lines))
            cfg["paths"][f"{split}_candidates"] = str(tmp_path / f"{split}.run")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["finetune", "--config", str(path)]) == 0
        assert main(["rerank", "--config", str(path)]) == 0
        run = read_run(tmp_path / "rerank.run")
        assert sorted(run) == sorted(qids["eval"])
        assert all(sorted(d for d, _ in ranked) == sorted(docs) for ranked in run.values())

    @pytest.mark.parametrize("command, split", [("finetune", "train"), ("rerank", "eval")])
    def test_08_four_field_candidates_line_is_one_error(self, command, split, config_path, workdir, tmp_path, capsys):
        lines = (workdir / f"{split}_candidates.txt").read_text().splitlines()
        qid, _, doc_id, rank, score, _ = lines[1].split()
        candidates = tmp_path / "candidates.txt"
        candidates.write_text("\n".join([lines[0], f"{qid} {doc_id} {rank} {score}", *lines[2:]]) + "\n")
        out = tmp_path / "out"
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = {f"{split}_candidates": str(candidates), **outputs_in(out, command)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {candidates}: line 2: expected 6 fields 'qid Q0 docid rank score tag'"]
        assert not out.exists()

    @pytest.mark.parametrize("unknown", ["query", "document"])
    @pytest.mark.parametrize("command, split", [("finetune", "train"), ("rerank", "eval")])
    def test_08_unknown_candidate_is_one_error(self, command, split, unknown, config_path, workdir, tmp_path, capsys):
        # both stages reject a run that names a query or a document they do
        # not have, the same way, before anything is trained or written
        lines = (workdir / f"{split}_candidates.txt").read_text().splitlines()
        qid, _, doc_id, rank, score, tag = lines[1].split()
        if unknown == "query":
            lines.append(f"ghost Q0 {doc_id} 1 {score} {tag}")
            message = f"query 'ghost' is not in the {split} queries file"
        else:
            lines[1] = f"{qid} Q0 ghost {rank} {score} {tag}"
            message = f"query {qid!r}: document 'ghost' is not in the collection"
        candidates = tmp_path / "candidates.txt"
        candidates.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = {f"{split}_candidates": str(candidates), **outputs_in(out, command)}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {candidates}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "!!!"], ids=["empty", "punctuation"])
    def test_08_query_without_words_is_one_error(self, text, config_path, workdir, tmp_path, capsys):
        lines = (workdir / "eval_queries.tsv").read_text().splitlines()
        qid = lines[0].split("\t")[0]
        queries = tmp_path / "queries.tsv"
        queries.write_text("\n".join([f"{qid}\t{text}", *lines[1:]]) + "\n")
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = {"eval_queries": str(queries), "run": str(tmp_path / "rerank.run")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["rerank", "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {queries}: line 1: query {qid!r} has no word token"]
        assert not (tmp_path / "rerank.run").exists()

    def test_08_document_without_text_is_one_error(self, config_path, workdir, tmp_path, capsys):
        lines = (workdir / "collection.jsonl").read_text().splitlines()
        doc_id = json.loads(lines[1])["id"]
        collection = tmp_path / "collection.jsonl"
        empty = json.dumps({"id": doc_id, "title": "", "url": "", "body": ""})
        collection.write_text("\n".join([lines[0], empty, *lines[2:]]) + "\n")
        cfg = json.loads(Path(config_path).read_text())
        cfg["paths"] = {"collection": str(collection), "run": str(tmp_path / "rerank.run")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["rerank", "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {collection}: line 2: document {doc_id!r} has no text"]
        assert not (tmp_path / "rerank.run").exists()

    def test_09_eval(self, config_path, workdir):
        assert main(["eval", "--config", config_path]) == 0
        record = json.loads((workdir / "metrics.json").read_text())
        assert record["seed"] == 5
        assert set(record["metrics"]) == {"MRR@10", "MRR@100", "nDCG@10", "nDCG@100"}
        for value in record["metrics"].values():
            assert 0.0 <= value <= 1.0

    def test_10_artifacts_keep_their_recorded_digests(self, config_path, workdir, capsys):
        # metrics.json and the .meta.json sidecars embed the workdir, so the
        # metric values stand in for their bytes; build-pairs runs again
        # (to the same bits) for its two report lines
        assert main(["build-pairs", "--config", config_path]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("kept/tried:", "sampler:"))]
        names = [p.name for p in sorted(workdir.iterdir()) if p.suffix != ".json"]
        actual = {
            "artifacts": {name: sha256(workdir / name) for name in names},
            "build-pairs": lines,
            "metrics": json.loads((workdir / "metrics.json").read_text())["metrics"],
        }
        golden = json.loads(GOLDEN.read_text())
        recorded = golden.pop("environment")
        table = json.dumps({"environment": environment(), **actual}, indent=2)
        assert actual == golden, (
            f"seed-5 artifacts differ from {GOLDEN.name}, recorded under {recorded}; this run: {environment()}. "
            f"A change meant to move them records this table:\n{table}"
        )


class TestEvalCommand:
    def config(self, tmp_path, **overrides):
        qrels = tmp_path / "q.qrels"
        qrels.write_text("q1 0 d1 2\nq2 0 d9 1\n")
        run = tmp_path / "r.run"
        run.write_text(
            "q1 Q0 d1 1 2.000000 t\nq1 Q0 d2 2 1.000000 t\n"
            "q2 Q0 d9 1 2.000000 t\nq2 Q0 d5 2 1.000000 t\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1,
            "workdir": str(tmp_path),
            "paths": {"run": str(run), "eval_qrels": str(qrels), "metrics": str(tmp_path / "m.json")},
            **overrides,
        }))
        return cfg.as_posix()

    def test_perfect_top1_gives_mrr_one(self, tmp_path):
        assert main(["eval", "--config", self.config(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "m.json").read_text())["metrics"]
        assert metrics["MRR@10"] == 1.0

    def test_cutoff_below_one_is_one_error(self, tmp_path, capsys):
        assert main(["eval", "--config", self.config(tmp_path, eval={"ks": [-1]})]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: eval.ks.0 must be an integer >= 1, got -1"]
        assert not (tmp_path / "m.json").exists()

    def test_cutoff_below_one_is_refused_before_reading_the_run(self, tmp_path, capsys):
        cfg = self.config(tmp_path, eval={"ks": [10, 0]})
        (tmp_path / "r.run").unlink()
        assert main(["eval", "--config", cfg]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: eval.ks.1 must be an integer >= 1, got 0"]
        assert not (tmp_path / "m.json").exists()

    def test_empty_cutoff_list_is_one_error(self, tmp_path, capsys):
        assert main(["eval", "--config", self.config(tmp_path, eval={"ks": []})]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: eval.ks must name at least one cutoff"]
        assert not (tmp_path / "m.json").exists()

    def test_empty_cutoff_list_is_refused_before_reading_the_run(self, tmp_path, capsys):
        cfg = self.config(tmp_path, eval={"ks": []})
        (tmp_path / "r.run").unlink()
        assert main(["eval", "--config", cfg]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: eval.ks must name at least one cutoff"]
        assert not (tmp_path / "m.json").exists()

    def test_seed_mandatory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workdir": str(tmp_path)}))
        assert main(["synth", "--config", cfg.as_posix()]) == 2

    def test_negative_seed_flag_is_one_error_before_any_write(self, tmp_path, capsys):
        assert main(["synth", "--seed", "-1", "--workdir", str(tmp_path / "w")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: seed must be an integer >= 0, got -1"]
        assert not (tmp_path / "w").exists()

    def test_negative_seed_in_config_file_is_one_error_before_any_write(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -3, "workdir": str(tmp_path / "w")}))
        assert main(["synth", "--config", cfg.as_posix()]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: seed must be an integer >= 0, got -3"]
        assert not (tmp_path / "w").exists()

    def test_unknown_profile_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "profile": "huge", "workdir": str(tmp_path)}))
        assert main(["synth", "--config", cfg.as_posix()]) == 2


class TestSynthPaths:
    def config(self, tmp_path, collection):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 1,
            "workdir": str(tmp_path / "w"),
            "synth": {"pages": 16, "topics": 2, "train_queries": 4, "eval_queries": 4, "candidates_per_query": 4},
            "paths": {"collection": str(collection)},
        }))
        return str(path)

    def test_entry_elsewhere_is_one_error_before_any_write(self, tmp_path, capsys):
        # a later stage would read the collection from the paths entry
        elsewhere = tmp_path / "elsewhere" / "coll.jsonl"
        assert main(["synth", "--config", self.config(tmp_path, elsewhere)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        own = tmp_path / "w" / "collection.jsonl"
        assert errors == [f"error: paths.collection is {elsewhere}, but synth writes collection to {own}"]
        assert not (tmp_path / "w").exists() and not (tmp_path / "elsewhere").exists()

    def test_entry_naming_synths_own_file_passes(self, tmp_path):
        own = tmp_path / "w" / ".." / "w" / "collection.jsonl"
        assert main(["synth", "--config", self.config(tmp_path, own)]) == 0
        assert (tmp_path / "w" / "collection.jsonl").exists()


# the flags each command takes besides --config, --seed, --profile and
# --workdir; every one names an input
INPUT_FLAGS = {
    "synth": set(),
    "ingest": {"--corpus"},
    "warm-sampler": set(),
    "build-pairs": set(),
    "pretrain": {"--init"},
    "finetune": {"--init"},
    "rerank": {"--init"},
    "eval": set(),
}


class TestOptions:
    def test_each_command_takes_exactly_its_flags(self, capsys):
        assert set(COMMANDS) == set(INPUT_FLAGS)
        for command, inputs in INPUT_FLAGS.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            usage = capsys.readouterr().out.split("\n\n")[0]
            assert set(re.findall(r"\[(--[\w-]+)", usage)) == {"--config", "--seed", "--profile", "--workdir", *inputs}

    @pytest.mark.parametrize("command", sorted(INPUT_FLAGS))
    def test_out_is_refused(self, command, tmp_path, capsys):
        # an output goes where its paths entry or the workdir puts it, which
        # is where the next stage reads it
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--workdir", str(tmp_path / "w"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "rerank"])
    def test_missing_init_is_one_error_naming_it(self, command, tmp_path, capsys):
        # the workdir is empty, so an input read before --init is checked
        # would fail first, naming another file
        work = tmp_path / "w"
        work.mkdir()
        missing = tmp_path / "nope.ckpt"
        assert main([command, "--seed", "1", "--workdir", str(work), "--init", str(missing)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: missing input {missing} (--init)"]
        assert list(tmp_path.iterdir()) == [work] and not any(work.iterdir())


class TestProfiles:
    def test_full_profile_training_constants(self):
        import argparse

        from anchorrank.cli import resolve_config

        args = argparse.Namespace(config=None, seed=1, profile="full", workdir=None)
        cfg = resolve_config(args)
        assert cfg["pretrain"]["batch_size"] == 128
        assert cfg["pretrain"]["epochs"] == 10
        assert cfg["pretrain"]["lr"] == pytest.approx(1e-4)
        assert cfg["finetune"]["lr"] == pytest.approx(1e-5)
        assert cfg["finetune"]["warmup"] == pytest.approx(0.1)
        assert cfg["encoder"]["max_len"] == 512
        assert cfg["taskgen"]["per_task_cap"] is None

    def test_flags_override_file(self, tmp_path):
        import argparse

        from anchorrank.cli import resolve_config

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9, "workdir": "elsewhere"}))
        args = argparse.Namespace(config=str(path), seed=42, profile=None, workdir="cli-dir")
        cfg = resolve_config(args)
        assert cfg["seed"] == 42
        assert cfg["workdir"] == "cli-dir"


MALFORMED_CONFIGS = {
    "not-an-object": "[1, 2]",
    "not-json": '{"seed": 1,',
    "unknown-top-level-key": '{"seed": 1, "learning_rate": 0.5}',
    "section-not-an-object": '{"seed": 1, "pretrain": 5}',
    "unknown-section-key": '{"seed": 1, "pretrain": {"learnig_rate": 0.5}}',
    "unknown-path-key": '{"seed": 1, "paths": {"corpse": "x.jsonl"}}',
    "pretrain-lam": '{"seed": 1, "pretrain": {"lam": 5}}',
    "encoder-dropout": '{"seed": 1, "encoder": {"dropout": 0.1}}',
}


WRONGLY_TYPED_CONFIGS = {
    "warmup.lr": '{"seed": 1, "warmup": {"lr": "0.1"}}',
    "taskgen.lam": '{"seed": 1, "taskgen": {"lam": "3"}}',
    "pretrain.epochs": '{"seed": 1, "pretrain": {"epochs": true}}',
    "finetune.lr": '{"seed": 1, "finetune": {"lr": false}}',
    "warmup.max_steps": '{"seed": 1, "warmup": {"max_steps": 1.5}}',
    "encoder.hidden": '{"seed": 1, "encoder": {"hidden": null}}',
    "pretrain.task_weights.mlm": '{"seed": 1, "pretrain": {"task_weights": {"mlm": "1"}}}',
    "taskgen.per_task_cap": '{"seed": 1, "taskgen": {"per_task_cap": "50"}}',
    "eval.ks.1": '{"seed": 1, "eval": {"ks": [10, "100"]}}',
    "paths.corpus": '{"seed": 1, "paths": {"corpus": 5}}',
    "seed": '{"seed": "1"}',
    "pretrain.lr": '{"seed": 1, "pretrain": {"lr": NaN}}',
    "finetune.warmup": '{"seed": 1, "finetune": {"warmup": Infinity}}',
    "pretrain.task_weights.rqp": '{"seed": 1, "pretrain": {"task_weights": {"rqp": -Infinity}}}',
}


class TestConfigFile:
    @pytest.mark.parametrize("key", sorted(WRONGLY_TYPED_CONFIGS))
    def test_wrongly_typed_value_is_one_error_naming_file_and_key(self, key, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(WRONGLY_TYPED_CONFIGS[key])
        assert main(["warm-sampler", "--config", str(path), "--workdir", str(tmp_path / "w")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert str(path) in errors[0] and f" {key} must be " in errors[0]
        assert not (tmp_path / "w").exists()

    def test_bad_build_pairs_limit_is_one_error_before_any_input(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        out = tmp_path / "out" / "pairs.jsonl"
        path.write_text(json.dumps({
            "seed": 1,
            "profile": "full",
            "taskgen": {"per_task_cap": {"rdp": -1}, "pair_budget": -3},
            "paths": {"pairs": str(out)},
        }))
        assert main(["build-pairs", "--config", str(path), "--workdir", str(tmp_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: per_task_cap.rdp must be an integer >= 0, got -1"]
        assert not out.exists() and not (tmp_path / "pairs.jsonl").exists()

    def test_int_for_float_and_null_for_a_limit_are_accepted(self, tmp_path):
        import argparse

        from anchorrank.cli import resolve_config, train_config
        from anchorrank.ranker import FinetuneConfig
        from anchorrank.taskgen import TaskGenConfig

        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 2,
            "warmup": {"lr": 1, "max_steps": None},
            "pretrain": {"max_steps": None, "task_weights": {"mlm": 2}},
            "taskgen": {"lam": 3, "per_task_cap": None, "pair_budget": None},
            "finetune": {"warmup": 0, "max_steps": None},
        }))
        cfg = resolve_config(argparse.Namespace(config=str(path), seed=None, profile=None, workdir=None))
        assert train_config(cfg["warmup"], cfg, task_weights={"mlm": 1.0}).lr == 1
        assert train_config(cfg["pretrain"], cfg).task_weights["mlm"] == 2
        assert TaskGenConfig(**cfg["taskgen"], seed=2).cap_for("rdp") is None
        assert FinetuneConfig(**cfg["finetune"], seed=2, max_len=48).max_steps is None
        path.write_text(json.dumps({"seed": 2, "taskgen": {"per_task_cap": 5}}))
        cfg = resolve_config(argparse.Namespace(config=str(path), seed=None, profile=None, workdir=None))
        assert TaskGenConfig(**cfg["taskgen"], seed=2).cap_for("rqp") == 5

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_one_error_naming_the_file(self, case, tmp_path, capsys):
        path = tmp_path / f"{case}.json"
        path.write_text(MALFORMED_CONFIGS[case])
        assert main(["synth", "--config", str(path), "--workdir", str(tmp_path / "w")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert str(path) in errors[0]
        assert not (tmp_path / "w").exists()

    def test_every_section_key_is_a_field_of_its_config(self):
        from dataclasses import fields

        from anchorrank.cli import DEFAULTS, FULL_PROFILE
        from anchorrank.encoder import EncoderConfig
        from anchorrank.pretrain import TrainConfig
        from anchorrank.ranker import FinetuneConfig
        from anchorrank.synth import SynthConfig
        from anchorrank.taskgen import TaskGenConfig

        built_by = {
            "encoder": EncoderConfig,
            "taskgen": TaskGenConfig,
            "warmup": TrainConfig,
            "pretrain": TrainConfig,
            "finetune": FinetuneConfig,
            "synth": SynthConfig,
        }
        for profile in (DEFAULTS, FULL_PROFILE):
            for section, cls in built_by.items():
                assert set(profile.get(section, {})) <= {f.name for f in fields(cls)}, section
        # and the converse: a field that is neither copied in nor a key of its
        # section is out of every config file's reach (the CLI sets the
        # warm-up's task_weights itself)
        copied_in = {"seed", "vocab_size", "max_len", "summary_max_tokens"}
        for section, cls in built_by.items():
            if section != "warmup":
                assert {f.name for f in fields(cls)} - copied_in <= set(DEFAULTS[section]), section

    @pytest.mark.parametrize("profile", ["toy", "full"])
    def test_each_profile_builds_every_stage_config(self, profile):
        import argparse

        from anchorrank.cli import encoder_config, resolve_config, train_config
        from anchorrank.ranker import FinetuneConfig
        from anchorrank.synth import SynthConfig
        from anchorrank.taskgen import TaskGenConfig

        cfg = resolve_config(argparse.Namespace(config=None, seed=3, profile=profile, workdir=None))
        assert encoder_config(cfg, 100).max_len == cfg["encoder"]["max_len"]
        warmup = train_config(cfg["warmup"], cfg, task_weights={"mlm": 1.0})
        assert warmup.lr == cfg["warmup"]["lr"]
        pretrain = train_config(cfg["pretrain"], cfg)
        assert pretrain.task_weights == cfg["pretrain"]["task_weights"]
        assert pretrain.task_weights is not cfg["pretrain"]["task_weights"]
        assert TaskGenConfig(**cfg["taskgen"], seed=3).summary_max_tokens == cfg["taskgen"]["summary_max_tokens"]
        assert FinetuneConfig(**cfg["finetune"], seed=3, max_len=48).lr == cfg["finetune"]["lr"]
        assert SynthConfig(**cfg["synth"], seed=3).pages == cfg["synth"]["pages"]

    def test_section_override_reaches_the_config(self, tmp_path):
        import argparse

        from anchorrank.cli import resolve_config, train_config

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 2, "pretrain": {"lr": 0.5, "task_weights": {"mlm": 0.25}}}))
        cfg = resolve_config(argparse.Namespace(config=str(path), seed=None, profile=None, workdir=None))
        tcfg = train_config(cfg["pretrain"], cfg)
        assert tcfg.lr == 0.5
        assert tcfg.task_weights == {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 0.25}
