import hashlib
import json
import re

import pytest

from anchorrank.cli import main


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
            "lam": 3.0,
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


class TestPipeline:
    def test_01_missing_input_names_producer(self, config_path, capsys):
        rc = main(["pretrain", "--config", config_path])
        captured = capsys.readouterr()
        assert rc != 0
        assert "build-pairs" in captured.err or "corpus" in captured.err

    def test_02_synth(self, config_path, workdir):
        assert main(["synth", "--config", config_path]) == 0
        assert (workdir / "corpus.jsonl").exists()
        assert (workdir / "corpus.jsonl.idx").exists()
        assert (workdir / "corpus.jsonl.meta.json").exists()
        assert (workdir / "eval_candidates.txt").exists()

    def test_03_ingest(self, config_path, workdir):
        assert main(["ingest", "--config", config_path]) == 0
        assert (workdir / "clean.jsonl").exists()
        assert (workdir / "vocab.txt").exists()

    def test_04_warm_sampler(self, config_path, workdir):
        assert main(["warm-sampler", "--config", config_path]) == 0
        assert (workdir / "sampler.ckpt").exists()

    def test_05_build_pairs_deterministic(self, config_path, workdir):
        assert main(["build-pairs", "--config", config_path]) == 0
        pairs = workdir / "pairs.jsonl"
        first = sha256(pairs)
        assert main(["build-pairs", "--config", config_path]) == 0
        assert sha256(pairs) == first

    def test_05_build_pairs_reports_sampler_work(self, config_path, capsys):
        assert main(["build-pairs", "--config", config_path]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("sampler:")]
        assert len(lines) == 1
        counts = re.fullmatch(r"sampler: (\d+) attention lookups, (\d+) encoder forwards", lines[0])
        lookups, forwards = map(int, counts.groups())
        assert 0 < forwards < lookups

    def test_06_pretrain(self, config_path, workdir):
        assert main(["pretrain", "--config", config_path]) == 0
        assert (workdir / "pretrained.ckpt").exists()
        metrics = (workdir / "pretrain_metrics.jsonl").read_text().splitlines()
        assert metrics
        record = json.loads(metrics[0])
        assert set(record["components"]) == {"rqp", "qdm", "rdp", "acm", "mlm"}

    def test_07_finetune(self, config_path, workdir):
        assert main(["finetune", "--config", config_path]) == 0
        assert (workdir / "finetuned.ckpt").exists()

    def test_08_rerank(self, config_path, workdir):
        assert main(["rerank", "--config", config_path]) == 0
        run_lines = (workdir / "rerank.run").read_text().splitlines()
        assert run_lines and len(run_lines[0].split()) == 6

    def test_09_eval(self, config_path, workdir):
        assert main(["eval", "--config", config_path]) == 0
        record = json.loads((workdir / "metrics.json").read_text())
        assert record["seed"] == 5
        assert set(record["metrics"]) == {"MRR@10", "MRR@100", "nDCG@10", "nDCG@100"}
        for value in record["metrics"].values():
            assert 0.0 <= value <= 1.0


class TestEvalCommand:
    def test_perfect_top1_gives_mrr_one(self, tmp_path):
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
        }))
        assert main(["eval", "--config", cfg.as_posix()]) == 0
        metrics = json.loads((tmp_path / "m.json").read_text())["metrics"]
        assert metrics["MRR@10"] == 1.0

    def test_seed_mandatory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workdir": str(tmp_path)}))
        assert main(["synth", "--config", cfg.as_posix()]) == 2

    def test_unknown_profile_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "profile": "huge", "workdir": str(tmp_path)}))
        assert main(["synth", "--config", cfg.as_posix()]) == 2


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
}


WRONGLY_TYPED_CONFIGS = {
    "warmup.lr": '{"seed": 1, "warmup": {"lr": "0.1"}}',
    "taskgen.lam": '{"seed": 1, "taskgen": {"lam": "3"}}',
    "pretrain.epochs": '{"seed": 1, "pretrain": {"epochs": true}}',
    "finetune.lr": '{"seed": 1, "finetune": {"lr": false}}',
    "warmup.max_steps": '{"seed": 1, "warmup": {"max_steps": 1.5}}',
    "encoder.dropout": '{"seed": 1, "encoder": {"dropout": null}}',
    "pretrain.task_weights.mlm": '{"seed": 1, "pretrain": {"task_weights": {"mlm": "1"}}}',
    "taskgen.per_task_cap": '{"seed": 1, "taskgen": {"per_task_cap": "50"}}',
    "eval.ks.1": '{"seed": 1, "eval": {"ks": [10, "100"]}}',
    "paths.corpus": '{"seed": 1, "paths": {"corpus": 5}}',
    "seed": '{"seed": "1"}',
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

    def test_int_for_float_and_null_for_a_limit_are_accepted(self, tmp_path):
        import argparse

        from anchorrank.cli import encoder_config, resolve_config, train_config
        from anchorrank.ranker import FinetuneConfig
        from anchorrank.taskgen import TaskGenConfig

        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "seed": 2,
            "encoder": {"dropout": 0},
            "warmup": {"lr": 1, "max_steps": None},
            "pretrain": {"max_steps": None, "task_weights": {"mlm": 2}},
            "taskgen": {"lam": 3, "per_task_cap": None, "pair_budget": None},
            "finetune": {"warmup": 0, "max_steps": None},
        }))
        cfg = resolve_config(argparse.Namespace(config=str(path), seed=None, profile=None, workdir=None))
        assert encoder_config(cfg, 100).dropout == 0
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
        assert warmup.lam == cfg["taskgen"]["lam"] and warmup.lr == cfg["warmup"]["lr"]
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
