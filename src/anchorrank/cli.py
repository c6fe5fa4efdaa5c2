"""Batch entry points: synth, ingest, warm-sampler, build-pairs, pretrain,
finetune, rerank, eval.

Every command resolves one configuration (profile defaults <- config file
<- flags), prints it with the seed, and embeds both into its outputs (as
checkpoint metadata or a .meta.json sidecar) for provenance.  Each config
section holds the fields of one config dataclass and is passed to it
whole, so a key that DEFAULTS lacks is rejected when the file is read.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
from pathlib import Path

from anchorrank import evalkit
from anchorrank.corpus import Vocabulary, build_vocab, clean_corpus, read_corpus, write_corpus
from anchorrank.encoder import EncoderConfig, load_checkpoint
from anchorrank.pretrain import TrainConfig, TrainError, mlm_warmup, train
from anchorrank.ranker import (
    FinetuneConfig,
    examples_from_candidates,
    finetune,
    load_model,
    read_candidates,
    read_collection,
    read_queries,
    rerank,
)
from anchorrank.sampler import AttentionSampler, default_stopwords, load_stopwords
from anchorrank.synth import SynthConfig, synth_dataset
from anchorrank.taskgen import TASKS, PairGenerator, TaskGenConfig, read_pairs, write_pairs

# artifact key -> (default file name under the workdir, command that writes it)
ARTIFACTS = {
    "corpus": ("corpus.jsonl", "synth"),
    "corpus_clean": ("clean.jsonl", "ingest"),
    "vocab": ("vocab.txt", "ingest"),
    "sampler_ckpt": ("sampler.ckpt", "warm-sampler"),
    "pairs": ("pairs.jsonl", "build-pairs"),
    "pretrain_ckpt": ("pretrained.ckpt", "pretrain"),
    "pretrain_metrics": ("pretrain_metrics.jsonl", "pretrain"),
    "finetune_ckpt": ("finetuned.ckpt", "finetune"),
    "collection": ("collection.jsonl", "synth"),
    "train_queries": ("train_queries.tsv", "synth"),
    "train_qrels": ("train_qrels.txt", "synth"),
    "train_candidates": ("train_candidates.txt", "synth"),
    "eval_queries": ("eval_queries.tsv", "synth"),
    "eval_qrels": ("eval_qrels.txt", "synth"),
    "eval_candidates": ("eval_candidates.txt", "synth"),
    "run": ("rerank.run", "rerank"),
    "metrics": ("metrics.json", "eval"),
}

DEFAULTS = {
    "seed": None,
    "profile": "toy",
    "workdir": "work",
    "stopwords": None,
    "paths": {},
    "corpus": {"min_words": 100, "vocab_size": 1000},
    "encoder": {"layers": 2, "heads": 4, "hidden": 64, "ffn_dim": 256, "max_len": 48},
    "taskgen": {"lam": 3.0, "summary_max_tokens": 32, "per_task_cap": {"rdp": 100, "acm": 200}, "pair_budget": None},
    "warmup": {"lr": 1e-3, "epochs": 2, "batch_size": 8, "max_steps": 150, "log_every": 50},
    "pretrain": {
        "lr": 1e-3,
        "epochs": 20,
        "batch_size": 8,
        "max_steps": 800,
        "log_every": 25,
        "task_weights": {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0},
    },
    "finetune": {"lr": 5e-4, "epochs": 25, "warmup": 0.1, "batch_size": 8, "max_steps": None, "log_every": 50},
    "rerank": {"k": 10},
    "eval": {"ks": [10, 100]},
    "synth": {"pages": 200, "topics": 8, "train_queries": 100, "eval_queries": 50, "candidates_per_query": 10},
}

# larger training constants (batch 128, 10 epochs, lr 1e-4) on the same small encoder
FULL_PROFILE = {
    "corpus": {"min_words": 100, "vocab_size": 5000},
    "encoder": {"layers": 2, "heads": 4, "hidden": 64, "ffn_dim": 256, "max_len": 512},
    "taskgen": {"summary_max_tokens": 512, "per_task_cap": None, "pair_budget": None},
    "warmup": {"lr": 1e-4, "epochs": 1, "batch_size": 32, "max_steps": None},
    "pretrain": {"lr": 1e-4, "epochs": 10, "batch_size": 128, "max_steps": None},
    "finetune": {"lr": 1e-5, "epochs": 2, "warmup": 0.1, "batch_size": 128, "max_steps": None},
}


class CommandError(RuntimeError):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# the kinds a value may take where its DEFAULTS value does not show them
# all: null where a profile lifts a limit, and one cap for every task
NULL = type(None)
KINDS = {
    "seed": (int, NULL),
    "stopwords": (str, NULL),
    "max_steps": (int, NULL),
    "pair_budget": (int, NULL),
    "per_task_cap": (dict, int, NULL),
}
KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list", NULL: "null"}


def _check_value(path: Path, name: str, value, default) -> None:
    """value must be of one of the kinds KINDS gives its key, or else of its
    default's kind; an int passes for a float, a bool never for a number.
    The items of a list or an object are checked against the default's
    first item."""
    kinds = KINDS.get(name.rpartition(".")[2], (type(default),))
    accepted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = " or ".join(KIND_NAMES[k] for k in kinds)
        raise CommandError(f"config file {path}: {name} must be {expected}, got {value!r}")
    if isinstance(value, (dict, list)) and isinstance(default, (dict, list)) and default:
        first = next(iter(default.values() if isinstance(default, dict) else default))
        for item, item_value in value.items() if isinstance(value, dict) else enumerate(value):
            _check_value(path, f"{name}.{item}", item_value, first)


def _check_config_file(path: Path, file_cfg) -> None:
    """Every key must be one of DEFAULTS (a paths key one of ARTIFACTS),
    every section an object, so that each section can be passed whole to
    the dataclass it builds, and every value of its default's kind."""
    if not isinstance(file_cfg, dict):
        raise CommandError(f"config file {path}: expected a JSON object, got {type(file_cfg).__name__}")
    for key, value in file_cfg.items():
        if key not in DEFAULTS:
            raise CommandError(f"config file {path}: unknown key {key!r}; expected one of {sorted(DEFAULTS)}")
        allowed = ARTIFACTS if key == "paths" else DEFAULTS[key]
        if not isinstance(allowed, dict):
            _check_value(path, key, value, allowed)
            continue
        if not isinstance(value, dict):
            raise CommandError(f"config file {path}: section {key!r} must be an object, got {type(value).__name__}")
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            raise CommandError(f"config file {path}: unknown keys {unknown} in {key!r} (known: {sorted(allowed)})")
        for name, item in value.items():
            _check_value(path, f"{key}.{name}", item, ARTIFACTS[name][0] if key == "paths" else allowed[name])


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    profile = getattr(args, "profile", None)
    file_cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CommandError(f"config file {path} not found")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CommandError(f"config file {path}: not valid JSON: {exc}") from None
        _check_config_file(path, file_cfg)
        profile = profile or file_cfg.get("profile")
    profile = profile or cfg["profile"]
    if profile == "full":
        cfg = _deep_merge(cfg, FULL_PROFILE)
    elif profile != "toy":
        raise CommandError(f"unknown profile {profile!r} (expected toy or full)")
    cfg = _deep_merge(cfg, file_cfg)
    cfg["profile"] = profile
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "workdir", None) is not None:
        cfg["workdir"] = args.workdir
    if cfg["seed"] is None:
        raise CommandError("a seed is mandatory: pass --seed or set it in the config file")
    return cfg


def resolve_path(cfg: dict, key: str, override: str | None = None) -> Path:
    if override:
        return Path(override)
    if key in cfg["paths"]:
        return Path(cfg["paths"][key])
    return Path(cfg["workdir"]) / ARTIFACTS[key][0]


def input_path(cfg: dict, key: str, override: str | None = None) -> Path:
    path = resolve_path(cfg, key, override)
    if not path.exists():
        raise CommandError(f"missing input {path} ({key}); produce it with `anchorrank {ARTIFACTS[key][1]}`")
    return path


def output_path(cfg: dict, key: str, override: str | None = None) -> Path:
    path = resolve_path(cfg, key, override)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def announce(command: str, cfg: dict) -> None:
    print(f"[anchorrank {command}] seed={cfg['seed']} profile={cfg['profile']}")
    print(json.dumps(cfg, indent=2, sort_keys=True))


def write_sidecar(path: Path, command: str, cfg: dict) -> None:
    meta = {"command": command, "seed": cfg["seed"], "config": cfg}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")


def encoder_config(cfg: dict, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(**cfg["encoder"], vocab_size=vocab_size)


def stopword_set(cfg: dict):
    if cfg.get("stopwords"):
        return load_stopwords(cfg["stopwords"])
    return default_stopwords()


def train_config(section: dict, cfg: dict, task_weights=None) -> TrainConfig:
    """The warm-up section has no task_weights of its own.  TrainConfig
    fills task_weights in place, so it gets a copy."""
    weights = dict(section["task_weights"] if task_weights is None else task_weights)
    return TrainConfig(
        **{**section, "task_weights": weights},
        seed=cfg["seed"],
        max_len=cfg["encoder"]["max_len"],
        summary_max_tokens=cfg["taskgen"]["summary_max_tokens"],
    )


def cmd_synth(args, cfg: dict) -> int:
    out_dir = Path(args.out) if args.out else Path(cfg["workdir"])
    paths = synth_dataset(out_dir, SynthConfig(**cfg["synth"], seed=cfg["seed"]))
    write_sidecar(paths["corpus"], "synth", cfg)
    print(f"wrote synthetic dataset under {out_dir}")
    return 0


def cmd_ingest(args, cfg: dict) -> int:
    corpus = read_corpus(input_path(cfg, "corpus", args.corpus))
    cleaned = clean_corpus(corpus, min_words=cfg["corpus"]["min_words"])
    if len(cleaned) == 0:
        raise CommandError("cleaning removed every page; lower corpus.min_words")
    vocab = build_vocab(cleaned, max_size=cfg["corpus"]["vocab_size"])
    clean_path = output_path(cfg, "corpus_clean", args.out)
    write_corpus(cleaned, clean_path)
    vocab_path = resolve_path(cfg, "vocab")
    vocab.save(vocab_path)
    write_sidecar(clean_path, "ingest", cfg)
    print(f"cleaned corpus: {cleaned.counts()} -> {clean_path}")
    print(f"vocabulary: {len(vocab)} terms -> {vocab_path}")
    return 0


def _load_clean_corpus_and_vocab(cfg: dict):
    return read_corpus(input_path(cfg, "corpus_clean")), Vocabulary.load(input_path(cfg, "vocab"))


def cmd_warm_sampler(args, cfg: dict) -> int:
    corpus, vocab = _load_clean_corpus_and_vocab(cfg)
    enc = encoder_config(cfg, len(vocab))
    tcfg = train_config(cfg["warmup"], cfg, task_weights={"rqp": 0.0, "qdm": 0.0, "rdp": 0.0, "acm": 0.0, "mlm": 1.0})
    out = output_path(cfg, "sampler_ckpt", args.out)
    mlm_warmup(corpus, enc, tcfg, vocab, checkpoint_path=out)
    print(f"sampler checkpoint -> {out}")
    return 0


def cmd_build_pairs(args, cfg: dict) -> int:
    corpus, vocab = _load_clean_corpus_and_vocab(cfg)
    ck = load_checkpoint(input_path(cfg, "sampler_ckpt"), expected_config=encoder_config(cfg, len(vocab)))
    sampler = AttentionSampler(ck.params, ck.config, vocab, stopwords=stopword_set(cfg))
    pairs = PairGenerator(corpus, sampler, TaskGenConfig(**cfg["taskgen"], seed=cfg["seed"])).generate()
    if not pairs:
        raise CommandError("no pairs were generated; corpus has too few usable anchors")
    out = output_path(cfg, "pairs", args.out)
    count = write_pairs(pairs, out)
    write_sidecar(out, "build-pairs", cfg)
    by_task = {t: sum(1 for p in pairs if p.task == t) for t in TASKS}
    print(f"{count} pairs ({by_task}) -> {out}")
    print(f"sampler: {sampler.lookups} attention lookups, {sampler.forwards} encoder forwards")
    return 0


def cmd_pretrain(args, cfg: dict) -> int:
    corpus, vocab = _load_clean_corpus_and_vocab(cfg)
    pairs = read_pairs(input_path(cfg, "pairs"))
    enc = encoder_config(cfg, len(vocab))
    tcfg = train_config(cfg["pretrain"], cfg)
    init = load_checkpoint(Path(args.init), expected_config=enc).params if args.init else None
    out = output_path(cfg, "pretrain_ckpt", args.out)
    metrics_path = resolve_path(cfg, "pretrain_metrics")
    meta = {"seed": cfg["seed"], "command": "pretrain"}
    train(pairs, corpus, enc, tcfg, vocab, init=init, checkpoint_path=out, metrics_path=metrics_path, extra_meta=meta)
    print(f"pre-trained checkpoint -> {out}")
    print(f"metrics log -> {metrics_path}")
    return 0


def cmd_finetune(args, cfg: dict) -> int:
    model = load_model(input_path(cfg, "pretrain_ckpt", args.init))
    collection = read_collection(input_path(cfg, "collection"))
    queries = read_queries(input_path(cfg, "train_queries"))
    qrels = evalkit.read_qrels(input_path(cfg, "train_qrels"))
    candidates = read_candidates(input_path(cfg, "train_candidates"))
    examples = examples_from_candidates(queries, candidates, qrels)
    if not examples:
        raise CommandError("no fine-tuning examples; check the train queries/candidates/qrels files")
    fcfg = FinetuneConfig(**cfg["finetune"], seed=cfg["seed"], max_len=cfg["encoder"]["max_len"])
    out = output_path(cfg, "finetune_ckpt", args.out)
    finetune(model, examples, collection, fcfg, checkpoint_path=out)
    print(f"fine-tuned checkpoint ({len(examples)} examples) -> {out}")
    return 0


def cmd_rerank(args, cfg: dict) -> int:
    model = load_model(input_path(cfg, "finetune_ckpt", args.init))
    collection = read_collection(input_path(cfg, "collection"))
    queries = read_queries(input_path(cfg, "eval_queries"))
    candidates = read_candidates(input_path(cfg, "eval_candidates"))
    run: evalkit.RankedRun = {}
    for qid in sorted(candidates):
        if qid not in queries:
            raise CommandError(f"candidate query {qid!r} missing from queries file")
        run[qid] = rerank(model, queries[qid], candidates[qid], k=cfg["rerank"]["k"], collection=collection)
    out = output_path(cfg, "run", args.out)
    evalkit.write_run(run, out, tag=f"anchorrank-seed{cfg['seed']}")
    write_sidecar(out, "rerank", cfg)
    print(f"run over {len(run)} queries -> {out}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    run = evalkit.read_run(input_path(cfg, "run"))
    qrels = evalkit.read_qrels(input_path(cfg, "eval_qrels"))
    report = evalkit.evaluate(run, qrels, ks=tuple(cfg["eval"]["ks"]))
    print(evalkit.format_report(report))
    out = output_path(cfg, "metrics", args.out)
    record = {"command": "eval", "seed": cfg["seed"], "metrics": report, "config": cfg}
    out.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(f"metrics record -> {out}")
    return 0


# command -> (handler, help, --out help, *extra (flag, help) options)
COMMANDS = {
    "synth": (cmd_synth, "generate the bundled synthetic topic corpus and retrieval splits",
              "output directory (default workdir)"),
    "ingest": (cmd_ingest, "parse + clean the corpus and build the vocabulary", "cleaned corpus path",
               ("--corpus", "raw corpus JSONL path")),
    "warm-sampler": (cmd_warm_sampler, "MLM-only warm-up producing the fixed sampling checkpoint",
                     "sampler checkpoint path"),
    "build-pairs": (cmd_build_pairs, "construct the four-task pre-training pairs file", "pairs file path"),
    "pretrain": (cmd_pretrain, "joint pairwise + MLM pre-training", "checkpoint path",
                 ("--init", "optional checkpoint to initialize from")),
    "finetune": (cmd_finetune, "pointwise cross-entropy fine-tuning on the train split", "checkpoint path",
                 ("--init", "checkpoint to initialize from (default: pretrain output)")),
    "rerank": (cmd_rerank, "rerank the eval candidate lists", "run file path",
               ("--init", "checkpoint to rerank with (default: finetune output)")),
    "eval": (cmd_eval, "score a run against qrels (MRR@k, nDCG@k)", "metrics record path"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorrank",
        description="Hyperlink-derived pre-training and document reranking pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, out_help, *options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="random seed (mandatory here or in the config)")
        p.add_argument("--profile", choices=["toy", "full"], help="preset profile")
        p.add_argument("--workdir", help="artifact directory (default ./work)")
        p.add_argument("--out", help=out_help)
        for flag, flag_help in options:
            p.add_argument(flag, help=flag_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        announce(args.command, cfg)
        return args.func(args, cfg)
    except (CommandError, TrainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
