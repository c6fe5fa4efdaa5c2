#!/usr/bin/env python3
"""anchorrank benchmark: two closed-loop workloads with one caller.

    python3 bench/run.py --workload train|rerank|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
./src and writes only under ./.bench_work.  Each workload runs in its own
process with one BLAS thread.  `--trace 0` prints the end-to-end metrics,
measured with nothing wrapped; `--trace 1` wraps the program's public
functions, records spans and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  NOTES.md
says why each workload exists and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

T_START = time.perf_counter()
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("train", "rerank")

SETUP_REPEATS = 3
PRETRAIN_STEPS = 100
FINETUNE_STEPS = 200
# final logging window of the toy pretrain profile (log_every = 25)
LOSS_WINDOW = 25
QUERY_LOG = 200
DEPTH_RANGE = (5, 30)
OVERLONG_SHARE = 0.04
OVERLONG_TOKENS = (46, 60)

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_kref": "1/kref",
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
}


class BenchError(RuntimeError):
    pass


def load_program() -> SimpleNamespace:
    """Import anchorrank from this checkout's src/, never from elsewhere,
    with one BLAS thread (the variables must be set before numpy loads)."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "anchorrank" / "__init__.py").is_file():
        raise BenchError(f"no anchorrank sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import scipy.special

    import anchorrank
    from anchorrank import cli, corpus, encoder, evalkit, pretrain, ranker, sampler, synth, taskgen
    from anchorrank.encoder import layers

    if Path(anchorrank.__file__).resolve().parent != (SRC / "anchorrank").resolve():
        raise BenchError(f"anchorrank was imported from {anchorrank.__file__}, not from {SRC}")
    return SimpleNamespace(
        numpy=numpy,
        scipy=scipy,
        cli=cli,
        corpus=corpus,
        encoder=encoder,
        evalkit=evalkit,
        pretrain=pretrain,
        ranker=ranker,
        sampler=sampler,
        synth=synth,
        taskgen=taskgen,
        layers=layers,
        EncoderGraph=encoder.EncoderGraph,
        AttentionSampler=sampler.AttentionSampler,
        PairGenerator=taskgen.PairGenerator,
    )


def environment(p: SimpleNamespace, ref) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": p.numpy.__version__,
        "scipy": p.scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        # the load average of a small VM does not show contention on its
        # host; the reference kernel's time does
        "reference_ms_start": ref.median_ms(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def timing(name: str, unit: str, samples) -> dict:
    """p50 and p90 of a list of durations with their sample count."""
    return {
        f"{name}_p50": {"value": percentile(samples, 50), "unit": unit, "samples": len(samples)},
        f"{name}_p90": {"value": percentile(samples, 90), "unit": unit, "samples": len(samples)},
    }


class StepClock(logging.Handler):
    """Timestamps every record a training loop logs; with log_every = 1 the
    loops log once per optimizer step, so the timestamps are step ends.

    With a reference kernel it runs the kernel before the first step and
    after every step end, and the next step starts when the kernel is done,
    so `refs[i]` is the kernel time taken right before step i and no step
    duration holds kernel time."""

    def __init__(self, logger_name: str, tracer=None, label: str = "", reference=None) -> None:
        super().__init__()
        self.times: list[float] = []
        self.starts: list[float] = []
        self.refs: list[float] = []
        self.tracer = tracer
        self.label = label
        self.reference = reference
        self.logger = logging.getLogger(logger_name)

    def emit(self, record) -> None:
        self.times.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.item = f"{self.label}-step{len(self.times) + 1}"
        self._start_step()

    def _start_step(self) -> None:
        if self.reference is not None:
            self.refs.append(self.reference.time())
        self.starts.append(time.perf_counter())

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.times)]

    def __enter__(self) -> "StepClock":
        if self.tracer is not None:
            self.tracer.item = f"{self.label}-step1"
        self.logger.setLevel(logging.INFO)
        self.logger.propagate = False
        self.logger.addHandler(self)
        self._start_step()
        return self

    def __exit__(self, *exc) -> None:
        self.logger.removeHandler(self)


# ---------------------------------------------------------------- set-up


def toy_config(p, seed: int, workdir: Path) -> dict:
    args = argparse.Namespace(seed=seed, profile="toy", workdir=str(workdir), config=None)
    return p.cli.resolve_config(args)


def synth_and_ingest(p, cfg: dict, d: Path):
    """The synth and ingest stages, then the read-back every later CLI
    stage starts with."""
    s = cfg["synth"]
    synth_cfg = p.synth.SynthConfig(
        pages=s["pages"],
        topics=s["topics"],
        train_queries=s["train_queries"],
        eval_queries=s["eval_queries"],
        candidates_per_query=s["candidates_per_query"],
        seed=cfg["seed"],
    )
    p.synth.synth_dataset(d, synth_cfg)
    raw = p.corpus.read_corpus(d / "corpus.jsonl")
    cleaned = p.corpus.clean_corpus(raw, min_words=cfg["corpus"]["min_words"])
    vocab = p.corpus.build_vocab(cleaned, max_size=cfg["corpus"]["vocab_size"])
    p.corpus.write_corpus(cleaned, d / "clean.jsonl")
    vocab.save(d / "vocab.txt")
    return p.corpus.read_corpus(d / "clean.jsonl"), p.corpus.Vocabulary.load(d / "vocab.txt")


def warm_sampler(p, cfg: dict, d: Path, clean, vocab):
    enc = p.cli.encoder_config(cfg, len(vocab))
    weights = {"rqp": 0.0, "qdm": 0.0, "rdp": 0.0, "acm": 0.0, "mlm": 1.0}
    tcfg = p.cli.train_config(cfg["warmup"], cfg, task_weights=weights)
    p.pretrain.mlm_warmup(clean, enc, tcfg, vocab, checkpoint_path=d / "sampler.ckpt")
    ck = p.encoder.load_checkpoint(d / "sampler.ckpt", expected_config=enc)
    sampler = p.AttentionSampler(ck.params, ck.config, vocab, stopwords=p.cli.stopword_set(cfg))
    t = cfg["taskgen"]
    gen_cfg = p.taskgen.TaskGenConfig(
        lam=t["lam"],
        summary_max_tokens=t["summary_max_tokens"],
        per_task_cap=t["per_task_cap"],
        pair_budget=t["pair_budget"],
        seed=cfg["seed"],
    )
    return enc, sampler, gen_cfg


def build_pairs(p, clean, sampler, gen_cfg, out: Path) -> list:
    pairs = p.PairGenerator(clean, sampler, gen_cfg).generate()
    p.taskgen.write_pairs(pairs, out)
    return pairs


def setup_train(p, cfg: dict, d: Path) -> dict:
    clean, vocab = synth_and_ingest(p, cfg, d)
    enc, sampler, gen_cfg = warm_sampler(p, cfg, d, clean, vocab)
    t0 = time.perf_counter()
    written = len(build_pairs(p, clean, sampler, gen_cfg, d / "pairs.jsonl"))
    build_pairs_s = time.perf_counter() - t0
    pairs = p.taskgen.read_pairs(d / "pairs.jsonl")
    collection = p.ranker.read_collection(d / "collection.jsonl")
    queries = p.ranker.read_queries(d / "train_queries.tsv")
    qrels = p.evalkit.read_qrels(d / "train_qrels.txt")
    candidates = p.ranker.read_candidates(d / "train_candidates.txt")
    examples = p.ranker.examples_from_candidates(queries, candidates, qrels)
    return {
        "dir": d,
        "cfg": cfg,
        "clean": clean,
        "vocab": vocab,
        "enc": enc,
        "pairs": pairs,
        "pairs_written": written,
        "build_pairs_s": build_pairs_s,
        "collection": collection,
        "examples": examples,
        "artifacts": ["sampler.ckpt", "pairs.jsonl"],
    }


def query_log(p, seed: int, collection: dict) -> dict:
    """Known-item queries over the collection, drawn from the benchmark's
    own seed: the title head of one page plus one to three of its body
    words, against a shuffled candidate list that holds that page.

    Candidate depths and query lengths are spread evenly over their ranges
    and dealt to the queries in seeded order, so every seed has the same
    depth distribution and the tail latency reflects list depth.  A small
    share of extra queries are longer than the pack budget (max_len - 3).
    """
    rng = p.numpy.random.default_rng([seed, 1729])
    ids = sorted(collection)
    tokens = {d: p.corpus.tokenize(collection[d].body) for d in ids}
    topic = {d: collection[d].url.rsplit("/", 2)[-2] for d in ids}
    lo, hi = DEPTH_RANGE
    depths = [lo + (i * (hi - lo + 1)) // QUERY_LOG for i in range(QUERY_LOG)]
    lengths = [1 + i % 3 for i in range(QUERY_LOG)]
    n_long = round(OVERLONG_SHARE * QUERY_LOG)
    depths += [int(d) for d in rng.integers(lo, hi + 1, size=n_long)]
    lengths += [int(n) - 1 for n in rng.integers(OVERLONG_TOKENS[0], OVERLONG_TOKENS[1] + 1, size=n_long)]
    order = list(rng.permutation(QUERY_LOG)) + list(range(QUERY_LOG, QUERY_LOG + n_long))
    queries, candidates, qrels, overlong = {}, {}, {}, []
    for i, slot in enumerate(order):
        qid = f"q{i:04d}"
        if i >= QUERY_LOG:
            overlong.append(qid)
        depth, length = depths[slot], lengths[slot]
        target = ids[int(rng.integers(len(ids)))]
        head = p.corpus.tokenize(collection[target].title)[0]
        body = tokens[target]
        words = [body[int(j)] for j in rng.integers(len(body), size=length)]
        queries[qid] = " ".join([head] + words)
        same = [d for d in ids if d != target and topic[d] == topic[target]]
        other = [d for d in ids if topic[d] != topic[target]]
        n_same = min(len(same), depth // 2)
        docs = [target]
        docs += [same[int(j)] for j in rng.choice(len(same), size=n_same, replace=False)]
        docs += [other[int(j)] for j in rng.choice(len(other), size=depth - 1 - n_same, replace=False)]
        rng.shuffle(docs)
        candidates[qid] = [(doc, float(depth - r)) for r, doc in enumerate(docs)]
        qrels[qid] = {target: int(rng.integers(1, 4))}
    return {"queries": queries, "candidates": candidates, "qrels": qrels, "overlong": overlong}


def setup_rerank(p, cfg: dict, d: Path) -> dict:
    _, vocab = synth_and_ingest(p, cfg, d)
    enc = p.cli.encoder_config(cfg, len(vocab))
    params = p.encoder.init_params(enc, cfg["seed"])
    meta = {"stage": "bench-init", "vocab": vocab.id_to_term}
    p.encoder.save_checkpoint(d / "reranker.ckpt", params, enc, extra=meta)
    model = p.ranker.load_model(d / "reranker.ckpt", expected_config=enc)
    collection = p.ranker.read_collection(d / "collection.jsonl")
    log = query_log(p, cfg["seed"], collection)
    return {"dir": d, "cfg": cfg, "model": model, "collection": collection, **log, "artifacts": ["reranker.ckpt"]}


SETUPS = {"train": setup_train, "rerank": setup_rerank}


# ---------------------------------------------------------- timed sections
#
# Each timed section repeats its unit of work (one pretrain + finetune
# schedule, one pass over the query log) until
# `seconds` have passed, and always completes at least one unit.  With a
# reference kernel (`ref`) it runs the kernel right before every operation
# and records, in time order, each operation's duration and the kernel time
# before it (`op_s`, `ref_s`).  Kernel time is in neither.


def finetune_batches(n_examples: int, batch: int, epochs: int, steps: int) -> list[int]:
    sizes = []
    for _ in range(epochs):
        for start in range(0, n_examples, batch):
            sizes.append(min(batch, n_examples - start))
    return sizes[:steps]


def timed_train(p, st: dict, seconds: float, tracer=None, ref=None) -> dict:
    cfg, d = st["cfg"], st["dir"]
    tcfg = dataclasses.replace(p.cli.train_config(cfg["pretrain"], cfg), max_steps=PRETRAIN_STEPS, log_every=1)
    f = cfg["finetune"]
    fcfg = p.ranker.FinetuneConfig(
        lr=f["lr"],
        epochs=f["epochs"],
        warmup=f["warmup"],
        batch_size=f["batch_size"],
        seed=cfg["seed"],
        max_len=cfg["encoder"]["max_len"],
        log_every=1,
        max_steps=FINETUNE_STEPS,
    )
    res = {
        "pretrain_step_s": [],
        "finetune_step_s": [],
        "pretrain_wall_s": 0.0,
        "finetune_wall_s": 0.0,
        "pretrain_seqs": 0,
        "finetune_seqs": 0,
        "step_ends": {"pretrain": [], "finetune": []},
        "op_s": [],
        "ref_s": [],
        "failures": Counter(),
        "attempted": 0,
    }
    start = time.perf_counter()
    while True:
        res["attempted"] += PRETRAIN_STEPS + FINETUNE_STEPS
        with StepClock("anchorrank.pretrain", tracer, "pretrain", ref) as clock:
            t0 = clock.starts[0]
            try:
                _, logs = p.pretrain.train(
                    st["pairs"],
                    st["clean"],
                    st["enc"],
                    tcfg,
                    st["vocab"],
                    checkpoint_path=d / "pretrained.ckpt",
                    metrics_path=d / "pretrain_metrics.jsonl",
                    extra_meta={"seed": cfg["seed"], "command": "pretrain"},
                )
            except Exception as exc:  # counted per step not completed
                res["failures"][type(exc).__name__] += PRETRAIN_STEPS + FINETUNE_STEPS - len(clock.times)
                break
            res["pretrain_wall_s"] += time.perf_counter() - t0 - sum(clock.refs[1:])
        res["pretrain_step_s"] += clock.durations()
        res["step_ends"]["pretrain"] += clock.times
        record_ops(res, clock)
        res["pretrain_seqs"] += sum(3 * e["pairs"] for e in logs)
        res["pretrain_loss"] = sum(e["total"] for e in logs[-LOSS_WINDOW:]) / len(logs[-LOSS_WINDOW:])
        res["pretrain_first_loss"] = sum(e["total"] for e in logs[:LOSS_WINDOW]) / len(logs[:LOSS_WINDOW])

        model = p.ranker.load_model(d / "pretrained.ckpt")
        with StepClock("anchorrank.ranker", tracer, "finetune", ref) as clock:
            t0 = clock.starts[0]
            try:
                tuned = p.ranker.finetune(model, st["examples"], st["collection"], fcfg, checkpoint_path=d / "finetuned.ckpt")
            except Exception as exc:  # counted per step not completed
                res["failures"][type(exc).__name__] += FINETUNE_STEPS - len(clock.times)
                break
            res["finetune_wall_s"] += time.perf_counter() - t0 - sum(clock.refs[1:])
        res["finetune_step_s"] += clock.durations()
        res["step_ends"]["finetune"] += clock.times
        record_ops(res, clock)
        res["finetune_seqs"] += sum(finetune_batches(len(st["examples"]), fcfg.batch_size, fcfg.epochs, len(clock.times)))
        res["model"] = tuned
        if time.perf_counter() - start >= seconds:
            break
    res["wall_s"] = time.perf_counter() - start
    res["artifacts"] = {name: sha256(d / name) for name in ("pretrained.ckpt", "finetuned.ckpt", "pretrain_metrics.jsonl") if (d / name).exists()}
    return res


def record_ops(res: dict, clock: StepClock) -> None:
    if clock.reference is not None:
        res["op_s"] += clock.durations()
        res["ref_s"] += clock.refs[: len(clock.times)]


def timed_rerank(p, st: dict, seconds: float, tracer=None, ref=None) -> dict:
    k = st["cfg"]["rerank"]["k"]
    overlong = set(st["overlong"])
    qids = [q for q in st["queries"] if q not in overlong]
    query_s, ref_s, failures, passes = [], [], Counter(), []
    ref_total = 0.0
    start = time.perf_counter()
    while True:
        results = {}
        for qid in qids:
            if tracer is not None:
                tracer.item = qid
            ref_before = ref.time() if ref is not None else 0.0
            ref_total += ref_before
            t0 = time.perf_counter()
            try:
                results[qid] = p.ranker.rerank(st["model"], st["queries"][qid], st["candidates"][qid], k=k, collection=st["collection"])
            except Exception as exc:  # a failed query is counted; the loop goes on
                failures[type(exc).__name__] += 1
            else:
                query_s.append(time.perf_counter() - t0)
                ref_s.append(ref_before)
        passes.append(results)
        if time.perf_counter() - start >= seconds:
            break
    run_path = st["dir"] / "rerank.run"
    p.evalkit.write_run(passes[0], run_path, tag=f"anchorrank-seed{st['cfg']['seed']}")
    report = p.evalkit.evaluate(p.evalkit.read_run(run_path), st["qrels"], ks=tuple(st["cfg"]["eval"]["ks"]))
    return {
        "wall_s": time.perf_counter() - start - ref_total,
        "attempted": len(qids) * len(passes),
        "failures": failures,
        "query_s": query_s,
        "op_s": query_s if ref is not None else [],
        "ref_s": ref_s if ref is not None else [],
        "passes": passes,
        "report": report,
        "artifacts": {"rerank.run": sha256(run_path)},
    }


TIMED = {"train": timed_train, "rerank": timed_rerank}


# ------------------------------------------------------------------ checks


def pair_invariants(pairs: list, checks: dict) -> dict:
    by_task = Counter(pair.task for pair in pairs)
    rqp = [pair for pair in pairs if pair.task == "rqp"]
    checks["rqp_negative_same_length"] = all(
        pair.neg_query_tokens is not None and len(pair.neg_query_tokens) == len(pair.query_tokens) for pair in rqp
    )
    return {t: by_task.get(t, 0) for t in ("rqp", "qdm", "rdp", "acm")}


def finetune_bce(p, model, examples, collection) -> float:
    total = 0.0
    for ex in examples:
        s = p.ranker.score(model, ex.query_text, collection[ex.doc_id])
        total += -(ex.label * math.log(s + 1e-12) + (1 - ex.label) * math.log(1.0 - s + 1e-12))
    return total / len(examples)


def check_train(p, st: dict, res: dict, checks: dict) -> dict:
    d = st["dir"]
    for name in ("pretrained.ckpt", "finetuned.ckpt"):
        checks[f"{name}_loads"] = p.encoder.load_checkpoint(d / name, expected_config=st["enc"]).config == st["enc"]
    checks["pairs_read_back"] = len(st["pairs"]) == st["pairs_written"] > 0
    counts = pair_invariants(st["pairs"], checks)
    res["finetune_loss"] = finetune_bce(p, res["model"], st["examples"], st["collection"])
    res["finetune_examples"] = len(st["examples"])
    checks["pretrain_loss_finite_and_lower"] = math.isfinite(res["pretrain_loss"]) and res["pretrain_loss"] < res["pretrain_first_loss"]
    # a constant score of 0.5 gives ln 2; training must do better
    checks["finetune_loss_below_ln2"] = math.isfinite(res["finetune_loss"]) and res["finetune_loss"] < math.log(2.0)
    checks["step_counts"] = len(res["pretrain_step_s"]) % PRETRAIN_STEPS == 0 and len(res["finetune_step_s"]) % FINETUNE_STEPS == 0
    return counts


def ranked_list_ok(ranked, candidates, k: int) -> bool:
    ids = [doc for doc, _ in ranked]
    scores = [s for _, s in ranked]
    cand = {doc for doc, _ in candidates}
    return (
        len(ids) == min(k, len(candidates))
        and len(set(ids)) == len(ids)
        and set(ids) <= cand
        and all(math.isfinite(s) and 0.0 < s < 1.0 for s in scores)
        and all(a >= b for a, b in zip(scores, scores[1:]))
    )


def check_rerank(p, st: dict, res: dict, checks: dict) -> dict:
    k = st["cfg"]["rerank"]["k"]
    first = res["passes"][0]
    checks["ranked_lists_valid"] = all(ranked_list_ok(first[q], st["candidates"][q], k) for q in first)
    checks["passes_identical"] = all(other == first for other in res["passes"][1:])
    checks["run_reads_back"] = set(p.evalkit.read_run(st["dir"] / "rerank.run")) == set(first)
    # queries longer than the pack budget, issued once outside the timed loop
    probe = Counter()
    for qid in st["overlong"]:
        try:
            ranked = p.ranker.rerank(st["model"], st["queries"][qid], st["candidates"][qid], k=k, collection=st["collection"])
        except Exception as exc:  # the probe records what the program does with them
            probe[type(exc).__name__] += 1
        else:
            probe["ok"] += 1
            checks.setdefault("overlong_lists_valid", True)
            checks["overlong_lists_valid"] &= ranked_list_ok(ranked, st["candidates"][qid], k)
    res["overlong_probe"] = {"attempted": len(st["overlong"]), "outcomes": dict(probe)}
    return {}


CHECKS = {"train": check_train, "rerank": check_rerank}


# ----------------------------------------------------------------- metrics


def stage_metrics(workload: str, res: dict) -> dict:
    """Every end-to-end metric of this workload under its own name."""
    if workload == "train":
        rates = [n / t for n, t in res["setup_build_pairs"]]
        return {
            "pairs_per_s": {"value": percentile(rates, 50), "unit": "1/s", "samples": len(rates)},
            "pretrain_seq_per_s": {"value": res["pretrain_seqs"] / res["pretrain_wall_s"], "unit": "1/s", "samples": len(res["pretrain_step_s"])},
            "finetune_seq_per_s": {"value": res["finetune_seqs"] / res["finetune_wall_s"], "unit": "1/s", "samples": len(res["finetune_step_s"])},
            **timing("pretrain_step_ms", "ms", [1000.0 * s for s in res["pretrain_step_s"]]),
            **timing("finetune_step_ms", "ms", [1000.0 * s for s in res["finetune_step_s"]]),
            "pretrain_loss": {"value": res["pretrain_loss"], "unit": "loss", "samples": LOSS_WINDOW},
            "finetune_loss": {"value": res["finetune_loss"], "unit": "loss", "samples": res["finetune_examples"]},
        }
    return {
        "queries_per_s": {"value": len(res["query_s"]) / res["wall_s"], "unit": "1/s", "samples": len(res["query_s"])},
        **timing("query_ms", "ms", [1000.0 * s for s in res["query_s"]]),
    }


def end_to_end(workload: str, res: dict, setup_s: float) -> tuple[dict, int]:
    """The workload-independent end-to-end metrics the last line reports,
    and the number of operations behind the percentiles.  Timings are in
    reference-kernel runs (reference.costs): an operation's cost is its
    time over the kernel's time next to it."""
    import reference

    if workload == "train":
        items = res["pretrain_seqs"] + res["finetune_seqs"]
    else:
        items = len(res["query_s"])
    ops = reference.costs(res["op_s"], res["ref_s"])
    if not ops:
        raise BenchError("no operation of the timed section succeeded")
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_kref": 1000.0 * items / sum(ops),
        "op_ref_p50": percentile(ops, 50),
        "op_ref_p90": percentile(ops, 90),
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}, len(ops)


# -------------------------------------------------------------------- main


def run_workload(args) -> int:
    import perlayer
    import selftest
    from tracer import Tracer

    p = load_program()
    import reference  # numpy only after load_program has pinned the BLAS threads

    imports_s = time.perf_counter() - T_START
    WORK.mkdir(exist_ok=True)
    ref = reference.Reference()
    env = environment(p, ref)
    originals = perlayer.current_objects(vars(p))
    cfg_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(cfg_dir, ignore_errors=True)
    cfg_dir.mkdir(parents=True)
    checks = {"tracer_self_time": selftest.self_time_ok()}
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    try:
        cfg = toy_config(p, args.seed, cfg_dir)
        setup, timed = SETUPS[args.workload], TIMED[args.workload]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.item = "setup"
            perlayer.install(tracer, vars(p))
            st = setup(p, cfg, cfg_dir / "setup0")
            tracer.uninstall()
            setup_shas = [{a: sha256(st["dir"] / a) for a in st["artifacts"]}]
            plain = timed(p, st, 0.0)
            perlayer.install(tracer, vars(p))
            res = timed(p, st, 0.0, tracer)
            tracer.uninstall()
            checks["traced_artifacts_equal_untraced"] = plain["artifacts"] == res["artifacts"]
        else:
            setup_times, setup_shas, build_pairs = [], [], []
            with reference.Sampler(ref) as sampler:
                for r in range(SETUP_REPEATS):
                    t0, paused = time.perf_counter(), sampler.paused
                    st = setup(p, cfg, cfg_dir / f"setup{r}")
                    setup_times.append(time.perf_counter() - t0 - (sampler.paused - paused))
                    setup_shas.append({a: sha256(st["dir"] / a) for a in st["artifacts"]})
                    if "build_pairs_s" in st:
                        build_pairs.append((st["pairs_written"], st["build_pairs_s"]))
            setup_measured_s = imports_s + percentile(setup_times, 50)
            kernel_ms = percentile(sampler.samples_ms, 50)
            setup_s = reference.at_nominal(setup_measured_s, kernel_ms)
            report["setup"] = {"imports_s": imports_s, "repeats_s": setup_times, "kernel_ms_p50": kernel_ms, "kernel_samples": len(sampler.samples_ms)}
            res = timed(p, st, args.seconds, ref=ref)
            res["setup_build_pairs"] = build_pairs
        checks["setup_repeats_bitwise"] = all(s == setup_shas[0] for s in setup_shas)
        counts = CHECKS[args.workload](p, st, res, checks)
        checks["wrapped_attributes_restored"] = all(vars(o)[a] is f for o, a, f in originals)
        failures = res["failures"]
        report.update(
            {
                "pairs_by_task": counts,
                "artifacts_sha256": {**setup_shas[-1], **res["artifacts"]},
                "failures": {"attempted": res["attempted"], "failed": sum(failures.values()), "by_class": dict(failures)},
                "checks": checks,
            }
        )
        for key in ("overlong_probe", "report"):
            if key in res:
                report[key] = res[key]
        if args.trace:
            losses = {"pretrain": res.get("pretrain_loss", 0.0), "finetune": res.get("finetune_loss", 0.0)}
            metrics = perlayer.per_layer_metrics(tracer.spans, res.get("step_ends", {}), losses)
            metrics["trace.timed_s_untraced"] = plain["wall_s"]
            metrics["trace.timed_s_traced"] = res["wall_s"]
            metrics["trace.overhead_pct"] = 100.0 * (res["wall_s"] - plain["wall_s"]) / plain["wall_s"]
            units = dict(perlayer.metric_names())
            out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name, _ in perlayer.metric_names()}
            spans_path = WORK / f"spans-{args.workload}-s{args.seed}.jsonl.gz"
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            out_metrics, n_ops = end_to_end(args.workload, res, setup_s)
            report["stage_metrics"] = {
                "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
                "setup_measured_s": {"value": setup_measured_s, "unit": "s", "samples": SETUP_REPEATS},
                "peak_rss_mb": out_metrics["peak_rss_mb"],
                "failed_ratio": {"value": report["failures"]["failed"] / max(res["attempted"], 1), "unit": "ratio", "samples": res["attempted"]},
                **stage_metrics(args.workload, res),
                "reference_ms_p50": {"value": 1000.0 * percentile(res["ref_s"], 50), "unit": "ms", "samples": len(res["ref_s"])},
            }
            report["end_to_end_samples"] = n_ops
    finally:
        shutil.rmtree(cfg_dir, ignore_errors=True)

    report["metrics"] = out_metrics
    env["reference_ms_end"] = ref.median_ms()
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(report, indent=2, default=str))
    print_report(report)
    correct = all(bool(v) for v in checks.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["failures"]["attempted"],
                "failed": report["failures"]["failed"],
                "metrics": out_metrics,
            }
        )
    )
    return 0


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}")
    print(
        f"environment nproc={env['nproc']} affinity={env['affinity']} blas={env['blas_threads']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} loadavg={env['loadavg_start']} "
        f"reference_ms={env['reference_ms_start']:.1f}/{env['reference_ms_end']:.1f}"
    )
    for name, m in report.get("stage_metrics", report["metrics"]).items():
        samples = f"samples={m['samples']}" if "samples" in m else ""
        print(f"  {name:<40} {m['value']:>16.4f} {m['unit']:<8} {samples}")
    f = report["failures"]
    print(f"operations attempted={f['attempted']} failed={f['failed']} by_class={f['by_class']}")
    if "overlong_probe" in report:
        print(f"over-long query probe: {report['overlong_probe']}")
    if report.get("pairs_by_task"):
        print(f"pairs by task: {report['pairs_by_task']}")
    for name, digest in sorted(report["artifacts_sha256"].items()):
        print(f"sha256 {name} {digest}")
    failed_checks = [name for name, ok in report["checks"].items() if not ok]
    print(f"checks: {len(report['checks']) - len(failed_checks)} passed, failed: {failed_checks or 'none'}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{workload}.{name}": m for name, m in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
