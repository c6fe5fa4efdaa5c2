"""Acceptance suite: every criterion runs at its stated tolerance and
prints one [acceptance] PASS/FAIL line.  Run with `pytest
tests/test_acceptance.py -v -s` to watch the lines stream."""

import math
import time

import numpy as np
import pytest

from anchorrank.corpus import build_vocab, clean_corpus, page_summary
from anchorrank.encoder import EncoderConfig, init_params, zero_grads
from anchorrank.evalkit import mrr_at_k, ndcg_at_k
from anchorrank.pretrain import (
    TrainConfig,
    hinge_loss,
    joint_step,
    mlm_warmup,
    pairwise_accuracy,
    summary_lookup,
    train,
)
from anchorrank.ranker import (
    FinetuneConfig,
    RankerModel,
    collection_from_corpus,
    examples_from_candidates,
    finetune,
    rerank,
)
from anchorrank.sampler import (
    AttentionSampler,
    TermDistribution,
    default_stopwords,
    normalize,
    poisson_length,
    sample_word_set,
)
from anchorrank.synth import SynthConfig, build_retrieval_split, build_synthetic_corpus
from anchorrank.taskgen import PairGenerator, TaskGenConfig
from test_evalkit import brute_mrr, brute_ndcg
from util import (
    as_dtype,
    encode,
    finite_difference_grads,
    joint_loss,
    joint_loss_gradients,
    max_relative_error,
    mlm_loss,
)

SEED = 7
PER_TASK_CAP = {"rdp": 100, "acm": 200}


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def world():
    """The 200-page synthetic world: cleaned corpus, vocab, warmed sampler,
    and the capped mixed pairs file content."""
    t0 = time.monotonic()
    scfg = SynthConfig(
        pages=200, topics=8, train_queries=100, eval_queries=50, candidates_per_query=10, seed=SEED
    )
    corpus_raw, metas = build_synthetic_corpus(scfg)
    corpus = clean_corpus(corpus_raw, min_words=100)
    vocab = build_vocab(corpus, max_size=1000)
    enc = EncoderConfig(layers=2, heads=4, hidden=64, ffn_dim=256, vocab_size=len(vocab), max_len=48)
    warm_cfg = TrainConfig(
        lr=1e-3, epochs=2, batch_size=8, seed=SEED, max_len=48, summary_max_tokens=32,
        max_steps=150, log_every=10**9,
    )
    sampler_params = mlm_warmup(corpus, enc, warm_cfg, vocab)
    sampler = AttentionSampler(sampler_params, enc, vocab, stopwords=default_stopwords())
    gen_cfg = TaskGenConfig(lam=3.0, summary_max_tokens=32, per_task_cap=PER_TASK_CAP, seed=SEED)
    pairs = PairGenerator(corpus, sampler, gen_cfg).generate()
    train_split, eval_split = build_retrieval_split(scfg, metas)
    return {
        "scfg": scfg,
        "corpus": corpus,
        "vocab": vocab,
        "enc": enc,
        "sampler": sampler,
        "gen_cfg": gen_cfg,
        "pairs": pairs,
        "train_split": train_split,
        "eval_split": eval_split,
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def pretrained(world):
    """Joint pre-training on 90% of the pairs, 10% held out."""
    t0 = time.monotonic()
    pairs = world["pairs"]
    held = pairs[9::10]
    train_pairs = [p for i, p in enumerate(pairs) if i % 10 != 9]
    tcfg = TrainConfig(
        lr=1e-3, epochs=10, batch_size=8, seed=SEED, max_len=48, summary_max_tokens=32,
        max_steps=800, log_every=10**9,
    )
    params, logs = train(train_pairs, world["corpus"], world["enc"], tcfg, world["vocab"])
    accuracy = pairwise_accuracy(held, params, world["enc"], world["vocab"], world["corpus"], tcfg)
    return {
        "params": params,
        "tcfg": tcfg,
        "held": held,
        "accuracy": accuracy,
        "steps": 800,
        "elapsed": time.monotonic() - t0,
    }


class TestCriterion1GradientFidelity:
    def test_gradient_check_joint_loss(self):
        t0 = time.monotonic()
        cfg = EncoderConfig(layers=1, heads=2, hidden=16, ffn_dim=32, vocab_size=23, max_len=12)
        params = as_dtype(init_params(cfg, seed=3), np.float64)
        rng = np.random.default_rng(1)
        pos_ids = np.concatenate(([2], rng.integers(5, cfg.vocab_size, 7), [3]))
        pos_segs = np.array([0] * 5 + [1] * 4)
        neg_ids = np.concatenate(([2], rng.integers(5, cfg.vocab_size, 6), [3]))
        neg_segs = np.array([0] * 4 + [1] * 4)
        mask_positions = [1, 4, 6]
        mask_labels = [9, 11, 4]

        analytic, _ = joint_loss_gradients(
            params, cfg, pos_ids, pos_segs, neg_ids, neg_segs, mask_positions, mask_labels
        )
        numeric = finite_difference_grads(
            lambda: joint_loss(params, cfg, pos_ids, pos_segs, neg_ids, neg_segs, mask_positions, mask_labels),
            params,
            eps=1e-4,
        )
        err = max_relative_error(analytic, numeric)
        elapsed = time.monotonic() - t0
        report(1, err <= 1e-3 and elapsed < 60.0, f"max relative error {err:.2e}, runtime {elapsed:.1f}s")


class TestCriterion2Invariants:
    def test_attention_rows_and_distributions(self):
        cfg = EncoderConfig(layers=2, heads=2, hidden=32, ffn_dim=64, vocab_size=60, max_len=16)
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(9)
        worst_row = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, cfg.max_len + 1))
            ids = rng.integers(0, cfg.vocab_size, size=n)
            _, attn = encode(params, cfg, ids)
            assert np.all(attn >= 0.0) and np.all(attn <= 1.0 + 1e-12)
            worst_row = max(worst_row, float(np.abs(attn.sum(axis=-1) - 1.0).max()))

        worst_dist = 0.0
        for _ in range(1000):
            n_terms = int(rng.integers(2, 30))
            beta = {f"w{i}": float(rng.normal(scale=3.0)) for i in range(n_terms)}
            excluded = {f"w{i}" for i in range(n_terms) if rng.random() < 0.3}
            if len(excluded) >= n_terms:
                excluded.pop()
            dist = normalize(beta, exclusions=excluded)
            worst_dist = max(worst_dist, abs(float(dist.probs.sum()) - 1.0))
            assert all(dist.prob_of(t) == 0.0 for t in excluded)
        ok = worst_row <= 1e-6 and worst_dist <= 1e-9
        report(2, ok, f"worst attention row error {worst_row:.2e}, worst distribution error {worst_dist:.2e}")


class TestCriterion3SamplingOracle:
    def test_first_draw_frequencies_and_poisson(self):
        probs = {"a": 0.42, "b": 0.3, "c": 0.15, "d": 0.08, "e": 0.05}
        dist = TermDistribution(terms=list(probs), probs=np.array(list(probs.values())))
        rng = np.random.default_rng(11)
        trials = 100_000
        counts = {t: 0 for t in probs}
        for _ in range(trials):
            ws = sample_word_set(dist, 1, rng=rng)
            counts[ws[0]] += 1
        worst = max(abs(counts[t] / trials - p) for t, p in probs.items())

        lam = 3.0
        draws = np.array([poisson_length(lam, rng) for _ in range(trials)])
        expected = lam / (1.0 - math.exp(-lam))
        rel = abs(draws.mean() - expected) / expected
        ok = worst <= 0.01 and rel <= 0.01 and draws.min() >= 1
        report(
            3,
            ok,
            f"worst first-draw frequency error {worst:.4f}, truncated-Poisson mean {draws.mean():.4f} "
            f"vs {expected:.4f} (rel {rel:.4f})",
        )


class TestCriterion4PairInvariants:
    def test_all_pairs_satisfy_task_invariants(self, world):
        from anchorrank.corpus import anchor_occurrence_index

        corpus = world["corpus"]
        pairs = world["pairs"]
        index = anchor_occurrence_index(corpus)
        counts = {"rqp": 0, "qdm": 0, "rdp": 0, "acm": 0}
        violations = []
        for p in pairs:
            counts[p.task] += 1
            if p.task == "rqp":
                anchor = p.provenance["anchor"]
                if p.query_tokens[0] != anchor:
                    violations.append((p.seed_path, "anchor not head of query"))
                if p.pos_doc_id != p.neg_doc_id:
                    violations.append((p.seed_path, "rqp must target a single document"))
                if len(p.neg_query_tokens) != len(p.query_tokens):
                    violations.append((p.seed_path, "unequal word-set lengths"))
                anchor_terms = set(anchor.split())
                neg_terms = {t for el in p.neg_query_tokens for t in el.split()}
                if anchor_terms & neg_terms:
                    violations.append((p.seed_path, "anchor terms leaked into negative query"))
                if p.provenance["page_id"] == p.pos_doc_id:
                    violations.append((p.seed_path, "self-link"))
            elif p.task == "qdm":
                surface = p.provenance["surface"]
                targets = {
                    o.target_id for o in index.get(surface, []) if o.target_id != o.page_id
                }
                if p.pos_doc_id == p.neg_doc_id:
                    violations.append((p.seed_path, "identical pos/neg"))
                if p.pos_doc_id not in targets or p.neg_doc_id not in targets:
                    violations.append((p.seed_path, "pos/neg not destinations of the surface"))
            elif p.task == "rdp":
                if p.provenance["pos_importance"] < p.provenance["neg_importance"]:
                    violations.append((p.seed_path, "importance ordering violated"))
                if p.pos_doc_id == p.neg_doc_id:
                    violations.append((p.seed_path, "identical pos/neg"))
                if p.provenance["page_id"] in (p.pos_doc_id, p.neg_doc_id):
                    violations.append((p.seed_path, "self-link"))
            elif p.task == "acm":
                sent = corpus.pages[p.provenance["page_id"]].sentences[p.provenance["sentence_index"]]
                first_target = next(
                    a.target_id for a in sent.anchors if a.normalized_surface() == p.provenance["query_anchor"]
                )
                if p.neg_doc_id in (p.pos_doc_id, first_target):
                    violations.append((p.seed_path, "negative among the anchor pages"))
                if p.query_tokens[0] != p.provenance["query_anchor"]:
                    violations.append((p.seed_path, "query anchor not head"))
                if first_target == p.provenance["page_id"] or p.pos_doc_id == p.provenance["page_id"]:
                    violations.append((p.seed_path, "self-link"))
        assert all(counts[t] > 0 for t in counts), f"missing tasks in the mix: {counts}"
        ok_invariants = not violations
        detail = f"{len(pairs)} pairs ({counts}), violations: {violations[:3] if violations else 'none'}"
        assert ok_invariants, detail

        # bitwise reproducibility of the pairs file under the same seed
        import json as _json

        from anchorrank.taskgen import pair_to_record

        regenerated = PairGenerator(world["corpus"], world["sampler"], world["gen_cfg"]).generate()
        blob1 = "\n".join(_json.dumps(pair_to_record(p), ensure_ascii=False) for p in pairs)
        blob2 = "\n".join(_json.dumps(pair_to_record(p), ensure_ascii=False) for p in regenerated)
        ok_bitwise = blob1 == blob2
        report(4, ok_invariants and ok_bitwise, detail + f"; bitwise reproducible: {ok_bitwise}")


class TestCriterion5LossIdentities:
    def test_hinge_mlm_and_joint_sum(self, world):
        rng = np.random.default_rng(3)
        worst_hinge = 0.0
        for _ in range(2000):
            p, q = rng.normal(scale=4.0, size=2)
            worst_hinge = max(worst_hinge, abs(hinge_loss(p, q) - max(0.0, 1.0 - p + q)))

        vocab_n = 137
        logits = np.zeros((5, vocab_n))
        labels = [(i, i + 5) for i in range(5)]
        mlm_err = abs(mlm_loss(logits, labels) - math.log(vocab_n))

        # Eq-16-style literal sum on a real mixed batch
        corpus, vocab, enc = world["corpus"], world["vocab"], world["enc"]
        by_task = {}
        for p in world["pairs"]:
            by_task.setdefault(p.task, []).append(p)
        batch = [by_task[t][i] for t in sorted(by_task) for i in range(min(3, len(by_task[t])))]
        params = init_params(enc, seed=2)
        tcfg = TrainConfig(lr=1e-4, epochs=1, batch_size=len(batch), seed=0, max_len=48, summary_max_tokens=32)
        metrics = joint_step(
            batch, params, enc, vocab, summary_lookup(corpus, 32), tcfg, zero_grads(params),
            np.random.default_rng(0),
        )
        sum_err = abs(metrics["total"] - sum(metrics["components"].values()))
        ok = worst_hinge == 0.0 and mlm_err <= 1e-9 and sum_err <= 1e-9
        report(
            5,
            ok,
            f"hinge exact (worst {worst_hinge:.1e}), uniform-MLM error {mlm_err:.1e}, "
            f"joint-sum error {sum_err:.1e}",
        )


class TestCriterion6EndToEnd:
    def test_toy_experiment(self, world, pretrained):
        t0 = time.monotonic()
        corpus, vocab, enc = world["corpus"], world["vocab"], world["enc"]
        accuracy = pretrained["accuracy"]

        ev = world["eval_split"]
        queries, qrels, cands = ev["queries"], ev["qrels"], ev["candidates"]
        assert len(queries) == 50
        collection = collection_from_corpus(corpus)
        examples = examples_from_candidates(queries, cands, qrels)
        model = RankerModel(params=pretrained["params"], config=enc, vocab=vocab)
        fcfg = FinetuneConfig(lr=5e-4, epochs=25, warmup=0.1, batch_size=8, seed=SEED, max_len=48, log_every=10**9)
        tuned = finetune(model, examples, collection, fcfg)

        def mrr_of(m):
            run = {qid: rerank(m, queries[qid], cands[qid], 10, collection) for qid in sorted(cands)}
            return mrr_at_k(run, qrels, 10)

        untrained = RankerModel(params=init_params(enc, seed=SEED + 1), config=enc, vocab=vocab)
        baseline = mrr_of(untrained)
        tuned_mrr = mrr_of(tuned)
        total_runtime = world["elapsed"] + pretrained["elapsed"] + (time.monotonic() - t0)
        ok = (
            accuracy >= 0.90
            and pretrained["steps"] <= 2000
            and tuned_mrr >= 0.9
            and baseline <= 0.55
            and total_runtime < 900.0
        )
        report(
            6,
            ok,
            f"held-out pairwise accuracy {accuracy:.4f} after {pretrained['steps']} steps, "
            f"fine-tuned MRR@10 {tuned_mrr:.4f} vs untrained {baseline:.4f}, runtime {total_runtime:.0f}s",
        )


class TestCriterion7AblationHarness:
    def run_variant(self, world, weights, seed):
        """One reduced-budget pipeline leg: pretrain with the given task
        weights, fine-tune on the 50 toy queries, rerank their candidates."""
        tcfg = TrainConfig(
            lr=1e-3, epochs=10, batch_size=8, seed=seed, max_len=48, summary_max_tokens=32,
            max_steps=500, log_every=10**9, task_weights=dict(weights),
        )
        params, _ = train(world["pairs"], world["corpus"], world["enc"], tcfg, world["vocab"])
        split = world["eval_split"]
        collection = collection_from_corpus(world["corpus"])
        examples = examples_from_candidates(split["queries"], split["candidates"], split["qrels"])
        model = RankerModel(params=params, config=world["enc"], vocab=world["vocab"])
        fcfg = FinetuneConfig(lr=5e-4, epochs=12, warmup=0.1, batch_size=8, seed=seed, max_len=48, log_every=10**9)
        tuned = finetune(model, examples, collection, fcfg)
        run = {
            qid: rerank(tuned, split["queries"][qid], split["candidates"][qid], 10, collection)
            for qid in sorted(split["candidates"])
        }
        return mrr_at_k(run, split["qrels"], 10)

    def test_single_component_disabling_runs(self, world):
        base = {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0}
        slice_pairs = world["pairs"][:160]
        for disabled in base:
            weights = dict(base)
            weights[disabled] = 0.0
            tcfg = TrainConfig(
                lr=1e-3, epochs=1, batch_size=8, seed=1, max_len=48, summary_max_tokens=32,
                max_steps=20, log_every=1, task_weights=weights,
            )
            _, logs = train(slice_pairs, world["corpus"], world["enc"], tcfg, world["vocab"])
            assert logs, f"no metrics logged with {disabled} disabled"
            components = logs[-1]["components"]
            assert set(components) == {"rqp", "qdm", "rdp", "acm", "mlm"}
            assert all(math.isfinite(v) for v in components.values())

    def test_removing_rqp_does_not_beat_full(self, world):
        full_weights = {"rqp": 1.0, "qdm": 1.0, "rdp": 1.0, "acm": 1.0, "mlm": 1.0}
        no_rqp = dict(full_weights, rqp=0.0)
        seeds = (8, 9, 10)
        full = [self.run_variant(world, full_weights, s) for s in seeds]
        ablated = [self.run_variant(world, no_rqp, s) for s in seeds]
        gain = float(np.mean(ablated) - np.mean(full))
        ok = gain <= 0.02
        report(
            7,
            ok,
            f"toy MRR@10 full {np.mean(full):.4f} vs without-RQP {np.mean(ablated):.4f} over seeds "
            f"{seeds} (gain {gain:+.4f} <= 0.02); all five single-component ablations ran",
        )


class TestCriterion8MetricOracle:
    def test_fuzz_and_worked_example(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for case in range(100):
            run, qrels = {}, {}
            for q in range(int(rng.integers(1, 5))):
                qid = f"q{case}_{q}"
                n_docs = int(rng.integers(1, 21))
                docs = [f"d{i}" for i in range(n_docs)]
                scores = sorted(rng.random(n_docs).tolist(), reverse=True)
                run[qid] = list(zip(docs, scores))
                if rng.random() < 0.9:
                    qrels[qid] = {d: int(rng.integers(0, 4)) for d in docs if rng.random() < 0.7}
            k = int(rng.integers(1, 25))
            worst = max(worst, abs(mrr_at_k(run, qrels, k) - brute_mrr(run, qrels, k)))
            worst = max(worst, abs(ndcg_at_k(run, qrels, k) - brute_ndcg(run, qrels, k)))

        run = {"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]}
        qrels = {"q": {"a": 3, "c": 2, "x": 0}}
        expected = (7.0 / math.log2(2) + 3.0 / math.log2(4)) / (7.0 + 3.0 / math.log2(3))
        got = ndcg_at_k(run, qrels, 10)
        example_err = abs(got - expected)
        ok = worst <= 1e-9 and example_err <= 1e-12 and abs(got - 0.9558) < 1e-4
        report(
            8,
            ok,
            f"max oracle deviation {worst:.1e} over 100 fuzzed instances; worked example "
            f"nDCG {got:.6f} (expected {expected:.6f})",
        )


class TestScaleSanity:
    """Loose sanity checks on the scale of the generated data."""

    def test_summary_lengths_in_the_tens(self, world):
        lengths = [len(page_summary(p, 512)) for p in world["corpus"].iter_pages()]
        mean = float(np.mean(lengths))
        assert 10.0 <= mean <= 120.0

    def test_rqp_query_length_tracks_lambda(self, world):
        lengths = [len(p.query_tokens) for p in world["pairs"] if p.task == "rqp"]
        mean = float(np.mean(lengths))
        # anchor + zero-truncated Poisson(3) draws, shortened by small supports
        assert 2.0 <= mean <= 4.8

    def test_rdp_queries_are_long(self, world):
        rdp = [len(p.query_tokens) for p in world["pairs"] if p.task == "rdp"]
        rqp = [len(p.query_tokens) for p in world["pairs"] if p.task == "rqp"]
        assert np.mean(rdp) > 8.0
        assert np.mean(rdp) > np.mean(rqp)
