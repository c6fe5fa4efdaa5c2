import math

import numpy as np
import pytest

from anchorrank.evalkit import (
    evaluate,
    format_report,
    mrr_at_k,
    ndcg_at_k,
    read_qrels,
    read_run,
    write_qrels,
    write_run,
)


def brute_mrr(run, qrels, k):
    """Independent oracle: literal scan, no shared helpers."""
    values = []
    for qid in run:
        rr = 0.0
        for idx in range(len(run[qid])):
            if idx + 1 > k:
                break
            doc = run[qid][idx][0]
            if qrels.get(qid, {}).get(doc, 0) > 0:
                rr = 1.0 / (idx + 1)
                break
        values.append(rr)
    return sum(values) / len(values)


def brute_ndcg(run, qrels, k):
    values = []
    for qid in run:
        judged = qrels.get(qid, {})
        dcg = 0.0
        for idx, (doc, _) in enumerate(run[qid][:k]):
            dcg += (2 ** judged.get(doc, 0) - 1) / math.log2(idx + 2)
        ideal = sorted(judged.values(), reverse=True)[:k]
        idcg = sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
        values.append(dcg / idcg if idcg > 0 else 0.0)
    return sum(values) / len(values)


class TestMRR:
    def test_first_relevant_at_rank_four(self):
        run = {"q1": [(f"d{i}", 1.0 - i / 10) for i in range(10)]}
        qrels = {"q1": {"d3": 1}}
        assert mrr_at_k(run, qrels, 10) == pytest.approx(0.25)

    def test_relevant_beyond_cutoff(self):
        run = {"q1": [(f"d{i}", 1.0 - i / 20) for i in range(15)]}
        qrels = {"q1": {"d11": 2}}
        assert mrr_at_k(run, qrels, 10) == 0.0

    def test_query_missing_from_qrels_contributes_zero(self):
        run = {"q1": [("d0", 1.0)], "q2": [("d0", 1.0)]}
        qrels = {"q1": {"d0": 1}}
        assert mrr_at_k(run, qrels, 10) == pytest.approx(0.5)


class TestNDCG:
    def test_worked_example(self):
        run = {"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]}
        qrels = {"q": {"a": 3, "c": 2, "x": 0}}
        dcg = 7.0 / math.log2(2) + 0.0 + 3.0 / math.log2(4)
        idcg = 7.0 + 3.0 / math.log2(3)
        expected = dcg / idcg
        got = ndcg_at_k(run, qrels, 10)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9558, abs=1e-4)

    def test_perfect_ordering_is_one(self):
        run = {"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]}
        qrels = {"q": {"a": 3, "b": 2, "c": 1}}
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_grades(self):
        run = {"q": [("a", 1.0), ("b", 0.5)]}
        qrels = {"q": {"a": 0, "b": 0}}
        assert ndcg_at_k(run, qrels, 10) == 0.0

    def test_monotone_under_upward_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            docs = [f"d{i}" for i in range(n)]
            qrels = {"q": {d: int(rng.integers(0, 4)) for d in docs}}
            order = list(rng.permutation(n))
            run = {"q": [(docs[i], float(n - r)) for r, i in enumerate(order)]}
            base_m = mrr_at_k(run, qrels, 10)
            base_n = ndcg_at_k(run, qrels, 10)
            # swap a relevant doc above a strictly less relevant one
            for pos in range(1, n):
                below, above = qrels["q"][run["q"][pos][0]], qrels["q"][run["q"][pos - 1][0]]
                if below >= 1 and below > above:
                    swapped = list(run["q"])
                    swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
                    run2 = {"q": swapped}
                    assert mrr_at_k(run2, qrels, 10) >= base_m - 1e-12
                    assert ndcg_at_k(run2, qrels, 10) >= base_n - 1e-12
                    break


class TestOracleEquivalence:
    def test_fuzzed_instances_match_brute_force(self):
        rng = np.random.default_rng(42)
        for case in range(100):
            n_queries = int(rng.integers(1, 6))
            run = {}
            qrels = {}
            for q in range(n_queries):
                qid = f"q{case}_{q}"
                n_docs = int(rng.integers(1, 21))
                docs = [f"d{i}" for i in range(n_docs)]
                scores = sorted(rng.random(n_docs).tolist(), reverse=True)
                run[qid] = list(zip(docs, scores))
                if rng.random() < 0.9:  # sometimes leave a query unjudged
                    qrels[qid] = {d: int(rng.integers(0, 4)) for d in docs if rng.random() < 0.7}
            k = int(rng.integers(1, 25))
            assert mrr_at_k(run, qrels, k) == pytest.approx(brute_mrr(run, qrels, k), abs=1e-9)
            assert ndcg_at_k(run, qrels, k) == pytest.approx(brute_ndcg(run, qrels, k), abs=1e-9)

    def test_score_values_do_not_matter(self):
        run1 = {"q": [("a", 9.0), ("b", 5.0)]}
        run2 = {"q": [("a", 0.2), ("b", 0.1)]}
        qrels = {"q": {"b": 2}}
        for k in (1, 2, 10):
            assert mrr_at_k(run1, qrels, k) == mrr_at_k(run2, qrels, k)
            assert ndcg_at_k(run1, qrels, k) == ndcg_at_k(run2, qrels, k)


class TestFiles:
    def test_run_line_schema(self, tmp_path):
        path = tmp_path / "x.run"
        path.write_text("q1 Q0 d7 1 3.25 toyrun\n")
        run = read_run(path)
        assert run == {"q1": [("d7", 3.25)]}

    def test_run_round_trip(self, tmp_path):
        run = {"q1": [("d7", 3.25), ("d2", 1.5)], "q2": [("d9", 0.125)]}
        path = tmp_path / "x.run"
        write_run(run, path, tag="toyrun")
        assert read_run(path) == run
        # canonical file is byte-stable through a second cycle
        path2 = tmp_path / "y.run"
        write_run(read_run(path), path2, tag="toyrun")
        assert path.read_text() == path2.read_text()

    def test_qrels_schema_and_round_trip(self, tmp_path):
        path = tmp_path / "x.qrels"
        path.write_text("q1 0 d7 2\nq1 0 d8 0\n")
        qrels = read_qrels(path)
        assert qrels == {"q1": {"d7": 2, "d8": 0}}
        out = tmp_path / "y.qrels"
        write_qrels(qrels, out)
        assert read_qrels(out) == qrels

    def test_malformed_run_line_numbered(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d7 1 3.25 tag\nq1 Q0 d8 nope 1.0 tag\n")
        with pytest.raises(ValueError, match="line 2"):
            read_run(path)

    def test_non_contiguous_ranks_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d7 1 3.0 t\nq1 Q0 d8 3 2.0 t\n")
        with pytest.raises(ValueError, match="line 2: query 'q1': ranks are not contiguous from 1") as info:
            read_run(path)
        assert str(path) in str(info.value)

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d7 2 3.0 t\nq2 Q0 d1 1 1.0 t\nq1 Q0 d7 1 2.0 t\n")
        with pytest.raises(ValueError, match="line 1: query 'q1': duplicate document 'd7'") as info:
            read_run(path)
        assert str(path) in str(info.value)

    def test_duplicate_judgment_rejected(self, tmp_path):
        # a second grade for the same pair would silently replace the first
        path = tmp_path / "bad.qrels"
        path.write_text("q1 0 d1 2\nq2 0 d1 1\nq1 0 d1 0\n")
        with pytest.raises(ValueError, match="line 3: duplicate judgment for query 'q1', document 'd1'") as info:
            read_qrels(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("metric", [mrr_at_k, ndcg_at_k])
@pytest.mark.parametrize("k", [0, -1])
def test_cutoff_below_one_rejected(metric, k):
    # run[qid][:-1] would quietly drop the last document instead
    run = {"q": [("a", 1.0), ("b", 0.9)]}
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        metric(run, {"q": {"b": 1}}, k)


def test_evaluate_and_report():
    run = {"q": [("a", 1.0), ("b", 0.9)]}
    qrels = {"q": {"a": 2}}
    report = evaluate(run, qrels, ks=(10, 100))
    assert set(report) == {"MRR@10", "MRR@100", "nDCG@10", "nDCG@100"}
    assert report["MRR@10"] == 1.0
    text = format_report(report)
    assert "MRR@10" in text and "1.0000" in text
