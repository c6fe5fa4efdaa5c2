"""Which program functions the traced run wraps, and how the per-layer
metrics are derived from the spans they record.

Every function is wrapped at the name it is looked up by: a function that a
module imported by name (`from anchorrank.encoder import adam_step`) is
wrapped in that module, and methods are wrapped on their class.  Several
bindings of one function share a span name.
"""

from __future__ import annotations

import os

from tracer import COUNTS, END, NAME, START, ancestors, self_times

LAYER_FUNCTIONS = (
    "layer_norm",
    "layer_norm_backward",
    "linear",
    "linear_backward",
    "gelu",
    "gelu_backward",
    "softmax",
    "softmax_backward",
)
TASKS = ("rqp", "qdm", "rdp", "acm")
SAMPLER_METHODS = ("anchor_term_distribution", "cls_term_distribution", "anchor_cls_attention")
STEP_PARTS = ("pack", "forward", "backward", "optimizer", "other")


def _forward_counts(args, kwargs, result):
    graph = args[0]
    key = (graph.token_ids.tobytes(), graph.segment_ids.tobytes())
    return {"tokens": int(graph.token_ids.size), "key": hash(key)}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _pair_made(args, kwargs, result):
    return {"pairs": int(result is not None)}


def _hinge_active(args, kwargs, result):
    return {"active": int(result > 0.0)}


def _doc_key(args, kwargs, result):
    return {"key": hash(args[0].id)}


def _seed_path(args, kwargs):
    return kwargs.get("seed_path", "")


def wrap_targets(modules: dict) -> list[tuple]:
    """(owner, attribute, span name, count, item) for every wrapped function.

    `modules` maps short names to the imported anchorrank modules and
    classes; see run.load_program().
    """
    m = modules
    targets = [
        (m["synth"], "synth_dataset", "synth.synth_dataset", None, None),
        (m["corpus"], "read_corpus", "corpus.read_corpus", None, None),
        (m["corpus"], "clean_corpus", "corpus.clean_corpus", None, None),
        (m["corpus"], "build_vocab", "corpus.build_vocab", None, None),
        (m["taskgen"], "anchor_occurrence_index", "corpus.anchor_occurrence_index", None, None),
        (m["ranker"], "tokenize", "corpus.tokenize", None, None),
        (m["EncoderGraph"], "__init__", "encoder.forward", _forward_counts, None),
        (m["EncoderGraph"], "backward", "encoder.backward", None, None),
        (m["EncoderGraph"], "cls_score", "encoder.cls_score", None, None),
        (m["EncoderGraph"], "mlm_logits", "encoder.mlm_logits", None, None),
        (m["encoder"], "save_checkpoint", "encoder.checkpoint.save", _saved_bytes, None),
        (m["encoder"], "load_checkpoint", "encoder.checkpoint.load", None, None),
        (m["pretrain"], "save_checkpoint", "encoder.checkpoint.save", _saved_bytes, None),
        (m["ranker"], "save_checkpoint", "encoder.checkpoint.save", _saved_bytes, None),
        (m["ranker"], "load_checkpoint", "encoder.checkpoint.load", None, None),
        (m["pretrain"], "adam_step", "encoder.adam_step", None, None),
        (m["ranker"], "adam_step", "encoder.adam_step", None, None),
        (m["pretrain"], "zero_grads", "encoder.zero_grads", None, None),
        (m["ranker"], "zero_grads", "encoder.zero_grads", None, None),
        (m["pretrain"], "pack_input", "pretrain.pack_input", None, None),
        (m["ranker"], "pack_input", "pretrain.pack_input", None, None),
        (m["pretrain"], "mask_tokens", "pretrain.mask_tokens", None, None),
        (m["pretrain"], "hinge_loss", "pretrain.hinge_loss", _hinge_active, None),
        (m["pretrain"], "train", "pretrain.train", None, None),
        (m["pretrain"], "mlm_warmup", "pretrain.mlm_warmup", None, None),
        (m["taskgen"], "sample_word_set", "sampler.sample_word_set", None, None),
        (m["taskgen"], "write_pairs", "taskgen.write_pairs", None, None),
        (m["PairGenerator"], "generate", "taskgen.generate", None, None),
        (m["ranker"], "score_tokens", "ranker.score_tokens", None, None),
        (m["ranker"], "document_text", "ranker.document_text", _doc_key, None),
        (m["ranker"], "finetune", "ranker.finetune", None, None),
        (m["ranker"], "load_model", "ranker.load_model", None, None),
        (m["ranker"], "read_collection", "ranker.read_collection", None, None),
        (m["ranker"], "rerank", "ranker.rerank", None, None),
        (m["evalkit"], "evaluate", "evalkit.evaluate", None, None),
        (m["evalkit"], "write_run", "evalkit.write_run", None, None),
    ]
    targets += [(m["layers"], f, f"encoder.layers.{f}", None, None) for f in LAYER_FUNCTIONS]
    targets += [(m["AttentionSampler"], f, f"sampler.{f}", None, None) for f in SAMPLER_METHODS]
    targets += [(m["taskgen"], f"build_{t}_pair", f"taskgen.{t}", _pair_made, _seed_path) for t in TASKS]
    return targets


def install(tracer, modules: dict) -> None:
    for owner, attr, name, count, item in wrap_targets(modules):
        tracer.wrap(owner, attr, name, count=count, item=item)


def current_objects(modules: dict) -> list[tuple]:
    """(owner, attribute, object) now bound at every wrap target."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in wrap_targets(modules)]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("encoder.forward.calls", "count"),
        ("encoder.forward.ms", "ms"),
        ("encoder.forward.tokens", "count"),
        ("encoder.forward.us_per_token", "us/token"),
        ("encoder.backward.calls", "count"),
        ("encoder.backward.ms", "ms"),
        ("encoder.cls_score.ms", "ms"),
        ("encoder.mlm_logits.ms", "ms"),
    ]
    for f in LAYER_FUNCTIONS:
        out += [(f"encoder.layers.{f}.calls", "count"), (f"encoder.layers.{f}.ms", "ms")]
    out += [
        ("encoder.adam_step.calls", "count"),
        ("encoder.adam_step.ms", "ms"),
        ("encoder.zero_grads.ms", "ms"),
        ("encoder.checkpoint.save.ms", "ms"),
        ("encoder.checkpoint.save.bytes", "bytes"),
        ("encoder.checkpoint.load.ms", "ms"),
        ("pretrain.pack_input.calls", "count"),
        ("pretrain.pack_input.ms", "ms"),
        ("pretrain.mask_tokens.calls", "count"),
        ("pretrain.mask_tokens.ms", "ms"),
    ]
    out += [(f"pretrain.step.{p}_ms", "ms") for p in STEP_PARTS]
    out += [
        ("pretrain.hinge_active_ratio", "ratio"),
        ("pretrain.loss", "loss"),
        ("pretrain.mlm_warmup.ms", "ms"),
    ]
    for f in SAMPLER_METHODS + ("sample_word_set",):
        out += [(f"sampler.{f}.calls", "count"), (f"sampler.{f}.ms", "ms")]
    out += [
        ("sampler.forward.calls", "count"),
        ("sampler.forward.ms", "ms"),
        ("sampler.forward.distinct_ratio", "ratio"),
    ]
    for t in TASKS:
        out += [
            (f"taskgen.{t}.attempts", "count"),
            (f"taskgen.{t}.pairs", "count"),
            (f"taskgen.{t}.yield", "ratio"),
            (f"taskgen.{t}.ms", "ms"),
        ]
    out += [("taskgen.write_pairs.ms", "ms")]
    out += [(f"corpus.{f}.ms", "ms") for f in ("read_corpus", "clean_corpus", "build_vocab", "anchor_occurrence_index")]
    out += [
        ("corpus.tokenize.calls", "count"),
        ("corpus.tokenize.ms", "ms"),
        ("synth.synth_dataset.ms", "ms"),
        ("ranker.score_tokens.calls", "count"),
        ("ranker.score_tokens.ms", "ms"),
        ("ranker.document_text.calls", "count"),
        ("ranker.document_text.ms", "ms"),
        ("ranker.document_text.distinct_ratio", "ratio"),
    ]
    out += [(f"ranker.finetune.step.{p}_ms", "ms") for p in STEP_PARTS]
    out += [
        ("ranker.finetune.loss", "loss"),
        ("ranker.load_model.ms", "ms"),
        ("ranker.read_collection.ms", "ms"),
        ("evalkit.evaluate.ms", "ms"),
        ("evalkit.write_run.ms", "ms"),
        ("trace.spans", "count"),
        ("trace.timed_s_untraced", "s"),
        ("trace.timed_s_traced", "s"),
        ("trace.overhead_pct", "%"),
    ]
    return out


# Which spans make up each part of a training step.  Spans are assigned to
# the step in which they start; "other" is the rest of the step.
STEP_SPANS = {
    "pack": ("pretrain.pack_input", "pretrain.mask_tokens", "corpus.tokenize"),
    "forward": ("encoder.forward", "encoder.cls_score", "encoder.mlm_logits"),
    "backward": ("encoder.backward",),
    "optimizer": ("encoder.adam_step", "encoder.zero_grads"),
}


def _step_split(spans, durations, loop_name: str, step_ends: list[float]) -> dict[str, float]:
    """Mean ms per step of each STEP_PARTS part, over the steps of every
    `loop_name` span.  Step i runs from the end of step i-1 (or the loop
    start) to the i-th step-end timestamp."""
    part_of = {name: part for part, names in STEP_SPANS.items() for name in names}
    # only the outermost span of the parts counts, so a part nested in
    # another (a forward inside a backward helper) is not counted twice
    outer = [
        i
        for i, s in enumerate(spans)
        if s[NAME] in part_of and not any(a[NAME] in part_of for a in ancestors(spans, i))
    ]
    totals = dict.fromkeys(STEP_PARTS, 0.0)
    steps = 0
    for loop in (s for s in spans if s[NAME] == loop_name):
        lo, hi = loop[START], loop[END]
        ends = [t for t in step_ends if lo <= t <= hi]
        if not ends:
            continue
        steps += len(ends)
        totals["other"] += ends[-1] - lo
        for i in outer:
            if lo <= spans[i][START] < ends[-1]:
                part = part_of[spans[i][NAME]]
                totals[part] += durations[i]
                totals["other"] -= durations[i]
    if not steps:
        return {f"{p}_ms": 0.0 for p in STEP_PARTS}
    return {f"{p}_ms": 1000.0 * totals[p] / steps for p in STEP_PARTS}


def per_layer_metrics(spans, step_ends: dict[str, list[float]], losses: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the recorded spans, summed over the run.

    A `.ms` metric that has a `.calls` twin is self time; a `.ms` metric on
    its own is inclusive (whole-call) time, as are the step split and
    `encoder.forward.us_per_token`.
    """
    own = self_times(spans)
    whole = [s[END] - s[START] for s in spans]
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    whole_ms: dict[str, float] = {}
    for s, t, w in zip(spans, own, whole):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_ms[s[NAME]] = self_ms.get(s[NAME], 0.0) + 1000.0 * t
        whole_ms[s[NAME]] = whole_ms.get(s[NAME], 0.0) + 1000.0 * w

    def total(name: str, key: str) -> int:
        return sum(s[COUNTS][key] for s in spans if s[NAME] == name and s[COUNTS])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    names = [name for name, _ in metric_names()]
    out: dict[str, float] = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, 0)
        elif field == "ms":
            out[name] = (self_ms if f"{base}.calls" in names else whole_ms).get(base, 0.0)

    forward = [i for i, s in enumerate(spans) if s[NAME] == "encoder.forward"]
    tokens = total("encoder.forward", "tokens")
    out["encoder.forward.tokens"] = tokens
    out["encoder.forward.us_per_token"] = ratio(1e3 * whole_ms.get("encoder.forward", 0.0), tokens)
    out["encoder.checkpoint.save.bytes"] = total("encoder.checkpoint.save", "bytes")
    out["pretrain.hinge_active_ratio"] = ratio(total("pretrain.hinge_loss", "active"), calls.get("pretrain.hinge_loss", 0))

    sampler_names = {f"sampler.{f}" for f in SAMPLER_METHODS}
    under_sampler = [i for i in forward if any(a[NAME] in sampler_names for a in ancestors(spans, i))]
    out["sampler.forward.calls"] = len(under_sampler)
    out["sampler.forward.ms"] = 1000.0 * sum(own[i] for i in under_sampler)
    out["sampler.forward.distinct_ratio"] = ratio(len({spans[i][COUNTS]["key"] for i in under_sampler}), len(under_sampler))

    for t in TASKS:
        attempts = calls.get(f"taskgen.{t}", 0)
        pairs = total(f"taskgen.{t}", "pairs")
        out[f"taskgen.{t}.attempts"] = attempts
        out[f"taskgen.{t}.pairs"] = pairs
        out[f"taskgen.{t}.yield"] = ratio(pairs, attempts)

    docs = [s[COUNTS]["key"] for s in spans if s[NAME] == "ranker.document_text"]
    out["ranker.document_text.distinct_ratio"] = ratio(len(set(docs)), len(docs))

    for prefix, loop, key in (("pretrain.step", "pretrain.train", "pretrain"), ("ranker.finetune.step", "ranker.finetune", "finetune")):
        for part, value in _step_split(spans, whole, loop, step_ends.get(key, [])).items():
            out[f"{prefix}.{part}"] = value
    out["pretrain.loss"] = losses.get("pretrain", 0.0)
    out["ranker.finetune.loss"] = losses.get("finetune", 0.0)
    out["trace.spans"] = len(spans)
    return out
