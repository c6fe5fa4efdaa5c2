"""Encoder forward graph: embeddings + post-norm transformer layers, with
attention maps, CLS scoring and MLM heads, and an exact analytic backward
pass, over one sequence or a stack of equal-length sequences.  Every
forward is one EncoderGraph: training, cls_scores (which scores packings
one stack at a time) and the sampler's attention maps alike.

Every path computes in the params' dtype: float32 for the pipeline, whose
params come from init_params or load_checkpoint, and float64 for the
gradient checks, which pass float64 params to the same functions."""

from __future__ import annotations

import ctypes
import math
import numbers

import numpy as np

from anchorrank.corpus import CLS_ID
from anchorrank.encoder import layers as lyr
from anchorrank.encoder.config import EncoderConfig


# glibc's malloc maps an array above M_MMAP_THRESHOLD fresh and unmaps it
# when it is freed, and hands the free top of its heap back to the system
# above M_TRIM_THRESHOLD.  Under its defaults a training step's stack-sized
# arrays (an (8, 4, 48, 48) attention map, an (8, 48, 256) FFN activation)
# went back after every step and were faulted in again by the next: a
# second fine-tuning of four 8 x 48 steps took 5,644 minor faults, and
# takes 0-1 with the thresholds below.  Both sit above the largest array
# the full profile makes (a 4 MiB attention map at max_len 512), so freed
# arrays stay in the heap and the next step reuses them.  -1 and -3 are
# the parameters' numbers in glibc's malloc.h.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _keep_freed_memory():
    """Set both thresholds; mallopt's two results (1 on success), or None
    where the C library has no mallopt, which changes only the speed."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD), mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


MALLOPT = _keep_freed_memory()

# The query-row selection of _layer for every row: a basic slice is a view,
# so it computes exactly what a layer over the whole sequence computes.
ALL_ROWS = slice(None)

# Tokens per stack (stack_runs), in cls_scores and in fine-tuning: 8
# sequences at max_len 48, one at 512.  A stack shares each layer's Python
# and numpy dispatch among its sequences, but its temporaries and peak
# memory grow with it; on the toy rerank benchmark 6-8 sequences of 48
# tokens scored fastest, and an uncapped stack of 30 raised peak RSS by
# about 14%.
STACK_TOKENS = 384


def stack_runs(lengths):
    """(start, stop) of each run of consecutive equal lengths, cut so that
    a run holds at most STACK_TOKENS tokens (and at least one sequence)."""
    start = 0
    while start < len(lengths):
        n = lengths[start]
        stop = start + 1
        limit = min(len(lengths), start + max(1, STACK_TOKENS // max(n, 1)))
        while stop < limit and lengths[stop] == n:
            stop += 1
        yield start, stop
        start = stop


def _check_inputs(config: EncoderConfig, token_ids, segment_ids):
    """Validated int64 (token_ids, segment_ids) of one sequence (n,) or a
    stack of equal-length sequences (B, n); segment ids default to 0."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim not in (1, 2) or token_ids.size == 0:
        raise ValueError("token_ids must be a non-empty (n,) sequence or (B, n) stack")
    n = token_ids.shape[-1]
    if n > config.max_len:
        raise ValueError(f"sequence length {n} exceeds max_len {config.max_len}; caller must truncate")
    if token_ids.min() < 0 or token_ids.max() >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if segment_ids is None:
        segment_ids = np.zeros(token_ids.shape, dtype=np.int64)
    else:
        try:
            segment_ids = np.asarray(segment_ids, dtype=np.int64)
        except ValueError:  # a stack's rows of unequal lengths
            segment_ids = np.empty(0, dtype=np.int64)
        if segment_ids.shape != token_ids.shape:
            raise ValueError("segment_ids must align with token_ids")
        if segment_ids.min() < 0 or segment_ids.max() > 1:
            raise ValueError("segment ids must be 0 or 1")
    return token_ids, segment_ids


def _require_leading_cls(token_ids) -> None:
    # a set of the first tokens, not a ufunc test: np.any costs microseconds
    # per call, which every training graph's cls_score would pay
    if set(token_ids[..., 0].flat) != {CLS_ID}:
        raise ValueError("sequence must begin with [CLS] to be scored")


def _output_rows(outputs, n: int):
    """The last layer's query rows for EncoderGraph: ALL_ROWS for None,
    else the sorted distinct positions of outputs."""
    if outputs is None:
        return ALL_ROWS
    rows = np.asarray(outputs, dtype=np.int64).reshape(-1)
    if rows.size > 1:  # one position is sorted and distinct already
        rows = np.unique(rows)
    if rows.size == 0:
        raise ValueError("outputs must name at least one position")
    if rows[0] < 0 or rows[-1] >= n:
        raise ValueError("output position out of range")
    return rows


def _output_runs(outputs, token_ids) -> list[tuple]:
    """(start, stop, rows) of each run of consecutive members whose last
    layer reads the same rows (_output_rows).  That is one run over every
    member, unless a stack's outputs are a list or tuple of one entry per
    member, each a list, tuple or array of positions or None.  Only the
    first entry is looked at, so that every graph with one shared list,
    cls_scores' included, pays one type check for the choice."""
    n = token_ids.shape[-1]
    first = outputs[0] if type(outputs) in (list, tuple) and outputs else 0
    if token_ids.ndim == 1 or not (first is None or type(first) in (list, tuple, np.ndarray)):
        return [(0, 1 if token_ids.ndim == 1 else len(token_ids), _output_rows(outputs, n))]
    members = len(token_ids)
    if len(outputs) != members:
        raise ValueError(f"outputs gives {len(outputs)} position lists for a stack of {members} members")
    rows = [_output_rows(o, n) for o in outputs]
    keys = [r.tolist() if isinstance(r, np.ndarray) else r for r in rows]
    starts = [b for b in range(members) if b == 0 or keys[b] != keys[b - 1]]
    return [(start, stop, rows[start]) for start, stop in zip(starts, starts[1:] + [members])]


def _members(start: int, stop: int):
    """The index of members start..stop-1 on a stack axis: an int for one
    member, which drops the axis as a single sequence has none."""
    return start if stop - start == 1 else slice(start, stop)


def _narrow(cache, index):
    """A stack's cache narrowed to the members `index`: an array, a tuple
    of arrays, or a dict of both (a layer's); None leaves it whole.  Every
    activation a cache holds carries the stack axis first and has three or
    more dims; the params' arrays and the rows, which have fewer, are
    shared."""
    if index is None:
        return cache

    def pick(a):
        return a[index] if type(a) is np.ndarray and a.ndim >= 3 else a

    if type(cache) is dict:
        return {k: tuple(map(pick, v)) if type(v) is tuple else pick(v) for k, v in cache.items()}
    return tuple(map(pick, cache)) if type(cache) is tuple else pick(cache)


class _Run:
    """The last layer over a run of consecutive members that read the same
    rows: its states `hidden`, its `cache`, and the heads attached to it
    (`cls`: scores, [CLS] states and tanh activations; `mlm`: rows and
    states).  A run of part of another keeps that run's whole cache and
    narrows it to `narrow`, its members' index, only for backward."""

    __slots__ = ("rows", "hidden", "cache", "narrow", "cls", "mlm")

    def __init__(self, rows, hidden, cache, narrow=None):
        self.rows, self.hidden, self.cache, self.narrow = rows, hidden, cache, narrow
        self.cls = self.mlm = None

    @property
    def size(self) -> int:
        return 1 if self.hidden.ndim == 2 else len(self.hidden)

    def part(self, lo: int, hi: int) -> "_Run":
        """Members lo..hi-1 of this run of a stack."""
        base = 0 if self.narrow is None else self.narrow.start
        return _Run(self.rows, self.hidden[_members(lo, hi)], self.cache, _members(base + lo, base + hi))


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _member_scores(d_score, members: int | None) -> list[float]:
    """d_score as one float per member: one real number for a single
    sequence (members None), a sequence of `members` real numbers for a
    stack.  Anything else is a ValueError that names what was given."""
    if members is None:
        if _real(d_score):
            return [float(d_score)]
        raise ValueError(f"d_score of a single sequence must be one real number, got {d_score!r}")
    if isinstance(d_score, (list, tuple)) or (isinstance(d_score, np.ndarray) and d_score.ndim == 1):
        if len(d_score) == members and all(map(_real, d_score)):
            return [float(d) for d in d_score]
    raise ValueError(f"d_score needs one value per member, a real number for each of {members}; got {d_score!r}")


def _member_mlm(d_mlm_logits, members: int | None) -> list:
    """d_mlm_logits as one entry per member, None or an array: as given for
    a single sequence, else None or a list or tuple of `members` entries."""
    if members is None:
        return [d_mlm_logits]
    if d_mlm_logits is None:
        return [None] * members
    if isinstance(d_mlm_logits, (list, tuple)) and len(d_mlm_logits) == members:
        return list(d_mlm_logits)
    raise ValueError(f"d_mlm_logits of a stack needs one entry per member, None or an array, for each of {members}")


def _embed(params, token_ids, segment_ids):
    """Layer-normed token + position + segment embeddings of (..., n) ids;
    (out (..., n, hidden), ln cache)."""
    n = token_ids.shape[-1]
    e = np.take(params["tok_emb"], token_ids, axis=0)
    e += params["pos_emb"][:n]
    e += np.take(params["seg_emb"], segment_ids, axis=0)
    return lyr.layer_norm(e, params["emb_ln_g"], params["emb_ln_b"])


def _split_heads(x, heads: int):
    """(..., m, heads * head_dim) -> a (..., heads, m, head_dim) view."""
    return x.reshape(x.shape[:-1] + (heads, -1)).swapaxes(-2, -3)


def _merge_heads(xh):
    """(..., heads, m, head_dim) -> (..., m, heads * head_dim), copied."""
    heads, m, head_dim = xh.shape[-3:]
    return xh.swapaxes(-2, -3).reshape(xh.shape[:-3] + (m, heads * head_dim))


def _layer(params, config: EncoderConfig, i: int, x, rows):
    """Post-norm transformer layer i over x (..., n, hidden): one sequence,
    or a leading stack axis of equal-length sequences.

    Keys and values come from every row of x; queries, the residual
    stream, both layer norms and the FFN only from x[..., rows, :], so the
    output has those rows.  Every matrix product and row-wise reduction
    runs per sequence, so a sequence's output is bitwise the same in a
    stack as alone.  Returns (out, cache); the cache holds what
    EncoderGraph.backward needs, including rows and the attention
    probabilities (..., heads, len(rows), n).
    """
    pre = f"layer{i}."
    xq = x[..., rows, :]
    q, q_cache = lyr.linear(xq, params[pre + "wq"], params[pre + "bq"])
    k, k_cache = lyr.linear(x, params[pre + "wk"], params[pre + "bk"])
    qh, kh = _split_heads(q, config.heads), _split_heads(k, config.heads)
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    scores *= 1.0 / math.sqrt(config.head_dim)
    probs = lyr.softmax(scores, -1)
    v, v_cache = lyr.linear(x, params[pre + "wv"], params[pre + "bv"])
    vh = _split_heads(v, config.heads)
    ctx = np.matmul(probs, vh)
    attn_out, o_cache = lyr.linear(_merge_heads(ctx), params[pre + "wo"], params[pre + "bo"])
    attn_out += xq
    h1, ln1_cache = lyr.layer_norm(attn_out, params[pre + "ln1_g"], params[pre + "ln1_b"])
    f_pre, f1_cache = lyr.linear(h1, params[pre + "w1"], params[pre + "b1"])
    f_act, gelu_cache = lyr.gelu(f_pre)
    ffn_out, f2_cache = lyr.linear(f_act, params[pre + "w2"], params[pre + "b2"])
    ffn_out += h1
    out, ln2_cache = lyr.layer_norm(ffn_out, params[pre + "ln2_g"], params[pre + "ln2_b"])
    cache = dict(
        rows=rows,
        q_cache=q_cache,
        k_cache=k_cache,
        v_cache=v_cache,
        qh=qh,
        kh=kh,
        vh=vh,
        probs=probs,
        o_cache=o_cache,
        ln1_cache=ln1_cache,
        f1_cache=f1_cache,
        gelu_cache=gelu_cache,
        f2_cache=f2_cache,
        ln2_cache=ln2_cache,
    )
    return out, cache


def _add_rows(acc, ids, d_rows) -> None:
    """np.add.at(acc, ids, d_rows) for a 2-D acc, through acc's flat view:
    element j of row d_rows[i] goes into acc[ids[i], j], in the same order
    as np.add.at adds it, so the same bits, for about a quarter of its cost
    (numpy's ufunc.at has a fast path for one flat index).  The view cannot
    be a copy that would drop the adds: an acc that has no flat view is a
    ValueError.  A stack's ids and rows are taken in member order."""
    width = acc.shape[-1]
    index = ids.reshape(-1, 1) * width + np.arange(width)
    np.add.at(acc.reshape(-1, copy=False), index.reshape(-1), d_rows.reshape(-1))


def _add_segment_rows(acc, segment_ids, d_rows) -> None:
    """np.add.at(acc, segment_ids, d_rows) for 0/1 segment ids, as two
    masked row sums.  Each sum starts from acc's row and goes down axis 0,
    which numpy adds row by row for more than one column: the same
    additions in the same order as np.add.at, so the same bits, at a
    fraction of its cost.  A stack's rows are taken member by member."""
    for seg in (0, 1):
        acc[seg] = np.concatenate((acc[seg : seg + 1], d_rows[segment_ids == seg])).sum(axis=0)


def _add_members(acc, grad) -> None:
    """acc += grad, one sequence's gradient; or, for a stack's per-member
    gradients (one more axis than acc), acc += each member's in turn: the
    additions one graph per member would make."""
    if grad.ndim == acc.ndim:
        acc += grad
        return
    for member in grad:
        acc += member


def _cls_head(params, h_cls):
    """Two-layer tanh MLP over [CLS] states h_cls (..., hidden); (scores
    (...), tanh activations)."""
    c_act = np.tanh(h_cls @ params["cls_w1"] + params["cls_b1"])
    return c_act @ params["cls_w2"] + params["cls_b2"][0], c_act


class EncoderGraph:
    """One recorded forward pass over a single sequence (n,) or a stack of
    equal-length sequences (B, n).

    Heads attach lazily via cls_score() / mlm_logits(); backward() then
    propagates the supplied upstream gradients through heads, layers and
    embeddings in one sweep, accumulating into a shared gradient tree.
    Each member is back-propagated once: a second backward() over it is a
    RuntimeError.

    `outputs` names the positions whose last-layer states a head will
    read; the last layer then runs, forward and backward, for those rows
    only (keys and values still cover every row).  None keeps every row.
    One list of positions holds for every member, or a stack gives one
    list per member: the embeddings and every layer but the last then run
    once over the stack, and the last layer once per run of consecutive
    members with the same list, a run of one member as a single sequence.
    `hidden` holds the last layer's states in ascending position order,
    (rows, hidden) or (B, rows, hidden), or a list of each member's (rows,
    hidden) when the members' lists differ.  Gradients are exact for any
    loss of those rows.

    A stack runs the code of one sequence with a leading axis, and every
    product and row reduction runs per member, so each member's states,
    score and gradient are bitwise what a graph of that member alone
    gives.  view() serves some of the members as such a graph.
    """

    def __init__(self, params, config: EncoderConfig, token_ids, segment_ids=None, outputs=None):
        token_ids, segment_ids = _check_inputs(config, token_ids, segment_ids)
        runs = _output_runs(outputs, token_ids)
        self.params = params
        self.config = config
        self.token_ids = token_ids
        self.segment_ids = segment_ids

        h, self._emb_ln_cache = _embed(params, token_ids, segment_ids)
        # the layers every member runs in full; the last runs per run below
        self._layer_caches: list[dict] = []
        last = config.layers - 1
        for i in range(last):
            h, cache = _layer(params, config, i, h, ALL_ROWS)
            self._layer_caches.append(cache)
        self._runs = [
            _Run(rows, *_layer(params, config, last, h if len(runs) == 1 else h[_members(start, stop)], rows))
            for start, stop, rows in runs
        ]
        # views share the shared layers' caches, narrowed to their members'
        # index, and one spent flag per member
        self._first, self._index = 0, None
        self._spent = [False] * runs[-1][1]

    @property
    def outputs(self):
        """The last layer's rows: None for every row, else their positions;
        a list of each member's when the members' rows differ."""
        rows = [None if run.rows is ALL_ROWS else run.rows for run in self._runs]
        return rows[0] if len(rows) == 1 else [r for run, r in zip(self._runs, rows) for _ in range(run.size)]

    @property
    def hidden(self):
        """The last layer's states; a list of each member's when the
        members' rows differ."""
        if len(self._runs) == 1:
            return self._runs[0].hidden
        return [h for run in self._runs for h in (run.hidden if run.size > 1 else [run.hidden])]

    @property
    def _count(self) -> int | None:
        """Members of a stack; None for a single sequence."""
        return None if self.token_ids.ndim == 1 else len(self.token_ids)

    def view(self, start: int, stop: int | None = None) -> "EncoderGraph":
        """The graph of members start..stop-1 of this one, or of member
        `start` alone, as a single sequence, when stop is None.  Its
        hidden, cls_score, mlm_logits and backward give the bits of a graph
        built of those members alone, yet it runs no layer: it reads this
        graph's states, and narrows the caches to its members only when it
        back-propagates.  A view of whole runs shares their heads with this
        graph.  A view of every member is this graph."""
        count = self._count or 1
        stop = start + 1 if stop is None else stop
        if not 0 <= start < stop <= count:
            raise ValueError(f"members {start}..{stop - 1} are not among the graph's {count}")
        if stop - start == count:
            return self
        view = object.__new__(type(self))
        view.params, view.config = self.params, self.config
        index = _members(start, stop)
        view.token_ids, view.segment_ids = self.token_ids[index], self.segment_ids[index]
        view._emb_ln_cache, view._layer_caches, view._spent = self._emb_ln_cache, self._layer_caches, self._spent
        view._first = self._first + start
        view._index = _members(view._first, view._first + stop - start)
        runs, first = [], 0
        for run in self._runs:
            lo, hi = max(start - first, 0), min(stop - first, run.size)
            if lo < hi:
                runs.append(run if hi - lo == run.size else run.part(lo, hi))
            first += run.size
        view._runs = runs
        return view

    @property
    def attention(self) -> np.ndarray:
        """Attention probabilities of every layer, (layers, heads, n, n), or
        (layers, B, heads, n, n) for a stack; stacked on request, since
        training never reads them."""
        if self.outputs is not None:
            raise ValueError("a graph with outputs has no full last-layer attention map")
        (run,) = self._runs
        shared = [_narrow(c["probs"], self._index) for c in self._layer_caches]
        return np.stack(shared + [_narrow(run.cache["probs"], run.narrow)])

    def cls_score(self):
        """Two-layer tanh MLP over the [CLS] representation; unbounded.  A
        float, or for a stack a list of floats in member order."""
        _require_leading_cls(self.token_ids)
        scores = []
        for run in self._runs:
            if run.cls is None:
                if run.rows is not ALL_ROWS and run.rows[0] != 0:
                    raise ValueError("cls_score needs position 0 among the graph's outputs")
                # the one-row slice (..., 1, hidden): the head's products then
                # run per member, as for one sequence
                h_cls = run.hidden[..., :1, :]
                score, c_act = _cls_head(self.params, h_cls)
                width = self.config.hidden
                run.cls = (score.reshape(-1).tolist(), h_cls.reshape(-1, width), c_act.reshape(-1, width))
            scores += run.cls[0]
        return scores if self._count else scores[0]

    def mlm_logits(self, positions) -> np.ndarray:
        """Vocabulary logits for each masked position of a single-sequence
        graph; (len(positions), vocab)."""
        if self.token_ids.ndim != 1:
            raise ValueError("mlm_logits needs a single-sequence graph, not a stack")
        (run,) = self._runs
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        if positions.size and (positions.min() < 0 or positions.max() >= self.token_ids.size):
            raise ValueError("masked position out of range")
        rows = positions
        if run.rows is not ALL_ROWS:
            rows = np.searchsorted(run.rows, positions)
            if not np.array_equal(run.rows[np.minimum(rows, run.rows.size - 1)], positions):
                raise ValueError("masked position not among the graph's outputs")
        h_masked = run.hidden[rows]
        run.mlm = (rows, h_masked)
        return h_masked @ self.params["mlm_w"] + self.params["mlm_b"]

    def backward(self, grads: dict[str, np.ndarray], d_score=0.0, d_mlm_logits=None) -> None:
        """Accumulate exact loss gradients into grads, given upstream
        gradients for the attached heads.  d_score is one real number per
        member: a number for a single sequence, a sequence of them for a
        stack.  d_mlm_logits is the array of a single sequence, or a
        stack's list of one entry per member, None or an array.  Anything
        else is a ValueError, raised before grads or the graph change.

        The last layer is back-propagated run by run, in run order; the
        other layers and the embeddings then once through every member.
        Each member's parameter-gradient contribution is added into grads
        in member order, so grads gets the bits that one graph per member,
        back-propagated in turn, would give it."""
        count = self._count
        spent = self._spent[self._first : self._first + (count or 1)]
        if any(spent):
            raise RuntimeError("backward() already called on a member of this graph")
        d_scores = _member_scores(d_score, count)
        d_mlms = _member_mlm(d_mlm_logits, count)
        heads, first = [], 0
        for run in self._runs:
            run_scores = d_scores[first : first + run.size]
            d_logits = None
            if any(d is not None for d in d_mlms[first : first + run.size]):
                if run.mlm is None:
                    raise RuntimeError("mlm_logits() was never called on this graph")
                d_logits = np.asarray(d_mlms[first])
                if d_logits.shape != (run.mlm[0].size, self.config.vocab_size):
                    raise ValueError("d_mlm_logits shape mismatch")
            if any(run_scores) and run.cls is None:
                raise RuntimeError("cls_score() was never called on this graph")
            heads.append((run, run_scores, d_logits))
            first += run.size
        self._spent[self._first : self._first + len(spent)] = [True] * len(spent)

        params = self.params
        last = self.config.layers - 1
        douts = []
        for run, run_scores, d_logits in heads:
            d_hidden = np.zeros_like(run.hidden)
            # member by member, with d a Python float that numpy casts to the
            # params' dtype and one matrix-vector product per member: the
            # operations of a single-sequence graph
            d_cls = d_hidden[..., 0, :].reshape(-1, self.config.hidden)
            for b, d in enumerate(run_scores):
                if d == 0.0:
                    continue
                h_cls, c_act = run.cls[1][b], run.cls[2][b]
                grads["cls_w2"] += d * c_act
                grads["cls_b2"] += d
                dc_pre = (d * params["cls_w2"]) * (1.0 - c_act * c_act)
                grads["cls_w1"] += np.outer(h_cls, dc_pre)
                grads["cls_b1"] += dc_pre
                d_cls[b] += params["cls_w1"] @ dc_pre
            if d_logits is not None:
                rows, h_masked = run.mlm
                grads["mlm_w"] += h_masked.T @ d_logits
                grads["mlm_b"] += d_logits.sum(axis=0)
                _add_rows(d_hidden, rows, d_logits @ params["mlm_w"].T)
            douts.append(self._layer_backward(grads, last, d_hidden, _narrow(run.cache, run.narrow)))

        dout = douts[0] if len(douts) == 1 else np.concatenate([d if d.ndim == 3 else d[None] for d in douts])
        for i in reversed(range(last)):
            dout = self._layer_backward(grads, i, dout, _narrow(self._layer_caches[i], self._index))
        de = self._layer_norm_backward(grads, "emb_ln", dout, _narrow(self._emb_ln_cache, self._index))
        # _add_rows and _add_segment_rows take a stack's rows in member order
        _add_rows(grads["tok_emb"], self.token_ids, de)
        _add_members(grads["pos_emb"][: self.token_ids.shape[-1]], de)
        _add_segment_rows(grads["seg_emb"], self.segment_ids, de)

    def _layer_backward(self, grads, i: int, dout, c):
        """dx of layer i, given the gradient of its output rows and its
        cache c; its parameter gradients go into grads."""
        pre = f"layer{i}."
        dres2 = self._layer_norm_backward(grads, pre + "ln2", dout, c["ln2_cache"])
        df_act = self._linear_backward(grads, pre, "2", dres2, c["f2_cache"])
        df_pre = lyr.gelu_backward(df_act, c["gelu_cache"])
        dh1 = self._linear_backward(grads, pre, "1", df_pre, c["f1_cache"])
        dh1 += dres2
        dres1 = self._layer_norm_backward(grads, pre + "ln1", dh1, c["ln1_cache"])
        dctx = _split_heads(self._linear_backward(grads, pre, "o", dres1, c["o_cache"]), self.config.heads)
        qh, kh, vh, probs = c["qh"], c["kh"], c["vh"], c["probs"]
        dprobs = np.matmul(dctx, vh.swapaxes(-1, -2))
        dscores = lyr.softmax_backward(dprobs, probs, -1)
        dscores *= 1.0 / math.sqrt(self.config.head_dim)
        dq = _merge_heads(np.matmul(dscores, kh))
        dk = _merge_heads(np.matmul(dscores.swapaxes(-1, -2), qh))
        dv = _merge_heads(np.matmul(probs.swapaxes(-1, -2), dctx))
        dx_q = self._linear_backward(grads, pre, "q", dq, c["q_cache"])
        dx_k = self._linear_backward(grads, pre, "k", dk, c["k_cache"])
        dx_v = self._linear_backward(grads, pre, "v", dv, c["v_cache"])
        # the query rows' gradient lands on rows of dx_k; over all rows
        # this sums in the same order as dres1 + dx_q + dx_k + dx_v
        dx_q += dres1
        dx_k[..., c["rows"], :] += dx_q
        dx_k += dx_v
        return dx_k

    def _linear_backward(self, grads, pre: str, suffix: str, dout, cache):
        """dx of a linear; its weight and bias gradients go into
        grads[pre + "w" + suffix] and grads[pre + "b" + suffix]."""
        dx, dw, db = lyr.linear_backward(dout, cache)
        _add_members(grads[pre + "w" + suffix], dw)
        _add_members(grads[pre + "b" + suffix], db)
        return dx

    def _layer_norm_backward(self, grads, name: str, dout, cache):
        """dx of a layer norm; its gain and shift gradients go into
        grads[name + "_g"] and grads[name + "_b"]."""
        dx, dg, db = lyr.layer_norm_backward(dout, cache)
        _add_members(grads[name + "_g"], dg)
        _add_members(grads[name + "_b"], db)
        return dx


def cls_scores(params, config, sequences) -> list[float]:
    """Forward-only [CLS] scores of (token_ids, segment_ids) pairs, in input
    order.  The pairs are sorted by length and cut by stack_runs; each
    stack is one EncoderGraph(..., outputs=[0]), so every pair is checked,
    and scored to the bit, as a graph of that pair alone."""
    order = sorted(range(len(sequences)), key=lambda i: len(sequences[i][0]))
    scores = [0.0] * len(sequences)
    for start, stop in stack_runs([len(sequences[i][0]) for i in order]):
        stack = order[start:stop]
        for i, s in zip(stack, _stack_scores(params, config, [sequences[i] for i in stack])):
            scores[i] = s
    return scores


def _stack_scores(params, config, pairs) -> list[float]:
    """The [CLS] scores of one stack of equal-length pairs.  Its graph dies
    on return, before the next stack's is built: with two graphs alive the
    rerank benchmark's peak RSS read 76.4-76.9 MB against 73.9-74.2 MB
    (3 runs each at seed 42)."""
    token_ids, segment_ids = zip(*pairs)
    return EncoderGraph(params, config, token_ids, segment_ids, outputs=[0]).cls_score()
