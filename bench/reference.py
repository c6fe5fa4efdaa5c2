"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's figures come from a small VM on a shared host, whose speed
drifts by 25-60% over seconds to minutes while CPU time stays equal to wall
time.  So the timed sections run this kernel once right before every
operation, and the end-to-end timings are the operation's time divided by
the kernel's (smoothed over neighbouring operations): how many kernel runs
an operation costs.  Host drift slows both alike and cancels; a change to
the program changes only the numerator.  Set-up has no operations to
interleave with, so a timer runs the kernel every 100 ms while set-up runs
(`Sampler`), and set-up time is scaled, in seconds, by the median of those
kernel times (`at_nominal`).

The kernel is the benchmark's own code and never calls the program.  It
mixes what the program spends its time on: a two-layer, four-head encoder
forward over 40 tokens at hidden size 64 (small matmuls, softmax, erf,
layer norm) and a short pure-Python loop.  One run takes about 1.5 ms.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.special import erf

HIDDEN, HEADS, FFN, TOKENS, LAYERS = 64, 4, 256, 40, 2
# neighbours on each side whose kernel times are pooled for one operation
SMOOTH_HALF_WINDOW = 5
# the kernel's median time, sampled while set-up runs, on an uncontended
# core of the 2-vCPU x86 VM the benchmark was tuned on; set-up times are
# scaled to it
NOMINAL_MS = 1.4
SAMPLE_INTERVAL_S = 0.1


class Reference:
    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.attn = [[rng.standard_normal((HIDDEN, HIDDEN)) * 0.1 for _ in range(4)] for _ in range(LAYERS)]
        self.ffn = [(rng.standard_normal((HIDDEN, FFN)) * 0.1, rng.standard_normal((FFN, HIDDEN)) * 0.1) for _ in range(LAYERS)]
        self.x = rng.standard_normal((TOKENS, HIDDEN))
        self.words = [f"w{i}" for i in range(300)]

    def run(self) -> float:
        x = self.x
        d = HIDDEN // HEADS
        for (wq, wk, wv, wo), (f1, f2) in zip(self.attn, self.ffn):
            q, k, v = x @ wq, x @ wk, x @ wv
            heads = []
            for h in range(HEADS):
                cols = slice(h * d, (h + 1) * d)
                s = q[:, cols] @ k[:, cols].T / np.sqrt(d)
                s = np.exp(s - s.max(-1, keepdims=True))
                heads.append((s / s.sum(-1, keepdims=True)) @ v[:, cols])
            x = _layer_norm(x + np.concatenate(heads, -1) @ wo)
            h1 = x @ f1
            x = _layer_norm(x + (0.5 * h1 * (1.0 + erf(h1 / np.sqrt(2.0)))) @ f2)
        counts: dict[str, int] = {}
        for word in self.words:
            counts[word[:2]] = counts.get(word[:2], 0) + len(word)
        return float(x.sum()) + sum(counts.values())

    def time(self) -> float:
        """Seconds one run takes now."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def median_ms(self, runs: int = 200) -> float:
        return 1000.0 * statistics.median(self.time() for _ in range(runs))


def _layer_norm(x):
    mean = x.mean(-1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)


class Sampler:
    """Times one kernel run every SAMPLE_INTERVAL_S, from a SIGALRM handler,
    while code runs that the benchmark cannot put the kernel between by
    hand.  The handler runs between the interrupted code's bytecodes and
    touches none of its state.  `paused` is the time spent in the handler,
    to be taken off any wall time measured around the code."""

    def __init__(self, ref: Reference) -> None:
        self.ref = ref
        self.samples_ms: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples_ms.append(1000.0 * self.ref.time())
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def at_nominal(seconds: float, kernel_ms: float) -> float:
    """`seconds` measured while the kernel took `kernel_ms`, scaled to a
    host on which it takes NOMINAL_MS."""
    return seconds * NOMINAL_MS / kernel_ms


def costs(durations: list[float], refs: list[float]) -> list[float]:
    """Each operation's time in reference-kernel runs.  `refs[i]` is the
    kernel time taken right before operation i; it is replaced by the median
    over operations i-5..i+5, which keeps the host's drift (seconds long)
    and drops the jitter of a single 1.5 ms run."""
    if len(durations) != len(refs):
        raise ValueError(f"{len(durations)} operations but {len(refs)} reference times")
    h = SMOOTH_HALF_WINDOW
    return [d / statistics.median(refs[max(0, i - h) : i + h + 1]) for i, d in enumerate(durations)]
