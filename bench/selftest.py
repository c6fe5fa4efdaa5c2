#!/usr/bin/env python3
"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py

Checks self time on a hand-built span tree, that installing the tracer
replaces every wrap target and uninstalling puts the identical objects
back, that a traced encoder call records nested spans and returns the
same numbers as an untraced one, that operation costs are divided by
the median reference-kernel time around each operation, and that the
set-up sampler times the kernel while other code runs and then puts the
previous SIGALRM handler back.  Exits 0 when every check passes.
"""

from __future__ import annotations

import sys

import perlayer
from tracer import COUNTS, END, ITEM, NAME, PARENT, START, Tracer, self_times


def self_time_ok() -> bool:
    """Self time on a hand-built tree.

        root   0 ........................ 10
        a        1 ........ 5                      children b, c
        b          2 .. 3
        c            2.5 .. 4                      overlaps b
        d                        6 .. 12           runs past root's end
    """
    spans = [
        ["root", 0.0, 10.0, -1, "", None],
        ["a", 1.0, 5.0, 0, "", None],
        ["b", 2.0, 3.0, 1, "", None],
        ["c", 2.5, 4.0, 1, "", None],
        ["d", 6.0, 12.0, 0, "", None],
    ]
    expected = [10.0 - 4.0 - 4.0, 4.0 - 2.0, 1.0, 1.5, 6.0]
    got = self_times(spans)
    return all(abs(g - e) < 1e-12 for g, e in zip(got, expected)) and len(got) == len(expected)


def wrap_roundtrip_ok(p) -> bool:
    originals = perlayer.current_objects(vars(p))
    tracer = Tracer()
    perlayer.install(tracer, vars(p))
    # a function bound under two names is wrapped under both
    replaced = all(vars(owner)[attr] is not original for owner, attr, original in originals)
    tracer.uninstall()
    restored = all(vars(owner)[attr] is original for owner, attr, original in originals)
    return replaced and restored


def traced_call_ok(p) -> bool:
    np = p.numpy
    config = p.encoder.EncoderConfig(layers=1, heads=2, hidden=8, ffn_dim=16, vocab_size=20, max_len=8)
    params = p.encoder.init_params(config, seed=0)
    ids = np.array([2, 7, 9, 11, 3])
    plain = p.EncoderGraph(params, config, ids).cls_score()

    tracer = Tracer()
    perlayer.install(tracer, vars(p))
    tracer.item = "probe"
    try:
        traced = p.EncoderGraph(params, config, ids).cls_score()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    forward = [i for i, s in enumerate(spans) if s[NAME] == "encoder.forward"]
    nested = [s for s in spans if s[NAME].startswith("encoder.layers.")]
    return (
        traced == plain
        and len(forward) == 1
        and spans[forward[0]][COUNTS]["tokens"] == ids.size
        and len(nested) > 0
        and all(s[PARENT] == forward[0] for s in nested)
        and all(spans[forward[0]][START] <= s[START] <= s[END] <= spans[forward[0]][END] for s in nested)
        and all(s[ITEM] == "probe" for s in spans)
    )


def reference_costs_ok() -> bool:
    import reference

    # one slow kernel run among fast ones is outvoted by its neighbours
    refs = [1.0] * 12
    refs[3] = 9.0
    ops = [float(i) for i in range(12)]
    flat = reference.costs(ops, refs) == ops
    # a host twice as slow for the second half doubles both times
    drift = reference.costs([2.0] * 6 + [4.0] * 6, [1.0] * 6 + [2.0] * 6)
    return flat and drift[0] == 2.0 and drift[-1] == 2.0


def sampler_ok() -> bool:
    import signal
    import time

    import reference

    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler(reference.Reference()) as sampler:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    return len(sampler.samples_ms) >= 2 and sampler.paused > 0.0 and signal.getsignal(signal.SIGALRM) is before


def main() -> int:
    import run

    p = run.load_program()
    results = {
        "self_time_on_hand_built_tree": self_time_ok(),
        "wrap_then_uninstall_restores_identical_objects": wrap_roundtrip_ok(p),
        "traced_call_nests_spans_and_matches_untraced": traced_call_ok(p),
        "reference_costs_use_neighbour_median": reference_costs_ok(),
        "setup_sampler_samples_and_restores_handler": sampler_ok(),
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
