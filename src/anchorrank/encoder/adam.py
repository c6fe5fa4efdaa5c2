"""Adaptive-moment optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One in-place update; keys walked in sorted order for determinism.

        m_t = b1 m + (1-b1) g        v_t = b2 v + (1-b2) g^2
        theta -= lr * (m_t / (1-b1^t)) / (sqrt(v_t / (1-b2^t)) + eps)
    """
    b1, b2 = betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for key in sorted(params):
        g = grads[key]
        m = state.m[key]
        v = state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params[key] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
