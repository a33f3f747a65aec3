"""Adam with bias correction, operating directly on a parameter store."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

# The constants Kingma & Ba (2015) recommend.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @staticmethod
    def for_store(store) -> "AdamState":
        state = AdamState()
        for name, p in store.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(store, state: AdamState, lr: float) -> None:
    """One update: moments, bias correction, parameter step, grads cleared."""
    state.step += 1
    t = state.step
    corr1 = 1.0 - BETA1 ** t
    corr2 = 1.0 - BETA2 ** t
    for name, p in store.items():
        if p.grad is None:
            raise ContractError(f"missing gradient for parameter {name!r}")
        if name not in state.m:
            raise ContractError(f"optimizer state lacks parameter {name!r}")
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / corr1
        v_hat = v / corr2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
        p.grad = None
