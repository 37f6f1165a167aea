"""Adaptive moment estimation on flat parameter vectors, and the one
training loop every fit in the pipeline runs on."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DivergenceError


class Adam:
    """Standard defaults; full-batch usage keeps runs deterministic."""

    def __init__(self, n: int, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def fit(loss_and_grad: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
        x0: np.ndarray, learning_rate: float, epochs: int, *,
        tolerance: float = -np.inf, name: str = "objective",
        params: Callable[[np.ndarray], object] = lambda x: x) -> tuple[np.ndarray, list]:
    """Full-batch Adam from ``x0``: evaluate it, then step and evaluate
    ``epochs`` times, stopping early once the loss is at most ``tolerance``.

    ``loss_and_grad(x)`` returns the loss at x and a function that returns
    its gradient, taken only when a step needs it (never for the returned
    vector). Each evaluation is dropped only once the next one has
    been built, before that one's gradient is taken, so the freed record
    serves the backward pass instead of going back to the system and
    being faulted in again (on the Burgers NLM fit, dropping it earlier
    gave 2.9k instead of 0.9k minor page faults and twice the time per
    epoch).

    Returns the last vector and its history of (step, loss) pairs; entry k
    is the loss after k steps, so the last entry is the loss of the
    returned vector. A non-finite loss raises DivergenceError, named after
    ``name``, carrying ``params`` of the last vector whose loss was finite
    (of ``x0`` if it has none) and the history up to it.
    """
    opt = Adam(x0.size, learning_rate)
    x = x0
    loss, gradient = loss_and_grad(x)
    if not np.isfinite(loss):
        raise DivergenceError(f"initial {name} is non-finite", params(x), [])
    history = [(0, loss)]
    for step in range(1, epochs + 1):
        new_x = opt.step(x, gradient())
        loss, gradient = loss_and_grad(new_x)
        if not np.isfinite(loss):
            raise DivergenceError(f"{name} became non-finite at step {step}",
                                  params(x), history)
        x = new_x
        history.append((step, loss))
        if loss <= tolerance:
            break
    return x, history
