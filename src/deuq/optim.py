"""Adaptive moment estimation on flat parameter vectors, and the one
training loop every fit in the pipeline runs on."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DivergenceError


class Adam:
    """Standard defaults; full-batch usage keeps runs deterministic.

    The moments update in place through two scratch buffers, in the
    operation order of the textbook step: (b1 m) + ((1 - b1) g),
    (b2 v) + (((1 - b2) g) g), then (lr m_hat) / (sqrt(v_hat) + eps).
    Each step returns a fresh vector, so a caller may keep the previous one.
    """

    def __init__(self, n: int, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self._a, self._b = np.empty(n), np.empty(n)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=a)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=a)
        v += np.multiply(a, grad, out=a)
        np.divide(m, 1.0 - self.beta1**self.t, out=a)  # m_hat
        np.divide(v, 1.0 - self.beta2**self.t, out=b)  # v_hat
        a *= self.learning_rate
        a /= np.add(np.sqrt(b, out=b), self.eps, out=b)
        return params - a


def fit(loss_and_grad: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
        x0: np.ndarray, learning_rate: float, epochs: int, *,
        tolerance: float = -np.inf, name: str = "objective",
        params: Callable[[np.ndarray], object] = lambda x: x) -> tuple[np.ndarray, list]:
    """Full-batch Adam from ``x0``: evaluate it, then step and evaluate
    ``epochs`` times, stopping early once the loss is at most ``tolerance``.

    ``loss_and_grad(x)`` returns the loss at x and a function that returns
    its gradient, taken only when a step needs it (never for the returned
    vector). Each evaluation is dropped only once the next one has
    been built, before that one's gradient is taken, so the arrays it frees
    serve the backward pass instead of going back to the system and
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
