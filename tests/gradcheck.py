"""Finite-difference oracle for the tape's backward rules: central
differences of a scalar closure, compared with the analytic gradients by a
norm-ratio error, and the float64 cast of a built module it runs on."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from focalaudio.tensor import Module, Tensor, backward, no_grad


def as_float64(module: Module) -> Module:
    """`module` itself, every parameter cast to float64 in place: modules
    are built in float32 only, and the oracles check in float64."""
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    return module


def numeric_grad(fn: Callable[[], Tensor], t: Tensor, step: float = 1e-5,
                 entries: Iterable[int] | None = None) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. `t`.

    Returns a flat array over the checked entries (all of them by default).
    The closure is re-evaluated with the tape disabled.
    """
    idxs = list(range(t.data.size)) if entries is None else list(entries)
    g = np.zeros(len(idxs), dtype=np.float64)
    with no_grad():
        for j, i in enumerate(idxs):
            pos = np.unravel_index(i, t.data.shape)
            orig = t.data[pos]
            t.data[pos] = orig + step
            fp = float(fn().data)
            t.data[pos] = orig - step
            fm = float(fn().data)
            t.data[pos] = orig
            g[j] = (fp - fm) / (2.0 * step)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-ratio error: ||a - b|| / max(||a|| + ||b||, tiny)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom < 1e-12:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def gradient_check(fn: Callable[[], Tensor], tensors: dict[str, Tensor],
                   step: float = 1e-5, max_entries: int | None = None,
                   rng: np.random.Generator | None = None) -> dict[str, float]:
    """Compare analytic gradients of fn() against central differences.

    fn must rebuild the graph from the current tensor values on each call.
    Returns the relative error per named tensor. When `max_entries` is set,
    a seeded random subset of coordinates is checked per tensor.
    """
    for t in tensors.values():
        t.grad = None
    loss = fn()
    backward(loss)
    analytic = {k: (np.zeros_like(t.data) if t.grad is None else t.grad).reshape(-1).copy()
                for k, t in tensors.items()}
    errs = {}
    for k, t in tensors.items():
        n = t.data.size
        if max_entries is not None and n > max_entries:
            rng = rng or np.random.default_rng(0)
            entries = sorted(rng.choice(n, size=max_entries, replace=False).tolist())
        else:
            entries = list(range(n))
        num = numeric_grad(fn, t, step=step, entries=entries)
        errs[k] = relative_error(analytic[k][entries], num)
    return errs
