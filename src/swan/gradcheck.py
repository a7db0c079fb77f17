"""Central finite-difference gradient checking."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def finite_difference(loss_fn: Callable[[], float], tensor: Tensor,
                      step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of `loss_fn` w.r.t. one tensor.

    `loss_fn` must recompute the forward loss from the tensors' current
    data; entries are perturbed in place and restored.
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    out = grad.reshape(-1)
    with ad.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn()
            flat[i] = orig - step
            f_minus = loss_fn()
            flat[i] = orig
            out[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest elementwise |a - n| / max(|a|, |n|, 1e-6)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())

