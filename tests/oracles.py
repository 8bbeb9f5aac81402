"""Finite-difference gradient oracle and the relative-error measure the tests compare with."""

import numpy as np

from futuredistill.autodiff import Tensor
from futuredistill.errors import ConfigurationError


class OracleError(RuntimeError):
    """A verification oracle (finite differences) hit a non-finite evaluation."""


def finite_difference_gradient(f, x: Tensor, eps: float = 1e-4) -> Tensor:
    """Central-difference gradient of scalar f at x, computed in float64."""
    if eps <= 0:
        raise ConfigurationError(f"finite differences need eps > 0, got {eps}")
    base = x.data.astype(np.float64).copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = _scalar_eval(f, base)
        flat[i] = orig - eps
        lo = _scalar_eval(f, base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return Tensor(grad, dtype=np.float64)


def _scalar_eval(f, arr: np.ndarray) -> float:
    out = f(Tensor(arr.copy(), dtype=np.float64))
    val = float(out.item() if isinstance(out, Tensor) else out)
    if not np.isfinite(val):
        raise OracleError("finite_difference_gradient: objective returned a non-finite value")
    return val


def max_relative_error(approx: np.ndarray, exact: np.ndarray, floor: float = 1e-6) -> float:
    """max |a - b| / max(|a|, |b|, floor); the floor absorbs exact zeros."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
