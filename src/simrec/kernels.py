"""Edge-level hot kernels: segment softmax and attention aggregation.

These inner loops run once per edge per graph-attention layer in both the
forward and backward pass, which makes them the hottest code in training.
Each kernel has a numba ``@njit`` build and a pure-numpy fallback; the
fallback runs when numba is not installed (it is the optional ``numba``
extra) or when the environment variable ``SIMREC_NO_NUMBA`` is set to a
truthy value before import.

All kernels are deterministic: no ``parallel=True``, no ``fastmath``, and
accumulation follows edge order exactly like ``np.add.at``.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is optional (the "numba" extra); numpy builds run without it
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


def _numba_disabled() -> bool:
    return os.environ.get("SIMREC_NO_NUMBA", "").lower() in ("1", "true", "yes")


USE_NUMBA = HAS_NUMBA and not _numba_disabled()


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def segment_softmax_np(scores: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Softmax over entries sharing a segment id (max-shifted for stability)."""
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, seg, scores)
    exp = np.exp(scores - seg_max[seg])
    denom = np.zeros(n_segments)
    np.add.at(denom, seg, exp)
    return exp / denom[seg]


def segment_softmax_grad_np(
    alpha: np.ndarray, d_alpha: np.ndarray, seg: np.ndarray, n_segments: int
) -> np.ndarray:
    """d(scores) given d(alpha): alpha * (d_alpha - sum_seg alpha*d_alpha)."""
    weighted = alpha * d_alpha
    seg_dot = np.zeros(n_segments)
    np.add.at(seg_dot, seg, weighted)
    return alpha * (d_alpha - seg_dot[seg])


def attention_aggregate_np(
    alpha: np.ndarray,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    n_out: np.int64,
) -> np.ndarray:
    """out[i] = sum over edges e with dst[e]==i of alpha[e] * values[src[e]]."""
    out = np.zeros((n_out, values.shape[1]))
    np.add.at(out, dst, alpha[:, None] * values[src])
    return out


def attention_aggregate_grad_np(
    d_out: np.ndarray,
    alpha: np.ndarray,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    d_alpha = (d_out[dst] * values[src]).sum(axis=1)
    d_values = np.zeros_like(values)
    np.add.at(d_values, src, alpha[:, None] * d_out[dst])
    return d_alpha, d_values


def scatter_add_rows_np(
    indices: np.ndarray, rows: np.ndarray, n_rows: np.int64, n_cols: np.int64
) -> np.ndarray:
    out = np.zeros((n_rows, n_cols))
    np.add.at(out, indices, rows)
    return out


def scatter_add_vec_np(indices: np.ndarray, values: np.ndarray, n: np.int64) -> np.ndarray:
    out = np.zeros(n)
    np.add.at(out, indices, values)
    return out


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

@njit(cache=True)
def segment_softmax_nb(scores, seg, n_segments):
    seg_max = np.full(n_segments, -np.inf)
    for e in range(scores.shape[0]):
        s = seg[e]
        if scores[e] > seg_max[s]:
            seg_max[s] = scores[e]
    exp = np.empty_like(scores)
    denom = np.zeros(n_segments)
    for e in range(scores.shape[0]):
        exp[e] = np.exp(scores[e] - seg_max[seg[e]])
        denom[seg[e]] += exp[e]
    for e in range(scores.shape[0]):
        exp[e] /= denom[seg[e]]
    return exp


@njit(cache=True)
def segment_softmax_grad_nb(alpha, d_alpha, seg, n_segments):
    seg_dot = np.zeros(n_segments)
    for e in range(alpha.shape[0]):
        seg_dot[seg[e]] += alpha[e] * d_alpha[e]
    out = np.empty_like(alpha)
    for e in range(alpha.shape[0]):
        out[e] = alpha[e] * (d_alpha[e] - seg_dot[seg[e]])
    return out


@njit(cache=True)
def attention_aggregate_nb(alpha, values, src, dst, n_out):
    d = values.shape[1]
    out = np.zeros((n_out, d))
    for e in range(alpha.shape[0]):
        a = alpha[e]
        s = src[e]
        t = dst[e]
        for c in range(d):
            out[t, c] += a * values[s, c]
    return out


@njit(cache=True)
def attention_aggregate_grad_nb(d_out, alpha, values, src, dst):
    d = values.shape[1]
    d_alpha = np.zeros(alpha.shape[0])
    d_values = np.zeros_like(values)
    for e in range(alpha.shape[0]):
        s = src[e]
        t = dst[e]
        acc = 0.0
        for c in range(d):
            acc += d_out[t, c] * values[s, c]
            d_values[s, c] += alpha[e] * d_out[t, c]
        d_alpha[e] = acc
    return d_alpha, d_values


@njit(cache=True)
def scatter_add_rows_nb(indices, rows, n_rows, n_cols):
    out = np.zeros((n_rows, n_cols))
    for k in range(indices.shape[0]):
        i = indices[k]
        for c in range(n_cols):
            out[i, c] += rows[k, c]
    return out


@njit(cache=True)
def scatter_add_vec_nb(indices, values, n):
    out = np.zeros(n)
    for k in range(indices.shape[0]):
        out[indices[k]] += values[k]
    return out


NUMPY_IMPLS = {
    "segment_softmax": segment_softmax_np,
    "segment_softmax_grad": segment_softmax_grad_np,
    "attention_aggregate": attention_aggregate_np,
    "attention_aggregate_grad": attention_aggregate_grad_np,
    "scatter_add_rows": scatter_add_rows_np,
    "scatter_add_vec": scatter_add_vec_np,
}

NUMBA_IMPLS = {
    "segment_softmax": segment_softmax_nb,
    "segment_softmax_grad": segment_softmax_grad_nb,
    "attention_aggregate": attention_aggregate_nb,
    "attention_aggregate_grad": attention_aggregate_grad_nb,
    "scatter_add_rows": scatter_add_rows_nb,
    "scatter_add_vec": scatter_add_vec_nb,
}

_active = NUMBA_IMPLS if USE_NUMBA else NUMPY_IMPLS

segment_softmax = _active["segment_softmax"]
segment_softmax_grad = _active["segment_softmax_grad"]
attention_aggregate = _active["attention_aggregate"]
attention_aggregate_grad = _active["attention_aggregate_grad"]
scatter_add_rows = _active["scatter_add_rows"]
scatter_add_vec = _active["scatter_add_vec"]
