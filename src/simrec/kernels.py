"""Edge-level kernels: segment softmax, attention aggregation and row scatter.

These run once per edge per graph-attention layer in both the forward and
backward pass. They are plain numpy: ``np.add.at`` accumulates in edge
order, so every kernel is deterministic.
"""

from __future__ import annotations

import numpy as np


def segment_softmax(scores: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Softmax over entries sharing a segment id (max-shifted for stability)."""
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, seg, scores)
    exp = np.exp(scores - seg_max[seg])
    denom = np.zeros(n_segments)
    np.add.at(denom, seg, exp)
    return exp / denom[seg]


def segment_softmax_grad(
    alpha: np.ndarray, d_alpha: np.ndarray, seg: np.ndarray, n_segments: int
) -> np.ndarray:
    """d(scores) given d(alpha): alpha * (d_alpha - sum_seg alpha*d_alpha)."""
    weighted = alpha * d_alpha
    seg_dot = np.zeros(n_segments)
    np.add.at(seg_dot, seg, weighted)
    return alpha * (d_alpha - seg_dot[seg])


def attention_aggregate(
    alpha: np.ndarray, values: np.ndarray, src: np.ndarray, dst: np.ndarray, n_out: int
) -> np.ndarray:
    """out[i] = sum over edges e with dst[e]==i of alpha[e] * values[src[e]]."""
    out = np.zeros((n_out, values.shape[1]))
    np.add.at(out, dst, alpha[:, None] * values[src])
    return out


def attention_aggregate_grad(
    d_out: np.ndarray,
    alpha: np.ndarray,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(d_alpha, d_values) of ``attention_aggregate`` given d(out)."""
    d_alpha = (d_out[dst] * values[src]).sum(axis=1)
    d_values = np.zeros_like(values)
    np.add.at(d_values, src, alpha[:, None] * d_out[dst])
    return d_alpha, d_values


def scatter_add_rows(
    indices: np.ndarray, rows: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """A (n_rows, n_cols) zero array with rows[k] added at row indices[k]."""
    out = np.zeros((n_rows, n_cols))
    np.add.at(out, indices, rows)
    return out
