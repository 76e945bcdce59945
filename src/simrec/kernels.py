"""Edge-level kernels: segment softmax, attention aggregation and row scatter.

These run once per edge per graph-attention layer in both the forward and
backward pass. They are plain numpy. Every sum over shared ids is one
``np.bincount``: each bin starts at 0.0 and takes its terms in input (edge)
order, so every kernel is deterministic. A scattered id outside the output
raises.
"""

from __future__ import annotations

import numpy as np


def _sum_by_id(
    kernel: str, ids: np.ndarray, weights: np.ndarray, n_rows: int, n_cols: int | None = None
) -> np.ndarray:
    """Float64 sums of ``weights`` over equal ``ids``: (n_rows,), or (n_rows, n_cols) rows.

    Rows are summed as one bincount over the flat output index
    ``ids[k] * n_cols + j``. A negative id makes ``np.bincount`` raise; an id
    of ``n_rows`` or more lengthens its output, which is caught here.
    """
    if n_cols is None:
        flat, size = ids, n_rows
    else:
        flat, size = (ids[:, None] * n_cols + np.arange(n_cols)).ravel(), n_rows * n_cols
    out = np.bincount(flat, weights=weights.ravel(), minlength=size)
    if out.size != size:
        top = (out.size - 1) // (n_cols or 1)
        raise ValueError(f"{kernel}: id {top} out of range for {n_rows} rows")
    # An empty id set gives int64 zeros even with weights.
    out = out.astype(np.float64, copy=False)
    return out if n_cols is None else out.reshape(n_rows, n_cols)


def segment_softmax(scores: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Softmax over entries sharing a segment id (max-shifted for stability)."""
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, seg, scores)
    exp = np.exp(scores - seg_max[seg])
    denom = _sum_by_id("segment_softmax", seg, exp, n_segments)
    return exp / denom[seg]


def segment_softmax_grad(
    alpha: np.ndarray, d_alpha: np.ndarray, seg: np.ndarray, n_segments: int
) -> np.ndarray:
    """d(scores) given d(alpha): alpha * (d_alpha - sum_seg alpha*d_alpha)."""
    seg_dot = _sum_by_id("segment_softmax_grad", seg, alpha * d_alpha, n_segments)
    return alpha * (d_alpha - seg_dot[seg])


def attention_aggregate(
    alpha: np.ndarray, values: np.ndarray, src: np.ndarray, dst: np.ndarray, n_out: int
) -> np.ndarray:
    """out[i] = sum over edges e with dst[e]==i of alpha[e] * values[src[e]]."""
    return _sum_by_id(
        "attention_aggregate", dst, alpha[:, None] * values[src], n_out, values.shape[1]
    )


def attention_aggregate_grad(
    d_out: np.ndarray,
    alpha: np.ndarray,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(d_alpha, d_values) of ``attention_aggregate`` given d(out)."""
    d_alpha = (d_out[dst] * values[src]).sum(axis=1)
    d_values = _sum_by_id(
        "attention_aggregate_grad", src, alpha[:, None] * d_out[dst],
        values.shape[0], values.shape[1],
    )
    return d_alpha, d_values


def scatter_add_rows(
    indices: np.ndarray, rows: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """A (n_rows, n_cols) zero array with rows[k] added at row indices[k]."""
    return _sum_by_id("scatter_add_rows", indices, rows, n_rows, n_cols)
