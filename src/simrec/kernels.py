"""Edge-level kernels: segment softmax, attention aggregation and row scatter.

These run once per edge per graph-attention layer in both the forward and
backward pass. They are plain numpy. Every sum over shared ids is one
``np.bincount``: each bin starts at 0.0 and takes its terms in input (edge)
order, so every kernel is deterministic. The kernels do not range-check
their ids: the tensorcore op that calls them checks each id array once.
Arrays stacked on a leading model axis share the ids: model m's are offset
into its own rows of the output, so one bincount sums every model in order.
"""

from __future__ import annotations

import numpy as np


def _sum_by_id(ids: np.ndarray, weights: np.ndarray, n_rows: int,
               n_cols: int | None = None) -> np.ndarray:
    """Float64 sums of ``weights`` over equal ``ids``: (n_rows,), or (n_rows, n_cols) rows.

    Rows are summed as one bincount over the flat output index
    ``ids[k] * n_cols + j``.
    """
    ids = ids.ravel()
    if n_cols is None:
        flat, size = ids, n_rows
    else:
        flat, size = ((ids * n_cols)[:, None] + np.arange(n_cols)).ravel(), n_rows * n_cols
    out = np.bincount(flat, weights=weights.ravel(), minlength=size)
    # An empty id set gives int64 zeros even with weights.
    out = out.astype(np.float64, copy=False)
    return out if n_cols is None else out.reshape(n_rows, n_cols)


def _by_model(ids: np.ndarray, n: int, models: tuple[int, ...]):
    """(ids, rows) into n rows per model of the leading model axis ``models``, () or (M,)."""
    if not models:
        return ids, n
    return np.arange(models[0])[:, None] * n + ids, models[0] * n


def segment_softmax(scores: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Softmax over entries sharing a segment id (max-shifted for stability)."""
    ids, size = _by_model(seg, n_segments, scores.shape[:-1])
    seg_max = np.full(size, -np.inf)
    np.maximum.at(seg_max, ids, scores)
    exp = np.exp(scores - seg_max.take(ids))
    denom = _sum_by_id(ids, exp, size)
    return exp / denom.take(ids)


def segment_softmax_grad(
    alpha: np.ndarray, d_alpha: np.ndarray, seg: np.ndarray, n_segments: int
) -> np.ndarray:
    """d(scores) given d(alpha): alpha * (d_alpha - sum_seg alpha*d_alpha)."""
    ids, size = _by_model(seg, n_segments, alpha.shape[:-1])
    seg_dot = _sum_by_id(ids, alpha * d_alpha, size)
    return alpha * (d_alpha - seg_dot.take(ids))


def attention_aggregate(
    alpha: np.ndarray, values: np.ndarray, src: np.ndarray, dst: np.ndarray, n_out: int
) -> np.ndarray:
    """out[i] = sum over edges e with dst[e]==i of alpha[e] * values[src[e]]."""
    models, d = alpha.shape[:-1], values.shape[-1]
    src, _ = _by_model(src, values.shape[-2], models)
    dst, size = _by_model(dst, n_out, models)
    rows = values.reshape(-1, d).take(src, axis=0)
    rows *= alpha[..., None]
    out = _sum_by_id(dst, rows, size, d)
    return out.reshape(models + (n_out, d))


def attention_aggregate_grad(
    d_out: np.ndarray,
    alpha: np.ndarray,
    values: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(d_alpha, d_values) of ``attention_aggregate`` given d(out)."""
    models, d = alpha.shape[:-1], values.shape[-1]
    src, size = _by_model(src, values.shape[-2], models)
    dst, _ = _by_model(dst, d_out.shape[-2], models)
    d_rows = d_out.reshape(-1, d).take(dst, axis=0)
    d_alpha = (d_rows * values.reshape(-1, d).take(src, axis=0)).sum(axis=-1)
    d_rows *= alpha[..., None]
    d_values = _sum_by_id(src, d_rows, size, d)
    return d_alpha, d_values.reshape(values.shape)


def scatter_add_rows(
    indices: np.ndarray, rows: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """A (n_rows, n_cols) zero array with rows[k] added at row indices[k]; for
    rows (M, k, n_cols), one such array per model."""
    models = rows.shape[:-2]
    ids, size = _by_model(indices, n_rows, models)
    out = _sum_by_id(ids, rows, size, n_cols)
    return out.reshape(models + (n_rows, n_cols))
