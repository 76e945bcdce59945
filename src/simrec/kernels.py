"""Edge-level kernels: segment softmax, attention aggregation and row scatter.

These run once per edge per graph-attention layer in both the forward and
backward pass. They are plain numpy. Every sum over shared ids is one
``np.bincount``: each bin starts at 0.0 and takes its terms in input (edge)
order, so every kernel is deterministic. The kernels do not range-check
their ids: the tensorcore op that calls them checks each id array once.
Arrays stacked on a leading model axis share the ids: model m's are offset
into its own rows of the output, so one bincount sums every model in order.

The two attention-aggregate kernels gather one (edges, d) array of edge
rows when it fits ``BLOCK_FLOATS``. Past that budget they gather, weight
and scatter one block of columns at a time, and form ``d_alpha`` one block
of whole rows at a time, so each bin still takes its edges in order and
each ``d_alpha`` entry is the same row sum: the bits do not depend on the
blocks, and each transient array of a call holds about one budget rather
than edges x d floats.
"""

from __future__ import annotations

import numpy as np

# Floats that one gather of edge rows may hold before the aggregate kernels
# work in blocks: the same cache-sized budget as ``tensorcore.ADAM_CHUNK``.
BLOCK_FLOATS = 1 << 15


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


def _weighted_sum_by_id(table: np.ndarray, gather: np.ndarray, alpha: np.ndarray,
                        scatter: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) sums over equal ``scatter`` ids of ``alpha[k] * table[gather[k]]``.

    One block of columns at a time, each gathering at most ``BLOCK_FLOATS``
    floats: every bin still takes its terms in edge order, so the bits are
    those of one ``_sum_by_id`` over the whole gather. Blocks of one width
    share their flat output index.
    """
    d = table.shape[-1]
    out = np.empty((n_rows, d))
    step = max(1, BLOCK_FLOATS // alpha.size)
    scatter, flat = scatter.ravel(), None
    for j in range(0, d, step):
        cols = slice(j, j + step)
        rows = table[:, cols].take(gather, axis=0)
        rows *= alpha[..., None]
        width = rows.shape[-1]
        if flat is None or width != step:
            flat = ((scatter * width)[:, None] + np.arange(width)).ravel()
        sums = np.bincount(flat, weights=rows.ravel(), minlength=n_rows * width)
        out[:, cols] = sums.reshape(n_rows, width)
    return out


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
    if alpha.size * d <= BLOCK_FLOATS:
        rows = values.reshape(-1, d).take(src, axis=0)
        rows *= alpha[..., None]
        out = _sum_by_id(dst, rows, size, d)
    else:
        out = _weighted_sum_by_id(values.reshape(-1, d), src, alpha, dst, size)
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
    d_out, table = d_out.reshape(-1, d), values.reshape(-1, d)
    if alpha.size * d <= BLOCK_FLOATS:
        d_rows = d_out.take(dst, axis=0)
        d_alpha = (d_rows * table.take(src, axis=0)).sum(axis=-1)
        d_rows *= alpha[..., None]
        d_values = _sum_by_id(src, d_rows, size, d)
    else:
        # Row blocks of whole rows, so each d_alpha entry is the same row sum.
        d_alpha = np.empty(alpha.shape)
        flat_src, flat_dst, flat_alpha = src.ravel(), dst.ravel(), d_alpha.reshape(-1)
        step = max(1, BLOCK_FLOATS // d)
        for r in range(0, flat_alpha.size, step):
            block = slice(r, r + step)
            flat_alpha[block] = (d_out.take(flat_dst[block], axis=0)
                                 * table.take(flat_src[block], axis=0)).sum(axis=-1)
        d_values = _weighted_sum_by_id(d_out, dst, alpha, src, size)
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
