"""Dense-array reverse-mode autodiff, just large enough for this model.

Every tensor is a float64 ``DiffArray``. Each op computes its output,
defines its backward closure and hands both to ``_result``, which makes
the whole tape node: output, op name, parents and closure.
``backward`` walks the tape in reverse topological order and accumulates
exact analytic gradients. A closure receives its output's gradient as an
argument rather than holding the output, so the tape has no reference
cycles and is freed as soon as its loss is dropped. The sweep frees most
of it sooner: ``backward`` lets go of each node as it passes it, and once
a node's closure has run it drops the node's gradient, closure and parent
links. So every intermediate gradient, every array a closure held and
every node that no caller holds is freed as the sweep moves up the tape
(a layer's activations die before the layers below it are swept), while
leaves keep their gradients. A tape is so swept once, and every loss of a
step goes into one ``backward`` call; a sweep that reaches an already
swept node raises a RuntimeError naming its op.

Each gradient is written once, where it will live. ``matmul``,
``gat_score`` and the attention ops write a weight's first gradient
straight into its store's GRAD row, and ``accum_grad`` writes any other
first gradient of a parameter there as g + 0.0. An intermediate keeps its
first gradient as it comes, without a copy, when that is a C-contiguous
float64 array of its shape; otherwise it copies it into its data's layout,
so every gradient that a BLAS call reads is laid out as a copy would be.
One array may so be the gradient of several nodes (``add`` hands its
gradient to both operands), so an intermediate's later gradients are added
out of place, and ``model_slice`` copies an intermediate's gradient before
it adds into one slice of it. Only a parameter's gradient, which its store
owns, is added to in place.

A zero in an intermediate's gradient may so carry either sign, and so
may one in a weight gradient that ``matmul`` or another op writes with
the bits of ``x.mT @ grad`` or of an outer product. That sign never
reaches a weight or its moments, for three reasons: ``accum_grad`` still
adds 0.0 on a parameter's first write; adding a zero of either sign
leaves a nonzero x as it is, and a sum is -0.0 only when both addends
are; and Adam never makes a -0.0 moment, since both moments start at
+0.0, and the second adds (1 - beta2) * g * g, which is never -0.0.

No op checks its output; each node records the ``op`` that made it. A
caller checks what it hands on, once, with ``check_finite``, which names
the first op of a non-finite output's tape, in tape order, that made one.
It runs before the sweep, which cuts an output off from its tape.

Edge-segment operations (softmax over incoming edges, attention-weighted
aggregation, the per-node sums of the GAT score's backward) call the
kernels in :mod:`simrec.kernels`. Every op that reads an id array checks
it once, with ``_check_ids``, and raises a ShapeError naming the op; the
kernels it calls trust those ids.

The token encoder runs on three ops with hand-written backward: ``embed``
(two row lookups added), ``attention_scores`` (``(h @ wq) @ (h @ wk)^T``)
and ``attend`` (``h + softmax(scores) @ (h @ wv)``, masked to a block's
sentences). Each makes the numpy calls of the chain of small ops it
replaces and adds into each input's gradient in the order that chain's
sweep did, so the bits are the same; ``scale`` stays a node of its own
between the two attention ops.

The encoder's ops, the classifier's and the losses also take an ensemble's
arrays stacked on a leading model axis (M, ...), each slice getting the bits
of its own 2-D call; a loss gives one value per model, and ``backward``
sweeps from their sum. ``model_slice`` takes one model's slice,
``stack_models`` stacks per-model arrays and ``repeat_models`` repeats an
axis of one (a shared encoder's states) once per model.

A ``ParamStore`` holds its parameters' data, gradients and two Adam moments
as the rows of one block, so one Adam update is a few in-place numpy calls
per cache-sized chunk of each contiguous run of parameters that received a
gradient. Weights change only through their store.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

from . import kernels


class ShapeError(ValueError):
    pass


class NonFiniteError(RuntimeError):
    pass


EPS_LOG = 1e-12


def all_finite(data: np.ndarray) -> bool:
    """Whether every entry is finite. A NaN or an infinity makes the sum
    non-finite, so the sum is a cheap first test; the element-wise test runs
    only when it fails, which lets through a finite array whose sum overflows."""
    return math.isfinite(np.add.reduce(data, None)) or bool(np.isfinite(data).all())


def _check_ids(ids: np.ndarray, n: int, op: str, what: str, unit: str = "rows") -> None:
    """A ShapeError naming ``op`` unless every int64 id lies in [0, n)."""
    # Read as unsigned, a negative id exceeds any n, so one max tests both
    # ends: 2.8 us against 4.9 us for min() and max() of 22 ids (2-vCPU Xeon VM).
    if ids.size and np.maximum.reduce(ids.view(np.uint64)) >= n:
        raise ShapeError(f"{op}: {what} out of range for {n} {unit}")


class DiffArray:
    """A float64 array with a gradient slot and a tape record."""

    __slots__ = ("data", "grad", "name", "grad_home", "op", "_parents", "_backward", "_visit",
                 "__weakref__")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name
        # A parameter's view of the gradient row of its store's block; the
        # first gradient of a step is written there.
        self.grad_home: np.ndarray | None = None
        self.op: str | None = None  # the op that made it; None for a leaf
        self._parents: tuple[DiffArray, ...] = ()
        self._backward = None
        self._visit = None  # the token of the last tape walk (``_tape``) that reached it

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"DiffArray(shape={self.data.shape}{tag})"

    def accum_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to this node's gradient.

        A parameter's first gradient is written into ``grad_home`` as g + 0.0,
        which has the bits of 0.0 + g (a -0.0 becomes +0.0), and later ones
        are added in place. An intermediate keeps its first gradient as it
        comes when that is a C-contiguous float64 ndarray of its own shape,
        and otherwise a copy laid out like its data. ``g`` may be an array
        that other nodes hold as well, so an intermediate's later gradients
        are added out of place.
        """
        if self.grad is None:
            if self.grad_home is not None:
                self.grad = np.add(g, 0.0, out=self.grad_home)
            else:
                self.grad = _held(g, self.data)
        elif self.grad_home is None:
            self.grad = self.grad + g
        else:
            self.grad += g


def _held(g: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``g`` as an intermediate of ``data``'s shape keeps it as its first
    gradient: itself when it is a C-contiguous float64 ndarray of that shape,
    otherwise a copy laid out like ``data``."""
    if (type(g) is np.ndarray and g.dtype == np.float64
            and g.shape == data.shape and g.flags.c_contiguous):
        return g
    return np.add(g, 0.0, out=np.empty_like(data))


_new_node = object.__new__


def _result(data: np.ndarray, parents: tuple[DiffArray, ...], backward, op: str) -> DiffArray:
    # Every op computes a float64 ndarray, or a numpy scalar from 0-d inputs,
    # so the node skips ``DiffArray.__init__``: 0.28 against 0.48 us per node
    # (2-vCPU Xeon VM), and a served sentence makes 35.
    out = _new_node(DiffArray)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = out.name = out.grad_home = out._visit = None
    out.op, out._parents, out._backward = op, parents, backward
    return out


def _tape(*outputs: DiffArray) -> list[DiffArray]:
    """Every node that ``outputs`` were made from, themselves included, each
    after its parents. The order depends only on tape structure."""
    topo: list[DiffArray] = []
    token = object()  # marks the nodes this walk has reached
    stack: list[tuple[DiffArray, bool]] = [(out, False) for out in reversed(outputs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node._visit is token:
            continue
        node._visit = token
        stack.append((node, True))
        for p in reversed(node._parents):
            if p._visit is not token:
                stack.append((p, False))
    return topo


def backward(*losses: DiffArray) -> None:
    """One reverse-mode sweep from one or more scalar losses.

    Gradients accumulate into ``.grad`` of every reachable leaf;
    ``ParamStore.adam_step`` consumes and clears parameter grads. The sweep
    pops each node off its tape, and once the node's closure has run drops
    its gradient, closure and parents, so the intermediates it held, and
    the nodes no caller holds, are freed as the sweep moves up the tape. A
    tape is swept once: a sweep that reaches a swept op node raises a
    RuntimeError naming its op before any gradient moves. Deterministic:
    the visit order depends only on tape structure.
    """
    for loss in losses:
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = _tape(*losses)
    for node in reversed(topo):
        if node.op is not None and node._backward is None:
            raise RuntimeError(f"backward: op '{node.op}' is on a tape that was already swept")
    for loss in losses:
        loss.accum_grad(np.ones_like(loss.data))
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = node.grad = None
            node._parents = ()


def check_finite(*outputs: DiffArray) -> None:
    """Raise a NonFiniteError if an output holds a non-finite value, naming the
    first op of that output's tape, in tape order, whose own output does.

    Call it before ``backward``: a swept node has no parents, so its tape
    is gone and only the output's own op could be named."""
    for out in outputs:
        if not all_finite(out.data):
            op = next((n.op for n in _tape(out) if n.op and not all_finite(n.data)), None)
            raise NonFiniteError(f"non-finite values produced by op '{op}'" if op
                                 else "non-finite values in an input array")


# ---------------------------------------------------------------------------
# core ops
# ---------------------------------------------------------------------------

def matmul(a: DiffArray, b: DiffArray) -> DiffArray:
    x, y = a.data, b.data
    if (x.ndim != y.ndim or x.ndim < 2 or x.shape[-1] != y.shape[-2]
            or x.ndim > 2 and x.shape[:-2] != y.shape[:-2]):
        raise ShapeError(f"matmul: incompatible shapes {x.shape} x {y.shape}")

    def bwd(grad):
        a.accum_grad(grad @ y.mT)
        _add_product(b, x, grad)

    return _result(x @ y, (a, b), bwd, "matmul")


def transpose(a: DiffArray) -> DiffArray:
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.data.shape}")

    def bwd(grad):
        a.accum_grad(grad.mT)

    return _result(a.data.mT.copy(), (a,), bwd, "transpose")


def add(a: DiffArray, b: DiffArray) -> DiffArray:
    """a + b, or a bias b (one per model if stacked) added to every row of a."""
    bias_bcast = (b.data.ndim == a.data.ndim - 1 > 0
                  and b.data.shape == a.data.shape[:-2] + a.data.shape[-1:])
    if not bias_bcast and a.data.shape != b.data.shape:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} + {b.data.shape}")

    def bwd(grad):
        a.accum_grad(grad)
        if bias_bcast:
            b.accum_grad(grad.sum(axis=-2))
        else:
            b.accum_grad(grad)

    bias = b.data[..., None, :] if bias_bcast else b.data
    return _result(a.data + bias, (a, b), bwd, "add")


def sub(a: DiffArray, b: DiffArray) -> DiffArray:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: incompatible shapes {a.data.shape} - {b.data.shape}")

    def bwd(grad):
        a.accum_grad(grad)
        b.accum_grad(-grad)

    return _result(a.data - b.data, (a, b), bwd, "sub")


def scale(a: DiffArray, c: float) -> DiffArray:
    c = float(c)

    def bwd(grad):
        # Into an array: ``grad * c`` of a 0-d gradient is a numpy scalar,
        # which ``accum_grad`` would copy.
        a.accum_grad(np.multiply(grad, c, out=np.empty_like(grad)))

    return _result(a.data * c, (a,), bwd, "scale")


def concat(parts: list[DiffArray], axis: int) -> DiffArray:
    if not parts:
        raise ShapeError("concat: empty input list")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = list(accumulate((p.data.shape[axis] for p in parts), initial=0))

    def bwd(grad):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * grad.ndim
            idx[axis] = slice(lo, hi)
            p.accum_grad(grad[tuple(idx)])

    return _result(out_data, tuple(parts), bwd, "concat")


def reshape(a: DiffArray, shape: tuple[int, ...]) -> DiffArray:
    def bwd(grad):
        a.accum_grad(grad.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), bwd, "reshape")


def leaky_relu(a: DiffArray, slope: float = 0.01) -> DiffArray:
    out_data = np.where(a.data > 0, a.data, slope * a.data)

    def bwd(grad):
        a.accum_grad(np.where(a.data > 0, 1.0, slope) * grad)

    return _result(out_data, (a,), bwd, "leaky_relu")


def sigmoid(a: DiffArray) -> DiffArray:
    s = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(grad):
        a.accum_grad(s * (1.0 - s) * grad)

    return _result(s, (a,), bwd, "sigmoid")


def _softmax(x: np.ndarray, axis: int, mask: np.ndarray | None = None):
    """The softmax ``s`` of ``x`` along ``axis``, and the function that maps a
    gradient of ``s`` to one of ``x``.

    Where the constant boolean ``mask`` is False an entry gets probability 0
    and no gradient; every slice along ``axis`` must keep at least one entry.
    """
    # The ufunc reductions behind ndarray.max and sum, without their wrappers.
    if mask is None:
        e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    else:
        # exp of the kept entries only: numpy's exp of -inf took 2.7-5.5 times as
        # long as of a finite number, and a (3, 64, 64) softmax of 8 sentences
        # 59 against 115 us with masked entries set to -inf (2-vCPU Xeon VM).
        top = np.maximum.reduce(x, axis, keepdims=True, where=mask, initial=-np.inf)
        e = np.exp(x - top, where=mask, out=np.zeros_like(x))
    s = e / np.add.reduce(e, axis=axis, keepdims=True)

    def grad_of(grad):
        dot = np.add.reduce(grad * s, axis=axis, keepdims=True)
        return s * (grad - dot)

    return s, grad_of


def softmax(a: DiffArray, axis: int = -1) -> DiffArray:
    """Softmax along ``axis``."""
    s, grad_of = _softmax(a.data, axis)

    def bwd(grad):
        a.accum_grad(grad_of(grad))

    return _result(s, (a,), bwd, "softmax")


def abs_(a: DiffArray) -> DiffArray:
    def bwd(grad):
        a.accum_grad(np.sign(a.data) * grad)

    return _result(np.abs(a.data), (a,), bwd, "abs")


def sum_all(a: DiffArray) -> DiffArray:
    def bwd(grad):
        a.accum_grad(np.full_like(a.data, grad))

    return _result(np.asarray(a.data.sum()), (a,), bwd, "sum_all")


# ---------------------------------------------------------------------------
# row selection and pooling
# ---------------------------------------------------------------------------

def _rows(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of axis -2; ``take`` would copy a strided stacked weight whole."""
    return x.take(idx, axis=-2) if x.flags.c_contiguous else x[..., idx, :]


def pick_rows(a: DiffArray, indices) -> DiffArray:
    """Gather rows (axis -2); backward scatter-adds into the source."""
    if a.data.ndim < 2:
        raise ShapeError(f"pick_rows: expected 2-D, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"pick_rows: indices must be 1-D, got {idx.shape}")
    _check_ids(idx, a.data.shape[-2], "pick_rows", "index")

    def bwd(grad):
        a.accum_grad(kernels.scatter_add_rows(idx, grad, *a.data.shape[-2:]))

    return _result(_rows(a.data, idx), (a,), bwd, "pick_rows")


def mean_pool(a: DiffArray, indices, pool_ids, n_pools: int) -> DiffArray:
    """Means of groups of rows, one (n_pools, d) row per group.

    Row ``indices[k]`` joins group ``pool_ids[k]``; a group with no rows
    pools to zero.
    """
    if a.data.ndim < 2:
        raise ShapeError(f"mean_pool: expected 2-D, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    pools = np.asarray(pool_ids, dtype=np.int64).reshape(-1)
    if pools.size != idx.size:
        raise ShapeError(f"mean_pool: {pools.size} pool ids for {idx.size} rows")
    _check_ids(idx, a.data.shape[-2], "mean_pool", "index")
    _check_ids(pools, n_pools, "mean_pool", "pool id", "pools")
    # Each picked row is one column of a (n_pools, k) averaging matrix.
    counts = np.bincount(pools, minlength=n_pools)
    weights = np.zeros((n_pools, idx.size))
    weights[pools, np.arange(idx.size)] = 1.0 / counts[pools]

    def bwd(grad):
        a.accum_grad(kernels.scatter_add_rows(idx, weights.T @ grad, *a.data.shape[-2:]))

    return _result(weights @ _rows(a.data, idx), (a,), bwd, "mean_pool")


def repeat_row(a: DiffArray, counts) -> DiffArray:
    """Row r of ``a`` repeated ``counts[r]`` times; an int repeats a (1, d) row."""
    reps = np.asarray(counts, dtype=np.int64).reshape(-1)
    if a.data.ndim != 2 or reps.size != a.data.shape[0]:
        raise ShapeError(f"repeat_row: {reps.size} counts for rows of {a.data.shape}")
    owner = np.repeat(np.arange(reps.size), reps)

    def bwd(grad):
        a.accum_grad(
            kernels.scatter_add_rows(owner, grad, a.data.shape[0], a.data.shape[1])
        )

    return _result(a.data[owner], (a,), bwd, "repeat_row")


def add_rows_at(base: DiffArray, indices, rows: DiffArray) -> DiffArray:
    """Copy of ``base`` with ``rows[k]`` added to row (axis -2) ``indices[k]``.

    Indices must be distinct (each target row receives one delta).
    """
    idx = np.asarray(indices, dtype=np.int64)
    if base.data.ndim < 2 or rows.data.ndim != base.data.ndim:
        raise ShapeError(
            f"add_rows_at: expected 2-D base and rows, got {base.data.shape}, {rows.data.shape}"
        )
    if rows.data.shape != base.data.shape[:-2] + (idx.size, base.data.shape[-1]):
        raise ShapeError(
            f"add_rows_at: rows {rows.data.shape} do not fit base {base.data.shape} "
            f"at {idx.size} indices"
        )
    _check_ids(idx, base.data.shape[-2], "add_rows_at", "index")
    if len(set(idx.tolist())) != idx.size:
        raise ShapeError("add_rows_at: duplicate target indices")
    out_data = base.data.copy()
    out_data[..., idx, :] += rows.data

    def bwd(grad):
        base.accum_grad(grad)
        rows.accum_grad(_rows(grad, idx))

    return _result(out_data, (base, rows), bwd, "add_rows_at")


def model_slice(a: DiffArray, m: int) -> DiffArray:
    """Model m's slice of a stacked array; backward adds into slice m only."""

    def bwd(grad):
        if a.grad is None:
            a.accum_grad(np.zeros_like(a.data))
        elif a.grad is not a.grad_home:  # an array that another node may hold
            a.grad = a.grad.copy("K")
        a.grad[m] += grad

    return _result(a.data[m], (a,), bwd, "model_slice")


def stack_models(parts: list[DiffArray | None]) -> DiffArray:
    """The parts stacked on a new leading model axis; a None part is a slice of
    zeros that takes no gradient."""
    shape = next(p.data.shape for p in parts if p is not None)
    if any(p is not None and p.data.shape != shape for p in parts):
        raise ShapeError(f"stack_models: parts differ from shape {shape}")
    kept = [(m, p) for m, p in enumerate(parts) if p is not None]
    out_data = np.zeros((len(parts),) + shape)
    for m, p in kept:
        out_data[m] = p.data

    def bwd(grad):
        for m, p in kept:
            p.accum_grad(grad[m])

    return _result(out_data, tuple(p for _, p in kept), bwd, "stack_models")


def repeat_models(a: DiffArray, n: int) -> DiffArray:
    """A model axis of one, (1, ...), repeated n times. Backward adds the
    slices' gradients from the last to the first: the order in which one
    sweep over n per-model tapes, each reading slice 0, adds them."""
    if a.data.shape[:1] != (1,):
        raise ShapeError(f"repeat_models: expected a model axis of one, got {a.data.shape}")

    def bwd(grad):
        total = np.zeros_like(a.data)
        for g in grad[::-1]:
            total[0] += g
        a.accum_grad(total)

    return _result(np.repeat(a.data, n, axis=0), (a,), bwd, "repeat_models")


# ---------------------------------------------------------------------------
# token encoding
# ---------------------------------------------------------------------------

def embed(tok_emb: DiffArray, token_ids, pos_emb: DiffArray, positions) -> DiffArray:
    """``tok_emb[token_ids] + pos_emb[positions]``, rows of axis -2: the sum of
    two ``pick_rows``."""
    ids = np.asarray(token_ids, dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    ts, ps = tok_emb.data.shape, pos_emb.data.shape
    if (ids.ndim != 1 or pos.shape != ids.shape or len(ts) < 2 or len(ps) != len(ts)
            or ps[:-2] + ps[-1:] != ts[:-2] + ts[-1:]):
        raise ShapeError(f"embed: incompatible tables {ts}, {ps} "
                         f"for ids {ids.shape} and positions {pos.shape}")
    _check_ids(ids, ts[-2], "embed", "token id")
    _check_ids(pos, ps[-2], "embed", "position")

    def bwd(grad):
        pos_emb.accum_grad(kernels.scatter_add_rows(pos, grad, *pos_emb.data.shape[-2:]))
        tok_emb.accum_grad(kernels.scatter_add_rows(ids, grad, *tok_emb.data.shape[-2:]))

    out = _rows(tok_emb.data, ids) + _rows(pos_emb.data, pos)
    return _result(out, (tok_emb, pos_emb), bwd, "embed")


def attention_scores(h: DiffArray, wq: DiffArray, wk: DiffArray) -> DiffArray:
    """The unscaled self-attention scores ``(h @ wq) @ (h @ wk)^T`` of the
    rows of ``h``, one (n, n) matrix per model."""
    x, ws = h.data, wq.data.shape
    if wk.data.shape != ws or x.shape[:-2] + x.shape[-1:] != ws[:-1] or x.ndim < 2:
        raise ShapeError(f"attention_scores: incompatible shapes h {h.shape}, "
                         f"wq {wq.shape}, wk {wk.shape}")
    q = x @ wq.data
    kt = (x @ wk.data).mT.copy()

    def bwd(grad):
        d_q = grad @ kt.mT
        # q has k's shape and C order, so it stands in for k as the layout.
        d_k = _held((q.mT @ grad).mT, q)
        h.accum_grad(d_k @ wk.data.mT)
        _add_product(wk, x, d_k)
        h.accum_grad(d_q @ wq.data.mT)
        _add_product(wq, x, d_q)

    return _result(q @ kt, (h, wq, wk), bwd, "attention_scores")


def attend(scores: DiffArray, h: DiffArray, wv: DiffArray,
           mask: np.ndarray | None = None) -> DiffArray:
    """``h + softmax(scores) @ (h @ wv)``: each row of ``h`` plus the values
    of the rows it attends to, with the softmax along the last axis.

    Row i does not attend to row j where the constant boolean (n, n) ``mask``
    is False; every row must attend to at least one.
    """
    x, ss = h.data, scores.data.shape
    rows = x.shape[:-1]  # (..., n)
    if (ss != rows + rows[-1:] or wv.data.shape != x.shape[:-2] + x.shape[-1:] * 2
            or mask is not None and mask.shape != ss[-2:] or x.ndim < 2):
        raise ShapeError(f"attend: incompatible shapes scores {scores.shape}, h {h.shape}, "
                         f"wv {wv.shape}, mask {None if mask is None else mask.shape}")
    v = x @ wv.data
    att, softmax_grad = _softmax(scores.data, -1, mask)
    out = x + att @ v

    def bwd(grad):
        h.accum_grad(grad)
        g = _held(grad, out)
        d_v = att.mT @ g
        d_att = g @ v.mT
        h.accum_grad(d_v @ wv.data.mT)
        _add_product(wv, x, d_v)
        scores.accum_grad(softmax_grad(d_att))

    return _result(out, (scores, h, wv), bwd, "attend")


# ---------------------------------------------------------------------------
# edge-segment ops (kernels)
# ---------------------------------------------------------------------------

def segment_softmax(scores: DiffArray, seg: np.ndarray, n_segments: int) -> DiffArray:
    """Softmax of a flat score vector (one per model) within groups by ``seg``."""
    if scores.data.ndim not in (1, 2):
        raise ShapeError(f"segment_softmax: expected 1-D scores, got {scores.data.shape}")
    seg = np.asarray(seg, dtype=np.int64)
    _check_ids(seg, n_segments, "segment_softmax", "segment id", "segments")
    alpha = kernels.segment_softmax(scores.data, seg, n_segments)

    def bwd(grad):
        scores.accum_grad(kernels.segment_softmax_grad(alpha, grad, seg, n_segments))

    return _result(alpha, (scores,), bwd, "segment_softmax")


def segment_aggregate(
    alpha: DiffArray,
    values: DiffArray,
    src: np.ndarray,
    dst: np.ndarray,
    n_out: int,
) -> DiffArray:
    """out[i] = sum over edges e into i of alpha[e] * values[src[e]]."""
    if alpha.data.ndim not in (1, 2) or values.data.ndim != alpha.data.ndim + 1:
        raise ShapeError(
            f"segment_aggregate: expected 1-D alpha and 2-D values, "
            f"got {alpha.data.shape}, {values.data.shape}"
        )
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    _check_ids(src, values.data.shape[-2], "segment_aggregate", "src id")
    _check_ids(dst, n_out, "segment_aggregate", "dst id")
    out_data = kernels.attention_aggregate(alpha.data, values.data, src, dst, n_out)

    def bwd(grad):
        d_alpha, d_values = kernels.attention_aggregate_grad(
            grad, alpha.data, values.data, src, dst
        )
        alpha.accum_grad(d_alpha)
        values.accum_grad(d_values)

    return _result(out_data, (alpha, values), bwd, "segment_aggregate")


def gat_score(
    g: DiffArray,
    u: DiffArray,
    wa: DiffArray,
    edge_emb: DiffArray,
    src: np.ndarray,
    dst: np.ndarray,
    labels: np.ndarray,
) -> DiffArray:
    """The (E, 1) GAT scores ``[g[dst] ; g[src] ; edge_emb[labels]] @ [u_q ; u_k ; wa]``,
    with ``u_q`` and ``u_k`` the two columns of the (d, 2) ``u``.

    The score is ``s[dst, 0] + s[src, 1] + se[labels]``: one logit per node
    for each side, ``s = g @ u``, and one per edge label, ``se = edge_emb @ wa``,
    gathered per edge. Backward sums the edge gradient per node and per label,
    then runs the same small products in reverse; as in ``matmul``, the first
    gradient of ``u``, ``wa`` and ``edge_emb`` goes straight into its GRAD row.
    """
    fits = g.data.ndim in (2, 3) and edge_emb.data.ndim == g.data.ndim
    if fits:
        models, (n, d), (n_labels, de) = g.shape[:-2], g.shape[-2:], edge_emb.shape[-2:]
        fits = u.shape == models + (d, 2) and wa.shape == models + (de, 1)
    if not fits:
        raise ShapeError(f"gat_score: incompatible shapes g {g.shape}, u {u.shape}, "
                         f"wa {wa.shape}, edge_emb {edge_emb.shape}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    _check_ids(src, n, "gat_score", "src id")
    _check_ids(dst, n, "gat_score", "dst id")
    _check_ids(labels, n_labels, "gat_score", "label id", "labels")
    s = g.data @ u.data  # (n, 2): each node's logit as a destination, then as a source
    se = (edge_emb.data @ wa.data)[..., 0]
    out = s[..., 0].take(dst, axis=-1) + s[..., 1].take(src, axis=-1) + se.take(labels, axis=-1)

    def bwd(grad):
        grad = grad[..., 0]
        d_s = np.stack([_sum_over(grad, ids, n, models) for ids in (dst, src)], axis=-1)
        d_se = _sum_over(grad, labels, n_labels, models)[..., None]
        g.accum_grad(d_s @ u.data.mT)
        _add_product(u, g.data, d_s)
        _add_outer(edge_emb, d_se, wa.data)
        _add_product(wa, edge_emb.data, d_se)

    return _result(out[..., None], (g, u, wa, edge_emb), bwd, "gat_score")


def _add_product(p: DiffArray, x: np.ndarray, grad: np.ndarray) -> None:
    """Add ``x.mT @ grad`` to ``p``'s gradient, a weight's first one straight
    into its GRAD row."""
    if p.grad is None and p.grad_home is not None:
        p.grad = np.matmul(x.mT, grad, out=p.grad_home)
    else:
        p.accum_grad(x.mT @ grad)


def _add_outer(p: DiffArray, col: np.ndarray, row: np.ndarray) -> None:
    """Add the outer products ``col @ row.mT`` of (…, k, 1) columns to ``p``'s
    gradient. As in ``matmul``, a weight's first gradient goes straight into
    its GRAD row, one product per entry."""
    if p.grad is None and p.grad_home is not None:
        p.grad = np.einsum("...ik,...jk->...ij", col, row, out=p.grad_home)
    else:
        p.accum_grad(col * row.mT)


def _sum_over(grad: np.ndarray, ids: np.ndarray, n: int, models: tuple[int, ...]) -> np.ndarray:
    """Sums of the (…, E) ``grad`` over equal ``ids`` into n bins per model."""
    flat, size = kernels._by_model(ids, n, models)
    return kernels._sum_by_id(flat, grad, size).reshape(models + (n,))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(dist: DiffArray, gold) -> DiffArray:
    """Sum over rows of -log dist[i, gold[i]], one gold per row of a 2-D
    ``dist``; ``cross_entropy_rows`` is the same loss under its own op name."""
    return _nll(dist, gold, "cross_entropy")


def cross_entropy_rows(dist: DiffArray, golds) -> DiffArray:
    """Sum over rows of -log dist[i, golds[i]]."""
    return _nll(dist, golds, "cross_entropy_rows")


def _nll(dist: DiffArray, golds, op: str) -> DiffArray:
    """Sum over rows of -log dist[i, golds[i]] for a 2-D dist; a stacked
    (M, rows, classes) dist shares the golds and gives one sum per model."""
    rows = dist.data
    if rows.ndim not in (2, 3):
        raise ShapeError(f"{op}: expected 2-D, got {rows.shape}")
    idx = np.asarray(golds, dtype=np.int64).reshape(-1)
    if idx.size != rows.shape[-2]:
        raise ShapeError(f"{op}: {idx.size} gold labels for {rows.shape[-2]} rows")
    _check_ids(idx, rows.shape[-1], op, "gold index", "classes")
    sums = rows.sum(axis=-1)
    worst = sums.flat[np.abs(sums - 1.0).argmax()] if idx.size else 1.0
    if not abs(worst - 1.0) <= 1e-6:  # a NaN sum fails too
        raise ShapeError(f"{op}: distribution sums to {float(worst)!r}, not 1")
    at = np.arange(idx.size)
    # In C order each model's values are contiguous and sum as its 2-D call's
    # do; numpy lays ``rows[:, at, idx]`` out model-last.
    picked = np.maximum(rows[..., at, idx], EPS_LOG, order="C")

    def bwd(grad):
        g = np.zeros(rows.shape)
        g[..., at, idx] = -grad[..., None] / picked
        dist.accum_grad(g)

    return _result(np.asarray(-np.log(picked).sum(axis=-1)), (dist,), bwd, op)


def kl_divergence(p: np.ndarray, q: DiffArray, row_weights: np.ndarray | None = None) -> DiffArray:
    """Sum of p * log(p/q) over all entries; p is a constant target. A q
    stacked on a leading model axis shares p and gives one sum per model.

    With ``row_weights`` row i of a 2-D p and q counts ``row_weights[i]``
    times. Zero entries of p contribute nothing (0 * log 0 = 0); q is
    clamped at 1e-12 so the value stays finite.
    """
    p = np.asarray(p, dtype=np.float64)
    if q.data.ndim - p.ndim not in (0, 1) or q.data.shape[q.data.ndim - p.ndim:] != p.shape:
        raise ShapeError(f"kl_divergence: shapes differ {p.shape} vs {q.data.shape}")
    sums = p.sum(axis=-1)
    if not (np.abs(sums - 1.0).max() <= 1e-6 and p.min() >= 0):  # a NaN fails too
        raise ShapeError("kl_divergence: p is not a distribution")
    w = 1.0
    if row_weights is not None:
        w = np.asarray(row_weights, dtype=np.float64).reshape(-1, 1)
        if p.ndim != 2 or w.shape[0] != p.shape[0]:
            raise ShapeError(f"kl_divergence: {w.shape[0]} row weights for shape {p.shape}")
    entries = tuple(range(-p.ndim, 0))
    q_clamped = np.maximum(q.data, EPS_LOG)
    terms = np.where(p > 0, p * (np.log(np.maximum(p, EPS_LOG)) - np.log(q_clamped)), 0.0)

    def bwd(grad):
        q.accum_grad(np.where(p > 0, -p / q_clamped, 0.0) * w * np.expand_dims(grad, entries))

    return _result(np.asarray((terms * w).sum(axis=entries)), (q,), bwd, "kl_divergence")


# ---------------------------------------------------------------------------
# parameters, optimizer, checkpoints
# ---------------------------------------------------------------------------

# Floats per in-place Adam pass, so that the five chunk-sized arrays (data,
# gradient, both moments, one scratch) stay in cache between the passes.
# Measured on one model at library-default sizes (1,334,703 floats) on a
# 2-vCPU Xeon VM: 12.8-13.4 ms per update for chunks of 4k to 64k floats,
# 15.0 ms for 128k, and 14.9 ms for one unchunked pass over the block.
ADAM_CHUNK = 1 << 15

# Rows of a ParamStore block.
DATA, GRAD, MOMENT1, MOMENT2 = range(4)


class ParamStore:
    """Named parameters plus Adam moment state in one flat block.

    ``params`` maps each name, in order, to either a shape, for a parameter
    the store owns, or a ``DiffArray`` that another store owns (two models
    sharing weights), which gets no span and no moments. ``block`` is a
    zeroed float64 array of 4 rows, which may be a row of a buffer several
    stores share; the store keeps the first N columns, the floats of the
    owned parameters in order, and copies nothing in. Its rows hold data,
    gradient and the first and second Adam moments. Every owned parameter's
    ``.data`` and gradient home are views into it.

    A parameter's ``.data`` is a read-only view: weights change only through
    their store, by ``adam_step``, ``assign`` or a whole-row copy into DATA
    (``load_checkpoint``, ``distill.train``'s roll-back), its only writers.

    A parameter's span of the gradient row holds its gradient only while
    ``p.grad is p.grad_home``, between ``backward`` and ``adam_step``:
    ``backward`` writes a parameter's first gradient of a step into the span
    (``matmul`` straight from BLAS, other ops through ``accum_grad``) and adds
    later ones there in place. ``adam_step`` leaves the spent Adam numerator
    in the span of every parameter it moves; a parameter without a gradient
    keeps a stale span.
    """

    def __init__(self, params: Mapping[str, tuple[int, ...] | DiffArray], block: np.ndarray):
        self.params: dict[str, DiffArray] = {}
        self.step_count = 0
        self._spans: dict[str, tuple[DiffArray, int, int]] = {}  # owned: (param, lo, hi)
        lo = 0
        for name, shape in params.items():
            if isinstance(shape, DiffArray):
                self.params[name] = shape
                continue
            hi = lo + math.prod(shape)
            p = DiffArray(block[DATA, lo:hi].reshape(shape), name=name)
            p.data.flags.writeable = False
            p.grad_home = block[GRAD, lo:hi].reshape(shape)
            self.params[name] = p
            self._spans[name] = (p, lo, hi)
            lo = hi
        self.block = block[:, :lo]
        self._scratch = np.empty(min(lo, ADAM_CHUNK))

    def assign(self, values: Mapping[str, np.ndarray]) -> None:
        """Copy each value into the owned parameter of its name, broadcast to
        its shape."""
        unknown = [name for name in values if name not in self._spans]
        if unknown:
            raise KeyError(f"assign: this store owns no parameter {unknown}")
        for name, value in values.items():
            p, lo, hi = self._spans[name]
            self.block[DATA, lo:hi].reshape(p.shape)[...] = value

    def adam_step(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        """One bias-corrected Adam update; grads are consumed (cleared).

        Owned parameters with no accumulated gradient are skipped: neither
        their moments nor their values change. A shared weight is left to
        the store that owns it, so it is updated exactly once per step. The
        touched parameters are grouped into contiguous runs of the block,
        and each run is updated in place, one chunk of ADAM_CHUNK floats at
        a time, with the operation order of the per-parameter update
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
        ``x -= m/c1*lr / (sqrt(v/c2) + eps)``.
        """
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        runs: list[list[int]] = []
        for p, lo, hi in self._spans.values():
            g = p.grad
            if g is None:
                continue
            if g is not p.grad_home:
                p.grad_home[...] = g
            p.grad = None
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        data, grad, m_row, v_row = self.block
        for lo, hi in runs:
            for a in range(lo, hi, ADAM_CHUNK):
                b = min(a + ADAM_CHUNK, hi)
                g, m, v = grad[a:b], m_row[a:b], v_row[a:b]
                tmp = self._scratch[:b - a]
                np.multiply(g, 1.0 - beta1, out=tmp)
                m *= beta1
                m += tmp
                np.multiply(g, 1.0 - beta2, out=tmp)
                tmp *= g
                v *= beta2
                v += tmp
                # The spent gradient holds the numerator, tmp the denominator.
                np.divide(m, c1, out=g)
                g *= lr
                np.divide(v, c2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                g /= tmp
                data[a:b] -= g


@contextmanager
def open_atomic(path, mode: str = "w"):
    """A file to write ``path`` through, opened in ``mode`` (``"w"`` text,
    ``"wb"`` binary): a temp file beside it, renamed into place when the
    block ends and removed when the block fails."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json_atomic(path, obj, **dump_args) -> None:
    """``json.dump`` ``obj`` to ``path`` through ``open_atomic``."""
    with open_atomic(path) as fh:
        json.dump(obj, fh, **dump_args)


def save_checkpoint(path, store: ParamStore) -> None:
    """Write ``store``'s parameters, shared ones included, through
    ``open_atomic`` as one ``.npy`` file: a 1-D float64 vector of the
    parameters' values, concatenated in ``store.params`` order."""
    vector = np.concatenate([p.data.reshape(-1) for p in store.params.values()])
    with open_atomic(path, "wb") as fh:
        np.save(fh, vector, allow_pickle=False)


def load_checkpoint(path, store: ParamStore) -> None:
    """Fill ``store``, which owns all its parameters, from a ``save_checkpoint``
    file, as one assignment to its DATA row.

    The file is memory-mapped, so its header is checked before any data is
    read and a header cannot ask for more memory than the file holds. A file
    that is not a float64 vector of the store's length, or that holds a NaN or
    an infinity, raises a ValueError naming it (and the parameter).
    """
    n = store.block.shape[1]
    try:
        vector = np.load(path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError, OSError) as exc:
        raise ValueError(f"{path}: not a .npy checkpoint ({exc})") from exc
    if not isinstance(vector, np.ndarray):  # a zip archive of arrays (.npz)
        vector.close()
        raise ValueError(f"{path}: a .npz archive, not a .npy checkpoint")
    if vector.dtype != np.float64 or vector.shape != (n,):
        raise ValueError(f"{path}: holds {vector.dtype} of shape {vector.shape}, "
                         f"expected float64 of shape ({n},)")
    if not all_finite(vector):
        first = np.flatnonzero(~np.isfinite(vector))[0]
        name = next(name for name, (_, lo, hi) in store._spans.items() if lo <= first < hi)
        raise ValueError(f"{path}: non-finite value in parameter '{name}'")
    store.block[DATA] = vector
