"""Central finite-difference oracle shared by the gradient-check tests."""

import numpy as np
from modelutil import set_param


def numeric_grads(forward, params, eps=1e-5, store=None):
    """Finite-difference gradients of a scalar ``forward()`` w.r.t. params.

    ``forward`` must recompute the loss from the params' current ``.data``;
    entries are perturbed and restored, through ``store`` for a name of
    ``store.params`` (a store's views are read-only) and in place otherwise.
    """
    grads = {}
    for name, p in params.items():
        if store is not None and name in store.params:
            def put(index, value):
                set_param(store, name, value, index)
        else:
            def put(index, value):
                p.data[index] = value
        g = np.zeros(p.data.shape)
        for index in np.ndindex(p.data.shape):
            saved = p.data[index]
            put(index, saved + eps)
            plus = float(forward())
            put(index, saved - eps)
            minus = float(forward())
            put(index, saved)
            g[index] = (plus - minus) / (2 * eps)
        grads[name] = g
    return grads


def relative_error(analytic, numeric, floor=1e-8):
    """Per-tensor worst absolute deviation over the larger gradient scale."""
    a = np.asarray(analytic)
    n = np.asarray(numeric)
    scale = max(np.abs(a).max(), np.abs(n).max(), floor)
    return float(np.abs(a - n).max() / scale)


def check_grads(forward, params, tol, eps=1e-5, store=None):
    """Run backward once outside, then compare every param's grad to FD."""
    numeric = numeric_grads(forward, params, eps=eps, store=store)
    errors = {}
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        errors[name] = relative_error(analytic, numeric[name])
    worst = max(errors, key=errors.get)
    assert errors[worst] < tol, (
        f"gradient mismatch on '{worst}': relative error {errors[worst]:.3e} "
        f">= {tol:.0e}"
    )
    return errors
