"""Model-building shortcuts shared by the tests."""

import math

import numpy as np

from simrec import tensorcore as tc
from simrec.distill import SentenceForward
from simrec.encoder import Param, encode_graph
from simrec.heads import _block_dists, classify, forward_tagger, init_models
from simrec.tensorcore import DiffArray, ParamStore


def param_store(params):
    """A ParamStore over a zeroed block of its own; ``params`` maps each name
    to a shape, or to a DiffArray that the store borrows."""
    n = sum(math.prod(s) for s in params.values() if not isinstance(s, DiffArray))
    return ParamStore(params, np.zeros((4, n)))


def set_param(store, name, value, index=...):
    """Set ``store``'s parameter ``name``, or its entries at ``index``, to
    ``value``. A parameter's own view is read-only: weights change only
    through ``ParamStore.assign`` (or Adam, or a checkpoint load)."""
    data = store.params[name].data.copy()
    data[index] = value
    store.assign({name: data})


def filled_store(arrays):
    """A ``param_store`` of the arrays' shapes that holds their values."""
    store = param_store({name: a.shape for name, a in arrays.items()})
    for name, a in arrays.items():
        set_param(store, name, a)
    return store


def drawn_store(layout, rng):
    """The store of ``layout`` alone (one part of a model's), drawn from ``rng``
    by ``init_models``."""
    (model,), _, _ = init_models([None], [layout], None, rng)
    return model.store


def forward_one(model, sentences, graph):
    """One model's heads on its own 2-D encoder pass: the per-model form of
    ``distill.forward_sentence``, which the stacked one must match."""
    g_final = encode_graph(graph, model.enc, model.config)[-1]
    words = tc.pick_rows(g_final, graph.word_nodes)
    fwd = forward_tagger(model, words, [t for s in sentences for t in s.tags], graph.word_counts)
    return SentenceForward(cls_dist=classify(g_final, graph, model.head), tag_fwds=[fwd],
                           tag_dist=tc.softmax(fwd.final_logits, axis=-1))


def rebuilt(model):
    """A model built anew from ``model``'s current weights: a store of its
    own that owns every parameter, a borrowed encoder too."""
    layout = [Param(name, p.shape) for name, p in model.store.params.items()]
    (copy,), _, _ = init_models([model.name], [layout], model.config, None)
    copy.store.assign({name: p.data for name, p in model.store.params.items()})
    return copy


def served(model, block):
    """The bytes of every array that serving ``block`` reads its predictions from."""
    return [a.data.tobytes() for a in _block_dists(model, block)]
