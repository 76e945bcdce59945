"""Model-building shortcuts shared by the tests."""

import math

import numpy as np

from simrec.distill import forward_sentence
from simrec.encoder import encode_graph
from simrec.heads import init_models
from simrec.tensorcore import DiffArray, ParamStore


def param_store(params):
    """A ParamStore over a zeroed block of its own; ``params`` maps each name
    to a shape, or to a DiffArray that the store borrows."""
    n = sum(math.prod(s) for s in params.values() if not isinstance(s, DiffArray))
    return ParamStore(params, np.zeros((4, n)))


def filled_store(arrays):
    """A ``param_store`` of the arrays' shapes that holds their values."""
    store = param_store({name: a.shape for name, a in arrays.items()})
    for name, a in arrays.items():
        store.params[name].data[...] = a
    return store


def drawn_store(layout, rng):
    """The store of ``layout`` alone (one part of a model's), drawn from ``rng``
    by ``init_models``."""
    (model,), _ = init_models([None], [layout], None, rng)
    return model.store


def forward_one(model, sentences, graph):
    """``forward_sentence`` from the model's own 2-D encoder pass."""
    return forward_sentence(model, sentences, graph,
                            encode_graph(graph, model.enc, model.config)[-1])
