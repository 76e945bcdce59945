"""Model-building shortcuts shared by the tests."""

import numpy as np

from simrec.distill import forward_sentence
from simrec.encoder import encode_graph
from simrec.tensorcore import DiffArray, ParamStore


def param_store(params):
    """A ParamStore over a zeroed block of its own."""
    n = sum(np.size(a) for a in params.values() if not isinstance(a, DiffArray))
    return ParamStore(params, np.zeros((4, n)))


def forward_one(model, sentences, graph):
    """``forward_sentence`` from the model's own 2-D encoder pass."""
    return forward_sentence(model, sentences, graph,
                            encode_graph(graph, model.enc, model.config)[-1])
