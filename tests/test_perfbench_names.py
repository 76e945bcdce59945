"""The benchmark's tracer names library functions; each must still exist.

``perfbench/layers.py`` lists the kernels and tape ops whose spans the
``--trace 1`` coverage gate expects. A deleted or renamed function would
otherwise only show up as a coverage failure of a traced benchmark run.

The tape op census pins how many op nodes a training step and a served
sentence make, and which ops ``layers.OPS`` leaves out of the traced
``tensorcore.ops_per_step``, so a tape that grows or a new op that the
benchmark does not name fails here.
"""

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from simrec import distill, encoder, heads, hetgraph, kernels
from simrec import tensorcore as tc
from simrec.corpus import build_vocab, canonical_sentence

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    # layers.py imports its sibling tracer.py as a top-level module.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("layers")


@pytest.fixture(scope="module")
def small():
    """The train-small workload's sizes: encoder, label embedding and training."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads").SMALL


def assert_public_function(module, name):
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"{module.__name__}.{name} is not a function"
    assert not name.startswith("_")
    assert fn.__module__ == module.__name__


def test_traced_kernels_exist(layers):
    assert layers.KERNELS
    for name in layers.KERNELS:
        assert_public_function(kernels, name)


def test_traced_tape_ops_exist(layers):
    assert layers.OPS
    for op in layers.OPS:
        assert_public_function(tc, layers.OP_FUNCTION.get(op, op))


def test_traced_methods_exist(layers):
    tracer = sys.modules[layers.Tracer.__module__]
    for module, cls, method in tracer.METHODS:
        owner = getattr(importlib.import_module(f"simrec.{module}"), cls)
        assert inspect.isfunction(getattr(owner, method, None)), f"{cls}.{method}"


def test_traced_call_shapes():
    # tracer.py reads gat_layer's layer as args[3], workloads.py calls
    # heads.predict(model, sentence, graph, vocab), and the tracer counts
    # the edges of what build_graph returns.
    assert list(inspect.signature(encoder.gat_layer).parameters)[3] == "layer"
    assert list(inspect.signature(heads.predict).parameters) == [
        "model", "sentence", "graph", "vocab"]
    sentence = canonical_sentence()
    graph = hetgraph.build_graph(sentence, build_vocab([sentence]))
    assert len(graph.edges) == 22


# Op nodes of the tape of one mixed-lambda training step over a batch of the
# train-small workload, plain and with a shared encoder, and of one served
# sentence that the two-stage model ``t`` judges a simile.
STEP_OPS = {False: 68, True: 69}
SERVED_OPS = 35
# Tape ops that ``layers.OPS`` does not name: the traced
# ``tensorcore.ops_per_step`` leaves them out.
UNCOUNTED = {"gat_score", "model_slice", "stack_models", "repeat_models", "sum_all",
             "embed", "attention_scores", "attend"}


def op_census(*outputs):
    """How many nodes of the outputs' tape each op made."""
    return Counter(node.op for node in tc._tape(*outputs) if node.op)


def small_bundle(small, vocab, share_encoder):
    return distill.build_bundle(vocab, small.encoder, np.random.default_rng(0),
                                small.label_emb_dim, share_encoder=share_encoder)


def step_census(small, sents, vocab, share_encoder):
    bundle = small_bundle(small, vocab, share_encoder)
    batch = list(range(small.train.batch_size))
    graphs = [hetgraph.build_graph(s, vocab) for s in sents[:len(batch)]]
    tapes, backward = [], tc.backward

    def counted(*losses):
        tapes.append(op_census(*losses))
        backward(*losses)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tc, "backward", counted)
        distill._batch_step(bundle, sents, graphs, batch, 0.5, small.train)
    (census,) = tapes
    return census


def served_census(small, sent, vocab):
    model = small_bundle(small, vocab, False).models["t"]
    with pytest.MonkeyPatch.context() as mp:
        # The tagger runs only for a sentence judged a simile; below 0 all are.
        mp.setattr(heads, "SIMILE_THRESHOLD", -1.0)
        return op_census(*heads._block_dists(model, hetgraph.build_graph(sent, vocab).block))


@pytest.mark.parametrize("share_encoder", [False, True], ids=["plain", "share-encoder"])
def test_step_tape_op_count(small, small_corpus, small_vocab, share_encoder):
    census = step_census(small, small_corpus, small_vocab, share_encoder)
    assert sum(census.values()) == STEP_OPS[share_encoder], census


def test_served_sentence_tape_op_count(small, small_corpus, small_vocab):
    census = served_census(small, small_corpus[0], small_vocab)
    assert sum(census.values()) == SERVED_OPS, census


def test_tape_ops_the_benchmark_does_not_name(layers, small, small_corpus, small_vocab):
    seen = (set(step_census(small, small_corpus, small_vocab, True))
            | set(served_census(small, small_corpus[0], small_vocab)))
    assert seen - set(layers.OPS) == UNCOUNTED
