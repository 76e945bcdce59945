"""The benchmark's tracer names library functions; each must still exist.

``perfbench/layers.py`` lists the kernels and tape ops whose spans the
``--trace 1`` coverage gate expects. A deleted or renamed function would
otherwise only show up as a coverage failure of a traced benchmark run.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from simrec import encoder, heads, hetgraph, kernels
from simrec import tensorcore as tc
from simrec.corpus import build_vocab, canonical_sentence

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    # layers.py imports its sibling tracer.py as a top-level module.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("layers")


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
