"""Per-layer metrics from a traced run, and the traced-run coverage gate.

``<module>.<function>_s`` is the inclusive time of that function's spans,
children included; ``<module>.self_s`` is the self time of every span of
the module, children excluded, so the ``self_s`` figures plus
``trace.harness_s`` add up to the traced phase's wall time.  Times are
totals over the traced phase: one ``train()`` call with its set-up and
held-out serving for the train workloads, one pass of ``load_selected``,
``load_corpus`` and the request stream for predict-serve.

No layer has a queue or a second thread, so no per-layer wait time exists.
"""

from __future__ import annotations

from tracer import Tracer

# Tape ops the model calls, keyed by the op name their result carries.
OPS = (
    "matmul", "transpose", "add", "sub", "scale", "concat", "reshape",
    "leaky_relu", "sigmoid", "softmax", "abs", "pick_rows", "mean_pool",
    "repeat_row", "add_rows_at", "segment_softmax", "segment_aggregate",
    "cross_entropy", "cross_entropy_rows", "kl_divergence",
)
OP_FUNCTION = {"abs": "abs_"}
KERNELS = (
    "segment_softmax", "segment_softmax_grad", "attention_aggregate",
    "attention_aggregate_grad", "scatter_add_rows",
)
EDGE_KERNELS = KERNELS[:4]
MODULES = ("tensorcore", "kernels", "encoder", "heads", "hetgraph", "distill",
           "evalkit", "corpus")

# metric name -> span whose inclusive time it reports
INCLUSIVE = {
    "tensorcore.backward_s": "tensorcore.backward",
    "tensorcore.adam_step_s": "tensorcore.ParamStore.adam_step",
    "encoder.encode_tokens_s": "encoder.encode_tokens",
    "encoder.fuse_definitions_s": "encoder.fuse_definitions",
    "encoder.init_node_states_s": "encoder.init_node_states",
    "encoder.gat_layer.0_s": "encoder.gat_layer.0",
    "encoder.gat_layer.1_s": "encoder.gat_layer.1",
    "heads.classify_s": "heads.classify",
    "heads.forward_tagger_s": "heads.forward_tagger",
    "heads.decode_spans_s": "heads.decode_spans",
    "heads.predict_s": "heads.predict",
    "hetgraph.build_graph_s": "hetgraph.build_graph",
    "distill.forward_sentence_s": "distill.forward_sentence",
    "distill.supervised_loss_s": "distill.supervised_loss",
    "distill.kl_to_ensemble_s": "distill.kl_to_ensemble",
    "distill.ensemble_distribution_s": "distill.ensemble_distribution",
    "distill.evaluate_model_s": "distill.evaluate_model",
    "distill.train_s": "distill.train",
    "distill.build_bundle_s": "distill.build_bundle",
    "distill.load_selected_s": "distill.load_selected",
    "evalkit.score_classification_s": "evalkit.score_classification",
    "evalkit.score_extraction_s": "evalkit.score_extraction",
    "corpus.generate_synthetic_s": "corpus.generate_synthetic",
    "corpus.build_vocab_s": "corpus.build_vocab",
    "corpus.load_corpus_s": "corpus.load_corpus",
}
# metric name -> span whose call count it reports
CALLS = {
    "tensorcore.backward_calls": "tensorcore.backward",
    "tensorcore.adam_step_calls": "tensorcore.ParamStore.adam_step",
    "encoder.encode_graph_calls": "encoder.encode_graph",
    "heads.predict_calls": "heads.predict",
    "hetgraph.build_graph_calls": "hetgraph.build_graph",
}
for _op in OPS:
    _span = f"tensorcore.{OP_FUNCTION.get(_op, _op)}"
    CALLS[f"tensorcore.op.{_op}_calls"] = _span
    INCLUSIVE[f"tensorcore.op.{_op}_s"] = _span
for _k in KERNELS:
    CALLS[f"kernels.{_k}_calls"] = f"kernels.{_k}"
    INCLUSIVE[f"kernels.{_k}_s"] = f"kernels.{_k}"

# name -> (unit, better) of every per-layer metric, in report order
DERIVED = {
    "tensorcore.ops_per_step": ("ops/step", "lower"),
    "tensorcore.nonfinite_errors": ("count", "lower"),
    "kernels.edges_per_call": ("edges/call", "higher"),
    "heads.simile_share": ("ratio", "lower"),
    "hetgraph.edges_per_graph": ("edges/graph", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.harness_s": ("s", "lower"),
    "trace.traced_over_untraced": ("ratio", "higher"),
}
PER_LAYER = {
    **{name: ("s", "lower") for name in INCLUSIVE},
    **{name: ("count", "lower") for name in CALLS},
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **DERIVED,
}

# Spans each workload must fire, and spans it must not.
_SERVING = {
    "hetgraph.build_graph", "heads.predict", "encoder.encode_graph",
    "encoder.encode_tokens", "encoder.init_node_states", "encoder.gat_layer.0",
    "heads.classify", "heads.forward_tagger",
    "kernels.segment_softmax", "kernels.attention_aggregate",
    *(f"tensorcore.{OP_FUNCTION.get(op, op)}" for op in OPS
      if op not in ("add_rows_at", "repeat_row", "cross_entropy",
                    "cross_entropy_rows", "kl_divergence")),
}
_TRAINING = _SERVING | {
    "corpus.generate_synthetic", "corpus.build_vocab", "distill.build_bundle",
    "distill.train", "distill.forward_sentence", "distill.supervised_loss",
    "distill.kl_to_ensemble", "distill.ensemble_distribution",
    "distill.evaluate_model", "distill.select_best",
    "evalkit.score_classification", "evalkit.score_extraction",
    "tensorcore.backward", "tensorcore.ParamStore.adam_step",
    "tensorcore.repeat_row", "tensorcore.cross_entropy", "tensorcore.cross_entropy_rows",
    "tensorcore.kl_divergence", "kernels.segment_softmax_grad",
    "kernels.attention_aggregate_grad", "kernels.scatter_add_rows",
}
_GLOSS = {"encoder.fuse_definitions", "tensorcore.add_rows_at"}
# Spans are decoded only for sentences judged similes, which the short
# train-wide run never produces.
_LEARNED = {"heads.decode_spans"}
COVERAGE = {
    "train-small": (_TRAINING | _GLOSS | _LEARNED, {"encoder.gat_layer.1"}),
    "train-wide": (_TRAINING | {"encoder.gat_layer.1"}, _GLOSS),
    "predict-serve": (
        _SERVING | _GLOSS | _LEARNED | {"distill.load_selected", "corpus.load_corpus"},
        {"tensorcore.backward", "tensorcore.ParamStore.adam_step", "distill.train",
         "distill.supervised_loss", "distill.kl_to_ensemble",
         "kernels.segment_softmax_grad", "kernels.attention_aggregate_grad",
         "kernels.scatter_add_rows", "encoder.gat_layer.1"},
    ),
}


def gate_coverage(tracer: Tracer, workload: str) -> str | None:
    """Every expected span fired, and no span that must stay silent did."""
    return check_coverage(set(tracer.summary()), *COVERAGE[workload])


def check_coverage(fired: set[str], expected: set[str], silent: set[str]) -> str | None:
    missing = sorted(expected - fired)
    unexpected = sorted(silent & fired)
    if not missing and not unexpected:
        return None
    return f"spans missing {missing}, unexpected {unexpected}"


def layer_metrics(tracer: Tracer, workload: str, steps: int,
                  traced_over_untraced: float) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric; a layer the workload never reaches reads 0.

    ``steps`` is the number of sentence x model training steps of the traced
    ``train()`` call, or the number of requests of the traced pass.
    """
    stats = tracer.summary()

    def inclusive(span: str) -> float:
        return stats[span].total_s if span in stats else 0.0

    def calls(span: str) -> int:
        return stats[span].calls if span in stats else 0

    op_spans = tuple(f"tensorcore.{OP_FUNCTION.get(op, op)}" for op in OPS)
    if workload == "predict-serve":
        in_step = tracer.within("heads.predict")
    else:
        in_step = tracer.within("distill.train") & ~tracer.within("heads.predict")
    edges = sum(stats[f"kernels.{k}"].value_sum for k in EDGE_KERNELS if f"kernels.{k}" in stats)
    edge_calls = sum(calls(f"kernels.{k}") for k in EDGE_KERNELS)
    graphs = stats.get("hetgraph.build_graph")
    predicts = calls("heads.predict")

    values: dict[str, float] = {}
    for name, span in INCLUSIVE.items():
        values[name] = inclusive(span)
    for name, span in CALLS.items():
        values[name] = calls(span)
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            s.self_s for n, s in stats.items() if n.split(".", 1)[0] == module)
    values["tensorcore.ops_per_step"] = tracer.count_spans(op_spans, in_step) / steps
    values["tensorcore.nonfinite_errors"] = sum(
        stats[s].errors for s in op_spans if s in stats)
    values["kernels.edges_per_call"] = edges / edge_calls if edge_calls else 0.0
    values["heads.simile_share"] = (
        tracer.children_named("heads.predict", "heads.forward_tagger") / predicts
        if predicts else 0.0)
    values["hetgraph.edges_per_graph"] = graphs.value_sum / graphs.calls if graphs else 0.0
    values["trace.spans"] = sum(s.calls for s in stats.values())
    values["trace.harness_s"] = tracer.wall_seconds() - tracer.root_seconds()
    values["trace.traced_over_untraced"] = traced_over_untraced
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
