"""Joint training of the decoding-order models with ensemble distillation.

Each batch runs every model forward, sums their per-token tag logits into a
constant ensemble target, and optimizes each model on the batch mean of
lambda * supervised + (1 - lambda) * KL(ensemble || model), where lambda
rises linearly from 0 to 1 over training (direction and fixed values are
configurable). The models see the whole batch as one joined graph, and each
batch is one tape: one pass of the models' encoders stacked on a model axis,
then the classifier, the final tag softmax, both cross entropies, the KL to
the ensemble and the loss arithmetic once on that axis; only each model's
tagger runs on its own slice. Model selection afterwards keeps the single
model with the best dev extraction F1.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensorcore as tc
from .corpus import RESERVED_TOKENS, AnnotatedSentence, Vocabulary, read_json, read_record
from .encoder import EncoderConfig, Param, encode_graph
from .evalkit import PRF, report_record, score_classification, score_extraction
from .hetgraph import (
    BlockGraph,
    GraphOptions,
    HeteroGraph,
    build_graph,
    edge_label_index,
    join_graphs,
)
from .heads import (
    CLASS_LITERAL,
    CLASS_SIMILE,
    FIRST_COMPONENT,
    PREDICT_CHUNK,
    TAG_TO_ID,
    SimileModel,
    TagForward,
    classify,
    forward_tagger,
    init_models,
    model_layout,
    predict_batch,
    spans_from_tags,
)
from .tensorcore import DATA, GRAD, DiffArray, NonFiniteError

MODEL_ORDER = tuple(FIRST_COMPONENT)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    alpha: float = 0.1  # weight of the classification term in the supervised loss
    aux_weight: float = 1.0  # weight of the first-stage tagger loss
    seed: int = 0
    lambda_mode: str = "increase"  # increase | decrease | fixed
    lambda_fixed: float = 1.0

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("TrainConfig: alpha must lie in [0, 1]")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("TrainConfig: batch_size and epochs must be >= 1")
        if self.lambda_mode not in ("increase", "decrease", "fixed"):
            raise ValueError(f"TrainConfig: unknown lambda_mode '{self.lambda_mode}'")
        if not 0.0 <= self.lambda_fixed <= 1.0:
            raise ValueError("TrainConfig: lambda_fixed must lie in [0, 1]")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"TrainConfig: learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.aux_weight < math.inf:
            raise ValueError(f"TrainConfig: aux_weight must be finite and non-negative, "
                             f"got {self.aux_weight!r}")
        if self.seed < 0:
            raise ValueError(f"TrainConfig: seed must be non-negative, got {self.seed!r}")


@dataclass
class ModelBundle:
    models: dict[str, SimileModel]  # keyed p/t/v in fixed order
    vocab: Vocabulary
    config: EncoderConfig
    label_emb_dim: int
    enc: dict[str, DiffArray] = field(default_factory=dict)  # stacked encoders (``init_models``)
    head: dict[str, DiffArray] = field(default_factory=dict)  # stacked classifiers, likewise


def check_label_emb_dim(label_emb_dim: int) -> None:
    """Refuse a label embedding width that no head can have."""
    if label_emb_dim < 1:
        raise ValueError(f"label_emb_dim must be positive, got {label_emb_dim!r}")


def check_model_names(names: Iterable[str], where: str) -> None:
    """Refuse a name in ``names``, the field ``where``, that is no model's."""
    unknown = sorted(set(names) - set(MODEL_ORDER))
    if unknown:
        raise ValueError(f"{where} has unknown model names {unknown}; "
                         f"the models are {list(MODEL_ORDER)}")


def check_disabled_models(disabled_models: Sequence[str]) -> None:
    """Refuse models to leave out that are not models, or are all of them."""
    check_model_names(disabled_models, "disable_model")
    if set(disabled_models) >= set(MODEL_ORDER):
        raise ValueError("disable_model: at least one model must stay enabled")


def build_bundle(
    vocab: Vocabulary,
    config: EncoderConfig,
    rng: np.random.Generator,
    label_emb_dim: int = 100,
    disabled_models: tuple[str, ...] = (),
    share_encoder: bool = False,
    top_k_deprels: int = 8,
) -> ModelBundle:
    """Fresh models; ``top_k_deprels`` must match the graphs' ``GraphOptions``."""
    check_disabled_models(disabled_models)
    check_label_emb_dim(label_emb_dim)
    GraphOptions(top_k_deprels=top_k_deprels).validate()
    names = [name for name in MODEL_ORDER if name not in disabled_models]
    n_edge_labels = len(edge_label_index(vocab, top_k_deprels))
    layouts = [model_layout(n, vocab.size, n_edge_labels, config, label_emb_dim) for n in names]
    models, enc, head = init_models(names, layouts, config, rng, share_encoder)
    return ModelBundle(models=dict(zip(names, models)), vocab=vocab, config=config,
                       label_emb_dim=label_emb_dim, enc=enc, head=head)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

@dataclass
class SentenceForward:
    cls_dist: DiffArray  # (B, 2), one row per sentence; (M, B, 2) for M stacked models
    tag_fwds: list[TagForward]  # one per model
    tag_dist: DiffArray  # (N, 3) over the words of all B sentences; (M, N, 3) stacked


def forward_sentence(
    bundle: ModelBundle,
    sentences: Sequence[AnnotatedSentence],
    graph: BlockGraph,
    g_final: DiffArray,
) -> SentenceForward:
    """Every model's heads over the graph ``join_graphs`` made of a batch's
    sentences, from the final node states ``g_final`` stacked on the model
    axis, one slice per model. The classifier and the final tag softmax run
    once on that axis; each tagger reads its model's slice of the word rows,
    and sequential taggers are teacher-forced with the sentences' gold tags."""
    cls_dist = classify(g_final, graph, bundle.head)
    words = tc.pick_rows(g_final, graph.word_nodes)
    gold = [t for s in sentences for t in s.tags]
    tag_fwds = [forward_tagger(model, tc.model_slice(words, m), gold, graph.word_counts)
                for m, model in enumerate(bundle.models.values())]
    logits = tc.stack_models([fwd.final_logits for fwd in tag_fwds])
    return SentenceForward(cls_dist=cls_dist, tag_fwds=tag_fwds,
                           tag_dist=tc.softmax(logits, axis=-1))


def ensemble_forward(bundle: ModelBundle, sentences: Sequence[AnnotatedSentence],
                     graph: BlockGraph) -> tuple[DiffArray, SentenceForward]:
    """The stacked final node states, and ``forward_sentence`` on their tape; a
    shared encoder's states are repeated once per model."""
    g_final = encode_graph(graph, bundle.enc, bundle.config)[-1]
    heads_in = g_final
    if len(g_final.data) < len(bundle.models):
        heads_in = tc.repeat_models(g_final, len(bundle.models))
    return g_final, forward_sentence(bundle, sentences, graph, heads_in)


def ensemble_backward(bundle: ModelBundle, losses: DiffArray) -> None:
    """One sweep from the sum of an ``ensemble_forward`` tape's per-model
    losses; stacked gradients go to each model."""
    tc.backward(tc.sum_all(losses))
    for part in ("enc", "head"):
        for key, w in getattr(bundle, part).items():
            if w.grad is not None:
                w.grad = None
                for model in bundle.models.values():
                    p = getattr(model, part)[key]
                    p.grad = p.grad_home


def supervised_loss(
    out: SentenceForward,
    sentences: Sequence[AnnotatedSentence],
    alpha: float,
    aux_weight: float = 1.0,
) -> DiffArray:
    """alpha * classification loss + (1 - alpha) * tagging loss, one value
    per model of a stacked ``out`` and 0-d for one model's 2-D forward.

    The tagging loss sums per-token cross entropy of the final 3-way
    distribution; sequential models add their first-stage 2-way cross
    entropy, scaled by aux_weight, into the same term.  Both terms are sums
    over the batch's sentences.
    """
    gold_classes = [CLASS_SIMILE if s.is_simile else CLASS_LITERAL for s in sentences]
    j_sc = tc.cross_entropy(out.cls_dist, gold_classes)
    gold_ids = [TAG_TO_ID[t] for s in sentences for t in s.tags]
    j_ce = tc.cross_entropy_rows(out.tag_dist, gold_ids)
    aux = [None if fwd.first_logits is None else tc.cross_entropy_rows(
        tc.softmax(fwd.first_logits, axis=-1), fwd.first_golds) for fwd in out.tag_fwds]
    if any(a is not None for a in aux):
        # A model without a first stage adds a zero.
        aux_term = tc.stack_models(aux) if j_ce.data.ndim else aux[0]
        j_ce = tc.add(j_ce, tc.scale(aux_term, aux_weight))
    return tc.add(tc.scale(j_sc, alpha), tc.scale(j_ce, 1.0 - alpha))


def ensemble_distribution(*logits: np.ndarray) -> np.ndarray:
    """Per-token softmax of the summed logits; a constant training target."""
    if not logits:
        raise ValueError("ensemble_distribution: no logits given")
    first = np.asarray(logits[0])
    total = np.zeros_like(first, dtype=np.float64)
    for z in logits:
        z = np.asarray(z)
        if z.shape != first.shape:
            raise ValueError(
                f"ensemble_distribution: shape mismatch {z.shape} vs {first.shape}"
            )
        total += z
    shifted = total - total.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def kl_to_ensemble(
    tag_dist: DiffArray, ensemble: np.ndarray, word_counts: np.ndarray
) -> DiffArray:
    """Mean over tokens of KL(ensemble || model), one value per model of a
    stacked ``tag_dist``; target is constant.

    ``word_counts`` splits the rows into sentences: each takes the mean over
    its own tokens and the batch the sum of those means.
    """
    per_row = np.repeat(1.0 / np.asarray(word_counts, dtype=np.float64), word_counts)
    return tc.kl_divergence(ensemble, tag_dist, per_row)


def training_lambda(config: TrainConfig, step: int, total_steps: int) -> float:
    """Lambda used at a 0-based optimization step.

    The linear schedule is stretched over total_steps - 1 so the first step
    sees exactly 0 and the last exactly 1 (reversed for 'decrease').
    """
    if config.lambda_mode == "fixed":
        return config.lambda_fixed
    lam = step / max(total_steps - 1, 1)
    return lam if config.lambda_mode == "increase" else 1.0 - lam


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def epoch_batches(
    n_sentences: int, batch_size: int, rng: np.random.Generator
) -> list[list[int]]:
    """Shuffled sentence indices chunked into batches (last may be short)."""
    order = rng.permutation(n_sentences).tolist()
    return [order[i:i + batch_size] for i in range(0, n_sentences, batch_size)]


def _keep_freed_pages() -> None:
    """Keep freed heap memory in the process (glibc; a no-op elsewhere), for good.

    Each step frees its whole tape. By default glibc returns the heap's free
    top to the kernel, and the next step faults those pages in again: 190k
    minor faults per 24 train-wide steps, against 13k with this setting."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library to open, or not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks under 32 MiB come from the heap
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: keep up to 1 GiB free at the heap's top


@dataclass
class TrainResult:
    epoch_logs: list[dict] = field(default_factory=list)
    best: dict[str, dict] = field(default_factory=dict)  # each model's best dev epoch
    # Each store's DATA row at the leader's best epoch, unless that is the last.
    rows: list[np.ndarray] = field(default_factory=list)


def train(
    bundle: ModelBundle,
    train_sents: list[AnnotatedSentence],
    dev_sents: list[AnnotatedSentence],
    config: TrainConfig,
    graph_options: GraphOptions = GraphOptions(),
    log_path: str | os.PathLike | None = None,
) -> TrainResult:
    """Run the full distillation schedule; deterministic under the seed.

    Per epoch the log gains one JSON record with the epoch-end lambda, the
    mean batch loss per model, and dev P/R/F1 per model for both subtasks.
    A non-finite value aborts naming the epoch, the batch and the op or the
    parameter gradient that holds it (``_batch_step``); that step moves nothing. With
    a dev set, every model is rolled back after the schedule to one epoch: the
    best dev epoch of the leader, the model ``select_from_scores`` picks from
    the best records. Each store's whole DATA row is restored, so a shared
    encoder, which lives in the first model's row, comes back with it.
    """
    config.validate()
    graph_options.validate()
    if not train_sents:
        raise ValueError("train: empty training corpus")
    _keep_freed_pages()
    limit = bundle.config.max_tokens
    for corpus_name, corpus in (("train", train_sents), ("dev", dev_sents)):
        for i, sent in enumerate(corpus):
            if len(sent.tokens) > limit:
                raise ValueError(
                    f"train: {corpus_name} sentence {i} has {len(sent.tokens)} tokens, "
                    f"max_tokens is {limit}"
                )
    rng = np.random.default_rng(config.seed)
    train_graphs = [build_graph(s, bundle.vocab, graph_options) for s in train_sents]
    dev_graphs = [build_graph(s, bundle.vocab, graph_options) for s in dev_sents]
    n_batches = math.ceil(len(train_sents) / config.batch_size)
    total_steps = config.epochs * n_batches
    result = TrainResult()
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    step = 0
    try:
        for epoch in range(1, config.epochs + 1):
            epoch_loss = {name: 0.0 for name in bundle.models}
            lam = 0.0
            for bi, batch in enumerate(
                epoch_batches(len(train_sents), config.batch_size, rng), start=1
            ):
                lam = training_lambda(config, step, total_steps)
                try:
                    batch_losses = _batch_step(
                        bundle, train_sents, train_graphs, batch, lam, config
                    )
                except NonFiniteError as exc:
                    raise RuntimeError(
                        f"training aborted: non-finite value in epoch {epoch}, "
                        f"batch {bi}: {exc}"
                    ) from exc
                for name, value in batch_losses.items():
                    epoch_loss[name] += value
                step += 1
            record = {
                "epoch": epoch,
                "lambda": lam,
                "losses": {k: v / n_batches for k, v in epoch_loss.items()},
            }
            if dev_sents:
                dev_scores = {
                    name: evaluate_model(model, dev_sents, dev_graphs)
                    for name, model in bundle.models.items()
                }
                record["dev"] = {
                    name: report_record(scores) for name, scores in dev_scores.items()
                }
                if _track_best(result, dev_scores, epoch):
                    # The old snapshot goes before a new one is taken, so two
                    # are never alive together. The last epoch's rows need no
                    # copy: they stay in place.
                    result.rows = []
                    if epoch < config.epochs:
                        result.rows = [model.store.block[DATA].copy()
                                       for model in bundle.models.values()]
            result.epoch_logs.append(record)
            if log_file:
                log_file.write(json.dumps(record, sort_keys=True) + "\n")
                log_file.flush()
        for model, row in zip(bundle.models.values(), result.rows):
            model.store.block[DATA] = row
    finally:
        if log_file:
            log_file.close()
    return result


def _batch_step(
    bundle: ModelBundle,
    sents: list[AnnotatedSentence],
    graphs: list[HeteroGraph],
    batch: list[int],
    lam: float,
    config: TrainConfig,
) -> dict[str, float]:
    """One optimizer step per model: one tape over the batch's joined graph
    (``ensemble_forward``), its losses one per model, and one backward sweep,
    numpy's float warnings off. ``tc.check_finite`` first checks the final
    node states, the distributions, each first-stage logits and the losses,
    naming the op of a non-finite value; then each gradient row needs a
    finite sum of squares, which Adam forms, or its parameter is named.
    Either way no step is taken."""
    batch_sents = [sents[i] for i in batch]
    block = join_graphs([graphs[i] for i in batch])
    stores = [model.store for model in bundle.models.values()]
    with np.errstate(all="ignore"):
        g_final, out = ensemble_forward(bundle, batch_sents, block)
        if lam < 1.0:
            target = ensemble_distribution(*(fwd.final_logits.data for fwd in out.tag_fwds))
            kl = kl_to_ensemble(out.tag_dist, target, block.word_counts)
        if lam > 0.0:
            sup = supervised_loss(out, batch_sents, config.alpha, config.aux_weight)
        if lam >= 1.0:
            total = sup
        elif lam <= 0.0:
            total = kl
        else:
            total = tc.add(tc.scale(sup, lam), tc.scale(kl, 1.0 - lam))
        losses = tc.scale(total, 1.0 / len(batch))
        tc.check_finite(g_final, out.cls_dist, out.tag_dist, *(
            fwd.first_logits for fwd in out.tag_fwds if fwd.first_logits is not None), losses)
        ensemble_backward(bundle, losses)
        # Adam squares each gradient, so a gradient row needs a finite sum of
        # squares, which also rules out a NaN or an infinity in it.
        sums = [np.dot(store.block[GRAD], store.block[GRAD]) for store in stores]
    if not all(map(tc.all_finite, sums)):
        grads = {(name, pname): p.grad_home.reshape(-1) for name, model in bundle.models.items()
                 for pname, p in model.store.params.items()}
        bad = [key for key, g in grads.items() if not tc.all_finite(g)]
        with np.errstate(over="ignore"):
            name, pname = bad[0] if bad else max(grads, key=lambda k: np.dot(grads[k], grads[k]))
        for store in stores:
            store.block[GRAD] = 0.0
            for p in store.params.values():
                p.grad = None
        what = "non-finite gradient" if bad else "gradient too large to square"
        raise NonFiniteError(f"{what} of model {name!r} parameter {pname!r}")
    for store in stores:
        store.adam_step(config.learning_rate)
    return dict(zip(bundle.models, losses.data.tolist()))


def _track_best(result: TrainResult, dev_scores: dict[str, dict[str, PRF]], epoch: int) -> bool:
    """Record each model's best dev extraction epoch so far; True if that
    makes this epoch the best of the leader, the model ``select_from_scores``
    picks from the records."""
    for name, scores in dev_scores.items():
        f1 = scores["extraction"].f1
        prev = result.best.get(name)
        if prev is not None and f1 <= prev["extraction_f1"]:
            continue
        result.best[name] = {
            "epoch": epoch,
            "extraction_f1": f1,
            "classification_f1": scores["classification"].f1,
        }
    leader = select_from_scores({name: (info["extraction_f1"], info["classification_f1"])
                                 for name, info in result.best.items()})
    return result.best[leader]["epoch"] == epoch


# ---------------------------------------------------------------------------
# evaluation and selection
# ---------------------------------------------------------------------------

def evaluate_model(
    model: SimileModel,
    sents: list[AnnotatedSentence],
    graphs: list[HeteroGraph],
) -> dict[str, PRF]:
    preds = predict_batch(model, graphs)
    cls = score_classification([p.label for p in preds], [s.label for s in sents])
    ext = score_extraction(
        [p.spans for p in preds], [spans_from_tags(list(s.tags)) for s in sents]
    )
    return {"classification": cls, "extraction": ext}


def select_from_scores(scores: dict[str, tuple[float, float]]) -> str:
    """Highest extraction F1; ties fall to classification F1, then p < t < v."""
    if not scores:
        raise ValueError("select_from_scores: no candidates")
    best = None
    for name in MODEL_ORDER:
        if name not in scores:
            continue
        ext, cls = scores[name]
        if best is None or (ext, cls) > (scores[best][0], scores[best][1]):
            best = name
    return best


def select_best(
    bundle: ModelBundle,
    dev_sents: list[AnnotatedSentence],
    graph_options: GraphOptions = GraphOptions(),
) -> tuple[str, dict[str, dict[str, PRF]]]:
    if not dev_sents:
        raise ValueError("select_best: empty dev set")
    graphs = [build_graph(s, bundle.vocab, graph_options) for s in dev_sents]
    all_scores = {
        name: evaluate_model(model, dev_sents, graphs)
        for name, model in bundle.models.items()
    }
    compact = {
        name: (s["extraction"].f1, s["classification"].f1)
        for name, s in all_scores.items()
    }
    return select_from_scores(compact), all_scores


def mean_ensemble_kl(
    bundle: ModelBundle,
    sents: list[AnnotatedSentence],
    graphs: list[HeteroGraph],
) -> dict[str, float]:
    """Mean per-token KL(ensemble || model) over a corpus, per model; the
    corpus runs in joined blocks of ``PREDICT_CHUNK`` sentences. A non-finite
    KL raises at the op that made it (``tc.check_finite``)."""
    totals = np.zeros(len(bundle.models))
    for lo in range(0, len(sents), PREDICT_CHUNK):
        block = join_graphs(graphs[lo:lo + PREDICT_CHUNK])
        _, out = ensemble_forward(bundle, sents[lo:lo + PREDICT_CHUNK], block)
        target = ensemble_distribution(*(fwd.final_logits.data for fwd in out.tag_fwds))
        kl = tc.kl_divergence(target, out.tag_dist)
        tc.check_finite(kl)
        totals += kl.data
    n_tokens = sum(len(s.tokens) for s in sents)
    return dict(zip(bundle.models, (totals / max(n_tokens, 1)).tolist()))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

BUNDLE_META = "bundle.json"


# The JSON kind of each field of ``bundle.json``; a saved selection adds the
# last two.
_BUNDLE_FIELDS = {"encoder": "dict", "label_emb_dim": "int", "layouts": "dict[str, list]",
                  "graph_options": "dict", "vocab": "dict", "selected": "str", "scores": "dict"}


def _layout_record(name: str, bundle: ModelBundle, top_k_deprels: int) -> list[list]:
    """Model ``name``'s ``model_layout`` under ``bundle``'s settings and
    ``top_k_deprels`` as ``bundle.json`` records it: ``[name, shape]`` pairs."""
    n_edge_labels = len(edge_label_index(bundle.vocab, top_k_deprels))
    return [[p.name, list(p.shape)] for p in model_layout(
        name, bundle.vocab.size, n_edge_labels, bundle.config, bundle.label_emb_dim)]


def _first_difference(have: list, want: list) -> tuple | None:
    """None if two layout records agree, else the first index at which they
    differ and each one's entry there (``"nothing"`` past its end)."""
    if have == want:
        return None
    i = next((i for i, pair in enumerate(zip(have, want)) if pair[0] != pair[1]),
             min(len(have), len(want)))
    return (i, *(entries[i] if i < len(entries) else "nothing" for entries in (have, want)))


def save_bundle(
    bundle: ModelBundle,
    out_dir: str | os.PathLike,
    graph_options: GraphOptions = GraphOptions(),
    selected: str | None = None,
    selected_scores: dict | None = None,
) -> None:
    """Write the model directory, each file atomically; ``bundle.json``, the
    directory's one record, goes first and comes back last, after every
    checkpoint, so a failed save leaves no loadable directory. Checkpoints of
    models the bundle lacks and older versions' records are removed with it.
    The record holds the settings, each model's parameter names and shapes in
    checkpoint order (``layouts``), the graph options, the vocabulary and,
    when given, the selected model's name and every model's dev scores.
    Each model's store must hold the layout that it records, which loading
    checks too, or nothing is written."""
    top_k = graph_options.top_k_deprels
    layouts = {name: _layout_record(name, bundle, top_k) for name in bundle.models}
    for name, model in bundle.models.items():
        diff = _first_difference(
            [[pname, list(p.shape)] for pname, p in model.store.params.items()], layouts[name])
        if diff:
            raise ValueError(f"save_bundle: model {name!r} disagrees at parameter {diff[0]} with "
                             f"the layout of its settings and top_k_deprels={top_k}: "
                             f"has {diff[1]}, expected {diff[2]}")
    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, BUNDLE_META)
    if os.path.exists(meta_path):
        os.remove(meta_path)
    # Older directories also kept the vocabulary and the selection in records
    # of their own.
    stale = [f"model_{name}.npy" for name in MODEL_ORDER if name not in bundle.models]
    for file in stale + ["vocab.json", "selected.json"]:
        path = os.path.join(out_dir, file)
        if os.path.exists(path):
            os.remove(path)
    for name, model in bundle.models.items():
        tc.save_checkpoint(os.path.join(out_dir, f"model_{name}.npy"), model.store)
    meta = {
        "encoder": asdict(bundle.config),
        "label_emb_dim": bundle.label_emb_dim,
        "layouts": layouts,
        "graph_options": asdict(graph_options),
        "vocab": asdict(bundle.vocab),
    }
    if selected is not None:
        meta.update(selected=selected, scores=selected_scores or {})
    tc.write_json_atomic(meta_path, meta, indent=2, sort_keys=True)


def _load_meta(
    model_dir: str | os.PathLike,
) -> tuple[dict, ModelBundle, GraphOptions]:
    """The record of ``bundle.json``, a bundle of no models with its shared
    settings and vocabulary, and its graph options."""
    meta_path = os.path.join(model_dir, BUNDLE_META)
    meta = read_record(read_json(meta_path), _BUNDLE_FIELDS, meta_path,
                       optional=("selected", "scores"))
    config = EncoderConfig(**read_record(meta["encoder"], EncoderConfig.__annotations__,
                                         meta_path, "encoder"))
    label_emb_dim = meta["label_emb_dim"]
    opts = GraphOptions(**read_record(meta["graph_options"], GraphOptions.__annotations__,
                                      meta_path, "graph_options"))
    vocab = Vocabulary(**read_record(meta["vocab"], Vocabulary.__annotations__,
                                     meta_path, "vocab"))
    try:
        check_model_names(meta["layouts"], "layouts")
        if not meta["layouts"]:
            raise ValueError("layouts names no model")
        config.validate()
        check_label_emb_dim(label_emb_dim)
        opts.validate()
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc
    ids = vocab.token_to_id
    if sorted(ids.values()) != list(range(len(ids))):
        raise ValueError(f"{meta_path}: vocab.token_to_id ids must be 0..{len(ids) - 1}, each once")
    reserved = [ids.get(token) for token in RESERVED_TOKENS]
    if reserved != list(range(len(RESERVED_TOKENS))):
        raise ValueError(f"{meta_path}: vocab.token_to_id must give {list(RESERVED_TOKENS)} "
                         f"the ids 0-{len(RESERVED_TOKENS) - 1}, not {reserved}")
    shell = ModelBundle(models={}, vocab=vocab, config=config, label_emb_dim=label_emb_dim)
    return meta, shell, opts


def _load_models(model_dir: str | os.PathLike, layouts: dict[str, list], shell: ModelBundle,
                 opts: GraphOptions) -> ModelBundle:
    """``shell`` holding the models that ``layouts`` names. Each recorded layout
    must equal the ``model_layout`` of its settings; only then are the stores
    built from it, drawing nothing, and each checkpoint read into its DATA row."""
    names = list(layouts)
    meta_path = os.path.join(model_dir, BUNDLE_META)
    for name in names:
        diff = _first_difference(layouts[name], _layout_record(name, shell, opts.top_k_deprels))
        if diff:
            raise ValueError(f"{meta_path}: layout of model {name!r} disagrees at parameter "
                             f"{diff[0]}: recorded {diff[1]}, expected {diff[2]}")
    models, enc, head = init_models(
        names,
        [[Param(pname, tuple(shape)) for pname, shape in layouts[name]] for name in names],
        shell.config, None)
    for name, model in zip(names, models):
        path = os.path.join(model_dir, f"model_{name}.npy")
        if not os.path.exists(path):
            raise FileNotFoundError(f"{path}: missing model checkpoint")
        tc.load_checkpoint(path, model.store)
    return replace(shell, models=dict(zip(names, models)), enc=enc, head=head)


def load_selected(
    model_dir: str | os.PathLike,
) -> tuple[str, SimileModel, Vocabulary, GraphOptions]:
    """Load only the dev-selected model, per the single-model inference rule."""
    meta, shell, opts = _load_meta(model_dir)
    meta_path = os.path.join(model_dir, BUNDLE_META)
    if "selected" not in meta:
        raise ValueError(f"{meta_path}: selected is missing")
    name = meta["selected"]
    if name not in meta["layouts"]:
        raise ValueError(f"{meta_path}: selected model {name!r} is not in layouts")
    model = _load_models(model_dir, {name: meta["layouts"][name]}, shell, opts).models[name]
    return name, model, shell.vocab, opts


def load_bundle(
    model_dir: str | os.PathLike,
) -> tuple[ModelBundle, GraphOptions]:
    meta, shell, opts = _load_meta(model_dir)
    return _load_models(model_dir, meta["layouts"], shell, opts), opts
