"""Task heads and the composed model.

Three models share one encoder architecture and differ only in how they
produce the final 3-way tag distribution over {T, V, O}:

- p (parallel): one linear layer per token.
- t (tenor-first): a 2-way stage finds tenor tokens, their pooled state
  conditions a second 3-way stage.
- v (vehicle-first): same with the vehicle extracted first.

Sentence classification reads only the two subsentence states and their
element-wise absolute difference, projected into a label-embedding space.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensorcore as tc
from .corpus import TAG_VALUES, AnnotatedSentence, Vocabulary
from .encoder import (
    EMB_INIT_STD,
    EncoderConfig,
    Param,
    encode_graph,
    encoder_layout,
    glorot,
)
from .hetgraph import BlockGraph, HeteroGraph, join_graphs
from .tensorcore import DATA, GRAD, DiffArray, ParamStore

CLASSES = ("literal", "simile")
CLASS_LITERAL, CLASS_SIMILE = 0, 1

TAG_TO_ID = {t: i for i, t in enumerate(TAG_VALUES)}
TAG_T, TAG_V, TAG_O = TAG_TO_ID["T"], TAG_TO_ID["V"], TAG_TO_ID["O"]

FIRST_O, FIRST_C1 = 0, 1

# The models by name, in selection order, each by the tag its decoder's first
# stage extracts; p decodes in parallel and has no first stage.
FIRST_COMPONENT = {"p": None, "t": "T", "v": "V"}
# Word states live in (0, 1), so plain glorot taggers start nearly flat and
# the fresh ensemble has no content to teach; a wider init gives each
# decoding order a distinct, confident starting opinion.
TAGGER_INIT_GAIN = 4.0

ROLE_OF_TAG = {"T": "tenor", "V": "vehicle"}


@dataclass(frozen=True, slots=True)
class Span:
    start: int  # 1-based, inclusive
    end: int
    role: str  # "tenor" | "vehicle"


@dataclass(slots=True)
class SpanPrediction:
    label: str  # "simile" | "literal"
    p_simile: float
    spans: list[Span] = field(default_factory=list)

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class SimileModel:
    name: str  # a key of FIRST_COMPONENT
    store: ParamStore
    enc: dict[str, DiffArray]
    head: dict[str, DiffArray]
    config: EncoderConfig


def head_layout(name: str, config: EncoderConfig, label_emb_dim: int) -> list[Param]:
    """The head of model ``name``'s parameters, keyed locally, in checkpoint order."""
    if name not in FIRST_COMPONENT:
        raise ValueError(f"unknown model name {name!r}; the models are {list(FIRST_COMPONENT)}")
    d = config.d_model
    layout = [glorot("cls/w", 3 * d, label_emb_dim),
              Param("cls/emb", (len(CLASSES), label_emb_dim), EMB_INIT_STD)]
    if FIRST_COMPONENT[name] is None:
        return layout + [glorot("ext/w", d, 3, TAGGER_INIT_GAIN), Param("ext/b", (3,))]
    return layout + [glorot("first/w", d, 2, TAGGER_INIT_GAIN), Param("first/b", (2,)),
                     glorot("second/w", 2 * d, 3, TAGGER_INIT_GAIN), Param("second/b", (3,))]


def model_layout(name: str, vocab_size: int, n_edge_labels: int, config: EncoderConfig,
                 label_emb_dim: int) -> list[Param]:
    """A model's parameters in the order of its store, checkpoint and
    ``bundle.json`` layout: its encoder's (``enc/``), then its head's (``head/``)."""
    parts = {"enc": encoder_layout(vocab_size, n_edge_labels, config),
             "head": head_layout(name, config, label_emb_dim)}
    return [p._replace(name=f"{part}/{p.name}") for part, ps in parts.items() for p in ps]


def init_models(
    names: Sequence[str],
    layouts: Sequence[list[Param]],
    config: EncoderConfig,
    rng: np.random.Generator | None,
    share_encoder: bool = False,
) -> tuple[list[SimileModel], dict[str, DiffArray], dict[str, DiffArray]]:
    """Models, one per name and its ``model_layout``, and their encoder and
    classifier weights stacked on a model axis: views of the stores, rows of
    one (M, 4, N) buffer of zeros, where every model keeps a weight of its
    encoder or classifier at the same column. Each model draws its encoder,
    then its head, from ``rng`` in layout order, each weight straight into
    its span of the DATA row as ``rng.normal(0.0, std, shape) * gain``; then
    the views, each store's and the stacked ones, are read-only. With
    ``share_encoder`` the others borrow the first model's encoder, a stack of
    one, and leave its columns of their rows unused. Names and shapes alone,
    as ``bundle.json`` records them, draw nothing."""
    buf = np.zeros((len(names), 4, max(sum(math.prod(p.shape) for p in layout)
                                       for layout in layouts)))
    models: list[SimileModel] = []
    cols: dict[str, tuple[int, int, tuple[int, ...]]] = {}  # model 0's spans
    for i, (name, layout) in enumerate(zip(names, layouts)):
        lent = {f"enc/{k}": p for k, p in models[0].enc.items()} if share_encoder and i else {}
        lo = 0
        for p in layout:
            hi = lo + math.prod(p.shape)
            cols.setdefault(p.name, (lo, hi, p.shape))
            if p.std and p.name not in lent:  # into the DATA row, before the store seals it
                np.multiply(rng.normal(0.0, p.std, p.shape), p.gain,
                            out=buf[i, DATA, lo:hi].reshape(p.shape))
            lo = hi
        # A borrowed encoder comes first; the store's own span starts after it.
        skip = sum(p.data.size for p in lent.values())
        store = ParamStore({p.name: lent.get(p.name, p.shape) for p in layout}, buf[i, :, skip:])
        enc, head = ({k[len(side):]: p for k, p in store.params.items() if k.startswith(side)}
                     for side in ("enc/", "head/"))
        models.append(SimileModel(name=name, store=store, enc=models[0].enc if lent else enc,
                                  head=head, config=config))

    def stacked(prefix: str, n: int) -> dict[str, DiffArray]:
        views = {}
        for key, (lo, hi, shape) in cols.items():
            if key.startswith(prefix):
                local = key.split("/", 1)[1]
                views[local] = w = DiffArray(buf[:n, DATA, lo:hi].reshape(n, *shape), name=local)
                w.data.flags.writeable = False
                w.grad_home = buf[:n, GRAD, lo:hi].reshape(w.shape)
        return views

    return (models, stacked("enc/", 1 if share_encoder else len(names)),
            stacked("head/cls/", len(names)))


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def classify(g_final: DiffArray, graph: BlockGraph, head: dict[str, DiffArray]) -> DiffArray:
    """Distribution over {literal, simile} from the subsentence states, one
    (1, 2) row per sentence of the graph; states and weights stacked on a
    model axis (``ModelBundle.head``) give one (B, 2) block per model."""
    g_left = tc.pick_rows(g_final, graph.left_nodes)
    g_right = tc.pick_rows(g_final, graph.right_nodes)
    feat = tc.concat([g_left, g_right, tc.abs_(tc.sub(g_left, g_right))], axis=-1)
    logits = tc.matmul(tc.matmul(feat, head["cls/w"]), tc.transpose(head["cls/emb"]))
    return tc.softmax(logits, axis=-1)


def tag_logits(feat: DiffArray, head: dict[str, DiffArray], stage: str) -> DiffArray:
    """The affine map of one tagger stage: ``ext`` (parallel), ``first`` or
    ``second``."""
    return tc.add(tc.matmul(feat, head[f"{stage}/w"]), head[f"{stage}/b"])


def tag_logits_second(
    words: DiffArray,
    g_c1: DiffArray,
    head: dict[str, DiffArray],
    word_counts: np.ndarray,
) -> DiffArray:
    """Second stage: each word row next to its sentence's pooled component."""
    cond = tc.repeat_row(g_c1, word_counts)
    feat = tc.concat([words, cond], axis=1)
    return tag_logits(feat, head, "second")


def project_first_golds(tags: tuple[str, ...] | list[str], component: str) -> list[int]:
    """Gold targets for the 2-way first stage: component tag -> C1, rest -> O."""
    return [FIRST_C1 if t == component else FIRST_O for t in tags]


@dataclass
class TagForward:
    """Everything the losses and the ensemble need from one tagger pass."""

    final_logits: DiffArray  # (N, 3)
    first_logits: DiffArray | None = None  # (N, 2) for sequential models
    first_golds: list[int] | None = None  # teacher-forcing targets


def forward_tagger(
    model: SimileModel,
    words: DiffArray,
    gold_tags: Sequence[str] | None,
    word_counts: np.ndarray,
) -> TagForward:
    """Final 3-way logits for any model, over the word rows of a batch.

    ``word_counts`` splits the rows into sentences, and
    ``gold_tags`` runs over all of them.  Sequential models pool each
    sentence's first component from gold tags when provided (teacher
    forcing) and from the first stage's argmax otherwise.
    """
    component = FIRST_COMPONENT[model.name]
    if component is None:
        return TagForward(final_logits=tag_logits(words, model.head, "ext"))
    first_logits = tag_logits(words, model.head, "first")
    if gold_tags is not None:
        rows = [i for i, t in enumerate(gold_tags) if t == component]
        first_golds = project_first_golds(gold_tags, component)
    else:
        picked = first_logits.data.argmax(axis=1)
        rows = np.flatnonzero(picked == FIRST_C1)
        first_golds = None
    # Per sentence, the mean state of its first-component rows; a zero row
    # for a sentence with none.
    rows = np.asarray(rows, dtype=np.int64)
    sentence_of = np.repeat(np.arange(word_counts.size), word_counts)
    g_c1 = tc.mean_pool(words, rows, sentence_of[rows], word_counts.size)
    final_logits = tag_logits_second(words, g_c1, model.head, word_counts)
    return TagForward(
        final_logits=final_logits, first_logits=first_logits, first_golds=first_golds
    )


# ---------------------------------------------------------------------------
# span decoding
# ---------------------------------------------------------------------------

def decode_tags(tag_dist: np.ndarray) -> list[str]:
    """Per-token argmax over the (N, 3) rows {T, V, O}, all rows in one pass:
    any tie involving O resolves to O, and a T-V tie to T (the first)."""
    rows = np.asarray(tag_dist)
    best = rows.argmax(axis=1)
    best[rows[:, TAG_O] >= np.maximum.reduce(rows, axis=1)] = TAG_O
    return [TAG_VALUES[i] for i in best.tolist()]


def spans_from_tags(tags: list[str]) -> list[Span]:
    """Maximal runs of identical non-O tags, 1-based inclusive bounds."""
    spans = []
    start = None
    prev = "O"
    for i, tag in enumerate(tags + ["O"], start=1):
        if tag != prev:
            if prev != "O":
                spans.append(Span(start=start, end=i - 1, role=ROLE_OF_TAG[prev]))
            start = i if tag != "O" else None
        prev = tag
    return spans


def decode_spans(tag_dist: np.ndarray) -> list[Span]:
    return spans_from_tags(decode_tags(tag_dist))


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

SIMILE_THRESHOLD = 0.5
# Sentences per joined block when serving a corpus.  Token self-attention is
# dense over a block's tokens, so its cost grows with the square of the chunk.
# One stacked dev evaluation of the three README-config models (3 epochs
# trained) on 100 sentences, blocks joined beforehand (2-core Xeon, one BLAS
# thread, CPU time, median of 9) took 45 ms one sentence at a time, 24 ms in
# chunks of 4, 18 ms in chunks of 8, 17 ms in chunks of 12, 27 ms in chunks
# of 16 and 40 ms in chunks of 32.  Serving one of those models, joins
# included, took 23, 12, 9.2, 8.2, 8.5 and 16 ms.  Chunks of 12 save about
# 1 ms per epoch, inside the run-to-run spread, so the chunk stays at 8.  The
# stacked blocks of 8 left train-wide's peak memory where the per-model ones
# had it (BENCH_36.json).
PREDICT_CHUNK = 8


def predict(
    model: SimileModel,
    sentence: AnnotatedSentence,
    graph: HeteroGraph,
    vocab: Vocabulary,
) -> SpanPrediction:
    """Classify, then extract spans only if the sentence is judged a simile."""
    # The benchmark in perfbench/ calls this form; the graph alone is read.
    return _predict_block([model], graph.block, model.enc, model.head)[0][0]


def join_chunks(graphs: Sequence[HeteroGraph]) -> list[BlockGraph]:
    """The graphs joined in blocks of ``PREDICT_CHUNK``, the last one maybe shorter."""
    return [join_graphs(graphs[lo:lo + PREDICT_CHUNK])
            for lo in range(0, len(graphs), PREDICT_CHUNK)]


def predict_batch(model: SimileModel, graphs: Sequence[HeteroGraph]) -> list[SpanPrediction]:
    """``predict`` for each graph, run on its ``join_chunks`` blocks."""
    return predict_stacked([model], model.enc, model.head, join_chunks(graphs))[0]


def predict_stacked(
    models: Sequence[SimileModel],
    enc: dict[str, DiffArray],
    head: dict[str, DiffArray],
    blocks: Sequence[BlockGraph],
) -> list[list[SpanPrediction]]:
    """Each model's ``predict_batch`` over the sentences of ``blocks``, from one
    pass per block of the models' encoder and classifier weights ``enc`` and
    ``head``, stacked on a model axis as ``init_models`` makes them, or one
    model's own 2-D weights; one list of predictions per model."""
    preds: list[list[SpanPrediction]] = [[] for _ in models]
    for block in blocks:
        for mine, block_preds in zip(preds, _predict_block(models, block, enc, head)):
            mine.extend(block_preds)
    return preds


def _predict_block(
    models: Sequence[SimileModel],
    block: BlockGraph,
    enc: dict[str, DiffArray],
    head: dict[str, DiffArray],
) -> list[list[SpanPrediction]]:
    """``_block_dists`` with numpy's floating-point warnings off, its arrays checked
    once by ``tc.check_finite``, which names the op that made a non-finite value;
    one list of the block's predictions per model."""
    with np.errstate(all="ignore"):
        dists = _block_dists(models, block, enc, head)
        tc.check_finite(*dists)
    p_simile = dists[1].data[..., CLASS_SIMILE]
    word_counts = block.word_counts.tolist()
    preds = []
    for p_model, tag_dist in zip(np.atleast_2d(p_simile), dists[2:]):
        mine = [SpanPrediction(label="literal", p_simile=p) for p in p_model.tolist()]
        lo = 0
        for pred, simile, n in zip(mine, p_model > SIMILE_THRESHOLD, word_counts):
            if simile:
                pred.label = "simile"
                pred.spans = decode_spans(tag_dist.data[lo:lo + n])
                lo += n
        preds.append(mine)
    return preds


def _block_dists(
    models: SimileModel | Sequence[SimileModel],
    block: BlockGraph,
    enc: dict[str, DiffArray] | None = None,
    head: dict[str, DiffArray] | None = None,
) -> tuple[DiffArray, ...]:
    """Final node states and class distribution of every sentence of the block,
    then, per model, the tag distribution of the words of the sentences that
    it judges similes. ``enc`` and ``head`` are one model's own 2-D weights (a
    bare model passes its own) or the models' weights stacked on a model
    axis: either way the encoder and the classifier run once, and each
    model's tagger reads its slice of the states (an encoder shared as a
    stack of one is repeated per model first)."""
    if isinstance(models, SimileModel):
        models, enc, head = [models], models.enc, models.head
    g_final = encode_graph(block, enc, models[0].config)[-1]
    stacked = g_final.data.ndim == 3
    states = g_final
    if stacked and len(g_final.data) < len(models):
        states = tc.repeat_models(g_final, len(models))
    cls_dist = classify(states, block, head)
    similes = cls_dist.data[..., CLASS_SIMILE] > SIMILE_THRESHOLD
    tag_dists = []
    for m, model in enumerate(models):
        judged = similes[m] if stacked else similes
        if not judged.any():
            tag_dists.append(DiffArray(np.empty((0, len(TAG_VALUES)))))
            continue
        mine = tc.model_slice(states, m) if stacked else states
        words = tc.pick_rows(mine, block.word_nodes[np.repeat(judged, block.word_counts)])
        fwd = forward_tagger(model, words, None, block.word_counts[judged])
        tag_dists.append(tc.softmax(fwd.final_logits, axis=-1))
    return g_final, cls_dist, *tag_dists
