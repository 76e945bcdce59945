"""Sentence encoding: contextual token states, gloss fusion, graph attention.

The token encoder is a compact stand-in for a pretrained transformer:
learned token and position embeddings (one ``tc.embed``) followed by a
configurable number of single-head scaled dot-product self-attention blocks
with residual connections, each ``tc.attention_scores``, ``tc.scale`` and
``tc.attend``. Noun states are then augmented with pooled dictionary-gloss
embeddings, node states are initialized from token states (subsentence
nodes pool their token range), and L graph-attention layers propagate
information along the typed edges.

Every function reads only a ``BlockGraph``, which holds the token and gloss
ids of its sentences, and encodes them at once, each token attending only
within its own sentence; a single sentence is the block of one that
``build_graph`` made. Stacked weights (``ModelBundle.enc``) encode all models
of an ensemble in one pass, of shape (M, rows, d).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc
from .corpus import MAX_TOKENS
from .hetgraph import BlockGraph
from .tensorcore import DiffArray


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 300
    n_selfattn_layers: int = 2
    n_gat_layers: int = 2
    edge_emb_dim: int = 50
    leaky_slope: float = 0.01
    max_tokens: int = 100
    max_positions: int = 128
    use_gloss_fusion: bool = True

    def __post_init__(self) -> None:
        if self.d_model <= 0 or self.edge_emb_dim <= 0:
            raise ValueError("EncoderConfig: dimensions must be positive")
        if self.n_selfattn_layers < 0 or self.n_gat_layers < 0:
            raise ValueError("EncoderConfig: layer counts must be non-negative")
        if not 0 < self.max_tokens <= MAX_TOKENS:
            raise ValueError(f"EncoderConfig: max_tokens must be positive and at most "
                             f"{MAX_TOKENS}, the corpus sentence cap, got {self.max_tokens!r}")
        if self.max_positions < self.max_tokens + 2:
            raise ValueError("EncoderConfig: max_positions must cover max_tokens + 2")
        # Below 0 the GAT score is not monotonic in its logit; from 1 on, not damped.
        if not 0.0 <= self.leaky_slope < 1.0:
            raise ValueError(f"EncoderConfig: leaky_slope must lie in [0, 1), "
                             f"got {self.leaky_slope!r}")


# A parameter of a layout: its name, its shape and the std of the normal draw
# that fills it, times ``gain``. A std of 0.0 draws nothing and leaves zeros.
Param = namedtuple("Param", "name shape std gain", defaults=(0.0, 1.0))


def glorot(name: str, fan_in: int, fan_out: int, gain: float = 1.0) -> Param:
    """A (fan_in, fan_out) weight drawn with the Glorot-normal std, times ``gain``."""
    return Param(name, (fan_in, fan_out), math.sqrt(2.0 / (fan_in + fan_out)), gain)


EMB_INIT_STD = 0.1
# Edge labels must already steer attention at step zero or both subsentence
# nodes aggregate the same neighborhood and their states stay identical.
EDGE_EMB_INIT_STD = 1.0
# The sigmoid gate compresses aggregated values toward 0.5; a wider value
# projection keeps node states spread enough to carry gradient.
GAT_VALUE_GAIN = 4.0
GAT_SCORE_GAIN = 2.0
# Definition content has to outweigh surface identity, otherwise nouns with
# the same definition phrase start no closer than unrelated ones.
GLOSS_W_GAIN = 8.0


def encoder_layout(vocab_size: int, n_edge_labels: int, config: EncoderConfig) -> list[Param]:
    """The encoder's parameters, keyed locally, in checkpoint order: only those
    that ``encode_graph`` reads under ``config``, so the gloss projection only
    with gloss fusion on and the edge table only with a GAT layer."""
    d = config.d_model
    layout = [Param("tok_emb", (vocab_size, d), EMB_INIT_STD),
              Param("pos_emb", (config.max_positions, d), EMB_INIT_STD)]
    for layer in range(config.n_selfattn_layers):
        layout += [glorot(f"sa{layer}/{w}", d, d) for w in ("wq", "wk", "wv")]
    if config.use_gloss_fusion:
        layout += [glorot("gloss/w", d, d, GLOSS_W_GAIN), Param("gloss/b", (d,))]
    if config.n_gat_layers:
        layout.append(Param("edge_emb", (n_edge_labels, config.edge_emb_dim), EDGE_EMB_INIT_STD))
    # ``u`` (node parts) and ``wa`` (edge part) split one glorot score map
    # over [g_i ; g_j ; e_ij], (2d + edge_emb_dim, 1), and share its std.
    score_std = math.sqrt(2.0 / (2 * d + config.edge_emb_dim + 1))
    for layer in range(config.n_gat_layers):
        layout += [Param(f"gat{layer}/u", (d, 2), score_std, GAT_SCORE_GAIN),
                   glorot(f"gat{layer}/wv", d, d, GAT_VALUE_GAIN),
                   Param(f"gat{layer}/wa", (config.edge_emb_dim, 1), score_std, GAT_SCORE_GAIN)]
    return layout


def encode_tokens(
    graph: BlockGraph,
    params: dict[str, DiffArray],
    config: EncoderConfig,
) -> DiffArray:
    """Contextual states, one block of rows per sentence: CLS, tokens 1..N, SEP.

    The batch attends block-diagonally: one score matrix over all of its
    rows, with each row's softmax restricted to its own sentence's block.
    A block of one sentence attends without a mask, which gives the bits of
    an all-True one.
    """
    n = int(graph.word_counts.max())
    if n > config.max_tokens:
        raise ValueError(f"sentence has {n} tokens, limit is {config.max_tokens}")
    mask = None
    if graph.word_counts.size > 1:
        owner = np.repeat(np.arange(graph.word_counts.size), graph.word_counts + 2)
        mask = owner[:, None] == owner[None, :]
    h = tc.embed(params["tok_emb"], graph.token_ids, params["pos_emb"], graph.positions)
    inv_sqrt_d = 1.0 / math.sqrt(config.d_model)
    for layer in range(config.n_selfattn_layers):
        scores = tc.attention_scores(h, params[f"sa{layer}/wq"], params[f"sa{layer}/wk"])
        h = tc.attend(tc.scale(scores, inv_sqrt_d), h, params[f"sa{layer}/wv"], mask)
    return h


def fuse_definitions(
    graph: BlockGraph,
    h: DiffArray,
    params: dict[str, DiffArray],
) -> DiffArray:
    """Add a projected mean-pooled gloss embedding to each glossed noun row."""
    n_glossed = graph.gloss_rows.size
    if not n_glossed:
        return h
    pooled = tc.mean_pool(params["tok_emb"], graph.gloss_ids, graph.gloss_pools, n_glossed)
    delta = tc.add(tc.matmul(pooled, params["gloss/w"]), params["gloss/b"])
    return tc.add_rows_at(h, graph.gloss_rows, delta)


def init_node_states(h: DiffArray, graph: BlockGraph) -> DiffArray:
    """g^(0): word node i takes h_i; subsentence nodes mean-pool their range.

    A merged graph has one global node instead of the two subsentence
    nodes; it starts from the CLS-surrogate state (row 0 of h).  The graph
    lists these rows (``pool_rows``), so a batch pools in one op.
    """
    return tc.mean_pool(h, graph.pool_rows, graph.pool_nodes, graph.n_nodes)


def gat_layer(
    g: DiffArray,
    graph: BlockGraph,
    params: dict[str, DiffArray],
    layer: int,
    config: EncoderConfig,
) -> DiffArray:
    """One graph-attention step over incoming edges.

    For node i with incoming edges from j: score = LeakyReLU(g_i . u_q +
    g_j . u_k + e_ij . a_e), the split score of Velickovic et al. 2018 (Graph
    Attention Networks, section 2.1), with ``u`` = [u_q, u_k] and ``wa`` = a_e
    the layer's parameters. ``tc.gat_score`` forms one logit per node for each
    side and one per edge label, and adds them per edge; no (E, 2d) matrix is
    formed. Attention is a softmax over i's incoming edges, and the update is
    sigmoid of the attention-weighted sum of Wv g_j.
    """
    m = graph.n_nodes
    v = tc.matmul(g, params[f"gat{layer}/wv"])
    score = tc.gat_score(g, params[f"gat{layer}/u"], params[f"gat{layer}/wa"],
                         params["edge_emb"], graph.src_ids, graph.dst_ids, graph.label_ids)
    z = tc.leaky_relu(score, config.leaky_slope)
    alpha = tc.segment_softmax(tc.reshape(z, z.shape[:-1]), graph.dst_ids, m)
    agg = tc.segment_aggregate(alpha, v, graph.src_ids, graph.dst_ids, m)
    return tc.sigmoid(agg)


def encode_graph(
    graph: BlockGraph,
    params: dict[str, DiffArray],
    config: EncoderConfig,
) -> list[DiffArray]:
    """Full pipeline; returns node states per layer, g^(0) through g^(L)."""
    h = encode_tokens(graph, params, config)
    if config.use_gloss_fusion:
        h = fuse_definitions(graph, h, params)
    states = [init_node_states(h, graph)]
    for layer in range(config.n_gat_layers):
        states.append(gat_layer(states[-1], graph, params, layer, config))
    return states
