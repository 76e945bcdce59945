"""Heterogeneous sentence graphs: typed nodes, dependency edges, noun-subsentence edges.

Node ids follow a fixed layout: 0 is the left subsentence, 1..N are word
nodes aligned with 1-based token indices, N+1 is the right subsentence.
With ``no_subsentence_nodes`` the two subsentence nodes collapse into a
single global node with id 0 and the layout becomes 0 (global), 1..N.

Dependency arcs become bidirectional edges sharing one label; nouns emit a
directed edge to each subsentence node labeled by containment (``con`` for
the side holding the noun, ``not-con`` for the other).  Every node carries
a self-loop so no attention neighborhood is empty.

The model reads only a ``BlockGraph``: one or more graphs side by side,
PyTorch Geometric style, each sentence's node ids, token rows and glossed
nouns shifted past those of the sentences before it.  ``build_graph`` makes
a sentence's block of one (``HeteroGraph.block``), looking up its token and
gloss ids in the vocabulary; ``join_graphs`` joins a batch's blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import CLS_TOKEN, DEFAULT_NOUN_TAGS, SEP_TOKEN, AnnotatedSentence, Vocabulary


class NodeKind(Enum):
    NOUN = "noun"
    NON_NOUN = "non-noun"
    SUBSENTENCE = "subsentence"


class EdgeKind(Enum):
    DEP = "dep"
    DEP_OTHER = "dep_other"
    NS_CON = "ns_con"
    NS_NOT_CON = "ns_not_con"
    SELF_LOOP = "self_loop"


@dataclass(frozen=True)
class EdgeLabel:
    kind: EdgeKind
    rel: str | None = None  # set only for kind == DEP

    def display(self) -> str:
        if self.kind is EdgeKind.DEP:
            return self.rel or "?"
        return {
            EdgeKind.DEP_OTHER: "other",
            EdgeKind.NS_CON: "con",
            EdgeKind.NS_NOT_CON: "not-con",
            EdgeKind.SELF_LOOP: "self",
        }[self.kind]


@dataclass(frozen=True)
class GraphOptions:
    """Graph-construction switches; the last three implement ablation variants."""

    top_k_deprels: int = 8
    no_dependency: bool = False
    no_pos: bool = False
    no_subsentence_nodes: bool = False

    def __post_init__(self) -> None:
        # A negative k would slice the ranking's end off: [:-1] drops the rarest relation.
        if self.top_k_deprels < 0:
            raise ValueError(f"GraphOptions: top_k_deprels must be non-negative, "
                             f"got {self.top_k_deprels!r}")


@dataclass(frozen=True)
class BlockGraph:
    """One or more sentence graphs side by side, with a block-diagonal adjacency.

    Everything the model reads: edges, the node of each word, and the
    token rows.  A sentence's token rows are CLS, words 1..N, SEP
    (``token_ids`` and their ``positions``); ``pool_rows`` lists the rows
    whose mean starts each node (``pool_nodes``), and the gloss words
    (``gloss_ids``) pool per glossed noun (``gloss_pools``) into that
    noun's row (``gloss_rows``).  Sentence b's node ids, token rows and
    glossed nouns follow those of sentences 0..b-1, and the per-sentence
    fields (``word_counts``, ``left_nodes``, ``right_nodes``) have one
    entry per sentence.
    """

    n_nodes: int
    src_ids: np.ndarray = field(repr=False)
    dst_ids: np.ndarray = field(repr=False)
    label_ids: np.ndarray = field(repr=False)
    word_nodes: np.ndarray = field(repr=False)
    word_counts: np.ndarray
    left_nodes: np.ndarray
    right_nodes: np.ndarray
    pool_rows: np.ndarray = field(repr=False)
    pool_nodes: np.ndarray = field(repr=False)
    token_ids: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    gloss_ids: np.ndarray = field(repr=False)
    gloss_pools: np.ndarray = field(repr=False)
    gloss_rows: np.ndarray = field(repr=False)


@dataclass
class HeteroGraph:
    """A sentence's typed graph. Its edges live once, in its block of one:
    ``edges`` reads them back from ``block.src_ids``, ``dst_ids`` and
    ``label_ids`` as (src, dst, label) tuples, in the order they were made."""

    n_tokens: int
    node_kinds: list[NodeKind]
    deprels: list[str]  # the relations whose labels take the first label ids
    left_node: int
    right_node: int
    merged: bool
    block: BlockGraph = field(repr=False)  # the model's view: a block of one

    @property
    def n_nodes(self) -> int:
        return len(self.node_kinds)

    @property
    def edges(self) -> list[tuple[int, int, EdgeLabel]]:
        labels = _edge_labels(self.deprels)
        b = self.block
        return [(src, dst, labels[i]) for src, dst, i in
                zip(b.src_ids.tolist(), b.dst_ids.tolist(), b.label_ids.tolist())]

    def kind_counts(self) -> dict[str, int]:
        counts = {k.value: 0 for k in NodeKind}
        for kind in self.node_kinds:
            counts[kind.value] += 1
        return counts

    def edge_label_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, _, label in self.edges:
            key = label.display()
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def join_graphs(graphs: Sequence[HeteroGraph]) -> BlockGraph:
    """One block graph for a batch; a batch of one is its graph's own block."""
    if not graphs:
        raise ValueError("join_graphs: empty batch")
    if len(graphs) == 1:
        return graphs[0].block
    blocks = [g.block for g in graphs]
    node_off = np.cumsum([0] + [b.n_nodes for b in blocks[:-1]])
    row_off = np.cumsum([0] + [b.token_ids.size for b in blocks[:-1]])
    noun_off = np.cumsum([0] + [b.gloss_rows.size for b in blocks[:-1]])

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(b, name) for b in blocks])

    def shifted(name: str, offsets: np.ndarray) -> np.ndarray:
        return np.concatenate([getattr(b, name) + off for b, off in zip(blocks, offsets)])

    return BlockGraph(
        n_nodes=int(node_off[-1] + blocks[-1].n_nodes),
        src_ids=shifted("src_ids", node_off),
        dst_ids=shifted("dst_ids", node_off),
        label_ids=joined("label_ids"),
        word_nodes=shifted("word_nodes", node_off),
        word_counts=joined("word_counts"),
        left_nodes=shifted("left_nodes", node_off),
        right_nodes=shifted("right_nodes", node_off),
        pool_rows=shifted("pool_rows", row_off),
        pool_nodes=shifted("pool_nodes", node_off),
        token_ids=joined("token_ids"),
        positions=joined("positions"),
        gloss_ids=joined("gloss_ids"),
        gloss_pools=shifted("gloss_pools", noun_off),
        gloss_rows=shifted("gloss_rows", row_off),
    )


def _edge_labels(deprels: Sequence[str]) -> list[EdgeLabel]:
    """Each edge label at its dense id: the relations, then other/con/not-con/self."""
    return [EdgeLabel(EdgeKind.DEP, rel) for rel in deprels] + [
        EdgeLabel(kind) for kind in
        (EdgeKind.DEP_OTHER, EdgeKind.NS_CON, EdgeKind.NS_NOT_CON, EdgeKind.SELF_LOOP)]


def edge_label_index(vocab: Vocabulary, top_k: int) -> dict[EdgeLabel, int]:
    """Dense id per edge label: top-k relations, then other/con/not-con/self."""
    return {label: i for i, label in enumerate(_edge_labels(vocab.top_deprels(top_k)))}


def build_graph(
    sentence: AnnotatedSentence,
    vocab: Vocabulary,
    options: GraphOptions = GraphOptions(),
) -> HeteroGraph:
    """Construct the typed sentence graph, with the token and gloss ids the
    model reads; deterministic and label-blind.

    Each edge takes its dense label id (``edge_label_index``) as it is made,
    and the edge list is kept only as the block's id arrays."""
    n = len(sentence.tokens)
    c = sentence.comparator_index
    top = vocab.top_deprels(options.top_k_deprels)
    rank = {rel: i for i, rel in enumerate(top)}
    other, con, not_con, self_loop = range(len(top), len(top) + 4)  # as in _edge_labels

    if options.no_pos:
        word_kinds = [NodeKind.NON_NOUN] * n
        ns_sources = list(range(1, n + 1))
    else:
        word_kinds = [
            NodeKind.NOUN if tok.pos in DEFAULT_NOUN_TAGS else NodeKind.NON_NOUN
            for tok in sentence.tokens
        ]
        ns_sources = [i for i in range(1, n + 1) if word_kinds[i - 1] is NodeKind.NOUN]

    # Each subsentence node as (node, member words, pooled token rows).  The
    # comparator belongs to neither side, and an empty side pools no rows;
    # the merged global node holds every word and pools the CLS surrogate.
    words = range(1, n + 1)
    if options.no_subsentence_nodes:
        sides = [(0, words, [0])]
    else:
        left, right = range(1, c), range(c + 1, n + 1)
        sides = [(0, left, left), (n + 1, right, right)]
    left_node, right_node = sides[0][0], sides[-1][0]
    # Word node id always equals the 1-based token index.
    node_kinds = [NodeKind.SUBSENTENCE] + word_kinds + [NodeKind.SUBSENTENCE] * (len(sides) - 1)

    # Each edge as three ints: source, destination, label id.
    edges: list[int] = []
    if options.no_dependency:
        # Ablation: fully connect word nodes, dropping arc identities.
        for i in words:
            for j in words:
                if i != j:
                    edges += (i, j, other)
    else:
        for i, tok in enumerate(sentence.tokens, start=1):
            if tok.head == 0:
                continue
            label = rank.get(tok.deprel, other)
            edges += (i, tok.head, label, tok.head, i, label)

    for i in ns_sources:
        for node, members, _ in sides:
            edges += (i, node, con if i in members else not_con)

    for node in range(len(node_kinds)):
        edges += (node, node, self_loop)
    src_ids, dst_ids, label_ids = np.array(edges, dtype=np.int64).reshape(-1, 3).T.copy()

    # Initial node states pool token rows: a word node its own row, a
    # subsentence node its side's rows.
    first, *rest = [(node, rows) for node, _, rows in sides]
    pools = [first] + [(i, [i]) for i in words] + rest
    glossed = sorted(sentence.glosses)
    word_ids = [vocab.token_id(t.surface) for t in sentence.tokens]

    return HeteroGraph(
        n_tokens=n,
        node_kinds=node_kinds,
        deprels=top,
        left_node=left_node,
        right_node=right_node,
        merged=options.no_subsentence_nodes,
        block=BlockGraph(
            n_nodes=len(node_kinds),
            src_ids=src_ids,
            dst_ids=dst_ids,
            label_ids=label_ids,
            word_nodes=np.arange(1, n + 1, dtype=np.int64),
            word_counts=np.array([n], dtype=np.int64),
            left_nodes=np.array([left_node], dtype=np.int64),
            right_nodes=np.array([right_node], dtype=np.int64),
            pool_rows=np.array([r for _, rows in pools for r in rows], dtype=np.int64),
            pool_nodes=np.array([node for node, rows in pools for _ in rows], dtype=np.int64),
            token_ids=np.array([vocab.token_to_id[CLS_TOKEN], *word_ids,
                                vocab.token_to_id[SEP_TOKEN]], dtype=np.int64),
            positions=np.arange(n + 2, dtype=np.int64),
            gloss_ids=np.array([vocab.token_id(w) for i in glossed for w in sentence.glosses[i]],
                               dtype=np.int64),
            gloss_pools=np.array([k for k, i in enumerate(glossed) for _ in sentence.glosses[i]],
                                 dtype=np.int64),
            # Token i sits at row i, below its sentence's CLS row.
            gloss_rows=np.array(glossed, dtype=np.int64),
        ),
    )


_KIND_STYLE = {
    NodeKind.NOUN: ("ellipse", "lightblue"),
    NodeKind.NON_NOUN: ("ellipse", "palegreen"),
    NodeKind.SUBSENTENCE: ("box", "orange"),
}


def _dot_escape(text: str) -> str:
    """``text`` fit for a quoted DOT label: backslashes and quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: HeteroGraph, sentence: AnnotatedSentence) -> str:
    """Deterministic DOT rendering with node kinds and edge labels; token
    surfaces and relations come from the corpus, so labels are escaped."""
    lines = ["digraph sentence_graph {", "  rankdir=LR;"]
    for node, kind in enumerate(graph.node_kinds):
        if kind is NodeKind.SUBSENTENCE:
            if graph.merged:
                text = "global"
            else:
                text = "left" if node == graph.left_node else "right"
        else:
            text = f"{node}:{sentence.tokens[node - 1].surface}"
        shape, color = _KIND_STYLE[kind]
        lines.append(
            f'  n{node} [label="{_dot_escape(text)}", kind="{kind.value}", shape={shape},'
            f' style=filled, fillcolor={color}];'
        )
    for src, dst, label in graph.edges:
        lines.append(f'  n{src} -> n{dst} [label="{_dot_escape(label.display())}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
