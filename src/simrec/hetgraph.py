"""Heterogeneous sentence graphs: typed nodes, dependency edges, noun-subsentence edges.

Node ids follow a fixed layout: 0 is the left subsentence, 1..N are word
nodes aligned with 1-based token indices, N+1 is the right subsentence.
With ``no_subsentence_nodes`` the two subsentence nodes collapse into a
single global node with id 0 and the layout becomes 0 (global), 1..N.

Dependency arcs become bidirectional edges sharing one label; nouns emit a
directed edge to each subsentence node labeled by containment (``con`` for
the side holding the noun, ``not-con`` for the other).  Every node carries
a self-loop so no attention neighborhood is empty.

The model reads a ``BlockGraph``: one or more graphs side by side, PyTorch
Geometric style, each sentence's node ids and token rows shifted past those
of the sentences before it.  ``build_graph`` makes a sentence's block of one
(``HeteroGraph.block``); ``join_graphs`` joins a batch's blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .corpus import DEFAULT_NOUN_TAGS, AnnotatedSentence, Vocabulary


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


@dataclass(frozen=True)
class BlockGraph:
    """One or more sentence graphs side by side, with a block-diagonal adjacency.

    Edges, the node of each word, and the token rows (``pool_rows``) whose
    mean starts each node (``pool_nodes``); a sentence's token rows are CLS,
    words 1..N, SEP.  Sentence b's node ids and token rows follow those of
    sentences 0..b-1, and the per-sentence fields (``word_counts``,
    ``left_nodes``, ``right_nodes``) have one entry per sentence.
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


@dataclass
class HeteroGraph:
    n_tokens: int
    node_kinds: list[NodeKind]
    edges: list[tuple[int, int, EdgeLabel]]
    left_node: int
    right_node: int
    left_range: tuple[int, int] | None  # inclusive 1-based token range, None if empty
    right_range: tuple[int, int] | None
    merged: bool
    block: BlockGraph = field(repr=False)  # the model's view: a block of one

    @property
    def n_nodes(self) -> int:
        return len(self.node_kinds)

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
    row_off = np.cumsum([0] + [g.n_tokens + 2 for g in graphs[:-1]])

    def shifted(name: str, offsets: np.ndarray) -> np.ndarray:
        return np.concatenate([getattr(b, name) + off for b, off in zip(blocks, offsets)])

    return BlockGraph(
        n_nodes=int(node_off[-1] + blocks[-1].n_nodes),
        src_ids=shifted("src_ids", node_off),
        dst_ids=shifted("dst_ids", node_off),
        label_ids=np.concatenate([b.label_ids for b in blocks]),
        word_nodes=shifted("word_nodes", node_off),
        word_counts=np.concatenate([b.word_counts for b in blocks]),
        left_nodes=shifted("left_nodes", node_off),
        right_nodes=shifted("right_nodes", node_off),
        pool_rows=shifted("pool_rows", row_off),
        pool_nodes=shifted("pool_nodes", node_off),
    )


def edge_label_index(vocab: Vocabulary, top_k: int = 8) -> dict[EdgeLabel, int]:
    """Dense id per edge label: top-k relations, then other/con/not-con/self."""
    top = vocab.top_deprels(top_k)
    index = {EdgeLabel(EdgeKind.DEP, rel): i for i, rel in enumerate(top)}
    base = len(top)
    index[EdgeLabel(EdgeKind.DEP_OTHER)] = base
    index[EdgeLabel(EdgeKind.NS_CON)] = base + 1
    index[EdgeLabel(EdgeKind.NS_NOT_CON)] = base + 2
    index[EdgeLabel(EdgeKind.SELF_LOOP)] = base + 3
    return index


def build_graph(
    sentence: AnnotatedSentence,
    vocab: Vocabulary,
    options: GraphOptions = GraphOptions(),
) -> HeteroGraph:
    """Construct the typed sentence graph; deterministic and label-blind."""
    n = len(sentence.tokens)
    c = sentence.comparator_index
    top = set(vocab.top_deprels(options.top_k_deprels))
    label_ids_map = edge_label_index(vocab, options.top_k_deprels)

    if options.no_pos:
        word_kinds = [NodeKind.NON_NOUN] * n
        ns_sources = list(range(1, n + 1))
    else:
        word_kinds = [
            NodeKind.NOUN if tok.pos in DEFAULT_NOUN_TAGS else NodeKind.NON_NOUN
            for tok in sentence.tokens
        ]
        ns_sources = [i for i in range(1, n + 1) if word_kinds[i - 1] is NodeKind.NOUN]

    # Word node id always equals the 1-based token index.
    if options.no_subsentence_nodes:
        node_kinds = [NodeKind.SUBSENTENCE] + word_kinds
        left_node = right_node = 0
    else:
        node_kinds = [NodeKind.SUBSENTENCE] + word_kinds + [NodeKind.SUBSENTENCE]
        left_node, right_node = 0, n + 1

    left_range = (1, c - 1) if c > 1 else None
    right_range = (c + 1, n) if c < n else None

    edges: list[tuple[int, int, EdgeLabel]] = []
    if options.no_dependency:
        # Ablation: fully connect word nodes, dropping arc identities.
        other = EdgeLabel(EdgeKind.DEP_OTHER)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    edges.append((i, j, other))
    else:
        for i, tok in enumerate(sentence.tokens, start=1):
            if tok.head == 0:
                continue
            if tok.deprel in top:
                label = EdgeLabel(EdgeKind.DEP, tok.deprel)
            else:
                label = EdgeLabel(EdgeKind.DEP_OTHER)
            edges.append((i, tok.head, label))
            edges.append((tok.head, i, label))

    con = EdgeLabel(EdgeKind.NS_CON)
    not_con = EdgeLabel(EdgeKind.NS_NOT_CON)
    for i in ns_sources:
        if options.no_subsentence_nodes:
            edges.append((i, 0, con))
            continue
        in_left = left_range is not None and left_range[0] <= i <= left_range[1]
        in_right = right_range is not None and right_range[0] <= i <= right_range[1]
        # The comparator itself belongs to neither side.
        edges.append((i, left_node, con if in_left else not_con))
        edges.append((i, right_node, con if in_right else not_con))

    self_loop = EdgeLabel(EdgeKind.SELF_LOOP)
    for node in range(len(node_kinds)):
        edges.append((node, node, self_loop))

    # Initial node states pool token rows: a word node its own row, a
    # subsentence node its side's rows (none when the side is empty), the
    # merged global node the CLS surrogate.
    words = list(range(1, n + 1))
    if options.no_subsentence_nodes:
        pools = [(0, [0])] + [(i, [i]) for i in words]
    else:
        pools = ([(left_node, _range_rows(left_range))] + [(i, [i]) for i in words]
                 + [(right_node, _range_rows(right_range))])
    pool_rows = [r for _, rows in pools for r in rows]
    pool_nodes = [node for node, rows in pools for _ in rows]

    return HeteroGraph(
        n_tokens=n,
        node_kinds=node_kinds,
        edges=edges,
        left_node=left_node,
        right_node=right_node,
        left_range=left_range,
        right_range=right_range,
        merged=options.no_subsentence_nodes,
        block=BlockGraph(
            n_nodes=len(node_kinds),
            src_ids=np.array([e[0] for e in edges], dtype=np.int64),
            dst_ids=np.array([e[1] for e in edges], dtype=np.int64),
            label_ids=np.array([label_ids_map[e[2]] for e in edges], dtype=np.int64),
            word_nodes=np.array(words, dtype=np.int64),
            word_counts=np.array([n], dtype=np.int64),
            left_nodes=np.array([left_node], dtype=np.int64),
            right_nodes=np.array([right_node], dtype=np.int64),
            pool_rows=np.array(pool_rows, dtype=np.int64),
            pool_nodes=np.array(pool_nodes, dtype=np.int64),
        ),
    )


def _range_rows(token_range: tuple[int, int] | None) -> list[int]:
    if token_range is None:
        return []
    lo, hi = token_range
    return list(range(lo, hi + 1))


def neighbors(graph: HeteroGraph, node_id: int) -> set[tuple[int, EdgeLabel]]:
    """Sources of edges pointing into ``node_id`` (self included via its loop)."""
    if not (0 <= node_id < graph.n_nodes):
        raise ValueError(f"node id {node_id} out of range [0, {graph.n_nodes})")
    return {(src, label) for src, dst, label in graph.edges if dst == node_id}


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
