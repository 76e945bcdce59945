import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from simrec.corpus import (
    DEFAULT_NOUN_TAGS,
    AnnotatedSentence,
    TokenAnn,
    build_vocab,
    canonical_sentence,
)
from simrec.hetgraph import (
    EdgeKind,
    EdgeLabel,
    GraphOptions,
    NodeKind,
    build_graph,
    edge_label_index,
    join_graphs,
    to_dot,
)


@pytest.fixture()
def fig_graph(fig_sentence):
    vocab = build_vocab([fig_sentence])
    return build_graph(fig_sentence, vocab)


def dep(rel):
    return EdgeLabel(EdgeKind.DEP, rel)


CON = EdgeLabel(EdgeKind.NS_CON)
NOT_CON = EdgeLabel(EdgeKind.NS_NOT_CON)
SELF = EdgeLabel(EdgeKind.SELF_LOOP)


class TestCanonicalOracle:
    """Hand-enumerated expectation for the six-token canonical sentence.

    Tokens: the(1) sheep(2) looks(3) like(4) white(5) clouds(6); comparator
    at 4; arcs 1->2 other, 2->3 nsubj, 3 root, 4->3 prep, 5->6 amod,
    6->4 pobj. Nodes: 0 = left subsentence, 1..6 words, 7 = right.
    """

    def test_node_kinds(self, fig_graph):
        assert fig_graph.node_kinds == [
            NodeKind.SUBSENTENCE,
            NodeKind.NON_NOUN,
            NodeKind.NOUN,
            NodeKind.NON_NOUN,
            NodeKind.NON_NOUN,
            NodeKind.NON_NOUN,
            NodeKind.NOUN,
            NodeKind.SUBSENTENCE,
        ]
        assert fig_graph.kind_counts() == {"noun": 2, "non-noun": 4, "subsentence": 2}

    def test_exact_edge_list(self, fig_graph):
        expected = [
            # dependency arcs, one pair per non-root token, in token order
            (1, 2, dep("other")),
            (2, 1, dep("other")),
            (2, 3, dep("nsubj")),
            (3, 2, dep("nsubj")),
            (4, 3, dep("prep")),
            (3, 4, dep("prep")),
            (5, 6, dep("amod")),
            (6, 5, dep("amod")),
            (6, 4, dep("pobj")),
            (4, 6, dep("pobj")),
            # noun-to-subsentence edges: sheep inside left, clouds inside right
            (2, 0, CON),
            (2, 7, NOT_CON),
            (6, 0, NOT_CON),
            (6, 7, CON),
            # self loops
            (0, 0, SELF),
            (1, 1, SELF),
            (2, 2, SELF),
            (3, 3, SELF),
            (4, 4, SELF),
            (5, 5, SELF),
            (6, 6, SELF),
            (7, 7, SELF),
        ]
        assert fig_graph.edges == expected
        assert len(fig_graph.edges) == 22

    def test_subsentence_ranges(self, fig_graph):
        assert fig_graph.left_node == 0
        assert fig_graph.right_node == 7
        # left pools tokens 1..3, each word its own row, right tokens 5..6
        assert fig_graph.block.pool_rows.tolist() == [1, 2, 3, 1, 2, 3, 4, 5, 6, 5, 6]
        assert fig_graph.block.pool_nodes.tolist() == [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7]

    def test_token_and_gloss_ids(self, fig_graph, fig_sentence):
        vocab = build_vocab([fig_sentence])
        block = fig_graph.block
        surfaces = ["<cls>", "the", "sheep", "looks", "like", "white", "clouds", "<sep>"]
        assert block.token_ids.tolist() == [vocab.token_to_id[t] for t in surfaces]
        assert block.positions.tolist() == list(range(8))
        gloss = ["woolly", "farm", "animal", "drifting", "airy", "sky"]
        assert block.gloss_ids.tolist() == [vocab.token_to_id[w] for w in gloss]
        assert block.gloss_pools.tolist() == [0, 0, 0, 1, 1, 1]
        assert block.gloss_rows.tolist() == [2, 6]

    def test_every_node_has_a_self_loop(self, fig_graph):
        for node in range(fig_graph.n_nodes):
            assert (node, node, SELF) in fig_graph.edges

    def test_deterministic_construction(self, fig_sentence):
        vocab = build_vocab([fig_sentence])
        a = build_graph(fig_sentence, vocab)
        b = build_graph(fig_sentence, vocab)
        assert a.edges == b.edges
        assert (a.block.label_ids == b.block.label_ids).all()


def reference_edges(sentence, vocab, options):
    """The edge list made the long way: one ``EdgeLabel`` per edge, in the
    order ``build_graph`` makes its edges."""
    n, c = len(sentence.tokens), sentence.comparator_index
    top = set(vocab.top_deprels(options.top_k_deprels))
    other = EdgeLabel(EdgeKind.DEP_OTHER)
    words = range(1, n + 1)
    edges = []
    if options.no_dependency:
        edges += [(i, j, other) for i in words for j in words if i != j]
    else:
        for i, tok in enumerate(sentence.tokens, start=1):
            if tok.head:
                label = dep(tok.deprel) if tok.deprel in top else other
                edges += [(i, tok.head, label), (tok.head, i, label)]
    if options.no_subsentence_nodes:
        sides = [(0, words)]
    else:
        sides = [(0, range(1, c)), (n + 1, range(c + 1, n + 1))]
    nouns = [i for i in words if options.no_pos or sentence.tokens[i - 1].pos in DEFAULT_NOUN_TAGS]
    edges += [(i, node, CON if i in members else NOT_CON) for i in nouns for node, members in sides]
    return edges + [(v, v, SELF) for v in range(n + len(sides))]


ABLATIONS = [GraphOptions(), GraphOptions(no_dependency=True), GraphOptions(no_pos=True),
             GraphOptions(no_subsentence_nodes=True)]


class TestEdgeLabelIndex:
    def test_dense_ids_cover_all_labels(self, small_vocab):
        index = edge_label_index(small_vocab, top_k=8)
        n_rels = min(8, len(small_vocab.deprel_ranking))
        assert set(index.values()) == set(range(n_rels + 4))
        assert index[EdgeLabel(EdgeKind.SELF_LOOP)] == n_rels + 3

    @pytest.mark.parametrize("top_k", [0, 2, 8])
    @pytest.mark.parametrize("options", ABLATIONS)
    def test_each_edge_gets_the_index_of_its_label(self, small_corpus, small_vocab, options,
                                                   top_k):
        options = replace(options, top_k_deprels=top_k)
        index = edge_label_index(small_vocab, top_k)
        for sent in small_corpus:
            graph = build_graph(sent, small_vocab, options)
            want = reference_edges(sent, small_vocab, options)
            assert graph.edges == want
            block = graph.block
            assert block.src_ids.tolist() == [src for src, _, _ in want]
            assert block.dst_ids.tolist() == [dst for _, dst, _ in want]
            assert block.label_ids.tolist() == [index[label] for _, _, label in want]

    def test_rare_relation_buckets_to_other(self, small_corpus, small_vocab):
        graph_all = build_graph(
            small_corpus[0], small_vocab, GraphOptions(top_k_deprels=8)
        )
        graph_one = build_graph(
            small_corpus[0], small_vocab, GraphOptions(top_k_deprels=1)
        )
        kinds_all = [lbl.kind for _, _, lbl in graph_all.edges]
        kinds_one = [lbl.kind for _, _, lbl in graph_one.edges]
        assert kinds_one.count(EdgeKind.DEP_OTHER) >= kinds_all.count(EdgeKind.DEP_OTHER)
        assert len(edge_label_index(small_vocab, top_k=1)) == 1 + 4


class TestStructuralRules:
    def test_ns_edge_count_is_twice_nouns(self, small_corpus, small_vocab):
        for sent in small_corpus[:10]:
            graph = build_graph(sent, small_vocab)
            nouns = graph.kind_counts()["noun"]
            ns = [e for e in graph.edges if e[2].kind in (EdgeKind.NS_CON, EdgeKind.NS_NOT_CON)]
            assert len(ns) == 2 * nouns

    def test_dep_edges_paired_and_symmetric(self, small_corpus, small_vocab):
        for sent in small_corpus[:10]:
            graph = build_graph(sent, small_vocab)
            deps = [
                (s, d, lbl) for s, d, lbl in graph.edges
                if lbl.kind in (EdgeKind.DEP, EdgeKind.DEP_OTHER)
            ]
            assert len(deps) == 2 * sum(1 for t in sent.tokens if t.head != 0)
            present = {(s, d) for s, d, _ in deps}
            assert all((d, s) in present for s, d in present)

    def test_comparator_at_edge_leaves_empty_side(self):
        tokens = (
            TokenAnn("like", "CS", 2, "prep"),
            TokenAnn("rivers", "NN", 0, "root"),
        )
        sent = AnnotatedSentence(tokens=tokens, comparator_index=1, tags=("O", "O"))
        vocab = build_vocab([sent])
        graph = build_graph(sent, vocab)
        # the left node (0) pools no rows, the right node (3) token 2's row
        assert graph.block.pool_rows.tolist() == [1, 2, 2]
        assert graph.block.pool_nodes.tolist() == [1, 2, 3]
        assert (2, 0, NOT_CON) in graph.edges
        assert (2, 3, CON) in graph.edges

    def test_comparator_at_last_token_leaves_right_side_empty(self):
        tokens = (
            TokenAnn("rivers", "NN", 0, "root"),
            TokenAnn("like", "CS", 1, "prep"),
        )
        sent = AnnotatedSentence(tokens=tokens, comparator_index=2, tags=("O", "O"))
        graph = build_graph(sent, build_vocab([sent]))
        # the left node (0) pools token 1's row, the right node (3) no rows
        assert graph.block.pool_rows.tolist() == [1, 1, 2]
        assert graph.block.pool_nodes.tolist() == [0, 1, 2]
        assert (1, 0, CON) in graph.edges
        assert (1, 3, NOT_CON) in graph.edges


class TestAblations:
    def test_no_pos_connects_every_word(self, fig_sentence):
        vocab = build_vocab([fig_sentence])
        graph = build_graph(fig_sentence, vocab, GraphOptions(no_pos=True))
        assert graph.kind_counts()["noun"] == 0
        ns = [e for e in graph.edges if e[2].kind in (EdgeKind.NS_CON, EdgeKind.NS_NOT_CON)]
        assert len(ns) == 2 * len(fig_sentence.tokens)

    def test_no_dependency_fully_connects_words(self, fig_sentence):
        vocab = build_vocab([fig_sentence])
        graph = build_graph(fig_sentence, vocab, GraphOptions(no_dependency=True))
        n = len(fig_sentence.tokens)
        deps = [e for e in graph.edges if e[2].kind in (EdgeKind.DEP, EdgeKind.DEP_OTHER)]
        assert len(deps) == n * (n - 1)
        assert all(lbl == EdgeLabel(EdgeKind.DEP_OTHER) for _, _, lbl in deps)

    def test_merged_global_node(self, fig_sentence):
        vocab = build_vocab([fig_sentence])
        graph = build_graph(
            fig_sentence, vocab, GraphOptions(no_subsentence_nodes=True)
        )
        assert graph.merged
        assert graph.n_nodes == len(fig_sentence.tokens) + 1
        assert graph.left_node == graph.right_node == 0
        ns = [e for e in graph.edges if e[2].kind in (EdgeKind.NS_CON, EdgeKind.NS_NOT_CON)]
        assert all(dst == 0 and lbl == CON for _, dst, lbl in ns)
        # the global node pools the CLS row, each word its own row
        assert graph.block.pool_rows.tolist() == list(range(7))
        assert graph.block.pool_nodes.tolist() == list(range(7))


class TestJoinGraphs:
    def test_token_and_gloss_fields_shift_by_row_and_noun_offsets(self, fig_sentence):
        unglossed = AnnotatedSentence(
            tokens=(TokenAnn("it", "PN", 2, "nsubj"), TokenAnn("looks", "VV", 0, "root"),
                    TokenAnn("like", "P", 2, "prep"), TokenAnn("that", "PN", 3, "pobj")),
            comparator_index=3, tags=("O",) * 4,
        )
        short = AnnotatedSentence(
            tokens=(TokenAnn("like", "CS", 2, "prep"), TokenAnn("rivers", "NN", 0, "root")),
            comparator_index=1, glosses={2: ("flowing", "wet", "water")}, tags=("O", "O"),
        )
        sents = [fig_sentence, unglossed, short]
        vocab = build_vocab(sents)
        blocks = [build_graph(s, vocab).block for s in sents]
        joined = join_graphs([build_graph(s, vocab) for s in sents])
        # token rows: 8, 6 and 4; glossed nouns: 2, 0 and 1
        for name in ("token_ids", "positions", "gloss_ids"):
            np.testing.assert_array_equal(
                getattr(joined, name), np.concatenate([getattr(b, name) for b in blocks]))
        np.testing.assert_array_equal(
            joined.gloss_pools, np.concatenate([b.gloss_pools + off
                                                for b, off in zip(blocks, (0, 2, 2))]))
        np.testing.assert_array_equal(
            joined.gloss_rows, np.concatenate([b.gloss_rows + off
                                               for b, off in zip(blocks, (0, 8, 14))]))


DOT_NODE = re.compile(
    r'^  n(\d+) \[label="[^"]*", kind="[a-z-]+", shape=\w+, style=filled,'
    r" fillcolor=\w+\];$"
)
DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="[^"]*"\];$')


class TestDot:
    def test_structure_parses(self, fig_graph, fig_sentence):
        dot = to_dot(fig_graph, fig_sentence)
        lines = dot.strip().split("\n")
        assert lines[0] == "digraph sentence_graph {"
        assert lines[-1] == "}"
        body = lines[1:-1]
        assert body[0] == "  rankdir=LR;"
        nodes = [m for line in body if (m := DOT_NODE.match(line))]
        edges = [m for line in body if (m := DOT_EDGE.match(line))]
        assert len(nodes) == fig_graph.n_nodes
        assert len(edges) == len(fig_graph.edges)
        assert len(nodes) + len(edges) + 1 == len(body)

    def test_con_label_count_matches_graph(self, fig_graph, fig_sentence):
        dot = to_dot(fig_graph, fig_sentence)
        n_con = sum(
            1 for _, _, lbl in fig_graph.edges if lbl == CON
        )
        assert dot.count('label="con"') == n_con
        assert dot.count('label="not-con"') == 2

    def test_deterministic(self, fig_graph, fig_sentence):
        assert to_dot(fig_graph, fig_sentence) == to_dot(fig_graph, fig_sentence)

    def test_edge_references_defined_nodes(self, fig_graph, fig_sentence):
        dot = to_dot(fig_graph, fig_sentence)
        defined = set(re.findall(r"^  n(\d+) \[", dot, flags=re.M))
        for a, b in re.findall(r"^  n(\d+) -> n(\d+) ", dot, flags=re.M):
            assert a in defined and b in defined

    def test_quotes_and_backslashes_are_escaped(self):
        sent = AnnotatedSentence(
            tokens=(TokenAnn('say "hi', "VV", 0, "root"), TokenAnn("like", "CS", 1, 'a"b'),
                    TokenAnn("c:\\", "NN", 2, "pobj")),
            comparator_index=2, tags=("O", "O", "O"),
        )
        dot = to_dot(build_graph(sent, build_vocab([sent])), sent)
        assert '[label="1:say \\"hi",' in dot
        assert '[label="3:c:\\\\",' in dot
        assert 'n2 -> n1 [label="a\\"b"];' in dot
        # With every quoted string taken out, no quote is left over.
        for line in dot.splitlines():
            assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line), line

    @pytest.mark.parametrize("options, digest", [
        (GraphOptions(), "27ea33b354e968e8e3261413bd37ca0c8cad8e38647f576f63e167e66697bde0"),
        (GraphOptions(no_subsentence_nodes=True),
         "7ed3f002d42c7f927394d6dd4fce7f3a59ae57bf39bbeb13ae98321cb0dbdab2"),
    ])
    def test_canonical_bytes_unchanged(self, fig_sentence, options, digest):
        # The canonical sentence has nothing to escape, so escaping must leave
        # its DOT byte for byte as pinned here.
        graph = build_graph(fig_sentence, build_vocab([fig_sentence]), options)
        assert hashlib.sha256(to_dot(graph, fig_sentence).encode()).hexdigest() == digest
