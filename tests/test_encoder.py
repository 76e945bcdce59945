import dataclasses

import numpy as np
import pytest

from gradutil import check_grads
from modelutil import drawn_store
from simrec import encoder as enc
from simrec import tensorcore as tc
from simrec.corpus import AnnotatedSentence, TokenAnn, build_vocab, canonical_sentence
from simrec.encoder import EncoderConfig
from simrec.hetgraph import GraphOptions, build_graph, edge_label_index, join_graphs



def block_of(sent, vocab):
    return build_graph(sent, vocab).block


def make_params(vocab, config, seed=0, n_edge_labels=None):
    if n_edge_labels is None:
        n_edge_labels = len(edge_label_index(vocab, GraphOptions().top_k_deprels))
    store = drawn_store(enc.encoder_layout(vocab.size, n_edge_labels, config),
                        np.random.default_rng(seed))
    return store, store.params


def nounless_sentence():
    """Valid sentence whose tokens are all non-nouns (pronouns and verbs)."""
    return AnnotatedSentence(
        tokens=(
            TokenAnn("it", "PN", 2, "nsubj"),
            TokenAnn("looks", "VV", 0, "root"),
            TokenAnn("like", "P", 2, "prep"),
            TokenAnn("that", "PN", 3, "pobj"),
        ),
        comparator_index=3,
        glosses={},
        label="literal",
        tags=("O", "O", "O", "O"),
    )


class TestConfig:
    def test_defaults_are_valid(self):
        EncoderConfig().validate()

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="dimensions"):
            EncoderConfig(d_model=0).validate()

    def test_rejects_negative_layers(self):
        with pytest.raises(ValueError, match="layer counts"):
            EncoderConfig(n_gat_layers=-1).validate()

    def test_rejects_short_position_table(self):
        with pytest.raises(ValueError, match="max_positions"):
            EncoderConfig(max_tokens=50, max_positions=51).validate()

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), float("-inf"), -0.01, 1.0])
    def test_rejects_leaky_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match=rf"leaky_slope must lie in \[0, 1\), got {slope!r}"):
            EncoderConfig(leaky_slope=slope).validate()

    @pytest.mark.parametrize("slope", [0.0, 0.2, 0.999])
    def test_accepts_leaky_slope_in_unit_interval(self, slope):
        EncoderConfig(leaky_slope=slope).validate()


class TestTokenEncoder:
    def test_row_layout(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        h = enc.encode_tokens(block_of(fig_sentence, vocab), params, tiny_config)
        assert h.data.shape == (len(fig_sentence.tokens) + 2, tiny_config.d_model)

    def test_zero_layers_is_embedding_sum(self, fig_sentence):
        config = EncoderConfig(
            d_model=8, n_selfattn_layers=0, n_gat_layers=1,
            edge_emb_dim=4, max_tokens=10, max_positions=12,
        )
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, config)
        h = enc.encode_tokens(block_of(fig_sentence, vocab), params, config)
        from simrec.corpus import CLS_TOKEN, SEP_TOKEN

        ids = [vocab.token_to_id[CLS_TOKEN]] + [
            vocab.token_id(t.surface) for t in fig_sentence.tokens
        ] + [vocab.token_to_id[SEP_TOKEN]]
        expected = params["tok_emb"].data[ids] + params["pos_emb"].data[: len(ids)]
        np.testing.assert_array_equal(h.data, expected)

    def test_token_identity_matters(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        h = enc.encode_tokens(block_of(fig_sentence, vocab), params, tiny_config)
        swapped_tokens = list(fig_sentence.tokens)
        swapped_tokens[1], swapped_tokens[5] = (
            swapped_tokens[5]._replace(head=swapped_tokens[1].head,
                                       deprel=swapped_tokens[1].deprel),
            swapped_tokens[1]._replace(head=swapped_tokens[5].head,
                                       deprel=swapped_tokens[5].deprel),
        )
        other = dataclasses.replace(fig_sentence, tokens=tuple(swapped_tokens))
        h2 = enc.encode_tokens(block_of(other, vocab), params, tiny_config)
        assert not np.array_equal(h.data, h2.data)

    def test_block_of_one_attends_without_a_mask(self, fig_sentence, tiny_config,
                                                 monkeypatch):
        # Unmasked, a block of one gets the bits an all-True mask gives; a
        # joined block keeps its block-diagonal mask.
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        block = block_of(fig_sentence, vocab)
        masks, attend = [], tc.attend

        def all_true_mask(scores, h, wv, mask=None):
            masks.append(mask)
            all_true = np.ones(scores.shape[-2:], dtype=bool)
            return attend(scores, h, wv, all_true if mask is None else mask)

        h = enc.encode_tokens(block, params, tiny_config)
        monkeypatch.setattr(tc, "attend", all_true_mask)
        np.testing.assert_array_equal(
            enc.encode_tokens(block, params, tiny_config).data, h.data)
        assert masks == [None] * tiny_config.n_selfattn_layers
        enc.encode_tokens(join_graphs([build_graph(fig_sentence, vocab)] * 2), params,
                          tiny_config)
        rows = len(fig_sentence.tokens) + 2
        want = np.kron(np.eye(2, dtype=bool), np.ones((rows, rows), dtype=bool))
        np.testing.assert_array_equal(masks[-1], want)

    def test_too_long_sentence_rejected(self, fig_sentence):
        config = EncoderConfig(d_model=8, max_tokens=3, max_positions=5)
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, config)
        with pytest.raises(ValueError, match="limit"):
            enc.encode_tokens(block_of(fig_sentence, vocab), params, config)


class TestGlossFusion:
    def test_no_glosses_returns_input_unchanged(self, tiny_config):
        sent = nounless_sentence()
        vocab = build_vocab([sent])
        _, params = make_params(vocab, tiny_config)
        block = block_of(sent, vocab)
        h = enc.encode_tokens(block, params, tiny_config)
        assert enc.fuse_definitions(block, h, params) is h

    def test_only_glossed_rows_change(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        block = block_of(fig_sentence, vocab)
        h = enc.encode_tokens(block, params, tiny_config)
        fused = enc.fuse_definitions(block, h, params)
        changed = {
            i for i in range(h.data.shape[0])
            if not np.array_equal(h.data[i], fused.data[i])
        }
        assert changed == set(fig_sentence.glosses)

    def test_delta_matches_numpy_oracle(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        block = block_of(fig_sentence, vocab)
        h = enc.encode_tokens(block, params, tiny_config)
        fused = enc.fuse_definitions(block, h, params)
        tok = params["tok_emb"].data
        w, b = params["gloss/w"].data, params["gloss/b"].data
        for i, gloss in fig_sentence.glosses.items():
            pooled = tok[[vocab.token_id(g) for g in gloss]].mean(axis=0)
            np.testing.assert_allclose(
                fused.data[i], h.data[i] + pooled @ w + b, rtol=1e-12
            )

    def test_identical_glosses_give_identical_deltas(self, fig_sentence, tiny_config):
        gloss = ("woolly", "farm", "animal")
        sent = dataclasses.replace(fig_sentence, glosses={2: gloss, 6: gloss})
        vocab = build_vocab([sent])
        _, params = make_params(vocab, tiny_config)
        block = block_of(sent, vocab)
        h = enc.encode_tokens(block, params, tiny_config)
        fused = enc.fuse_definitions(block, h, params)
        d2 = fused.data[2] - h.data[2]
        d6 = fused.data[6] - h.data[6]
        np.testing.assert_allclose(d2, d6, rtol=1e-12)


class TestNodeStates:
    def test_subsentence_nodes_pool_their_ranges(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(fig_sentence, vocab)
        h = enc.encode_tokens(graph.block, params, tiny_config)
        g0 = enc.init_node_states(h, graph.block)
        assert g0.data.shape == (8, tiny_config.d_model)
        np.testing.assert_allclose(g0.data[0], h.data[1:4].mean(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(g0.data[1:7], h.data[1:7])
        np.testing.assert_allclose(g0.data[7], h.data[5:7].mean(axis=0), rtol=1e-12)

    def test_empty_side_is_zero_vector(self, tiny_config):
        # Comparator in first position leaves no left subsentence tokens.
        sent = AnnotatedSentence(
            tokens=(
                TokenAnn("like", "P", 2, "prep"),
                TokenAnn("rain", "NN", 0, "root"),
            ),
            comparator_index=1,
            glosses={},
            label="literal",
            tags=("O", "O"),
        )
        vocab = build_vocab([sent])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(sent, vocab)
        assert graph.block.pool_rows[graph.block.pool_nodes == graph.left_node].size == 0
        h = enc.encode_tokens(graph.block, params, tiny_config)
        g0 = enc.init_node_states(h, graph.block)
        assert (g0.data[graph.left_node] == 0).all()

    def test_singleton_side_equals_token_state(self, tiny_config):
        sent = nounless_sentence()  # right subsentence is the single token 4
        vocab = build_vocab([sent])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(sent, vocab)
        assert graph.block.pool_rows[graph.block.pool_nodes == graph.right_node].tolist() == [4]
        h = enc.encode_tokens(graph.block, params, tiny_config)
        g0 = enc.init_node_states(h, graph.block)
        np.testing.assert_allclose(g0.data[graph.right_node], h.data[4], rtol=1e-12)

    def test_merged_graph_uses_whole_sentence_row(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(
            fig_sentence, vocab, GraphOptions(no_subsentence_nodes=True)
        )
        h = enc.encode_tokens(graph.block, params, tiny_config)
        g0 = enc.init_node_states(h, graph.block)
        assert g0.data.shape == (7, tiny_config.d_model)
        np.testing.assert_array_equal(g0.data[0], h.data[0])
        np.testing.assert_array_equal(g0.data[1:], h.data[1:7])


def gat_oracle(g, graph, params, layer, slope):
    """Loop-based reimplementation of one graph-attention step: the score
    is the map [u_q ; u_k ; a_e] over [g_i ; g_j ; e_ij]."""
    u = params[f"gat{layer}/u"].data
    wv = params[f"gat{layer}/wv"].data
    wa = params[f"gat{layer}/wa"].data
    edge_emb = params["edge_emb"].data
    v = g @ wv
    feat = np.concatenate(
        [g[graph.dst_ids], g[graph.src_ids], edge_emb[graph.label_ids]], axis=1
    )
    z = (feat @ np.concatenate([u[:, :1], u[:, 1:], wa])).reshape(-1)
    z = np.where(z >= 0, z, slope * z)
    out = np.zeros_like(g)
    for node in range(graph.n_nodes):
        mask = graph.dst_ids == node
        zs = z[mask]
        a = np.exp(zs - zs.max())
        a = a / a.sum()
        out[node] = a @ v[graph.src_ids[mask]]
    return 1.0 / (1.0 + np.exp(-out))


class TestGatLayer:
    def test_matches_loop_oracle(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(fig_sentence, vocab)
        states = enc.encode_graph(graph.block, params, tiny_config)
        g = states[0].data
        for layer in (0, 1):
            expected = gat_oracle(g, graph.block, params, layer, tiny_config.leaky_slope)
            np.testing.assert_allclose(states[layer + 1].data, expected, atol=1e-12)
            g = states[layer + 1].data

    def test_outputs_lie_in_unit_interval(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(fig_sentence, vocab)
        states = enc.encode_graph(graph.block, params, tiny_config)
        for g in states[1:]:
            assert (g.data > 0).all() and (g.data < 1).all()

    def test_self_loop_only_node_reduces_to_sigmoid(self, tiny_config):
        # Without nouns the subsentence nodes receive just their self-loop,
        # so attention is trivially 1 and the update is sigmoid(Wv g).
        sent = nounless_sentence()
        vocab = build_vocab([sent])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(sent, vocab)
        for node in (graph.left_node, graph.right_node):
            incoming = [e for e in graph.edges if e[1] == node]
            assert len(incoming) == 1 and incoming[0][0] == node
        h = enc.encode_tokens(graph.block, params, tiny_config)
        g0 = enc.init_node_states(h, graph.block)
        g1 = enc.gat_layer(g0, graph.block, params, 0, tiny_config)
        wv = params["gat0/wv"].data
        for node in (graph.left_node, graph.right_node):
            expected = 1.0 / (1.0 + np.exp(-(g0.data[node] @ wv)))
            np.testing.assert_allclose(g1.data[node], expected, rtol=1e-10)


class TestGatScore:
    """``tc.gat_score`` gives the score of the (E, 2d + edge_dim) formula,
    ``[g[dst] ; g[src] ; e] @ [u_q ; u_k ; a_e]``, built here from
    ``pick_rows``, ``concat`` and ``matmul``, forward and backward."""

    @pytest.mark.parametrize("models", [(), (3,)], ids=["one-model", "stacked"])
    def test_matches_concat_and_matmul_on_a_block(self, small_corpus, small_vocab, models):
        rng = np.random.default_rng(11)
        picks = rng.choice(len(small_corpus), size=6, replace=False)
        block = join_graphs([build_graph(small_corpus[i], small_vocab) for i in picks])
        d, de, n_labels = 10, 4, len(edge_label_index(small_vocab, GraphOptions().top_k_deprels))

        def leaf(*shape):
            return tc.DiffArray(rng.normal(size=models + shape))

        g, u = leaf(block.n_nodes, d), leaf(d, 2)
        wa, edge_emb = leaf(de, 1), leaf(n_labels, de)
        weights = tc.DiffArray(rng.normal(size=models + (block.src_ids.size, 1)))
        inputs = (g, u, wa, edge_emb)

        def column(j):  # u's column j, as a product with a constant selector
            pick = np.zeros(models + (2, 1))
            pick[..., j, 0] = 1.0
            return tc.matmul(u, tc.DiffArray(pick))

        def grads_of(score):
            tc.backward(tc.sum_all(tc.matmul(tc.transpose(score), weights)))
            grads = [p.grad for p in inputs]
            for p in inputs:
                p.grad = None
            return grads

        split = tc.gat_score(g, u, wa, edge_emb, block.src_ids, block.dst_ids, block.label_ids)
        split_grads = grads_of(split)
        feat = tc.concat([tc.pick_rows(g, block.dst_ids), tc.pick_rows(g, block.src_ids),
                          tc.pick_rows(edge_emb, block.label_ids)], axis=-1)
        joint = tc.matmul(feat, tc.concat([column(0), column(1), wa], axis=-2))
        joint_grads = grads_of(joint)
        assert split.shape == joint.shape == models + (block.src_ids.size, 1)
        np.testing.assert_allclose(split.data, joint.data, rtol=0, atol=1e-12)
        for got, want in zip(split_grads, joint_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestEncodeGraph:
    def test_state_count_and_shapes(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(fig_sentence, vocab)
        states = enc.encode_graph(graph.block, params, tiny_config)
        assert len(states) == tiny_config.n_gat_layers + 1
        for g in states:
            assert g.data.shape == (graph.n_nodes, tiny_config.d_model)

    def test_zero_gat_layers_returns_initial_states(self, fig_sentence):
        config = EncoderConfig(
            d_model=8, n_selfattn_layers=1, n_gat_layers=0,
            edge_emb_dim=4, max_tokens=10, max_positions=12,
        )
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, config)
        graph = build_graph(fig_sentence, vocab)
        states = enc.encode_graph(graph.block, params, config)
        assert len(states) == 1

    def test_gloss_fusion_toggle(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(fig_sentence, vocab)
        off = dataclasses.replace(tiny_config, use_gloss_fusion=False)
        with_gloss = enc.encode_graph(graph.block, params, tiny_config)
        without = enc.encode_graph(graph.block, params, off)
        assert not np.array_equal(with_gloss[-1].data, without[-1].data)
        h = enc.encode_tokens(graph.block, params, off)
        np.testing.assert_array_equal(
            without[0].data, enc.init_node_states(h, graph.block).data
        )

    def test_dependency_ablation_changes_output(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        full = build_graph(fig_sentence, vocab)
        ablated = build_graph(fig_sentence, vocab, GraphOptions(no_dependency=True))
        a = enc.encode_graph(full.block, params, tiny_config)
        b = enc.encode_graph(ablated.block, params, tiny_config)
        assert not np.array_equal(a[-1].data, b[-1].data)

    def test_bitwise_deterministic(self, fig_sentence, tiny_config):
        vocab = build_vocab([fig_sentence])
        _, params = make_params(vocab, tiny_config)
        graph = build_graph(fig_sentence, vocab)
        a = enc.encode_graph(graph.block, params, tiny_config)
        b = enc.encode_graph(graph.block, params, tiny_config)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.data, gb.data)


class TestGradients:
    def test_full_encoder_matches_finite_differences(self, fig_sentence):
        config = EncoderConfig(
            d_model=6, n_selfattn_layers=1, n_gat_layers=1,
            edge_emb_dim=4, max_tokens=8, max_positions=10,
        )
        vocab = build_vocab([fig_sentence])
        store, params = make_params(vocab, config, seed=3)
        graph = build_graph(fig_sentence, vocab)

        def build():
            states = enc.encode_graph(graph.block, params, config)
            return tc.sum_all(states[-1])

        tc.backward(build())
        check_grads(lambda: float(build().data), params, tol=1e-5, store=store)
