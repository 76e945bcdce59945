import numpy as np
import pytest

from gradutil import check_grads
from modelutil import drawn_store, set_param
from simrec import heads
from simrec import tensorcore as tc
from simrec.corpus import build_vocab
from simrec.encoder import EncoderConfig
from simrec.heads import Span, SpanPrediction
from simrec.hetgraph import build_graph, edge_label_index
from simrec.tensorcore import DiffArray


def head_only(name, config, seed=0, label_emb_dim=7):
    store = drawn_store(heads.head_layout(name, config, label_emb_dim),
                        np.random.default_rng(seed))
    return store, store.params


def fresh_models(names, config, rng, vocab_size=20, n_edge_labels=10, share_encoder=False):
    """``init_models`` of the named models' ``model_layout``s, label embeddings of 6."""
    layouts = [heads.model_layout(n, vocab_size, n_edge_labels, config, 6) for n in names]
    return heads.init_models(names, layouts, config, rng, share_encoder)


def softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.fixture
def graph_and_states(fig_sentence, tiny_config, rng):
    vocab = build_vocab([fig_sentence])
    graph = build_graph(fig_sentence, vocab)
    g_final = DiffArray(rng.uniform(0.0, 1.0, size=(graph.n_nodes, tiny_config.d_model)))
    return graph, g_final


class TestClassify:
    def test_is_valid_distribution(self, graph_and_states, tiny_config):
        graph, g_final = graph_and_states
        _, head = head_only("p", tiny_config)
        dist = heads.classify(g_final, graph.block, head)
        assert dist.data.shape == (1, 2)
        np.testing.assert_allclose(dist.data.sum(), 1.0, atol=1e-12)

    def test_matches_numpy_oracle(self, graph_and_states, tiny_config):
        graph, g_final = graph_and_states
        _, head = head_only("p", tiny_config)
        dist = heads.classify(g_final, graph.block, head)
        gl = g_final.data[graph.left_node]
        gr = g_final.data[graph.right_node]
        feat = np.concatenate([gl, gr, np.abs(gl - gr)])[None, :]
        logits = feat @ head["cls/w"].data @ head["cls/emb"].data.T
        np.testing.assert_allclose(dist.data, softmax_np(logits), rtol=1e-12)

    def test_identical_subsentences_zero_difference_feature(
        self, graph_and_states, tiny_config
    ):
        graph, g_final = graph_and_states
        _, head = head_only("p", tiny_config)
        g_final.data[graph.right_node] = g_final.data[graph.left_node]
        dist = heads.classify(g_final, graph.block, head)
        g = g_final.data[graph.left_node]
        feat = np.concatenate([g, g, np.zeros_like(g)])[None, :]
        logits = feat @ head["cls/w"].data @ head["cls/emb"].data.T
        np.testing.assert_allclose(dist.data, softmax_np(logits), rtol=1e-12)

    def test_gradient_against_finite_differences(self, graph_and_states, tiny_config):
        graph, g_final = graph_and_states
        store, head = head_only("p", tiny_config)

        def build():
            return tc.cross_entropy(heads.classify(g_final, graph.block, head), [1])

        tc.backward(build())
        params = {"g": g_final, "cls/w": head["cls/w"], "cls/emb": head["cls/emb"]}
        check_grads(lambda: float(build().data), params, tol=1e-5, store=store)


class TestParallelTagger:
    def test_zero_parameters_give_uniform_rows(self, tiny_config, rng):
        store, head = head_only("p", tiny_config)
        set_param(store, "ext/w", 0.0)
        words = DiffArray(rng.normal(size=(5, tiny_config.d_model)))
        dist = tc.softmax(heads.tag_logits(words, head, "ext"), axis=-1)
        np.testing.assert_allclose(dist.data, 1 / 3, atol=1e-12)

    def test_identical_rows_identical_distributions(self, tiny_config, rng):
        _, head = head_only("p", tiny_config)
        row = rng.normal(size=tiny_config.d_model)
        words = DiffArray(np.stack([row, row, row]))
        dist = tc.softmax(heads.tag_logits(words, head, "ext"), axis=-1).data
        np.testing.assert_array_equal(dist[0], dist[1])
        np.testing.assert_array_equal(dist[1], dist[2])

    def test_matches_affine_oracle(self, tiny_config, rng):
        _, head = head_only("p", tiny_config)
        words = DiffArray(rng.normal(size=(4, tiny_config.d_model)))
        logits = heads.tag_logits(words, head, "ext")
        np.testing.assert_allclose(
            logits.data, words.data @ head["ext/w"].data + head["ext/b"].data,
            rtol=1e-12,
        )


class TestComponentPooling:
    """A sequential tagger conditions its second stage on the mean state of
    each sentence's first-component words."""

    @staticmethod
    def pooled_condition(words, gold, config):
        # With the word rows of second/w zeroed and an identity block on the
        # condition rows, the logits are the pooled state's first 3 columns.
        store, head = head_only("t", config)
        d = config.d_model
        set_param(store, "second/w", 0.0)
        set_param(store, "second/w", np.eye(3), slice(d, d + 3))
        model = heads.SimileModel(
            name="t", store=store, enc={}, head=head, config=config
        )
        fwd = heads.forward_tagger(model, words, gold, np.array([len(gold)]))
        return fwd.final_logits.data

    def test_singleton(self, tiny_config, rng):
        words = DiffArray(rng.normal(size=(4, tiny_config.d_model)))
        out = self.pooled_condition(words, ("O", "O", "T", "O"), tiny_config)
        np.testing.assert_allclose(out, np.tile(words.data[2, :3], (4, 1)))

    def test_empty_gives_zero_row(self, tiny_config, rng):
        words = DiffArray(rng.normal(size=(4, tiny_config.d_model)))
        out = self.pooled_condition(words, ("O", "V", "O", "O"), tiny_config)
        assert out.shape == (4, 3)
        assert (out == 0).all()

    def test_mean_of_selected(self, tiny_config, rng):
        words = DiffArray(rng.normal(size=(5, tiny_config.d_model)))
        out = self.pooled_condition(words, ("O", "T", "O", "O", "T"), tiny_config)
        expected = words.data[[1, 4], :3].mean(axis=0)
        np.testing.assert_allclose(out, np.tile(expected, (5, 1)), rtol=1e-12)


class TestSequentialStages:
    def test_project_first_golds(self):
        assert heads.project_first_golds(["O", "T", "O"], "T") == [0, 1, 0]
        assert heads.project_first_golds(["O", "T", "V"], "V") == [0, 0, 1]
        assert heads.project_first_golds(["O", "O"], "T") == [0, 0]

    def test_teacher_forcing_pools_gold_component(self, tiny_config, rng):
        store, head = head_only("t", tiny_config)
        model = heads.SimileModel(
            name="t", store=store, enc={}, head=head, config=tiny_config
        )
        words = DiffArray(rng.normal(size=(4, tiny_config.d_model)))
        gold = ("O", "T", "T", "O")
        fwd = heads.forward_tagger(model, words, gold, np.array([4]))
        assert fwd.first_golds == [0, 1, 1, 0]
        g_c1 = words.data[[1, 2]].mean(axis=0)
        feat = np.concatenate([words.data, np.tile(g_c1, (4, 1))], axis=1)
        expected = feat @ head["second/w"].data + head["second/b"].data
        np.testing.assert_allclose(fwd.final_logits.data, expected, rtol=1e-12)

    def test_inference_pools_first_stage_argmax(self, tiny_config, rng):
        store, head = head_only("v", tiny_config, seed=4)
        model = heads.SimileModel(
            name="v", store=store, enc={}, head=head, config=tiny_config
        )
        words = DiffArray(rng.normal(size=(6, tiny_config.d_model)))
        fwd = heads.forward_tagger(model, words, None, np.array([6]))
        assert fwd.first_golds is None
        picked = fwd.first_logits.data.argmax(axis=1)
        rows = [i for i, c in enumerate(picked) if c == heads.FIRST_C1]
        g_c1 = (
            words.data[rows].mean(axis=0) if rows
            else np.zeros(tiny_config.d_model)
        )
        feat = np.concatenate([words.data, np.tile(g_c1, (6, 1))], axis=1)
        expected = feat @ head["second/w"].data + head["second/b"].data
        np.testing.assert_allclose(fwd.final_logits.data, expected, rtol=1e-12)

    def test_zeroed_condition_block_reduces_to_parallel_form(self, tiny_config, rng):
        # Killing the pooled-component columns turns the second stage into
        # a per-token affine map, the parallel head's exact shape.
        d = tiny_config.d_model
        store, head = head_only("t", tiny_config)
        set_param(store, "second/w", 0.0, slice(d, None))
        words = DiffArray(rng.normal(size=(5, d)))
        g_c1 = tc.mean_pool(words, [0, 3], [0, 0], 1)
        logits = heads.tag_logits_second(words, g_c1, head, np.array([5]))
        reduced = words.data @ head["second/w"].data[:d] + head["second/b"].data
        np.testing.assert_allclose(logits.data, reduced, atol=1e-12)

    def test_sequential_gradient_with_teacher_forcing(self, tiny_config, rng):
        store, head = head_only("t", tiny_config)
        model = heads.SimileModel(
            name="t", store=store, enc={}, head=head, config=tiny_config
        )
        words = DiffArray(rng.normal(size=(4, tiny_config.d_model)))
        gold = ("O", "T", "T", "O")

        def build():
            fwd = heads.forward_tagger(model, words, gold, np.array([4]))
            dist = tc.softmax(fwd.final_logits, axis=-1)
            first = tc.softmax(fwd.first_logits, axis=-1)
            return tc.add(
                tc.cross_entropy_rows(dist, [2, 0, 0, 2]),
                tc.cross_entropy_rows(first, fwd.first_golds),
            )

        tc.backward(build())
        params = {
            "words": words,
            "first/w": head["first/w"],
            "second/w": head["second/w"],
            "second/b": head["second/b"],
        }
        check_grads(lambda: float(build().data), params, tol=1e-5, store=store)


class TestDecoding:
    def test_tie_with_o_resolves_to_o(self):
        dist = np.array([[1 / 3, 1 / 3, 1 / 3], [0.4, 0.2, 0.4], [0.2, 0.4, 0.4]])
        assert heads.decode_tags(dist) == ["O", "O", "O"]

    def test_tie_of_t_and_v_resolves_to_t(self):
        assert heads.decode_tags(np.array([[0.4, 0.4, 0.2]])) == ["T"]

    def test_zero_rows_decode_to_no_tags(self):
        assert heads.decode_tags(np.empty((0, 3))) == []

    def test_clear_winners(self):
        dist = np.array([[0.7, 0.1, 0.2], [0.1, 0.7, 0.2], [0.1, 0.2, 0.7]])
        assert heads.decode_tags(dist) == ["T", "V", "O"]

    def test_runs_become_spans(self):
        spans = heads.spans_from_tags(["O", "T", "T", "O", "V"])
        assert spans == [Span(2, 3, "tenor"), Span(5, 5, "vehicle")]

    def test_adjacent_distinct_tags_split(self):
        spans = heads.spans_from_tags(["T", "V"])
        assert spans == [Span(1, 1, "tenor"), Span(2, 2, "vehicle")]

    def test_all_o_yields_no_spans(self):
        assert heads.spans_from_tags(["O", "O", "O"]) == []

    def test_span_round_trip_random_sequences(self, rng):
        for _ in range(100):
            tags = list(rng.choice(["T", "V", "O"], size=rng.integers(1, 12)))
            spans = heads.spans_from_tags(tags)
            rebuilt = ["O"] * len(tags)
            for s in spans:
                tag = "T" if s.role == "tenor" else "V"
                for i in range(s.start - 1, s.end):
                    rebuilt[i] = tag
            assert rebuilt == tags

    def test_gold_tags_decode_directly(self, fig_sentence):
        spans = heads.spans_from_tags(list(fig_sentence.tags))
        assert spans == [Span(2, 2, "tenor"), Span(6, 6, "vehicle")]


class TestPredict:
    def make_model(self, fig_sentence, seed=0):
        config = EncoderConfig(
            d_model=10, n_selfattn_layers=1, n_gat_layers=1,
            edge_emb_dim=4, max_tokens=10, max_positions=12,
        )
        vocab = build_vocab([fig_sentence])
        (model,), _, _ = fresh_models(["p"], config, np.random.default_rng(seed),
                                   vocab.size, len(edge_label_index(vocab)))
        return model, vocab, build_graph(fig_sentence, vocab)

    def test_threshold_gates_extraction(self, fig_sentence):
        model, vocab, graph = self.make_model(fig_sentence)
        first = heads.predict(model, fig_sentence, graph, vocab)
        # Swap the class embeddings: the two logits trade places, so the
        # decision flips and both branches get exercised.
        set_param(model.store, "head/cls/emb", model.head["cls/emb"].data[::-1])
        second = heads.predict(model, fig_sentence, graph, vocab)
        np.testing.assert_allclose(
            first.p_simile + second.p_simile, 1.0, atol=1e-12
        )
        low, high = sorted([first, second], key=lambda p: p.p_simile)
        assert low.label == "literal" and low.spans == []
        assert high.label == "simile"

    def test_prediction_record_shape(self, fig_sentence):
        model, vocab, graph = self.make_model(fig_sentence, seed=2)
        pred = heads.predict(model, fig_sentence, graph, vocab)
        rec = pred.to_record()
        assert set(rec) == {"label", "p_simile", "spans"}
        for span in rec["spans"]:
            assert set(span) == {"start", "end", "role"}

    def test_deterministic(self, fig_sentence):
        model, vocab, graph = self.make_model(fig_sentence, seed=5)
        a = heads.predict(model, fig_sentence, graph, vocab)
        b = heads.predict(model, fig_sentence, graph, vocab)
        assert a.to_record() == b.to_record()


    def test_nonfinite_encoder_weight_is_named_by_its_op(self, fig_sentence):
        model, _, graph = self.make_model(fig_sentence)
        set_param(model.store, "enc/gat0/wv", np.nan, (0, 0))
        with pytest.raises(tc.NonFiniteError, match="op 'matmul'"):
            heads.predict_batch(model, [graph, graph])

    def test_nonfinite_query_weight_is_named_by_its_op(self, fig_sentence):
        model, _, graph = self.make_model(fig_sentence)
        set_param(model.store, "enc/sa0/wq", np.nan, (0, 0))
        with pytest.raises(tc.NonFiniteError, match="op 'attention_scores'"):
            heads.predict_batch(model, [graph, graph])

    def test_nonfinite_position_embedding_is_named_by_its_op(self, fig_sentence):
        model, _, graph = self.make_model(fig_sentence)
        set_param(model.store, "enc/pos_emb", np.nan, (0, 0))
        with pytest.raises(tc.NonFiniteError, match="op 'embed'"):
            heads.predict_batch(model, [graph, graph])

    def test_nonfinite_block_runs_its_forward_once(self, fig_sentence, monkeypatch):
        model, _, graph = self.make_model(fig_sentence)
        set_param(model.store, "enc/gat0/wv", np.nan, (0, 0))
        calls = []
        real_dists = heads._block_dists

        def counted(*args):
            calls.append(1)
            return real_dists(*args)

        monkeypatch.setattr(heads, "_block_dists", counted)
        with pytest.raises(tc.NonFiniteError, match="op 'matmul'"):
            heads.predict_batch(model, [graph, graph])
        assert len(calls) == 1

    def test_nonfinite_score_vector_is_named_by_its_op(self, fig_sentence):
        model, _, graph = self.make_model(fig_sentence)
        set_param(model.store, "enc/gat0/u", np.nan, (0, 1))
        with pytest.raises(tc.NonFiniteError, match="op 'gat_score'"):
            heads.predict_batch(model, [graph, graph])


class TestModelSetup:
    def test_unknown_mode_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unknown model name .backwards."):
            head_only("backwards", tiny_config)

    def test_shared_encoder_is_registered_not_copied(self, tiny_config):
        rng = np.random.default_rng(0)
        (base, other), _, _ = fresh_models(["p", "t"], tiny_config, rng,
                                        share_encoder=True)
        assert other.enc is base.enc
        for key, param in base.enc.items():
            assert other.store.params[f"enc/{key}"] is param

    def test_parameter_order_is_the_checkpoint_key_order(self, tiny_config):
        # One self-attention layer and two GAT layers (tiny_config).
        enc_names = [
            "enc/tok_emb", "enc/pos_emb", "enc/sa0/wq", "enc/sa0/wk", "enc/sa0/wv",
            "enc/gloss/w", "enc/gloss/b", "enc/edge_emb",
            "enc/gat0/u", "enc/gat0/wv", "enc/gat0/wa",
            "enc/gat1/u", "enc/gat1/wv", "enc/gat1/wa",
        ]
        cls_names = ["head/cls/w", "head/cls/emb"]
        sequential = [*enc_names, *cls_names,
                      "head/first/w", "head/first/b", "head/second/w", "head/second/b"]
        want = {
            "p": [*enc_names, *cls_names, "head/ext/w", "head/ext/b"],
            "t": sequential,
            "v": sequential,
        }

        def layout(name):
            return [(p.name, p.shape) for p in heads.model_layout(name, 20, 10, tiny_config, 6)]

        def params(model):
            return [(name, p.shape) for name, p in model.store.params.items()]

        rng = np.random.default_rng(0)
        models, _, _ = fresh_models(heads.FIRST_COMPONENT, tiny_config, rng)
        for name, model in zip(heads.FIRST_COMPONENT, models):
            assert list(model.store.params) == want[name]
            assert params(model) == layout(name)
            assert all(np.shares_memory(p.data, model.store.block)
                       for p in model.store.params.values())
        (first, shared), _, _ = fresh_models(["p", "v"], tiny_config, rng,
                                          share_encoder=True)
        assert list(shared.store.params) == sequential
        assert params(first) == layout("p") and params(shared) == layout("v")
        borrowed = [name for name, p in shared.store.params.items()
                    if not np.shares_memory(p.data, shared.store.block)]
        assert borrowed == enc_names
        assert all(shared.store.params[name] is first.store.params[name] for name in enc_names)

    def test_sequential_head_param_names(self, tiny_config):
        _, head = head_only("v", tiny_config)
        assert set(head) == {
            "cls/w", "cls/emb", "first/w", "first/b", "second/w", "second/b"
        }
