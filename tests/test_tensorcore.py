import gc
import math
import weakref

import numpy as np
import pytest

from gradutil import check_grads, numeric_grads, relative_error
from modelutil import filled_store, param_store
from simrec import tensorcore as tc
from simrec.tensorcore import DiffArray, NonFiniteError, ShapeError


def leaf(rng, *shape):
    return DiffArray(rng.normal(size=shape))


def signed_zeros(rng, *shape):
    """Normal draws with -0.0 at every other row's every third column."""
    g = rng.normal(size=shape)
    g[..., ::2, 1::3] = -0.0
    return g


class TestForwardValues:
    def test_softmax_uniform_on_equal_logits(self):
        out = tc.softmax(DiffArray([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, 1 / 3)

    def test_leaky_relu_definition(self):
        out = tc.leaky_relu(DiffArray([-1.0, 2.0]), slope=0.01)
        np.testing.assert_allclose(out.data, [-0.01, 2.0])

    def test_leaky_relu_gradient_on_negative_side(self):
        x = DiffArray([-1.0])
        tc.backward(tc.sum_all(tc.leaky_relu(x, slope=0.01)))
        np.testing.assert_allclose(x.grad, [0.01])

    def test_cross_entropy_perfect_prediction(self):
        assert float(tc.cross_entropy(DiffArray([[1.0, 0.0]]), [0]).data) == 0.0

    def test_cross_entropy_half(self):
        out = tc.cross_entropy(DiffArray([[0.5, 0.5]]), [1])
        np.testing.assert_allclose(float(out.data), math.log(2), rtol=1e-12)

    def test_cross_entropy_requires_distribution(self):
        with pytest.raises(ShapeError, match="sums to"):
            tc.cross_entropy(DiffArray([[0.9, 0.3]]), [0])

    def test_cross_entropy_gold_out_of_range(self):
        with pytest.raises(ShapeError, match="out of range"):
            tc.cross_entropy(DiffArray([[0.5, 0.5]]), [2])

    def test_kl_identical_distributions_is_zero(self):
        p = np.array([[0.3, 0.7]])
        q = DiffArray([[0.3, 0.7]])
        assert float(tc.kl_divergence(p, q).data) == 0.0

    def test_kl_analytic_value(self):
        p = np.array([1.0, 0.0])
        q = DiffArray([0.5, 0.5])
        np.testing.assert_allclose(
            float(tc.kl_divergence(p, q).data), math.log(2), rtol=1e-12
        )

    def test_kl_rejects_non_distribution_target(self):
        with pytest.raises(ShapeError, match="not a distribution"):
            tc.kl_divergence(np.array([0.9, 0.4]), DiffArray([0.5, 0.5]))

    def test_kl_rejects_a_nan_target(self):
        # A NaN sum compares False with any bound, so it must fail the check,
        # not pass it; dropped as a zero entry, it read as a divergence.
        p = np.array([[0.5, np.nan], [0.3, 0.7]])
        with pytest.raises(ShapeError, match="not a distribution"):
            tc.kl_divergence(p, DiffArray([[0.5, 0.5], [0.5, 0.5]]))

    def test_cross_entropy_rows_rejects_a_nan_distribution(self):
        dist = DiffArray([[0.25, 0.25, 0.5], [np.nan, 0.5, 0.5]])
        with pytest.raises(ShapeError, match="sums to nan"):
            tc.cross_entropy_rows(dist, [2, 1])

    def test_mean_pool_empty_selection_is_zero(self):
        out = tc.mean_pool(DiffArray(np.ones((4, 3))), [], [], 1)
        assert out.data.shape == (1, 3)
        assert (out.data == 0).all()

    def test_mean_pool_singleton_is_identity_row(self, rng):
        x = leaf(rng, 4, 3)
        out = tc.mean_pool(x, [2], [0], 1)
        np.testing.assert_allclose(out.data, x.data[2:3])

    def test_matmul_shape_error_names_shapes(self, rng):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            tc.matmul(leaf(rng, 2, 3), leaf(rng, 2, 3))

    def test_add_bias_broadcast(self, rng):
        x = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        out = tc.add(x, b)
        np.testing.assert_allclose(out.data, x.data + b.data)

    def test_finite_check_passes_overflowing_sum_and_catches_nan(self):
        with np.errstate(over="ignore"):
            out = tc.scale(DiffArray([1e308, 1e308]), 1.0)
            tc.check_finite(out)
        np.testing.assert_array_equal(out.data, [1e308, 1e308])
        with pytest.raises(NonFiniteError, match="scale"):
            tc.check_finite(tc.scale(DiffArray([1.0, np.nan]), 1.0))

    def test_nonfinite_trapped_at_op(self):
        big = DiffArray([1e308])
        with np.errstate(over="ignore"):
            out = tc.add(tc.scale(big, 1e308), big)  # the op made no infinity of its own
            with pytest.raises(NonFiniteError, match="scale"):
                tc.check_finite(out)

    def test_each_node_records_its_op(self):
        x = DiffArray(np.ones((2, 2)))
        assert x.op is None
        assert tc.matmul(x, x).op == "matmul"
        assert tc.abs_(x).op == "abs"

    def test_check_finite_walks_only_from_a_nonfinite_output(self):
        # An op with a non-finite output that no checked output came from
        # goes unnamed; only a non-finite output sends the walk up its tape.
        x = DiffArray([1.0, np.nan])
        nan = tc.scale(x, 2.0)
        tc.check_finite(tc.pick_rows(tc.reshape(x, (2, 1)), [0]))
        with pytest.raises(NonFiniteError, match="op 'scale'"):
            tc.check_finite(tc.sub(nan, nan), nan)

    def test_nonfinite_leaf_output(self):
        with pytest.raises(NonFiniteError, match="input array"):
            tc.check_finite(DiffArray([np.inf]))

    def test_all_finite(self):
        with np.errstate(over="ignore"):
            assert tc.all_finite(np.array([1e308, 1e308]))
        assert tc.all_finite(np.zeros(0))
        assert not tc.all_finite(np.array([[1.0], [-np.inf]]))
        assert not tc.all_finite(np.array(np.nan))


class TestSegmentOpIds:
    """The edge-segment ops reject an id outside its range before any kernel
    runs, naming the op, as ``pick_rows`` does."""

    def test_negative_src_is_not_gathered_as_the_last_row(self, rng):
        with pytest.raises(ShapeError, match=r"segment_aggregate: src id out of range for 4 rows"):
            tc.segment_aggregate(DiffArray(np.full(3, 0.5)), leaf(rng, 4, 2),
                                 np.array([0, -1, 1]), np.array([0, 1, 1]), 4)

    def test_src_equal_to_n(self, rng):
        with pytest.raises(ShapeError, match=r"segment_aggregate: src id out of range for 4 rows"):
            tc.segment_aggregate(DiffArray(np.full(3, 0.5)), leaf(rng, 4, 2),
                                 np.array([0, 4, 1]), np.array([0, 1, 1]), 4)

    def test_dst_equal_to_n_out(self, rng):
        with pytest.raises(ShapeError, match=r"segment_aggregate: dst id out of range for 2 rows"):
            tc.segment_aggregate(DiffArray(np.full(3, 0.5)), leaf(rng, 4, 2),
                                 np.array([0, 3, 1]), np.array([0, 2, 1]), 2)

    def test_seg_equal_to_n(self, rng):
        with pytest.raises(ShapeError,
                           match=r"segment_softmax: segment id out of range for 3 segments"):
            tc.segment_softmax(leaf(rng, 4), np.array([0, 1, 3, 2]), 3)

    def test_negative_seg(self, rng):
        with pytest.raises(ShapeError, match=r"segment_softmax: segment id out of range"):
            tc.segment_softmax(leaf(rng, 4), np.array([0, -1, 1, 2]), 3)


class TestGatScoreIds:
    """``gat_score`` names itself for an edge id outside the nodes or labels."""

    @pytest.mark.parametrize("what, bad", [("src id", 4), ("dst id", -1), ("label id", 5)])
    def test_out_of_range_id(self, what, bad, rng):
        ids = {"src id": SRC.copy(), "dst id": SEG.copy(), "label id": LABELS.copy()}
        ids[what][3] = bad
        unit = "5 labels" if what == "label id" else "4 rows"
        with pytest.raises(ShapeError, match=rf"gat_score: {what} out of range for {unit}"):
            tc.gat_score(leaf(rng, 4, 3), leaf(rng, 3, 2), leaf(rng, 2, 1), leaf(rng, 5, 2),
                         *ids.values())

    def test_mismatched_score_weight(self, rng):
        # ``wa`` not edge-sized (the (2d + edge_dim, 1) map), ``u`` not two
        # columns, ``u`` not d rows.
        for u, wa in [((3, 2), (8, 1)), ((3, 3), (2, 1)), ((2, 2), (2, 1))]:
            with pytest.raises(ShapeError, match=r"gat_score: incompatible shapes"):
                tc.gat_score(leaf(rng, 4, 3), leaf(rng, *u), leaf(rng, *wa), leaf(rng, 5, 2),
                             SRC, SEG, LABELS)


class TestAddRowsAtIds:
    """``add_rows_at`` names itself for a target row outside the base."""

    @pytest.mark.parametrize("indices", [[1, -1], [0, 5]], ids=["negative", "equal-to-n"])
    def test_out_of_range_index(self, indices, rng):
        with pytest.raises(ShapeError, match=r"add_rows_at: index out of range for 5 rows"):
            tc.add_rows_at(leaf(rng, 5, 3), indices, leaf(rng, 2, 3))

    def test_duplicate_index(self, rng):
        with pytest.raises(ShapeError, match=r"add_rows_at: duplicate target indices"):
            tc.add_rows_at(leaf(rng, 5, 3), [2, 2], leaf(rng, 2, 3))

class TestBackwardMechanics:
    def test_backward_requires_scalar(self, rng):
        x = leaf(rng, 2, 2)
        y = tc.scale(x, 2.0)
        with pytest.raises(ShapeError, match="scalar"):
            tc.backward(y)

    def test_sum_gradient_all_ones(self, rng):
        x = leaf(rng, 3, 2)
        tc.backward(tc.sum_all(x))
        np.testing.assert_allclose(x.grad, 1.0)

    def test_tape_freed_without_cycle_collector(self, rng):
        # Backward closures must not hold their own output, or every tape
        # lives until the cycle collector runs and peak memory grows.
        x = leaf(rng, 3, 3)
        gc.collect()
        gc.disable()
        try:
            loss = tc.sum_all(tc.softmax(tc.matmul(x, tc.transpose(x))))
            tc.backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_sweep_releases_op_nodes_and_keeps_leaf_grads(self, rng):
        x, w = leaf(rng, 4, 3), leaf(rng, 3, 3)
        loss = tc.sum_all(tc.softmax(tc.add(tc.matmul(x, w), x)))
        nodes = tc._tape(loss)
        tc.backward(loss)
        ops = [node for node in nodes if node.op is not None]
        assert [node.op for node in ops] == ["matmul", "add", "softmax", "sum_all"]
        for node in ops:
            assert node.grad is None and node._backward is None and node._parents == ()
        for node in (x, w):
            assert node.grad is not None and node.grad.shape == node.shape

    def test_sweep_frees_inner_nodes_the_caller_does_not_hold(self, rng):
        x, w = leaf(rng, 4, 3), leaf(rng, 3, 3)
        inner = tc.matmul(x, w)
        loss = tc.sum_all(tc.softmax(tc.add(inner, x)))
        ref = weakref.ref(inner)
        del inner
        assert ref() is not None  # the loss's tape holds it until the sweep
        tc.backward(loss)
        assert ref() is None
        assert loss.op == "sum_all" and loss._parents == ()

    def test_attention_scores_held_products_are_freed_by_the_sweep(self, rng):
        # Every array the closure holds, other than the inputs' own data
        # (the query and key products), dies with the sweep.
        h, wq, wk = leaf(rng, 5, 4), leaf(rng, 4, 4), leaf(rng, 4, 4)
        scores = tc.attention_scores(h, wq, wk)
        inputs = [node.data for node in (h, wq, wk)]
        held = [weakref.ref(cell.cell_contents) for cell in scores._backward.__closure__
                if type(cell.cell_contents) is np.ndarray
                and not any(cell.cell_contents is data for data in inputs)]
        assert held and all(ref() is not None for ref in held)
        tc.backward(tc.sum_all(scores))
        assert all(ref() is None for ref in held)

    def test_second_sweep_over_a_swept_tape_raises_naming_the_op(self, rng):
        x = leaf(rng, 3, 3)
        shared = tc.softmax(tc.matmul(x, x))
        tc.backward(tc.sum_all(shared))
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="'softmax'"):
            tc.backward(tc.sum_all(tc.scale(shared, 2.0)))
        # Refused before any gradient moved.
        assert x.grad.tobytes() == first.tobytes()

    def test_grads_accumulate_across_backward_calls(self, rng):
        x = leaf(rng, 3)
        tc.backward(tc.sum_all(x))
        first = x.grad.copy()
        tc.backward(tc.sum_all(x))
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_shared_node_fan_out_accumulates(self, rng):
        x = leaf(rng, 2, 2)
        y = tc.add(x, x)
        tc.backward(tc.sum_all(y))
        np.testing.assert_allclose(x.grad, 2.0)

    def test_backward_deterministic(self, rng):
        def run():
            r = np.random.default_rng(5)
            a = DiffArray(r.normal(size=(4, 3)))
            b = DiffArray(r.normal(size=(3, 2)))
            loss = tc.sum_all(tc.sigmoid(tc.matmul(a, b)))
            tc.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert (ga1 == ga2).all() and (gb1 == gb2).all()


class TestFiniteDifferenceOracle:
    """Analytic gradients vs central differences for every op."""

    def _check(self, build, params, tol=1e-6):
        loss = build()
        tc.backward(loss)

        def forward():
            return float(build().data)

        check_grads(forward, params, tol=tol)

    def test_matmul(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        self._check(lambda: tc.sum_all(tc.matmul(a, b)), {"a": a, "b": b})

    def test_matmul_example_from_random_inputs(self, rng):
        # 3x4 @ 4x2 against the FD oracle at eps=1e-5, < 1e-6 relative.
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        loss = tc.sum_all(tc.matmul(a, b))
        tc.backward(loss)
        numeric = numeric_grads(
            lambda: float(tc.sum_all(tc.matmul(a, b)).data), {"a": a, "b": b}
        )
        assert relative_error(a.grad, numeric["a"]) < 1e-6
        assert relative_error(b.grad, numeric["b"]) < 1e-6

    def test_add_with_bias(self, rng):
        x, b = leaf(rng, 3, 4), leaf(rng, 4)
        self._check(lambda: tc.sum_all(tc.sigmoid(tc.add(x, b))), {"x": x, "b": b})

    def test_sub_abs(self, rng):
        a, b = leaf(rng, 2, 5), leaf(rng, 2, 5)
        self._check(lambda: tc.sum_all(tc.abs_(tc.sub(a, b))), {"a": a, "b": b})

    def test_concat_and_slice_grads(self, rng):
        a, b, c = leaf(rng, 2, 3), leaf(rng, 2, 2), leaf(rng, 2, 4)
        self._check(
            lambda: tc.sum_all(tc.sigmoid(tc.concat([a, b, c], axis=1))),
            {"a": a, "b": b, "c": c},
        )

    def test_leaky_relu(self, rng):
        x = leaf(rng, 4, 4)
        self._check(lambda: tc.sum_all(tc.leaky_relu(x, 0.01)), {"x": x})

    def test_sigmoid(self, rng):
        x = leaf(rng, 3, 3)
        self._check(lambda: tc.sum_all(tc.sigmoid(x)), {"x": x})

    def test_softmax(self, rng):
        x = leaf(rng, 4, 5)
        w = DiffArray(rng.normal(size=(4, 5)))

        def build():
            return tc.sum_all(tc.matmul(tc.softmax(x), tc.transpose(w)))

        self._check(build, {"x": x})

    def test_pick_rows_and_mean_pool(self, rng):
        x = leaf(rng, 6, 4)

        def build():
            picked = tc.pick_rows(x, [0, 2, 2, 5])
            pooled = tc.mean_pool(x, [1, 3, 4], [0, 0, 0], 1)
            return tc.sum_all(tc.sigmoid(tc.concat([picked, tc.repeat_row(pooled, 4)], axis=1)))

        self._check(build, {"x": x})

    def test_add_rows_at(self, rng):
        base, rows = leaf(rng, 5, 3), leaf(rng, 2, 3)
        self._check(
            lambda: tc.sum_all(tc.sigmoid(tc.add_rows_at(base, [1, 3], rows))),
            {"base": base, "rows": rows},
        )

    def test_segment_ops(self, rng):
        scores = leaf(rng, 10)
        values = leaf(rng, 4, 3)
        seg = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3], dtype=np.int64)
        src = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1], dtype=np.int64)

        def build():
            alpha = tc.segment_softmax(scores, seg, 4)
            agg = tc.segment_aggregate(alpha, values, src, seg, 4)
            return tc.sum_all(tc.sigmoid(agg))

        self._check(build, {"scores": scores, "values": values}, tol=1e-5)

    def test_gat_score(self, rng):
        g, u = leaf(rng, 4, 3), leaf(rng, 3, 2)
        wa, edge_emb = leaf(rng, 2, 1), leaf(rng, 5, 2)
        params = {"g": g, "u": u, "wa": wa, "edge_emb": edge_emb}

        def build():
            score = tc.gat_score(g, u, wa, edge_emb, SRC, SEG, LABELS)
            return tc.sum_all(tc.sigmoid(score))

        self._check(build, params)

    def test_embed(self, rng):
        tok, pos = leaf(rng, 6, 3), leaf(rng, 5, 3)
        self._check(lambda: tc.sum_all(tc.sigmoid(tc.embed(tok, TOKENS, pos, POSITIONS))),
                    {"tok": tok, "pos": pos})

    def test_attention_scores(self, rng):
        h, wq, wk = leaf(rng, 5, 3), leaf(rng, 3, 3), leaf(rng, 3, 3)
        self._check(lambda: tc.sum_all(tc.sigmoid(tc.attention_scores(h, wq, wk))),
                    {"h": h, "wq": wq, "wk": wk})

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_attend(self, masked, rng):
        scores, h, wv = leaf(rng, 5, 5), leaf(rng, 5, 3), leaf(rng, 3, 3)
        mask = BLOCK_MASK if masked else None
        self._check(lambda: tc.sum_all(tc.sigmoid(tc.attend(scores, h, wv, mask))),
                    {"scores": scores, "h": h, "wv": wv})

    def test_cross_entropy_gradient(self, rng):
        logits = leaf(rng, 4)

        def build():
            return tc.cross_entropy(tc.softmax(tc.reshape(logits, (1, 4))), [2])

        self._check(build, {"logits": logits})

    def test_cross_entropy_rows_gradient(self, rng):
        logits = leaf(rng, 3, 4)

        def build():
            return tc.cross_entropy_rows(tc.softmax(logits), [1, 0, 3])

        self._check(build, {"logits": logits})

    def test_kl_gradient_flows_into_q_only(self, rng):
        logits = leaf(rng, 3, 3)
        p = np.abs(rng.normal(size=(3, 3))) + 0.1
        p = p / p.sum(axis=1, keepdims=True)

        def build():
            return tc.kl_divergence(p, tc.softmax(logits))

        self._check(build, {"logits": logits}, tol=1e-5)


M = 3  # models on the stacked axis
SEG = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3], dtype=np.int64)
SRC = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1], dtype=np.int64)
LABELS = np.array([0, 4, 1, 1, 2, 3, 0, 4, 2, 2], dtype=np.int64)
BLOCK_MASK = np.kron(np.eye(2, dtype=bool), np.ones((3, 3), dtype=bool))[:5, :5]
# Five rows of two sentences' token ids and positions.
TOKENS = np.array([0, 2, 2, 5, 1], dtype=np.int64)
POSITIONS = np.array([0, 1, 2, 0, 1], dtype=np.int64)
# Eight rows of three classes: golds shared by every model, and a shared KL
# target (one zero entry) with its row weights.
GOLDS = np.array([2, 0, 1, 1, 0, 2, 2, 1], dtype=np.int64)
TARGET = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.3, 0.3, 0.4], [0.1, 0.8, 0.1],
                   [0.5, 0.25, 0.25], [0.0, 0.7, 0.3], [0.45, 0.45, 0.1], [0.3, 0.2, 0.5]])
ROW_WEIGHTS = np.repeat([1 / 3, 1 / 5], [3, 5])


def weighted_slices(x):
    """Slices 0, 1 and 2 of ``x`` weighted 1, 2 and 3 and summed, so that
    each slice gets a gradient of its own."""
    out = tc.model_slice(x, 0)
    for k in (1, 2):
        out = tc.add(out, tc.scale(tc.model_slice(x, k), k + 1.0))
    return out


def dist_of(op):
    """``op`` on the row-wise softmax of its input, a distribution per row."""
    return lambda a: op(tc.softmax(a, axis=-1))


# op -> (per-model input shapes, op applied to its inputs). The losses read
# a softmax of their inputs; the ops that make a model axis are read back
# through ``weighted_slices``.
STACKED_OPS = {
    "matmul": ([(5, 4), (4, 3)], tc.matmul),
    "transpose": ([(5, 4)], tc.transpose),
    "add": ([(5, 4), (5, 4)], tc.add),
    "add_bias": ([(5, 4), (4,)], tc.add),
    "scale": ([(5, 4)], lambda a: tc.scale(a, 0.7)),
    "concat": ([(5, 4), (5, 2)], lambda a, b: tc.concat([a, b], axis=-1)),
    "reshape": ([(6, 1)], lambda a: tc.reshape(a, a.shape[:-1])),
    "leaky_relu": ([(5, 4)], lambda a: tc.leaky_relu(a, 0.1)),
    "sigmoid": ([(5, 4)], tc.sigmoid),
    "softmax": ([(5, 5)], lambda a: tc.softmax(a, axis=-1)),
    "pick_rows": ([(6, 4)], lambda a: tc.pick_rows(a, [0, 2, 2, 5, 1])),
    "mean_pool": ([(6, 4)], lambda a: tc.mean_pool(a, [1, 3, 4, 0], [0, 0, 2, 2], 3)),
    "add_rows_at": ([(6, 4), (2, 4)], lambda a, r: tc.add_rows_at(a, [1, 4], r)),
    "segment_softmax": ([(10,)], lambda s: tc.segment_softmax(s, SEG, 4)),
    "segment_aggregate": ([(10,), (4, 3)],
                          lambda al, v: tc.segment_aggregate(al, v, SRC, SEG, 4)),
    "gat_score": ([(4, 3), (3, 2), (2, 1), (5, 2)],
                  lambda *xs: tc.gat_score(*xs, SRC, SEG, LABELS)),
    "embed": ([(6, 4), (5, 4)], lambda t, p: tc.embed(t, TOKENS, p, POSITIONS)),
    "attention_scores": ([(5, 4), (4, 4), (4, 4)], tc.attention_scores),
    "attend": ([(5, 5), (5, 4), (4, 4)], lambda s, h, wv: tc.attend(s, h, wv, BLOCK_MASK)),
    "cross_entropy": ([(8, 3)], dist_of(lambda d: tc.cross_entropy(d, GOLDS))),
    "cross_entropy_rows": ([(8, 3)], dist_of(lambda d: tc.cross_entropy_rows(d, GOLDS))),
    "kl_divergence": ([(8, 3)], dist_of(lambda d: tc.kl_divergence(TARGET, d))),
    "kl_divergence_rows": ([(8, 3)],
                           dist_of(lambda d: tc.kl_divergence(TARGET, d, ROW_WEIGHTS))),
    "stack_models": ([(5, 4), (5, 4)],
                     lambda a, b: weighted_slices(tc.stack_models([a, None, b]))),
    "repeat_models": ([(5, 4)], lambda a: weighted_slices(
        tc.repeat_models(tc.reshape(a, (1, *a.shape)), 3))),
}


def sweep(out, grad_out):
    """Every backward closure of ``out``'s tape, from ``grad_out``."""
    out.grad = grad_out
    for node in reversed(tc._tape(out)):
        if node._backward is not None:
            node._backward(node.grad)


# (op, id array) -> (valid ids, their bound n, the op on inputs stacked on a
# model axis, given ``x(*shape)`` to make an input and the ids to pass)
STACKED_ID_CALLS = {
    ("segment_softmax", "segment id"): (
        SEG, 4, lambda x, ids: tc.segment_softmax(x(10), ids, 4)),
    ("segment_aggregate", "src id"): (
        SRC, 4, lambda x, ids: tc.segment_aggregate(x(10), x(4, 3), ids, SEG, 4)),
    ("segment_aggregate", "dst id"): (
        SEG, 4, lambda x, ids: tc.segment_aggregate(x(10), x(4, 3), SRC, ids, 4)),
    ("gat_score", "src id"): (
        SRC, 4, lambda x, ids: tc.gat_score(x(4, 3), x(3, 2), x(2, 1), x(5, 2),
                                            ids, SEG, LABELS)),
    ("gat_score", "dst id"): (
        SEG, 4, lambda x, ids: tc.gat_score(x(4, 3), x(3, 2), x(2, 1), x(5, 2),
                                            SRC, ids, LABELS)),
    ("gat_score", "label id"): (
        LABELS, 5, lambda x, ids: tc.gat_score(x(4, 3), x(3, 2), x(2, 1), x(5, 2),
                                               SRC, SEG, ids)),
    ("pick_rows", "index"): (SRC, 6, lambda x, ids: tc.pick_rows(x(6, 4), ids)),
    ("mean_pool", "index"): (SRC, 6, lambda x, ids: tc.mean_pool(x(6, 4), ids, SEG, 4)),
    ("mean_pool", "pool id"): (SEG, 4, lambda x, ids: tc.mean_pool(x(6, 4), SRC, ids, 4)),
    ("embed", "token id"): (SRC, 6, lambda x, ids: tc.embed(x(6, 4), ids, x(5, 4), SEG)),
    ("embed", "position"): (SEG, 5, lambda x, ids: tc.embed(x(6, 4), SRC, x(5, 4), ids)),
}


class TestStackedOpIds:
    """Offset per model, an id of n would read the next model's rows and -1
    the previous one's; each op refuses both on stacked inputs, naming itself."""

    @pytest.mark.parametrize("bad", ["n", "-1"])
    @pytest.mark.parametrize("case", STACKED_ID_CALLS,
                             ids=lambda case: "-".join(case).replace(" ", "_"))
    def test_out_of_range_id(self, case, bad, rng):
        op, what = case
        valid, n, call = STACKED_ID_CALLS[case]
        ids = valid.copy()
        ids[3] = n if bad == "n" else -1
        with pytest.raises(ShapeError, match=rf"{op}: {what} out of range for {n} "):
            call(lambda *shape: leaf(rng, 2, *shape), ids)


def strided_stack(rng, shape):
    """(M, *shape) random values laid out like a stacked weight: each model's
    slice is contiguous, and the slices lie apart in one buffer."""
    size = int(np.prod(shape))
    return rng.normal(size=(M, 2, size + 3))[:, 0, :size].reshape(M, *shape)


class TestStackedOps:
    """Every op the training step runs on a leading model axis gives, per
    slice, the bits of its 2-D form, forward and backward, and its stacked
    backward matches central differences. A loss gives one value per model,
    and a 0-d one in its 2-D form."""

    @pytest.mark.parametrize("op", STACKED_OPS)
    def test_slices_equal_the_2d_op_bit_for_bit(self, op, rng):
        shapes, fn = STACKED_OPS[op]
        xs = [strided_stack(rng, shape) for shape in shapes]
        stacked = [DiffArray(x) for x in xs]
        out = fn(*stacked)
        grad_out = rng.normal(size=out.shape)
        sweep(out, grad_out)
        for m in range(M):
            flat = [DiffArray(x[m]) for x in xs]
            out_m = fn(*flat)
            assert out_m.shape == out.shape[1:]
            sweep(out_m, grad_out[m])
            assert out.data[m].tobytes() == out_m.data.tobytes()
            for leaf_s, leaf_m in zip(stacked, flat):
                assert leaf_s.grad[m].tobytes() == leaf_m.grad.tobytes()

    @pytest.mark.parametrize("op", STACKED_OPS)
    def test_stacked_gradient_matches_finite_differences(self, op, rng):
        shapes, fn = STACKED_OPS[op]
        leaves = {f"x{i}": leaf(rng, M, *shape) for i, shape in enumerate(shapes)}
        out = fn(*leaves.values())
        grad_out = rng.normal(size=out.shape)
        sweep(out, grad_out)
        check_grads(lambda: (fn(*leaves.values()).data * grad_out).sum(), leaves, tol=1e-6)

    @pytest.mark.parametrize("models", [(), (M,)], ids=["one-model", "stacked"])
    def test_masked_softmax_equals_the_minus_inf_form_bit_for_bit(self, models, rng):
        # Three sentences of a joined block, as ``encode_tokens`` masks them.
        owner = np.repeat(np.arange(3), [4, 6, 2])
        mask = owner[:, None] == owner[None, :]
        x = rng.normal(scale=4.0, size=models + mask.shape)
        out, grad_of = tc._softmax(x, -1, mask)  # the softmax that ``attend`` runs
        grad_out = rng.normal(size=out.shape)
        masked = np.where(mask, x, -np.inf)
        e = np.exp(masked - masked.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        assert out.tobytes() == s.tobytes()
        dot = (grad_out * s).sum(axis=-1, keepdims=True)
        assert grad_of(grad_out).tobytes() == (s * (grad_out - dot)).tobytes()

    def test_model_slice_reads_and_writes_only_its_slice(self, rng):
        a = DiffArray(strided_stack(rng, (4, 3)))
        out = tc.model_slice(a, 1)
        assert out.data.tobytes() == a.data[1].tobytes()
        grad_out = rng.normal(size=out.shape)
        out._backward(grad_out)
        assert a.grad[1].tobytes() == (grad_out + 0.0).tobytes()
        assert not a.grad[[0, 2]].any()

    def test_model_slices_equal_2d_tapes_bit_for_bit(self, rng):
        # One sweep from every slice's loss gives each slice the gradient of
        # its own 2-D tape.
        x = strided_stack(rng, (4, 3))
        stacked = DiffArray(x)
        tc.backward(*(tc.sum_all(tc.sigmoid(tc.model_slice(stacked, m))) for m in range(M)))
        for m in range(M):
            flat = DiffArray(x[m])
            tc.backward(tc.sum_all(tc.sigmoid(flat)))
            assert stacked.grad[m].tobytes() == flat.grad.tobytes()

    def test_model_slice_gradient_matches_finite_differences(self, rng):
        a = leaf(rng, M, 4, 3)
        weights = rng.normal(size=(M, 4, 3))

        def loss():
            return sum((tc.model_slice(a, m).data * weights[m]).sum() for m in range(M))

        for m in range(M):
            tc.model_slice(a, m)._backward(weights[m])
        check_grads(loss, {"a": a}, tol=1e-6)

    def test_repeat_models_adds_slices_as_per_model_sweeps_did(self, rng):
        # One sweep over M models' tapes, each reading slice 0 of a model axis
        # of one, added their gradients from the last model to the first.
        x = rng.normal(size=(1, 4, 3))
        ws = [leaf(rng, 3, 2) for _ in range(M)]

        def losses(heads_in):
            return [tc.sum_all(tc.matmul(heads_in(m), ws[m])) for m in range(M)]

        sliced = DiffArray(x)
        tc.backward(*losses(lambda m: tc.model_slice(sliced, 0)))
        repeated = DiffArray(x)
        stack = tc.repeat_models(repeated, M)
        tc.backward(*losses(lambda m: tc.model_slice(stack, m)))
        assert repeated.grad.tobytes() == sliced.grad.tobytes()
        parts = [(np.ones((4, 1)) * w.data.sum(axis=1)) for w in ws]
        assert sliced.grad[0].tobytes() == ((parts[2] + parts[1]) + parts[0]).tobytes()
        assert sliced.grad[0].tobytes() != ((parts[0] + parts[1]) + parts[2]).tobytes()

    def test_stack_models_refuses_parts_of_other_shapes(self, rng):
        with pytest.raises(ShapeError, match="stack_models: parts differ"):
            tc.stack_models([leaf(rng, 2, 3), None, leaf(rng, 3, 2)])

    def test_repeat_models_needs_a_model_axis_of_one(self, rng):
        with pytest.raises(ShapeError, match="repeat_models: expected a model axis of one"):
            tc.repeat_models(leaf(rng, 2, 3), 3)

    def test_backward_from_several_roots_sums_their_gradients(self, rng):
        x = leaf(rng, 3, 2)
        tc.backward(tc.sum_all(x), tc.sum_all(tc.scale(x, 2.0)))
        np.testing.assert_array_equal(x.grad, 3.0)

    def test_backward_rejects_a_non_scalar_root(self, rng):
        x = leaf(rng, 2, 2)
        with pytest.raises(ShapeError, match="scalar"):
            tc.backward(tc.sum_all(x), x)


def masked_softmax(a, mask):
    """The masked softmax tape op that ``attend`` took over."""
    s, grad_of = tc._softmax(a.data, -1, mask)
    return tc._result(s, (a,), lambda grad: a.accum_grad(grad_of(grad)), "softmax")


def fused_layers(tok, pos, *weights, mask):
    h = tc.embed(tok, TOKENS, pos, POSITIONS)
    for wq, wk, wv in zip(*[iter(weights)] * 3):
        scores = tc.scale(tc.attention_scores(h, wq, wk), 0.5)
        h = tc.attend(scores, h, wv, mask)
    return h


def composed_layers(tok, pos, *weights, mask):
    h = tc.add(tc.pick_rows(tok, TOKENS), tc.pick_rows(pos, POSITIONS))
    for wq, wk, wv in zip(*[iter(weights)] * 3):
        q, k, v = tc.matmul(h, wq), tc.matmul(h, wk), tc.matmul(h, wv)
        scores = tc.scale(tc.matmul(q, tc.transpose(k)), 0.5)
        h = tc.add(h, tc.matmul(masked_softmax(scores, mask), v))
    return h


# op -> (per-model input shapes, the op, the chain of ops it replaces); each
# form takes its inputs and the ``mask`` keyword. "layers" is two encoder
# layers, whose h takes its gradient from both fused ops.
FUSED_OPS = {
    "embed": ([(6, 4), (5, 4)],
              lambda t, p, mask: tc.embed(t, TOKENS, p, POSITIONS),
              lambda t, p, mask: tc.add(tc.pick_rows(t, TOKENS), tc.pick_rows(p, POSITIONS))),
    "attention_scores": ([(5, 4), (4, 4), (4, 4)],
                         lambda h, wq, wk, mask: tc.attention_scores(h, wq, wk),
                         lambda h, wq, wk, mask: tc.matmul(tc.matmul(h, wq),
                                                           tc.transpose(tc.matmul(h, wk)))),
    "attend": ([(5, 5), (5, 4), (4, 4)],
               lambda s, h, wv, mask: tc.attend(s, h, wv, mask),
               lambda s, h, wv, mask: tc.add(h, tc.matmul(masked_softmax(s, mask),
                                                          tc.matmul(h, wv)))),
    "layers": ([(6, 4), (5, 4)] + [(4, 4)] * 6, fused_layers, composed_layers),
}
# The ops that read a mask run both with and without one.
FUSED_CASES = [(op, masked) for op in FUSED_OPS
               for masked in ((False, True) if op in ("attend", "layers") else (False,))]


class TestFusedTokenOps:
    """``embed``, ``attention_scores`` and ``attend`` give the bits of the
    chains of ops they replace: forward, and every leaf's gradient from an
    output gradient laid out in C or in Fortran order."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("models", [(), (M,)], ids=["one-model", "stacked"])
    @pytest.mark.parametrize("op, masked", FUSED_CASES,
                             ids=[op + "-masked" * masked for op, masked in FUSED_CASES])
    def test_matches_the_composed_ops_bit_for_bit(self, op, masked, models, layout, rng):
        shapes, fused, composed = FUSED_OPS[op]
        xs = [strided_stack(rng, shape) if models else rng.normal(size=shape)
              for shape in shapes]
        mask = BLOCK_MASK if masked else None
        bits = []
        for form in (fused, composed):
            leaves = [DiffArray(x) for x in xs]
            out = form(*leaves, mask=mask)
            if not bits:
                grad_out = signed_zeros(rng, *out.shape).copy(order=layout)
            sweep(out, grad_out)
            bits.append([out.data.tobytes()] + [p.grad.tobytes() for p in leaves])
        assert bits[0] == bits[1]


    @pytest.mark.parametrize("call", [
        lambda x: tc.embed(x(6, 4), TOKENS, x(5, 3), POSITIONS),
        lambda x: tc.embed(x(6, 4), TOKENS, x(5, 4), POSITIONS[:4]),
        lambda x: tc.attention_scores(x(5, 4), x(4, 4), x(3, 4)),
        lambda x: tc.attention_scores(x(5, 4), x(3, 4), x(3, 4)),
        lambda x: tc.attend(x(5, 4), x(5, 4), x(4, 4)),
        lambda x: tc.attend(x(5, 5), x(5, 4), x(4, 3)),
        lambda x: tc.attend(x(5, 5), x(5, 4), x(4, 4), BLOCK_MASK[:4, :4]),
    ], ids=["embed-width", "embed-positions", "scores-wk", "scores-wq", "attend-scores",
            "attend-wv", "attend-mask"])
    def test_incompatible_shapes_are_named(self, call, rng):
        with pytest.raises(ShapeError, match=r"^(embed|attention_scores|attend): incompatible"):
            call(lambda *shape: leaf(rng, *shape))


class TestDistributionProperties:
    def test_softmax_rows_sum_to_one(self, rng):
        for _ in range(50):
            x = DiffArray(rng.normal(scale=5.0, size=(6, 4)))
            s = tc.softmax(x).data
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)
            assert (s > 0).all() and (s < 1).all()

    def test_kl_nonnegative_random_pairs(self, rng):
        for _ in range(200):
            p = rng.uniform(0.05, 1.0, size=5)
            p /= p.sum()
            q = rng.uniform(0.05, 1.0, size=5)
            q /= q.sum()
            assert float(tc.kl_divergence(p, DiffArray(q)).data) >= 0.0

    def test_kl_zero_iff_equal(self, rng):
        p = rng.uniform(0.1, 1.0, size=4)
        p /= p.sum()
        assert float(tc.kl_divergence(p, DiffArray(p.copy())).data) <= 1e-12
        q = np.roll(p, 1)
        assert float(tc.kl_divergence(p, DiffArray(q)).data) > 1e-4


class TestParamStoreAdam:
    def test_first_step_moves_by_lr(self):
        # With g=1 the bias-corrected first Adam step is
        # -lr * 1 / (1 + eps) regardless of beta values.
        store = filled_store({"w": np.array([0.5])})
        p = store.params["w"]
        p.grad = np.array([1.0])
        store.adam_step(lr=0.001)
        expected = 0.5 - 0.001 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)

    def test_grads_cleared_after_step(self, rng):
        store = filled_store({"w": rng.normal(size=(3,))})
        p = store.params["w"]
        p.grad = np.ones(3)
        store.adam_step(lr=0.01)
        assert p.grad is None

    def test_step_skips_params_without_grads(self, rng):
        store = filled_store({"w": rng.normal(size=(3,))})
        p = store.params["w"]
        before = p.data.copy()
        store.adam_step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_adam_two_steps_match_reference(self):
        # Hand-rolled Adam recurrence on a fixed gradient sequence.
        store = filled_store({"w": np.array([1.0])})
        p = store.params["w"]
        grads = [0.3, -0.2]
        m = v = 0.0
        x = 1.0
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            store.adam_step(lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, [x], rtol=1e-12)

    def test_shared_param_updated_once(self, rng):
        owner = filled_store({"w": np.array([1.0])})
        p = owner.params["w"]
        borrower = param_store({"w": p})
        assert borrower.params["w"] is p and borrower.block.shape == (4, 0)
        p.grad = np.array([1.0])
        owner.adam_step(lr=0.001)
        after_owner = p.data.copy()
        borrower.adam_step(lr=0.001)  # grad now cleared; must be a no-op
        np.testing.assert_array_equal(p.data, after_owner)


class TestAccumGrad:
    """Each gradient is written once, where it will live: a parameter's into
    its GRAD row, an intermediate's first one kept as it comes, and no array
    that another node may hold is written."""

    def test_parameter_first_gradient_lands_in_grad_home_without_negative_zeros(self, rng):
        p = filled_store({"w": rng.normal(size=(4, 6))}).params["w"]
        g = signed_zeros(rng, 4, 6)
        p.accum_grad(g)
        assert p.grad is p.grad_home
        assert p.grad.tobytes() == (g + 0.0).tobytes()
        assert (p.grad[::2, 1::3] == 0).all()
        assert not np.signbit(p.grad[::2, 1::3]).any()

    def test_intermediate_keeps_its_first_gradient_as_it_comes(self, rng):
        node = leaf(rng, 4, 6)
        g = signed_zeros(rng, 4, 6)
        node.accum_grad(g)
        assert node.grad is g

    def test_scaled_scalar_loss_hands_its_parent_an_array_it_keeps(self, rng, monkeypatch):
        loss = tc.sum_all(leaf(rng, 3))
        handed = []
        keep = DiffArray.accum_grad

        def record(node, g):
            handed.append(g)
            keep(node, g)

        monkeypatch.setattr(DiffArray, "accum_grad", record)
        tc.scale(loss, 0.3)._backward(np.ones(()))
        assert type(handed[0]) is np.ndarray and handed[0].shape == ()
        assert loss.grad is handed[0]
        assert loss.grad.tobytes() == np.float64(0.3).tobytes()

    def test_transposed_gradient_keeps_node_layout(self, rng):
        node = leaf(rng, 3, 5)
        g = rng.normal(size=(5, 3))
        node.accum_grad(g.T)
        assert node.grad.flags.c_contiguous
        assert node.grad.tobytes() == np.ascontiguousarray(g.T).tobytes()

    def test_second_contribution_leaves_the_array_add_shared(self, rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
        out = tc.add(a, b)
        g, h = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        kept = g.copy()
        out._backward(g)
        assert a.grad is g and b.grad is g
        a.accum_grad(h)
        assert a.grad is not g and a.grad.tobytes() == (kept + h).tobytes()
        assert b.grad is g and g.tobytes() == kept.tobytes()

    def test_matmul_writes_weight_gradient_into_grad_home(self, rng):
        w = filled_store({"w": rng.normal(size=(4, 3))}).params["w"]
        x = leaf(rng, 5, 4)
        grad = rng.normal(size=(5, 3))
        tc.matmul(x, w)._backward(grad)
        assert w.grad is w.grad_home
        assert w.grad.tobytes() == (x.data.mT @ grad).tobytes()
        grad2 = rng.normal(size=(5, 3))
        tc.matmul(x, w)._backward(grad2)  # a second use adds in place
        assert w.grad is w.grad_home
        assert w.grad.tobytes() == (x.data.mT @ grad + x.data.mT @ grad2).tobytes()

    def test_gat_score_writes_weight_gradients_into_grad_home(self, rng):
        store = filled_store({"u": rng.normal(size=(3, 2)), "wa": rng.normal(size=(2, 1)),
                              "emb": rng.normal(size=(5, 2))})
        u, wa, emb = store.params.values()
        g = leaf(rng, 4, 3)
        grad = rng.normal(size=(10, 1))

        def sweep():
            tc.gat_score(g, u, wa, emb, SRC, SEG, LABELS)._backward(grad)

        sweep()
        first = {name: p.grad.copy() for name, p in store.params.items()}
        assert all(p.grad is p.grad_home for p in store.params.values())
        # Each first gradient is one product, with no zero padding: u's and
        # wa's have the bits of ``x.mT @ d`` of the edge gradient's per-node
        # and per-label sums, edge_emb's those of an outer product.
        d_s = np.zeros((4, 2))
        np.add.at(d_s[:, 0], SEG, grad[:, 0])
        np.add.at(d_s[:, 1], SRC, grad[:, 0])
        d_se = np.zeros((5, 1))
        np.add.at(d_se[:, 0], LABELS, grad[:, 0])
        assert first["u"].tobytes() == (g.data.mT @ d_s).tobytes()
        assert first["wa"].tobytes() == (emb.data.mT @ d_se).tobytes()
        assert first["emb"].tobytes() == (d_se * wa.data.mT).tobytes()
        sweep()  # adds in place
        for name, p in store.params.items():
            assert p.grad is p.grad_home
            assert p.grad.tobytes() == (first[name] + first[name]).tobytes()

    def test_matmul_writes_stacked_weight_gradient_into_every_grad_row(self, rng):
        # A stacked weight's gradient home spans the GRAD rows of M stores.
        buf = np.zeros((M, 4, 15))
        w = DiffArray(buf[:, tc.DATA, 1:13].reshape(M, 4, 3))
        w.data[...] = rng.normal(size=w.shape)
        w.grad_home = buf[:, tc.GRAD, 1:13].reshape(M, 4, 3)
        x = leaf(rng, M, 5, 4)
        grad = rng.normal(size=(M, 5, 3))
        tc.matmul(x, w)._backward(grad)
        assert w.grad is w.grad_home
        assert w.grad.tobytes() == (x.data.mT @ grad).tobytes()
        assert not buf[:, tc.GRAD, [0, 13, 14]].any()


class TestModelSliceGradient:
    """``model_slice`` backward gives the bits of a zeroed gradient with each
    slice's gradient added in turn, and writes no array it may not own."""

    @pytest.mark.parametrize("slices", [[0, 1, 2], [2, 0, 1], [0, 0, 0]],
                             ids=["separate", "reordered", "shared"])
    def test_same_bits_as_adding_into_zeros(self, slices, rng):
        a = DiffArray(strided_stack(rng, (4, 3)))
        ref = np.zeros(a.shape)
        for m, g in zip(slices, (signed_zeros(rng, 4, 3) for _ in slices)):
            tc.model_slice(a, m)._backward(g)
            ref[m] += g
        assert a.grad.tobytes() == ref.tobytes()

    def test_shared_encoder_axis_of_one(self, rng):
        a = leaf(rng, 1, 4, 3)
        ref = np.zeros(a.shape)
        for g in (signed_zeros(rng, 4, 3) for _ in range(3)):
            tc.model_slice(a, 0)._backward(g)
            ref[0] += g
        assert a.grad.tobytes() == ref.tobytes()

    def test_does_not_write_a_gradient_another_node_holds(self, rng):
        a, b = leaf(rng, M, 4, 3), leaf(rng, M, 4, 3)
        shared = rng.normal(size=(M, 4, 3))
        kept = shared.copy()
        tc.add(a, b)._backward(shared)
        g = rng.normal(size=(4, 3))
        tc.model_slice(a, 1)._backward(g)
        assert b.grad is shared and shared.tobytes() == kept.tobytes()
        kept[1] += g
        assert a.grad.tobytes() == kept.tobytes()

    def test_stacked_parameter_gradient_stays_in_grad_home(self, rng):
        buf = np.zeros((M, 4, 12))
        w = DiffArray(buf[:, tc.DATA].reshape(M, 4, 3))
        w.grad_home = buf[:, tc.GRAD].reshape(M, 4, 3)
        ref = np.zeros(w.shape)
        for m, g in zip([1, 0, 1], (signed_zeros(rng, 4, 3) for _ in range(3))):
            tc.model_slice(w, m)._backward(g)
            ref[m] += g
        assert w.grad is w.grad_home
        assert w.grad.tobytes() == ref.tobytes()


class TestParamBlock:
    SHAPES = {"a": (3, 4), "big": (200, 201), "c": (5,), "d": (7, 2)}

    def _arrays(self, rng):
        return {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}

    def test_params_and_grad_homes_are_views_into_one_block(self, rng):
        before = self._arrays(rng)
        store = filled_store(before)
        assert list(store.params) == list(self.SHAPES)
        n = sum(int(np.prod(s)) for s in self.SHAPES.values())
        assert store.block.shape == (4, n)
        for name, p in store.params.items():
            np.testing.assert_array_equal(p.data, before[name])
            assert np.shares_memory(p.data, store.block)
            assert np.shares_memory(p.grad_home, store.block)
        p = store.params["a"]
        x = leaf(rng, 4, 2)
        tc.backward(tc.sum_all(tc.matmul(p, x)))
        assert p.grad is p.grad_home
        first = np.ones((3, 2)) @ x.data.T
        np.testing.assert_array_equal(p.grad, first)
        g = rng.normal(size=(3, 4))
        p.accum_grad(g)
        assert p.grad is p.grad_home
        np.testing.assert_array_equal(p.grad, first + g)

    def test_matches_per_parameter_reference_bit_for_bit(self, rng):
        # The parent's per-parameter update, one temporary per operation,
        # over random steps in which parameter "c" sometimes has no gradient.
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        store = filled_store(self._arrays(rng))
        ref = {k: p.data.copy() for k, p in store.params.items()}
        m = {k: np.zeros_like(x) for k, x in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        c_lo = 12 + 200 * 201  # "c" follows "a" and "big" in the block
        skipped = 0
        for t in range(1, 8):
            grads = {k: rng.normal(size=x.shape) * 10.0 ** rng.integers(-4, 2)
                     for k, x in ref.items()}
            if t % 3 == 0:
                del grads["c"]
            for i, (k, g) in enumerate(grads.items()):
                if i % 2:
                    store.params[k].grad = g.copy()  # assigned, not accumulated
                else:
                    store.params[k].accum_grad(g)
            c_moments = store.block[tc.MOMENT1:, c_lo:c_lo + 5].copy()
            store.adam_step(lr, b1, b2, eps)
            assert store.step_count == t
            for k, g in grads.items():
                m[k] *= b1
                m[k] += (1.0 - b1) * g
                v[k] *= b2
                v[k] += (1.0 - b2) * g * g
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for k, p in store.params.items():
                np.testing.assert_array_equal(p.data, ref[k], err_msg=f"step {t} {k}")
                assert p.grad is None
            if "c" not in grads:
                skipped += 1
                np.testing.assert_array_equal(
                    store.block[tc.MOMENT1:, c_lo:c_lo + 5], c_moments)
        assert skipped == 2
        np.testing.assert_array_equal(store.block[tc.MOMENT1, c_lo:c_lo + 5], m["c"])
        np.testing.assert_array_equal(store.block[tc.MOMENT2, c_lo:c_lo + 5], v["c"])


class TestCheckpoints:
    def test_round_trip(self, tmp_path, rng):
        arrays = {"enc/w": rng.normal(size=(3, 4)), "head/b": rng.normal(size=5)}
        path = tmp_path / "model.npy"
        tc.save_checkpoint(path, filled_store(arrays))
        loaded = param_store({name: a.shape for name, a in arrays.items()})
        tc.load_checkpoint(path, loaded)
        for k in arrays:
            np.testing.assert_array_equal(loaded.params[k].data, arrays[k])
        assert np.load(path, allow_pickle=False).shape == (17,)

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npy"
        tc.save_checkpoint(path, filled_store({"w": np.ones(2)}))
        before = path.read_bytes()
        save = np.save

        def failing(file, arr, **kwargs):
            file.write(b"\x93NUMPY")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "save", failing)
        with pytest.raises(OSError, match="no space left"):
            tc.save_checkpoint(path, param_store({"w": (2,)}))
        monkeypatch.setattr(np, "save", save)
        with pytest.raises(TypeError, match="not JSON serializable"):
            tc.write_json_atomic(path, {"w": [1.0, 2.0], "bad": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npy"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected_naming_the_parameter(self, tmp_path, value):
        path = tmp_path / "model.npy"
        params = {"enc/w": np.ones(2), "head/b": np.array([1.0, value])}
        tc.save_checkpoint(path, filled_store(params))
        loaded = param_store({"enc/w": (2,), "head/b": (2,)})
        with pytest.raises(ValueError,
                           match=r"model\.npy: non-finite value in parameter 'head/b'"):
            tc.load_checkpoint(path, loaded)
        assert not loaded.block.any()  # nothing was copied in

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.npy"
        path.write_text('{"magic": "simrec-checkpoint", "params": {}}', encoding="utf-8")
        # Without the .npy magic, numpy takes the file for a pickle, which it refuses.
        with pytest.raises(ValueError, match=r"junk\.npy: not a \.npy checkpoint \(.*pickled"):
            tc.load_checkpoint(path, param_store({"w": (2,)}))

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "future.npy"
        np.save(path, np.ones(2))
        data = bytearray(path.read_bytes())
        data[6] = 99  # the major format version follows the six magic bytes
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"future\.npy: not a \.npy checkpoint \(.*version"):
            tc.load_checkpoint(path, param_store({"w": (2,)}))

    def test_header_is_checked_before_any_data_is_read(self, tmp_path):
        # A header that claims 10**15 floats is refused without allocating them.
        path = tmp_path / "huge.npy"
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (10**15,)})
            fh.write(bytes(16))
        with pytest.raises(ValueError, match=r"huge\.npy: not a \.npy checkpoint \(mmap length"):
            tc.load_checkpoint(path, param_store({"w": (2,)}))
