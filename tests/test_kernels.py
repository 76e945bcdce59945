import tracemalloc

import numpy as np
import pytest

from simrec import kernels


def random_problem(rng, n_edges=200, n_nodes=30, d=16):
    scores = rng.normal(size=n_edges)
    dst = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
    # Guarantee every segment is non-empty, like self-loops do in graphs.
    dst[:n_nodes] = np.arange(n_nodes)
    src = rng.integers(0, n_nodes, size=n_edges).astype(np.int64)
    values = rng.normal(size=(n_nodes, d))
    return scores, src, dst, values


def incidence(index, n_rows, weights=None):
    """Dense (n_rows, len(index)) matrix M with M[index[e], e] = weights[e]."""
    m = np.zeros((n_rows, index.size))
    m[index, np.arange(index.size)] = 1.0 if weights is None else weights
    return m


class TestSegmentSoftmax:
    def test_rows_sum_to_one_per_segment(self, rng):
        scores, _, dst, _ = random_problem(rng)
        alpha = kernels.segment_softmax(scores, dst, 30)
        sums = np.zeros(30)
        np.add.at(sums, dst, alpha)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert (alpha > 0).all() and (alpha <= 1).all()

    def test_singleton_segment_gets_weight_one(self):
        scores = np.array([3.2])
        seg = np.array([0], dtype=np.int64)
        alpha = kernels.segment_softmax(scores, seg, 1)
        np.testing.assert_allclose(alpha, [1.0])

    def test_equal_scores_uniform(self):
        scores = np.zeros(5)
        seg = np.zeros(5, dtype=np.int64)
        alpha = kernels.segment_softmax(scores, seg, 1)
        np.testing.assert_allclose(alpha, 0.2)

    def test_shift_invariance(self, rng):
        scores, _, dst, _ = random_problem(rng)
        a = kernels.segment_softmax(scores, dst, 30)
        b = kernels.segment_softmax(scores + 500.0, dst, 30)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_extreme_scores_stay_finite(self):
        scores = np.array([1000.0, -1000.0, 0.0])
        seg = np.zeros(3, dtype=np.int64)
        alpha = kernels.segment_softmax(scores, seg, 1)
        assert np.isfinite(alpha).all()
        np.testing.assert_allclose(alpha.sum(), 1.0)


class TestDenseOracle:
    """Each kernel against the dense matrix form of the same computation."""

    def test_segment_softmax(self, rng):
        scores, _, dst, _ = random_problem(rng)
        alpha = kernels.segment_softmax(scores, dst, 30)
        for s in range(30):
            member = dst == s
            e = np.exp(scores[member] - scores[member].max())
            np.testing.assert_allclose(alpha[member], e / e.sum(), rtol=1e-13)

    def test_segment_softmax_grad(self, rng):
        scores, _, dst, _ = random_problem(rng)
        alpha = kernels.segment_softmax(scores, dst, 30)
        d_alpha = rng.normal(size=scores.size)
        got = kernels.segment_softmax_grad(alpha, d_alpha, dst, 30)
        for s in range(30):
            member = dst == s
            a = alpha[member]
            jacobian = np.diag(a) - np.outer(a, a)  # d alpha / d scores
            np.testing.assert_allclose(
                got[member], jacobian.T @ d_alpha[member], rtol=1e-12, atol=1e-14
            )

    def test_attention_aggregate(self, rng):
        scores, src, dst, values = random_problem(rng)
        alpha = kernels.segment_softmax(scores, dst, 30)
        a = incidence(dst, 30, alpha)
        got = kernels.attention_aggregate(alpha, values, src, dst, 30)
        np.testing.assert_allclose(got, a @ values[src], rtol=1e-12, atol=1e-14)

    def test_attention_aggregate_grad(self, rng):
        scores, src, dst, values = random_problem(rng)
        alpha = kernels.segment_softmax(scores, dst, 30)
        d_out = rng.normal(size=(30, 16))
        d_alpha, d_values = kernels.attention_aggregate_grad(d_out, alpha, values, src, dst)
        # out = A @ G @ values with A[dst[e], e] = alpha[e] and G[e, src[e]] = 1.
        gather = incidence(src, 30).T
        d_gathered = incidence(dst, 30, alpha).T @ d_out
        np.testing.assert_allclose(d_values, gather.T @ d_gathered, rtol=1e-12, atol=1e-14)
        # d out / d alpha[e] is values[src[e]] placed in row dst[e].
        expected_d_alpha = np.diag(incidence(dst, 30).T @ d_out @ (gather @ values).T)
        np.testing.assert_allclose(d_alpha, expected_d_alpha, rtol=1e-12, atol=1e-14)

    def test_scatter_add_rows(self, rng):
        idx = rng.integers(0, 10, size=50).astype(np.int64)
        rows = rng.normal(size=(50, 7))
        got = kernels.scatter_add_rows(idx, rows, 10, 7)
        np.testing.assert_allclose(got, incidence(idx, 10) @ rows, rtol=1e-13, atol=1e-15)


class TestScatterSemantics:
    def test_duplicate_indices_accumulate(self):
        idx = np.array([2, 2, 2], dtype=np.int64)
        rows = np.ones((3, 2))
        out = kernels.scatter_add_rows(idx, rows, 4, 2)
        np.testing.assert_allclose(out[2], [3.0, 3.0])
        np.testing.assert_allclose(out[[0, 1, 3]], 0.0)

    def test_empty_input(self):
        idx = np.zeros(0, dtype=np.int64)
        rows = np.zeros((0, 3))
        out = kernels.scatter_add_rows(idx, rows, 5, 3)
        assert out.shape == (5, 3)
        assert (out == 0).all()


class TestDeterminism:
    def test_repeated_calls_are_bit_identical(self, rng):
        scores, src, dst, values = random_problem(rng)
        alpha = kernels.segment_softmax(scores, dst, 30)
        again = kernels.segment_softmax(scores.copy(), dst.copy(), 30)
        assert (alpha == again).all()
        agg = kernels.attention_aggregate(alpha, values, src, dst, 30)
        agg2 = kernels.attention_aggregate(alpha, values.copy(), src, dst, 30)
        assert (agg == agg2).all()


# Reference forms of the kernels, each sum an np.add.at into zeros; the
# kernels must match them bit for bit.

def ref_segment_softmax(scores, seg, n_segments):
    seg_max = np.full(n_segments, -np.inf)
    np.maximum.at(seg_max, seg, scores)
    exp = np.exp(scores - seg_max[seg])
    denom = np.zeros(n_segments)
    np.add.at(denom, seg, exp)
    return exp / denom[seg]


def ref_segment_softmax_grad(alpha, d_alpha, seg, n_segments):
    seg_dot = np.zeros(n_segments)
    np.add.at(seg_dot, seg, alpha * d_alpha)
    return alpha * (d_alpha - seg_dot[seg])


def ref_attention_aggregate(alpha, values, src, dst, n_out):
    out = np.zeros((n_out, values.shape[1]))
    np.add.at(out, dst, alpha[:, None] * values[src])
    return out


def ref_attention_aggregate_grad(d_out, alpha, values, src, dst):
    d_alpha = (d_out[dst] * values[src]).sum(axis=1)
    d_values = np.zeros_like(values)
    np.add.at(d_values, src, alpha[:, None] * d_out[dst])
    return d_alpha, d_values


def ref_scatter_add_rows(indices, rows, n_rows, n_cols):
    out = np.zeros((n_rows, n_cols))
    np.add.at(out, indices, rows)
    return out


N_NODES, D = 12, 5


def edge_problem(rng, variant):
    """Edges with duplicate ids; the last 4 destination and 3 source rows get none."""
    n_edges = 0 if variant == "empty" else 60
    dst = rng.integers(0, N_NODES - 4, size=n_edges)
    src = rng.integers(0, N_NODES - 3, size=n_edges)
    dst[:1] = src[:1] = 0
    wide = variant == "non_contiguous"
    cols = 2 * D if wide else D
    p = {
        "scores": rng.normal(size=2 * n_edges if wide else n_edges),
        "d_alpha": rng.normal(size=2 * n_edges if wide else n_edges),
        "values": rng.normal(size=(N_NODES, cols)),
        "d_out": rng.normal(size=(N_NODES, cols)),
        "rows": rng.normal(size=(n_edges, cols)),
    }
    if wide:
        p = {k: v[::2] if v.ndim == 1 else v[:, ::2] for k, v in p.items()}
        assert not p["values"].flags.contiguous and not p["rows"].flags.contiguous
    if variant == "negative_zero":
        # Row 0 receives only -0.0 terms; add.at sums them to +0.0.
        p["d_alpha"][::3] = -0.0
        p["values"][src[dst == 0]] = -0.0
        p["d_out"][dst[src == 0]] = -0.0
        p["rows"][::4] = -0.0
        p["rows"][dst == 0] = -0.0
    p["alpha"] = ref_segment_softmax(p["scores"], dst, N_NODES)
    p["src"], p["dst"] = src, dst
    return p


def assert_same_bits(got, want, variant):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if variant == "negative_zero" and got.ndim == 2:
        assert (got[0] == 0).all() and not np.signbit(got[0]).any()


VARIANTS = ["duplicates", "negative_zero", "non_contiguous", "empty"]


class TestMatchesAddAt:
    def test_problem_has_duplicates_and_untouched_rows(self, rng):
        p = edge_problem(rng, "duplicates")
        assert np.unique(p["dst"]).size < p["dst"].size
        assert np.unique(p["src"]).size < p["src"].size
        got = kernels.scatter_add_rows(p["dst"], p["rows"], N_NODES, D)
        assert (got[-4:] == 0).all() and not np.signbit(got[-4:]).any()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_segment_softmax(self, rng, variant):
        p = edge_problem(rng, variant)
        assert_same_bits(
            kernels.segment_softmax(p["scores"], p["dst"], N_NODES),
            ref_segment_softmax(p["scores"], p["dst"], N_NODES),
            variant,
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_segment_softmax_grad(self, rng, variant):
        p = edge_problem(rng, variant)
        args = (p["alpha"], p["d_alpha"], p["dst"], N_NODES)
        assert_same_bits(
            kernels.segment_softmax_grad(*args), ref_segment_softmax_grad(*args), variant
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_attention_aggregate(self, rng, variant):
        p = edge_problem(rng, variant)
        args = (p["alpha"], p["values"], p["src"], p["dst"], N_NODES)
        assert_same_bits(
            kernels.attention_aggregate(*args), ref_attention_aggregate(*args), variant
        )

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_attention_aggregate_grad(self, rng, variant):
        p = edge_problem(rng, variant)
        args = (p["d_out"], p["alpha"], p["values"], p["src"], p["dst"])
        for got, want in zip(kernels.attention_aggregate_grad(*args),
                             ref_attention_aggregate_grad(*args)):
            assert_same_bits(got, want, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scatter_add_rows(self, rng, variant):
        p = edge_problem(rng, variant)
        args = (p["dst"], p["rows"], N_NODES, D)
        assert_same_bits(kernels.scatter_add_rows(*args), ref_scatter_add_rows(*args), variant)


# The aggregate kernels in one shot, as they ran before they learnt to work
# in blocks: one gather of every edge row and one bincount over all columns.
# The blocked kernels must match them bit for bit.

def _one_shot_ids(src, dst, n_src, n_out, models):
    if not models:
        return src, dst, n_src, n_out
    offsets = np.arange(models[0])[:, None]
    return offsets * n_src + src, offsets * n_out + dst, models[0] * n_src, models[0] * n_out


def _one_shot_sum(ids, rows, n_rows, d):
    flat = ((ids.ravel() * d)[:, None] + np.arange(d)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=n_rows * d)
    return out.astype(np.float64, copy=False).reshape(n_rows, d)


def one_shot_attention_aggregate(alpha, values, src, dst, n_out):
    models, d = alpha.shape[:-1], values.shape[-1]
    src, dst, _, size = _one_shot_ids(src, dst, values.shape[-2], n_out, models)
    rows = values.reshape(-1, d).take(src, axis=0)
    rows *= alpha[..., None]
    return _one_shot_sum(dst, rows, size, d).reshape(models + (n_out, d))


def one_shot_attention_aggregate_grad(d_out, alpha, values, src, dst):
    models, d = alpha.shape[:-1], values.shape[-1]
    src, dst, size, _ = _one_shot_ids(src, dst, values.shape[-2], d_out.shape[-2], models)
    d_rows = d_out.reshape(-1, d).take(dst, axis=0)
    d_alpha = (d_rows * values.reshape(-1, d).take(src, axis=0)).sum(axis=-1)
    d_rows *= alpha[..., None]
    return d_alpha, _one_shot_sum(src, d_rows, size, d).reshape(values.shape)


def stacked_problem(rng, models, n_edges=23, n_nodes=9, d=13):
    """An edge problem whose E and d are multiples of none of the block sizes."""
    lead = (models,) if models else ()
    dst = rng.integers(0, n_nodes - 2, size=n_edges)
    src = rng.integers(0, n_nodes - 1, size=n_edges)
    alpha = rng.random(lead + (n_edges,))
    values = rng.normal(size=lead + (n_nodes, d))
    d_out = rng.normal(size=lead + (n_nodes, d))
    values[..., 0, :4] = -0.0  # signed zeros in the gathered rows
    return alpha, values, d_out, src, dst


class TestBlocks:
    """Above ``BLOCK_FLOATS`` the aggregate kernels gather in blocks."""

    @pytest.mark.parametrize("models", [0, 3], ids=["2-D", "stacked"])
    @pytest.mark.parametrize("budget", [1, 50, 250])
    def test_blocks_match_the_one_shot_bits(self, rng, monkeypatch, models, budget):
        alpha, values, d_out, src, dst = stacked_problem(rng, models)
        assert alpha.size * values.shape[-1] > budget  # so the kernels work in blocks
        n_out = values.shape[-2]
        want = one_shot_attention_aggregate(alpha, values, src, dst, n_out)
        want_grads = one_shot_attention_aggregate_grad(d_out, alpha, values, src, dst)
        monkeypatch.setattr(kernels, "BLOCK_FLOATS", budget)
        assert_same_bits(kernels.attention_aggregate(alpha, values, src, dst, n_out),
                         want, "blocked")
        got_grads = kernels.attention_aggregate_grad(d_out, alpha, values, src, dst)
        for got, want in zip(got_grads, want_grads):
            assert_same_bits(got, want, "blocked")

    @pytest.mark.parametrize("models", [0, 3], ids=["2-D", "stacked"])
    def test_one_block_matches_the_one_shot_bits(self, rng, models):
        alpha, values, d_out, src, dst = stacked_problem(rng, models)
        assert alpha.size * values.shape[-1] <= kernels.BLOCK_FLOATS
        n_out = values.shape[-2]
        assert_same_bits(kernels.attention_aggregate(alpha, values, src, dst, n_out),
                         one_shot_attention_aggregate(alpha, values, src, dst, n_out), "one")
        for got, want in zip(kernels.attention_aggregate_grad(d_out, alpha, values, src, dst),
                             one_shot_attention_aggregate_grad(d_out, alpha, values, src, dst)):
            assert_same_bits(got, want, "one")

    def test_a_wide_call_allocates_a_few_blocks_beyond_its_outputs(self, rng):
        # Three models, 224 edges and d 300, a batch's GAT layer at library
        # sizes: one gather of every edge row would be 1.5 MiB each.
        alpha, values, d_out, src, dst = stacked_problem(rng, 3, n_edges=224, n_nodes=100,
                                                         d=300)
        budget = 5 * kernels.BLOCK_FLOATS * 8
        calls = [lambda: kernels.attention_aggregate(alpha, values, src, dst, 100),
                 lambda: kernels.attention_aggregate_grad(d_out, alpha, values, src, dst)]
        for call in calls:
            tracemalloc.start()
            try:
                out = call()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del out
            assert peak - kept <= budget
