import numpy as np

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
