import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsel.errors import DimensionMismatch, EmptyInput
from cbsel.gaussian import VAR_FLOOR, ClassGaussians, estimate_grouped, kl_divergence
from reference_impls import EmptyAccumulator, MomentAccumulator, estimate, kl_divergence_batch, sample

# 0.5 * (1/4 + ln 4 - 1), the divergence from N(0,1) to N(0,4)
KL_VARIANCE_CASE = 0.3181471805599453


def gauss(mean, var):
    """A one-row stack, of class 0."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    var = np.atleast_1d(np.asarray(var, dtype=np.float64))
    return ClassGaussians([0], mean[None, :], var[None, :])


def kl(p, q):
    """The divergence of two one-row stacks."""
    return float(kl_divergence(p, q)[0])


class TestEstimate:
    def test_population_moments(self):
        g = estimate(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(g.mean, [[2.0, 3.0]])
        np.testing.assert_array_equal(g.var, [[1.0, 1.0]])
        assert g.classes.tolist() == [0]

    def test_single_vector_hits_the_floor(self):
        g = estimate(np.array([[5.0, -1.0]]))
        np.testing.assert_array_equal(g.mean, [[5.0, -1.0]])
        np.testing.assert_array_equal(g.var, [[VAR_FLOOR, VAR_FLOOR]])

    def test_constant_dimension_floored(self):
        g = estimate(np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 4.0]]))
        assert g.var[0, 0] == VAR_FLOOR
        np.testing.assert_allclose(g.var[0, 1], 8.0 / 3.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            estimate(np.zeros((0, 3)))

    def test_custom_floor(self):
        g = estimate(np.array([[1.0], [1.0]]), var_floor=0.5)
        assert g.var[0, 0] == 0.5


def reference_estimate(x, var_floor=VAR_FLOOR):
    """The per-class estimate the grouped pass replaced: numpy's row means."""
    mean = x.mean(axis=0)
    return mean, np.maximum(((x - mean) ** 2).mean(axis=0), var_floor)


def grouped_labels(case, n, rng):
    return {
        "mixed": rng.integers(0, 7, n),
        "singletons": np.arange(n)[::-1],
        "one_class": np.full(n, 4),
        "unsorted_sparse": rng.choice([17, -3, 10**12, 5, 999], n),
    }[case]


class TestEstimateGrouped:
    @pytest.mark.parametrize("case", ["mixed", "singletons", "one_class", "unsorted_sparse"])
    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_matches_the_per_class_reference_bit_for_bit(self, dim, case):
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((301, dim)) * rng.uniform(1e-3, 1e3, dim) + rng.uniform(-5, 5, dim)
        labels = grouped_labels(case, len(x), rng)
        g = estimate_grouped(x, labels, 1e-4)
        assert g.classes.dtype == np.int64
        assert g.classes.tolist() == sorted(set(labels.tolist()))
        assert len(g) == len(g.classes)
        for c, mean, var in zip(g.classes, g.mean, g.var):
            want_mean, want_var = reference_estimate(x[labels == c], 1e-4)
            assert mean.tobytes() == want_mean.tobytes()
            assert var.tobytes() == want_var.tobytes()

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_estimate_is_the_one_group_case(self, dim):
        x = np.random.default_rng(dim).standard_normal((257, dim))
        g = estimate(x)
        want_mean, want_var = reference_estimate(x)
        assert g.mean[0].tobytes() == want_mean.tobytes()
        assert g.var[0].tobytes() == want_var.tobytes()

    def test_one_dimension_sums_rows_in_order(self):
        # numpy sums a contiguous column pairwise; the grouped pass adds rows
        # in order, so D = 1 means are the in-order sum over n.
        x = np.random.default_rng(5).standard_normal(1000) * 1e3
        in_order = functools.reduce(operator.add, x.tolist(), 0.0) / len(x)
        assert estimate(x[:, None]).mean[0, 0] == in_order

    def test_no_rows_gives_no_classes(self):
        g = estimate_grouped(np.zeros((0, 3)), np.zeros(0, int))
        assert len(g) == g.classes.size == 0
        assert g.mean.shape == g.var.shape == (0, 3)


class TestPerRow:
    """A stack holds one Gaussian per row, and checks every row."""

    def test_equals_one_gaussian_per_row(self):
        rng = np.random.default_rng(4)
        means, variances = rng.standard_normal((3, 5)), rng.uniform(0.1, 2.0, (3, 5))
        g = ClassGaussians([1, 4, 9], means, variances)
        assert len(g) == 3
        assert (g.classes.dtype, g.mean.dtype, g.var.dtype) == (np.int64, np.float64, np.float64)
        for row, (c, m, v) in enumerate(zip([1, 4, 9], means, variances)):
            got = g.take([row])
            assert got.classes.tolist() == [c]
            assert got.mean.tobytes() == m.tobytes()
            assert got.var.tobytes() == v.tobytes()
        assert g.take([0, 2]).classes.tolist() == [1, 9]

    @pytest.mark.parametrize("means, variances, error", [
        (np.zeros((2, 3)), np.ones((2, 4)), DimensionMismatch),
        (np.zeros(3), np.ones(3), DimensionMismatch),
        (np.array([[0.0, np.nan]]), np.ones((1, 2)), ValueError),
        (np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, np.inf]]), ValueError),
        (np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 1.0]]), ValueError),
    ])
    def test_checks_the_stacks_like_one_gaussian(self, means, variances, error):
        with pytest.raises(error):
            ClassGaussians(np.arange(len(means)), means, variances)

    @pytest.mark.parametrize("classes, error", [
        ([0, 1, 2], DimensionMismatch),
        ([1, 0], ValueError),
        ([1, 1], ValueError),
    ])
    def test_checks_the_class_ids(self, classes, error):
        with pytest.raises(error):
            ClassGaussians(classes, np.zeros((2, 2)), np.ones((2, 2)))

    def test_an_infinite_floor_is_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            estimate(np.ones((2, 2)), var_floor=np.inf)


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = gauss([0.3, -2.0], [1.5, 0.2])
        assert kl(p, p) == 0.0

    def test_unit_mean_shift(self):
        assert abs(kl(gauss(0.0, 1.0), gauss(1.0, 1.0)) - 0.5) < 1e-12

    def test_variance_mismatch(self):
        got = kl(gauss(0.0, 1.0), gauss(0.0, 4.0))
        assert abs(got - KL_VARIANCE_CASE) < 1e-12

    def test_asymmetry(self):
        p, q = gauss(0.0, 1.0), gauss(0.0, 4.0)
        assert kl(p, q) != kl(q, p)

    def test_dimension_additivity(self):
        p1, q1 = gauss(0.0, 1.0), gauss(1.0, 2.0)
        p2, q2 = gauss(-1.0, 0.5), gauss(0.5, 1.5)
        joint_p = gauss([0.0, -1.0], [1.0, 0.5])
        joint_q = gauss([1.0, 0.5], [2.0, 1.5])
        total = kl(p1, q1) + kl(p2, q2)
        np.testing.assert_allclose(kl(joint_p, joint_q), total, rtol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kl_divergence(gauss([0.0], [1.0]), gauss([0.0, 0.0], [1.0, 1.0]))

    def test_stacks_must_hold_the_same_classes(self):
        p = ClassGaussians([1, 2], np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            kl_divergence(p, ClassGaussians([1, 3], np.zeros((2, 2)), np.ones((2, 2))))
        with pytest.raises(DimensionMismatch):
            kl_divergence(p, p.take([0]))

    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_one_row_is_the_scalar_formula_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        mu_p, mu_q = rng.standard_normal((2, dim))
        var_p, var_q = rng.uniform(1e-3, 3.0, (2, dim))
        want = 0.5 * float(np.sum(
            var_p / var_q + (mu_q - mu_p) ** 2 / var_q + np.log(var_q / var_p) - 1.0))
        got = kl_divergence(gauss(mu_p, var_p), gauss(mu_q, var_q))
        assert got.shape == (1,)
        assert got[0] == want

    def test_one_divergence_per_row(self):
        rng = np.random.default_rng(6)
        classes = [3, 8, 20, 21]
        p = ClassGaussians(classes, rng.standard_normal((4, 16)), rng.uniform(0.1, 2.0, (4, 16)))
        q = ClassGaussians(classes, rng.standard_normal((4, 16)), rng.uniform(0.1, 2.0, (4, 16)))
        got = kl_divergence(p, q)
        for row in range(4):
            assert got[row] == kl_divergence(p.take([row]), q.take([row]))[0]

    @given(
        mu_p=st.floats(-5, 5), mu_q=st.floats(-5, 5),
        var_p=st.floats(0.01, 10), var_q=st.floats(0.01, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_negative(self, mu_p, mu_q, var_p, var_q):
        assert kl(gauss(mu_p, var_p), gauss(mu_q, var_q)) >= 0.0

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(5)
        p = gauss(rng.standard_normal(4), rng.uniform(0.1, 2.0, 4))
        means = rng.standard_normal((10, 4))
        variances = rng.uniform(0.1, 2.0, (10, 4))
        batch = kl_divergence_batch(p, means, variances)
        for i in range(10):
            one = kl(p, gauss(means[i], variances[i]))
            np.testing.assert_allclose(batch[i], one, rtol=1e-12)


class TestSample:
    def test_moments(self):
        g = gauss([3.0, -1.0], [4.0, 0.25])
        draws = sample(g, 20000, np.random.default_rng(0))
        assert draws.shape == (20000, 2)
        np.testing.assert_allclose(draws.mean(axis=0), g.mean[0], atol=3 * 2.0 / math.sqrt(20000))
        np.testing.assert_allclose(draws.var(axis=0), g.var[0], rtol=0.05)

    def test_deterministic_under_seed(self):
        g = gauss([0.0], [1.0])
        a = sample(g, 5, np.random.default_rng(9))
        b = sample(g, 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(gauss([0.0], [1.0]), 0, np.random.default_rng(0))


class TestMomentAccumulator:
    def test_matches_two_pass(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 5))
        acc = MomentAccumulator(5)
        for row in x:
            acc.push(row)
        direct = estimate(x)
        streamed = acc.finalize()
        np.testing.assert_allclose(streamed.mean, direct.mean, atol=1e-12)
        np.testing.assert_allclose(streamed.var, direct.var, atol=1e-12)

    def test_pop_is_exact_inverse(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        acc = MomentAccumulator(3)
        for row in x:
            acc.push(row)
        acc.pop(x[1]).pop(x[3])
        direct = estimate(x[[0, 2]])
        streamed = acc.finalize()
        np.testing.assert_allclose(streamed.mean, direct.mean, atol=1e-12)
        np.testing.assert_allclose(streamed.var, direct.var, atol=1e-12)

    def test_pop_empty(self):
        with pytest.raises(EmptyAccumulator):
            MomentAccumulator(2).pop(np.zeros(2))

    def test_finalize_empty(self):
        with pytest.raises(EmptyAccumulator):
            MomentAccumulator(2).finalize()

    def test_copy_is_independent(self):
        acc = MomentAccumulator(1).push(np.array([1.0]))
        clone = acc.copy()
        acc.push(np.array([5.0]))
        assert clone.n == 1
        assert acc.n == 2

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MomentAccumulator(2).push(np.zeros(3))

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_scalar_streams_match(self, values):
        acc = MomentAccumulator(1)
        for v in values:
            acc.push(np.array([v]))
        direct = estimate(np.asarray(values)[:, None])
        streamed = acc.finalize()
        np.testing.assert_allclose(streamed.mean, direct.mean, atol=1e-9)
        np.testing.assert_allclose(streamed.var, direct.var, atol=1e-9)
