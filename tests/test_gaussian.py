"""Factor graph against covariance-form Kalman updates and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from semgeo.gaussian import (
    GaussianFactorGraph,
    SingularPrecisionError,
    StackedIndex,
    _noise_factor,
)
from semgeo.scenario import LOG_2PI
from semgeo.oracles import graph_from_problem, kalman_oracle, random_factor_problem


class TestStackedIndex:
    def test_layout_is_append_only(self):
        """Slot offsets for existing variables never move when steps grow."""
        idx0 = StackedIndex(n_objects=3)
        idx2 = idx0.with_appended_step().with_appended_step()
        assert idx0.dim == 8 and idx2.dim == 12
        assert idx0.pose_slice(0) == idx2.pose_slice(0)
        for n in range(3):
            assert idx0.object_slice(n) == idx2.object_slice(n)
        assert idx2.pose_slice(2) == slice(10, 12)

    def test_slices_partition_the_state(self):
        idx = StackedIndex(n_objects=2, n_steps=2)
        cols = np.concatenate(
            [idx.pose_cols(t) for t in range(3)]
            + [idx.object_cols(n) for n in range(2)]
        )
        assert sorted(cols.tolist()) == list(range(idx.dim))

    def test_out_of_range_raises(self):
        idx = StackedIndex(n_objects=1, n_steps=1)
        with pytest.raises(IndexError):
            idx.pose_slice(2)
        with pytest.raises(IndexError):
            idx.object_slice(1)

    def test_extractors(self, rng):
        idx = StackedIndex(n_objects=2, n_steps=1)
        x = rng.normal(size=(5, idx.dim))
        np.testing.assert_array_equal(idx.current_pose(x), x[:, 6:8])
        np.testing.assert_array_equal(
            idx.object_xy(x), x[:, 2:6].reshape(5, 2, 2)
        )
        assert idx.object_xy(x).shape == (5, 2, 2)


class TestAgainstKalman:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_posterior_and_evidence_match_oracle(self, seed):
        """Information form agrees with sequential covariance-form updates."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 9))
        priors, obs = random_factor_problem(dim, 5, rng)
        g = graph_from_problem(dim, priors, obs)
        mean_o, cov_o, loglik = kalman_oracle(dim, priors, obs)
        mean_g, cov_g = g.posterior_moments()
        np.testing.assert_allclose(mean_g, mean_o, atol=1e-9)
        np.testing.assert_allclose(cov_g, cov_o, atol=1e-9)
        np.testing.assert_allclose(g.log_evidence, loglik, atol=1e-9)

    def test_scalar_conjugate_evidence(self):
        """Prior N(0,1), likelihood N(x,1), z=2: evidence is N(2; 0, 2)."""
        g = GaussianFactorGraph(1)
        g.add_prior([0], [0.0], [[1.0]])
        g.add_linear_factor([0], [[1.0]], 0.0, [[1.0]], [2.0])
        np.testing.assert_allclose(g.log_evidence, -2.2655121234846454, rtol=1e-14)
        mean, cov = g.posterior_moments()
        np.testing.assert_allclose(mean, [1.0])
        np.testing.assert_allclose(cov, [[0.5]])

    def test_evidence_chain_rule(self, rng):
        """Evidence after two factors = evidence after one + predictive term.

        log Z_2 - log Z_1 is the log marginal likelihood of the second
        observation under the first posterior, computed here in closed form.
        """
        g = GaussianFactorGraph(2)
        g.add_prior([0, 1], [1.0, -1.0], np.eye(2) * 2.0)
        a = np.array([[1.0, 0.5]])
        g.add_linear_factor([0, 1], a, 0.2, [[0.8]], [1.3])
        z1 = g.log_evidence
        mean, cov = g.posterior_moments()
        a2 = np.array([[0.3, -1.0]])
        z, r = np.array([0.4]), np.array([[0.5]])
        g.add_linear_factor([0, 1], a2, 0.0, r, z)
        z2 = g.log_evidence
        s = a2 @ cov @ a2.T + r
        resid = z - a2 @ mean
        pred = float(
            -0.5 * np.log(2 * np.pi)
            - 0.5 * np.log(s[0, 0])
            - 0.5 * resid[0] ** 2 / s[0, 0]
        )
        np.testing.assert_allclose(z2 - z1, pred, rtol=1e-12)


class TestGraphQueries:
    def problem_graph(self, seed=3):
        rng = np.random.default_rng(seed)
        priors, obs = random_factor_problem(5, 4, rng)
        return graph_from_problem(5, priors, obs)

    def test_sampling_moments(self):
        g = self.problem_graph()
        mean, cov = g.posterior_moments()
        draws = g.sample(np.random.default_rng(0), 60_000)
        se = np.sqrt(np.diag(cov) / 60_000)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)

    def test_log_density_normalized_vs_factor_product(self):
        """log_density differs from log_factor_product by exactly log Z."""
        g = self.problem_graph()
        x = g.sample(np.random.default_rng(1), 7)
        np.testing.assert_allclose(
            g.log_factor_product(x) - g.log_density(x),
            g.log_evidence,
            rtol=1e-10,
        )

    def test_log_density_matches_gaussian_formula(self):
        g = self.problem_graph()
        mean, cov = g.posterior_moments()
        x = g.sample(np.random.default_rng(2), 4)
        dev = x - mean
        direct = (
            -0.5 * np.einsum("ij,jk,ik->i", dev, np.linalg.inv(cov), dev)
            - 0.5 * g.dim * np.log(2 * np.pi)
            - 0.5 * np.linalg.slogdet(cov)[1]
        )
        np.testing.assert_allclose(g.log_density(x), direct, rtol=1e-9)

    def test_unconstrained_slot_raises_with_indices(self):
        g = GaussianFactorGraph(4)
        g.add_prior([0, 1], [0.0, 0.0], np.eye(2))
        with pytest.raises(SingularPrecisionError, match=r"\[2, 3\]"):
            g.posterior_moments()

    def test_factor_validation(self):
        g = GaussianFactorGraph(3)
        with pytest.raises(ValueError, match="columns outside"):
            g.add_prior([5], [0.0], [[1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            g.add_prior([0], [0.0], [[0.0]])
        with pytest.raises(ValueError, match="incompatible"):
            g.add_linear_factor([0, 1], np.eye(3), 0.0, np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="noise_cov shape"):
            g.add_linear_factor([0, 1], np.eye(2), 0.0, 0.5, np.zeros(2))


class TestAppendStep:
    def test_append_preserves_old_posterior_block(self):
        """Before any new factor, the old variables keep their posterior and
        the appended pose has zero precision (queries must fail loudly)."""
        idx = StackedIndex(n_objects=1)
        g = GaussianFactorGraph(idx)
        g.add_prior(idx.pose_cols(0), [0.0, 0.0], np.eye(2))
        g.add_prior(idx.object_cols(0), [3.0, 1.0], np.eye(2))
        old_evidence = g.log_evidence
        g2 = g.with_appended_step()
        assert g2.dim == g.dim + 2
        with pytest.raises(SingularPrecisionError):
            g2.posterior_moments()
        cols = g2.index.pose_cols(1)
        a = np.hstack([np.eye(2), -np.eye(2)])
        g2.add_linear_factor(
            np.concatenate([cols, g2.index.pose_cols(0)]),
            a,
            0.0,
            np.eye(2) * 0.3,
            [0.5, 0.5],
        )
        mean, cov = g2.posterior_moments()
        old_mean, old_cov = g.posterior_moments()
        np.testing.assert_allclose(mean[:4], old_mean, atol=1e-12)
        np.testing.assert_allclose(cov[:4, :4], old_cov, atol=1e-12)
        # motion factors carry unit Jacobians, so evidence shifts by the
        # motion-likelihood normalizer only after conditioning on data
        assert g2.log_evidence != old_evidence

    def test_chained_appends_match_single_big_graph(self, rng):
        idx = StackedIndex(n_objects=1)
        g = GaussianFactorGraph(idx)
        g.add_prior(idx.pose_cols(0), [0.0, 0.0], np.eye(2) * 0.1)
        g.add_prior(idx.object_cols(0), [2.0, 2.0], np.eye(2))
        for t in range(3):
            g = g.with_appended_step()
            cols = np.concatenate(
                [g.index.pose_cols(t + 1), g.index.pose_cols(t)]
            )
            g.add_linear_factor(
                cols,
                np.hstack([np.eye(2), -np.eye(2)]),
                0.0,
                np.eye(2) * 0.3,
                [0.4, 0.4],
            )
        big_idx = StackedIndex(n_objects=1, n_steps=3)
        big = GaussianFactorGraph(big_idx)
        big.add_prior(big_idx.pose_cols(0), [0.0, 0.0], np.eye(2) * 0.1)
        big.add_prior(big_idx.object_cols(0), [2.0, 2.0], np.eye(2))
        for t in range(3):
            cols = np.concatenate(
                [big_idx.pose_cols(t + 1), big_idx.pose_cols(t)]
            )
            big.add_linear_factor(
                cols,
                np.hstack([np.eye(2), -np.eye(2)]),
                0.0,
                np.eye(2) * 0.3,
                [0.4, 0.4],
            )
        np.testing.assert_allclose(g.log_evidence, big.log_evidence, rtol=1e-12)
        np.testing.assert_allclose(g.mean, big.mean, atol=1e-12)


def random_spd(rng, m):
    root = rng.normal(size=(m, m))
    return root @ root.T + m * np.eye(m)


class TestNoiseFactor:
    """add_linear_factor's memoized noise factor and direct potrs solves
    against a reference built from cho_factor and cho_solve."""

    def test_bit_identical_to_cho_solve_reference(self, rng):
        dim = 7
        g = GaussianFactorGraph(dim)
        h, theta, log_const = np.zeros((dim, dim)), np.zeros(dim), 0.0
        # a small pool, so most factors reuse a noise matrix already cached
        pool = [random_spd(rng, m) for m in (1, 2, 3) for _ in range(2)]
        pool += [0.3 * np.eye(2), 5.0 * np.eye(2)]
        hits = _noise_factor.cache_info().hits
        for _ in range(60):
            noise = pool[rng.integers(len(pool))]
            m = len(noise)
            cols = rng.choice(dim, size=int(rng.integers(1, 5)), replace=False)
            a_mat = rng.normal(size=(m, len(cols)))
            offset = rng.normal(size=m) if rng.random() < 0.5 else float(rng.normal())
            value = rng.normal(size=m)
            g.add_linear_factor(cols, a_mat, offset, noise, value)
            cf = linalg.cho_factor(noise, lower=True)
            resid = value - np.broadcast_to(offset, (m,))
            ri_a = linalg.cho_solve(cf, a_mat)
            ri_r = linalg.cho_solve(cf, resid)
            h[np.ix_(cols, cols)] += a_mat.T @ ri_a
            theta[cols] += a_mat.T @ ri_r
            logdet = 2.0 * np.sum(np.log(np.diag(cf[0])))
            log_const += -0.5 * m * LOG_2PI - 0.5 * logdet - 0.5 * resid @ ri_r
            # after every factor, and the memo itself: a last-bit slip in the
            # log-determinant can vanish in log_const's sum
            np.testing.assert_array_equal(g._H, h)
            np.testing.assert_array_equal(g._theta, theta)
            np.testing.assert_array_equal(g._log_const, log_const)
            low, memo_logdet = _noise_factor(noise.shape, noise.tobytes())
            np.testing.assert_array_equal(low, cf[0])
            assert memo_logdet == logdet
        assert _noise_factor.cache_info().hits >= hits + 2 * 60 - len(pool)

    @pytest.mark.parametrize("where", ["a_mat", "value", "offset", "noise_cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, where, bad):
        args = dict(a_mat=np.eye(2), offset=np.zeros(2), noise_cov=np.eye(2), value=np.ones(2))
        args[where] = args[where].copy()
        args[where].flat[0] = bad
        g = GaussianFactorGraph(2)
        size = _noise_factor.cache_info().currsize
        with pytest.raises(ValueError):
            g.add_linear_factor([0, 1], **args)
        np.testing.assert_array_equal(g._H, 0.0)
        if where == "noise_cov":
            assert _noise_factor.cache_info().currsize == size

    def test_non_pd_raises_after_pd_of_same_shape_is_cached(self):
        g = GaussianFactorGraph(2)
        g.add_prior([0, 1], [0.0, 0.0], np.eye(2))
        g.add_prior([0, 1], [0.0, 0.0], np.eye(2))
        for _ in range(2):
            with pytest.raises(ValueError, match="positive definite"):
                g.add_prior([0, 1], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_memo_stays_bounded(self):
        g = GaussianFactorGraph(2)
        for k in range(200):
            g.add_prior([0, 1], [0.0, 0.0], (1.0 + k) * np.eye(2))
        info = _noise_factor.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_cached_factor_is_read_only(self):
        noise = 0.7 * np.eye(2)
        low, logdet = _noise_factor(noise.shape, noise.tobytes())
        assert not low.flags.writeable
        with pytest.raises(ValueError):
            low[0, 0] = 1.0
        assert logdet == pytest.approx(2.0 * np.log(0.7), rel=1e-14)
