"""Brute-force cross-checks for the hot kernels."""

import numpy as np

from semgeo import _kernels
from semgeo.gaussian import StackedIndex
from semgeo.scenario import LOG_2PI


def random_table_args(rng, ns=64, n_obj=3, n_cls=4, m=9):
    index = StackedIndex(n_obj, 2)  # two appended steps
    samples = rng.normal(size=(ns, index.dim))
    pose_cols = np.array([index.pose_slice(t).start for t in range(3)])
    pose_col = rng.choice(pose_cols, size=m)
    obs_obj = rng.integers(0, n_obj, size=m)
    obs_z = rng.normal(size=(m, 2))
    evidence = tuple((pose_col[obs_obj == n], obs_z[obs_obj == n]) for n in range(n_obj))
    log_prior = np.log(rng.dirichlet(np.ones(n_cls), size=n_obj))
    alphas = np.linspace(0.9, 1.1, n_cls)
    return samples, index, evidence, log_prior, alphas, 0.7


class TestClassLogTables:
    def test_matches_naive_python(self, rng):
        args = random_table_args(rng, ns=8, m=5)
        samples, index, evidence, log_prior, alphas, s2 = args
        out = _kernels.class_log_tables(*args)
        expect = np.tile(log_prior, (8, 1, 1))
        for i in range(8):
            for n, (pose_col, obs_z) in enumerate(evidence):
                obj = index.object_cols(n)
                for j in range(len(pose_col)):
                    rel = samples[i, obj] - samples[i, [pose_col[j], pose_col[j] + 1]]
                    for c in range(len(alphas)):
                        d = obs_z[j] - alphas[c] * rel
                        expect[i, n, c] += -LOG_2PI - np.log(s2) - 0.5 * d @ d / s2
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_no_observations_returns_prior(self, rng):
        args = random_table_args(rng, ns=4, m=0)
        out = _kernels.class_log_tables(*args)
        np.testing.assert_array_equal(out, np.tile(args[3], (4, 1, 1)))


class TestMhScan:
    def test_always_accept_when_target_increases(self):
        log_t = np.arange(5.0)
        take, accepts, streak = _kernels.mh_scan(log_t, np.full(5, -1e-12))
        np.testing.assert_array_equal(take, [0, 1, 2, 3, 4])
        assert accepts == 4 and streak == 0

    def test_never_accept_when_target_drops(self):
        log_t = -np.arange(5.0)
        take, accepts, streak = _kernels.mh_scan(log_t, np.zeros(5))
        np.testing.assert_array_equal(take, [0, 0, 0, 0, 0])
        assert accepts == 0 and streak == 4

    def test_matches_explicit_chain(self, rng):
        log_t = rng.normal(size=300)
        log_u = np.log(rng.random(300))
        take, accepts, streak = _kernels.mh_scan(log_t, log_u)
        cur, n_acc = 0, 0
        for t in range(1, 300):
            if log_u[t] < log_t[t] - log_t[cur]:
                cur, n_acc = t, n_acc + 1
            assert take[t] == cur
        assert accepts == n_acc


def planes(future_xy):
    """(n_future, 2, ns) rollout planes of (ns, n_future, 2) poses."""
    return np.ascontiguousarray(future_xy.transpose(1, 2, 0))


class TestSafetyProducts:
    def test_matches_bruteforce(self, rng):
        # 1-3 objects, and a sample count that crosses one _CHUNK boundary
        cases = [(50, 6, 2), (40, 5, 1), (30, 4, 3), (_kernels._CHUNK + 7, 3, 2)]
        for ns, n_t, n_obj in cases:
            future = rng.normal(size=(ns, n_t, 2)) * 3
            objects = rng.normal(size=(ns, n_obj, 2)) * 3
            radii = np.array([0.0, 1.0, 2.5])
            out = _kernels.safety_products(planes(future), objects, radii)
            d = np.linalg.norm(future[:, None, :, :] - objects[:, :, None, :], axis=3)
            expect = (d.min(axis=2)[:, :, None] > radii[None, None, :]).astype(float)
            np.testing.assert_array_equal(out, expect)

    def test_zero_radius_never_blocks(self, rng):
        future = rng.normal(size=(20, 4, 2))
        objects = rng.normal(size=(20, 3, 2))
        out = _kernels.safety_products(planes(future), objects, np.zeros(2))
        np.testing.assert_array_equal(out, 1.0)

    def test_empty_future_is_safe(self, rng):
        out = _kernels.safety_products(
            np.empty((0, 2, 7)), rng.normal(size=(7, 2, 2)), np.array([0.0, 9.0])
        )
        np.testing.assert_array_equal(out, 1.0)

    def test_disk_is_closed(self):
        """Distance exactly equal to the radius counts as a violation."""
        future = planes(np.array([[[1.0, 0.0]]]))
        objects = np.array([[[0.0, 0.0]]])
        out = _kernels.safety_products(future, objects, np.array([1.0]))
        np.testing.assert_array_equal(out, 0.0)
        out = _kernels.safety_products(
            future, objects, np.array([1.0 - 1e-9])
        )
        np.testing.assert_array_equal(out, 1.0)


class TestBackendSelection:
    def test_backend_name(self):
        assert _kernels.backend() == "numpy"
