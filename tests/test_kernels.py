"""Brute-force cross-checks for the hot kernels."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from semgeo import _kernels
from semgeo.estimators import _check_rows_normalized
from semgeo.gaussian import StackedIndex
from semgeo.harness import resize_scenario
from semgeo.oracles import build_history_beliefs
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


CLASS_COUNTS = range(1, 10)  # both sides of numpy's pairwise threshold at 8


def layouts(table):
    """The same values as C-ordered, Fortran-ordered, and strided views."""
    yield table
    yield np.asfortranarray(table)
    yield np.repeat(table, 2, axis=-1)[..., ::2]
    yield np.ascontiguousarray(np.moveaxis(table, -1, 0)).transpose(1, 2, 0)


def rows_near_one(n_cls):
    """(rows, 1, n_cls) rows of 1/n_cls with one entry moved so the row
    sum falls a few ulps either side of the check's 1 +- 1.1e-5 bounds,
    plus exact, NaN and infinite rows."""
    tol, eps = 1e-6 + 1e-5, np.finfo(float).eps
    offsets = [0.0, 1.2e-5, -1.2e-5, np.nan, np.inf, -np.inf]
    offsets += [sign * tol + k * eps for sign in (1, -1) for k in range(-4, 5)]
    rows = []
    for off in offsets:
        for where in (0, n_cls - 1):
            row = np.full(n_cls, 1.0 / n_cls)
            row[where] += off
            rows.append(row)
    return np.array(rows)[:, None, :]


class TestClassSum:
    @pytest.mark.parametrize("n_cls", CLASS_COUNTS)
    def test_equals_numpy_sum(self, rng, n_cls):
        table = rng.random((500, 3, n_cls)) * 10.0 ** rng.uniform(-8, 8, (500, 3, n_cls))
        table[0, 0] = -0.0
        for t in layouts(table):
            total = _kernels.class_sum(t)
            assert_array_equal(total, t.sum(axis=-1))
            assert_array_equal(np.signbit(total), np.signbit(t.sum(axis=-1)))

    @pytest.mark.parametrize("n_cls", CLASS_COUNTS)
    def test_row_check_verdicts_unchanged(self, n_cls):
        """The row-sum check accepts and rejects exactly what
        np.all(|probs.sum(-1) - 1| <= 1e-6 + 1e-5) does, row by row."""
        rows = rows_near_one(n_cls)
        assert_array_equal(_kernels.class_sum(rows), rows.sum(axis=-1))
        verdicts = set()
        for row in rows:
            expect = bool(np.all(np.abs(row.sum(axis=-1) - 1.0) <= 1e-6 + 1e-5))
            verdicts.add(expect)
            try:
                _check_rows_normalized(row, "probs")
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expect, row
        assert verdicts == {True, False}
        with pytest.raises(ValueError, match="rows must sum to 1"):
            _check_rows_normalized(rows, "probs")

    @pytest.mark.parametrize("n_cls", range(2, 10))
    def test_conditional_normalizer_unchanged(self, oracle_small, n_cls):
        """b[c_n | X] equals its former numpy form, float for float."""
        sc = resize_scenario(oracle_small, n_classes=n_cls)
        _, _, hybrid, _, streams = build_history_beliefs(sc, 3, seed=7 + n_cls)
        samples = hybrid.geo.sample(streams.sampler, 300)
        tables = hybrid.class_log_tables(samples)
        tables -= tables.max(axis=2, keepdims=True)
        np.exp(tables, out=tables)
        tables /= tables.sum(axis=2, keepdims=True)
        assert_array_equal(hybrid.class_posterior_given_state(samples), tables)


class TestBackendSelection:
    def test_backend_name(self):
        assert _kernels.backend() == "numpy"
