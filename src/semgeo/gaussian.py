"""Dense information-form Gaussian factor graph over a stacked state vector.

The stacked state is laid out append-only so slot offsets never move as time
steps are added:

    [ x_0 | x_obj_1 .. x_obj_N | x_1 | x_2 | ... | x_k ]

Every factor is a linear-Gaussian observation value = A @ X[cols] + offset + v
with v ~ N(0, noise_cov); a prior is the special case A = I, offset = 0,
value = mean.  The graph accumulates the exact unnormalized log product of
all factor densities, so the normalizer (log evidence) of the product is
available in closed form.  That quantity is what makes analytic hypothesis
weights and marginal-consistency checks possible.

Each distinct noise covariance is Cholesky-factored once: a bounded memo maps
its shape and bytes to the read-only lower factor and its log-determinant, so
the isotropic motion and sensor noises of a long run are factored one time
each.  Every call still checks shapes, columns and finiteness, and solves
against the factor with LAPACK's potrs, the routine `cho_solve` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg

from .scenario import LOG_2PI


class SingularPrecisionError(np.linalg.LinAlgError):
    """Posterior precision not positive definite (some slot unconstrained)."""


_POTRS = linalg.get_lapack_funcs("potrs", dtype=np.float64)


@lru_cache(maxsize=32)
def _noise_factor(shape: tuple, data: bytes) -> tuple[np.ndarray, float]:
    """(lower Cholesky factor, log-determinant) of the float64 matrix with
    this shape and C-order bytes.  A raising input (not finite, not positive
    definite) is not cached, so it raises again on every call."""
    cov = np.frombuffer(data).reshape(shape)
    try:
        low = linalg.cho_factor(cov, lower=True)[0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("noise_cov must be positive definite") from exc
    low.setflags(write=False)
    return low, 2.0 * np.sum(np.log(np.diag(low)))


@dataclass(frozen=True)
class StackedIndex:
    """Offsets into the stacked vector for pose and object slots."""

    n_objects: int
    n_steps: int = 0

    @property
    def dim(self) -> int:
        return 2 * (self.n_steps + 1) + 2 * self.n_objects

    def pose_slice(self, t: int) -> slice:
        if not 0 <= t <= self.n_steps:
            raise IndexError(f"pose {t} out of range 0..{self.n_steps}")
        if t == 0:
            return slice(0, 2)
        start = 2 + 2 * self.n_objects + 2 * (t - 1)
        return slice(start, start + 2)

    def object_slice(self, n: int) -> slice:
        if not 0 <= n < self.n_objects:
            raise IndexError(f"object {n} out of range 0..{self.n_objects - 1}")
        start = 2 + 2 * n
        return slice(start, start + 2)

    def pose_cols(self, t: int) -> np.ndarray:
        s = self.pose_slice(t)
        return np.arange(s.start, s.stop)

    def object_cols(self, n: int) -> np.ndarray:
        s = self.object_slice(n)
        return np.arange(s.start, s.stop)

    def with_appended_step(self) -> "StackedIndex":
        return StackedIndex(self.n_objects, self.n_steps + 1)

    def current_pose(self, samples: np.ndarray) -> np.ndarray:
        """Extract x_k from a (..., dim) array of stacked states."""
        return samples[..., self.pose_slice(self.n_steps)]

    def object_xy(self, samples: np.ndarray) -> np.ndarray:
        """Extract all object positions as (..., n_objects, 2)."""
        s = self.object_slice(0)
        block = samples[..., s.start : s.start + 2 * self.n_objects]
        return block.reshape(*block.shape[:-1], self.n_objects, 2)


class GaussianFactorGraph:
    """Accumulates linear-Gaussian factors in precision form.

    Maintains H (precision), theta (information vector), and log_const, the
    sum of each factor's state-independent log terms, so that

        log prod_m f_m(X) = log_const + theta @ X - 0.5 * X @ H @ X

    Derived quantities (mean, covariance, log evidence) are computed lazily
    from a cached Cholesky factor and invalidated on every added factor.
    """

    def __init__(self, index):
        """index: a StackedIndex, or a plain dimension for untyped states."""
        if isinstance(index, int):
            self.index = None
            d = index
        else:
            self.index = index
            d = index.dim
        self._dim = d
        self._H = np.zeros((d, d))
        self._theta = np.zeros(d)
        self._log_const = 0.0
        self._cache: dict = {}

    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def with_appended_step(self) -> "GaussianFactorGraph":
        """New graph with one more pose slot (zero precision until factored)."""
        if self.index is None:
            raise TypeError("appending steps requires a StackedIndex layout")
        new_index = self.index.with_appended_step()
        g = GaussianFactorGraph(new_index)
        d = self.dim
        g._H[:d, :d] = self._H
        g._theta[:d] = self._theta
        g._log_const = self._log_const
        return g

    # ------------------------------------------------------------------
    # factor accumulation

    def add_linear_factor(self, cols, a_mat, offset, noise_cov, value) -> None:
        """Add the factor  value = a_mat @ X[cols] + offset + v,  v~N(0, noise_cov).

        Raises ValueError on mismatched shapes, columns outside the state,
        a non-finite a_mat, value - offset or noise_cov, or a noise_cov that
        is not positive definite; the noise factor comes from the memo."""
        cols = np.asarray(cols, dtype=np.int64).ravel()
        a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
        m = a_mat.shape[0]
        resid = np.asarray(value, dtype=float).reshape(m) - np.asarray(offset, dtype=float)
        noise_cov = np.asarray(noise_cov, dtype=float)
        if a_mat.shape != (m, len(cols)):
            raise ValueError(
                f"a_mat shape {a_mat.shape} incompatible with {len(cols)} columns"
            )
        if resid.shape != (m,):
            raise ValueError(f"offset shape {np.shape(offset)} does not broadcast to ({m},)")
        if noise_cov.shape != (m, m):
            raise ValueError(f"noise_cov shape {noise_cov.shape}, expected ({m},{m})")
        if ((cols < 0) | (cols >= self.dim)).any():
            raise ValueError("factor columns outside the stacked state")
        low, logdet_r = _noise_factor(noise_cov.shape, noise_cov.tobytes())
        if not (np.isfinite(a_mat).all() and np.isfinite(resid).all()):
            raise ValueError("a_mat and value - offset must be finite")
        ri_a, info_a = _POTRS(low, a_mat, lower=True)
        ri_r, info_r = _POTRS(low, resid, lower=True)
        if info_a or info_r:
            raise ValueError(f"potrs reported info {info_a or info_r}")
        self._H[cols[:, None], cols] += a_mat.T @ ri_a
        self._theta[cols] += a_mat.T @ ri_r
        self._log_const += -0.5 * m * LOG_2PI - 0.5 * logdet_r - 0.5 * resid @ ri_r
        self._cache.clear()

    def add_prior(self, cols, mean, cov) -> None:
        """Gaussian prior on one slot: the factor mean = I @ X[cols] + v."""
        cols = np.asarray(cols, dtype=np.int64).ravel()
        self.add_linear_factor(cols, np.eye(len(cols)), 0.0, cov, mean)

    # ------------------------------------------------------------------
    # posterior queries

    def _chol(self):
        if "chol" not in self._cache:
            try:
                self._cache["chol"] = linalg.cho_factor(self._H, lower=True)
            except np.linalg.LinAlgError as exc:
                bad = [int(i) for i in np.flatnonzero(np.diag(self._H) == 0.0)]
                raise SingularPrecisionError(
                    f"precision is singular; unconstrained state indices: {bad}"
                ) from exc
        return self._cache["chol"]

    def _logdet_h(self) -> float:
        if "logdet" not in self._cache:
            self._cache["logdet"] = 2.0 * float(
                np.sum(np.log(np.diag(self._chol()[0])))
            )
        return self._cache["logdet"]

    def posterior_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, covariance) of the normalized product of all factors."""
        if "cov" not in self._cache:
            self._cache["cov"] = linalg.cho_solve(self._chol(), np.eye(self.dim))
        return self.mean, self._cache["cov"]

    @property
    def mean(self) -> np.ndarray:
        cf = self._chol()
        if "mean" not in self._cache:
            self._cache["mean"] = linalg.cho_solve(cf, self._theta)
        return self._cache["mean"]

    @property
    def log_evidence(self) -> float:
        """log integral of the unnormalized factor product over all of X."""
        return float(
            self._log_const
            + 0.5 * self._theta @ self.mean
            + 0.5 * self.dim * LOG_2PI
            - 0.5 * self._logdet_h()
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, dim) exact draws from the posterior Gaussian."""
        low = self._chol()[0]
        mean = self.mean
        xi = rng.standard_normal((self.dim, n))
        # H = L L^T  =>  cov = L^{-T} L^{-1}; x = mean + L^{-T} xi
        # xi is finite by construction and cho_factor has checked `low`
        dev = linalg.solve_triangular(low, xi, lower=True, trans="T", check_finite=False)
        out = dev.T
        out += mean
        return out

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Normalized posterior log density at x, batched over leading axis."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = np.atleast_2d(x)
        dev = xb - self.mean[None, :]
        q = np.einsum("ij,jk,ik->i", dev, self._H, dev)
        out = -0.5 * q + 0.5 * self._logdet_h() - 0.5 * self.dim * LOG_2PI
        return float(out[0]) if single else out

    def log_factor_product(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized log product of all factors at x (batched)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = np.atleast_2d(x)
        q = np.einsum("ij,jk,ik->i", xb, self._H, xb)
        out = self._log_const + xb @ self._theta - 0.5 * q
        return float(out[0]) if single else out
