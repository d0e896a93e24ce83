"""Hot numerical loops, in numpy.

Per-observation terms are summed in the order the caller passes them;
HybridBelief sorts its observations by object, then time, which fixes the
floating-point summation order.

Kernels:
    class_log_tables   per-sample, per-object, per-class log posterior table
    mh_scan            sequential accept/reject over precomputed proposals
    safety_products    all-future-poses-outside-disk indicators per class
"""

from __future__ import annotations

import numpy as np

_LOG_2PI = float(np.log(2.0 * np.pi))
_CHUNK = 16384  # samples per block: bounds the per-block temporaries


def backend() -> str:
    """Backend name, echoed as `kernel_backend` in every experiment summary."""
    return "numpy"


# ----------------------------------------------------------------------
# class log tables


def class_log_tables(
    samples, pose_col, obj_col, obs_obj, obs_z, log_prior, alphas, sigma2
):
    """(n_samples, n_objects, n_classes) table of log[P0(c) * prod_t P_Z(z|...)].

    samples: (ns, dim) stacked states; pose_col/obj_col: per-observation
    column offsets of the pose and object slots; obs_obj: per-observation
    object row; obs_z: (m, 2) semantic measurements.
    """
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    pose_col = np.ascontiguousarray(pose_col, dtype=np.int64)
    obj_col = np.ascontiguousarray(obj_col, dtype=np.int64)
    obs_obj = np.ascontiguousarray(obs_obj, dtype=np.int64)
    obs_z = np.ascontiguousarray(obs_z, dtype=np.float64)
    log_prior = np.ascontiguousarray(log_prior, dtype=np.float64)
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    sigma2 = float(sigma2)
    ns = samples.shape[0]
    n_obj, n_cls = log_prior.shape
    out = np.empty((ns, n_obj, n_cls))
    out[:] = log_prior[None, :, :]
    m = len(obs_obj)
    if m == 0:
        return out
    const = -_LOG_2PI - np.log(sigma2)
    inv = 0.5 / sigma2
    for lo in range(0, ns, _CHUNK):
        hi = min(lo + _CHUNK, ns)
        blk = samples[lo:hi]
        rx = blk[:, obj_col] - blk[:, pose_col]  # (b, m)
        ry = blk[:, obj_col + 1] - blk[:, pose_col + 1]
        for c in range(n_cls):
            a = alphas[c]
            dx = obs_z[None, :, 0] - a * rx
            dy = obs_z[None, :, 1] - a * ry
            ll = const - inv * (dx * dx + dy * dy)  # (b, m)
            for n in range(n_obj):
                sel = obs_obj == n
                if np.any(sel):
                    out[lo:hi, n, c] += ll[:, sel].sum(axis=1)
    return out


# ----------------------------------------------------------------------
# Metropolis-Hastings scan (independence proposal)


def mh_scan(log_target, log_u):
    """Sequential independence-sampler scan.

    log_target[t] is the log target ratio numerator for proposal t (target
    over proposal density, up to a constant); log_u are log-uniform draws.
    Proposal 0 initializes the chain.  Returns (occupied proposal index per
    step, acceptance count, longest rejection streak).
    """
    log_target = np.ascontiguousarray(log_target, dtype=np.float64)
    log_u = np.ascontiguousarray(log_u, dtype=np.float64)
    n = len(log_target)
    take = np.empty(n, dtype=np.int64)
    take[0] = 0
    cur = 0
    accepts = 0
    consec = 0
    max_consec = 0
    for t in range(1, n):
        if log_u[t] < log_target[t] - log_target[cur]:
            cur = t
            accepts += 1
            consec = 0
        else:
            consec += 1
            if consec > max_consec:
                max_consec = consec
        take[t] = cur
    return take, accepts, max_consec


# ----------------------------------------------------------------------
# safety indicator products


def safety_products(future_xy, object_xy, radii):
    """Indicator that every future pose clears the class-c disk of object n.

    future_xy: (ns, n_future, 2) rolled-out poses (current pose excluded);
    object_xy: (ns, n_objects, 2) sampled object positions; radii: per-class
    disk radii.  Returns (ns, n_objects, n_classes) of 0/1 floats; an empty
    future axis yields all ones.
    """
    future_xy = np.ascontiguousarray(future_xy, dtype=np.float64)
    object_xy = np.ascontiguousarray(object_xy, dtype=np.float64)
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    ns, n_t, _ = future_xy.shape
    n_obj = object_xy.shape[1]
    n_cls = len(radii)
    out = np.empty((ns, n_obj, n_cls))
    r2 = radii * radii
    if n_t == 0:
        out[:] = 1.0
        return out
    fx = future_xy[:, :, 0]
    fy = future_xy[:, :, 1]
    for lo in range(0, ns, _CHUNK):
        hi = min(lo + _CHUNK, ns)
        for n in range(n_obj):
            # squared distances on the x/y planes, (b, n_future)
            dx = fx[lo:hi] - object_xy[lo:hi, n, 0:1]
            dy = fy[lo:hi] - object_xy[lo:hi, n, 1:2]
            dx *= dx
            dy *= dy
            dx += dy
            np.greater(dx.min(axis=1)[:, None], r2[None, :], out=out[lo:hi, n, :])
    return out
