"""Hot numerical loops, in numpy.

Per-observation terms are summed in the order the caller passes them;
HybridBelief keeps each object's observations in arrival order (time, then
batch order), which fixes the floating-point summation order.

Kernels:
    class_log_tables   per-sample, per-object, per-class log posterior table
    mh_scan            sequential accept/reject over precomputed proposals
    safety_products    all-future-poses-outside-disk indicators per class

Layout.  The sample axis is the long one (hundreds to 100k) and the others
are short (2 coordinates, 2-8 classes, 1-27 future steps), so the kernels
loop in Python over the short axes and let each numpy pass run over
samples.  Future poses arrive as rollout planes, the C-contiguous
(n_future, 2, n_samples) array rollout_states returns, one row of x and one
of y per step; safety_products reads them as they are.  A minimum over the
short axis is then a running elementwise np.minimum down the rows.

Two numpy behaviours decide whether a rewrite keeps every float:
    - a sum along a contiguous axis of 8 or more elements is pairwise (eight
      partial sums, then combined), while a sum along a strided axis adds
      left to right; a rewrite must keep which of the two each sum was.
      The cost sums contiguous (n, horizon) rows, so it copies its
      (horizon, n) distances to that layout first; the class tables sum
      (m_n, n_samples) buffers over axis 0, left to right;
    - einsum picks its summation order from the operands' strides, so a
      table handed to the estimators must keep its C-contiguous layout, not
      come back as a transposed view with the same values.
Min, max and elementwise arithmetic are exact in any order.
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


def class_log_tables(samples, index, evidence, log_prior, alphas, sigma2):
    """(n_samples, n_objects, n_classes) table of log[P0(c) * prod_t P_Z(z|...)].

    samples: (ns, dim) stacked states laid out by `index`; evidence[n]:
    object n's observing pose columns (m_n,) and semantic measurements
    (m_n, 2), as HybridBelief stores them.
    """
    ns = samples.shape[0]
    n_obj, n_cls = log_prior.shape
    out = np.empty((ns, n_obj, n_cls))
    out[:] = log_prior[None, :, :]
    const = -_LOG_2PI - np.log(sigma2)
    inv = 0.5 / sigma2
    b0 = min(ns, _CHUNK)
    # per observed object: its column, its observations and two (m_n, b)
    # work buffers the class chain runs in, in place
    groups = [
        (n, index.object_slice(n).start, pc, z[:, 0:1], z[:, 1:2],
         np.empty((len(pc), b0)), np.empty((len(pc), b0)))
        for n, (pc, z) in enumerate(evidence)
        if len(pc)
    ]
    if not groups:
        return out
    for lo in range(0, ns, _CHUNK):
        hi = min(lo + _CHUNK, ns)
        cols = np.ascontiguousarray(samples[lo:hi].T)  # (dim, b)
        for n, oc, pc, zx, zy, bx, by in groups:
            rx = cols[oc] - cols[pc]  # (m_n, b)
            ry = cols[oc + 1] - cols[pc + 1]
            dx, dy = bx[:, : hi - lo], by[:, : hi - lo]
            for c in range(n_cls):
                # ll = const - inv * ((zx - a*rx)**2 + (zy - a*ry)**2)
                a = alphas[c]
                np.multiply(rx, a, out=dx)
                np.subtract(zx, dx, out=dx)
                np.multiply(ry, a, out=dy)
                np.subtract(zy, dy, out=dy)
                np.multiply(dx, dx, out=dx)
                np.multiply(dy, dy, out=dy)
                np.add(dx, dy, out=dx)
                np.multiply(dx, inv, out=dx)
                np.subtract(const, dx, out=dx)
                # summed over observations one row at a time, left to right
                out[lo:hi, n, c] += dx.sum(axis=0)
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


def safety_products(planes, object_xy, radii):
    """Indicator that every future pose clears the class-c disk of object n.

    planes: (n_future, 2, ns) rollout planes (current pose excluded), as
    rollout_states returns them; object_xy: (ns, n_objects, 2) sampled
    object positions; radii: per-class disk radii.  Returns a C-contiguous
    (ns, n_objects, n_classes) table of 0/1 floats; an empty future axis
    yields all ones.
    """
    n_t, _, ns = planes.shape
    n_obj = object_xy.shape[1]
    n_cls = len(radii)
    out = np.empty((ns, n_obj, n_cls))
    if n_t == 0:
        out[:] = 1.0
        return out
    r2 = (radii * radii)[:, None]
    stage = np.empty((n_cls, min(ns, _CHUNK)))
    for lo in range(0, ns, _CHUNK):
        hi = min(lo + _CHUNK, ns)
        st = stage[:, : hi - lo]
        for n in range(n_obj):
            # squared distances on the x/y planes, (n_future, b)
            dx = planes[:, 0, lo:hi] - object_xy[lo:hi, n, 0]
            dy = planes[:, 1, lo:hi] - object_xy[lo:hi, n, 1]
            dx *= dx
            dy *= dy
            dx += dy
            np.greater(dx.min(axis=0), r2, out=st)
            out[lo:hi, n, :] = st.T
    return out
