"""Pure-Python (numpy) kernels for the floating-point hot loops.

Same contract as the compiled module `ietflow._core`: interval tables are
float64 arrays in top order (cumulative right endpoints, per-interval
translations and roof constants) plus the bottom-order tables for the
inverse map.  Distances to singular endpoints are floored at 1e-300 so a
stray sample never produces an infinity; the Monte-Carlo callers treat
those events as measure zero.  The kernels over sample arrays are numpy
loops; `min_orbit_distance` walks a single point, where numpy calls on
length-1 arrays cost more than the arithmetic, so it is a plain-float
loop on Python lists with `bisect` lookups, bit for bit the numpy result.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

IMPLEMENTATION = "numpy"

_TINY = 1e-300


def _indices(rights, x):
    return np.minimum(np.searchsorted(rights, x, side="right"),
                      len(rights) - 1)


def iet_apply(rights, trans, x):
    """One forward step of the exchange on an array of points."""
    return x + trans[_indices(rights, x)]


def iet_apply_inverse(rights_b, trans_b, x):
    return x - trans_b[_indices(rights_b, x)]


def iet_iterate(rights, trans, rights_b, trans_b, x, n):
    x = np.array(x, dtype=np.float64, copy=True)
    if n >= 0:
        for _ in range(n):
            x = iet_apply(rights, trans, x)
    else:
        for _ in range(-n):
            x = iet_apply_inverse(rights_b, trans_b, x)
    return x


def roof_values(rights, lefts, c0, cp, cm, x):
    idx = _indices(rights, x)
    dl = np.maximum(x - lefts[idx], _TINY)
    dr = np.maximum(rights[idx] - x, _TINY)
    return c0 - cp[idx] * np.log(dl) - cm[idx] * np.log(dr)


def roof_derivatives(rights, lefts, c0, cp, cm, x):
    idx = _indices(rights, x)
    dl = np.maximum(x - lefts[idx], _TINY)
    dr = np.maximum(rights[idx] - x, _TINY)
    return -cp[idx] / dl + cm[idx] / dr


def birkhoff_sums(rights, trans, rights_b, trans_b, lefts, c0, cp, cm,
                  x0, r, derivative=False):
    """S_r(f) (or S_r(f')) for every sample in x0; r may be negative."""
    x = np.array(x0, dtype=np.float64, copy=True)
    acc = np.zeros_like(x)
    term = roof_derivatives if derivative else roof_values
    if r >= 0:
        for _ in range(r):
            acc += term(rights, lefts, c0, cp, cm, x)
            x = iet_apply(rights, trans, x)
        return acc
    for _ in range(-r):
        x = iet_apply_inverse(rights_b, trans_b, x)
        acc += term(rights, lefts, c0, cp, cm, x)
    return -acc


def flow_points(rights, trans, rights_b, trans_b, lefts, c0, cp, cm,
                x, y, t, max_steps=10 ** 6):
    """Advance flow points (x_i, y_i) by time t; returns (x', y', steps)."""
    x = np.array(x, dtype=np.float64, copy=True)
    s = np.array(y, dtype=np.float64, copy=True) + t
    steps = np.zeros(x.shape, dtype=np.int64)
    if t >= 0:
        active = np.ones(x.shape, dtype=bool)
        for _ in range(max_steps):
            f = roof_values(rights, lefts, c0, cp, cm, x[active])
            jump = s[active] >= f
            if not jump.any():
                break
            idx_global = np.flatnonzero(active)
            idx = idx_global[jump]
            s[idx] -= f[jump]
            x[idx] = iet_apply(rights, trans, x[idx])
            steps[idx] += 1
            active[idx_global[~jump]] = False
        else:
            raise RuntimeError("flow advance exceeded %d steps" % max_steps)
        return x, s, steps
    for _ in range(max_steps):
        pending = s < 0
        if not pending.any():
            break
        x[pending] = iet_apply_inverse(rights_b, trans_b, x[pending])
        s[pending] += roof_values(rights, lefts, c0, cp, cm, x[pending])
        steps[pending] -= 1
    else:
        raise RuntimeError("flow advance exceeded %d steps" % max_steps)
    return x, s, steps


def min_orbit_distance(rights, trans, rights_b, trans_b, x, n, points):
    """Min distance from the orbit segment {T^i x} to a set of points.

    Forward segment 0 <= i < n for n > 0; backward -n <= i < 0 for n < 0.
    Float diagnostics only; the exact scan lives in the ratner module.
    A plain-float loop: the nearest points lie on either side of the
    current one in sorted order, and rounding is monotone, so the result
    equals the minimum of |points - x_i| over all points bit for bit.
    """
    pts = sorted(np.asarray(points, dtype=np.float64).tolist())
    if n >= 0:
        cuts, shift = rights.tolist(), trans.tolist()
    else:
        # x - t and x + (-t) round alike
        cuts, shift = rights_b.tolist(), (-trans_b).tolist()
    last = len(cuts) - 1
    best = np.inf
    cur = float(x)
    for _ in range(abs(n)):
        if n < 0:
            cur += shift[min(bisect_right(cuts, cur), last)]
        j = bisect_right(pts, cur)
        if j < len(pts):
            dist = pts[j] - cur
            if dist < best:
                best = dist
        if j:
            dist = cur - pts[j - 1]
            if dist < best:
                best = dist
        if n >= 0:
            cur += shift[min(bisect_right(cuts, cur), last)]
    return best
