"""The numpy backend of `ietflow.kernels`, used when the compiled module
`ietflow._core` does not import, and the reference of the parity tests.

It defines the kernel contract that `kernels` dispatches to:
`IMPLEMENTATION`, `roof_values`, `flow_points` and `min_orbit_distance`.
Interval tables are float64 arrays in top order (cumulative right
endpoints, per-interval translations and roof constants) plus the
bottom-order tables for the inverse map.  `kernels.flow_points` has
checked the flow-space domain before calling in.  Distances to singular
endpoints are floored at 1e-300 so a stray sample never produces an
infinity; the Monte-Carlo callers treat those events as measure zero.
The kernels over sample arrays are numpy loops; `min_orbit_distance`
walks a single point, where numpy calls on length-1 arrays cost more than
the arithmetic, so it is a plain-float loop on Python lists with `bisect`
lookups, bit for bit the numpy result.

The array kernels do as little numpy work per jump as the same rounding
allows; each shortcut below leaves every output bit unchanged:

* Interval index by comparison: the index of x is the number of inner
  cuts r_0 < ... < r_{d-2} with x >= r_i.  On sorted cuts that count is
  `searchsorted(rights, x, "right")` clamped to d - 1, and it is the
  compiled `_find`; with two or three intervals it is a few comparisons
  instead of a binary search.
* Compacted active sets: `flow_points` carries only the samples that
  still move (their original positions, x and height; every one of them
  has made the same number of jumps, so the step count is one integer)
  and writes each sample back once, when it settles.  The per-sample
  arithmetic is the same subtraction or addition and the same
  translation as in the masked full-length loop.
* Shared index: a forward jump locates x once and uses that index for
  both the roof value and the translation; both lookups are the same
  function of the same x.
* Zero-term skip: `roof_values` drops the Cplus (Cminus) term when its
  whole constant table is zero.  The skipped term is 0 * log(d) with d
  clamped to at least 1e-300, a finite log, so it is +-0.0, and
  c0 - (+-0.0) is c0 for the positive offset c0.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .roof import FlowStepBudgetError

IMPLEMENTATION = "numpy"

_TINY = 1e-300


def _indices(rights, x):
    """Interval index of each x: the count of inner cuts at or left of it
    (an IET has at least two intervals, so there is at least one cut)."""
    idx = (x >= rights[0]).astype(np.intp)
    for cut in rights[1:-1]:
        idx += x >= cut
    return idx


def _roof_at(rights, lefts, c0, cp, cm, x, idx):
    """f(x) on the intervals idx of x; a term whose whole constant table
    is zero is skipped (see the module docstring)."""
    out = np.full(np.shape(x), c0, dtype=np.float64)
    if cp.any():
        out -= cp[idx] * np.log(np.maximum(x - lefts[idx], _TINY))
    if cm.any():
        out -= cm[idx] * np.log(np.maximum(rights[idx] - x, _TINY))
    return out


def roof_values(rights, lefts, c0, cp, cm, x):
    return _roof_at(rights, lefts, c0, cp, cm, x, _indices(rights, x))


def flow_points(rights, trans, rights_b, trans_b, lefts, c0, cp, cm,
                x, y, t, max_steps=10 ** 6):
    """Advance flow points (x_i, y_i) by time t; returns (x', y', steps).

    Each sample makes at most max_steps jumps; FlowStepBudgetError when
    one would need more.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    s = np.array(y, dtype=np.float64, copy=True) + t
    steps = np.zeros(x.shape, dtype=np.int64)
    if t >= 0:
        pos = np.arange(x.size)
        xa, sa = x, s
        k = 0
        while pos.size:
            idx = _indices(rights, xa)
            f = _roof_at(rights, lefts, c0, cp, cm, xa, idx)
            jump = sa >= f
            if not jump.all():
                stay = ~jump
                done = pos[stay]
                x[done] = xa[stay]
                s[done] = sa[stay]
                steps[done] = k
                pos = pos[jump]
                if not pos.size:
                    break
                xa, sa, f, idx = xa[jump], sa[jump], f[jump], idx[jump]
            if k == max_steps:
                raise FlowStepBudgetError(max_steps, t, pending=pos.size)
            sa = sa - f
            xa = xa + trans[idx]
            k += 1
        return x, s, steps
    pos = np.flatnonzero(s < 0)
    xa, sa = x[pos], s[pos]
    k = 0
    while pos.size:
        if k == max_steps:
            raise FlowStepBudgetError(max_steps, t, pending=pos.size)
        xa = xa - trans_b[_indices(rights_b, xa)]
        sa = sa + roof_values(rights, lefts, c0, cp, cm, xa)
        k += 1
        settled = sa >= 0
        if settled.any():
            done = pos[settled]
            x[done] = xa[settled]
            s[done] = sa[settled]
            steps[done] = -k
            keep = ~settled
            pos, xa, sa = pos[keep], xa[keep], sa[keep]
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
