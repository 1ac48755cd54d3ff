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
  and writes each sample back once, when it settles.  It compacts by
  index, `np.flatnonzero` of the round's test and `take`, not by boolean
  mask: on a mask that is neither all true nor all false, `a[mask]` costs
  several times `flatnonzero` plus `take` per element.  The per-sample
  arithmetic is the same subtraction or addition and the same
  translation as in the masked full-length loop.
* Blocks: `flow_points` runs the samples in equal consecutive blocks of
  at most `_BLOCK`, each to the end.  Every operation is elementwise, so
  the blocks change no bit; they bound the index and scratch arrays of a
  round, and so the peak memory of a long array.  An exhausted budget
  raises after every block has run, with the pending count of the whole
  array.
* Shared index: a forward jump locates x once and uses that index for
  both the roof value and the translation; both lookups are the same
  function of the same x.
* Roof in place: each log term is made in one scratch array and f is
  c0 minus the first term, minus the second; the same IEEE operations as
  filling c0 and subtracting the terms.
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
_BLOCK = 1 << 16


def _indices(rights, x):
    """Interval index of each x: the count of inner cuts at or left of it
    (an IET has at least two intervals, so there is at least one cut)."""
    idx = (x >= rights[0]).astype(np.intp)
    for cut in rights[1:-1]:
        idx += x >= cut
    return idx


def _log_term(consts, idx, dist):
    """consts[idx] * log(max(dist, 1e-300)), computed in dist's buffer."""
    np.maximum(dist, _TINY, out=dist)
    np.log(dist, out=dist)
    dist *= consts.take(idx)
    return dist


def _roof_at(rights, lefts, c0, cp, cm, x, idx):
    """f(x) on the intervals idx of x; a term whose whole constant table
    is zero is skipped (see the module docstring)."""
    terms = []
    if cp.any():
        terms.append(_log_term(cp, idx, np.subtract(x, lefts.take(idx))))
    if cm.any():
        terms.append(_log_term(cm, idx, np.subtract(rights.take(idx), x)))
    if not terms:
        return np.full(x.shape, c0, dtype=np.float64)
    out = np.subtract(c0, terms[0], out=terms[0])
    for term in terms[1:]:
        out -= term
    return out


def roof_values(rights, lefts, c0, cp, cm, x):
    return _roof_at(rights, lefts, c0, cp, cm, x, _indices(rights, x))


def flow_points(rights, trans, rights_b, trans_b, lefts, c0, cp, cm,
                x, y, t, max_steps=10 ** 6):
    """Advance flow points (x_i, y_i) by time t; returns (x', y', steps).

    Each sample makes at most max_steps jumps; FlowStepBudgetError, with
    the count of samples still pending over the whole array, when one
    would need more.  The samples run in equal blocks of at most `_BLOCK`.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    s = np.array(y, dtype=np.float64, copy=True) + t
    steps = np.zeros(x.shape, dtype=np.int64)
    n = x.size
    blocks = -(-n // _BLOCK)
    pending = 0
    for b in range(blocks):
        part = slice(b * n // blocks, (b + 1) * n // blocks)
        if t >= 0:
            pending += _forward(rights, trans, lefts, c0, cp, cm, x[part],
                                s[part], steps[part], max_steps)
        else:
            pending += _backward(rights, rights_b, trans_b, lefts, c0, cp,
                                 cm, x[part], s[part], steps[part],
                                 max_steps)
    if pending:
        raise FlowStepBudgetError(max_steps, t, pending=pending)
    return x, s, steps


def _forward(rights, trans, lefts, c0, cp, cm, x, s, steps, max_steps):
    """Jump the samples (x, s) forward in place; the count left pending
    when the budget runs out.  Round k settles the samples below the roof
    after k jumps (round 0's are still where they started); the jump is
    computed for every active sample and kept for those that jump."""
    pos = np.arange(x.size)
    xa, sa = x, s
    k = 0
    while True:
        idx = _indices(rights, xa)
        f = _roof_at(rights, lefts, c0, cp, cm, xa, idx)
        jump = sa >= f
        go = None
        if not jump.all():
            if k:
                stay = np.flatnonzero(~jump)
                done = pos.take(stay)
                x[done] = xa.take(stay)
                s[done] = sa.take(stay)
                steps[done] = k
            go = np.flatnonzero(jump)
            pos = pos.take(go)
        if not pos.size:
            return 0
        if k == max_steps:
            return pos.size
        # f and the gathered translations are this round's scratch arrays
        sa = np.subtract(sa, f, out=f)
        shift = trans.take(idx)
        xa = np.add(xa, shift, out=shift)
        if go is not None:
            sa, xa = sa.take(go), xa.take(go)
        k += 1


def _backward(rights, rights_b, trans_b, lefts, c0, cp, cm, x, s, steps,
              max_steps):
    """Jump the samples (x, s) with s < 0 backward in place; the count
    left pending when the budget runs out."""
    pos = np.flatnonzero(s < 0)
    xa, sa = x.take(pos), s.take(pos)
    k = 0
    while pos.size:
        if k == max_steps:
            return pos.size
        xa -= trans_b.take(_indices(rights_b, xa))
        sa += roof_values(rights, lefts, c0, cp, cm, xa)
        k += 1
        settled = sa >= 0
        if settled.any():
            sel = np.flatnonzero(settled)
            done = pos.take(sel)
            x[done] = xa.take(sel)
            s[done] = sa.take(sel)
            steps[done] = -k
            keep = np.flatnonzero(~settled)
            pos, xa, sa = pos.take(keep), xa.take(keep), sa.take(keep)
    return 0


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
