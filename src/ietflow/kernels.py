"""The float kernels of the Monte-Carlo mixing probes.

The backend is the compiled extension `ietflow._core` when it imports and
the numpy module `ietflow._core_py` otherwise; `implementation_name()`
says which.  Each backend defines `IMPLEMENTATION` and the three functions
dispatched here, over the float tables of `float_tables`:

* `roof_values(rights, lefts, c0, cp, cm, x)`: f on an array of points;
* `flow_points(rights, trans, rights_b, trans_b, lefts, c0, cp, cm, x, y,
  t, max_steps)`: the special flow phi_t on arrays of flow-space points,
  returning (x', y', signed jump counts);
* `min_orbit_distance(rights, trans, rights_b, trans_b, x, n, points)`:
  the closest approach of one float orbit segment to a set of points.

`flow_points` checks the flow-space domain 0 <= x < total, 0 <= y < f(x)
and the flow time here, before dispatch, so both backends refuse a stray
sample or a non-finite t alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .iet import Iet
from .roof import FlowDomainError, FlowStepBudgetError, RoofSpec

try:
    from . import _core as impl  # type: ignore[attr-defined]
except ImportError:
    from . import _core_py as impl


def implementation_name() -> str:
    return impl.IMPLEMENTATION


@dataclass(frozen=True)
class FloatTables:
    """Float64 view of an (Iet, RoofSpec) pair, in top/bottom order."""

    rights: np.ndarray      # cumulative right endpoints, top order
    lefts: np.ndarray       # left endpoints, top order
    trans: np.ndarray       # translation per top-order interval
    rights_b: np.ndarray    # cumulative right endpoints, bottom order
    trans_b: np.ndarray     # translation per bottom-order interval
    c0: float
    cp: np.ndarray          # Cplus per top-order interval
    cm: np.ndarray          # Cminus per top-order interval
    total: float


def float_tables(iet: Iet, spec: RoofSpec) -> FloatTables:
    """The kernels' tables: the IET's correctly rounded `Iet.float_tables`
    as arrays and the roof's constants; ValueError where the IET has none
    (a total length outside the float range they keep)."""
    tables = iet.float_tables()
    if tables is None:
        raise ValueError("no float tables for an IET of total length %s"
                         % iet.total.to_string())
    rights, lefts, trans, rights_b, trans_b = map(np.array, tables)
    top = iet.perm.top
    cp = np.array([float(spec.cplus[a]) for a in top])
    cm = np.array([float(spec.cminus[a]) for a in top])
    return FloatTables(rights, lefts, trans, rights_b, trans_b,
                       float(spec.c0), cp, cm, tables[0][-1])


def roof_values(tables: FloatTables, x, module=None):
    mod = module or impl
    return mod.roof_values(tables.rights, tables.lefts, tables.c0,
                           tables.cp, tables.cm,
                           np.asarray(x, dtype=np.float64))


def flow_points(tables: FloatTables, x, y, t: float, max_steps: int = 10 ** 6,
                module=None, f=None):
    """Advance the flow-space points (x_i, y_i) by time t.

    FlowDomainError, naming the first offender, when a sample lies outside
    0 <= x < total, 0 <= y < f(x) (f by the same backend's roof values, or
    the given array `f` of them, which a caller that has just computed
    them passes); FlowStepBudgetError when one would need more than
    max_steps jumps; ValueError unless x and y are 1-d and of one length
    and t is finite.
    """
    mod = module or impl
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("flow_points takes 1-d x and y of one length, not "
                         "shapes %s and %s" % (x.shape, y.shape))
    if not math.isfinite(t):
        raise ValueError("flow time t = %r is not finite" % t)
    _require_flow_space(tables, x, y, mod, f)
    try:
        return mod.flow_points(tables.rights, tables.trans, tables.rights_b,
                               tables.trans_b, tables.lefts, tables.c0,
                               tables.cp, tables.cm, x, y, t, max_steps)
    except FlowStepBudgetError:
        raise
    except RuntimeError as exc:
        # the compiled build reports an exhausted budget as a plain
        # RuntimeError("flow advance exceeded N steps")
        if not str(exc).startswith("flow advance exceeded"):
            raise
        raise FlowStepBudgetError(max_steps, t) from exc


def _require_flow_space(tables: FloatTables, x, y, mod, f=None):
    """One roof pass unless f is given; its arrays are freed before the
    flow allocates."""
    if f is None:
        f = mod.roof_values(tables.rights, tables.lefts, tables.c0,
                            tables.cp, tables.cm, x)
    inside = (x >= 0.0) & (x < tables.total) & (y >= 0.0) & (y < f)
    if not inside.all():
        bad = np.flatnonzero(~inside)
        i = int(bad[0])
        raise FlowDomainError(i, float(x[i]), float(y[i]), float(f[i]),
                              tables.total, bad.size)


def min_orbit_distance(tables: FloatTables, x: float, n: int, points,
                       module=None):
    """Min distance from the orbit segment {T^i x} (0 <= i < n, or
    n <= i < 0 for n < 0) to the points; inf for the empty segment n == 0
    on every backend."""
    if n == 0:
        return math.inf
    mod = module or impl
    return mod.min_orbit_distance(tables.rights, tables.trans,
                                  tables.rights_b, tables.trans_b,
                                  float(x), n,
                                  np.asarray(points, dtype=np.float64))
