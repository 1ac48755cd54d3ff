"""Kernel selection and float tables for the hot loops.

At import time the compiled extension `ietflow._core` is preferred; the
numpy implementation `ietflow._core_py` is the fallback and the reference
for parity tests.  Set IETFLOW_PURE_PYTHON=1 to force the fallback.
Both expose the same functions over the same float tables.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .iet import Iet
from .roof import RoofSpec

if os.environ.get("IETFLOW_PURE_PYTHON"):
    from . import _core_py as impl
else:
    try:
        from . import _core as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _core_py as impl

COMPILED = impl.IMPLEMENTATION == "cython"


def implementation_name() -> str:
    return impl.IMPLEMENTATION


def load_fallback():
    from . import _core_py
    return _core_py


def load_compiled():
    """The compiled module, or None when the extension is not built."""
    try:
        from . import _core
        return _core
    except ImportError:
        return None


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


def float_tables(iet: Iet, spec: RoofSpec | None = None) -> FloatTables:
    top = iet.perm.top
    bottom = iet.perm.bottom
    rights = np.array([float(iet.right(a)) for a in top])
    lefts = np.array([float(iet.left(a)) for a in top])
    trans = np.array([float(iet.translation(a)) for a in top])
    rights_b = np.array([float(iet.right_image(a)) for a in bottom])
    trans_b = np.array([float(iet.translation(a)) for a in bottom])
    if spec is None:
        c0, cp, cm = 1.0, np.zeros(len(top)), np.zeros(len(top))
    else:
        c0 = float(spec.c0)
        cp = np.array([float(spec.cplus[a]) for a in top])
        cm = np.array([float(spec.cminus[a]) for a in top])
    return FloatTables(rights, lefts, trans, rights_b, trans_b, c0, cp, cm,
                       float(iet.total))


def iet_iterate(tables: FloatTables, x, n: int, module=None):
    mod = module or impl
    return mod.iet_iterate(tables.rights, tables.trans, tables.rights_b,
                           tables.trans_b, np.asarray(x, dtype=np.float64), n)


def roof_values(tables: FloatTables, x, module=None):
    mod = module or impl
    return mod.roof_values(tables.rights, tables.lefts, tables.c0,
                           tables.cp, tables.cm,
                           np.asarray(x, dtype=np.float64))


def birkhoff_sums(tables: FloatTables, x0, r: int, derivative: bool = False,
                  module=None):
    mod = module or impl
    return mod.birkhoff_sums(tables.rights, tables.trans, tables.rights_b,
                             tables.trans_b, tables.lefts, tables.c0,
                             tables.cp, tables.cm,
                             np.asarray(x0, dtype=np.float64), r, derivative)


def flow_points(tables: FloatTables, x, y, t: float, max_steps: int = 10 ** 6,
                module=None):
    mod = module or impl
    return mod.flow_points(tables.rights, tables.trans, tables.rights_b,
                           tables.trans_b, tables.lefts, tables.c0,
                           tables.cp, tables.cm,
                           np.asarray(x, dtype=np.float64),
                           np.asarray(y, dtype=np.float64), t, max_steps)


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
