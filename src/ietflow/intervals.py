"""Exact unions of closed intervals inside the base interval.

Used for the excluded sets (singularity neighborhoods and their pullbacks):
endpoints are exact scalars, measures are exact, membership is inclusive.
Pullbacks err on the inclusive side at interval boundaries, which is the
conservative direction for exclusion semantics.
"""

from __future__ import annotations

from bisect import bisect_right

from .exact import ExactScalar, as_scalar, exact_sum
from .iet import Iet


class IntervalUnion:
    """Disjoint sorted closed intervals [a_i, b_i], exact endpoints.

    The parts are a tuple and never change after construction, so a union
    may be shared; `lefts` holds the a_i for bisection.
    """

    __slots__ = ("parts", "lefts")

    def __init__(self, parts=(), already_normalized=False):
        items = [(as_scalar(a), as_scalar(b)) for a, b in parts]
        if not already_normalized:
            items = [(a, b) for a, b in items if not b < a]
            items.sort(key=lambda p: p[0])
            merged: list = []
            for a, b in items:
                if merged and not merged[-1][1] < a:
                    if merged[-1][1] < b:
                        merged[-1] = (merged[-1][0], b)
                else:
                    merged.append((a, b))
            items = merged
        self.parts = tuple(items)
        self.lefts = tuple(a for a, _ in items)

    @classmethod
    def empty(cls):
        return cls(())

    def is_empty(self) -> bool:
        return not self.parts

    def measure(self) -> ExactScalar:
        if not self.parts:
            return ExactScalar(0)
        return exact_sum(b - a for a, b in self.parts)

    def contains(self, x) -> bool:
        return self.witness(x) is not None

    def witness(self, x):
        """The component containing x, or None: the last part with a <= x,
        found by bisection, holds x iff x <= b."""
        x = as_scalar(x)
        i = bisect_right(self.lefts, x) - 1
        if i >= 0 and not self.parts[i][1] < x:
            return self.parts[i]
        return None

    def clip(self, lo, hi) -> "IntervalUnion":
        lo = as_scalar(lo)
        hi = as_scalar(hi)
        out = []
        for a, b in self.parts:
            a2 = lo if a < lo else a
            b2 = hi if hi < b else b
            if not b2 < a2:
                out.append((a2, b2))
        return IntervalUnion(out, already_normalized=True)

    def preimage(self, iet: Iet) -> "IntervalUnion":
        """T^(-1) of the union: intersect with each image interval and
        translate back."""
        images = [(iet.left_image(label), iet.right_image(label),
                   iet.translation(label)) for label in iet.perm.alphabet]
        out = []
        for a, b in self.parts:
            for lo, hi, w in images:
                a2 = a if lo < a else lo
                b2 = b if b < hi else hi
                if not b2 < a2:
                    out.append((a2 - w, b2 - w))
        return IntervalUnion(out)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return "IntervalUnion(%d components, measure %s)" % (
            len(self.parts), self.measure().to_string())


def neighborhood(center, radius) -> tuple:
    center = as_scalar(center)
    radius = as_scalar(radius)
    return (center - radius, center + radius)


def pullback_union(iet: Iet, base: IntervalUnion,
                   count: int) -> IntervalUnion:
    """Union of T^(-i)(base) for 0 <= i <= count, clipped to the interval.
    Only the base needs clipping: a preimage part is cut to an image
    interval T(I_a) and moved back into I_a, so it lies in [0, total]."""
    acc = list(base.clip(0, iet.total).parts)
    cur = base
    for _ in range(count):
        cur = cur.preimage(iet)
        acc.extend(cur.parts)
    return IntervalUnion(acc)
