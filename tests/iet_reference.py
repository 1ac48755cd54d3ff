"""The tests' independent reference for exact IET orbits.

`ReferenceMap` steps points of an `Iet` by ExactScalar arithmetic alone:
its endpoints and translations are sums of the IET's lengths, every locate
is a scan of exact comparisons, and every step one exact addition.  It
reads no integer table, float shadow or itinerary table, so it shares no
code with `IntegerOrbit`, the package's one exact orbit walker, and the
tests compare that walker (and everything built on it) against it.
"""

from fractions import Fraction

from ietflow.exact import ExactScalar, as_scalar
from ietflow.iet import IetDomainError


class ReferenceMap:
    """T and T^-1 of `iet` on exact scalars."""

    def __init__(self, iet):
        self.iet = iet
        perm = iet.perm
        length = dict(zip(perm.alphabet, iet.lengths))
        self.total = iet.total
        left, self.rights = {}, {}
        for row in (perm.top, perm.bottom):
            x, rights = ExactScalar(0), []
            for a in row:
                left[row, a] = x
                x = x + length[a]
                rights.append(x)
            self.rights[row] = rights
        self.trans = {a: left[perm.bottom, a] - left[perm.top, a]
                      for a in perm.alphabet}

    def _label(self, x: ExactScalar, row) -> str:
        """The label of `row` (top or bottom) whose interval holds x."""
        if x.sign() < 0 or not x < self.total:
            raise IetDomainError("point %r outside [0, %s)" %
                                 (x, self.total.to_string()))
        return next(a for a, r in zip(row, self.rights[row]) if x < r)

    def interval_of(self, x) -> str:
        return self._label(as_scalar(x), self.iet.perm.top)

    def image_interval_of(self, x) -> str:
        return self._label(as_scalar(x), self.iet.perm.bottom)

    def evaluate(self, x) -> ExactScalar:
        x = as_scalar(x)
        return x + self.trans[self.interval_of(x)]

    def evaluate_inverse(self, x) -> ExactScalar:
        x = as_scalar(x)
        return x - self.trans[self.image_interval_of(x)]

    def iterate(self, x, n: int) -> ExactScalar:
        """T^n x (T^-|n| x for n < 0)."""
        x = as_scalar(x)
        step = self.evaluate if n >= 0 else self.evaluate_inverse
        for _ in range(abs(n)):
            x = step(x)
        return x

    def orbit(self, x, n: int):
        """Yield x, Tx, ..., T^(n-1)x (the inverse orbit for n < 0)."""
        x = as_scalar(x)
        step = self.evaluate if n >= 0 else self.evaluate_inverse
        for _ in range(abs(n)):
            yield x
            x = step(x)


def probe_points(iet) -> list:
    """Points where a locate can go wrong: 0, every cut of T and of T^-1
    (the left endpoints in top and in bottom order), the points 10^-30 to
    either side of each, a point just below the total and, on an IET over
    Q, a point of Q(sqrt 2)."""
    eps = ExactScalar(Fraction(1, 10 ** 30))
    cuts = {iet.left(a) for a in iet.perm.top[1:]}
    cuts |= {iet.left_image(a) for a in iet.perm.bottom[1:]}
    points = [ExactScalar(0), iet.total - eps]
    for c in sorted(cuts, key=float):
        points += [c - eps, c, c + eps]
    if all(lam.is_rational for lam in iet.lengths):
        points.append(iet.total * ExactScalar(-1, 1, 2))    # sqrt(2) - 1
    return points
