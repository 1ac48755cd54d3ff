"""Roof functions with asymmetric logarithmic singularities; special flows.

On each exchanged interval I_a = [l_a, r_a) the roof is the pure-log model

    f(x) = c0 - Cplus_a * log(x - l_a) - Cminus_a * log(r_a - x),

which realizes the constrained asymptotics exactly (f'' (x-l_a)^2 -> Cplus_a
etc.), has closed-form integrals, and is bounded below by c0 when the
interval has length <= 1.  Base coordinates stay exact; roof values are
floats with a conservative per-call error radius, since f is transcendental.
Evaluation refuses within a configurable hard cutoff of a singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import ExactScalar
from .iet import Iet, IntegerOrbit

#: unit used by the conservative rounding-error model
_EPS = 2.0 ** -50

DEFAULT_HARD_CUTOFF = Fraction(1, 10 ** 30)


class SingularityTooClose(ArithmeticError):
    """Evaluation point within the hard cutoff of a singularity."""

    def __init__(self, label, side, distance, orbit_index=None):
        self.label = label
        self.side = side
        self.distance = distance
        self.orbit_index = orbit_index
        msg = "point within cutoff of singularity at %s side of %r" % (side, label)
        if orbit_index is not None:
            msg += " (orbit index %d)" % orbit_index
        super().__init__(msg)


class RoofDomainError(ValueError):
    """Evaluation exactly at a singular point."""


@dataclass(frozen=True)
class RoofSpec:
    """Per-interval singularity strengths and smooth offset.

    cplus[a] >= 0 weights the blow-up at l_a from the right, cminus[a] >= 0
    at r_a from the left; c0 > 0 is the smooth offset.  Constant roofs (all
    weights zero) are allowed; `is_asymmetric` reports whether the total
    one-sided constants differ, which is the standing assumption of the
    shearing estimates.
    """

    c0: Fraction
    cplus: dict
    cminus: dict
    hard_cutoff: Fraction = DEFAULT_HARD_CUTOFF

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError("offset c0 must be positive")
        for d in (self.cplus, self.cminus):
            for v in d.values():
                if v < 0:
                    raise ValueError("singularity constants must be >= 0")

    @property
    def cplus_total(self) -> Fraction:
        return sum(self.cplus.values(), Fraction(0))

    @property
    def cminus_total(self) -> Fraction:
        return sum(self.cminus.values(), Fraction(0))

    @property
    def asymmetry_gap(self) -> Fraction:
        """C- - C+ (positive when the left-side constants dominate)."""
        return self.cminus_total - self.cplus_total

    @property
    def is_asymmetric(self) -> bool:
        return self.cplus_total != self.cminus_total

    @property
    def has_log_singularity(self) -> bool:
        return self.cplus_total > 0 or self.cminus_total > 0


@dataclass(frozen=True)
class RoofValue:
    value: float
    err: float

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class FlowPoint:
    """Point (x, y) of the flow space, 0 <= y < f(x); x stays exact."""
    x: ExactScalar
    y: float


def _distances(iet: Iet, spec: RoofSpec, x: ExactScalar, orbit_index=None):
    """Exact distances of x to both endpoints of its interval, with the
    cutoff check applied.  Returns (label, dist_left, dist_right)."""
    a = iet.interval_of(x)
    dl = x - iet.left(a)
    dr = iet.right(a) - x
    if spec.has_log_singularity and dl.is_zero():
        # the model is undefined on {l_a}; constant roofs have no
        # singular set and evaluate everywhere
        raise RoofDomainError("evaluation at the singular point l_%s" % a)
    if spec.cplus[a] != 0 and dl <= spec.hard_cutoff:
        raise SingularityTooClose(a, "left", dl, orbit_index)
    if spec.cminus[a] != 0 and dr <= spec.hard_cutoff:
        raise SingularityTooClose(a, "right", dr, orbit_index)
    return a, dl, dr


def _terms(c0: float, cp: float, cm: float, dl: float, dr: float):
    """(f, err, f', err') at a point of I_a from its float gaps dl = x - l_a
    and dr = r_a - x, with cp = Cplus_a, cm = Cminus_a; each value carries
    a conservative rounding-error radius."""
    val = c0
    budget = abs(val)
    dval = 0.0
    dbudget = 0.0
    if cp:
        term = -cp * math.log(dl)
        val += term
        budget += abs(term) + cp
        term = -cp / dl
        dval += term
        dbudget += abs(term)
    if cm:
        term = -cm * math.log(dr)
        val += term
        budget += abs(term) + cm
        term = cm / dr
        dval += term
        dbudget += abs(term)
    return (val, _EPS * (budget + abs(val)),
            dval, _EPS * (dbudget + abs(dval)) + 1e-300)


def _point_terms(iet: Iet, spec: RoofSpec, x, orbit_index=None):
    if not isinstance(x, ExactScalar):
        x = ExactScalar(x)
    a, dl, dr = _distances(iet, spec, x, orbit_index)
    return _terms(float(spec.c0), float(spec.cplus[a]),
                  float(spec.cminus[a]), float(dl), float(dr))


def eval_roof(iet: Iet, spec: RoofSpec, x, orbit_index=None) -> RoofValue:
    """f(x) with a conservative rounding-error radius."""
    val, err, _, _ = _point_terms(iet, spec, x, orbit_index)
    return RoofValue(val, err)


def eval_roof_derivative(iet: Iet, spec: RoofSpec, x, orbit_index=None) -> RoofValue:
    """f'(x) = -Cplus_a/(x - l_a) + Cminus_a/(r_a - x) on I_a."""
    _, _, val, err = _point_terms(iet, spec, x, orbit_index)
    return RoofValue(val, err)


def eval_roof_second_derivative(iet: Iet, spec: RoofSpec, x,
                                orbit_index=None) -> RoofValue:
    """f''(x) = Cplus_a/(x - l_a)^2 + Cminus_a/(r_a - x)^2 on I_a."""
    if not isinstance(x, ExactScalar):
        x = ExactScalar(x)
    a, dl, dr = _distances(iet, spec, x, orbit_index)
    cp = float(spec.cplus[a])
    cm = float(spec.cminus[a])
    val = 0.0
    if cp:
        val += cp / float(dl) ** 2
    if cm:
        val += cm / float(dr) ** 2
    return RoofValue(val, _EPS * abs(val) + 1e-300)


def birkhoff_sum(iet: Iet, spec: RoofSpec, x, r: int,
                 derivative: bool = False) -> RoofValue:
    """S_r(f)(x): sum of f over r forward orbit steps; 0 for r = 0;
    -sum over T^r x .. T^-1 x for r < 0.  Exact orbit, float values."""
    cur = BirkhoffCursor(iet, spec, x, forward=r >= 0)
    return cur.derivative_sum_at(abs(r)) if derivative else cur.sum_at(abs(r))


class BirkhoffCursor:
    """Incremental S_n(f), S_n(f') and closest approaches along one exact
    orbit, walked on IntegerOrbit.

    Forward direction walks x, Tx, ...; backward walks T^-1 x, T^-2 x, ...
    accumulating the negative-branch sums, so `sum_at(n)` returns S_n for
    the forward cursor and S_{-n} for the backward one.  At each point of
    I_a the cursor reads the two gaps dl = x - l_a and dr = r_a - x; they
    give the roof terms and, as running minima, the closest approach to the
    l family from above and to the r family from below.  The first point
    landing exactly on an endpoint (dl = 0) is kept in `hit` as
    (orbit index, point).  With `spec=None` the cursor walks distances
    only; otherwise the singular-point and hard-cutoff checks of
    `eval_roof` run exactly on every point, with its orbit index.
    """

    def __init__(self, iet: Iet, spec: Optional[RoofSpec], x,
                 forward: bool = True):
        self.iet = iet
        self.spec = spec
        self.forward = forward
        extra = () if spec is None else (spec.hard_cutoff,)
        self.orbit = IntegerOrbit(iet, x, extra)
        if spec is not None:
            top = self._top = iet.perm.top
            self._c0 = float(spec.c0)
            self._cp = [float(spec.cplus[a]) for a in top]
            self._cm = [float(spec.cminus[a]) for a in top]
            self._check_l = [spec.cplus[a] != 0 for a in top]
            self._check_r = [spec.cminus[a] != 0 for a in top]
            self._singular = spec.has_log_singularity
            self._cutoff = self.orbit.pair_of(spec.hard_cutoff)
        self.steps = 0
        self.sum = 0.0
        self.err = 0.0
        self.dsum = 0.0
        self.derr = 0.0
        self.left_min = None        # smallest dl as an integer pair
        self.left_index = None
        self.right_min = None       # smallest dr as an integer pair
        self.right_index = None
        self.hit = None

    def _visit(self, index: int):
        """Record the gaps of the current point; return its roof terms."""
        orbit = self.orbit
        i, dl, dr = orbit.gaps()
        if self.left_min is None or orbit.pair_less(dl, self.left_min):
            self.left_min, self.left_index = dl, index
            if dl == (0, 0):
                self.hit = (index, orbit.value())
        if self.right_min is None or orbit.pair_less(dr, self.right_min):
            self.right_min, self.right_index = dr, index
        if self.spec is None:
            return None
        if self._singular and dl == (0, 0):
            # the model is undefined on {l_a}; constant roofs have no
            # singular set and evaluate everywhere
            raise RoofDomainError("evaluation at the singular point l_%s "
                                  "(orbit index %d)" % (self._top[i], index))
        cut = self._cutoff
        if self._check_l[i] and not orbit.pair_less(cut, dl):
            raise SingularityTooClose(self._top[i], "left", orbit.value(dl),
                                      index)
        if self._check_r[i] and not orbit.pair_less(cut, dr):
            raise SingularityTooClose(self._top[i], "right", orbit.value(dr),
                                      index)
        return _terms(self._c0, self._cp[i], self._cm[i],
                      orbit.to_float(dl), orbit.to_float(dr))

    def advance_to(self, n: int):
        if n < self.steps:
            raise ValueError("cursor cannot move backwards")
        orbit = self.orbit
        while self.steps < n:
            if self.forward:
                idx = self.steps
            else:
                orbit.step_backward()
                idx = -(self.steps + 1)
            terms = self._visit(idx)
            if terms is not None:
                val, err, dval, derr = terms
                self.sum += val
                self.err += err + abs(self.sum) * 2.0 ** -52
                self.dsum += dval
                self.derr += derr + abs(self.dsum) * 2.0 ** -52
            if self.forward:
                orbit.step_forward()
            self.steps += 1
        return self

    def sum_at(self, n: int) -> RoofValue:
        self.advance_to(n)
        if self.forward:
            return RoofValue(self.sum, self.err)
        return RoofValue(-self.sum, self.err)

    def derivative_sum_at(self, n: int) -> RoofValue:
        self.advance_to(n)
        if self.forward:
            return RoofValue(self.dsum, self.derr)
        return RoofValue(-self.dsum, self.derr)

    def gap_minima(self) -> tuple:
        """(dl, its index, dr, its index): the smallest gaps over the
        points walked so far, as exact scalars with the first orbit index
        at which each occurs; all None before the first step."""
        if self.left_min is None:
            return None, None, None, None
        value = self.orbit.value
        return (value(self.left_min), self.left_index,
                value(self.right_min), self.right_index)

    def min_gap(self) -> Optional[ExactScalar]:
        """Exact distance of the walked points to the endpoint set
        {l_a, r_a}: the smaller of the two gap minima (None before the
        first step)."""
        if self.left_min is None:
            return None
        left, right = self.left_min, self.right_min
        return self.orbit.value(
            right if self.orbit.pair_less(right, left) else left)


def _advance(iet: Iet, spec: RoofSpec, x, s: float,
             max_steps: int = 10 ** 7):
    """Move (x, 0) by s time units: returns (T^r x, s - S_r, r) with
    0 <= remainder < f(T^r x)."""
    cur = BirkhoffCursor(iet, spec, x)
    orbit = cur.orbit
    steps = 0
    if s >= 0:
        while True:
            fx = cur._visit(steps)[0]
            if s < fx:
                return orbit.value(), s, steps
            s -= fx
            orbit.step_forward()
            steps += 1
            if steps > max_steps:
                raise RuntimeError("flow advance exceeded %d steps" % max_steps)
    while s < 0:
        orbit.step_backward()
        steps -= 1
        s += cur._visit(steps)[0]
        if -steps > max_steps:
            raise RuntimeError("flow advance exceeded %d steps" % max_steps)
    return orbit.value(), s, steps


def flow(iet: Iet, spec: RoofSpec, point: FlowPoint, t: float) -> FlowPoint:
    """Special flow phi_t.  For t >= 0 the point rises with unit speed and
    jumps (x, f(x)-) -> (Tx, 0); negative t is the inverse map."""
    x, y, _ = _advance(iet, spec, point.x, point.y + t)
    return FlowPoint(x, y)


def discrete_iterations(iet: Iet, spec: RoofSpec, x, t: float) -> int:
    """r(x, t): how many base jumps (x, 0) undergoes flowing for time t.

    Equals max{r : S_r(f)(x) < t} for t > 0 (an exact tie S_r = t advances,
    keeping the image inside the flow space); negative for t < 0."""
    _, _, steps = _advance(iet, spec, x, t)
    return steps


def roof_area(iet: Iet, spec: RoofSpec) -> float:
    """Closed-form integral of f over the interval.

    Each log factor contributes lambda * (1 - log lambda) on its interval.
    """
    total = float(spec.c0) * float(iet.total)
    for a in iet.perm.alphabet:
        lam = float(iet.length(a))
        w = float(spec.cplus[a]) + float(spec.cminus[a])
        if w:
            total += w * lam * (1.0 - math.log(lam))
    return total


def roof_mean(iet: Iet, spec: RoofSpec) -> float:
    return roof_area(iet, spec) / float(iet.total)
