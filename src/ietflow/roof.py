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

from .exact import ExactScalar, _sign, as_scalar, quadratic_float
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


class FlowDomainError(ValueError):
    """A sample handed to the float flow lies outside the flow space
    0 <= x < total, 0 <= y < f(x).

    Carries the first offender (`index`, `x`, `y`, its roof value `f`),
    the base length `total` and the count of offenders (`count`).
    """

    def __init__(self, index, x, y, f, total, count):
        self.index = index
        self.x = x
        self.y = y
        self.f = f
        self.total = total
        self.count = count
        super().__init__(
            "sample %d at (x, y) = (%r, %r) outside the flow space "
            "0 <= x < %r, 0 <= y < f(x) = %r (%d samples outside)"
            % (index, x, y, total, f, count))


class FlowStepBudgetError(RuntimeError):
    """A flow advance needs more than max_steps base jumps.

    Carries max_steps, the flow time t and, from the array kernels, the
    count of samples still pending (`pending`) or, from the exact flow,
    the jumps taken when the budget ran out (`steps`).
    """

    def __init__(self, max_steps, t, pending=None, steps=None):
        self.max_steps = max_steps
        self.t = t
        self.pending = pending
        self.steps = steps
        msg = "flow advance exceeded %d steps (t = %r" % (max_steps, t)
        if pending is not None:
            msg += ", %d samples pending" % pending
        if steps is not None:
            msg += ", %d steps taken" % steps
        super().__init__(msg + ")")


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
    a conservative rounding-error radius.  The gaps must be correctly
    rounded (as float(ExactScalar) and IntegerOrbit.to_float are); a gap
    is read only when its constant is nonzero."""
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
    x = as_scalar(x)
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
    x = as_scalar(x)
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
    (orbit index, point), and `last_f` holds f at the point visited last.
    With `spec=None` the cursor walks distances only; otherwise the
    singular-point and hard-cutoff checks of `eval_roof` hold exactly on
    every point, with its orbit index (a gap above the running minimum is
    above the cutoff whenever that minimum is, so the cutoff test runs only
    at new minima and after the minimum falls within the cutoff).

    Every decision is exact.  The interval index and the running minima are
    read through the orbit's shadow (see IntegerOrbit; on Q it is the
    exact numerator) only when the shadow comparison is provably the exact
    one: a shadow gap is within xerr + 2 units of the exact gap, so a gap
    and a minimum whose shadow difference exceeds both their bounds plus
    one unit compare as their shadows do; closer ones are compared
    exactly.  The roof terms always take the correctly rounded gaps of the
    exact pairs.
    """

    def __init__(self, iet: Iet, spec: Optional[RoofSpec], x,
                 forward: bool = True):
        self.iet = iet
        self.spec = spec
        self.forward = forward
        orbit = self.orbit = IntegerOrbit(iet, x)
        # what advance_to binds on every call, packed once
        self._walk = (orbit.step_forward if forward else orbit.step_backward,
                      orbit._locate, orbit.pair_less, orbit.lefts, orbit.cuts,
                      orbit.flefts, orbit.frights, orbit.den, orbit.field,
                      orbit.unit)
        self._roof = None
        if spec is not None:
            top = self._top = iet.perm.top
            self._roof = (float(spec.c0),
                          [float(spec.cplus[a]) for a in top],
                          [float(spec.cminus[a]) for a in top],
                          spec.has_log_singularity)
            self._cutoff = spec.hard_cutoff
        self.steps = 0
        self.sum = 0.0
        self.err = 0.0
        self.dsum = 0.0
        self.derr = 0.0
        self.last_f = None
        self.left_min = None        # smallest dl as an integer pair
        self.left_index = None
        self.right_min = None       # smallest dr as an integer pair
        self.right_index = None
        self.hit = None
        # per gap minimum: its shadow, the shadow's error bound and whether
        # it lies within the hard cutoff (a gap that sets no new minimum is
        # within it only if the minimum already is); left, then right
        self._shadow = (None, 0.0, False, None, 0.0, False)

    def _within_cutoff(self, gap) -> bool:
        """Exact test gap <= hard cutoff for an integer pair gap."""
        cut = self._cutoff
        orbit = self.orbit
        return _sign(gap[0] * cut.denominator - cut.numerator * orbit.den,
                     gap[1] * cut.denominator, orbit.field) <= 0

    def advance_to(self, n: int):
        """Walk on until n points have been visited."""
        if n < self.steps:
            raise ValueError("cursor cannot move backwards")
        orbit = self.orbit
        forward = self.forward
        (step, locate, pair_less, lefts, rights, flefts, frights, den, field,
         unit) = self._walk
        roof = self._roof
        if roof is not None:
            c0, cps, cms, singular = roof
        steps = self.steps
        s, err, ds, derr, val = (self.sum, self.err, self.dsum, self.derr,
                                 self.last_f)
        lmin, lidx, rmin, ridx = (self.left_min, self.left_index,
                                  self.right_min, self.right_index)
        lf, lerr, lnear, rf, rerr, rnear = self._shadow
        try:
            while steps < n:
                if forward:
                    idx = steps
                    i = locate(frights, rights)
                else:
                    i = step()
                    idx = -steps - 1
                p, q, xf = orbit.p, orbit.q, orbit.xf
                left, right = lefts[i], rights[i]
                dl = (p - left[0], q - left[1])
                dr = (right[0] - p, right[1] - q)
                gerr = orbit.xerr + 2 * unit
                dlf = xf - flefts[i]
                drf = frights[i] - xf
                tol = gerr + lerr + unit
                if lmin is None or (diff := dlf - lf) < -tol or (
                        diff <= tol and pair_less(dl, lmin)):
                    lmin, lidx, lf, lerr = dl, idx, dlf, gerr
                    if dl == (0, 0):
                        self.hit = (idx, orbit.value())
                    lnear = roof is not None and self._within_cutoff(dl)
                tol = gerr + rerr + unit
                if rmin is None or (diff := drf - rf) < -tol or (
                        diff <= tol and pair_less(dr, rmin)):
                    rmin, ridx, rf, rerr = dr, idx, drf, gerr
                    rnear = roof is not None and self._within_cutoff(dr)
                if roof is not None:
                    if singular and dl == (0, 0):
                        # the model is undefined on {l_a}; constant roofs
                        # have no singular set and evaluate everywhere
                        raise RoofDomainError(
                            "evaluation at the singular point l_%s (orbit "
                            "index %d)" % (self._top[i], idx))
                    cp, cm = cps[i], cms[i]
                    if cp and lnear and self._within_cutoff(dl):
                        raise SingularityTooClose(self._top[i], "left",
                                                  orbit.value(dl), idx)
                    if cm and rnear and self._within_cutoff(dr):
                        raise SingularityTooClose(self._top[i], "right",
                                                  orbit.value(dr), idx)
                    val, verr, dval, dverr = _terms(
                        c0, cp, cm,
                        quadratic_float(dl[0], dl[1], den, field)
                        if cp else 0.0,
                        quadratic_float(dr[0], dr[1], den, field)
                        if cm else 0.0)
                    s += val
                    err += verr + abs(s) * 2.0 ** -52
                    ds += dval
                    derr += dverr + abs(ds) * 2.0 ** -52
                if forward:
                    step(i)
                steps += 1
        finally:
            self.steps = steps
            self.sum, self.err, self.dsum, self.derr, self.last_f = (
                s, err, ds, derr, val)
            self.left_min, self.left_index, self.right_min, self.right_index \
                = lmin, lidx, rmin, ridx
            self._shadow = lf, lerr, lnear, rf, rerr, rnear
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


def _advance(iet: Iet, spec: RoofSpec, x, y: float, t: float,
             max_steps: int = 10 ** 7):
    """Move (x, y) by t time units, i.e. (x, 0) by s = y + t: returns
    (T^r x, s - S_r, r) with 0 <= remainder < f(T^r x), after at most
    max_steps jumps (FlowStepBudgetError beyond)."""
    s = y + t
    cur = BirkhoffCursor(iet, spec, x, forward=s >= 0)
    orbit = cur.orbit
    if s >= 0:
        while True:
            point = orbit.p, orbit.q
            cur.advance_to(cur.steps + 1)
            if s < cur.last_f:
                return orbit.value(point), s, cur.steps - 1
            s -= cur.last_f
            if cur.steps > max_steps:
                raise FlowStepBudgetError(max_steps, t, steps=cur.steps)
    while s < 0:
        cur.advance_to(cur.steps + 1)
        s += cur.last_f
        if cur.steps > max_steps:
            raise FlowStepBudgetError(max_steps, t, steps=-cur.steps)
    return orbit.value(), s, -cur.steps


def flow(iet: Iet, spec: RoofSpec, point: FlowPoint, t: float) -> FlowPoint:
    """Special flow phi_t.  For t >= 0 the point rises with unit speed and
    jumps (x, f(x)-) -> (Tx, 0); negative t is the inverse map."""
    x, y, _ = _advance(iet, spec, point.x, point.y, t)
    return FlowPoint(x, y)


def discrete_iterations(iet: Iet, spec: RoofSpec, x, t: float) -> int:
    """r(x, t): how many base jumps (x, 0) undergoes flowing for time t.

    Equals max{r : S_r(f)(x) < t} for t > 0 (an exact tie S_r = t advances,
    keeping the image inside the flow space); negative for t < 0."""
    _, _, steps = _advance(iet, spec, x, 0.0, t)
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
