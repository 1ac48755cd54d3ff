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

import numpy as np

from .exact import ExactScalar, _sign, quadratic_float
from .iet import _SEGMENT, Iet, IntegerOrbit

#: unit used by the conservative rounding-error model
_EPS = 2.0 ** -50

#: A shadow gap g with error bound e enters the logs as it is when
#: e <= g * _SHADOW_GAP; closer to a cut the exact gap is rounded.
_SHADOW_GAP = 2.0 ** -20

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


def roof_terms(c0: float, cp, cm, points) -> tuple:
    """The one float roof-term evaluator: f and its rounding-error radius
    at n points with constants cp = Cplus_a, cm = Cminus_a (float arrays),
    for one orbit or several in lockstep, and f' with its radius for the
    first.

    `points` holds per orbit (gl, gr, e, exact): float arrays of the gaps
    x - l_a and r_a - x (gl = None: all from exact), their error bounds e
    (None: correctly rounded) and exact(steps, right), the correctly
    rounded left or right gaps at the index array `steps`.  A gap is read
    only where its constant is nonzero.  A shadow gap g within e of the
    exact one enters the log as it is when e <= g 2^-20, adding C e/(g - e)
    >= C |log g - log gap| to `rad` (the `_EPS` budget's spare covers its
    rounding); a closer one is exact's.  Returns ([(f, err)] per orbit,
    f', err' of the first orbit, rad), each value made by the same float
    operations in the same order at every point, with libm's logs (numpy's
    differ in the last bit at some points); rad adds the terms left side
    first, per side in the order of `points`.
    """
    n = cp.size
    acc = [[np.full(n, c0), np.full(n, abs(c0))] for _ in points]
    df, db, rad = np.zeros(n), np.zeros(n), np.zeros(n)
    for c, right in ((cp, False), (cm, True)):
        on = np.flatnonzero(c)
        if not on.size:
            continue
        con = c[on]
        for k, ((gl, gr, e, exact), sums) in enumerate(zip(points, acc)):
            if gl is None:
                g = np.asarray(exact(on, right), float)
            else:
                g = (gr if right else gl)[on]
                if e is not None:
                    e = e[on]
                    near = e > g * _SHADOW_GAP
                    if near.any():
                        far = ~near
                        r = np.zeros(on.size)
                        r[far] = con[far] * e[far] / (g[far] - e[far])
                        g = g.copy()
                        g[near] = exact(on[near], right)
                    else:
                        r = con * e / (g - e)
                    rad[on] = rad[on] + r
            t = np.zeros(n)
            t[on] = -con * np.fromiter(map(math.log, g.tolist()), float,
                                       on.size)
            sums[:] = sums[0] + t, sums[1] + (np.abs(t) + c)
            if not k:
                d = np.zeros(n)
                d[on] = (con if right else -con) / g
                df, db = df + d, db + np.abs(d)
    return ([(f, _EPS * (b + np.abs(f))) for f, b in acc], df,
            _EPS * (db + np.abs(df)) + 1e-300, rad)


def _gaps_of(orbit: IntegerOrbit, i, p, q, dp, dq, shift=(0, 0)):
    """gap(m, right), the exact left or right gap of the point (p + dp[m],
    q + dq[m]) + shift in interval i[m], and `roof_terms`'s exact."""
    den, field, lefts, rights = orbit.den, orbit.field, orbit.lefts, orbit.cuts
    p, q = p + shift[0], q + shift[1]

    def gap(m, right):
        pn, qn = p + dp.item(m), q + dq.item(m)
        e0, e1 = (rights if right else lefts)[i.item(m)]
        return (e0 - pn, e1 - qn) if right else (pn - e0, qn - e1)

    def exact(on, right):
        return [quadratic_float(*gap(m, right), den, field)
                for m in on.tolist()]
    return gap, exact


def _orbit_error(orbit: IntegerOrbit, spec: RoofSpec, a, index, cp, cm,
                 gaps):
    """The error of points of I_a at orbit index `index` (or None) with
    exact gaps (dl, dr, ...), first point first: l_a itself (for a log
    roof), else the first gap within the hard cutoff whose constant (cp
    left, cm right) is nonzero; None when all pass."""
    if spec.has_log_singularity and gaps[0] == (0, 0):
        # the model is undefined on {l_a}; constant roofs have no
        # singular set and evaluate everywhere
        msg = "evaluation at the singular point l_%s" % a
        if index is not None:
            msg += " (orbit index %d)" % index
        return RoofDomainError(msg)
    cut = spec.hard_cutoff
    for k, gap in enumerate(gaps):
        if (cm if k % 2 else cp) and _sign(
                gap[0] * cut.denominator - cut.numerator * orbit.den,
                gap[1] * cut.denominator, orbit.field) <= 0:
            return SingularityTooClose(a, "right" if k % 2 else "left",
                                       orbit.value(gap), index)
    return None


def _checked_gaps(iet: Iet, spec: RoofSpec, x, orbit_index):
    """(a, dl, dr): the interval I_a of x and the correctly rounded gaps
    x - l_a and r_a - x, once x passes `_orbit_error`'s checks."""
    orbit = IntegerOrbit(iet, x)
    i = orbit.interval_index()
    a = iet.perm.top[i]
    (lp, lq), (rp, rq) = orbit.lefts[i], orbit.cuts[i]
    gaps = ((orbit.p - lp, orbit.q - lq), (rp - orbit.p, rq - orbit.q))
    error = _orbit_error(orbit, spec, a, orbit_index, spec.cplus[a],
                         spec.cminus[a], gaps)
    if error is not None:
        raise error
    return (a, *map(orbit.to_float, gaps))


def _point_terms(iet: Iet, spec: RoofSpec, x, orbit_index=None):
    a, dl, dr = _checked_gaps(iet, spec, x, orbit_index)
    ((f, err),), df, derr, _ = roof_terms(
        float(spec.c0), np.array([float(spec.cplus[a])]),
        np.array([float(spec.cminus[a])]),
        [(np.array([dl]), np.array([dr]), None, None)])
    return [v.item() for v in (f, err, df, derr)]


def eval_roof(iet: Iet, spec: RoofSpec, x, orbit_index=None) -> RoofValue:
    """f(x) with a conservative rounding-error radius."""
    return RoofValue(*_point_terms(iet, spec, x, orbit_index)[:2])


def eval_roof_derivative(iet: Iet, spec: RoofSpec, x, orbit_index=None) -> RoofValue:
    """f'(x) = -Cplus_a/(x - l_a) + Cminus_a/(r_a - x) on I_a."""
    return RoofValue(*_point_terms(iet, spec, x, orbit_index)[2:])


def eval_roof_second_derivative(iet: Iet, spec: RoofSpec, x,
                                orbit_index=None) -> RoofValue:
    """f''(x) = Cplus_a/(x - l_a)^2 + Cminus_a/(r_a - x)^2 on I_a."""
    a, dl, dr = _checked_gaps(iet, spec, x, orbit_index)
    cp = float(spec.cplus[a])
    cm = float(spec.cminus[a])
    val = 0.0
    if cp:
        val += cp / dl ** 2
    if cm:
        val += cm / dr ** 2
    return RoofValue(val, _EPS * abs(val) + 1e-300)


def birkhoff_sum(iet: Iet, spec: RoofSpec, x, r: int,
                 derivative: bool = False) -> RoofValue:
    """S_r(f)(x): sum of f over r forward orbit steps; 0 for r = 0;
    -sum over T^r x .. T^-1 x for r < 0.  Exact orbit, float values."""
    cur = BirkhoffCursor(iet, spec, x, forward=r >= 0)
    return cur.derivative_sum_at(abs(r)) if derivative else cur.sum_at(abs(r))


class BirkhoffCursor:
    """Incremental S_n(f), S_n(f') and closest approaches along one exact
    orbit, walked in segments of IntegerOrbit.

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
    every point, with its orbit index; a point failing them counts for the
    minima and `hit` but not for the sums or `steps`.

    Every decision is exact and every value the one a walk point by point
    makes, on the segments of `IntegerOrbit.segment`, whose shadows are
    floats on Q as on Q(sqrt d).  A shadow gap is
    within xerr + 2 units of the exact gap, so two gaps whose shadows differ
    by more than both bounds plus one unit compare as their shadows do: a
    segment's smallest gap is found exactly among those few, first index
    first, and merged into the running minimum by the same rule.  The
    checks run exactly where a shadow gap is within its bound (plus a
    spare unit) of the cutoff, and the roof terms are `roof_terms` of the
    correctly rounded exact gaps, summed by cumsums.
    """

    def __init__(self, iet: Iet, spec: Optional[RoofSpec], x,
                 forward: bool = True):
        self.iet = iet
        self.spec = spec
        self.forward = forward
        orbit = self.orbit = IntegerOrbit(iet, x)
        self._fl = np.array(orbit.flefts)
        self._fr = np.array(orbit.frights)
        if spec is not None:
            top = iet.perm.top
            self._cp = np.array([float(spec.cplus[a]) for a in top])
            self._cm = np.array([float(spec.cminus[a]) for a in top])
        self.steps = 0
        self.sum = self.err = self.dsum = self.derr = 0.0
        self.last_f = None
        self.left_min = None        # smallest dl as an integer pair
        self.left_index = None
        self.right_min = None       # smallest dr as an integer pair
        self.right_index = None
        self.hit = None
        # the shadow and error bound of each minimum, left then right
        self._bounds = [None, None]

    def _segment(self, k: int) -> tuple:
        """Visit the next k points up to the first failing the checks, and
        stand in front of it.  Returns (f, error, pair): the roof values
        summed, its error (or None) and pair(m), the exact pair of point m."""
        orbit, forward, spec = self.orbit, self.forward, self.spec
        p, q, unit = orbit.p, orbit.q, orbit.unit
        i, xf, xerr, dp, dq = orbit.segment(k, forward)
        first = self.steps

        def index(m):
            return first + m if forward else -first - m - 1

        def pair(m):
            return p + dp.item(m), q + dq.item(m)

        gap, exact = _gaps_of(orbit, i, p, q, dp, dq)
        gerr = xerr + 2 * unit
        gaps = (xf - self._fl[i], self._fr[i] - xf)
        stop, error = k, None
        if spec is not None and spec.has_log_singularity:
            gate = gerr + unit + float(spec.hard_cutoff)
            for m in np.flatnonzero((gaps[0] <= gate)
                                    | (gaps[1] <= gate)).tolist():
                ia = i.item(m)
                error = _orbit_error(orbit, spec, self.iet.perm.top[ia],
                                     index(m), self._cp.item(ia),
                                     self._cm.item(ia),
                                     (gap(m, False), gap(m, True)))
                if error is not None:
                    stop = m
                    break
        # the failing point counts for the minima
        n = stop + (error is not None)
        for right, g in enumerate(gaps):
            self._merge(right, g[:n], gerr[:n], gap, index, pair)
        f = np.zeros(0)
        if spec is not None:
            ((f, ferr),), df, dferr, _ = roof_terms(
                float(spec.c0), self._cp[i[:stop]], self._cm[i[:stop]],
                [(None, None, None, exact)])
            S = np.cumsum(np.concatenate(((self.sum,), f)))
            D = np.cumsum(np.concatenate(((self.dsum,), df)))
            self.err = np.cumsum(np.concatenate((
                (self.err,), ferr + np.abs(S[1:]) * 2.0 ** -52))).item(-1)
            self.derr = np.cumsum(np.concatenate((
                (self.derr,), dferr + np.abs(D[1:]) * 2.0 ** -52))).item(-1)
            self.sum, self.dsum = S.item(-1), D.item(-1)
            if stop:
                self.last_f = f.item(-1)
        self.steps += stop
        if error is not None:
            m = stop if forward else stop - 1
            orbit.move_to(pair(m) if m >= 0 else (p, q))
        return f, error, pair

    def _merge(self, right, g, gerr, gap, index, pair):
        """Merge the smallest of the exact left (or right) gaps with shadows
        g and error bounds gerr into the running minimum."""
        if not g.size:
            return
        unit, pair_less = self.orbit.unit, self.orbit.pair_less
        best = int(np.argmin(g))
        low = gap(best, right)
        for m in np.flatnonzero(g - g[best] <= gerr + gerr[best]
                                + unit).tolist():
            cand = gap(m, right)
            if pair_less(cand, low) or (m < best and cand == low):
                best, low = m, cand
        gf, ge = g.item(best), gerr.item(best)
        old = self.right_min if right else self.left_min
        if old is not None:
            shadow, bound = self._bounds[right]
            diff, tol = gf - shadow, ge + bound + unit
            if diff > tol or (diff >= -tol and not pair_less(low, old)):
                return
        self._bounds[right] = gf, ge
        if right:
            self.right_min, self.right_index = low, index(best)
        else:
            self.left_min, self.left_index = low, index(best)
            if low == (0, 0):
                self.hit = (index(best), self.orbit.value(pair(best)))

    def advance_to(self, n: int):
        """Walk on until n points have been visited."""
        if n < self.steps:
            raise ValueError("cursor cannot move backwards")
        while self.steps < n:
            error = self._segment(min(n - self.steps, _SEGMENT))[1]
            if error is not None:
                raise error
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
    max_steps jumps (FlowStepBudgetError beyond; ValueError when y < 0 or
    y + t is not finite).  The cursor walks
    segments, each after the first as long as the mean of the roof values
    walked so far predicts; r is the first step where the running
    remainder (a cumsum in step order) falls below f, or reaches 0
    backward.  Points past it never raise."""
    if y < 0:
        raise ValueError("flow point y = %r is below 0, outside the flow "
                         "space" % y)
    s = y + t
    if not math.isfinite(s):
        raise ValueError("flow time y + t = %r (y = %r, t = %r) is not "
                         "finite" % (s, y, t))
    forward = s >= 0
    cur = BirkhoffCursor(iet, spec, x, forward=forward)
    k = 16
    while True:
        first = cur.steps
        f, error, pair = cur._segment(min(k, max_steps + 1 - first))
        if forward:
            rest = np.cumsum(np.concatenate(((s,), -f)))
            over = np.flatnonzero(rest[:-1] < f)
        else:
            rest = np.cumsum(np.concatenate(((s,), f)))[1:]
            over = np.flatnonzero(rest >= 0)
        if over.size:
            m = over.item(0)
            n = first + m
            if forward or n < max_steps:
                return (cur.orbit.value(pair(m)), rest.item(m),
                        n if forward else -n - 1)
            raise FlowStepBudgetError(max_steps, t, steps=-n - 1)
        if error is not None:
            raise error
        s = rest.item(-1)
        if cur.steps > max_steps:
            raise FlowStepBudgetError(
                max_steps, t, steps=cur.steps if forward else -cur.steps)
        mean = f.mean()
        k = 4 + int(min(abs(s) / mean, _SEGMENT)) if mean > 0 else _SEGMENT


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
