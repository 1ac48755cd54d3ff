"""Interval exchange transformations over exact scalars.

An IET is a pair (permutation, lengths): the unit interval (or any interval
[0, |I|)) is cut into d subintervals read left to right in the *top* order
and reassembled left to right in the *bottom* order.  All arithmetic is
exact, so orbits, partitions and first-return times can be compared with
equality.  Intervals are half-open [l_a, r_a); x = r_a belongs to the next
interval.
"""

from __future__ import annotations

import math

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (ExactScalar, _sign, as_scalar, exact_sum,
                    quadratic_float)

#: Re-sync the float shadow of an IntegerOrbit point from its exact pair
#: once the shadow's error bound passes this many rounding units.
_SHADOW_RESYNC = 1 << 12


class IetDomainError(ValueError):
    """Point outside the interval of definition."""


class InvalidIetError(ValueError):
    """Combinatorial or length data do not define a valid IET."""


def _common_denominator(scalars, den=1, field=None) -> tuple:
    """(lcm of den and the denominators of the scalars, their quadratic
    field); raises on scalars of two different fields."""
    for s in scalars:
        if s.d is not None:
            if field is not None and s.d != field:
                raise InvalidIetError("mixed quadratic fields in orbit")
            field = s.d
        den = den // math.gcd(den, s.a.denominator) * s.a.denominator
        den = den // math.gcd(den, s.b.denominator) * s.b.denominator
    return den, field


class Permutation:
    """Pair of bijections (top, bottom) from a finite alphabet to 1..d.

    `alphabet` fixes the index order used for all vectors and cocycle
    matrices; induced IETs produced by Rauzy-Veech induction keep the
    alphabet of the IET they came from, so cocycle matrices compose.
    """

    __slots__ = ("alphabet", "top", "bottom", "_top_pos", "_bottom_pos",
                 "_irreducible")

    def __init__(self, top: Sequence[str], bottom: Sequence[str],
                 alphabet: Optional[Sequence[str]] = None):
        top = tuple(top)
        bottom = tuple(bottom)
        if len(top) < 2:
            raise InvalidIetError("need at least 2 intervals")
        if sorted(top) != sorted(bottom):
            raise InvalidIetError("top and bottom rows use different labels")
        if len(set(top)) != len(top):
            raise InvalidIetError("duplicate labels in permutation")
        if alphabet is None:
            alphabet = top
        alphabet = tuple(alphabet)
        if sorted(alphabet) != sorted(top):
            raise InvalidIetError("alphabet does not match permutation labels")
        self.alphabet = alphabet
        self.top = top
        self.bottom = bottom
        self._top_pos = {a: i for i, a in enumerate(top)}
        self._bottom_pos = {a: i for i, a in enumerate(bottom)}
        self._irreducible = None

    @property
    def d(self) -> int:
        return len(self.alphabet)

    def top_position(self, label) -> int:
        """1-based position of `label` in the top row."""
        return self._top_pos[label] + 1

    def bottom_position(self, label) -> int:
        return self._bottom_pos[label] + 1

    @property
    def irreducible(self) -> bool:
        """{1..j} invariant under pi_b o pi_t^-1 only for j = d."""
        if self._irreducible is None:
            flag = True
            for j in range(1, self.d):
                if {self._bottom_pos[a] for a in self.top[:j]} == set(range(j)):
                    flag = False
                    break
            self._irreducible = flag
        return self._irreducible

    def inverse(self) -> "Permutation":
        return Permutation(self.bottom, self.top, alphabet=self.alphabet)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return (self.top == other.top and self.bottom == other.bottom
                and self.alphabet == other.alphabet)

    def __hash__(self):
        return hash((self.top, self.bottom, self.alphabet))

    def __repr__(self):
        return "Permutation(%s / %s)" % (" ".join(self.top),
                                         " ".join(self.bottom))


class Iet:
    """Interval exchange transformation with exact lengths.

    `lengths` may be a dict label -> scalar or a sequence aligned with
    `perm.alphabet`.  The transformation acts on [0, total).
    """

    __slots__ = ("perm", "lengths", "total", "_len", "_left_top",
                 "_left_bottom", "_translation", "_top_cuts", "_bottom_cuts",
                 "_itables", "_ftables")

    def __init__(self, perm: Permutation, lengths):
        self.perm = perm
        if isinstance(lengths, dict):
            lens = {a: as_scalar(v) for a, v in lengths.items()}
            if set(lens) != set(perm.alphabet):
                raise InvalidIetError("lengths keyed by wrong labels")
            self.lengths = tuple(lens[a] for a in perm.alphabet)
        else:
            vals = [as_scalar(v) for v in lengths]
            if len(vals) != perm.d:
                raise InvalidIetError("need one length per label")
            self.lengths = tuple(vals)
        for lam in self.lengths:
            if not lam.sign() > 0:
                raise InvalidIetError("all lengths must be positive")
        self._len = dict(zip(perm.alphabet, self.lengths))
        self.total = exact_sum(self.lengths)

        left_top = {}
        top_cuts = []
        x = ExactScalar(0)
        for a in perm.top:
            left_top[a] = x
            x = x + self._len[a]
            top_cuts.append(x)
        left_bottom = {}
        bottom_cuts = []
        x = ExactScalar(0)
        for a in perm.bottom:
            left_bottom[a] = x
            x = x + self._len[a]
            bottom_cuts.append(x)
        self._left_top = left_top
        self._left_bottom = left_bottom
        self._top_cuts = top_cuts
        self._bottom_cuts = bottom_cuts
        self._translation = {a: left_bottom[a] - left_top[a]
                             for a in perm.alphabet}
        self._itables = self._ftables = None

    # -- geometry ----------------------------------------------------------

    def length(self, label) -> ExactScalar:
        return self._len[label]

    def left(self, label) -> ExactScalar:
        """l_a: left endpoint of I_a (top order)."""
        return self._left_top[label]

    def right(self, label) -> ExactScalar:
        """r_a = l_a + lambda_a."""
        return self._left_top[label] + self.length(label)

    def left_image(self, label) -> ExactScalar:
        """Left endpoint of T(I_a) (bottom order)."""
        return self._left_bottom[label]

    def right_image(self, label) -> ExactScalar:
        return self._left_bottom[label] + self.length(label)

    def translation(self, label) -> ExactScalar:
        return self._translation[label]

    def integer_tables(self) -> tuple:
        """(D, d, rights, lefts, trans, rights_b, trans_b): the common
        denominator D of the endpoints and translations, their quadratic
        field d (None on Q) and, as integer pairs (P, Q) standing for
        (P + Q sqrt(d))/D, the right and left endpoints and the
        translations in top order and the right endpoints and the
        translations in bottom order (computed once)."""
        if self._itables is None:
            top = [self._translation[a] for a in self.perm.top]
            bottom = [self._translation[a] for a in self.perm.bottom]
            den, field = _common_denominator(
                [self.total, *self._top_cuts, *self._bottom_cuts, *top])

            def pairs(scalars):
                return tuple((s.a.numerator * (den // s.a.denominator),
                              s.b.numerator * (den // s.b.denominator))
                             for s in scalars)

            rights = pairs(self._top_cuts)
            self._itables = (den, field, rights, ((0, 0),) + rights[:-1],
                             pairs(top), pairs(self._bottom_cuts),
                             pairs(bottom))
        return self._itables

    def float_tables(self) -> Optional[tuple]:
        """Correctly rounded floats of the right and left endpoints and the
        translations in top order, and of the right endpoints and the
        translations in bottom order (computed once); None when the total
        length is at most 2^-1000, where these floats lose their relative
        precision, or at least 2^800, a margin below the float range
        (2^1024) that keeps the sums of entries and the shadow's error
        bounds finite."""
        if self._ftables is None:
            tables = None
            if ExactScalar(Fraction(1, 2 ** 1000)) < self.total and \
                    self.total < ExactScalar(2 ** 800):
                rights = tuple(map(float, self._top_cuts))
                trans = self._translation
                tables = (rights, (0.0,) + rights[:-1],
                          tuple(float(trans[a]) for a in self.perm.top),
                          tuple(map(float, self._bottom_cuts)),
                          tuple(float(trans[a]) for a in self.perm.bottom))
            self._ftables = (tables,)
        return self._ftables[0]

    def discontinuities(self) -> list[ExactScalar]:
        """Orbits of these points decide the Keane condition: l_a, pi_t(a) != 1."""
        return [self.left(a) for a in self.perm.top[1:]]

    def singular_points(self) -> list[ExactScalar]:
        """All interval endpoints {l_a, r_a} = cut points plus 0 and total."""
        pts = [ExactScalar(0)]
        pts.extend(self.left(a) for a in self.perm.top[1:])
        pts.append(self.total)
        return pts

    # -- the map -------------------------------------------------------------

    def interval_of(self, x: ExactScalar) -> str:
        if x.sign() < 0 or not x < self.total:
            raise IetDomainError("point %r outside [0, %s)" %
                                 (x, self.total.to_string()))
        top = self.perm.top
        cuts = self._top_cuts
        for i in range(len(top) - 1):
            if x < cuts[i]:
                return top[i]
        return top[-1]

    def image_interval_of(self, x: ExactScalar) -> str:
        if x.sign() < 0 or not x < self.total:
            raise IetDomainError("point %r outside [0, %s)" %
                                 (x, self.total.to_string()))
        bottom = self.perm.bottom
        cuts = self._bottom_cuts
        for i in range(len(bottom) - 1):
            if x < cuts[i]:
                return bottom[i]
        return bottom[-1]

    def evaluate(self, x) -> ExactScalar:
        x = as_scalar(x)
        return x + self._translation[self.interval_of(x)]

    def evaluate_inverse(self, x) -> ExactScalar:
        x = as_scalar(x)
        return x - self._translation[self.image_interval_of(x)]

    def __call__(self, x):
        return self.evaluate(x)

    def iterate(self, x, n: int) -> ExactScalar:
        x = as_scalar(x)
        step = self.evaluate if n >= 0 else self.evaluate_inverse
        for _ in range(abs(n)):
            x = step(x)
        return x

    def orbit(self, x, n: int):
        """Yield x, Tx, ..., T^(n-1)x (or inverse orbit for n < 0)."""
        x = as_scalar(x)
        step = self.evaluate if n >= 0 else self.evaluate_inverse
        for _ in range(abs(n)):
            yield x
            x = step(x)

    def invert(self) -> "Iet":
        inv_perm = self.perm.inverse()
        return Iet(inv_perm, {a: self.length(a) for a in self.perm.alphabet})

    # -- structure -------------------------------------------------------------

    def image_partition(self) -> list[tuple[ExactScalar, ExactScalar, str]]:
        """Image intervals [l_{a,b}, r_{a,b}) in bottom order."""
        out = []
        for a in self.perm.bottom:
            out.append((self.left_image(a), self.right_image(a), a))
        return out

    def check_bijection(self) -> bool:
        """Image intervals tile [0, total) exactly."""
        x = ExactScalar(0)
        for left, right, _ in self.image_partition():
            if left != x:
                return False
            x = right
        return x == self.total

    def __eq__(self, other):
        if not isinstance(other, Iet):
            return NotImplemented
        return self.perm == other.perm and self.lengths == other.lengths

    def __hash__(self):
        return hash((self.perm, self.lengths))

    def __repr__(self):
        lens = ", ".join(v.to_string() for v in self.lengths)
        return "Iet(%r, [%s])" % (self.perm, lens)


class IntegerOrbit:
    """Exact orbit walker on integerized coordinates.

    All endpoints, translations and reference points of one IET share a
    common denominator D, so a scalar (a + b sqrt(d))/1 becomes an integer
    pair (P, Q) with value (P + Q sqrt(d))/D and every orbit step is two
    integer additions plus sign tests — no rational normalization.  The
    pairs of the IET's endpoints and translations are computed once per IET
    (`Iet.integer_tables`) and scaled to D.  This is the one carrier of
    every exact orbit walk in the package; results convert back to
    ExactScalar on demand.

    Shadow: beside the exact pair the walker keeps a shadow `xf` of the
    current point with a bound |xf - x| <= `xerr` (on the scale of the
    tables, see below), and tables of the right and left endpoints in top
    order (`frights`, `flefts`), the bottom-order right endpoints
    (`frights_b`) and the translations (`ftrans`, `ftrans_b`).  The
    invariant: a shadow decision x < c is taken only when the difference of
    `xf` and the table entry of c exceeds `xerr` + 2 units in absolute
    value, which makes it provably the exact decision; otherwise the exact
    sign test `exact._sign` decides.

    On Q every pair is (P, 0), so the shadow works on the numerators: the
    tables hold the P of each entry, `xf` is the P of the point and `xerr`
    = `unit` = 0; every lookup is an exact integer bisection, and only a
    point exactly on a cut falls back to `exact._sign`.

    On Q(sqrt d) the tables are the correctly rounded floats of
    `Iet.float_tables`.  Every value involved lies below 2H, with H a power
    of two above the total length, so each table entry and each rounded sum
    or difference of two of them is off by at most half of `unit` =
    H 2^-52.  A step adds two units to `xerr` (translation entry and sum);
    past `_SHADOW_RESYNC` units `xf` is read again from the exact pair.
    Outside the range where these floats, their sums and their error
    bounds are finite and their roundings bounded (total length at most
    2^-1000 or at least 2^800) `unit` is infinite and every decision is
    exact.
    """

    __slots__ = ("iet", "den", "field", "cuts", "lefts", "trans", "cuts_b",
                 "trans_b", "p", "q", "steps", "frights", "flefts", "ftrans",
                 "frights_b", "ftrans_b", "xf", "xerr", "unit")

    def __init__(self, iet: Iet, x, extra=()):
        x = as_scalar(x)
        self.iet = iet
        tables = iet.integer_tables()
        den, field = _common_denominator(
            [x] + [as_scalar(s) for s in extra], tables[0], tables[1])
        k = den // tables[0]
        if k > 1:
            tables = tables[:2] + tuple(tuple((p * k, q * k) for p, q in t)
                                        for t in tables[2:])
        self.den = den
        self.field = field
        _, _, self.cuts, self.lefts, self.trans, self.cuts_b, self.trans_b \
            = tables
        self.p, self.q = self._pair(x)
        if _sign(self.p, self.q, field) < 0 or \
                not self.less_than(self.cuts[-1]):
            raise IetDomainError("point %r outside [0, %s)" %
                                 (x, iet.total.to_string()))
        self.steps = 0
        if field is None:
            # on Q every pair is (P, 0): the numerators are the tables and
            # the shadow, with no error
            (self.frights, self.flefts, self.ftrans, self.frights_b,
             self.ftrans_b) = ([c[0] for c in t] for t in tables[2:])
            self.unit = 0
            self.xf = self.p
        elif iet.float_tables() is not None:
            (self.frights, self.flefts, self.ftrans, self.frights_b,
             self.ftrans_b) = iet.float_tables()
            self.unit = math.ldexp(1.0, math.frexp(self.frights[-1])[1] - 52)
            self.xf = self.to_float()
        else:
            # no float decision: the bisect answer is never kept
            zeros = (0.0,) * len(self.cuts)
            (self.frights, self.flefts, self.ftrans, self.frights_b,
             self.ftrans_b) = (zeros,) * 5
            self.unit = math.inf
            self.xf = 0.0
        self.xerr = self.unit

    def _pair(self, s: ExactScalar):
        return (s.a.numerator * (self.den // s.a.denominator),
                s.b.numerator * (self.den // s.b.denominator))

    def pair_of(self, s) -> tuple:
        """Integer pair of an external scalar (extends the denominator
        exactly or fails)."""
        s = as_scalar(s)
        if s.d is not None and s.d != self.field:
            raise InvalidIetError("mixed quadratic fields in orbit")
        if (self.den % s.a.denominator) or (self.den % s.b.denominator):
            raise InvalidIetError("scalar does not share the orbit "
                                  "denominator")
        return self._pair(s)

    def _sign(self, p: int, q: int) -> int:
        """Sign of the integer pair (p, q) as a value, p + q sqrt(field)."""
        return _sign(p, q, self.field)

    def less_than(self, pair) -> bool:
        return _sign(self.p - pair[0], self.q - pair[1], self.field) < 0

    def abs_distance(self, pair) -> tuple:
        """|value - pair| as an integer pair."""
        dp = self.p - pair[0]
        dq = self.q - pair[1]
        if _sign(dp, dq, self.field) < 0:
            return (-dp, -dq)
        return (dp, dq)

    def pair_less(self, a, b) -> bool:
        return _sign(a[0] - b[0], a[1] - b[1], self.field) < 0

    def _sign_index(self, cuts) -> int:
        """Exact: the first i with x < cuts[i], the last cut excluded."""
        p, q, field = self.p, self.q, self.field
        for i in range(len(cuts) - 1):
            if _sign(p - cuts[i][0], q - cuts[i][1], field) < 0:
                return i
        return len(cuts) - 1

    def _locate(self, fcuts, cuts) -> int:
        """Index of the interval holding x among the right endpoints
        `cuts` (float table `fcuts`): by the shadow when both neighbouring
        cuts are provably on their side, else by `_sign_index`."""
        xf = self.xf
        last = len(cuts) - 1
        i = bisect_right(fcuts, xf, 0, last)
        tol = self.xerr + 2 * self.unit
        if (i == 0 or xf - fcuts[i - 1] > tol) and \
                (i == last or fcuts[i] - xf > tol):
            return i
        return self._sign_index(cuts)

    def interval_index(self) -> int:
        return self._locate(self.frights, self.cuts)

    def image_interval_index(self) -> int:
        return self._locate(self.frights_b, self.cuts_b)

    def _shift(self, tf: float):
        """Move the shadow by the float translation tf (exact pair moved
        already)."""
        xerr = self.xerr + 2 * self.unit
        if xerr > _SHADOW_RESYNC * self.unit:
            self.xf = self.to_float()
            self.xerr = self.unit
        else:
            self.xf += tf
            self.xerr = xerr

    def step_forward(self, i=None):
        """Step to T x; i, when given, is interval_index() of x."""
        if i is None:
            i = self._locate(self.frights, self.cuts)
        t = self.trans[i]
        self.p += t[0]
        self.q += t[1]
        self.steps += 1
        self._shift(self.ftrans[i])

    def step_backward(self):
        j = self._locate(self.frights_b, self.cuts_b)
        t = self.trans_b[j]
        self.p -= t[0]
        self.q -= t[1]
        self.steps -= 1
        self._shift(-self.ftrans_b[j])

    def value(self, pair=None) -> ExactScalar:
        p, q = (self.p, self.q) if pair is None else pair
        return ExactScalar(Fraction(p, self.den), Fraction(q, self.den),
                           self.field)

    def to_float(self, pair=None) -> float:
        """float(value), bit for bit as ExactScalar.__float__."""
        p, q = (self.p, self.q) if pair is None else pair
        return quadratic_float(p, q, self.den, self.field)


@dataclass(frozen=True)
class KeaneReport:
    satisfied_to_depth: bool
    depth: int
    colliding_pair: Optional[tuple] = None


def keane_check(iet: Iet, depth: int) -> KeaneReport:
    """Iterate every discontinuity forward `depth` steps, exactly.

    Reports the first collision: an orbit point equal to an orbit point of
    another discontinuity (or an earlier point of its own orbit), or an
    orbit point landing exactly on a discontinuity.  A finite verification
    horizon only; Keane itself is undecidable.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    discs = iet.discontinuities()
    # discontinuities are cut points, so every orbit has the denominator of
    # the IET itself and points compare as integer pairs
    orbits = [IntegerOrbit(iet, x0) for x0 in discs]
    disc_set = {orbits[0].pair_of(x0) for x0 in discs}
    seen: dict[tuple, tuple[int, int]] = {}
    for j, orbit in enumerate(orbits):
        for k in range(depth + 1):
            x = (orbit.p, orbit.q)
            if k > 0 and x in disc_set:
                return KeaneReport(False, depth, ((j, k), ("disc",
                                   orbit.value().to_string())))
            if x in seen and seen[x] != (j, k):
                return KeaneReport(False, depth, ((j, k), seen[x]))
            seen[x] = (j, k)
            if k < depth:
                orbit.step_forward()
    return KeaneReport(True, depth)


def first_return_map(iet: Iet, cut: ExactScalar, max_steps: int = 10 ** 7):
    """First-return data of `iet` to [0, cut), by direct orbit iteration.

    Returns a function x -> (return point, return time).  This is the
    convention-free oracle against which the Rauzy-Veech step is validated.
    """
    if not (ExactScalar(0) < cut and cut <= iet.total):
        raise IetDomainError("cut must lie in (0, total]")

    def hit(x):
        x = as_scalar(x)
        if not x < cut:
            raise IetDomainError("start point outside the inducing interval")
        orbit = IntegerOrbit(iet, x, extra=[cut])
        bound = orbit.pair_of(cut)
        orbit.step_forward()
        while not orbit.less_than(bound):
            orbit.step_forward()
            if orbit.steps > max_steps:
                raise RuntimeError("no return within %d steps" % max_steps)
        return orbit.value(), orbit.steps

    return hit
