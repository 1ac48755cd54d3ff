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

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exact import (ZERO, ExactScalar, _join, _reduce, _sign, as_scalar,
                    exact_sum, quadratic_float)

#: Re-sync the float shadow of an IntegerOrbit point from its exact pair
#: once the shadow's error bound passes this many rounding units.
_SHADOW_RESYNC = 1 << 12

#: Steps between two re-syncs of a shadow that starts at one unit: the
#: length of the segments the segment walkers ask for.
_SEGMENT = _SHADOW_RESYNC // 2


class IetDomainError(ValueError):
    """Point outside the interval of definition."""


class InvalidIetError(ValueError):
    """Combinatorial or length data do not define a valid IET."""


class Permutation:
    """Pair of bijections (top, bottom) from a finite alphabet to 1..d.

    `alphabet` fixes the index order used for all vectors and cocycle
    matrices; induced IETs produced by Rauzy-Veech induction keep the
    alphabet of the IET they came from, so cocycle matrices compose.
    """

    __slots__ = ("alphabet", "top", "bottom", "_irreducible")

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
        self._irreducible = None

    @property
    def d(self) -> int:
        return len(self.alphabet)

    def top_position(self, label) -> int:
        """1-based position of `label` in the top row."""
        return self.top.index(label) + 1

    def bottom_position(self, label) -> int:
        return self.bottom.index(label) + 1

    @property
    def irreducible(self) -> bool:
        """{1..j} invariant under pi_b o pi_t^-1 only for j = d."""
        if self._irreducible is None:
            flag = True
            for j in range(1, self.d):
                if set(self.bottom[:j]) == set(self.top[:j]):
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


def _geometry(perm: Permutation, lengths) -> tuple:
    """(rights, lefts, trans, rights_b, trans_b) of the exchange of
    integer `lengths` (aligned with perm.alphabet): right and left
    endpoints and translations in top order, right endpoints and
    translations in bottom order."""
    length = dict(zip(perm.alphabet, lengths))
    left_top, rights, x = {}, [], 0
    for a in perm.top:
        left_top[a] = x
        x += length[a]
        rights.append(x)
    trans, rights_b, x = {}, [], 0
    for a in perm.bottom:
        trans[a] = x - left_top[a]
        x += length[a]
        rights_b.append(x)
    return (tuple(rights), (0, *rights[:-1]),
            tuple(trans[a] for a in perm.top), tuple(rights_b),
            tuple(trans[a] for a in perm.bottom))


def _first_above(p: int, q: int, cuts, field, scale: int = 1) -> int:
    """The first i with p + q sqrt(field) < scale (P + Q sqrt(field)) for
    the integer pair (P, Q) = cuts[i], the last cut excluded: the index of
    the interval holding the point among the right endpoints `cuts`."""
    last = len(cuts) - 1
    for i in range(last):
        cp, cq = cuts[i]
        if _sign(p - scale * cp, q - scale * cq, field) < 0:
            return i
    return last


class _Walk(NamedTuple):
    """The tables of one direction of `IntegerOrbit.segment`: exact pairs
    and their float shadows."""
    cuts: tuple             # right ends, top (bottom) order, integer pairs
    fcuts: tuple            # their shadows
    ftrans: list            # shadow translations, negated backward
    ft: np.ndarray          # ftrans as an array
    big: int                # the largest translation numerator
    tt: list                # translation numerators, negated backward
    t64: Optional[list]     # as int64 arrays, where they fit
    top_of_b: np.ndarray


class Iet:
    """Interval exchange transformation with exact lengths.

    `lengths` may be a dict label -> scalar or a sequence aligned with
    `perm.alphabet`.  The transformation acts on [0, total).

    An Iet keeps its permutation, lengths and total.  Its geometry (the
    endpoints and translations) is kept once, in integer form, by
    `integer_tables` on first use, and every endpoint or translation is
    read from there; an Iet that is only asked for its lengths, as the
    ones of zippered induction steps are, never builds it.  It also keeps
    its orbits' itinerary table (`itinerary_table`), built on first use.
    """

    __slots__ = ("perm", "lengths", "total", "_itables", "_ftables",
                 "_towers")

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
        self.total = exact_sum(self.lengths)
        self._itables = self._ftables = self._towers = None

    # -- geometry ----------------------------------------------------------

    def length(self, label) -> ExactScalar:
        return self.lengths[self.perm.alphabet.index(label)]

    def _scalar(self, table: int, i: int) -> ExactScalar:
        """Entry i of integer table `table` (see integer_tables)."""
        tables = self.integer_tables()
        den, field, e = tables[0], tables[1], tables[table][i]
        if field is None:
            return _reduce(e, 0, den, None)
        return _reduce(e[0], e[1], den, field)

    def left(self, label) -> ExactScalar:
        """l_a: left endpoint of I_a (top order)."""
        return self._scalar(3, self.perm.top.index(label))

    def right(self, label) -> ExactScalar:
        """r_a = l_a + lambda_a."""
        return self._scalar(2, self.perm.top.index(label))

    def left_image(self, label) -> ExactScalar:
        """Left endpoint of T(I_a) (bottom order)."""
        j = self.perm.bottom.index(label)
        return self._scalar(5, j - 1) if j else ZERO

    def right_image(self, label) -> ExactScalar:
        return self._scalar(5, self.perm.bottom.index(label))

    def translation(self, label) -> ExactScalar:
        return self._scalar(4, self.perm.top.index(label))

    def integer_tables(self) -> tuple:
        """(D, d, rights, lefts, trans, rights_b, trans_b): the common
        denominator D of the lengths, their quadratic field d (None on Q)
        and, over D, the right and left endpoints and the translations in
        top order and the right endpoints and the translations in bottom
        order (computed once).  On Q(sqrt d) an entry is an integer pair
        (P, Q) standing for (P + Q sqrt(d))/D; on Q it is the integer P.

        The endpoints and translations are sums and differences of the
        lengths, so D (the lcm of the lengths' denominators) is also the
        lcm of theirs: the tables are the lengths' (p, q, den) rescaled to
        D and summed."""
        if self._itables is None:
            den, field, lengths = self.integer_lengths()
            tables = _geometry(self.perm, [p for p, _ in lengths])
            if field is not None:
                q_tables = _geometry(self.perm, [q for _, q in lengths])
                tables = [tuple(zip(p, q)) for p, q in zip(tables, q_tables)]
            self._itables = (den, field, *tables)
        return self._itables

    def integer_lengths(self) -> tuple:
        """(D, d, lengths): D and d as in `integer_tables`, and the lengths
        over D, integer pairs (P, Q) in alphabet order (Q = 0 on Q)."""
        den = math.lcm(*(lam.den for lam in self.lengths))
        field = next((lam.d for lam in self.lengths if lam.d), None)
        return den, field, tuple((lam.p * (den // lam.den),
                                  lam.q * (den // lam.den))
                                 for lam in self.lengths)

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
                den, field, *itables = self.integer_tables()
                if field is None:
                    tables = tuple(tuple(e / den for e in t) for t in itables)
                else:
                    tables = tuple(tuple(quadratic_float(p, q, den, field)
                                         for p, q in t) for t in itables)
            self._ftables = (tables,)
        return self._ftables[0]

    def itinerary_table(self):
        """The `rauzy.ItineraryTable` of this IET (computed once), or None
        where it has none: without float tables, or where the induction
        stops before every tower is `_SEGMENT` floors tall.  Its build
        walks no orbit."""
        if self._towers is None:
            from .rauzy import build_itinerary_table
            self._towers = (build_itinerary_table(self),)
        return self._towers[0]

    def discontinuities(self) -> list[ExactScalar]:
        """Orbits of these points decide the Keane condition: l_a, pi_t(a) != 1."""
        return [self.left(a) for a in self.perm.top[1:]]

    def singular_points(self) -> list[ExactScalar]:
        """All interval endpoints {l_a, r_a} = cut points plus 0 and total."""
        pts = [ZERO]
        pts.extend(self.left(a) for a in self.perm.top[1:])
        pts.append(self.total)
        return pts

    # -- the map -------------------------------------------------------------

    def _index(self, x: ExactScalar, table: int) -> int:
        """Index of the interval holding x among the right endpoints in
        integer table `table` (2: top order, 5: bottom order)."""
        if x.sign() < 0 or not x < self.total:
            raise IetDomainError("point %r outside [0, %s)" %
                                 (x, self.total.to_string()))
        tables = self.integer_tables()
        den, field, cuts = tables[0], tables[1], tables[table]
        if field is None:
            cuts = [(c, 0) for c in cuts]
        # x < (P + Q sqrt d)/D <=> (p + q sqrt d) D < den (P + Q sqrt d)
        return _first_above(x.p * den, x.q * den, cuts, _join(field, x.d),
                            x.den)

    def interval_of(self, x: ExactScalar) -> str:
        return self.perm.top[self._index(x, 2)]

    def image_interval_of(self, x: ExactScalar) -> str:
        return self.perm.bottom[self._index(x, 5)]

    def evaluate(self, x) -> ExactScalar:
        x = as_scalar(x)
        return x + self._scalar(4, self._index(x, 2))

    def evaluate_inverse(self, x) -> ExactScalar:
        x = as_scalar(x)
        return x - self._scalar(6, self._index(x, 5))

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
        x = ZERO
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
    pairs of the IET's endpoints and translations are read from its integer
    tables (`Iet.integer_tables`, numerators alone on Q) and scaled to D.
    This is the one carrier of every exact orbit walk in the package;
    results convert back to ExactScalar on demand.

    Shadow: beside the exact pair the walker keeps a shadow `xf` of the
    current point with a bound |xf - x| <= `xerr` (on the scale of the
    tables, see below), and tables of the right and left endpoints in top
    order (`frights`, `flefts`), the bottom-order right endpoints
    (`frights_b`) and the translations (`ftrans`, `ftrans_b`).  The
    invariant: a shadow decision x < c is taken only when the difference of
    `xf` and the table entry of c exceeds `xerr` + 2 units in absolute
    value, which makes it provably the exact decision; otherwise the exact
    sign test `exact._sign` decides.

    On Q, as on Q(sqrt d), the tables are the correctly rounded floats of
    `Iet.float_tables` (on Q every pair is (P, 0)), so the shadow has one
    format on every field.  Every value involved lies below 2H, with H a power
    of two above the total length, so each table entry and each rounded sum
    or difference of two of them is off by at most half of `unit` =
    H 2^-52.  A step adds two units to `xerr` (translation entry and sum);
    past `_SHADOW_RESYNC` units `xf` is read again from the exact pair.
    Outside the range where these floats, their sums and their error
    bounds are finite and their roundings bounded (total length at most
    2^-1000 or at least 2^800) `unit` is infinite and every decision is
    exact.

    Backward index: T^-1 x lies in I_a exactly when x lies in T(I_a), so
    the bottom interval j holding x gives the top interval of T^-1 x,
    `top_of_b[j]`, the top index of the letter bottom[j].  The bottom
    locate is itself certified, so `step_backward` returns the top index
    of the new point with no second locate.

    Segments: `segment(k)` takes k steps at once, each point bit for bit
    what the one-step methods leave; `ratner._pair_walk`,
    `roof.BirkhoffCursor`, the exact flow, `keane_check` and
    `first_return_map` walk so.  Their interval indices J come first, then
    `follow(J)` gives every other output from J by array operations;
    `rauzy.build_itinerary_table` follows each tower's word so.

    J comes by one rule on every field.  Where the shadow re-syncs (with
    float tables) and the IET has an itinerary table
    (`Iet.itinerary_table`: its Rohlin towers at the first induction step
    where each is `_SEGMENT` floors tall), J is read off the towers
    (`_itinerary`).  An exact locate gives the point's tower and floor,
    and the next points follow that tower's word up to its top, where the
    point is located again; backward, the reversed word below the floor in
    bottom order, then at floor 0 one `_first_above` on the bottom cuts.
    This J is the exact itinerary, so no locate needs certifying.
    Elsewhere, that is without float tables or on an IET whose induction
    stops before its towers are that tall, `_stepped` locates one step at
    a time by `_locate`, the certified locate of the one-step methods.

    From a re-sync xerr grows by 2 units a step, exact multiples of the
    power of two `unit`, so one array holds the bounds of a run of up to
    `_SEGMENT` steps to the next re-sync.  `np.cumsum` adds in order with
    one rounding per add, so the cumsum of the run's first shadow and the
    translations of J is every shadow bit for bit.  The exact pairs are
    cumsums of the translation numerators, int64 while k times the largest
    stays below 2^63.  The tables of each direction are built once per
    orbit (`_walk`).
    """

    __slots__ = ("iet", "den", "field", "cuts", "lefts", "trans", "cuts_b",
                 "trans_b", "top_of_b", "p", "q", "steps", "frights",
                 "flefts", "ftrans", "frights_b", "ftrans_b", "xf", "xerr",
                 "unit", "_walks")

    def __init__(self, iet: Iet, x, extra=()):
        x = as_scalar(x)
        self.iet = iet
        den0, field, *tables = iet.integer_tables()
        rational = field is None
        points = (x, *map(as_scalar, extra))
        den = math.lcm(den0, *(s.den for s in points))
        for s in points:
            if s.d is not None:
                if field is not None and s.d != field:
                    raise InvalidIetError("mixed quadratic fields in orbit")
                field = s.d
        k = den // den0
        if rational:
            # the tables of Q hold numerators P: pairs (P, 0)
            tables = [tuple([(c * k, 0) for c in t]) for t in tables]
        elif k > 1:
            tables = [tuple([(p * k, q * k) for p, q in t]) for t in tables]
        self.den = den
        self.field = field
        self.cuts, self.lefts, self.trans, self.cuts_b, self.trans_b = tables
        self.top_of_b = tuple(map(iet.perm.top.index, iet.perm.bottom))
        if iet.float_tables() is not None:
            (self.frights, self.flefts, self.ftrans, self.frights_b,
             self.ftrans_b) = iet.float_tables()
            self.unit = math.ldexp(1.0, math.frexp(self.frights[-1])[1] - 52)
        else:
            # no float decision: the bisect answer is never kept
            zeros = (0.0,) * len(self.cuts)
            (self.frights, self.flefts, self.ftrans, self.frights_b,
             self.ftrans_b) = (zeros,) * 5
            self.unit = math.inf
        self._walks = {True: None, False: None}
        self.move_to(self._pair(x))

    def move_to(self, pair):
        """Move the walker to the point of integer pair `pair` (over
        `den`) and restart its step count: a new orbit on the same
        tables."""
        p, q = pair
        if _sign(p, q, self.field) < 0 or \
                _sign(p - self.cuts[-1][0], q - self.cuts[-1][1],
                      self.field) >= 0:
            raise IetDomainError("point %r outside [0, %s)" %
                                 (self.value(pair),
                                  self.iet.total.to_string()))
        self.p, self.q = p, q
        self.steps = 0
        self.xf = 0.0 if self.unit == math.inf else self.to_float()
        self.xerr = self.unit

    def _pair(self, s: ExactScalar):
        k = self.den // s.den
        return s.p * k, s.q * k

    def pair_of(self, s) -> tuple:
        """Integer pair of an external scalar (extends the denominator
        exactly or fails)."""
        s = as_scalar(s)
        if s.d is not None and s.d != self.field:
            raise InvalidIetError("mixed quadratic fields in orbit")
        if self.den % s.den:
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
        return _first_above(self.p, self.q, cuts, self.field)

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

    def step_backward(self) -> int:
        """Step to T^-1 x; returns interval_index() of the new point."""
        j = self._locate(self.frights_b, self.cuts_b)
        t = self.trans_b[j]
        self.p -= t[0]
        self.q -= t[1]
        self.steps -= 1
        self._shift(-self.ftrans_b[j])
        return self.top_of_b[j]

    def _walk(self, forward: bool) -> "_Walk":
        """The tables `segment` walks one direction on, built once per
        orbit."""
        walk = self._walks[forward]
        if walk is None:
            sign = 1 if forward else -1
            cuts, fcuts, trans, ftrans = (
                (self.cuts, self.frights, self.trans, self.ftrans) if forward
                else (self.cuts_b, self.frights_b, self.trans_b,
                      self.ftrans_b))
            ftrans = [sign * t for t in ftrans]
            big = max(abs(v) for t in trans for v in t)
            tt = [[sign * t[c] for t in trans] for c in (0, 1)]
            walk = self._walks[forward] = _Walk(
                cuts, fcuts, ftrans,
                np.array(ftrans, np.float64), big, tt,
                [np.array(t, np.int64) for t in tt] if big < 2 ** 63
                else None, np.array(self.top_of_b))
        return walk

    def _itinerary(self, table, k: int, forward: bool):
        """The indices of the next k steps of `segment` (bottom order
        backward) read off the itinerary table: slices of a tower's word
        (backward, reversed, in bottom order) from the floor of the point
        on, an exact locate after each tower's top, and backward from a
        floor 0 one `_first_above` on the bottom cuts.  The shadow guesses
        for the locates are moved along with the exact point, so that no
        float is rounded from an exact pair."""
        scale = self.den // table.den
        p, q, guess = self.p, self.q, self.xf
        lp, lq, fl = table.lp, table.lq, table.fl
        J, n = np.empty(k, np.int64), 0
        while True:
            a, g = table.locate(p, q, scale, guess, self.field)
            if forward:
                m = min(table.ends[a] - g, k - n)
                J[n:n + m] = table.word[g:g + m]
                n += m
                if n == k:
                    return J
                # past the top: x - (left end of g) + the tower's exit
                ep, eq = table.exits[a]
                p += scale * (ep - lp.item(g))
                q += scale * (eq - lq.item(g))
                guess += table.fexits[a] - fl.item(g)
            else:
                g0 = table.starts[a]
                m = min(g - g0, k - n)
                J[n:n + m] = table.bword[g - m:g][::-1]
                n += m
                if n == k:
                    return J
                # down to floor 0, then one step below the base
                p -= scale * (lp.item(g) - lp.item(g0))
                q -= scale * (lq.item(g) - lq.item(g0))
                J[n] = j = _first_above(p, q, self.cuts_b, self.field)
                n += 1
                if n == k:
                    return J
                p, q = p - self.trans_b[j][0], q - self.trans_b[j][1]
                guess -= fl.item(g) - fl.item(g0) + self.ftrans_b[j]

    def _stepped(self, walk, k: int) -> np.ndarray:
        """The indices of the next k steps of `segment` (bottom order
        backward) by the certified one-step locate `_locate`, the orbit
        moved along each step as the one-step methods move it and then
        back to where it was."""
        cuts, fcuts, ftrans, tp, tq = (walk.cuts, walk.fcuts, walk.ftrans,
                                       *walk.tt)
        start = self.p, self.q, self.xf, self.xerr
        js = array("q", bytes(8 * k))
        for n in range(k):
            js[n] = j = self._locate(fcuts, cuts)
            self.p += tp[j]
            self.q += tq[j]
            self._shift(ftrans[j])
        self.p, self.q, self.xf, self.xerr = start
        return np.frombuffer(js, np.int64)

    def segment(self, k: int, forward: bool = True) -> tuple:
        """Take k >= 1 steps, backward when not forward, and return arrays
        (i, xf, xerr, dp, dq) over the points visited: top-order interval
        indices, shadows, their error bounds and exact pairs less the pair
        before the first step.  Forward visits x .. T^(k-1) x before each
        step, backward T^-1 x .. T^-k x after each step.  Then `follow`."""
        table = self.iet.itinerary_table() if self.unit < math.inf else None
        J = (self._stepped(self._walk(forward), k) if table is None
             else self._itinerary(table, k, forward))
        return self.follow(J, forward)

    def follow(self, J: np.ndarray, forward: bool = True) -> tuple:
        """Take the steps of the orbit's own int64 interval indices J (top
        order forward, bottom order backward) and return what `segment`
        does: cumsums along J of the exact and the float translations."""
        unit, k = self.unit, len(J)
        walk = self._walk(forward)
        if k * walk.big < 2 ** 63:
            odt, (tp, tq) = np.int64, walk.t64
        else:
            odt, (tp, tq) = object, (np.array(t, object) for t in walk.tt)
        resyncs = unit < math.inf
        p, q, xf = self.p, self.q, self.xf
        # xerr = a units at the first point of a run
        a = round(self.xerr / unit) if resyncs else 1
        X, E = np.empty(k + 1), np.empty(k + 1)
        dp, dq = np.zeros(k + 1, odt), np.zeros(k + 1, odt)
        for o, t in ((dp, tp), (dq, tq)):
            np.cumsum(t[J], out=o[1:])
        n0 = 0
        while n0 < k:
            full = (_SHADOW_RESYNC - a) // 2 + 1 if resyncs else k
            m = min(full, k - n0)
            np.multiply(np.arange(a, a + 2 * m, 2, dtype=np.float64), unit,
                        out=E[n0:n0 + m])
            Jm = J[n0:n0 + m]
            np.cumsum(np.concatenate(((xf,), walk.ft[Jm[:-1]])),
                      out=X[n0:n0 + m])
            xf_next = X.item(n0 + m - 1) + walk.ftrans[Jm.item(-1)]
            n0 += m
            # the next run starts at a re-sync, as `_shift` makes it
            if resyncs and m == full:
                xf, a = quadratic_float(p + dp.item(n0), q + dq.item(n0),
                                        self.den, self.field), 1
            else:
                xf, a = xf_next, a + 2 * m
        X[k] = self.xf = xf
        E[k] = self.xerr = a * unit
        self.p, self.q = p + dp.item(k), q + dq.item(k)
        self.steps += k if forward else -k
        if forward:
            return J, X[:k], E[:k], dp[:k], dq[:k]
        return walk.top_of_b[J], X[1:], E[1:], dp[1:], dq[1:]

    def value(self, pair=None) -> ExactScalar:
        p, q = (self.p, self.q) if pair is None else pair
        return _reduce(p, q, self.den, self.field)

    def to_float(self, pair=None) -> float:
        """float(value), bit for bit as ExactScalar.__float__."""
        p, q = (self.p, self.q) if pair is None else pair
        return quadratic_float(p, q, self.den, self.field)


#: Points in the first segment of a first-return walk.
_FIRST_SEGMENT = 256


def _segments(orbit: IntegerOrbit, last: int, m: int = _SEGMENT):
    """Walk `orbit` forward by segments until it has passed its point at
    step count `last`: a first of m points, then each twice as long up to
    `_SEGMENT`, none past that point.  Yields (steps, p, q, segment) per
    segment, with the step count and pair before it."""
    while orbit.steps <= last:
        s0, p, q = orbit.steps, orbit.p, orbit.q
        yield s0, p, q, orbit.segment(min(m, last + 1 - s0))
        m = min(2 * m, _SEGMENT)


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

    The first collision is always a point on a discontinuity: T is one to
    one, so T^k x_j = T^k' x_j' with k > k' gives T^(k - k') x_j = x_j', a
    point of the walk no later than T^k x_j, and k' > k gives T^(k' - k)
    x_j' = x_j, walked with orbit j' < j.  So the points are tested against
    the discontinuities alone, in the order x_1 .. T^depth x_1, x_2 ..,
    and the first hit is reported.  One IntegerOrbit walks each orbit by
    `_segments` of `_SEGMENT` points, each tested by array comparisons of
    its exact offsets before the next is walked.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    discs = iet.discontinuities()
    # discontinuities are cut points, so every orbit has the denominator of
    # the IET itself and points compare as integer pairs
    orbit = IntegerOrbit(iet, discs[0])
    pairs = [orbit.pair_of(x0) for x0 in discs]
    for j, x0 in enumerate(pairs):
        orbit.move_to(x0)
        for k, p, q, (_, _, _, dp, dq) in _segments(orbit, depth):
            hit = np.zeros(dp.size, bool)
            for cp, cq in pairs:
                # an offset past int64 is no entry of an int64 array
                if dp.dtype == object or max(abs(cp - p), abs(cq - q)) < \
                        2 ** 63:
                    hit |= (dp == cp - p) & (dq == cq - q)
            hit[0] &= k > 0
            if hit.any():
                n = int(hit.argmax())
                return KeaneReport(False, depth, ((j, k + n), (
                    "disc", orbit.value((p + dp.item(n),
                                         q + dq.item(n))).to_string())))
    return KeaneReport(True, depth)


class ReturnBudgetError(RuntimeError):
    """No return to [0, cut) within `max_steps` steps of `start`."""

    def __init__(self, start: ExactScalar, cut: ExactScalar, max_steps: int):
        super().__init__("no return within %d steps" % max_steps)
        self.start, self.cut, self.max_steps = start, cut, max_steps


def first_return_map(iet: Iet, cut: ExactScalar, max_steps: int = 10 ** 7):
    """First-return data of `iet` to [0, cut), by direct orbit iteration.

    Returns a function x -> (return point, return time): the first m >= 1
    with T^m x < cut.  A return at m <= max(max_steps, 1) is returned;
    past that the function raises ReturnBudgetError.

    This is the convention-free oracle against which the Rauzy-Veech step
    is validated.  The orbit is walked by `_segments`, the first
    `_FIRST_SEGMENT` points long, as most returns are.  A point's float
    shadow (on Q as on Q(sqrt d)) decides its side of the cut where it is
    more than its error bound plus two units away from the cut's float;
    elsewhere `exact._sign` decides.  The segments read the IET's
    itinerary table where it has one, whose towers `rauzy.towers` lays
    along the Rauzy-Veech words but checks floor by floor against the
    intervals of T, so the oracle still rests on T alone.
    """
    if not (ExactScalar(0) < cut and cut <= iet.total):
        raise IetDomainError("cut must lie in (0, total]")
    last = max(max_steps, 1)

    def hit(x):
        x = as_scalar(x)
        if not x < cut:
            raise IetDomainError("start point outside the inducing interval")
        orbit = IntegerOrbit(iet, x, extra=[cut])
        cp, cq = bound = orbit.pair_of(cut)
        unit = orbit.unit
        # the cut's float; with no shadow (unit infinite) every point is
        # left to the exact test
        fcut = orbit.to_float(bound) if unit < math.inf else 0.0
        for s0, p, q, (_, X, E, dp, dq) in _segments(orbit, last, _FIRST_SEGMENT):
            tol = E + 2 * unit
            # the points not provably at or above the cut, in orbit order
            for n in np.flatnonzero(X - fcut <= tol).tolist():
                if s0 + n == 0:
                    continue
                pair = (p + dp.item(n), q + dq.item(n))
                if fcut - X[n] > tol[n] or \
                        _sign(pair[0] - cp, pair[1] - cq, orbit.field) < 0:
                    return orbit.value(pair), s0 + n
        raise ReturnBudgetError(x, cut, max_steps)

    return hit
