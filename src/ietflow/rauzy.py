"""Rauzy-Veech induction: steps, cocycle matrices, heights, Rohlin towers.

One unnormalized induction step compares the last top and last bottom
intervals; the longer one (the winner) absorbs the length of the shorter
(the loser) and the induced map is the first return to the shortened
interval.  Each step emits the SL(d,Z) matrix B with lambda = B lambda',
so products of step matrices transport lengths and (transposed) heights.
A step (`rv_step`) walks the rows and the length vector alone, as integer
pairs over the base IET's common denominator; a trace builds the induced
`Iet` of a step only when asked.  The executable ground truth is
`first_return_map` in `iet.py`: tests check every step against directly
iterated return times.  `towers` lays each Rohlin tower's floors along its
word, read off the steps, into one flat store, the `TowerSystem`; it checks
each floor against the intervals of T itself and sorts the floors once by
an exact key.  The IET's itinerary table is that `TowerSystem` at one
step: one index source for every orbit segment on every IET, with no
fallback.  The oracle reads its orbits off it, so it does not rest on
`rv_step`.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import Optional

import numpy as np

from .exact import ExactScalar, _reduce, _sign, exact_max, exact_min
from .iet import _SEGMENT, Iet, IetDomainError, IntegerOrbit, Permutation


class RVUndefinedError(ValueError):
    """Last top and bottom intervals have equal length (Keane failure).
    `depth` is the step at which `InductionTrace.extend` met it."""

    depth = None


class MatrixDomainError(ValueError):
    """Matrix does not satisfy the preconditions of the operation."""


# ---------------------------------------------------------------------------
# small exact integer matrices as tuples of tuples, indexed by the alphabet
# ---------------------------------------------------------------------------

def mat_identity(d: int):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(tuple(sum(a[i][k] * bt[j][k] for k in range(n))
                       for j in range(n)) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v)))
                 for i in range(len(a)))


def mat_transpose(a):
    return tuple(zip(*a))


def mat_det(a):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def col_norm(a) -> int:
    """Matrix norm used throughout: max column entry-sum.

    Chosen so that the norm of B^(n) equals the largest tower height
    q = max_a h_a and matches the vector norm |lambda| = sum lambda_a.
    """
    return max(sum(col) for col in zip(*a))


def is_positive(a) -> bool:
    return all(e > 0 for row in a for e in row)


# ---------------------------------------------------------------------------
# single induction step
# ---------------------------------------------------------------------------

def rv_step(alphabet, rows, lengths, den: int, field):
    """One unnormalized Rauzy-Veech step on integer data.

    `rows` is the pair (top, bottom) of label tuples and `lengths` the
    lengths in `alphabet` order, integer pairs (P, Q) standing for
    (P + Q sqrt(field))/den.  Returns (rows, lengths, step type, (w, l))
    after the step.  Type 'top' means the last top interval won (was
    longer); 'bottom' the opposite.  w and l are the alphabet indices of
    the winner and the loser, so the step matrix is B = I + E[w][l].
    Equal lengths raise RVUndefinedError.
    """
    top, bottom = rows
    ti = alphabet.index(top[-1])
    bi = alphabet.index(bottom[-1])
    (pt, qt), (pb, qb) = lengths[ti], lengths[bi]
    sign = _sign(pt - pb, qt - qb, field)
    if not sign:
        raise RVUndefinedError(
            "last top and bottom intervals both have length %s"
            % _reduce(pt, qt, den, field).to_string())
    # the loser leaves the end of its row and re-enters after the winner
    if sign > 0:
        step_type, wi, li, row = "top", ti, bi, bottom
    else:
        step_type, wi, li, row = "bottom", bi, ti, top
    k = row.index(alphabet[wi]) + 1
    row = row[:k] + row[-1:] + row[k:-1]
    rows = (top, row) if sign > 0 else (row, bottom)
    (pw, qw), (pl, ql) = lengths[wi], lengths[li]
    lengths = lengths[:wi] + ((pw - pl, qw - ql),) + lengths[wi + 1:]
    return rows, lengths, step_type, (wi, li)


def _iet_of(alphabet, rows, lengths, den: int, field) -> Iet:
    """The `Iet` of `rv_step`'s integer data."""
    return Iet(Permutation(*rows, alphabet=alphabet),
               [_reduce(p, q, den, field) for p, q in lengths])


@functools.lru_cache(maxsize=None)
def _step_matrix(d: int, wi: int, li: int):
    """I + E[wi][li], shared by every step of that shape."""
    return tuple(tuple(1 if (i == j or (i == wi and j == li)) else 0
                       for j in range(d)) for i in range(d))


# ---------------------------------------------------------------------------
# induction traces
# ---------------------------------------------------------------------------

def _require_step(n: int) -> int:
    """n, an induction step: ValueError when it is negative, which would
    index the trace's lists from their ends."""
    if n < 0:
        raise ValueError("negative induction step %d" % n)
    return n


class InductionTrace:
    """Orbit of an IET under unnormalized Rauzy-Veech induction.

    Step k maps iet(k) to iet(k+1) with matrix B_k; products
    B^(m,n) = B_m ... B_{n-1} are cached.  Heights follow the dual cocycle:
    h^(n) = (B^(n))^T (1,...,1), which is also the vector of column sums of
    B^(0,n) and the vector of measured first-return times.

    Per step the trace keeps the rows (label tuples) and the lengths
    (`lengths(n)`), integer pairs (P, Q) in alphabet order standing for
    (P + Q sqrt(field))/den over the base IET's `Iet.integer_lengths`.
    `iet(n)` builds the induced `Iet` on first request and returns that
    same object afterwards, as readers cache tables on it.

    Construction (extend) is sequential; once extended, a trace may be
    shared by concurrent readers — the product, return-time and `Iet`
    caches only ever fill in values that every reader would compute
    identically (an `Iet` by `setdefault`, so all get the first built).
    """

    def __init__(self, base: Iet):
        self.base = base
        self.den, self.field, lengths = base.integer_lengths()
        self._rows = [(base.perm.top, base.perm.bottom)]
        self._lengths = [lengths]
        self._iets = {0: base}
        self._moves = []
        self._types = []
        self._heights = [(1,) * base.perm.d]
        self._prefix = {0: mat_identity(base.perm.d)}
        self._windows = {}
        self._returns = {}

    @property
    def depth(self) -> int:
        return len(self._moves)

    def extend(self, n: int) -> "InductionTrace":
        """Extend the trace to n >= 0 steps (else ValueError);
        RVUndefinedError carries its depth."""
        if n <= len(self._moves):
            _require_step(n)
            return self
        alphabet = self.base.perm.alphabet
        for k in range(len(self._moves), n):
            try:
                rows, lengths, step_type, (w, l) = rv_step(
                    alphabet, self._rows[k], self._lengths[k], self.den,
                    self.field)
            except RVUndefinedError as exc:
                exc.depth = k
                raise
            self._rows.append(rows)
            self._lengths.append(lengths)
            self._moves.append((w, l))
            self._types.append(step_type)
            # B = I + E[w][l]: B^(k) B adds column w of B^(k) to column l,
            # and B^T h adds h_w to h_l
            h = list(self._heights[k])
            h[l] += h[w]
            self._heights.append(tuple(h))
            self._prefix[k + 1] = tuple(
                row[:l] + (row[l] + row[w],) + row[l + 1:]
                for row in self._prefix[k])
        return self

    def lengths(self, n: int) -> tuple:
        """The lengths of iet(n), integer pairs over `den`."""
        self.extend(n)
        return self._lengths[n]

    def intervals(self, n: int) -> list:
        """Per label, alphabet order, the left end and the length of
        I^(n)_label as integer pairs over `den`."""
        lengths, index = self.lengths(n), self.base.perm.alphabet.index
        out, p, q = [None] * len(lengths), 0, 0
        for i in map(index, self._rows[n][0]):
            out[i] = (p, q), lengths[i]
            p, q = p + lengths[i][0], q + lengths[i][1]
        return out

    def iet(self, n: int) -> Iet:
        self.extend(n)
        iet = self._iets.get(n)
        if iet is None:
            iet = self._iets.setdefault(n, _iet_of(
                self.base.perm.alphabet, self._rows[n], self._lengths[n],
                self.den, self.field))
        return iet

    def step_matrix(self, k: int):
        self.extend(_require_step(k) + 1)
        return _step_matrix(self.base.perm.d, *self._moves[k])

    def step_type(self, k: int) -> str:
        self.extend(_require_step(k) + 1)
        return self._types[k]

    def type_word(self, n: Optional[int] = None) -> str:
        if n is not None:
            self.extend(n)
        return "".join("t" if t == "top" else "b" for t in self._types)

    def product(self, m: int, n: int):
        """B^(m,n) = B_m B_{m+1} ... B_{n-1}; B^(n,n) = identity."""
        if m > n:
            raise ValueError("need m <= n")
        self.extend(n)
        _require_step(m)
        if m == 0:
            return self._prefix[n]
        windows = self._windows.setdefault(m, {m: self._prefix[0]})
        cached = windows.get(n)
        if cached is None:
            # extend the longest cached window B^(m,k), k < n: B_j = I +
            # E[w][l] adds column w to column l, O(d) per step.  list()
            # copies the keys at once, as other readers may add windows.
            k = max(j for j in list(windows) if j < n)
            rows = [list(row) for row in windows[k]]
            for w, l in self._moves[k:n]:
                for row in rows:
                    row[l] += row[w]
            cached = windows[n] = tuple(map(tuple, rows))
        return cached

    def heights(self, n: int):
        self.extend(n)
        return self._heights[n]

    def q(self, n: int) -> int:
        return max(self.heights(n))

    def interval_length(self, n: int) -> ExactScalar:
        lengths = self.lengths(n)
        return _reduce(sum(p for p, _ in lengths), sum(q for _, q in lengths),
                       self.den, self.field)

    def words(self, n: int) -> list:
        """Per tower at step n, alphabet order, the top-order indices of the
        intervals of T its floors lie in, floor 0 first: a step with winner
        w and loser l puts w's word after l's (top) or before it (bottom)."""
        self.extend(n)
        perm = self.base.perm
        words = [(perm.top.index(a),) for a in perm.alphabet]
        for (w, l), step_type in zip(self._moves[:n], self._types):
            words[l] = (words[l] + words[w] if step_type == "top"
                        else words[w] + words[l])
        return words

    def check_cocycle(self, n: int) -> bool:
        """lambda^(0) = B^(0,n) lambda^(n), exactly: integer dot products
        of the rows of B^(0,n) with the length vectors over `den`."""
        ps, qs = zip(*self.lengths(n))
        return all(sum(map(mul, row, ps)) == p0 and
                   sum(map(mul, row, qs)) == q0
                   for row, (p0, q0) in zip(self.product(0, n),
                                            self._lengths[0]))


def induct(trace: InductionTrace, n: int) -> InductionTrace:
    return trace.extend(n)


# ---------------------------------------------------------------------------
# Rohlin towers
# ---------------------------------------------------------------------------

class Tower:
    """Read view of one tower of a `TowerSystem`, over I^(n)_label: floor
    i is T^i(base), 0 <= i < height.

    The floors are integer pairs over the common denominator `den` of the
    base IET, a pair (P, Q) standing for (P + Q sqrt(field))/den: the left
    end of every floor (`lefts`, floor 0 first) and the width they share.
    `word` holds the top-order index of the interval of T each floor lies
    in.  Reading `floors`, `base_left` or `base_right` builds
    ExactScalars.
    """

    __slots__ = ("label", "lefts", "width", "den", "field", "word")

    def __init__(self, label: str, lefts, width: tuple, den: int, field,
                 word: tuple):
        self.label = label
        self.lefts = tuple(lefts)
        self.width = width
        self.den = den
        self.field = field
        self.word = word

    @property
    def height(self) -> int:
        return len(self.lefts)

    def _scalar(self, p: int, q: int) -> ExactScalar:
        return _reduce(p, q, self.den, self.field)

    @property
    def base_left(self) -> ExactScalar:
        return self._scalar(*self.lefts[0])

    @property
    def base_right(self) -> ExactScalar:
        (p, q), (wp, wq) = self.lefts[0], self.width
        return self._scalar(p + wp, q + wq)

    @property
    def floors(self) -> tuple:
        """(left, right) of each floor, floor 0 first."""
        wp, wq = self.width
        return tuple((self._scalar(p, q), self._scalar(p + wp, q + wq))
                     for p, q in self.lefts)


class TowerSystem:
    """The Rohlin towers over the step-n induced IET, their floors laid
    flat: the one store of a step's towers, which the partition check,
    `locate` and the orbit segments (`IntegerOrbit._itinerary`) read.

    Floor i of the tower over I^(n)_a is T^i I^(n)_a, 0 <= i < h_a; the
    floors of all towers partition [0, total) exactly.  Floors are
    numbered tower by tower in alphabet order, floor 0 first: tower a
    holds floors starts[a] .. ends[a] - 1.  Values are integer pairs
    (P, Q) over `den`, the base IET's common denominator, standing for
    (P + Q sqrt(field))/den.  Per floor g: its left end (lp[g], lq[g]),
    `word[g]`, the top-order index of the interval of T holding it, and
    `bword[g]`, the bottom-order index of the interval holding T(floor g)
    (None until `build_itinerary_table` sets it).  Per tower a: `labels`,
    `heights`, the width its floors share (`widths`) and `exits[a]`, the
    left end of T^h_a of its base (h_a = its height), in I^(n).  A point
    x of floor g = starts[a] + f stays on floors g + 1, .. of its tower
    for h_a - f - 1 steps and then lands on exits[a] + (x - left end of
    g).  `towers` reads the towers as `Tower` views.

    The floor order is computed once, at construction: `order` holds the
    floors in increasing order of their keys and `keys` those keys.  The
    key of the left end (p, q) is p 2^shift + q r, r = floor(sqrt(d)
    2^shift) (p on Q, where shift = 0), less than |q| below the value
    times 2^shift: with 2^shift > 2 max|q| over the least width, tiling
    floors' keys follow their order, which is then the exact order of the
    left ends.
    """

    __slots__ = ("den", "field", "total", "step", "labels", "heights",
                 "starts", "ends", "widths", "exits", "lp", "lq", "word",
                 "bword", "shift", "keys", "order")

    def __init__(self, den: int, field, total: ExactScalar, step: int,
                 labels, heights, widths, exits, lp, lq, word):
        self.den, self.field, self.total, self.step = den, field, total, step
        self.labels, self.heights, self.widths, self.exits = \
            labels, heights, widths, exits
        self.ends = tuple(accumulate(heights))
        self.starts = (0,) + self.ends[:-1]
        self.lp, self.lq, self.word, self.bword = lp, lq, word, None
        m, keys = 0, lp
        if field is not None:
            # w = |wp^2 - d wq^2| / |wp - wq sqrt(d)| >= 1 / (big (r + 2))
            big = max(map(abs, chain(lp, lq, *widths)))
            m = (2 * big * big * (math.isqrt(field) + 2)).bit_length()
            root = math.isqrt(field << 2 * m)
            keys = [(p << m) + q * root for p, q in zip(lp, lq)]
        self.order = sorted(range(len(keys)), key=keys.__getitem__)
        self.shift, self.keys = m, [keys[g] for g in self.order]

    @property
    def towers(self) -> list:
        """A `Tower` view of each tower, alphabet order, built per read."""
        lp, lq, word = self.lp, self.lq, self.word
        return [Tower(a, zip(lp[s:e], lq[s:e]), w, self.den, self.field,
                      tuple(word[s:e].tolist()))
                for a, s, e, w in zip(self.labels, self.starts, self.ends,
                                      self.widths)]

    def check_partition(self) -> bool:
        """Exact check along `order`: every width is positive and, in that
        order, the first floor starts at 0, each right end is the next
        left end (so none repeats) and the last is `total`; a chain that
        passes tiles the interval in any order."""
        den, field, total = self.den, self.field, self.total
        if den % total.den or (total.d is not None and total.d != field):
            return False
        if any(_sign(wp, wq, field) <= 0 for wp, wq in self.widths):
            return False
        widths = [w for w, h in zip(self.widths, self.heights)
                  for _ in range(h)]
        lp, lq, x, y = self.lp, self.lq, 0, 0
        for g in self.order:
            if lp[g] != x or lq[g] != y:
                return False
            wp, wq = widths[g]
            x, y = x + wp, y + wq
        k = den // total.den
        return x == total.p * k and y == total.q * k

    def floor_count(self) -> int:
        return len(self.lp)

    def locate(self, p: int, q: int, scale: int, field) -> tuple:
        """(a, g): the tower and floor holding the point (p + q
        sqrt(field))/(den scale).  The floor of the point's value times
        2^shift (over den), exact by `math.isqrt`, bisects the keys to the
        point's floor or one next to it, stepped to the exact one by
        `_sign` at its two ends.  `field` is the point's, which on a
        rational IET may be a quadratic one."""
        m, order, lp, lq = self.shift, self.order, self.lp, self.lq
        key = p << m
        if q:
            # floor(q sqrt(field) 2^m)
            square = q * q * field << 2 * m
            r = math.isqrt(square)
            key += r if q > 0 else -r - (r * r != square)
        s = bisect_right(self.keys, key // scale) - 1
        while True:
            g = order[s]
            dp, dq = p - scale * lp[g], q - scale * lq[g]
            if _sign(dp, dq, field) < 0:
                s -= 1
                continue
            a = bisect_right(self.starts, g) - 1
            wp, wq = self.widths[a]
            if _sign(dp - scale * wp, dq - scale * wq, field) >= 0:
                s += 1
                continue
            return a, g


def towers(trace: InductionTrace, n: int) -> TowerSystem:
    """Exact tower system at step n, with no orbit walked: floor 0 is
    I^(n)_a and each next floor the last moved by the translation its word
    (`InductionTrace.words`) names, appended to the flat floor lists as it
    is laid; a tower's exit is where that walk stands after its top
    floor.  Every floor, the top one included, must lie inside the
    interval of T its word names (else IetDomainError) and the floors
    must partition the interval (else AssertionError).  Floors are
    integer pairs over the base IET's common denominator."""
    words = trace.words(n)
    base_iet = trace.base
    den, field, rights, lefts, trans = base_iet.integer_tables()[:5]
    ps, qs, widths, exits = [], [], [], []
    for word, ((p, q), (wp, wq)) in zip(words, trace.intervals(n)):
        for j in word:
            (lp, lq), (rp, rq), (tp, tq) = lefts[j], rights[j], trans[j]
            # a pair with no negative entry is no negative value
            dp, dq, ep, eq = p - lp, q - lq, rp - wp - p, rq - wq - q
            if (dp < 0 or dq < 0) and _sign(dp, dq, field) < 0 or \
                    (ep < 0 or eq < 0) and _sign(ep, eq, field) < 0:
                raise IetDomainError("tower floor crosses a discontinuity")
            ps.append(p)
            qs.append(q)
            p, q = p + tp, q + tq
        widths.append((wp, wq))
        exits.append((p, q))
    perm = base_iet.perm
    word = np.fromiter(chain.from_iterable(words),
                       np.int8 if perm.d < 128 else np.int64, len(ps))
    system = TowerSystem(den, field, base_iet.total, n, perm.alphabet,
                         trace.heights(n), widths, exits, ps, qs, word)
    if not system.check_partition():
        raise AssertionError("tower floors do not partition the interval")
    return system


#: Induction steps and floors past which an itinerary table goes no deeper.
_TABLE_STEPS = 1024
_TABLE_FLOORS = 1 << 16


def build_itinerary_table(iet: Iet) -> TowerSystem:
    """The itinerary table of `iet`, the orbit itineraries that
    `IntegerOrbit.segment` reads, its one source of interval indices: the
    `TowerSystem` of `towers`, on Q as on Q(sqrt d), with or without float
    tables, at the first induction step where each tower is at least
    `_SEGMENT` floors tall, else at the deepest step before the induction
    is undefined or passes `_TABLE_STEPS` steps or `_TABLE_FLOORS` floors.
    Step 0, one floor per interval of T, always qualifies, so every IET
    has a table.

    `towers` checks every floor against the intervals of T and their
    partition: a wrong base or width refuses the table with its error.
    The table is that system with `bword` set.  No orbit is walked.
    `Iet.itinerary_table` calls this once per IET."""
    trace = InductionTrace(iet)
    n = 0
    try:
        while n < _TABLE_STEPS and min(trace.heights(n)) < _SEGMENT and \
                sum(trace.heights(n + 1)) <= _TABLE_FLOORS:
            n += 1
    except RVUndefinedError:
        pass
    system = towers(trace, n)
    perm = iet.perm
    system.bword = np.array([perm.bottom.index(a) for a in perm.top],
                            system.word.dtype)[system.word]
    return system


def return_time_oracle(trace: InductionTrace, n: int, label: str) -> int:
    """First-return time of the midpoint of I^(n)_label, by direct iteration.

    Contract: equals h^(n)_label = column sum of B^(0,n) for the label.
    The walk runs on integerized exact coordinates: one IntegerOrbit of
    the base IET holds every label's midpoint and is moved to each in
    turn; the times of all labels are kept on the trace, once per n.
    """
    times = trace._returns.get(n)
    if times is None:
        den, field = 2 * trace.den, trace.field
        mids = [_reduce(2 * p + wp, 2 * q + wq, den, field)
                for (p, q), (wp, wq) in trace.intervals(n)]
        orbit = IntegerOrbit(trace.base, mids[0], extra=mids[1:])
        cut = orbit.pair_of(trace.interval_length(n))
        times = []
        for x in mids:
            orbit.move_to(orbit.pair_of(x))
            orbit.step_forward()
            while not orbit.less_than(cut):
                orbit.step_forward()
            times.append(orbit.steps)
        times = trace._returns[n] = tuple(times)
    return times[trace.base.perm.alphabet.index(label)]


# ---------------------------------------------------------------------------
# balance / positivity / acceleration
# ---------------------------------------------------------------------------

def _as_ratio(nu) -> Fraction:
    if isinstance(nu, Fraction):
        return nu
    if isinstance(nu, int):
        return Fraction(nu)
    if isinstance(nu, str):
        return Fraction(nu)
    if isinstance(nu, float):
        return Fraction(nu).limit_denominator(10 ** 6)
    raise TypeError("balance ratio must be exact (int/Fraction/str)")


def balance_check(trace: InductionTrace, n: int, nu) -> bool:
    """nu-balance at step n: all length ratios and height ratios in [1/nu, nu].

    Exact comparisons on integers; with nu = a/b, equivalent to
    b max <= a min on both vectors, the lengths compared pairwise.
    """
    nu = _as_ratio(nu)
    a, b = nu.numerator, nu.denominator
    lens, field = trace.lengths(n), trace.field
    if any(_sign(b * p - a * pm, b * q - a * qm, field) > 0
           for p, q in lens for pm, qm in lens):
        return False
    hs = trace.heights(n)
    return b * max(hs) <= a * min(hs)


def positivity_check(trace: InductionTrace, m: int, n: int) -> bool:
    """All entries of B^(m,n) strictly positive."""
    return is_positive(trace.product(m, n))


class AccelTimes:
    """A selected subsequence {n_l} of balanced induction times.

    Indexing is 1-based: l ranges over 1..count with n_1 the first
    selected time.  A(l) = B^(n_l, n_{l+1}) is defined for 1 <= l < count;
    q(l) = max_a h^(n_l)_a.
    """

    def __init__(self, trace: InductionTrace, times: list[int], nu: Fraction,
                 lbar: Optional[int], diagnostic: str = ""):
        self.trace = trace
        self.times = times
        self.nu = nu
        self.lbar = lbar
        self.diagnostic = diagnostic
        # birkhoff.sigma_set's sets, keyed by (ell, tau_prime, dilate)
        self._sigma_sets: dict = {}

    @property
    def count(self) -> int:
        return len(self.times)

    def time(self, ell: int) -> int:
        if not 1 <= ell <= self.count:
            raise IndexError("accel index %d outside 1..%d" %
                             (ell, self.count))
        return self.times[ell - 1]

    def q(self, ell: int) -> int:
        return self.trace.q(self.time(ell))

    def heights(self, ell: int):
        return self.trace.heights(self.time(ell))

    def iet(self, ell: int) -> Iet:
        return self.trace.iet(self.time(ell))

    def interval_length(self, ell: int) -> ExactScalar:
        return self.trace.interval_length(self.time(ell))

    def A(self, ell: int):
        """Accelerated cocycle matrix A_l = B^(n_l, n_{l+1})."""
        return self.trace.product(self.time(ell), self.time(ell + 1))

    def A_norm(self, ell: int) -> int:
        return col_norm(self.A(ell))

    def window(self, ell: int, span: int):
        """B^(n_l, n_{l+span})."""
        return self.trace.product(self.time(ell), self.time(ell + span))

    def __repr__(self):
        return ("AccelTimes(count=%d, nu=%s, lbar=%s)"
                % (self.count, self.nu, self.lbar))


def select_accel_times(trace: InductionTrace, nu, lbar_max: int,
                       depth: Optional[int] = None) -> AccelTimes:
    """All nu-balanced times n >= 1 up to `depth`, plus the smallest window
    width lbar <= lbar_max making every lbar-window of the selected
    subsequence positive.

    Cylinder-return constructions yield such sequences non-constructively;
    selecting every balanced time and verifying positivity empirically
    yields exactly the two properties (balance, windowed positivity) the
    downstream estimates consume.
    """
    nu = _as_ratio(nu)
    if depth is None:
        depth = trace.depth
    trace.extend(depth)
    times = [n for n in range(1, depth + 1) if balance_check(trace, n, nu)]
    if not times:
        return AccelTimes(trace, [], nu, None,
                          "no %s-balanced time within depth %d" % (nu, depth))
    lbar = None
    for cand in range(1, lbar_max + 1):
        ok = all(
            is_positive(trace.product(times[i], times[i + cand]))
            for i in range(len(times) - cand)
        )
        if ok and len(times) > cand:
            lbar = cand
            break
    diag = "" if lbar is not None else (
        "no window width <= %d achieves positivity" % lbar_max)
    return AccelTimes(trace, times, nu, lbar, diag)


def zorich_times(trace: InductionTrace) -> list:
    """Ends of maximal same-type runs of the trace's induction steps.

    Grouping consecutive steps of one type is the classical acceleration
    with finite invariant mass; it is a special case of time selection and
    feeds the same AccelTimes machinery.
    """
    depth = trace.depth
    out = []
    for k in range(depth):
        if k + 1 == depth or trace.step_type(k + 1) != trace.step_type(k):
            out.append(k + 1)
    return out


# ---------------------------------------------------------------------------
# Hilbert projective metric and distortion
# ---------------------------------------------------------------------------

def hilbert_distance(u, v) -> float:
    """d_H(u, v) = log( max_i(u_i/v_i) / min_i(u_i/v_i) ), coordinates > 0.

    Accepts exact scalars, Fractions, ints or floats; the max/min ratio is
    formed exactly when the inputs are exact.
    """
    if len(u) != len(v):
        raise ValueError("vectors of different lengths")

    def as_exact(x):
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar(x)
        return None

    eu = [as_exact(x) for x in u]
    ev = [as_exact(x) for x in v]
    if all(x is not None for x in eu) and all(x is not None for x in ev):
        for x in eu + ev:
            if not x.sign() > 0:
                raise MatrixDomainError("coordinates must be positive")
        ratios = [a / b for a, b in zip(eu, ev)]
        hi = exact_max(ratios)
        lo = exact_min(ratios)
        return math.log(float(hi / lo))
    fu = [float(x) for x in u]
    fv = [float(x) for x in v]
    if min(fu) <= 0 or min(fv) <= 0:
        raise MatrixDomainError("coordinates must be positive")
    ratios = [a / b for a, b in zip(fu, fv)]
    return math.log(max(ratios) / min(ratios))


def projective_diameter(a) -> float:
    """diam_H of the image simplex of a non-negative matrix.

    Finite exactly when the matrix is strictly positive; the supremum over
    the simplex is attained on vertex images, i.e. over column pairs.
    """
    d = len(a)
    cols = list(zip(*a))
    for col in cols:
        if all(e == 0 for e in col):
            raise MatrixDomainError("matrix has a zero column")
    if not is_positive(a):
        return math.inf
    best = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            ratios = [Fraction(cols[i][k], cols[j][k]) for k in range(d)]
            val = math.log(float(max(ratios) / min(ratios)))
            if val > best:
                best = val
    return best


def nu_col(c) -> Fraction:
    """Row-wise entry-ratio bound nu_col(C) = max_{i,j,k} C_ij / C_ik."""
    if not is_positive(c):
        raise MatrixDomainError("nu_col requires a strictly positive matrix")
    best = Fraction(0)
    for row in c:
        hi = max(row)
        lo = min(row)
        val = Fraction(hi, lo)
        if val > best:
            best = val
    return best


def jacobian(dmat, lam) -> float:
    """Jacobian |D lambda|^(-d) of the projectivized action on the simplex."""
    d = len(dmat)
    cols = list(zip(*dmat))
    for col in cols:
        if all(e == 0 for e in col):
            raise MatrixDomainError("matrix has a zero column")
        if any(e < 0 for e in col):
            raise MatrixDomainError("matrix must be non-negative")
    vals = [float(x) for x in lam]
    if min(vals) <= 0:
        raise MatrixDomainError("simplex point must be strictly positive")
    image = [sum(dmat[i][j] * vals[j] for j in range(d)) for i in range(d)]
    return sum(image) ** (-d)
