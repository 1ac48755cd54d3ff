"""Differential tests of the segment walk.

`IntegerOrbit.segment` against `step_forward`/`step_backward`, bit for bit;
`BirkhoffCursor` and the exact flow against the former per-step cursor and
flow, kept here verbatim as references (`LoopCursor`, `loop_advance`), the
way `scalar_pair_walk` is kept in test_ratner.py.
"""

import math
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ietflow import iet as iet_module
from ietflow import rauzy
from ietflow.exact import ExactScalar, _sign, quadratic_float
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    constant_roof,
    golden_rotation,
)
from ietflow.iet import (_SEGMENT, Iet, IetDomainError, IntegerOrbit,
                         Permutation)
from ietflow.ratner import _pair_walk
from ietflow.rauzy import InductionTrace, towers
from ietflow.roof import (
    _EPS,
    BirkhoffCursor,
    FlowStepBudgetError,
    RoofDomainError,
    RoofSpec,
    SingularityTooClose,
    _advance,
)

F = Fraction


def _terms(c0: float, cp: float, cm: float, dl: float, dr: float):
    """The former per-point `roof._terms`, kept as the reference of the
    per-step walks: (f, err, f', err') at a point of I_a from its
    correctly rounded float gaps dl = x - l_a and dr = r_a - x, with
    cp = Cplus_a, cm = Cminus_a; a gap is read only when its constant is
    nonzero."""
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


class LoopCursor:
    """The former `BirkhoffCursor`, kept as the reference of the segment
    cursor: one IntegerOrbit step, one locate and one `_terms` per point."""

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


def loop_advance(iet: Iet, spec: RoofSpec, x, y: float, t: float,
                 max_steps: int = 10 ** 7):
    """The former `roof._advance`, kept as the reference of the segment
    flow: one `advance_to(steps + 1)` per jump.  Move (x, y) by t time
    units, i.e. (x, 0) by s = y + t: returns (T^r x, s - S_r, r) with
    0 <= remainder < f(T^r x), after at most max_steps jumps
    (FlowStepBudgetError beyond)."""
    s = y + t
    cur = LoopCursor(iet, spec, x, forward=s >= 0)
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


# ---------------------------------------------------------------------------
# IntegerOrbit.segment against the one-step methods
# ---------------------------------------------------------------------------

def rational_4iet():
    perm = Permutation(["A", "B", "C", "D"], ["D", "C", "B", "A"])
    return Iet(perm, [F(3, 17), F(5, 19), F(2, 7), F(7, 23)])


def rational_3iet():
    """A 3-IET over Q whose induction stops before its towers are a
    segment tall: it has no itinerary table."""
    return Iet(Permutation("ABC", "CAB"), [F(5, 13), F(7, 11), F(1, 3)])


def bits(v):
    """A shadow or bound as compared bit for bit."""
    return v.hex() if isinstance(v, float) else v


def stepped(orbit, k, forward):
    """k one-step moves: (top index, P, Q, xf, xerr) of each point visited,
    x .. T^(k-1) x before each step, or T^-1 x .. T^-k x after each."""
    out = []
    for _ in range(k):
        if forward:
            i = orbit.interval_index()
            out.append((i, orbit.p, orbit.q, bits(orbit.xf),
                        bits(orbit.xerr)))
            orbit.step_forward(i)
        else:
            i = orbit.step_backward()
            out.append((i, orbit.p, orbit.q, bits(orbit.xf),
                        bits(orbit.xerr)))
    return out


def segmented(orbit, k, forward):
    """The same k points from one `segment` call."""
    p, q = orbit.p, orbit.q
    i, xf, xerr, dp, dq = orbit.segment(k, forward)
    assert len(i) == len(xf) == len(xerr) == len(dp) == len(dq) == k
    return [(i.item(m), p + dp.item(m), q + dq.item(m), bits(xf.item(m)),
             bits(xerr.item(m))) for m in range(k)]


def state(orbit):
    return (orbit.p, orbit.q, bits(orbit.xf), bits(orbit.xerr), orbit.steps)


def assert_segments_match_steps(iet, x, ks, forward):
    ref, seg = IntegerOrbit(iet, x), IntegerOrbit(iet, x)
    for k in ks:
        assert segmented(seg, k, forward) == stepped(ref, k, forward), k
        assert state(seg) == state(ref), k


DEN50 = F(41, 100) + F(1, 10 ** 50)


def connected_4iet():
    """A 4-IET over Q(sqrt 2) with lambda_A = lambda_D: its first
    Rauzy-Veech step is undefined, so it has no itinerary table and its
    segments over Q(sqrt 2) step by the certified one-step locate."""
    a = ExactScalar(F(-1, 2), F(1, 2), 2)
    return Iet(Permutation("ABCD", "DCBA"),
               [a, ExactScalar(F(1, 5)), ExactScalar(F(9, 5), -1, 2), a])


R2 = ExactScalar(0, 1, 2)
HUGE = ExactScalar(2 ** 1100)


def huge_3iet():
    """A 3-IET over Q(sqrt 2) of total length above 2^800: it has no float
    tables, so its shadow is off (unit infinite) and every locate exact."""
    return Iet(Permutation("ABC", "CBA"),
               [(1 + R2) * HUGE, 2 * R2 * HUGE, (4 - R2) * HUGE])


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("make,x", [
    (rational_4iet, F(41, 100)), (rational_4iet, DEN50),
    (rational_4iet, (3 + R2) / 10), (rational_3iet, F(41, 100)),
    (golden_rotation, F(41, 100)), (golden_rotation, DEN50),
    (bounded_type_3iet, F(41, 100)), (connected_4iet, F(41, 100)),
    (huge_3iet, (3 + R2) * HUGE)],
    ids=["Q", "Q-den50", "Q-sqrt2-point", "Q-no-table", "sqrt5",
         "sqrt5-den50", "sqrt2", "sqrt2-no-table", "sqrt2-no-float"])
def test_segment_matches_one_steps(make, x, forward):
    # uneven segments across several shadow re-syncs (one per 2048 steps
    # from a re-sync), each resumed where the last one stopped
    iet = make()
    assert_segments_match_steps(iet, x, (1, 7, 2047, 3000, 1), forward)
    if x == DEN50:
        # translation numerators times a segment pass 2^63
        assert IntegerOrbit(iet, x).segment(3000, forward)[3].dtype == object


def test_the_fixtures_without_tables():
    assert connected_4iet().itinerary_table() is None
    iet = huge_3iet()
    assert iet.itinerary_table() is None
    assert IntegerOrbit(iet, 0).unit == math.inf


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cut=st.integers(min_value=0, max_value=5),
       side=st.sampled_from([-1, 0, 1]),
       n=st.integers(min_value=0, max_value=40),
       forward=st.booleans(),
       ks=st.lists(st.integers(min_value=1, max_value=2500), min_size=1,
                   max_size=4))
def test_segments_near_a_cut_match_one_steps(cut, side, n, forward, ks):
    # an orbit reaching a top or bottom cut of connected_4iet, or a point
    # 10^-30 from one, after n steps either way: a locate only
    # `_sign_index` decides
    iet = connected_4iet()
    top, bottom = iet.perm.top, iet.perm.bottom
    cuts = ([iet.left(a) for a in top[1:]] +
            [iet.left_image(a) for a in bottom[1:]])
    y = cuts[cut] + ExactScalar(F(side, 10 ** 30))
    x = iet.iterate(y, -n if forward else n)
    assert_segments_match_steps(iet, x, ks, forward)


def spy_on(monkeypatch, owner, name):
    """Record the positional arguments of every call of owner.name."""
    calls, inner = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def exact_locates(monkeypatch, iet, x, k, forward):
    """The points of a k-step segment from x at which `_sign_index`
    decided the locate."""
    points, inner = [], IntegerOrbit._sign_index

    def spy(orbit, cuts):
        points.append(orbit.value())
        return inner(orbit, cuts)

    monkeypatch.setattr(IntegerOrbit, "_sign_index", spy)
    IntegerOrbit(iet, x).segment(k, forward)
    monkeypatch.setattr(IntegerOrbit, "_sign_index", inner)
    return points


@pytest.mark.parametrize("make,label,n,forward", [
    (connected_4iet, "B", 2, True), (connected_4iet, "B", 7, False)])
def test_segment_repairs_a_point_on_a_cut(monkeypatch, make, label, n,
                                          forward):
    # T^2 x = l_B, or T^-7 x = l_B (located among the bottom cuts, where
    # it is r_D): the shadow's bisection there cannot decide, so the
    # segment's locate falls back to the exact `_sign_index` at that point
    iet = make()
    assert iet.itinerary_table() is None
    x = iet.iterate(iet.left(label), -n if forward else n)
    assert iet.left(label) in exact_locates(monkeypatch, iet, x, 40,
                                            forward)
    assert_segments_match_steps(iet, x, (40,), forward)


# ---------------------------------------------------------------------------
# Segments read off the itinerary table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make,source", [(rational_4iet, "_itinerary"),
                                         (rational_3iet, "_stepped")])
def test_rational_iets_take_the_one_index_rule(monkeypatch, make, source):
    # on Q as on Q(sqrt d): J read off the towers where the IET has an
    # itinerary table, else by the certified one-step locate
    iet = make()
    assert (iet.itinerary_table() is None) == (source == "_stepped")
    calls = {name: spy_on(monkeypatch, IntegerOrbit, name)
             for name in ("_itinerary", "_stepped")}
    for forward in (True, False):
        IntegerOrbit(iet, F(41, 100)).segment(100, forward)
    assert len(calls[source]) == 2 and sum(map(len, calls.values())) == 2


@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet,
                                  rational_4iet])
def test_table_matches_the_towers(make):
    iet = make()
    table = iet.itinerary_table()
    trace = InductionTrace(iet)
    n = table.step
    # the first step where every tower is a segment tall
    assert min(trace.heights(n)) >= _SEGMENT > min(trace.heights(n - 1))
    system = towers(trace, n)
    orbit = IntegerOrbit(iet, 0)
    bpos = [iet.perm.bottom.index(a) for a in iet.perm.top]
    for a, tower in enumerate(system.towers):
        g0, g1 = table.starts[a], table.ends[a]
        assert tower.label == iet.perm.alphabet[a]
        assert g1 - g0 == tower.height == table.heights[a]
        assert table.widths[a] == tower.width
        assert list(zip(table.lp[g0:g1].tolist(),
                        table.lq[g0:g1].tolist())) == list(tower.lefts)
        words = []
        for left in tower.lefts:
            orbit.move_to(left)
            words.append(orbit._sign_index(orbit.cuts))
        assert table.word[g0:g1].tolist() == words
        assert table.bword[g0:g1].tolist() == [bpos[i] for i in words]
        top, t = tower.lefts[-1], orbit.trans[words[-1]]
        assert table.exits[a] == (top[0] + t[0], top[1] + t[1])
    # the sorted shadows are the exact order of the floors
    assert (np.diff(table.fsorted) > 0).all()
    lefts = [(table.lp.item(g), table.lq.item(g)) for g in table.order]
    assert all(orbit.pair_less(u, v) for u, v in zip(lefts, lefts[1:]))


@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet])
def test_table_floors_are_checked_against_the_cuts(monkeypatch, make):
    # every floor, the top floors included, must lie inside the interval
    # of T its word names, at the floor's full width: `towers` refuses a
    # wrong word or width, and so the table
    iet = make()
    trace = InductionTrace(iet)
    n = iet.itinerary_table().step
    words, intervals = trace.words(n), InductionTrace.intervals
    d = iet.perm.d
    for a in range(d):
        for g in (0, len(words[a]) - 1):
            wrong = list(words)
            word = list(wrong[a])
            word[g] = (word[g] + 1) % d
            wrong[a] = tuple(word)
            monkeypatch.setattr(InductionTrace, "words",
                                lambda self, n, wrong=wrong: wrong)
            with pytest.raises(IetDomainError, match="discontinuity"):
                towers(trace, n)
            with pytest.raises(IetDomainError, match="discontinuity"):
                rauzy.build_itinerary_table(iet)
        monkeypatch.undo()

        def wider(self, n, a=a):
            out = intervals(self, n)
            left, (wp, wq) = out[a]
            out[a] = left, (wp + 1, wq)
            return out

        monkeypatch.setattr(InductionTrace, "intervals", wider)
        with pytest.raises(IetDomainError, match="discontinuity"):
            towers(trace, n)
        monkeypatch.undo()


@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet])
def test_table_from_a_wrong_induction_is_refused(monkeypatch, make):
    # Rauzy-Veech steps that move a small length of the integer lattice
    # of T from the first interval to the second give the towers wrong
    # bases and widths: a floor crosses a cut of T
    iet = make()
    deep = InductionTrace(iet)
    lengths = deep.iet(40).lengths
    ep, eq = deep.lengths(40)[lengths.index(min(lengths))]
    step = rauzy.rv_step

    def wrong_step(alphabet, rows, lengths, den, field):
        rows, lengths, kind, wl = step(alphabet, rows, lengths, den, field)
        (p0, q0), (p1, q1) = lengths[:2]
        lengths = ((p0 + ep, q0 + eq), (p1 - ep, q1 - eq)) + lengths[2:]
        return rows, lengths, kind, wl

    monkeypatch.setattr(rauzy, "rv_step", wrong_step)
    with pytest.raises(IetDomainError, match="discontinuity"):
        rauzy.build_itinerary_table(iet)


def thin_3iet():
    """A 3-IET over Q(sqrt 2) whose first bottom interval, (sqrt 2 - 1)/
    (2 10^6) long, is shorter than the base of its towers, so a backward
    step from a floor 0 can leave by the second bottom interval."""
    c = ExactScalar(F(-1, 2 * 10 ** 6), F(1, 2 * 10 ** 6), 2)
    a = ExactScalar(F(1, 3), F(1, 100), 2)
    return Iet(Permutation("ABC", "CBA"), [a, ExactScalar(1) - a - c, c])


def tower_starts(iet):
    """A floor's left end (floor 1000 of the second tower), a point 10^-30
    below it, a cut and DEN50."""
    table = iet.itinerary_table()
    g = table.starts[1] + 1000
    floor = ExactScalar(F(table.lp.item(g), table.den),
                        F(table.lq.item(g), table.den), table.field)
    return [floor, floor - ExactScalar(F(1, 10 ** 30)),
            iet.left(iet.perm.top[1]), DEN50]


@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet])
def test_locate_is_exact_at_floor_ends(make):
    # points on, just below and just above floor left ends, from guesses a
    # few ulps off their floors' shadows either way
    iet = make()
    table = iet.itinerary_table()
    scale = 10 ** 30
    tiny = ExactScalar(F(1, table.den * scale))
    pos = {g: s for s, g in enumerate(table.order.tolist())}
    for g in range(0, table.ends[-1], 97):
        left = ExactScalar(F(table.lp.item(g), table.den),
                           F(table.lq.item(g), table.den), table.field)
        below = table.order.item(pos[g] - 1) if pos[g] else None
        for x, want in ((left - tiny, below), (left, g), (left + tiny, g)):
            if want is None:
                continue
            p, q = x.p * (table.den * scale // x.den), \
                x.q * (table.den * scale // x.den)
            shadow = table.fsorted.item(pos[g])
            for ulps in (-2, 0, 2):
                guess = shadow + ulps * math.ulp(shadow)
                a, h = table.locate(p, q, scale, guess, table.field)
                assert h == want and table.starts[a] <= h < table.ends[a]


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet,
                                  thin_3iet])
def test_tower_segments_match_one_steps(monkeypatch, make, forward):
    iet = make()
    table = iet.itinerary_table()
    steps = spy_on(monkeypatch, IntegerOrbit, "_stepped")
    locates = spy_on(monkeypatch, type(table), "locate")
    signs = spy_on(monkeypatch, rauzy, "_sign")
    ks = (1, 2047, 2048, 2049, 1, 7000, 7000)
    for x in tower_starts(iet):
        del locates[:]
        assert_segments_match_steps(iet, x, ks, forward)
        # one locate per call and one past each tower top crossed
        assert len(locates) - len(ks) >= 3
        # each from a good guess: the shadow's floor or the next one
        assert len(signs) <= 3 * len(locates)
        del signs[:]
    assert not steps


@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet,
                                  thin_3iet])
def test_backward_segment_ending_below_a_tower_base(monkeypatch, make):
    # from floor f of a tower, f + 1 backward steps follow the reversed
    # word down to floor 0 and end with the one locate below the base
    iet = make()
    table = iet.itinerary_table()
    below = spy_on(monkeypatch, iet_module, "_first_above")
    for a in range(iet.perm.d):
        for f in (0, 5):
            g = table.starts[a] + f
            x = ExactScalar(F(table.lp.item(g), table.den),
                            F(table.lq.item(g), table.den), table.field)
            del below[:]
            IntegerOrbit(iet, x).segment(f + 1, False)
            assert len(below) == 1
            assert_segments_match_steps(iet, x, (f + 1,), False)


@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet])
def test_witness_walk_builds_and_reads_the_table(monkeypatch, make):
    iet = make()
    spec = asymmetric_log_roof(iet)
    builds = spy_on(monkeypatch, rauzy, "build_itinerary_table")
    steps = spy_on(monkeypatch, IntegerOrbit, "_stepped")
    reads = spy_on(monkeypatch, IntegerOrbit, "_itinerary")
    x = ExactScalar(F(41, 100))
    y = x + ExactScalar(F(1, 10 ** 5))
    segments = 0
    for forward in (True, False):
        straddle = _pair_walk(iet, spec, x, y, 10770, 18, forward)[1]
        table = iet.itinerary_table()
        assert table is not None and len(builds) == 1
        # the build takes no one-step; the witness walk reads every one of
        # its 2048-step segments off the table
        assert not steps
        end = 10788 if straddle is None else straddle + 1
        segments += -(-end // _SEGMENT)
        assert len(reads) == segments


# ---------------------------------------------------------------------------
# BirkhoffCursor and the flow against the per-step references
# ---------------------------------------------------------------------------

def two_sided_roof(iet):
    """Log singularities on both sides of every cut, of unequal weights."""
    top = iet.perm.top
    return RoofSpec(c0=F(1), cplus={a: F(k + 1, 4) for k, a in enumerate(top)},
                    cminus={a: F(k + 2, 3) for k, a in enumerate(top)})


def no_roof(iet):
    return None


IETS = {"Q": rational_4iet, "sqrt5": golden_rotation,
        "sqrt2": bounded_type_3iet}
ROOFS = {"log": asymmetric_log_roof, "two-sided": two_sided_roof,
         "constant": constant_roof, "none": no_roof}


def cursor_state(cur):
    """Every output of a cursor, floats bit for bit."""
    return (cur.steps, bits(cur.sum), bits(cur.err), bits(cur.dsum),
            bits(cur.derr), None if cur.last_f is None else bits(cur.last_f),
            cur.left_min, cur.left_index, cur.right_min, cur.right_index,
            cur.hit)


def error_of(exc):
    return (type(exc), str(exc), getattr(exc, "label", None),
            getattr(exc, "side", None), getattr(exc, "distance", None),
            getattr(exc, "orbit_index", None))


def walk(cur, ns):
    """The cursor's state after advance_to(n) for each n, up to the first
    error (its type, message and context, then the state it left)."""
    out = []
    for n in ns:
        try:
            cur.advance_to(n)
        except (RoofDomainError, SingularityTooClose) as exc:
            return out + [error_of(exc), cursor_state(cur)]
        out.append(cursor_state(cur))
    return out


UNEVEN = (1, 1, 50, 4000, 4003, 6200)


def start_points(iet):
    """A generic point, one whose orbit meets l_B at index 5 either way
    (T l_B = 0 on the golden rotation) and one whose orbit passes 10^-40
    left of r_A at index 4 either way."""
    near = iet.right("A") - ExactScalar(F(1, 10 ** 40))
    return [ExactScalar(F(41, 100)), iet.iterate(iet.left("B"), -5),
            iet.iterate(iet.left("B"), 5), iet.iterate(near, -4),
            iet.iterate(near, 5)]


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("roof", sorted(ROOFS))
@pytest.mark.parametrize("name", sorted(IETS))
def test_cursor_matches_the_loop_cursor(name, roof, forward):
    iet = IETS[name]()
    spec = ROOFS[roof](iet)
    for x in start_points(iet):
        assert walk(BirkhoffCursor(iet, spec, x, forward), UNEVEN) == \
            walk(LoopCursor(iet, spec, x, forward), UNEVEN), x


def flow_or_error(advance, *args, **kwargs):
    try:
        x, y, steps = advance(*args, **kwargs)
    except (RoofDomainError, SingularityTooClose) as exc:
        return error_of(exc)
    except FlowStepBudgetError as exc:
        return type(exc), exc.max_steps, exc.t, exc.steps
    return x, bits(y), steps


@pytest.mark.parametrize("name", ["sqrt5", "sqrt2", "Q"])
def test_flow_matches_the_loop_flow(name):
    iet = IETS[name]()
    for spec in (asymmetric_log_roof(iet), two_sided_roof(iet)):
        for x in start_points(iet)[:2]:
            for t in (0.5, -0.5, 200.0, -200.0, 1000.0, -1000.0):
                for y in (0.0, 0.25):
                    assert flow_or_error(_advance, iet, spec, x, y, t) == \
                        flow_or_error(loop_advance, iet, spec, x, y, t), \
                        (x, t, y)


@pytest.mark.parametrize("forward", [True, False])
def test_flow_stops_before_a_point_on_a_cut(forward):
    # the orbit meets an endpoint l_a at step m; a flow whose last jump is
    # the one before returns, as the per-step flow does, though the segment
    # walks past that point
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    x = iet.iterate(iet.left("B"), -5 if forward else 5)
    ref = LoopCursor(iet, spec, x, forward)
    values = []
    with pytest.raises(RoofDomainError) as info:
        while True:
            ref.advance_to(ref.steps + 1)
            values.append(ref.last_f)
    m = len(values)
    assert info.value.args[0].endswith(
        "(orbit index %d)" % (m if forward else -m - 1))
    t = sum(values[:-1]) + 0.5 * values[-1]
    if not forward:
        t = -t
    out = flow_or_error(_advance, iet, spec, x, 0.0, t)
    assert out == flow_or_error(loop_advance, iet, spec, x, 0.0, t)
    assert out[2] == (m - 1 if forward else -m)


@pytest.mark.parametrize("t", [200.0, -200.0])
def test_flow_budget_error_matches_the_loop_flow(t):
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    x = F(41, 100)
    for max_steps in (0, 1, 50):
        out = flow_or_error(_advance, iet, spec, x, 0.0, t,
                            max_steps=max_steps)
        assert out[0] is FlowStepBudgetError
        assert out == flow_or_error(loop_advance, iet, spec, x, 0.0, t,
                                    max_steps=max_steps)
