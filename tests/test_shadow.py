"""Differential tests of the shadow of IntegerOrbit.

Each decision of the shadow (interval index, image interval index, the
cursor's running gap minima) must equal the decision of the exact sign
tests at every step: on IETs over Q, Q(sqrt2) and Q(sqrt5), whose
shadows are floats alike, with d = 2..5, from points on a cut, a few ulps
from a cut or anywhere, forward and backward, on walks long enough to
re-sync the shadow.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietflow import iet as iet_module
from ietflow.exact import ExactScalar
from ietflow.iet import Iet, IntegerOrbit, Permutation
from ietflow.roof import BirkhoffCursor

F = Fraction

LONG_WALK = iet_module._SHADOW_RESYNC // 2 + 50


class CountingOrbit(IntegerOrbit):
    """IntegerOrbit that counts its exact fallbacks."""

    exact_calls = 0

    def _sign_index(self, cuts):
        self.exact_calls += 1
        return super()._sign_index(cuts)


def sign_index(orbit, cuts):
    """Interval index by exact sign tests alone."""
    for i in range(len(cuts) - 1):
        if orbit._sign(orbit.p - cuts[i][0], orbit.q - cuts[i][1]) < 0:
            return i
    return len(cuts) - 1


def assert_shadow_bound(orbit):
    """|xf - x| <= xerr, on every field."""
    assert abs(ExactScalar(F(orbit.xf)) - orbit.value()) <= \
        ExactScalar(F(orbit.xerr))


@st.composite
def walks(draw):
    """(iet, start, steps, forward, tie): tie marks a start on a cut, or
    within two ulps of one, where the shadow cannot decide."""
    d = draw(st.integers(min_value=2, max_value=5))
    field = draw(st.sampled_from([None, 2, 5]))
    # small denominators make rational orbits collide with cuts
    den = draw(st.sampled_from([1, 7, 60, 1000]))
    lengths = []
    for _ in range(d):
        a = F(draw(st.integers(min_value=1, max_value=40)), den)
        b = F(draw(st.integers(min_value=-3, max_value=3)), den)
        lengths.append(abs(ExactScalar(a, b if field else 0, field)))
    labels = "ABCDE"[:d]
    bottom = draw(st.permutations(labels))
    iet = Iet(Permutation(labels, bottom), lengths)
    cuts = ([iet.right(a) for a in iet.perm.top[:-1]] +
            [iet.right_image(a) for a in iet.perm.bottom[:-1]])
    kind = draw(st.sampled_from(["cut", "near", "anywhere"]))
    if kind == "anywhere":
        x = iet.total * F(draw(st.integers(min_value=0,
                                           max_value=10 ** 6 - 1)), 10 ** 6)
    else:
        x = draw(st.sampled_from(cuts))
        if kind == "near":
            # k ulps of the total length: within the shadow's tolerance
            k = draw(st.sampled_from([-2, -1, 1, 2]))
            x = x + iet.total * F(k, 2 ** 53)
    steps = draw(st.sampled_from([40, LONG_WALK]))
    forward = draw(st.booleans())
    tie = kind != "anywhere"
    return iet, x, steps, forward, tie


@given(walks())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_shadow_decisions_are_exact(case):
    iet, x, steps, forward, tie = case
    orbit = CountingOrbit(iet, x)
    cursor = BirkhoffCursor(iet, None, x, forward=forward).advance_to(steps)
    # on a cut one of the two decisions at the start point is a tie
    assert orbit.interval_index() == sign_index(orbit, orbit.cuts)
    assert orbit.image_interval_index() == sign_index(orbit, orbit.cuts_b)
    assert orbit.exact_calls > 0 or not tie
    left_min = right_min = None
    for k in range(steps):
        if not forward:
            # T^-1 x lies in I_a exactly when x lies in T(I_a)
            top_index = orbit.step_backward()
        i = sign_index(orbit, orbit.cuts)
        assert orbit.interval_index() == i
        assert forward or top_index == i
        assert orbit.image_interval_index() == sign_index(orbit,
                                                          orbit.cuts_b)
        assert_shadow_bound(orbit)
        index = k if forward else -(k + 1)
        left, right = orbit.lefts[i], orbit.cuts[i]
        dl = (orbit.p - left[0], orbit.q - left[1])
        dr = (right[0] - orbit.p, right[1] - orbit.q)
        if left_min is None or orbit.pair_less(dl, left_min):
            left_min, left_index = dl, index
        if right_min is None or orbit.pair_less(dr, right_min):
            right_min, right_index = dr, index
        if forward:
            orbit.step_forward()
    assert (cursor.left_min, cursor.left_index) == (left_min, left_index)
    assert (cursor.right_min, cursor.right_index) == (right_min, right_index)
    # without a re-sync the bound would have grown by two units a step
    assert steps < LONG_WALK or orbit.xerr < (2 * steps + 1) * orbit.unit


@pytest.mark.parametrize("scale", [F(1, 2 ** 1100), F(2 ** 1100)])
def test_shadow_off_outside_float_range(scale):
    # a total length below 2^-1000 or above 2^800 on Q(sqrt2): every
    # decision is exact
    r2 = ExactScalar(0, 1, 2)
    iet = Iet(Permutation("ABC", "CBA"),
              [(1 + r2) * scale, 2 * r2 * scale, (4 - r2) * scale])
    x = (3 + r2) * scale
    orbit = CountingOrbit(iet, x)
    assert orbit.unit == math.inf
    for _ in range(20):
        assert orbit.interval_index() == sign_index(orbit, orbit.cuts)
        orbit.step_forward()
    assert orbit.exact_calls == 40
    # the exact walkers stay usable at either end
    assert iet_module.keane_check(iet, 30).satisfied_to_depth
    cut = iet.right(iet.perm.top[0])
    assert iet_module.first_return_map(iet, cut)(cut / 3)[1] >= 1
    walk = BirkhoffCursor(iet, None, x).advance_to(50)
    assert walk.min_gap() == min(walk.gap_minima()[0::2])


def test_shadow_exact_on_rationals_of_any_size():
    # on Q as on Q(sqrt d) a total length below 2^-1000 or above 2^800
    # leaves no float shadow: every decision is exact.  The itinerary
    # table needs no floats: these IETs' induction is undefined at step 2,
    # and their segments read a table at that step
    for scale in (F(1, 2 ** 1100), F(2 ** 1100)):
        iet = Iet(Permutation("ABC", "CBA"),
                  [F(1) * scale, F(2) * scale, F(4) * scale])
        x = F(3, 2) * scale
        orbit = CountingOrbit(iet, x)
        assert orbit.unit == math.inf
        for _ in range(20):
            assert orbit.interval_index() == sign_index(orbit, orbit.cuts)
            orbit.step_forward()
        assert orbit.exact_calls == 40
        assert iet.itinerary_table().step == 2
        walker = CountingOrbit(iet, x)
        i = walker.segment(20)[0]
        assert walker.exact_calls == 0
        assert (walker.p, walker.q) == (orbit.p, orbit.q)
        walker.move_to(walker.pair_of(x))
        for n in range(20):
            assert i[n] == sign_index(walker, walker.cuts)
            walker.step_forward(i[n])
        assert iet_module.keane_check(iet, 30).colliding_pair is not None
