"""IntervalUnion membership by bisection, tied to the linear scan over the
parts and to membership in the raw intervals before normalisation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietflow.birkhoff import sigma_set
from ietflow.exact import ExactScalar, as_scalar
from ietflow.fixtures import bounded_type_3iet, golden_rotation
from ietflow.intervals import IntervalUnion
from ietflow.rauzy import InductionTrace, select_accel_times

F = Fraction
TINY = F(1, 10 ** 30)


def scan_witness(union, x):
    """The linear scan bisection replaced: the first part with a <= x <= b."""
    x = as_scalar(x)
    for a, b in union.parts:
        if not x < a and not b < x:
            return (a, b)
    return None


def assert_agrees(union, points):
    for x in points:
        got = union.witness(x)
        assert got == scan_witness(union, x), x
        assert union.contains(x) is (got is not None)


_ACCELS = {}


def accel(name):
    if name not in _ACCELS:
        if name == "golden":
            trace = InductionTrace(golden_rotation()).extend(32)
            _ACCELS[name] = select_accel_times(trace, 3, lbar_max=4)
        else:
            trace = InductionTrace(bounded_type_3iet()).extend(30)
            _ACCELS[name] = select_accel_times(trace, 4, lbar_max=6)
    return _ACCELS[name]


@pytest.mark.parametrize("name,ell,parts", [("golden", 10, 34),
                                            ("bounded3", 16, 51),
                                            ("golden", 18, 873)])
def test_bisection_matches_the_scan_on_sigma_sets(name, ell, parts):
    union = sigma_set(accel(name), ell, 0.995).union
    assert len(union) == parts
    d = next(e.d for part in union.parts for e in part if e.d is not None)
    points = []
    for a, b in union.parts:
        points += [a, b, a - TINY, b + TINY]
    # Q(sqrt D) points off the endpoints, in the set's own field
    points += [ExactScalar(F(k, 211), F(j, 10 ** 4), d)
               for k in range(1, 200, 7) for j in (-3, 1, 5)]
    assert_agrees(union, points)
    for a, b in union.parts:
        assert union.witness(a) == union.witness(b) == (a, b)
        assert union.witness(a - TINY) != (a, b)
        assert union.witness(b + TINY) != (a, b)


def test_parts_are_read_only_and_lefts_follow_them():
    union = IntervalUnion([(F(1, 2), F(3, 4)), (F(0), F(1, 4))])
    assert isinstance(union.parts, tuple)
    assert union.lefts == (as_scalar(0), as_scalar(F(1, 2)))
    assert union.clip(F(1, 8), F(5, 8)).lefts == (as_scalar(F(1, 8)),
                                                   as_scalar(F(1, 2)))
    assert IntervalUnion.empty().witness(F(1, 2)) is None


def test_touching_intervals_merge_and_keep_their_joint():
    union = IntervalUnion([(F(1, 2), F(3, 4)), (F(1, 4), F(1, 2)),
                           (F(3, 4), F(3, 4))])
    assert union.parts == ((as_scalar(F(1, 4)), as_scalar(F(3, 4))),)
    for x in (F(1, 4), F(1, 2), F(3, 4)):
        assert union.witness(x) == union.parts[0]
    assert not union.contains(F(1, 4) - TINY)
    assert not union.contains(F(3, 4) + TINY)


grid = st.fractions(min_value=0, max_value=1, max_denominator=8)


@given(st.lists(st.tuples(grid, grid), max_size=12),
       st.lists(st.fractions(min_value=-1, max_value=2,
                             max_denominator=64), max_size=20))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bisection_matches_raw_membership(raw, extra):
    union = IntervalUnion(raw)
    # normalised: sorted, each part nonempty, strictly apart from the next
    for (a, b), (c, _) in zip(union.parts, union.parts[1:]):
        assert b < c
    assert all(not b < a for a, b in union.parts)
    points = list(extra)
    for a, b in raw:
        points += [a, b, a - TINY, b + TINY]
    for x in points:
        inside = any(a <= x <= b for a, b in raw)
        assert union.contains(x) is inside, (raw, x)
        got = union.witness(x)
        assert got == scan_witness(union, x)
        if inside:
            assert not as_scalar(x) < got[0] and not got[1] < as_scalar(x)
