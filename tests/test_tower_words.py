"""Rohlin towers from the Rauzy-Veech words.

`rauzy.towers` lays every floor by following its tower's word (the
interval of T each floor lies in, read off the induction steps), checks
each floor against the intervals of T, lays the floors flat and sorts
them by an exact key; `build_itinerary_table` returns that tower system
as the IET's itinerary table.  Neither walks an orbit.  The floor digests were recorded from the orbit-walking
builders these replaced, so the floors are pinned to what those walks
produced.  The table digests pin the slots in `TABLE_SLOTS`, the ones the
table kept from the float-sorted build whose own digests were recorded
from those walks, so every one is what those walks produced; print them
with

    PYTHONPATH=src python tests/test_tower_words.py
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ietflow.exact import ExactScalar, _sign
from ietflow.fixtures import bounded_type_3iet, golden_rotation
from ietflow.iet import Iet, IntegerOrbit, Permutation
from ietflow.rauzy import (InductionTrace, RVUndefinedError, TowerSystem,
                           build_itinerary_table, towers)
from iet_reference import ReferenceMap

FIXTURES = {"golden": golden_rotation, "bounded3": bounded_type_3iet}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


#: The slots `table_digest` pins, each as nested lists of Python values.
TABLE_SLOTS = ("den", "field", "step", "heights", "starts", "ends", "word",
               "bword", "lp", "lq", "widths", "exits", "order")


def table_digest(iet) -> str:
    table = build_itinerary_table(iet)
    return _digest((name, np.asarray(getattr(table, name)).tolist())
                   for name in TABLE_SLOTS)


def floors_digest(trace, depths) -> str:
    return _digest((n, [(t.label, t.lefts, t.width, t.den, t.field)
                        for t in towers(trace, n).towers])
                   for n in depths)


def random_rational_iet(seed: int, i: int, d: int) -> Iet:
    """An irreducible IET on d letters with rational lengths, drawn as the
    benchmark's induction workload draws its items."""
    rng = random.Random("%d:%d" % (seed, i))
    alphabet = list("ABCDE"[:d])
    while True:
        bottom = alphabet[:]
        rng.shuffle(bottom)
        perm = Permutation(alphabet, bottom)
        if perm.irreducible:
            break
    weights = [rng.randrange(1, 10 ** 6) for _ in range(d)]
    total = sum(weights)
    return Iet(perm, [Fraction(w, total) for w in weights])


def random_traces(count: int = 60, depth: int = 12):
    """Traces of `count` random rational IETs (d cycling 3, 4, 5, 4),
    each extended as far as it is defined up to `depth`."""
    out = []
    for i in range(count):
        trace = InductionTrace(random_rational_iet(1, i, (3, 4, 5, 4)[i % 4]))
        try:
            trace.extend(depth)
        except RVUndefinedError:
            pass
        out.append(trace)
    return out


TABLE_DIGESTS = {"golden": "dfdf21bdd1842349",
                 "bounded3": "024d3a9ae7c23aec"}
FLOOR_DIGESTS = {"golden": "2a07917a1c52a332",
                 "bounded3": "d1ac007517c3b94b"}
RANDOM_FLOORS_DIGEST = "1fe53f84e1cfe2e3"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_table_slots_are_pinned(name):
    assert set(TABLE_SLOTS) <= set(TowerSystem.__slots__)
    assert table_digest(FIXTURES[name]()) == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_floors_are_pinned(name):
    trace = InductionTrace(FIXTURES[name]())
    assert floors_digest(trace, range(21)) == FLOOR_DIGESTS[name]


def test_random_rational_floors_are_pinned():
    assert _digest(floors_digest(trace, range(trace.depth + 1))
                   for trace in random_traces()) == RANDOM_FLOORS_DIGEST


def test_towers_and_table_walk_no_orbit(monkeypatch):
    calls = []
    for name in ("step_forward", "step_backward", "interval_index",
                 "segment", "follow"):
        def spy(*args, name=name, **kwargs):
            calls.append(name)
            raise AssertionError("an orbit was walked")
        monkeypatch.setattr(IntegerOrbit, name, spy)
    for make in FIXTURES.values():
        trace = InductionTrace(make())
        for n in range(21):
            towers(trace, n)
        build_itinerary_table(make())
    for trace in random_traces(8):
        towers(trace, trace.depth)
    assert not calls


def test_words_name_the_intervals_of_the_floors():
    # each floor of a tower lies in the interval of T its word names, as
    # the reference map finds it, and a word is as long as its tower is tall
    trace = InductionTrace(bounded_type_3iet())
    top = trace.base.perm.top
    ref = ReferenceMap(trace.base)
    for n in range(9):
        words = trace.words(n)
        assert [len(word) for word in words] == list(trace.heights(n))
        for tower, word in zip(towers(trace, n).towers, words):
            assert tower.word == word
            assert [ref.interval_of(left) for left, _ in
                    tower.floors] == [top[j] for j in word]


def scan_locate(system, p, q, scale, field) -> list:
    """Every (tower, floor) whose [left, left + width) holds the point
    (p + q sqrt(field))/(den scale), by an exact scan of all floors."""
    lp, lq = system.lp, system.lq
    return [(a, g) for a, (s, e, (wp, wq)) in enumerate(zip(
                system.starts, system.ends, system.widths))
            for g in range(s, e)
            if _sign(p - scale * lp[g], q - scale * lq[g], field) >= 0 and
            _sign(p - scale * (lp[g] + wp), q - scale * (lq[g] + wq),
                  field) < 0]


def locate_points(system, rng) -> list:
    """Points of [0, total) to locate in `system`: two random exact ones
    (in its field), a left and a right floor end, each with the points
    10^-30 to either side, and on Q a multiple of sqrt 2."""
    den, field, total = system.den, system.field, system.total

    def scalar(p, q):
        return ExactScalar(Fraction(p, den), Fraction(q, den), field)

    def rand():
        return Fraction(rng.randrange(10 ** 6), 10 ** 6)

    points = [total * ExactScalar(rand()) for _ in range(2)]
    if field is not None:
        points.append(ExactScalar(rand() / 4, rand() / 4, field))
    else:
        points.append(total * ExactScalar(0, rand() / 2, 2))
    g = rng.randrange(system.floor_count())
    a = next(a for a, e in enumerate(system.ends) if g < e)
    wp, wq = system.widths[a]
    tiny = ExactScalar(Fraction(1, 10 ** 30))
    for end in (scalar(system.lp[g], system.lq[g]),
                scalar(system.lp[g] + wp, system.lq[g] + wq)):
        points += [end - tiny, end, end + tiny]
    return [x for x in points if ExactScalar(0) <= x < total]


def assert_locate_matches_the_scan(system, rng):
    for x in locate_points(system, rng):
        scale = math.lcm(system.den, x.den) // system.den
        k = system.den * scale // x.den
        p, q, field = x.p * k, x.q * k, x.d or system.field
        assert [system.locate(p, q, scale, field)] == \
            scan_locate(system, p, q, scale, field), x


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_locate_matches_a_scan_of_the_floors(name):
    rng = random.Random(name)
    trace = InductionTrace(FIXTURES[name]())
    for n in range(21):
        assert_locate_matches_the_scan(towers(trace, n), rng)


def test_locate_matches_a_scan_on_random_rational_towers():
    rng = random.Random(0)
    for trace in random_traces(12):
        for n in range(trace.depth + 1):
            assert_locate_matches_the_scan(towers(trace, n), rng)


if __name__ == "__main__":
    for name in sorted(FIXTURES):
        print(name, table_digest(FIXTURES[name]()),
              floors_digest(InductionTrace(FIXTURES[name]()), range(21)))
    print("random", _digest(floors_digest(trace, range(trace.depth + 1))
                            for trace in random_traces()))
