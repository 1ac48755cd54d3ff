"""Rohlin towers from the Rauzy-Veech words.

`rauzy.towers` lays every floor by following its tower's word (the
interval of T each floor lies in, read off the induction steps) and
checks each floor against the intervals of T; `build_itinerary_table`
reads the towers and follows each word once for the floors' shadows.
Neither walks an orbit.  The digests below were recorded from the
orbit-walking builders these replaced, so the floors and every table
slot are pinned to what those walks produced; print them with

    PYTHONPATH=src python tests/test_tower_words.py
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from ietflow.fixtures import bounded_type_3iet, golden_rotation
from ietflow.iet import Iet, IntegerOrbit, Permutation
from ietflow.rauzy import (InductionTrace, ItineraryTable, RVUndefinedError,
                           build_itinerary_table, towers)

FIXTURES = {"golden": golden_rotation, "bounded3": bounded_type_3iet}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _slot(value):
    """A table slot as comparable data: arrays with their dtype."""
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.tolist())
    return value


def table_digest(iet) -> str:
    table = build_itinerary_table(iet)
    return _digest((name, _slot(getattr(table, name)))
                   for name in ItineraryTable.__slots__)


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


TABLE_DIGESTS = {"golden": "d880326e7bab06bd",
                 "bounded3": "35093f25f01dd605"}
FLOOR_DIGESTS = {"golden": "2a07917a1c52a332",
                 "bounded3": "d1ac007517c3b94b"}
RANDOM_FLOORS_DIGEST = "1fe53f84e1cfe2e3"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_table_slots_are_pinned(name):
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
                 "segment", "_stepped"):
        def spy(*args, name=name, **kwargs):
            calls.append(name)
            raise AssertionError("an orbit was walked")
        monkeypatch.setattr(IntegerOrbit, name, spy)
    for make in FIXTURES.values():
        trace = InductionTrace(make())
        for n in range(21):
            towers(trace, n)
        assert build_itinerary_table(make()) is not None
    for trace in random_traces(8):
        towers(trace, trace.depth)
    assert not calls


def test_words_name_the_intervals_of_the_floors():
    # each floor of a tower lies in the interval of T its word names, as
    # Iet.interval_of finds it, and a word is as long as its tower is tall
    trace = InductionTrace(bounded_type_3iet())
    top = trace.base.perm.top
    for n in range(9):
        words = trace.words(n)
        assert [len(word) for word in words] == list(trace.heights(n))
        for tower, word in zip(towers(trace, n).towers, words):
            assert tower.word == word
            assert [trace.base.interval_of(left) for left, _ in
                    tower.floors] == [top[j] for j in word]


if __name__ == "__main__":
    for name in sorted(FIXTURES):
        print(name, table_digest(FIXTURES[name]()),
              floors_digest(InductionTrace(FIXTURES[name]()), range(21)))
    print("random", _digest(floors_digest(trace, range(trace.depth + 1))
                            for trace in random_traces()))
