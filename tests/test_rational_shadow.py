"""One shadow format and one index rule on Q and Q(sqrt d).

An `IntegerOrbit` of a rational IET keeps a float shadow of each point
with an error bound, from `Iet.float_tables()`, and its segments read
their interval indices off the IET's itinerary table, however deep its
towers, as one over Q(sqrt d) does;
only the pair walk's roof terms (from correctly rounded exact gaps) are
its own.  Every decision is exact, so the outputs of the exact walkers on
Q are those of the former integer shadow and of the former bisection on
the integer cuts.  `OUTPUTS_DIGEST` was recorded with that integer
shadow; print the digest with

    PYTHONPATH=src python tests/test_rational_shadow.py
"""

import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from ietflow import iet as iet_module, rauzy
from ietflow.exact import ExactScalar
from ietflow.fixtures import asymmetric_log_roof, constant_roof
from ietflow.iet import (Iet, IntegerOrbit, Permutation, first_return_map,
                         keane_check)
from ietflow.ratner import _pair_walk
from ietflow.roof import BirkhoffCursor, RoofSpec, _advance

F = Fraction

#: sha256 prefix of `outputs()`, recorded with the integer shadow on Q.
OUTPUTS_DIGEST = "bfe34d9cf489b181"


def rational_iets():
    """Three rational IETs: d = 4, 3 and 5, totals 1 and not 1."""
    return [
        Iet(Permutation("ABCD", "DCBA"), [F(3, 17), F(5, 19), F(2, 7),
                                          F(7, 23)]),
        Iet(Permutation("ABC", "CAB"), [F(5, 13), F(7, 11), F(1, 3)]),
        Iet(Permutation("ABCDE", "EDCBA"),
            [F(w, 1999993) for w in (401117, 299993, 512345, 600001,
                                     186537)]),
    ]


def two_sided_roof(iet):
    top = iet.perm.top
    return RoofSpec(c0=F(1), cplus={a: F(k + 1, 4) for k, a in enumerate(top)},
                    cminus={a: F(k + 2, 3) for k, a in enumerate(top)})


ROOFS = (asymmetric_log_roof, two_sided_roof, constant_roof)
GAPS = (F(1, 10 ** 5), F(1, 10 ** 9), F(1, 10 ** 30))


def _points(iet):
    """A generic point, one 10^-12 left of the first cut, one on the
    second cut, one 10^-25 right of the first cut and one within the hard
    cutoff (10^-30) left of it."""
    cut1, cut2 = iet.right(iet.perm.top[0]), iet.right(iet.perm.top[1])
    return [iet.total * F(41, 100), cut1 - F(1, 10 ** 12), cut2,
            cut1 + F(1, 10 ** 25), cut1 - F(1, 10 ** 31)]


def _run(fn, *args):
    """fn(*args), or its error as (type name, message)."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _cursor_outputs(iet, spec, x, forward):
    cur = BirkhoffCursor(iet, spec, x, forward=forward)
    out = []
    for n in (1, 17, 300, 2500):
        try:
            if spec is None:
                cur.advance_to(n)
                sums = None
            else:
                sums = (cur.sum_at(n), cur.derivative_sum_at(n), cur.last_f)
        except (ArithmeticError, ValueError) as exc:
            out.append((n, type(exc).__name__, str(exc)))
            break
        minima = tuple(v.to_string() if isinstance(v, ExactScalar) else v
                       for v in cur.gap_minima())
        hit = cur.hit and (cur.hit[0], cur.hit[1].to_string())
        out.append((n, cur.steps, sums, minima, hit,
                    cur.min_gap().to_string()))
    return out


def _advance_output(iet, spec, x, t):
    out = _run(_advance, iet, spec, x, 0.25, t)
    if isinstance(out[0], ExactScalar):
        return out[0].to_string(), out[1], out[2]
    return out


def outputs():
    """The Q outputs of the exact walkers: pair-walk checkpoints, cursor
    sums, gap minima and hits, flows at t = +-300, Keane checks and first
    returns, on three rational IETs, three roofs, three pair gaps and both
    directions."""
    out = []
    for iet in rational_iets():
        points = _points(iet)
        out.append(keane_check(iet, 100))
        out.append(keane_check(iet, 3000))
        for cut in (iet.right(iet.perm.top[0]), iet.total * F(1, 3)):
            hit = first_return_map(iet, cut)
            for x in (cut * F(1, 7), cut * F(5, 6), ExactScalar(0)):
                r = _run(hit, x)
                out.append((r[0].to_string(), r[1])
                           if isinstance(r[0], ExactScalar) else r)
        for forward in (True, False):
            for x in points:
                out.append(_cursor_outputs(iet, None, x, forward))
        for make in ROOFS:
            spec = make(iet)
            for forward in (True, False):
                for x in points[:3] + points[4:]:
                    out.append(_cursor_outputs(iet, spec, x, forward))
                for gap in GAPS:
                    x = points[0]
                    out.append(_run(_pair_walk, iet, spec, x, x + gap, 20,
                                    300, forward))
                out.append(_run(_pair_walk, iet, spec, points[1],
                                points[1] + GAPS[0], 2100, 40, forward))
                # y within the cutoff of the first cut
                x = points[4] - F(1, 10 ** 20)
                out.append(_run(_pair_walk, iet, spec, x, points[4], 0, 20,
                                forward))
            for x in points[:3]:
                for t in (300.0, -300.0):
                    out.append(_advance_output(iet, spec, x, t))
    return out


def digest() -> str:
    h = hashlib.sha256()
    for part in outputs():
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def test_rational_outputs_are_pinned():
    assert digest() == OUTPUTS_DIGEST


@st.composite
def rational_walks(draw):
    d = draw(st.integers(min_value=2, max_value=5))
    den = draw(st.sampled_from([1, 7, 60, 1000, 10 ** 30]))
    lengths = [F(draw(st.integers(min_value=1, max_value=10 ** 6)), den)
               for _ in range(d)]
    labels = "ABCDE"[:d]
    iet = Iet(Permutation(labels, draw(st.permutations(labels))), lengths)
    x = iet.total * F(draw(st.integers(min_value=0, max_value=10 ** 6 - 1)),
                      10 ** 6)
    k = draw(st.sampled_from([1, 30, iet_module._SHADOW_RESYNC // 2 + 50]))
    return iet, x, k, draw(st.booleans())


@st.composite
def tabled_walks(draw):
    """Walks on rational IETs of the reversal permutation with numerators
    of 10^5 .. 10^7, most of which have towers a segment tall."""
    d = draw(st.integers(min_value=2, max_value=5))
    den = draw(st.sampled_from([1, 7, 1000]))
    lengths = [F(draw(st.integers(min_value=10 ** 5, max_value=10 ** 7)),
                 den) for _ in range(d)]
    labels = "ABCDE"[:d]
    iet = Iet(Permutation(labels, labels[::-1]), lengths)
    x = iet.total * F(draw(st.integers(min_value=0, max_value=10 ** 6 - 1)),
                      10 ** 6)
    k = draw(st.sampled_from([1, 30, iet_module._SHADOW_RESYNC // 2 + 50]))
    return iet, x, k, draw(st.booleans())


def bits(*values):
    return [float(v).hex() for v in values]


def assert_segment_is_the_one_steps(iet, x, k, forward):
    orbit, walker = IntegerOrbit(iet, x), IntegerOrbit(iet, x)
    i, X, E, _, _ = orbit.segment(k, forward)
    assert X.dtype == E.dtype == np.float64
    assert 0 < walker.unit < float("inf")
    for n in range(k):
        if forward:
            assert walker.interval_index() == i[n]
            assert bits(X[n], E[n]) == bits(walker.xf, walker.xerr)
            walker.step_forward()
        else:
            assert walker.step_backward() == i[n]
            assert bits(X[n], E[n]) == bits(walker.xf, walker.xerr)
    assert orbit.p == walker.p
    assert bits(orbit.xf, orbit.xerr) == bits(walker.xf, walker.xerr)


@given(st.one_of(rational_walks(), tabled_walks()))
@example((rational_iets()[0], F(41, 100), 3000, False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_rational_segment_shadows_are_the_one_steps(case):
    # on Q a segment's J, X and E are those of the one-step walk at each
    # point, bit for bit, read off the IET's itinerary table, with towers
    # a segment tall or not, and off a table at step 0, where every step
    # is a locate
    iet, x, k, forward = case
    tall = min(iet.itinerary_table().heights) >= iet_module._SEGMENT
    event("segment-tall towers" if tall else "shallow towers")
    assert_segment_is_the_one_steps(iet, x, k, forward)
    with mock.patch.object(rauzy, "_TABLE_STEPS", 0):
        iet = Iet(iet.perm, iet.lengths)
        assert iet.itinerary_table().step == 0
        assert_segment_is_the_one_steps(iet, x, k, forward)


if __name__ == "__main__":
    print(digest())
