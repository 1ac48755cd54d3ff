"""Differential tests: every exact orbit walker against a plain ExactScalar
reference.

The walkers run on IntegerOrbit; the references below step `Iet.evaluate`
/ `Iet.evaluate_inverse` on ExactScalar points and sum `eval_roof` /
`eval_roof_derivative` term by term, with the endpoint minima taken by
brute force over the whole endpoint set.  Floats must agree bit for bit
and exact values must be equal, errors included (type, orbit index).
"""

import math
import random
from fractions import Fraction

import pytest

from ietflow.birkhoff import ExactHitError, approach_stats
from ietflow.diophantine import validate_params
from ietflow.exact import ExactScalar
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    constant_roof,
    golden_rotation,
    rotation_third,
    symmetric_3iet,
)
from ietflow.iet import (
    IetDomainError,
    Iet,
    IntegerOrbit,
    InvalidIetError,
    Permutation,
    ReturnBudgetError,
    first_return_map,
    keane_check,
)
from ietflow.rauzy import InductionTrace, select_accel_times
from ietflow.ratner import forbac_scan
from ietflow.roof import (
    BirkhoffCursor,
    FlowPoint,
    RoofDomainError,
    RoofSpec,
    RoofValue,
    SingularityTooClose,
    birkhoff_sum,
    discrete_iterations,
    eval_roof,
    eval_roof_derivative,
    flow,
)

F = Fraction


def rational_4iet():
    perm = Permutation("ABCD", "DCBA")
    return Iet(perm, [F(2, 7), F(1, 5), F(3, 11), F(1, 1) - F(2, 7) -
                      F(1, 5) - F(3, 11)])


IETS = {
    "Q rotation": rotation_third,
    "Q 3-IET": symmetric_3iet,
    "Q 4-IET": rational_4iet,
    "Q(sqrt2) 3-IET": bounded_type_3iet,
    "Q(sqrt5) rotation": golden_rotation,
}


def two_sided_roof(iet):
    """Log singularities on both sides of several intervals."""
    top = iet.perm.top
    cplus = {a: F(0) for a in top}
    cminus = {a: F(0) for a in top}
    cplus[top[-1]] = F(3, 2)
    cplus[top[1]] = F(1, 2)
    cminus[top[0]] = F(1)
    cminus[top[1]] = F(2)
    return RoofSpec(c0=F(2), cplus=cplus, cminus=cminus)


ROOFS = {
    "asymmetric": asymmetric_log_roof,
    "two-sided": two_sided_roof,
    "constant": constant_roof,
}


def points(iet, count=4, seed=3):
    rng = random.Random(seed)
    return [iet.total * F(rng.randrange(1, 10 ** 6), 10 ** 6)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# ExactScalar references
# ---------------------------------------------------------------------------

def ref_orbit(iet, x, n):
    """(index, point) over x .. T^(n-1) x, or T^-1 x .. T^n x for n < 0."""
    if n >= 0:
        return list(enumerate(iet.orbit(x, n)))
    return [(-(i + 1), pt) for i, pt in
            enumerate(list(iet.orbit(x, n - 1))[1:])]


def ref_sums(iet, spec, x, n):
    """(S_n(f), S_n(f')) with radii, accumulated term by term."""
    out = []
    for term in (eval_roof, eval_roof_derivative):
        acc = err = 0.0
        for i, pt in ref_orbit(iet, x, n):
            tv = term(iet, spec, pt, orbit_index=i)
            acc += tv.value
            err += tv.err + abs(acc) * 2.0 ** -52
        out.append(RoofValue(acc if n >= 0 else -acc, err))
    return out


def ref_minima(iet, x, n):
    """Brute force over {l_a} and {r_a}: the smallest distance from above
    to an l and from below to an r, with first indices, the smallest
    distance to any endpoint, and the first exact hit."""
    lefts = [iet.left(a) for a in iet.perm.alphabet]
    rights = [iet.right(a) for a in iet.perm.alphabet]
    u = v = nearest = hit = None
    u_idx = v_idx = None
    for i, pt in ref_orbit(iet, x, n):
        for s in lefts + rights:
            d = abs(pt - s)
            if nearest is None or d < nearest:
                nearest = d
            if d.is_zero() and hit is None:
                hit = (i, pt)
        for s in lefts:
            if s < pt and (u is None or pt - s < u):
                u, u_idx = pt - s, i
        for s in rights:
            if pt < s and (v is None or s - pt < v):
                v, v_idx = s - pt, i
    return u, u_idx, v, v_idx, nearest, hit


def ref_flow(iet, spec, x, s):
    """(T^r x, remainder, r) of the special flow, on ExactScalar."""
    x = ExactScalar(x) if not isinstance(x, ExactScalar) else x
    steps = 0
    if s >= 0:
        while True:
            fx = eval_roof(iet, spec, x, orbit_index=steps).value
            if s < fx:
                return x, s, steps
            s -= fx
            x = iet.evaluate(x)
            steps += 1
    while s < 0:
        x = iet.evaluate_inverse(x)
        steps -= 1
        s += eval_roof(iet, spec, x, orbit_index=steps).value
    return x, s, steps


def ref_keane(iet, depth):
    discs = iet.discontinuities()
    seen = {}
    for j, x in enumerate(discs):
        for k in range(depth + 1):
            if k > 0 and x in discs:
                return (False, ((j, k), ("disc", x.to_string())))
            if x in seen and seen[x] != (j, k):
                return (False, ((j, k), seen[x]))
            seen[x] = (j, k)
            if k < depth:
                x = iet.evaluate(x)
    return (True, None)


def ref_first_return(iet, cut, x):
    y = iet.evaluate(x)
    n = 1
    while not y < cut:
        y = iet.evaluate(y)
        n += 1
    return y, n


def orbit_gaps(orbit):
    """Reference for the two gaps a walker reads at the current point x of
    an IntegerOrbit, from its public state: (i, x - l_i, r_i - x) with i
    the top-order index of the interval holding x, found by exact
    comparisons with the right endpoints, and the gaps as integer pairs."""
    cuts = orbit.cuts
    i = next((j for j in range(len(cuts) - 1) if orbit.less_than(cuts[j])),
             len(cuts) - 1)
    left, right = orbit.lefts[i], cuts[i]
    return (i, (orbit.p - left[0], orbit.q - left[1]),
            (right[0] - orbit.p, right[1] - orbit.q))


def outcome(fn, *args):
    """Result of fn, or the type and context of the error it raised."""
    try:
        return fn(*args)
    except (RoofDomainError, ExactHitError) as exc:
        return type(exc), getattr(exc, "index", None)
    except SingularityTooClose as exc:
        return (SingularityTooClose, exc.label, exc.side, exc.distance,
                exc.orbit_index)


# ---------------------------------------------------------------------------
# generic orbits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("roof", sorted(ROOFS))
@pytest.mark.parametrize("name", sorted(IETS))
def test_cursor_and_birkhoff_sum_match_reference(name, roof):
    iet = IETS[name]()
    spec = ROOFS[roof](iet)
    for x in points(iet):
        for n in (1, 9, 40, -1, -9, -40):
            want = outcome(ref_sums, iet, spec, x, n)

            def walk():
                cur = BirkhoffCursor(iet, spec, x, forward=n > 0)
                return [cur.sum_at(abs(n)), cur.derivative_sum_at(abs(n))]

            assert outcome(walk) == want, (x, n)
            assert outcome(lambda: [birkhoff_sum(iet, spec, x, n),
                                    birkhoff_sum(iet, spec, x, n, True)]) \
                == want, (x, n)


def test_cursor_checkpoints_match_fresh_walks():
    iet = bounded_type_3iet()
    spec = two_sided_roof(iet)
    x = F(13, 97)
    for forward in (True, False):
        cur = BirkhoffCursor(iet, spec, x, forward=forward)
        for n in (0, 3, 3, 17, 50):
            sign = 1 if forward else -1
            assert cur.sum_at(n) == birkhoff_sum(iet, spec, x, sign * n)
            assert cur.derivative_sum_at(n) == \
                birkhoff_sum(iet, spec, x, sign * n, derivative=True)
        with pytest.raises(ValueError):
            cur.advance_to(10)


@pytest.mark.parametrize("name", sorted(IETS))
def test_gap_minima_match_brute_force(name):
    iet = IETS[name]()
    for x in points(iet, seed=8):
        for n in (1, 13, 60, -1, -13, -60):
            u, u_idx, v, v_idx, nearest, hit = ref_minima(iet, x, n)
            cur = BirkhoffCursor(iet, None, x, forward=n > 0)
            cur.advance_to(abs(n))
            assert cur.min_gap() == nearest
            if hit is not None:
                assert cur.hit == hit
                with pytest.raises(ExactHitError) as info:
                    approach_stats(iet, x, n)
                assert (info.value.index, info.value.point) == hit
                continue
            assert cur.hit is None
            assert cur.gap_minima() == (u, u_idx, v, v_idx)
            stats = approach_stats(iet, x, n)
            assert (stats.u_distance, stats.u_index, stats.v_distance,
                    stats.v_index, stats.steps) == (u, u_idx, v, v_idx,
                                                    abs(n))
            assert stats.U == 1.0 / float(u)
            assert stats.V == 1.0 / float(v)


@pytest.mark.parametrize("roof", sorted(ROOFS))
@pytest.mark.parametrize("name", sorted(IETS))
def test_flow_matches_reference(name, roof):
    iet = IETS[name]()
    spec = ROOFS[roof](iet)
    rng = random.Random(17)
    for x in points(iet, seed=5):
        for t in (0.0, 0.3, 7.5, 31.0, -0.3, -7.5, -31.0):
            y = rng.uniform(0.0, 0.9)
            assert outcome(flow, iet, spec, FlowPoint(x, y), t) == \
                outcome(lambda: FlowPoint(*ref_flow(iet, spec, x, y + t)[:2]))
            assert outcome(discrete_iterations, iet, spec, x, t) == \
                outcome(lambda: ref_flow(iet, spec, x, t)[2])


@pytest.mark.parametrize("name", sorted(IETS))
def test_keane_matches_reference(name):
    # the longer depths walk several segments and cross tower tops of the
    # itinerary table
    iet = IETS[name]()
    for depth in (1, 5, 40, 600, 1500, 3000):
        rep = keane_check(iet, depth)
        assert (rep.satisfied_to_depth, rep.colliding_pair) == \
            ref_keane(iet, depth)
        assert rep.depth == depth


@pytest.mark.parametrize("name", sorted(IETS))
def test_first_return_matches_reference(name):
    iet = IETS[name]()
    for cut in (iet.total, iet.total * F(3, 5), iet.total * F(1, 9)):
        hit = first_return_map(iet, cut)
        for k in (1, 7, 500, 999):
            x = cut * F(k, 1000)
            assert hit(x) == ref_first_return(iet, cut, x)


def far_iets():
    """The IETs of test_shadow.py at lengths 2^-1100 and 2^1100, over
    Q(sqrt 2) and over Q: the shadow is off (unit infinite) on both."""
    r2 = ExactScalar(0, 1, 2)
    out = []
    for scale in (F(1, 2 ** 1100), F(2 ** 1100)):
        out.append(Iet(Permutation("ABC", "CBA"),
                       [(1 + r2) * scale, 2 * r2 * scale, (4 - r2) * scale]))
        out.append(Iet(Permutation("ABC", "CBA"),
                       [F(1) * scale, F(2) * scale, F(4) * scale]))
    return out


def test_walkers_match_reference_outside_float_range():
    for iet in far_iets():
        assert IntegerOrbit(iet, 0).unit == math.inf
        for depth in (30, 600):
            rep = keane_check(iet, depth)
            assert (rep.satisfied_to_depth, rep.colliding_pair) == \
                ref_keane(iet, depth)
        for cut in (iet.right(iet.perm.top[0]), iet.total * F(1, 9)):
            hit = first_return_map(iet, cut)
            for k in (1, 500, 999):
                x = cut * F(k, 1000)
                assert hit(x) == ref_first_return(iet, cut, x)


def connection_3iet():
    """The rotation by alpha = sqrt 2 - 1 as the 3-IET (ABC / CAB) with
    lambda_A = 1036 - 2501 alpha: T^2500 l_B = l_C, a collision on a
    discontinuity past the first segment."""
    alpha = ExactScalar(-1, 1, 2)
    lam_a = 1036 - 2501 * alpha
    return Iet(Permutation("ABC", "CAB"), [lam_a, 1 - alpha - lam_a, alpha])


def rotation_4099():
    """The rotation by 1234/4099: every orbit closes after 4099 steps."""
    return Iet(Permutation("AB", "BA"), [F(4099 - 1234, 4099),
                                         F(1234, 4099)])


@pytest.mark.parametrize("make", [connection_3iet, rotation_4099])
def test_keane_collision_past_the_first_segment(make):
    iet = make()
    rep = keane_check(iet, 5000)
    assert (rep.satisfied_to_depth, rep.colliding_pair) == \
        ref_keane(iet, 5000)
    # a collision is first met on a discontinuity: l_C, or l_B itself
    disc = iet.left(iet.perm.top[-1]).to_string()
    k = 2500 if make is connection_3iet else 4099
    assert rep.colliding_pair == ((0, k), ("disc", disc))


@pytest.mark.parametrize("n", [10, 16, 20])
@pytest.mark.parametrize("make", [golden_rotation, bounded_type_3iet])
def test_first_return_to_induced_interval_matches_reference(make, n):
    # returns to I^(n) are the tower heights: at n = 20 on the golden
    # rotation 10946 and 17711 steps, many segments
    iet = make()
    trace = InductionTrace(iet).extend(n)
    ind, heights = trace.iet(n), trace.heights(n)
    cut = ind.total
    hit = first_return_map(iet, cut)
    for k in (1, 389, 750, 999):
        x = cut * F(k, 1000)
        got = hit(x)
        assert got == (ind.evaluate(x), heights[
            iet.perm.alphabet.index(ind.interval_of(x))])
        if k in (1, 999):
            assert got == ref_first_return(iet, cut, x)


@pytest.mark.parametrize("make,n", [(golden_rotation, 20),
                                    (bounded_type_3iet, 10)])
def test_first_return_step_budget(make, n):
    # a return at step max_steps is returned, one step later raises
    iet = make()
    trace = InductionTrace(iet).extend(n)
    cut = trace.interval_length(n)
    x = cut * F(1, 3)
    y, m = first_return_map(iet, cut)(x)
    assert first_return_map(iet, cut, max_steps=m)(x) == (y, m)
    with pytest.raises(ReturnBudgetError) as exc:
        first_return_map(iet, cut, max_steps=m - 1)(x)
    assert isinstance(exc.value, RuntimeError)
    assert (exc.value.start, exc.value.cut, exc.value.max_steps) == \
        (x, cut, m - 1)
    # a first step back below the cut is always a return
    one = first_return_map(iet, iet.total, max_steps=0)(x)
    assert one == (iet.evaluate(x), 1)


def golden_accel():
    trace = InductionTrace(golden_rotation()).extend(30)
    return select_accel_times(trace, 3, lbar_max=4)


def test_forbac_matches_reference():
    accel = golden_accel()
    iet = accel.trace.base
    params = validate_params(1.01, 0.995, 0.9, 0.992)
    for x in points(iet, count=3, seed=21):
        for ell in (5, 7):
            rep = forbac_scan(accel, x, ell, params)
            q = accel.q(ell)
            assert rep.forward_min == ref_minima(iet, x, q)[4]
            assert rep.backward_min == ref_minima(iet, x, -q)[4]


# ---------------------------------------------------------------------------
# edge cases: exact hits and the hard cutoff
# ---------------------------------------------------------------------------

def test_exact_hit_forward_and_backward():
    accel = golden_accel()
    iet = accel.trace.base
    params = validate_params(1.01, 0.995, 0.9, 0.992)
    l_b = iet.left("B")
    log_roof = asymmetric_log_roof(iet)
    assert accel.q(6) == 21
    # T^5 x = l_B; T l_B = 0, so the backward walk from T^5 l_B first
    # lands on the endpoint 0, at index -4
    for x, n, hit in ((iet.iterate(l_b, -5), 21, (5, l_b)),
                      (iet.iterate(l_b, 5), -21, (-4, ExactScalar(0)))):
        assert ref_minima(iet, x, n)[5] == hit
        with pytest.raises(ExactHitError) as info:
            approach_stats(iet, x, n)
        assert (info.value.index, info.value.point) == hit
        rep = forbac_scan(accel, x, 6, params)
        assert (rep.forward_min if n > 0 else rep.backward_min) == 0
        assert not (rep.forward_ok if n > 0 else rep.backward_ok)
        with pytest.raises(RoofDomainError):
            birkhoff_sum(iet, log_roof, x, n)
        cur = BirkhoffCursor(iet, constant_roof(iet), x, forward=n > 0)
        assert cur.sum_at(21).value == float(n)
        assert cur.hit == hit


def test_rational_orbit_hit():
    iet = rotation_third()
    x = F(1, 3)                         # T(1/3) = 2/3 = r_A = l_B
    cur = BirkhoffCursor(iet, None, x).advance_to(2)
    assert cur.hit == (1, ExactScalar(F(2, 3)))
    assert cur.min_gap() == 0
    with pytest.raises(RoofDomainError):
        birkhoff_sum(iet, asymmetric_log_roof(iet), x, 2)
    assert birkhoff_sum(iet, constant_roof(iet), x, 2).value == 2.0


@pytest.mark.parametrize("k", [4, -4])
def test_hard_cutoff_carries_orbit_index(k):
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)     # Cminus_A = 1 at r_A
    near = iet.right("A") - ExactScalar(F(1, 10 ** 40))
    x = iet.iterate(near, -k)           # T^k x is 1e-40 left of r_A
    n = 10 if k > 0 else -10
    with pytest.raises(SingularityTooClose) as info:
        birkhoff_sum(iet, spec, x, n)
    exc = info.value
    assert (exc.label, exc.side, exc.orbit_index) == ("A", "right", k)
    assert exc.distance == ExactScalar(F(1, 10 ** 40))
    assert outcome(ref_sums, iet, spec, x, n) == \
        (SingularityTooClose, "A", "right", exc.distance, k)
    # the cutoff itself is inside: dl <= hard_cutoff is refused
    at_cut = iet.iterate(iet.right("A") - ExactScalar(spec.hard_cutoff), -k)
    with pytest.raises(SingularityTooClose):
        birkhoff_sum(iet, spec, at_cut, n)
    # just outside the cutoff the walk goes through, bit for bit
    ok = iet.iterate(iet.right("A") - ExactScalar(2 * spec.hard_cutoff), -k)
    assert birkhoff_sum(iet, spec, ok, n) == ref_sums(iet, spec, ok, n)[0]


# ---------------------------------------------------------------------------
# IntegerOrbit conversions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(IETS))
def test_integer_orbit_float_rounds_like_exact_scalar(name):
    iet = IETS[name]()
    for x in points(iet, count=3, seed=2):
        orbit = IntegerOrbit(iet, x)
        ref = x
        for _ in range(30):
            assert orbit.value() == ref
            assert orbit.to_float() == float(ref)
            i, dl, dr = orbit_gaps(orbit)
            a = iet.perm.top[i]
            assert orbit.value(dl) == ref - iet.left(a)
            assert orbit.value(dr) == iet.right(a) - ref
            assert orbit.to_float(dl) == float(ref - iet.left(a))
            orbit.step_forward()
            ref = iet.evaluate(ref)


def test_pair_of_rejects_quadratic_scalar_on_rational_orbit():
    iet = rotation_third()
    orbit = IntegerOrbit(iet, F(1, 5))
    with pytest.raises(InvalidIetError, match="mixed quadratic fields"):
        orbit.pair_of(ExactScalar(0, F(1, 5), 2))


def test_orbit_outside_domain_rejected():
    iet = golden_rotation()
    for x in (F(-1, 3), iet.total, iet.total + ExactScalar(F(1, 7))):
        with pytest.raises(IetDomainError):
            IntegerOrbit(iet, x)
