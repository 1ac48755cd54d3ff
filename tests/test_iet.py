import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietflow.exact import ExactScalar
from ietflow.iet import (
    Iet,
    IetDomainError,
    IntegerOrbit,
    InvalidIetError,
    Permutation,
    first_return_map,
    keane_check,
)
from iet_reference import ReferenceMap, probe_points

F = Fraction


def rotation_third():
    # 2-IET realizing x -> x + 1/3 mod 1
    perm = Permutation(["A", "B"], ["B", "A"])
    return Iet(perm, [F(2, 3), F(1, 3)])


def golden_rotation():
    perm = Permutation(["A", "B"], ["B", "A"])
    lam_a = ExactScalar(F(3, 2), F(-1, 2), 5)   # (3-sqrt5)/2
    lam_b = ExactScalar(F(-1, 2), F(1, 2), 5)   # (sqrt5-1)/2
    return Iet(perm, [lam_a, lam_b])


def symmetric_3iet(lengths=(F(1, 2), F(1, 3), F(1, 6))):
    perm = Permutation(["A", "B", "C"], ["C", "B", "A"])
    return Iet(perm, list(lengths))


class TestPermutation:
    def test_irreducibility(self):
        assert Permutation(["A", "B"], ["B", "A"]).irreducible
        assert Permutation(["A", "B", "C"], ["C", "B", "A"]).irreducible
        assert not Permutation(["A", "B"], ["A", "B"]).irreducible
        assert not Permutation(["A", "B", "C"], ["B", "A", "C"]).irreducible

    def test_positions(self):
        p = Permutation(["A", "B", "C"], ["C", "B", "A"])
        assert p.top_position("A") == 1
        assert p.bottom_position("A") == 3

    def test_bad_rows(self):
        with pytest.raises(InvalidIetError):
            Permutation(["A", "B"], ["A", "C"])
        with pytest.raises(InvalidIetError):
            Permutation(["A"], ["A"])


class TestEvaluate:
    def test_rotation_formula_first_branch(self):
        # x = 1/2 -> 1/2 + 1/3 = 5/6
        t = rotation_third()
        assert t.evaluate(F(1, 2)) == ExactScalar(F(5, 6))

    def test_rotation_formula_second_branch(self):
        # x = 5/6 -> 5/6 - 2/3 = 1/6
        t = rotation_third()
        assert t.evaluate(F(5, 6)) == ExactScalar(F(1, 6))

    def test_identity_rearrangement(self):
        perm = Permutation(["A", "B", "C"], ["A", "B", "C"])
        t = Iet(perm, [F(1, 4), F(1, 4), F(1, 2)])
        for x in [F(0), F(1, 5), F(2, 3), F(99, 100)]:
            assert t.evaluate(x) == ExactScalar(x)

    def test_half_open_convention(self):
        # x = l_B belongs to I_B
        t = rotation_third()
        assert t.interval_of(ExactScalar(F(2, 3))) == "B"
        assert t.evaluate(F(2, 3)) == ExactScalar(0)

    def test_domain_error(self):
        t = rotation_third()
        with pytest.raises(IetDomainError):
            t.evaluate(F(1))
        with pytest.raises(IetDomainError):
            t.evaluate(F(-1, 10))

    def test_endpoint_formula(self):
        # l_a = sum of lengths of intervals before a in top order
        t = symmetric_3iet()
        assert t.left("A") == 0
        assert t.left("B") == ExactScalar(F(1, 2))
        assert t.left("C") == ExactScalar(F(5, 6))
        assert t.right("C") == t.total == 1


class TestBijection:
    def test_image_partition(self):
        for t in [rotation_third(), symmetric_3iet(), golden_rotation()]:
            assert t.check_bijection()

    def test_isometry_within_interval(self):
        t = symmetric_3iet()
        x, y = F(1, 10), F(2, 10)
        assert abs(t.evaluate(x) - t.evaluate(y)) == ExactScalar(F(1, 10))


class TestInvert:
    def test_rotation_inverse_lengths(self):
        # rotation by 1/3 inverts to rotation by 2/3: lengths (1/3, 2/3)
        # reading the exchanged intervals left to right
        inv = rotation_third().invert()
        in_top_order = [inv.length(a).a for a in inv.perm.top]
        assert in_top_order == [F(1, 3), F(2, 3)]

    def test_round_trip_on_rational_samples(self):
        t = rotation_third()
        inv = t.invert()
        for k in range(1000):
            x = F(k, 1000)
            assert inv.evaluate(t.evaluate(x)) == ExactScalar(x)
            assert t.evaluate(inv.evaluate(x)) == ExactScalar(x)

    def test_identity_inverts_to_identity(self):
        perm = Permutation(["A", "B"], ["A", "B"])
        t = Iet(perm, [F(1, 2), F(1, 2)])
        inv = t.invert()
        for x in [F(0), F(1, 3), F(3, 4)]:
            assert inv.evaluate(x) == ExactScalar(x)

    def test_symmetric_3iet_composition(self):
        t = symmetric_3iet()
        inv = t.invert()
        for k in range(0, 60):
            x = F(k, 60)
            assert inv.evaluate(t.evaluate(x)) == ExactScalar(x)

    def test_inverse_matches_evaluate_inverse(self):
        t = symmetric_3iet()
        inv = t.invert()
        for k in range(0, 30):
            x = F(k, 30)
            assert inv.evaluate(x) == t.evaluate_inverse(ExactScalar(x))


class TestKeane:
    def test_rational_rotation_collides(self):
        report = keane_check(rotation_third(), depth=10)
        assert not report.satisfied_to_depth
        assert report.colliding_pair is not None

    def test_golden_rotation_no_collision_depth_100(self):
        report = keane_check(golden_rotation(), depth=100)
        assert report.satisfied_to_depth
        assert report.depth == 100

    def test_depth_one_distinct_discontinuities(self):
        t = symmetric_3iet((F(3, 10), F(3, 10), F(4, 10)))
        report = keane_check(t, depth=1)
        assert report.satisfied_to_depth

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            keane_check(rotation_third(), depth=0)


class TestRotationReduction:
    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_2iet_acts_as_rotation(self, k):
        t = rotation_third()
        x = F(k, 1000)
        expected = (x + F(1, 3)) % 1
        assert t.evaluate(x) == ExactScalar(expected)


def test_first_return_oracle_trivial():
    # return to the full interval is always one step
    t = symmetric_3iet()
    hit = first_return_map(t, t.total)
    y, n = hit(ExactScalar(F(1, 4)))
    assert n == 1
    assert y == t.evaluate(F(1, 4))


def test_orbit_generator():
    # x, Tx, T^2 x and x, T^-1 x as the one exact walker steps them, and
    # as the reference's orbits
    t = rotation_third()
    for n, want in ((3, [0, F(1, 3), F(2, 3)]), (-2, [0, F(2, 3)])):
        orbit = IntegerOrbit(t, F(0))
        step = orbit.step_forward if n > 0 else orbit.step_backward
        pts = []
        for _ in range(abs(n)):
            pts.append(orbit.value())
            step()
        assert pts == [ExactScalar(x) for x in want]
        assert pts == list(ReferenceMap(t).orbit(F(0), n))


def fraction_geometry(perm, lengths):
    """Reference geometry from Fraction lengths: left endpoints in top
    and bottom order (label -> Fraction)."""
    length = dict(zip(perm.alphabet, lengths))
    lefts = []
    for row in (perm.top, perm.bottom):
        x, left = F(0), {}
        for a in row:
            left[a] = x
            x += length[a]
        lefts.append(left)
    return length, lefts[0], lefts[1]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_lazy_geometry_matches_fraction_reference(seed):
    # the IETs of a Rauzy-Veech trace are built from lengths alone and
    # read their endpoints and translations from integer tables
    from ietflow.rauzy import InductionTrace, RVUndefinedError

    rng = random.Random(seed)
    d = rng.choice([2, 3, 4, 5])
    alphabet = "ABCDE"[:d]
    while True:
        bottom = rng.sample(alphabet, d)
        perm = Permutation(alphabet, bottom)
        if perm.irreducible:
            break
    den = rng.choice([1, 7, 360, 10 ** 6])
    trace = InductionTrace(Iet(perm, [F(rng.randrange(1, 10 ** 6), den)
                                      for _ in range(d)]))
    try:
        trace.extend(12)
    except RVUndefinedError:
        pass
    for n in range(trace.depth + 1):
        iet = trace.iet(n)
        lengths = [lam.a for lam in iet.lengths]
        length, left, left_b = fraction_geometry(iet.perm, lengths)
        assert iet.total == ExactScalar(sum(lengths))
        # every table entry is an integer pair (P, 0) over D on Q
        den, field, *tables = iet.integer_tables()
        assert field is None
        top, bottom = iet.perm.top, iet.perm.bottom
        want = ([left[a] + length[a] for a in top], [left[a] for a in top],
                [left_b[a] - left[a] for a in top],
                [left_b[a] + length[a] for a in bottom],
                [left_b[a] - left[a] for a in bottom])
        for table, values in zip(tables, want):
            assert [F(p, den) for p, _ in table] == values
            assert all(type(p) is int and q == 0 for p, q in table)
        for a in alphabet:
            assert iet.left(a) == ExactScalar(left[a])
            assert iet.right(a) == ExactScalar(left[a] + length[a])
            assert iet.left_image(a) == ExactScalar(left_b[a])
            assert iet.right_image(a) == ExactScalar(left_b[a] + length[a])
            assert iet.translation(a) == ExactScalar(left_b[a] - left[a])
        # points on every cut, and random points
        total = sum(lengths)
        points = list(left.values()) + [total * F(rng.randrange(1000), 1000)
                                        for _ in range(10)]
        for x in points:
            want = next(a for a in iet.perm.top
                        if left[a] <= x < left[a] + length[a])
            assert iet.interval_of(ExactScalar(x)) == want
            want_b = next(a for a in iet.perm.bottom
                          if left_b[a] <= x < left_b[a] + length[a])
            j = IntegerOrbit(iet, x).image_interval_index()
            assert iet.perm.bottom[j] == want_b
            assert iet.evaluate(x) == ExactScalar(
                x + left_b[want] - left[want])
        with pytest.raises(IetDomainError):
            iet.interval_of(ExactScalar(total))


def test_lazy_geometry_on_quadratic_lengths():
    # golden trace: endpoints as (a, b) Fraction pairs of a + b sqrt(5)
    from ietflow.rauzy import InductionTrace

    trace = InductionTrace(golden_rotation()).extend(10)
    for n in range(11):
        iet = trace.iet(n)
        # every table entry is an integer pair (P, Q) over D
        den, field, *tables = iet.integer_tables()
        assert field == 5
        assert all(type(p) is int and type(q) is int
                   for table in tables for p, q in table)
        assert [F(p, den) + F(q, den) * ExactScalar(0, 1, 5)
                for p, q in tables[1]] == [iet.left(a) for a in iet.perm.top]
        lengths = [(lam.a, lam.b) for lam in iet.lengths]
        length = dict(zip(iet.perm.alphabet, lengths))
        for row, get in ((iet.perm.top, iet.left),
                         (iet.perm.bottom, iet.left_image)):
            x = (F(0), F(0))
            for a in row:
                assert (get(a).a, get(a).b) == x
                x = (x[0] + length[a][0], x[1] + length[a][1])
        for a in iet.perm.alphabet:
            assert iet.right(a) == iet.left(a) + iet.length(a)
            assert iet.right_image(a) == iet.left_image(a) + iet.length(a)
            assert iet.translation(a) == iet.left_image(a) - iet.left(a)
            mid = (iet.left(a) + iet.right(a)) / 2
            assert iet.interval_of(mid) == a
            assert iet.interval_of(iet.left(a)) == a


@pytest.mark.parametrize("make", [rotation_third, symmetric_3iet,
                                  golden_rotation])
def test_kept_names_match_the_reference(make):
    # `evaluate`, `evaluate_inverse` and `interval_of` are one IntegerOrbit
    # step or locate each, tied here to the ExactScalar reference on Q and
    # Q(sqrt 5) and, on Q, at a Q(sqrt 2) point
    iet = make()
    ref = ReferenceMap(iet)
    for x in probe_points(iet):
        assert iet.evaluate(x) == ref.evaluate(x), x
        assert iet.evaluate_inverse(x) == ref.evaluate_inverse(x), x
        assert iet.interval_of(x) == ref.interval_of(x), x
    for x in (ExactScalar(F(-1, 10 ** 30)), iet.total):
        for name in ("evaluate", "evaluate_inverse", "interval_of"):
            with pytest.raises(IetDomainError):
                getattr(iet, name)(x)
            with pytest.raises(IetDomainError):
                getattr(ref, name)(x)


def test_kept_names_refuse_a_point_of_another_field():
    iet = golden_rotation()
    x = ExactScalar(F(1, 4), F(1, 4), 2)
    for name in ("evaluate", "evaluate_inverse", "interval_of"):
        with pytest.raises(InvalidIetError, match="mixed quadratic fields"):
            getattr(iet, name)(x)
