import math
import random
from fractions import Fraction

import mpmath
import pytest

from ietflow.exact import ExactScalar
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    constant_roof,
    golden_rotation,
    rotation_third,
)
from ietflow.iet import IntegerOrbit
from ietflow.roof import (
    BirkhoffCursor,
    FlowPoint,
    FlowStepBudgetError,
    RoofDomainError,
    RoofSpec,
    SingularityTooClose,
    birkhoff_sum,
    discrete_iterations,
    eval_roof,
    eval_roof_derivative,
    eval_roof_second_derivative,
    flow,
    roof_area,
    roof_mean,
    _advance,
)

F = Fraction


def single_log_at_zero():
    """c0 = 1, Cplus = 1 on the first interval: f(x) = 1 - log(x) there."""
    iet = rotation_third()
    cplus = {"A": F(1), "B": F(0)}
    cminus = {"A": F(0), "B": F(0)}
    return iet, RoofSpec(c0=F(1), cplus=cplus, cminus=cminus)


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


class TestEval:
    def test_value_at_half(self):
        iet, spec = single_log_at_zero()
        v = eval_roof(iet, spec, F(1, 2))
        assert v.value == pytest.approx(1 + math.log(2), rel=1e-14)
        assert v.err < 1e-12

    def test_derivative_at_half(self):
        iet, spec = single_log_at_zero()
        v = eval_roof_derivative(iet, spec, F(1, 2))
        assert v.value == pytest.approx(-2.0, rel=1e-14)

    def test_constant_roof(self):
        iet = rotation_third()
        spec = constant_roof(iet)
        for x in [F(0), F(1, 7), F(2, 3), F(9, 10)]:
            assert eval_roof(iet, spec, x).value == 1.0
            assert eval_roof_derivative(iet, spec, x).value == 0.0

    def test_exact_singular_hit_is_domain_error(self):
        iet, spec = single_log_at_zero()
        with pytest.raises(RoofDomainError):
            eval_roof(iet, spec, F(0))

    def test_hard_cutoff(self):
        iet, spec = single_log_at_zero()
        with pytest.raises(SingularityTooClose):
            eval_roof(iet, spec, F(1, 10 ** 40))
        # outside the cutoff evaluation succeeds
        v = eval_roof(iet, spec, F(1, 10 ** 20))
        assert v.value == pytest.approx(1 + 20 * math.log(10), rel=1e-12)

    def test_bounded_below_by_c0(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        rng = random.Random(1)
        for _ in range(200):
            x = F(rng.randrange(1, 10 ** 6), 10 ** 6)
            assert eval_roof(iet, spec, x).value >= 1.0


@pytest.mark.parametrize("evaluate", [eval_roof, eval_roof_derivative,
                                      eval_roof_second_derivative])
def test_float_points_are_refused(evaluate):
    """Points are exact; a float is a TypeError, never a silent Fraction."""
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    with pytest.raises(TypeError):
        evaluate(iet, spec, 0.25)
    assert evaluate(iet, spec, F(1, 4)) == evaluate(iet, spec, "1/4")


class TestSecondDerivativeAsymptotics:
    def test_left_constant_recovered(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)  # Cminus_A = 1 at r_A from the left
        r_a = iet.right("A")
        dist = F(1, 10 ** 6)
        x = r_a - ExactScalar(dist)
        val = eval_roof_second_derivative(iet, spec, x).value
        assert val * float(dist) ** 2 == pytest.approx(1.0, rel=1e-3)

    def test_right_constant_recovered(self):
        iet, spec = single_log_at_zero()  # Cplus_A = 1 at l_A = 0
        for k in [4, 5, 6]:
            dist = F(1, 10 ** k)
            val = eval_roof_second_derivative(iet, spec, dist).value
            assert val * float(dist) ** 2 == pytest.approx(1.0, rel=1e-3)


class TestAsymmetryFlags:
    def test_gap_and_flags(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet, gap=2)
        assert spec.asymmetry_gap == 2
        assert spec.is_asymmetric
        assert spec.has_log_singularity
        const = constant_roof(iet)
        assert not const.is_asymmetric
        assert not const.has_log_singularity

    def test_invalid_constants_rejected(self):
        iet = rotation_third()
        with pytest.raises(ValueError):
            RoofSpec(c0=F(0), cplus={"A": F(0), "B": F(0)},
                     cminus={"A": F(0), "B": F(0)})
        with pytest.raises(ValueError):
            RoofSpec(c0=F(1), cplus={"A": F(-1), "B": F(0)},
                     cminus={"A": F(0), "B": F(0)})


class TestBirkhoffSums:
    def test_zero_terms(self):
        iet, spec = single_log_at_zero()
        v = birkhoff_sum(iet, spec, F(1, 2), 0)
        assert v.value == 0.0 and v.err == 0.0

    def test_one_term_is_f(self):
        iet, spec = single_log_at_zero()
        x = F(2, 5)
        assert birkhoff_sum(iet, spec, x, 1).value == eval_roof(iet, spec, x).value

    def test_constant_roof_counts_steps(self):
        iet = rotation_third()
        spec = constant_roof(iet)
        x = F(1, 7)
        assert birkhoff_sum(iet, spec, x, 5).value == 5.0
        assert birkhoff_sum(iet, spec, x, -3).value == -3.0

    def test_cocycle_identity_random(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        rng = random.Random(23)
        for _ in range(1000):
            x = F(rng.randrange(1, 10 ** 6), 10 ** 6)
            m = rng.randrange(-14, 14)
            n = rng.randrange(-14, 14)
            smn = birkhoff_sum(iet, spec, x, m + n)
            sm = birkhoff_sum(iet, spec, x, m)
            tm = iet.iterate(x, m)
            sn = birkhoff_sum(iet, spec, tm, n)
            tol = smn.err + sm.err + sn.err + 1e-9
            assert abs(smn.value - (sm.value + sn.value)) <= tol

    def test_cursor_matches_direct(self):
        # reference: eval_roof / eval_roof_derivative summed term by term
        # over the ExactScalar orbit, with the cursor's radius model
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        x = F(355, 1130)

        def direct(term, n):
            pts = list(iet.orbit(x, n if n > 0 else n - 1))
            pts = pts if n > 0 else pts[1:]
            acc = err = 0.0
            for pt in pts:
                tv = term(iet, spec, pt)
                acc += tv.value
                err += tv.err + abs(acc) * 2.0 ** -52
            return (acc if n > 0 else -acc), err

        cur = BirkhoffCursor(iet, spec, x, forward=True)
        for n in [1, 5, 17, 40]:
            s = cur.sum_at(n)
            assert (s.value, s.err) == direct(eval_roof, n)
            d = cur.derivative_sum_at(n)
            assert (d.value, d.err) == direct(eval_roof_derivative, n)
        back = BirkhoffCursor(iet, spec, x, forward=False)
        for n in [1, 7, 23]:
            s = back.sum_at(n)
            assert (s.value, s.err) == direct(eval_roof, -n)

    @pytest.mark.parametrize("make_iet", [golden_rotation, bounded_type_3iet])
    def test_cursor_radii_enclose_reference(self, make_iet):
        # long Q(sqrt D) orbits: the gap x - l_a is a small difference of
        # two large parts, which a naive float conversion loses
        iet = make_iet()
        spec = asymmetric_log_roof(iet)
        x, r = F(123457, 10 ** 6), 30000
        cur = BirkhoffCursor(iet, spec, x)
        s, d = cur.sum_at(r), cur.derivative_sum_at(r)
        orbit = IntegerOrbit(iet, x)
        top = iet.perm.top

        def mpq(v):
            return mpmath.mpf(v.numerator) / v.denominator

        with mpmath.workprec(200):
            root = mpmath.sqrt(orbit.field)

            def gap(pair):
                return (pair[0] + pair[1] * root) / orbit.den

            ref = dref = mpmath.mpf(0)
            for _ in range(r):
                i, dl, dr = orbit_gaps(orbit)
                cp, cm = mpq(spec.cplus[top[i]]), mpq(spec.cminus[top[i]])
                ref += mpq(spec.c0)
                if cp:
                    ref -= cp * mpmath.log(gap(dl))
                    dref -= cp / gap(dl)
                if cm:
                    ref -= cm * mpmath.log(gap(dr))
                    dref += cm / gap(dr)
                orbit.step_forward()
            assert abs(s.value - ref) <= s.err
            assert abs(d.value - dref) <= d.err


class TestFlow:
    def test_constant_roof_flow(self):
        iet = rotation_third()
        spec = constant_roof(iet)
        x = F(1, 5)
        out = flow(iet, spec, FlowPoint(ExactScalar(x), 0.0), 2.5)
        assert out.x == iet.iterate(x, 2)
        assert out.y == pytest.approx(0.5)

    def test_time_zero_is_identity(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        p = FlowPoint(ExactScalar(F(1, 3)), 0.25)
        out = flow(iet, spec, p, 0.0)
        assert out.x == p.x and out.y == p.y

    def test_flow_round_trip(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        rng = random.Random(5)
        for _ in range(25):
            x = F(rng.randrange(1, 10 ** 6), 10 ** 6)
            # start strictly inside the fiber: points on the jump boundary
            # (y = 0) are float-unstable by one base step on the way back
            y = rng.uniform(0.1, 0.9) * eval_roof(iet, spec, x).value
            t = rng.uniform(0.1, 30.0)
            p = FlowPoint(ExactScalar(x), y)
            there = flow(iet, spec, p, t)
            back = flow(iet, spec, there, -t)
            assert back.x == p.x
            assert abs(back.y - p.y) <= 1e-9

    def test_group_law(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        p = FlowPoint(ExactScalar(F(7, 17)), 0.0)
        one = flow(iet, spec, flow(iet, spec, p, 3.7), 2.1)
        two = flow(iet, spec, p, 5.8)
        assert one.x == two.x
        assert one.y == pytest.approx(two.y, abs=1e-9)

    @pytest.mark.parametrize("y,t", [(0.0, math.nan), (0.0, math.inf),
                                     (0.0, -math.inf), (1e308, 1e308)])
    def test_non_finite_time_is_refused(self, y, t):
        # before any jump: inf would run the whole budget of 10^7 jumps
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        with pytest.raises(ValueError, match=r"flow time y \+ t = %r "
                           % (y + t)):
            _advance(iet, spec, F(1, 3), y, t)
        with pytest.raises(ValueError, match="is not finite"):
            flow(iet, spec, FlowPoint(ExactScalar(F(1, 3)), y), t)

    @pytest.mark.parametrize("forward", [True, False])
    def test_step_budget_allows_exactly_max_steps(self, forward):
        """A point that needs exactly one jump flows under max_steps=1;
        under max_steps=0 the typed error carries the budget, t and the
        (signed) jumps taken."""
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        x = F(3, 10)
        if forward:
            t = (eval_roof(iet, spec, x).value
                 + 0.5 * eval_roof(iet, spec, iet.iterate(x, 1)).value)
        else:
            t = -0.5 * eval_roof(iet, spec, iet.iterate(x, -1)).value
        sign = 1 if forward else -1
        _, _, steps = _advance(iet, spec, x, 0.0, t, max_steps=1)
        assert steps == sign
        with pytest.raises(FlowStepBudgetError) as info:
            _advance(iet, spec, x, 0.0, t, max_steps=0)
        err = info.value
        assert isinstance(err, RuntimeError)
        assert (err.max_steps, err.t, err.steps, err.pending) == \
            (0, t, sign, None)


class TestDiscreteIterations:
    def test_constant_roof(self):
        iet = rotation_third()
        spec = constant_roof(iet)
        assert discrete_iterations(iet, spec, F(1, 5), 2.5) == 2

    def test_below_first_jump(self):
        iet, spec = single_log_at_zero()
        x = F(1, 2)
        fx = eval_roof(iet, spec, x).value
        assert discrete_iterations(iet, spec, x, fx * 0.9) == 0

    def test_ergodic_average_sanity(self):
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        mean = roof_mean(iet, spec)
        rng = random.Random(11)
        for _ in range(10):
            x = F(rng.randrange(1, 10 ** 6), 10 ** 6)
            r = discrete_iterations(iet, spec, x, 100.0)
            assert abs(r * mean - 100.0) <= 20.0


class TestArea:
    def test_closed_form_vs_quadrature(self):
        scipy = pytest.importorskip("scipy.integrate")
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        r_a = float(iet.right("A"))

        total, err = scipy.quad(
            lambda u: 1.0 - math.log(r_a - u), 0.0, r_a, points=[r_a],
            epsabs=1e-13, limit=200)
        total += 1.0 - r_a  # constant part on the second interval
        assert roof_area(iet, spec) == pytest.approx(total, abs=1e-10)

    def test_analytic_value(self):
        # area = c0 + lam_A (1 - log lam_A) for the single left singularity
        iet = golden_rotation()
        spec = asymmetric_log_roof(iet)
        lam = float(iet.length("A"))
        expect = 1.0 + lam * (1.0 - math.log(lam))
        assert roof_area(iet, spec) == pytest.approx(expect, rel=1e-14)
