import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ietflow.exact import (
    ExactDomainError,
    ExactScalar,
    FieldMismatchError,
    as_scalar,
    exact_max,
    exact_min,
    is_squarefree,
    quadratic_float,
)


def quad(a, b, d=5):
    return ExactScalar(Fraction(a), Fraction(b), d)


GOLDEN = quad(Fraction(-1, 2), Fraction(1, 2))  # (sqrt(5)-1)/2


class TestRationals:
    def test_basic_arithmetic(self):
        x = ExactScalar(Fraction(2, 3))
        y = ExactScalar(Fraction(1, 6))
        assert (x + y) == ExactScalar(Fraction(5, 6))
        assert (x - y) == ExactScalar(Fraction(1, 2))
        assert (x * y) == ExactScalar(Fraction(1, 9))
        assert (x / y) == ExactScalar(4)

    def test_comparisons(self):
        assert ExactScalar(Fraction(1, 3)) < ExactScalar(Fraction(1, 2))
        assert ExactScalar(2) >= 2
        assert ExactScalar(Fraction(-1, 7)).sign() == -1
        assert ExactScalar(0).sign() == 0

    def test_int_coercion(self):
        assert ExactScalar(3) + 1 == 4
        assert 1 - ExactScalar(Fraction(1, 4)) == ExactScalar(Fraction(3, 4))


class TestQuadratic:
    def test_golden_identity(self):
        # x = (sqrt(5)-1)/2 satisfies x^2 + x - 1 = 0
        assert (GOLDEN * GOLDEN + GOLDEN - 1).is_zero()

    def test_sign_of_mixed_terms(self):
        # 7 - 3 sqrt(5) < 0 since 49 < 45... no: 49 > 45, so positive
        assert quad(7, -3).sign() == 1
        assert quad(6, -3).sign() == -1  # 36 < 45
        assert quad(-7, 3).sign() == -1
        assert quad(-6, 3).sign() == 1

    def test_division(self):
        x = quad(1, 1)
        assert (x / x) == 1
        inv = x.inverse()
        assert (x * inv) == 1

    def test_float_and_bracket(self):
        lo, hi = GOLDEN.bracket(bits=100)
        assert lo <= Fraction(float(GOLDEN)).limit_denominator(10 ** 12) <= hi or (
            float(lo) <= float(GOLDEN) <= float(hi))
        assert hi - lo < Fraction(1, 2 ** 90)
        assert abs(float(GOLDEN) - 0.6180339887498949) < 1e-15

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("n", [1, 5, 20, 40])
    def test_float_correctly_rounded_under_cancellation(self, d, n):
        # (a - b sqrt(d)) / c with a/b a continued-fraction convergent of
        # sqrt(d): the two parts agree to about 2n digits
        h0, h1, k0, k1 = 1, 1 if d == 2 else 2, 0, 1
        step = 2 if d == 2 else 4
        for _ in range(n):
            h0, h1 = h1, step * h1 + h0
            k0, k1 = k1, step * k1 + k0
        x = quad(Fraction(h1, 7), Fraction(-k1, 7), d)
        with mpmath.workprec(400):
            ref = float((h1 - k1 * mpmath.sqrt(d)) / 7)
        assert float(x) == ref
        assert float(-x) == -ref
        # the float depends on the value, not on the denominator carrying it
        assert quadratic_float(3 * h1, -3 * k1, 21, d) == ref

    @pytest.mark.parametrize("e", [900, 1000, 1022])
    @pytest.mark.parametrize("d", [2, 5])
    def test_float_correctly_rounded_near_top_of_float_range(self, e, d):
        # values in [2^e, 2^(e+1)) dominated by p, by q sqrt(d), or by
        # neither, against a 1200-bit reference rounded by float(Fraction)
        rng = random.Random(e * 10 + d)
        for _ in range(12):
            den = rng.randrange(1, 1 << 20)
            q = rng.choice([1, -1]) * rng.randrange(1, 1 << 64)
            cases = [(rng.randrange(den << e, den << (e + 1)), q),
                     (q, (den << e) // math.isqrt(d) + rng.randrange(1 << 40)),
                     (rng.randrange(den << (e - 1), den << e),
                      (den << (e - 2)) // math.isqrt(d) + 1)]
            for p, qq in cases:
                with mpmath.workprec(1200):
                    man, exp = (mpmath.mpf(p) + qq * mpmath.sqrt(d)).man_exp
                ref = float(Fraction(man) * Fraction(2) ** exp / den)
                assert quadratic_float(p, qq, den, d) == ref
                assert quadratic_float(-p, -qq, den, d) == -ref

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("n", [300, 600])
    def test_float_correctly_rounded_with_parts_beyond_float_range(self, d,
                                                                   n):
        # (h - k sqrt(d)) 2^m / 7 with h/k a convergent of sqrt(d): a value
        # near 1 carried by parts of 2^760 to 2^2600 that cancel, so the
        # bracket quotients pass the float range before the bracket is
        # narrow enough; with q > 0 only its upper end does
        h, k = (int(v) for v in convergent_gaps(d, n)[-1])
        m = h.bit_length()
        with mpmath.workprec(2 * m + 200):
            ref = float(mpmath.ldexp(h + k * mpmath.sqrt(d), m) / 7)
        assert 0.01 < abs(ref) < 100
        assert quadratic_float(h << m, k << m, 7, d) == ref
        assert quadratic_float(-h << m, -k << m, 7, d) == -ref

    @pytest.mark.parametrize("p,q,den,d", [
        (1 << 1024, 1, 1, 2),
        (-(1 << 1030), 1 << 1000, 7, 5),
        (0, 1 << 1024, 1, 2),
    ])
    def test_float_overflow_beyond_float_range(self, p, q, den, d):
        with pytest.raises(OverflowError):
            quadratic_float(p, q, den, d)

    def test_mixed_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            quad(1, 1, 2) + quad(1, 1, 5)
        # rationals embed in any quadratic field
        assert quad(1, 1, 2) + 1 == quad(2, 1, 2)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ExactDomainError):
            ExactScalar(0, 1, 4)
        with pytest.raises(ExactDomainError):
            ExactScalar(0, 1, 12)
        with pytest.raises(ExactDomainError):
            ExactScalar(0, 1, 1)

    def test_rational_collapse(self):
        z = quad(3, 1) - quad(0, 1)
        assert z.is_rational
        assert z.d is None


def test_as_scalar_takes_exact_inputs_only():
    from ietflow.iet import Permutation
    from ietflow.intervals import IntervalUnion
    from ietflow.zippered import SuspensionData

    assert as_scalar(GOLDEN) is GOLDEN
    assert as_scalar(3) == as_scalar(Fraction(6, 2)) == as_scalar("3")
    assert as_scalar("(-1+1*sqrt(5))/2") == GOLDEN
    for bad in (0.5, None, [1]):
        with pytest.raises(TypeError):
            as_scalar(bad)
    # interval unions and suspension data no longer take floats
    with pytest.raises(TypeError):
        IntervalUnion([(0.25, Fraction(1, 2))])
    with pytest.raises(TypeError):
        SuspensionData(Permutation("AB", "BA"), [1.0, -1])


class TestSerialization:
    @pytest.mark.parametrize("text", ["2/3", "-7/5", "42", "0"])
    def test_rational_round_trip(self, text):
        s = ExactScalar.parse(text)
        assert ExactScalar.parse(s.to_string()) == s

    @pytest.mark.parametrize("text,value", [
        ("(-1+1*sqrt(5))/2", GOLDEN),
        ("(3-1*sqrt(5))/2", quad(Fraction(3, 2), Fraction(-1, 2))),
    ])
    def test_quadratic_parse(self, text, value):
        assert ExactScalar.parse(text) == value

    def test_quadratic_round_trip(self):
        x = quad(Fraction(3, 4), Fraction(-5, 6), 7)
        assert ExactScalar.parse(x.to_string()) == x

    def test_canonical_gcd_reduction(self):
        x = quad(Fraction(2, 4), Fraction(6, 4), 3)
        assert x.to_string() == "(1+3*sqrt(3))/2"


@given(st.fractions(), st.fractions())
def test_rational_field_random(a, b):
    x = ExactScalar(a)
    y = ExactScalar(b)
    assert float(x + y) == pytest.approx(float(a + b), abs=1e-9)
    assert (x + y) - y == x
    assert (x * y) == ExactScalar(a * b)


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_quadratic_ring_random(a1, b1, a2, b2):
    x = ExactScalar(a1, b1, 5) if b1 else ExactScalar(a1)
    y = ExactScalar(a2, b2, 5) if b2 else ExactScalar(a2)
    s = x + y
    p = x * y
    fx, fy = float(x), float(y)
    assert float(s) == pytest.approx(fx + fy, abs=1e-6, rel=1e-9)
    assert float(p) == pytest.approx(fx * fy, abs=1e-6, rel=1e-9)
    # exact sign agrees with float sign away from zero
    if abs(fx) > 1e-6:
        assert x.sign() == (1 if fx > 0 else -1)


@given(st.lists(st.fractions(min_value=-50, max_value=50), min_size=1))
def test_min_max(values):
    xs = [ExactScalar(v) for v in values]
    assert exact_min(xs) == ExactScalar(min(values))
    assert exact_max(xs) == ExactScalar(max(values))


def test_squarefree():
    assert is_squarefree(2) and is_squarefree(5) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(18) and not is_squarefree(0)


# ---------------------------------------------------------------------------
# Differential test of ExactScalar against plain Fraction arithmetic
# ---------------------------------------------------------------------------

def ref_sign(a, b, d):
    """Sign of a + b sqrt(d) from a 200-bit rational bracket of sqrt(d)."""
    if not b:
        return (a > 0) - (a < 0)
    r = math.isqrt(d << 400)
    lo = a + b * Fraction(r, 1 << 200)
    hi = a + b * Fraction(r + 1, 1 << 200)
    lo, hi = min(lo, hi), max(lo, hi)
    # a nonzero value of these sizes is never within 2^-190 of zero
    assert lo > 0 or hi < 0
    return 1 if lo > 0 else -1


def convergent_gaps(d, count=8):
    """(h - k sqrt(d)): ever smaller differences from continued-fraction
    convergents h/k of sqrt(d)."""
    h0, h1, k0, k1 = 1, math.isqrt(d), 0, 1
    step = 2 * math.isqrt(d)
    out = []
    for _ in range(count):
        out.append((Fraction(h1), Fraction(-k1)))
        h0, h1 = h1, step * h1 + h0
        k0, k1 = k1, step * k1 + k0
    return out


SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def scalar_pairs(draw):
    """Two (a, b, d) triples over Q, Q(sqrt2) or Q(sqrt5); b == 0 gives a
    rational, so rational/quadratic pairs are mixed in.  The second is
    often the first plus a tiny convergent difference, so comparisons
    decide on cancelling components."""
    def one(d):
        a = draw(SMALL)
        b = draw(st.just(Fraction(0)) | SMALL) if d else Fraction(0)
        return (a, b, d if b else None)

    d1 = draw(st.sampled_from([None, 2, 5]))
    d2 = draw(st.sampled_from([None, 2, 5, d1]))
    x = one(d1)
    near = d1 and draw(st.booleans())
    if near:
        h, k = draw(st.sampled_from(convergent_gaps(d1)))
        c = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
        b = x[1] + k / c
        y = (x[0] + h / c, b, d1 if b else None)
    else:
        y = one(d2)
    return x, y


def make(t):
    a, b, d = t
    return ExactScalar(a, b, d) if b else ExactScalar(a)


def assert_canonical(s):
    assert type(s.a) is Fraction and type(s.b) is Fraction
    assert (s.d is None) == (s.b == 0)


@given(scalar_pairs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_scalar_ops_match_fraction_reference(pair):
    (a1, b1, d1), (a2, b2, d2) = pair
    x, y = make(pair[0]), make(pair[1])
    for s in (x, y):
        assert_canonical(s)
        assert s.sign() == ref_sign(s.a, s.b, s.d)
        assert hash(s) == (hash(s.a) if s.d is None
                           else hash((s.a, s.b, s.d)))
    assert_canonical(-x)
    assert (-x).a == -a1 and (-x).b == -b1
    if d1 and d2 and d1 != d2:
        for op in (lambda: x + y, lambda: x - y, lambda: x * y,
                   lambda: x < y, lambda: x <= y, lambda: x > y,
                   lambda: x >= y):
            with pytest.raises(FieldMismatchError):
                op()
        assert x != y and not x == y
        return
    d = d1 or d2
    sums = {"+": (x + y, a1 + a2, b1 + b2),
            "-": (x - y, a1 - a2, b1 - b2),
            "*": (x * y, a1 * a2 + b1 * b2 * (d or 0), a1 * b2 + b1 * a2)}
    for name, (got, a, b) in sums.items():
        assert_canonical(got)
        assert (got.a, got.b) == (a, b), name
        assert got.d == (d if b else None), name
    s = ref_sign(a1 - a2, b1 - b2, d)
    assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == \
        (s < 0, s <= 0, s > 0, s >= 0, s == 0, s != 0)
    if s == 0:
        assert hash(x) == hash(y)
    # ints on either side coerce to rationals
    assert (x < 3) == (ref_sign(a1 - 3, b1, d1) < 0)
    assert (2 - x) == make((2 - a1, -b1, d1))


def assert_integer_form(s):
    assert all(type(v) is int for v in (s.p, s.q, s.den))
    assert s.den > 0
    assert math.gcd(s.p, s.q, s.den) == 1
    assert (s.q == 0) == (s.d is None)


@given(scalar_pairs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_operation_results_keep_integer_form(pair):
    x, y = make(pair[0]), make(pair[1])
    results = [x, y, -x, abs(x), 2 - x, x * 3, 3 / (x * x + 1), x ** 3]
    if not (x.d and y.d and x.d != y.d):
        results += [x + y, x - y, x * y]
        if y:
            assert (x / y) * y == x
            results.append(x / y)
    if x:
        assert x * x.inverse() == 1
        results.append(x.inverse())
    for s in results:
        assert_integer_form(s)
        assert (s.a, s.b) == (Fraction(s.p, s.den), Fraction(s.q, s.den))


@pytest.mark.parametrize("text", ["1/0", "-3/0", "(1+1*sqrt(5))/0"])
def test_parse_zero_denominator_is_a_domain_error(text):
    with pytest.raises(ExactDomainError):
        ExactScalar.parse(text)


def test_scalar_rejects_float_comparison():
    for x in (ExactScalar(Fraction(1, 3)), GOLDEN):
        for op in (lambda: x < 0.5, lambda: x >= 0.5, lambda: 0.5 < x):
            with pytest.raises(TypeError):
                op()
        assert x.__add__(0.5) is NotImplemented
        assert x.__mul__(0.5) is NotImplemented
        assert x.__eq__(0.5) is NotImplemented
    with pytest.raises(FieldMismatchError):
        quad(1, 1, 2) < quad(1, 1, 5)
