from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from ietflow.exact import (
    ExactDomainError,
    ExactScalar,
    FieldMismatchError,
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
