"""Exact scalars: rationals and elements of a real quadratic field Q(sqrt(D)).

Every length, endpoint and suspension coordinate in this package is an
ExactScalar, so that partition checks, cocycle identities and first-return
times can be asserted with exact equality rather than tolerances.  A scalar
is stored as a + b*sqrt(D) with a, b rational (gcd-reduced Fractions) and D
a square-free integer > 1; b == 0 is the pure rational case and carries no
field marker.  Scalars from different quadratic fields cannot be combined:
comparisons would no longer be decidable by integer arithmetic alone.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction


class FieldMismatchError(TypeError):
    """Raised when combining scalars from distinct quadratic fields."""


class ExactDomainError(ValueError):
    """Raised for out-of-domain exact operations (e.g. division by zero)."""


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


def _sqrt_bracket(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket lo <= sqrt(d) <= hi with hi - lo <= 2**-bits."""
    scale = 1 << bits
    lo_num = math.isqrt(d * scale * scale)
    lo = Fraction(lo_num, scale)
    hi = Fraction(lo_num + 1, scale)
    return lo, hi


@functools.lru_cache(maxsize=None)
def _scaled_root(d: int, k: int) -> int:
    """floor(sqrt(d) * 2**k)."""
    return math.isqrt(d << 2 * k)


def quadratic_float(p: int, q: int, den: int, d) -> float:
    """float((p + q sqrt(d)) / den), correctly rounded, for den > 0.

    With r = floor(sqrt(d) 2^k), (p + q sqrt(d)) 2^k lies strictly between
    x = p 2^k + q r and x + q, so the value times 2^(k - s) lies between
    the floor quotients by den 2^s of the lower end and of the upper end
    plus one.  Rounding is monotone: once both bounds round to one float,
    that float is the value times 2^(k - s) rounded.  k doubles until they
    do (an irrational value is never a rounding tie), so the result depends
    on the value alone, however far p and q sqrt(d) cancel and whatever
    denominator carries them.  The shift s starts at 0 and grows only when
    a quotient passes the float range, bringing it back to about 2^128; a
    value whose own float is not finite raises OverflowError, as float()
    does on a Fraction.
    """
    if not q:
        return p / den
    k, s = 128, 0
    while True:
        x = (p << k) + q * _scaled_root(d, k)
        lo, hi = (x, x + q) if q > 0 else (x + q, x)
        if s:
            lo, hi = lo >> s, hi >> s
        try:
            f = float(lo // den)
            done = f == float(hi // den + 1)
        except OverflowError:
            s += (max(-lo, hi) // den).bit_length() - 128
            continue
        if done:
            return math.ldexp(f, s - k)
        k *= 2


def _sign(p: int, q: int, d) -> int:
    """Sign of p + q sqrt(d) for integers p, q and a square-free d > 1
    (d is not read when q == 0).

    The one sign rule of the package.  With p and q of opposite signs the
    sign follows the larger of p^2 and q^2 d; they are never equal, since
    sqrt(d) is irrational.
    """
    if not q:
        return (p > 0) - (p < 0)
    if not p or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    lhs = p * p
    rhs = q * q * d
    if lhs == rhs:
        raise ExactDomainError("inconsistent quadratic scalar")
    return (1 if p > 0 else -1) if lhs > rhs else (1 if q > 0 else -1)


#: The b of every rational scalar.
_FZERO = Fraction(0)

_RAT_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")
_QUAD_RE = re.compile(
    r"^\s*\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)"
    r"\s*/\s*(\d+)\s*$"
)


class ExactScalar:
    """Element a + b*sqrt(d) of Q (b == 0) or of Q(sqrt(d)).

    Invariant: a and b are Fractions, and d is None exactly when b == 0
    (then b is the shared Fraction(0)); otherwise d is a square-free
    integer > 1.  Results of arithmetic keep it without re-checking: a sum
    or product of two rationals is one Fraction operation on a, and a
    quadratic result whose b cancels collapses to the rational case.

    Ordering is decided on integers.  Two rationals compare by
    cross-multiplying numerators and denominators; otherwise the
    difference of the components, scaled to integers p + q sqrt(d) by the
    positive product of their denominators, goes to the module's one sign
    rule `_sign`, which `sign()` uses as well.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=None):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if not b:
            b = _FZERO
            d = None
        else:
            if d is None:
                raise ExactDomainError("quadratic part requires a radicand d")
            d = int(d)
            if d <= 1 or not is_squarefree(d):
                raise ExactDomainError(
                    "radicand must be a square-free integer > 1, got %r" % (d,)
                )
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, *args):
        raise AttributeError("ExactScalar is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def rational(cls, p, q=1) -> "ExactScalar":
        return cls(Fraction(p, q))

    @classmethod
    def quadratic(cls, a, b, d) -> "ExactScalar":
        return cls(Fraction(a), Fraction(b), d)

    @classmethod
    def parse(cls, text: str) -> "ExactScalar":
        m = _RAT_RE.match(text)
        if m:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
            return cls(Fraction(num, den))
        m = _QUAD_RE.match(text)
        if m:
            a = int(m.group(1))
            sign = -1 if m.group(2) == "-" else 1
            b = sign * int(m.group(3))
            d = int(m.group(4))
            c = int(m.group(5))
            return cls(Fraction(a, c), Fraction(b, c), d)
        raise ExactDomainError("cannot parse exact scalar %r" % (text,))

    # -- field bookkeeping --------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def _join_field(self, other: "ExactScalar"):
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise FieldMismatchError(
            "cannot combine Q(sqrt(%d)) with Q(sqrt(%d))" % (self.d, other.d)
        )

    @staticmethod
    def _coerce(value) -> "ExactScalar":
        if type(value) is ExactScalar or isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar(value)
        raise TypeError("cannot coerce %r to ExactScalar" % (value,))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.d is None and other.d is None:
            return _make(self.a + other.a)
        d = self._join_field(other)
        return _make(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        if self.d is None:
            return _make(-self.a)
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.d is None and other.d is None:
            return _make(self.a - other.a)
        d = self._join_field(other)
        return _make(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.d is None and other.d is None:
            return _make(self.a * other.a)
        d = self._join_field(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return _make(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.is_zero():
            raise ExactDomainError("division by zero")
        if self.d is None:
            return _make(1 / self.a)
        norm = self.a * self.a - self.b * self.b * self.d
        # norm == 0 would mean sqrt(d) rational, impossible for square-free d>1
        return _make(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ExactScalar(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact sign and ordering ----------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def sign(self) -> int:
        a, b = self.a, self.b
        return _sign(a.numerator * b.denominator, b.numerator * a.denominator,
                     self.d)

    def _cmp(self, other) -> int:
        """Sign of self - other, with no intermediate scalar."""
        other = self._coerce(other)
        a, c = self.a, other.a
        if self.d is None and other.d is None:
            x = a.numerator * c.denominator
            y = c.numerator * a.denominator
            return (x > y) - (x < y)
        d = self._join_field(other)
        b, e = self.b, other.b
        ad, cd, bd, ed = a.denominator, c.denominator, b.denominator, \
            e.denominator
        return _sign((a.numerator * cd - c.numerator * ad) * bd * ed,
                     (b.numerator * ed - e.numerator * bd) * ad * cd, d)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.d is not None and other.d is not None and self.d != other.d:
            return False
        return self.a == other.a and self.b == other.b

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.d is None:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    # -- conversions -----------------------------------------------------

    def __float__(self):
        if self.d is None:
            return float(self.a)
        a, b = self.a, self.b
        den = math.lcm(a.denominator, b.denominator)
        return quadratic_float(a.numerator * (den // a.denominator),
                               b.numerator * (den // b.denominator), den,
                               self.d)

    def bracket(self, bits: int = 80) -> tuple[Fraction, Fraction]:
        """Rigorous rational bracket [lo, hi] containing the value."""
        if self.d is None:
            return self.a, self.a
        lo_s, hi_s = _sqrt_bracket(self.d, bits)
        if self.b > 0:
            return self.a + self.b * lo_s, self.a + self.b * hi_s
        return self.a + self.b * hi_s, self.a + self.b * lo_s

    def to_fraction(self, bits: int = 80) -> Fraction:
        lo, hi = self.bracket(bits)
        return (lo + hi) / 2

    # -- printing ----------------------------------------------------------

    def to_string(self) -> str:
        if self.d is None:
            if self.a.denominator == 1:
                return str(self.a.numerator)
            return "%d/%d" % (self.a.numerator, self.a.denominator)
        c = math.lcm(self.a.denominator, self.b.denominator)
        an = self.a.numerator * (c // self.a.denominator)
        bn = self.b.numerator * (c // self.b.denominator)
        g = math.gcd(math.gcd(abs(an), abs(bn)), c)
        an, bn, c = an // g, bn // g, c // g
        sign = "+" if bn >= 0 else "-"
        return "(%d%s%d*sqrt(%d))/%d" % (an, sign, abs(bn), self.d, c)

    def __repr__(self):
        return "ExactScalar(%s)" % self.to_string()


_new = object.__new__
_set_a = ExactScalar.a.__set__
_set_b = ExactScalar.b.__set__
_set_d = ExactScalar.d.__set__


def _make(a: Fraction, b: Fraction = _FZERO, d=None) -> ExactScalar:
    """The scalar a + b sqrt(d) from Fractions a, b whose field d is
    already checked: no Fraction conversion and no radicand test; b == 0
    gives the rational a."""
    s = _new(ExactScalar)
    _set_a(s, a)
    if d is not None and b:
        _set_b(s, b)
        _set_d(s, d)
    else:
        _set_b(s, _FZERO)
        _set_d(s, None)
    return s


def as_scalar(v) -> ExactScalar:
    """An ExactScalar from an ExactScalar, int, Fraction or str (parsed by
    ExactScalar.parse); TypeError for anything else, floats included."""
    if isinstance(v, str):
        return ExactScalar.parse(v)
    return ExactScalar._coerce(v)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def exact_sum(values) -> ExactScalar:
    out = ExactScalar(0)
    for v in values:
        out = out + v
    return out


def exact_min(values) -> ExactScalar:
    it = iter(values)
    out = next(it)
    for v in it:
        if v < out:
            out = v
    return out


def exact_max(values) -> ExactScalar:
    it = iter(values)
    out = next(it)
    for v in it:
        if v > out:
            out = v
    return out
