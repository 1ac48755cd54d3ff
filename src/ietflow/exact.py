"""Exact scalars: rationals and elements of a real quadratic field Q(sqrt(D)).

Every length, endpoint and suspension coordinate in this package is an
ExactScalar, so that partition checks, cocycle identities and first-return
times can be asserted with exact equality rather than tolerances.  A scalar
is stored as four integers: (p + q*sqrt(D))/den with den > 0 and
gcd(p, q, den) == 1, and D a square-free integer > 1, or None exactly when
q == 0 (the pure rational case, which carries no field marker).  This is
the form that `IntegerOrbit` pairs, `quadratic_float` and the sign rule
`_sign` work in, so every operation is integer arithmetic plus at most one
gcd, with no Fraction built.  Scalars from different quadratic fields
cannot be combined: comparisons would no longer be decidable by integer
arithmetic alone.
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


_RAT_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")
_QUAD_RE = re.compile(
    r"^\s*\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)"
    r"\s*/\s*(\d+)\s*$"
)


def _join(d, e):
    """The field of a result from operands in Q(sqrt d) and Q(sqrt e)
    (None: Q)."""
    if d is None or d == e:
        return e
    if e is None:
        return d
    raise FieldMismatchError(
        "cannot combine Q(sqrt(%d)) with Q(sqrt(%d))" % (d, e))


class ExactScalar:
    """Element (p + q*sqrt(d))/den of Q (q == 0) or of Q(sqrt(d)).

    Invariant: p, q and den are integers with den > 0 and
    gcd(p, q, den) == 1, so a value has exactly one representation (1 and
    sqrt(d) are independent over Q) and equality is equality of the four
    fields; d is None exactly when q == 0, otherwise a square-free integer
    > 1.  Results of arithmetic keep it without re-checking: each operation
    forms its numerators and denominator in integers and divides out one
    gcd (`_reduce`), and a quadratic result whose q cancels collapses to
    the rational case.  The rational and irrational parts are read as
    Fractions through the properties `a` and `b`.

    Ordering is decided on integers.  Two rationals compare by
    cross-multiplying numerators and denominators; otherwise the
    difference, scaled to integers P + Q sqrt(d) by the positive product
    of the denominators, goes to the module's one sign rule `_sign`, which
    `sign()` uses as well.  Hashes are those of the Fraction (rationals) or
    of the tuple (a, b, d).
    """

    __slots__ = ("_p", "_q", "_den", "_d")

    def __init__(self, a=0, b=0, d=None):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if not b:
            p, q, den, d = a.numerator, 0, a.denominator, None
        else:
            if d is None:
                raise ExactDomainError("quadratic part requires a radicand d")
            d = int(d)
            if d <= 1 or not is_squarefree(d):
                raise ExactDomainError(
                    "radicand must be a square-free integer > 1, got %r" % (d,)
                )
            # over the lcm of the reduced denominators p, q and den share no
            # prime: one of a, b has the full power of it in its denominator
            ad, bd = a.denominator, b.denominator
            den = ad // math.gcd(ad, bd) * bd
            p, q = a.numerator * (den // ad), b.numerator * (den // bd)
        self._p = p
        self._q = q
        self._den = den
        self._d = d

    # read-only, as a scalar is an immutable value
    p = property(lambda self: self._p, doc="p of (p + q sqrt(d))/den")
    q = property(lambda self: self._q, doc="q of (p + q sqrt(d))/den")
    den = property(lambda self: self._den, doc="den > 0")
    d = property(lambda self: self._d, doc="the radicand; None on Q")

    @property
    def a(self) -> Fraction:
        """The rational part p/den."""
        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        """The coefficient q/den of sqrt(d)."""
        return Fraction(self._q, self._den)

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ExactScalar":
        m = _RAT_RE.match(text)
        if m:
            den = int(m.group(2)) if m.group(2) else 1
            if not den:
                raise ExactDomainError("zero denominator in %r" % (text,))
            return cls(Fraction(int(m.group(1)), den))
        m = _QUAD_RE.match(text)
        if m:
            a = int(m.group(1))
            sign = -1 if m.group(2) == "-" else 1
            b = sign * int(m.group(3))
            d = int(m.group(4))
            c = int(m.group(5))
            if not c:
                raise ExactDomainError("zero denominator in %r" % (text,))
            return cls(Fraction(a, c), Fraction(b, c), d)
        raise ExactDomainError("cannot parse exact scalar %r" % (text,))

    # -- field bookkeeping --------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._d is None

    @staticmethod
    def _coerce(value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, int):
            return _make(int(value), 0, 1, None)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator, None)
        raise TypeError("cannot coerce %r to ExactScalar" % (value,))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return _plus(self, other._p, other._q, other._den, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._den, self._d)

    def __sub__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return _plus(self, -other._p, -other._q, other._den, other._d)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return _times(self, other._p, other._q, other._den, other._d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        return _times(ONE, *_reciprocal(self))

    def __truediv__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return _times(self, *_reciprocal(other))

    def __rtruediv__(self, other):
        return _times(self._coerce(other), *_reciprocal(self))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact sign and ordering ----------------------------------------

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def sign(self) -> int:
        return _sign(self._p, self._q, self._d)

    def __eq__(self, other):
        if type(other) is not ExactScalar:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return (self._p == other._p and self._den == other._den
                and self._q == other._q and self._d == other._d)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return _compare(self, other) < 0

    def __le__(self, other):
        return _compare(self, other) <= 0

    def __gt__(self, other):
        return _compare(self, other) > 0

    def __ge__(self, other):
        return _compare(self, other) >= 0

    def __hash__(self):
        if self._d is None:
            return hash(self.a)
        return hash((self.a, self.b, self._d))

    def __bool__(self):
        return bool(self._p or self._q)

    # -- conversions -----------------------------------------------------

    def __float__(self):
        return quadratic_float(self._p, self._q, self._den, self._d)

    def bracket(self, bits: int = 80) -> tuple[Fraction, Fraction]:
        """Rigorous rational bracket [lo, hi] containing the value."""
        a = self.a
        if self._d is None:
            return a, a
        lo_s, hi_s = _sqrt_bracket(self._d, bits)
        b = self.b
        if b > 0:
            return a + b * lo_s, a + b * hi_s
        return a + b * hi_s, a + b * lo_s

    # -- printing ----------------------------------------------------------

    def to_string(self) -> str:
        if self._d is None:
            if self._den == 1:
                return str(self._p)
            return "%d/%d" % (self._p, self._den)
        sign = "+" if self._q >= 0 else "-"
        return "(%d%s%d*sqrt(%d))/%d" % (self._p, sign, abs(self._q), self._d,
                                         self._den)

    def __repr__(self):
        return "ExactScalar(%s)" % self.to_string()


_new = object.__new__


def _make(p: int, q: int, den: int, d) -> ExactScalar:
    """The scalar (p + q sqrt(d))/den from integers already canonical
    (den > 0, gcd(p, q, den) == 1, d None exactly when q == 0): no gcd and
    no radicand test."""
    s = _new(ExactScalar)
    s._p = p
    s._q = q
    s._den = den
    s._d = d
    return s


def _reduce(p: int, q: int, den: int, d) -> ExactScalar:
    """The scalar (p + q sqrt(d))/den for den > 0 and d already checked
    (read only when q != 0): one gcd."""
    g = math.gcd(p, q, den)
    if g != 1:
        p, q, den = p // g, q // g, den // g
    return _make(p, q, den, d if q else None)


def _compare(x: ExactScalar, y) -> int:
    """Sign of x - y, with no intermediate scalar."""
    if type(y) is not ExactScalar:
        y = ExactScalar._coerce(y)
    n, yn = x._den, y._den
    if not x._q and not y._q:
        u = x._p * yn
        v = y._p * n
        return (u > v) - (u < v)
    d = x._d
    if d != y._d:
        d = _join(d, y._d)
    if n == yn:
        return _sign(x._p - y._p, x._q - y._q, d)
    return _sign(x._p * yn - y._p * n, x._q * yn - y._q * n, d)


def _plus(x: ExactScalar, p: int, q: int, n: int, d) -> ExactScalar:
    """x + (p + q sqrt(d))/n, for n > 0."""
    xn = x._den
    if q or x._q:
        if d != x._d:
            d = _join(x._d, d)
        if xn == n:
            return _reduce(x._p + p, x._q + q, n, d)
        return _reduce(x._p * n + p * xn, x._q * n + q * xn, xn * n, d)
    if xn == n:
        p += x._p
    elif n == 1:
        # p xn + x._p shares no prime with xn
        return _make(x._p + p * xn, 0, xn, None)
    elif xn == 1:
        return _make(x._p * n + p, 0, n, None)
    else:
        p = x._p * n + p * xn
        n *= xn
    g = math.gcd(p, n)
    return _make(p // g, 0, n // g, None)


def _times(x: ExactScalar, p: int, q: int, n: int, d) -> ExactScalar:
    """x (p + q sqrt(d))/n, for n > 0."""
    xp, xq = x._p, x._q
    if not q and not xq:
        p *= xp
        n *= x._den
        g = math.gcd(p, n)
        return _make(p // g, 0, n // g, None)
    if d != x._d:
        d = _join(x._d, d)
    return _reduce(xp * p + xq * q * d, xp * q + xq * p, x._den * n, d)


def _reciprocal(s: ExactScalar) -> tuple:
    """(p, q, n, d) with n > 0 and (p + q sqrt(d))/n = 1/s, not reduced:
    den/(p + q sqrt(d)) = den (p - q sqrt(d)) / (p^2 - q^2 d)."""
    p, q, n = s._p, s._q, s._den
    if not q:
        if not p:
            raise ExactDomainError("division by zero")
        return (n, 0, p, None) if p > 0 else (-n, 0, -p, None)
    # the norm is never 0: sqrt(d) is irrational for square-free d > 1
    norm = p * p - q * q * s._d
    if norm > 0:
        return n * p, -n * q, norm, s._d
    return -n * p, n * q, -norm, s._d


def as_scalar(v) -> ExactScalar:
    """An ExactScalar from an ExactScalar, int, Fraction or str (parsed by
    ExactScalar.parse); TypeError for anything else, floats included."""
    if isinstance(v, str):
        return ExactScalar.parse(v)
    return ExactScalar._coerce(v)


ZERO = _make(0, 0, 1, None)
ONE = _make(1, 0, 1, None)


def exact_sum(values) -> ExactScalar:
    out = ZERO
    for v in values:
        out = out + v
    return out


def exact_dot(coeffs, values) -> ExactScalar:
    """sum(k * v) over integers k and a sequence of scalars v: integer
    arithmetic over the lcm of the denominators, and one gcd."""
    den, d = math.lcm(*(v._den for v in values)), None
    for v in values:
        if v._d is not None:
            d = _join(d, v._d)
    p = q = 0
    for k, v in zip(coeffs, values):
        k *= den // v._den
        p += k * v._p
        q += k * v._q
    return _reduce(p, q, den, d)


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
