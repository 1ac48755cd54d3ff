"""Suspension data and the invertible lift of Rauzy-Veech induction.

A suspension datum tau over a permutation pi has positive top partial sums
and negative bottom partial sums; the triple (lengths, tau) encodes a
zippered rectangle with heights read off tau.  The forward induction step
acts on tau exactly as on the lengths (tau' = B^-1 tau), so the triple
makes the induction invertible: the type of the incoming step is decided
by the sign of sum(tau) and the previous triple is reconstructed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rauzy
from .exact import ZERO, ExactScalar, as_scalar, exact_dot, exact_sum
from .iet import Iet, InvalidIetError, Permutation
from .rauzy import _iet_of, _step_matrix


class InvalidSuspensionError(ValueError):
    """tau does not satisfy the partial-sum sign conditions."""


class BackwardUndefinedError(ValueError):
    """A relevant partial sum of tau vanishes; no preimage is selected."""


class SuspensionData:
    """Signed vector tau indexed by the alphabet, inside the cone Theta_pi."""

    __slots__ = ("perm", "tau")

    def __init__(self, perm: Permutation, tau):
        if isinstance(tau, dict):
            vals = tuple(as_scalar(tau[a]) for a in perm.alphabet)
        else:
            vals = tuple(as_scalar(v) for v in tau)
            if len(vals) != perm.d:
                raise InvalidSuspensionError("need one coordinate per label")
        self.perm = perm
        self.tau = vals
        self.validate()

    def value(self, label) -> ExactScalar:
        return self.tau[self.perm.alphabet.index(label)]

    def top_partial(self, j: int) -> ExactScalar:
        """Sum of tau over the first j letters in top order."""
        return exact_sum(self.value(a) for a in self.perm.top[:j])

    def bottom_partial(self, j: int) -> ExactScalar:
        return exact_sum(self.value(a) for a in self.perm.bottom[:j])

    def validate(self):
        top = bottom = ZERO
        for j in range(1, self.perm.d):
            top = top + self.value(self.perm.top[j - 1])
            if not top.sign() > 0:
                raise InvalidSuspensionError(
                    "top partial sum %d not positive" % j)
            bottom = bottom + self.value(self.perm.bottom[j - 1])
            if not bottom.sign() < 0:
                raise InvalidSuspensionError(
                    "bottom partial sum %d not negative" % j)

    def total(self) -> ExactScalar:
        return exact_sum(self.tau)

    def scale(self, c) -> "SuspensionData":
        c = as_scalar(c)
        return SuspensionData(self.perm, [v * c for v in self.tau])

    def __repr__(self):
        return "SuspensionData(%s)" % ", ".join(v.to_string() for v in self.tau)


def canonical_tau(perm: Permutation) -> SuspensionData:
    """tau_a = pi_b(a) - pi_t(a): a valid suspension datum for every
    irreducible permutation (partial sums are strict by irreducibility)."""
    if not perm.irreducible:
        raise InvalidIetError("canonical tau requires an irreducible permutation")
    tau = {a: ExactScalar(perm.bottom_position(a) - perm.top_position(a))
           for a in perm.alphabet}
    return SuspensionData(perm, tau)


def generic_tau(perm: Permutation, eps=None) -> SuspensionData:
    """Canonical tau nudged off the backward-branch boundary.

    sum(canonical_tau) is always zero, which is exactly the tie that makes
    the first backward step undefined.  Adding eps in (0, 1) to the last
    top letter keeps every constrained partial sum strict (that letter only
    enters the unconstrained j = d top sum, and shifts the negative bottom
    sums by less than their slack) while making sum(tau) = eps != 0.
    """
    from fractions import Fraction

    if eps is None:
        eps = Fraction(1, 3)
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidSuspensionError("eps must lie in (0, 1)")
    base = canonical_tau(perm)
    tau = {a: base.value(a) for a in perm.alphabet}
    last_top = perm.top[-1]
    tau[last_top] = tau[last_top] + ExactScalar(eps)
    return SuspensionData(perm, tau)


def heights_from_tau(susp: SuspensionData):
    """h_a = sum_{pi_t(b)<pi_t(a), pi_b(b)>pi_b(a)} tau_b
            - sum_{pi_t(b)>pi_t(a), pi_b(b)<pi_b(a)} tau_b, all positive."""
    perm = susp.perm
    pos = [(perm.top_position(a), perm.bottom_position(a))
           for a in perm.alphabet]
    out = []
    for a, (ta, ba) in zip(perm.alphabet, pos):
        acc = exact_dot([(tb < ta and bb > ba) - (tb > ta and bb < ba)
                         for tb, bb in pos], susp.tau)
        if not acc.sign() > 0:
            raise InvalidSuspensionError("height of %r not positive" % a)
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class ZipperedRectangles:
    """Triple (lengths, tau, pi): rectangles of widths lambda_a and heights
    h_a(tau); area sum(lambda_a h_a) is 1 after normalization."""

    iet: Iet
    suspension: SuspensionData

    def __post_init__(self):
        if self.iet.perm is not self.suspension.perm and \
                self.iet.perm != self.suspension.perm:
            raise InvalidSuspensionError("iet and tau over different permutations")

    @property
    def heights(self):
        return heights_from_tau(self.suspension)

    @property
    def area(self) -> ExactScalar:
        return exact_sum(l * h for l, h in zip(self.iet.lengths, self.heights))


def area_normalize(z: ZipperedRectangles) -> ZipperedRectangles:
    """Scale the lengths so the zippered rectangle has area one."""
    area = z.area
    if not area.sign() > 0:
        raise InvalidSuspensionError("area must be positive")
    if area == 1:
        return z
    inv = area.inverse()
    lengths = [l * inv for l in z.iet.lengths]
    return ZipperedRectangles(Iet(z.iet.perm, lengths), z.suspension)


def forward_rv_step(z: ZipperedRectangles):
    """Lift of the induction step to triples: tau transforms like lambda.
    The step itself is `rauzy.rv_step` on z's rows and integer lengths."""
    perm = z.iet.perm
    den, field, lengths = z.iet.integer_lengths()
    rows, lengths, step_type, (w, l) = rauzy.rv_step(
        perm.alphabet, (perm.top, perm.bottom), lengths, den, field)
    new_iet = _iet_of(perm.alphabet, rows, lengths, den, field)
    tau = list(z.suspension.tau)
    tau[w] = tau[w] - tau[l]
    return (ZipperedRectangles(new_iet, SuspensionData(new_iet.perm, tau)),
            _step_matrix(perm.d, w, l), step_type)


def backward_rv_step(z: ZipperedRectangles):
    """Inverse induction step on triples.

    The sign of sum(tau) selects the type of the incoming step (< 0: 'top',
    > 0: 'bottom'); a vanishing sum leaves no preimage.  Contract: a
    forward step applied to the result recovers `z` exactly, with the same
    matrix.
    """
    perm = z.iet.perm
    sign = z.suspension.total().sign()
    if sign == 0:
        raise BackwardUndefinedError("sum of tau vanishes; preimage type "
                                     "undetermined")
    # the winner ends the row of the step's type; the loser sits right
    # after it in the other row and goes back to that row's end
    step_type, other = ("top", "bottom") if sign < 0 else ("bottom", "top")
    winner = getattr(perm, step_type)[-1]
    row = list(getattr(perm, other))
    wpos = row.index(winner)
    if wpos == len(row) - 1:
        raise BackwardUndefinedError(
            "no %r preimage: winner is last in the %s row"
            % (step_type, other))
    loser = row.pop(wpos + 1)
    row.append(loser)
    rows = (perm.top, row) if sign < 0 else (row, perm.bottom)
    prev_perm = Permutation(*rows, alphabet=perm.alphabet)
    w, l = perm.alphabet.index(winner), perm.alphabet.index(loser)
    lengths, tau = list(z.iet.lengths), list(z.suspension.tau)
    lengths[w] = lengths[w] + lengths[l]
    tau[w] = tau[w] + tau[l]
    prev = ZipperedRectangles(Iet(prev_perm, lengths),
                              SuspensionData(prev_perm, tau))
    return prev, _step_matrix(perm.d, w, l), step_type


def canonical_zippered(iet: Iet, normalize: bool = True) -> ZipperedRectangles:
    z = ZipperedRectangles(iet, canonical_tau(iet.perm))
    return area_normalize(z) if normalize else z
