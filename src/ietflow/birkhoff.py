"""Quantitative Birkhoff-sum machinery over accelerated induction times.

The threshold sigma_l = (log|A_l| / log q_l)^tau' separates times r closer
to q_l from times closer to q_{l+1}; points whose first [sigma_l q_{l+1}]
iterates enter the sigma_l-neighborhoods of the singular endpoints form the
excluded set, whose exact measure obeys 2|A| nu^2 sigma_l^2 |A_l|.  Outside
it, Birkhoff sums of the roof derivative grow like (C- - C+) r log r; the
checks here evaluate both sides at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import ExactScalar
from .iet import Iet
from .intervals import IntervalUnion, neighborhood, pullback_union
from .rauzy import AccelTimes
from .roof import BirkhoffCursor, RoofSpec


class SigmaDomainError(ValueError):
    """sigma_l needs |A_l| >= 2 and q_l >= 2."""


class ExcludedPointError(ValueError):
    """Point lies in the excluded set the estimate requires avoiding."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


def sigma(accel: AccelTimes, ell: int, tau_prime: float) -> float:
    """sigma_l = (log |A_l| / log q_l)^tau'."""
    norm = accel.A_norm(ell)
    q = accel.q(ell)
    if norm < 2 or q < 2:
        raise SigmaDomainError(
            "sigma undefined: |A_%d| = %d, q_%d = %d" % (ell, norm, ell, q))
    return (math.log(norm) / math.log(q)) ** tau_prime


def sigma_rational(accel: AccelTimes, ell: int, tau_prime: float) -> Fraction:
    """sigma_l rounded UP to a rational; the conservative direction both
    for building the excluded set and for its measure bound."""
    val = sigma(accel, ell, tau_prime)
    return (Fraction(val + 1e-12).limit_denominator(10 ** 15)
            + Fraction(1, 10 ** 12))


@dataclass(frozen=True)
class SigmaSet:
    """Excluded set Sigma_l^+: pullbacks T^-i, 0 <= i <= [sigma_l q_{l+1}],
    of the 2 sigma_l |I^(n_l)| - neighborhoods of the singular endpoints."""

    ell: int
    tau_prime: float
    sigma: float
    sigma_rat: Fraction
    radius: ExactScalar
    pullback_count: int
    union: IntervalUnion
    measure: ExactScalar
    bound: Fraction
    bound_holds: bool

    def contains(self, x) -> bool:
        return self.union.contains(x)

    def witness(self, x):
        return self.union.witness(x)


def sigma_set(accel: AccelTimes, ell: int, tau_prime: float,
              dilate=1) -> SigmaSet:
    """Exact interval union for Sigma_l^+, with the measure bound asserted.

    `dilate` > 1 builds the enlarged set (2 Sigma_l in the good-set
    construction): every neighborhood radius is scaled by that factor.
    The set depends on the scale alone, not on any point, so it is built
    once per AccelTimes and key (ell, tau_prime, dilate) and shared: the
    same read-only object is returned for a repeated key.
    """
    key = (ell, tau_prime, dilate)
    sset = accel._sigma_sets.get(key)
    if sset is None:
        sset = accel._sigma_sets[key] = _build_sigma_set(accel, ell,
                                                         tau_prime, dilate)
    return sset


def _build_sigma_set(accel: AccelTimes, ell: int, tau_prime: float,
                     dilate) -> SigmaSet:
    trace = accel.trace
    base_iet = trace.base
    srat = sigma_rational(accel, ell, tau_prime) * Fraction(dilate)
    if srat <= 0:
        return SigmaSet(ell, tau_prime, 0.0, Fraction(0), ExactScalar(0), 0,
                        IntervalUnion.empty(), ExactScalar(0), Fraction(0),
                        True)
    radius = accel.interval_length(ell) * srat
    count = int(srat * accel.q(ell + 1))
    centers = [base_iet.left(a) for a in base_iet.perm.alphabet]
    base = IntervalUnion([neighborhood(c, radius) for c in centers])
    union = pullback_union(base_iet, base, count)
    measure = union.measure()
    d = base_iet.perm.d
    bound = (2 * d * accel.nu ** 2 * srat ** 2 *
             Fraction(accel.A_norm(ell)))
    holds = not ExactScalar(bound) < measure
    return SigmaSet(ell, tau_prime, sigma(accel, ell, tau_prime) * dilate,
                    srat, radius, count, union, measure, bound, holds)


# ---------------------------------------------------------------------------
# closest-approach statistics U, V
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproachStats:
    """Largest inverse distances of an orbit segment to the singular
    endpoints: U from the right of the r_a family, V from the left of the
    l_a family (positive-part convention)."""

    U: float
    V: float
    u_distance: Optional[ExactScalar]
    v_distance: Optional[ExactScalar]
    u_index: Optional[int]
    v_index: Optional[int]
    steps: int


class ExactHitError(ArithmeticError):
    def __init__(self, index, point):
        self.index = index
        self.point = point
        super().__init__("orbit point %d hits a singular endpoint exactly"
                         % index)


def approach_stats(iet: Iet, x, r: int) -> ApproachStats:
    """U(r, x), V(r, x) over the forward orbit segment (r > 0: indices
    0..r-1) or the backward segment (r < 0: indices r..-1), exactly.

    Positive-part convention, matched to the singular contributions of f':
    U is the largest 1/(distance to the nearest singular endpoint strictly
    below the orbit point) and V the mirror from above, so approaches to
    the extreme endpoints 0+ and 1- are counted alongside the interior
    identifications l_b = r_a.  An exact hit on an endpoint is reported
    with its orbit index.
    """
    cur = BirkhoffCursor(iet, None, x, forward=r >= 0)
    return _approaches(cur.advance_to(abs(r)))


def _approaches(cur: BirkhoffCursor) -> ApproachStats:
    """U, V from the gap minima of a cursor: the nearest l_a strictly below
    a point of I_a is l_a itself and the nearest r_b above it is r_a."""
    if cur.hit is not None:
        raise ExactHitError(*cur.hit)
    u, u_idx, v, v_idx = cur.gap_minima()
    U = 1.0 / float(u) if u is not None else 0.0
    V = 1.0 / float(v) if v is not None else 0.0
    return ApproachStats(U, V, u, v, u_idx, v_idx, cur.steps)


# ---------------------------------------------------------------------------
# growth of Birkhoff sums of the derivative
# ---------------------------------------------------------------------------

def locate_scale(accel: AccelTimes, r: int) -> int:
    """The index l with q_l <= r < q_{l+1} (q is nondecreasing in l)."""
    if accel.count < 2:
        raise ValueError("acceleration has no usable scale window")
    if r < accel.q(1):
        raise ValueError("r = %d below the first scale q_1 = %d"
                         % (r, accel.q(1)))
    for ell in range(1, accel.count):
        if accel.q(ell) <= r < accel.q(ell + 1):
            return ell
    raise ValueError("r = %d beyond the deepest scale q_%d = %d; extend the "
                     "trace" % (r, accel.count, accel.q(accel.count)))


def default_slack_constant(spec: RoofSpec) -> float:
    """The constant M of the upper growth bound's M (U + V) slack, which
    the paper leaves uncomputed."""
    return 4.0 * max(float(spec.cplus_total), float(spec.cminus_total), 1.0)


@dataclass
class GrowthReport:
    r: int
    ell: int
    sum_value: float
    sum_err: float
    ratio: float
    oriented_ratio: float
    gap: float
    U: float
    V: float
    M: float
    lower_ok: bool
    upper_ok: bool
    used_UV_slack: bool

    @property
    def within_mpd_bounds(self) -> bool:
        return self.lower_ok and self.upper_ok


def derivative_growth_check(accel: AccelTimes, spec: RoofSpec, x, r: int,
                            eps: float, tau_prime: float = 0.995,
                            skip_exclusion_check: bool = False) -> GrowthReport:
    """Two-sided (C- - C+) r log r bound on S_r(f')(x) for good points.

    The scale l is the one with q_l <= r < q_{l+1} (locate_scale; a
    ValueError when r lies outside the scale window).  Unless
    skip_exclusion_check, x must lie outside Sigma_l^+ =
    sigma_set(accel, l, tau_prime), tested exactly against the set built
    once per accel and key; a point inside raises ExcludedPointError with
    the component holding it.  The lower bound is the clean one; the upper
    bound carries the M (U + V) slack, M = default_slack_constant(spec),
    and used_UV_slack says whether it needed it.  The orientation follows
    the sign of C- - C+; for symmetric roofs the oriented ratio is the raw
    ratio.
    """
    iet = accel.trace.base
    ell = locate_scale(accel, r)
    if not skip_exclusion_check:
        wit = sigma_set(accel, ell, tau_prime).witness(x)
        if wit is not None:
            raise ExcludedPointError(
                "x lies in Sigma_%d^+ within [%s, %s]"
                % (ell, wit[0].to_string(), wit[1].to_string()), wit)
    M = default_slack_constant(spec)
    cur = BirkhoffCursor(iet, spec, x, forward=True)
    val = cur.derivative_sum_at(r)
    stats = _approaches(cur)
    gap_signed = float(spec.asymmetry_gap)
    orient = -1.0 if gap_signed < 0 else 1.0
    gap = abs(gap_signed)
    rlogr = r * math.log(r)
    ratio = val.value / rlogr
    oriented = orient * ratio
    lower_ok = (gap - eps * eps) * rlogr <= orient * val.value + val.err
    plain_upper = orient * val.value - val.err <= (gap + eps * eps) * rlogr
    slack_upper = orient * val.value - val.err <= (
        (gap + eps * eps) * rlogr + M * (stats.U + stats.V))
    return GrowthReport(r=r, ell=ell, sum_value=val.value, sum_err=val.err,
                        ratio=ratio, oriented_ratio=oriented, gap=gap,
                        U=stats.U, V=stats.V, M=M, lower_ok=lower_ok,
                        upper_ok=slack_upper,
                        used_UV_slack=slack_upper and not plain_upper)


# ---------------------------------------------------------------------------
# hypotheses and conclusions of the two-sided (forward/backward) control
# ---------------------------------------------------------------------------

@dataclass
class PrtyReport:
    ell: int
    threshold: float
    forward_ok: bool
    backward_ok: bool
    forward_stats: ApproachStats
    backward_stats: ApproachStats
    forward_bounds: list = field(default_factory=list)
    backward_bounds: list = field(default_factory=list)


#: Count of the r in [q_l, q_(l+1)) at which `prty_conditions` checks the
#: derivative-sum ratio, and the desk tolerance of that check.
_PRTY_GRID = 4
_PRTY_TOLERANCE = 0.15


def prty_conditions(accel: AccelTimes, spec: RoofSpec, x, ell: int,
                    xi: float) -> PrtyReport:
    """Test U(q_{l+1}, x), V(q_{l+1}, x) <= 2 q_l (log q_l)^xi forward, the
    shifted variant backward, and on success check the derivative-sum ratio
    against |C- - C+| on a grid of r in [q_l, q_{l+1}) at desk tolerance."""
    iet = accel.trace.base
    q_l = accel.q(ell)
    q_next = accel.q(ell + 1)
    threshold = 2.0 * q_l * math.log(q_l) ** xi
    gap = abs(float(spec.asymmetry_gap))
    orient = -1.0 if float(spec.asymmetry_gap) < 0 else 1.0
    rs = sorted({min(q_next - 1, max(q_l, round(q_l * (q_next / q_l) **
                                                (i / (_PRTY_GRID - 1)))))
                 for i in range(_PRTY_GRID)})

    def walk(forward):
        # one walk per direction: the derivative sums at the grid times on
        # the way, U and V over the whole q_{l+1} segment at its end (the
        # backward segment gives U(q_{l+1}, T^(-q_{l+1}) x))
        cur = BirkhoffCursor(iet, spec, x, forward=forward)
        sums = [(r, cur.derivative_sum_at(r).value) for r in rs]
        return sums, _approaches(cur.advance_to(q_next))

    fwd_sums, fwd = walk(True)
    bwd_sums, bwd = walk(False)
    forward_ok = fwd.U <= threshold and fwd.V <= threshold
    backward_ok = bwd.U <= threshold and bwd.V <= threshold
    report = PrtyReport(ell=ell, threshold=threshold, forward_ok=forward_ok,
                        backward_ok=backward_ok, forward_stats=fwd,
                        backward_stats=bwd)
    if forward_ok:
        for r, value in fwd_sums:
            ratio = orient * value / (r * math.log(r))
            report.forward_bounds.append(
                (r, ratio, abs(ratio - gap) <= _PRTY_TOLERANCE))
    if backward_ok:
        for r, value in bwd_sums:
            # conclusion reads through -S_(-r)(f'); the backward cursor
            # already returns S_(-r)
            ratio = -orient * value / (r * math.log(r))
            report.backward_bounds.append(
                (r, ratio, abs(ratio - gap) <= _PRTY_TOLERANCE))
    return report


# ---------------------------------------------------------------------------
# trend series of the exponent bundle
# ---------------------------------------------------------------------------

def exponent_trend_series(accel: AccelTimes, tau: float, tau_prime: float,
                       xi: float, eta: float, depth: int) -> dict:
    """The three vanishing sequences behind the parameter window: computed
    as finite-horizon series (never asserted as limits)."""
    s1, s2, s3 = [], [], []
    for ell in range(1, depth + 1):
        sg = sigma(accel, ell, tau_prime)
        q = accel.q(ell)
        norm = accel.A_norm(ell)
        s1.append(sg * math.log(q) ** xi)
        s2.append(sg ** (2.0 - eta) * ell ** tau)
        s3.append(math.log(norm) / (math.log(q) ** xi * sg ** eta))
    return {"sigma_logq_xi": s1, "sigma_pow_ell_tau": s2,
            "logA_over_logq_sigma": s3}
