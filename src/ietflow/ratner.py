"""Empirical switchable-Ratner witness and Monte-Carlo mixing probes.

The witness machinery realizes the finite part of the shearing argument:
for a pair x < y at scale 1/((C- - C+) r log r), the Birkhoff sums of the
roof drift apart by almost exactly one unit over the window [M, M+L] with
M ~ r and L ~ eps^5 M, provided the pair's orbit stays clear of the
singular endpoints in one time direction (the property is switchable);
the pair test tries forward, then backward.  One exact pair walk
(`_pair_walk`, rigorous error radii) decides every attempt and keeps its
checkpoints as the certificate that `verify_witness_high_precision` checks
with no second walk.  It walks segments of `IntegerOrbit.segment` with
array operations, bit for bit a per-step walk; the per-step walk, the
two-cursor walk and the 120-bit mpmath enclosure in the tests check it.
`witness_run` is the whole sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .birkhoff import locate_scale, sigma_set
from .diophantine import DcParams, k_set_membership
from .exact import ExactScalar, _sign, as_scalar, exact_min
from .iet import _SEGMENT, Iet, IntegerOrbit
from .intervals import IntervalUnion, neighborhood, pullback_union
from .rauzy import AccelTimes
from .roof import (BirkhoffCursor, RoofSpec, _gaps_of, _orbit_error,
                   roof_area, roof_terms)

F = Fraction


class WitnessPreconditionError(ValueError):
    def __init__(self, msg, excluding_set=None, witness=None):
        self.excluding_set = excluding_set
        self.witness = witness
        super().__init__(msg)


#: Draws a rejection sampler makes before it gives up with PairSamplingError.
SAMPLE_TRIES = 100000


class PairSamplingError(RuntimeError):
    """Sampling found fewer good pairs than asked for within max_tries."""

    def __init__(self, requested: int, found: int, max_tries: int):
        self.requested = requested
        self.found = found
        self.max_tries = max_tries
        super().__init__("could not sample %d good pairs: found %d in %d "
                         "tries" % (requested, found, max_tries))


# ---------------------------------------------------------------------------
# backward or forward control (exact)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForbacReport:
    ell: int
    L: int
    horizon: int
    threshold: Fraction
    forward_min: ExactScalar
    backward_min: ExactScalar
    forward_ok: bool
    backward_ok: bool

    @property
    def which_holds(self) -> str:
        if self.forward_ok and self.backward_ok:
            return "both"
        if self.forward_ok:
            return "forward"
        if self.backward_ok:
            return "backward"
        return "neither"


def forbac_scan(accel: AccelTimes, x, ell: int, params: DcParams,
                epsilon: Optional[float] = None) -> ForbacReport:
    """Exact min distances of the q_l-orbit segments (forward and backward)
    of x to the endpoint set {l_a, r_a}, against the threshold
    c / q_{l+L} with c = 1/(6 nu).

    When epsilon is given, the IET must act on [0, 1) and x must lie
    outside the margins (`in_margins`).
    """
    iet = accel.trace.base
    x = as_scalar(x)
    if epsilon is not None:
        _require_unit_interval(iet)
        if in_margins(x, margin_width(epsilon)):
            raise WitnessPreconditionError(
                "point inside the excluded margin of width eps/8",
                excluding_set="margins")
    L = params.L
    if ell + L > accel.count:
        raise ValueError("acceleration too short: need index %d" % (ell + L))
    q_l = accel.q(ell)
    threshold = F(1, 6) / params.nu / accel.q(ell + L)
    fwd, bwd = (BirkhoffCursor(iet, None, x, forward=forward)
                .advance_to(q_l).min_gap() for forward in (True, False))
    thr = ExactScalar(threshold)
    return ForbacReport(ell, L, q_l, threshold, fwd, bwd,
                        thr < fwd, thr < bwd)


# ---------------------------------------------------------------------------
# discontinuity gaps at an induction step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscontinuityDistances:
    ell: int
    lbar: int
    min_left_pairs: ExactScalar
    min_right_pairs: ExactScalar
    bound: ExactScalar
    holds: bool


def induced_discontinuity_gaps(accel: AccelTimes,
                               ell: int) -> DiscontinuityDistances:
    """Min distances between top discontinuities and bottom images at step
    n_l, after the two structural exclusions, against |I^(n_{l+lbar})|/nu
    with lbar = accel.lbar.

    Exclusions: for the l-family, the bottom-first letter (its image
    endpoint is 0); for the r-family, the top-last letter (its endpoint is
    the right end of the interval).
    """
    lbar = accel.lbar
    if lbar is None:
        raise ValueError("no positivity window available")
    ind = accel.iet(ell)
    perm = ind.perm
    alpha_1b = perm.bottom[0]
    alpha_dt = perm.top[-1]
    left_dists = []
    for a in perm.alphabet:
        for b in perm.alphabet:
            if b == alpha_1b:
                continue
            d = ind.left(a) - ind.left_image(b)
            left_dists.append(d if d.sign() >= 0 else -d)
    right_dists = []
    for a in perm.alphabet:
        if a == alpha_dt:
            continue
        for b in perm.alphabet:
            d = ind.right(a) - ind.right_image(b)
            right_dists.append(d if d.sign() >= 0 else -d)
    min_left = exact_min(left_dists)
    min_right = exact_min(right_dists)
    bound = accel.interval_length(ell + lbar) * (F(1) / accel.nu)
    holds = not min_left < bound and not min_right < bound
    return DiscontinuityDistances(ell, lbar, min_left, min_right, bound,
                                  holds)


# ---------------------------------------------------------------------------
# witness configuration and good region
# ---------------------------------------------------------------------------

@dataclass
class WitnessConfig:
    """Parameters of the SR pair test.

    kappa = eps^5 exactly; the shift set is {-1, +1}.  `window_len`
    propagates to the K_T case split (None = the full L window).
    The asymptotic threshold index ell_a = max((N^2+1)/eps^4, 1/eps)
    and its delta = min(1/ell_a^2, eps^2) are computed for the record;
    pairs are required to satisfy 0 < y - x < min(eps, eps^2).
    """

    epsilon: float
    N: int
    params: DcParams
    seed: int = 0
    window_len: Optional[int] = 0
    horizon_start: int = 1
    horizon_end: Optional[int] = None

    @property
    def kappa(self) -> float:
        return self.epsilon ** 5

    @property
    def ell_a(self) -> float:
        return max((self.N ** 2 + 1) / self.epsilon ** 4, 1 / self.epsilon)

    @property
    def delta_asymptotic(self) -> float:
        return min(1.0 / self.ell_a ** 2, self.epsilon ** 2)

    @property
    def margin(self) -> Fraction:
        return margin_width(self.epsilon)

    @property
    def shift_set(self):
        return (-1, 1)


def _j_set(accel: AccelTimes, ell: int, xi: float) -> IntervalUnion:
    """J_l: pullback neighborhoods of the l_a at shrinking radii
    1/((k+1) q_l (log (k+1) q_l)^xi) for the iterate blocks
    [k q_l, (k+1) q_l), k = 0 .. [q_{l+1}/q_l] + 1."""
    iet = accel.trace.base
    q_l = accel.q(ell)
    q_next = accel.q(ell + 1)
    parts = []
    centers = [iet.left(a) for a in iet.perm.alphabet]
    kmax = q_next // q_l + 1
    for k in range(kmax + 1):
        radius = F(1.0 / ((k + 1) * q_l *
                          math.log((k + 1) * q_l) ** xi)).limit_denominator(
                              10 ** 12)
        base = IntervalUnion([neighborhood(c, radius) for c in centers])
        # pull the block [k q_l, (k+1) q_l) back: T^-i for i in the block
        block = base
        for _ in range(k * q_l):
            block = block.preimage(iet)
        parts.extend(pullback_union(iet, block, q_l - 1).parts)
    return IntervalUnion(parts)


def eps_fraction(epsilon: float) -> Fraction:
    """epsilon read as the nearest fraction with denominator at most 10^9:
    the one exact reading of eps behind the margins, the pair gap rule and
    the certificate check."""
    return F(epsilon).limit_denominator(10 ** 9)


def margin_width(epsilon: float) -> Fraction:
    """eps/8, the width of the margins of [0, 1)."""
    return eps_fraction(epsilon) / 8


def in_margins(x, margin: Fraction) -> bool:
    """Whether x lies in a margin [0, margin) or (1 - margin, 1), which no
    point of the witness or of the forbac scan may occupy."""
    x = as_scalar(x)
    return x < ExactScalar(margin) or ExactScalar(1 - margin) < x


def _require_pair_gap(gap, epsilon: float):
    """The pair gap of the SR witness lies in (0, min(eps, eps^2)), exactly;
    a WitnessPreconditionError naming the gap otherwise."""
    gap = as_scalar(gap)
    eps = eps_fraction(epsilon)
    bound = min(eps, eps * eps)
    if not (gap.sign() > 0 and gap < ExactScalar(bound)):
        raise WitnessPreconditionError(
            "pair gap %s outside (0, min(eps, eps^2)) = (0, %s)"
            % (gap.to_string(), bound))


def _require_unit_interval(iet: Iet):
    """The margins, the sampler and the good region take the IET to act on
    [0, 1); any other total is refused, not rescaled."""
    if iet.total != 1:
        raise WitnessPreconditionError(
            "the SR witness needs an IET on [0, 1), got total %s"
            % iet.total.to_string())


class GoodRegion:
    """X' = margins complement minus Z1 (doubled excluded sets) and Z2
    (the J_l unions), accumulated over the indices outside K_T up to the
    trace horizon."""

    def __init__(self, accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig):
        _require_unit_interval(accel.trace.base)
        self.accel = accel
        self.spec = spec
        self.cfg = cfg
        params = cfg.params
        end = cfg.horizon_end
        if end is None:
            end = max(accel.count - max(cfg.window_len or params.L, 1) - 1, 0)
        bad_parts = []
        self.excluded_indices = []
        for ell in range(cfg.horizon_start, end + 1):
            if k_set_membership(accel, params, ell,
                                window_len=cfg.window_len):
                continue
            self.excluded_indices.append(ell)
            z1 = sigma_set(accel, ell, float(params.tau_prime), dilate=2)
            bad_parts.extend(z1.union.parts)
            bad_parts.extend(_j_set(accel, ell, float(params.xi)).parts)
        self.excluded = IntervalUnion(bad_parts)
        self.margin = cfg.margin

    def contains(self, x) -> bool:
        x = as_scalar(x)
        return not (in_margins(x, self.margin) or self.excluded.contains(x))

    def why_excluded(self, x):
        x = as_scalar(x)
        if in_margins(x, self.margin):
            return ("margins", None)
        wit = self.excluded.witness(x)
        if wit is not None:
            return ("excluded_union", wit)
        return None


# ---------------------------------------------------------------------------
# the SR pair test
# ---------------------------------------------------------------------------

@dataclass
class WitnessResult:
    """The pair test's verdict; `checkpoints` is the chosen attempt's
    certificate, `_pair_walk`'s (Delta_n, radius, S_n(f')(x)) list."""

    x: ExactScalar
    y: ExactScalar
    direction: str
    M: int
    L: int
    p: int
    case_in_k_set: bool
    ell: int
    r: int
    max_deviation: float
    max_separation: float
    verdict: str
    kappa_ok: bool
    failure_reason: str = ""
    failure_kind: str = ""          # "straddle", "tie" or "deviation"
    straddle_index: Optional[int] = None
    attempts: list = field(default_factory=list)   # (direction, ok, reason,
    #                                                straddle_index)
    checkpoints: list = field(default_factory=list)


def _scale_from_gap(gap: float, g: float) -> int:
    """Largest r >= 2 with g * r * log r <= 1/gap."""
    target = 1.0 / gap
    lo, hi = 2, 4
    while g * hi * math.log(hi) <= target:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g * mid * math.log(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def _pair_walk(iet: Iet, spec: RoofSpec, x, y, M: int, L: int,
               forward: bool):
    """Exact lockstep walk of a close pair x < y to depth M+L.

    One exact orbit walks x and delta = y - x stays an exact integer pair:
    while x_n and y_n share an interval I_a, y_n = x_n + delta, and they
    straddle a cut exactly when r_a - x_n <= delta (backward, after the
    step, which also catches a pair split by a bottom cut).  The orbit goes
    by `IntegerOrbit.segment`, whose docstring says where its itinerary
    comes from (the IET's Rohlin towers, on Q as on Q(sqrt d)).
    The straddle test goes by the shadow when its difference clears xerr +
    3 units (xerr + 1 for a gap, one for delta and the difference, one
    spare), else by `exact._sign`; the walk stops at the first straddle.
    Shadow gates pick the steps needing exact work (a straddle, the
    singular point, the cutoff, on both points), visited in step order.

    The shadow, its bound and every gate are floats on Q as on Q(sqrt d).
    Up to the straddle y's gaps are dl + delta and dr - delta, and both
    roofs are `roof_terms` of the two points: on Q from the correctly
    rounded exact gaps (the walk's one branch on the field); on Q(sqrt d)
    x's gaps are the shadow's, within e = xerr + unit of the exact ones
    (xerr, the table entry's half unit and the difference's rounding), and
    y's those -/+ the float of delta, within e + unit.
    Delta_n = S_n(f)(x) - S_n(f)(y) carries a rigorous radius: both
    evaluation radii, the gap radius `rad` and twice the rounding bound of
    each difference and each summation step (which also covers a later
    comparison); it covers both points' `eval_roof` radii.  S_n(f')(x) is
    summed alongside (S_{-n} backward, as BirkhoffCursor).  The sums are
    cumsums in step order, so the checkpoints are those of a per-step walk
    bit for bit.

    Returns (checkpoints, straddle, deriv): checkpoints[k] = (Delta_n,
    radius, S_n(f')(x)) for n = M + k up to M+L or the straddle; straddle
    is the index of the first straddling pair (x_n, y_n) or None; deriv is
    S_n(f')(x) at the last n reached.
    """
    orbit = IntegerOrbit(iet, x, extra=[y])
    field, unit = orbit.field, orbit.unit
    d0, d1 = orbit.pair_of(y)
    delta = d0 - orbit.p, d1 - orbit.q
    top = iet.perm.top
    cps = np.array([float(spec.cplus[a]) for a in top])
    cms = np.array([float(spec.cminus[a]) for a in top])
    singular, cut = spec.has_log_singularity, float(spec.hard_cutoff)
    df = orbit.to_float(delta)
    fr, fl = np.array(orbit.frights), np.array(orbit.flefts)
    sign = 1 if forward else -1
    s = err = ds = 0.0
    checkpoints, n0, end = [], 0, M + L
    while n0 < end:
        k = min(_SEGMENT, end - n0)
        p, q = orbit.p, orbit.q
        i, X, xerr, dp, dq = orbit.segment(k, forward)
        gap, exact = _gaps_of(orbit, i, p, q, dp, dq)
        ygap, yexact = _gaps_of(orbit, i, p, q, dp, dq, delta)
        # the straddle and the exact checks, on the gated steps
        tol = xerr + 3 * unit
        glx = X - fl[i]
        grx = fr[i] - X
        yrf = grx - df
        flag = ((yrf <= tol + cut) | (glx <= tol + cut) if singular
                else yrf <= tol)
        stop = k
        for n in np.flatnonzero(flag).tolist():
            t, r, ia = tol.item(n), yrf.item(n), i.item(n)
            yr = ygap(n, True)
            if r <= t and (r < -t or _sign(*yr, field) <= 0):
                stop = n
                break
            error = singular and _orbit_error(
                orbit, spec, top[ia], n0 + n if forward else -n0 - n - 1,
                cps.item(ia), cms.item(ia),
                (gap(n, False), gap(n, True), ygap(n, False), yr))
            if error:
                raise error
        # the terms of x and y, on the steps before the stop
        cp_n, cm_n = cps[i[:stop]], cms[i[:stop]]
        if field is None:
            points = [(None, None, None, exact), (None, None, None, yexact)]
        else:
            e = xerr[:stop] + unit
            points = [(glx, grx, e, exact), (glx + df, yrf, e + unit, yexact)]
        ((fx, ex), (fy, ey)), dfx, _, rad = roof_terms(
            float(spec.c0), cp_n, cm_n, points)
        dsum = fx - fy
        S = np.cumsum(np.concatenate(((s,), dsum)))
        term = ex + ey + rad + (np.abs(dsum) + np.abs(S[1:])) * 2.0 ** -52
        E = np.cumsum(np.concatenate(((err,), np.where(
            (cp_n != 0) | (cm_n != 0), term, 0.0))))
        D = np.cumsum(np.concatenate(((ds,), dfx)))
        lo, hi = max(M - n0, 0), stop + 1 if stop < k else k
        checkpoints += zip((sign * S[lo:hi]).tolist(), E[lo:hi].tolist(),
                           (sign * D[lo:hi]).tolist())
        if stop < k:
            return checkpoints, n0 + stop, sign * D.item(-1)
        s, err, ds = S.item(-1), E.item(-1), D.item(-1)
        n0 += k
    checkpoints.append((sign * s, err, sign * ds))
    return checkpoints, None, sign * ds


def sr_pair_test(accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig,
                 x, y, good_region: Optional[GoodRegion] = None) -> WitnessResult:
    """Construct and verify the shearing witness for a close pair x < y.

    The scale r solves 1/((C- - C+)(r+1) log(r+1)) < y-x <=
    1/((C- - C+) r log r); the window is M = min(r, (1-eps^4) q_{l+1})
    when l is in K_T (max otherwise), L = [eps^5 M] + 1, and p comes from
    the derivative-sum sign.  Verified, by the exact pair walk, means no
    straddle and |S_n(f)(x) - S_n(f)(y) - p| + radius < eps for every n in
    [M, M+L]; the separation is y - x < min(eps, eps^2) throughout.  The
    walk runs forward first and backward only when forward fails, so the
    direction is forward whenever forward verifies; `attempts` lists both
    when there were two.  `max_deviation` is that certified bound and
    `max_separation` float(y - x); a straddle or a tie (derivative sums
    changing sign) sets both to infinity.  The IET must act on [0, 1).
    """
    iet = accel.trace.base
    eps = cfg.epsilon
    x = as_scalar(x)
    y = as_scalar(y)
    _require_unit_interval(iet)
    if not x < y:
        raise WitnessPreconditionError("need x < y")
    gap = y - x
    _require_pair_gap(gap, eps)
    if good_region is not None:
        for pt, name in ((x, "x"), (y, "y")):
            why = good_region.why_excluded(pt)
            if why is not None:
                raise WitnessPreconditionError(
                    "%s outside the good set: %s" % (name, why[0]),
                    excluding_set=why[0], witness=why[1])
    elif in_margins(x, cfg.margin) or in_margins(y, cfg.margin):
        raise WitnessPreconditionError(
            "pair inside the margin strip", excluding_set="margins")

    g = abs(float(spec.asymmetry_gap))
    if g > 0:
        r = _scale_from_gap(float(gap), g)
    else:
        r = max(cfg.N, accel.q(min(2, accel.count)))
    try:
        ell = locate_scale(accel, r)
    except ValueError as exc:
        raise WitnessPreconditionError(str(exc))

    try:
        in_k = k_set_membership(accel, cfg.params, ell,
                                window_len=cfg.window_len)
    except ValueError:
        in_k = True
    q_next = accel.q(ell + 1)
    anchor = int((1 - eps ** 4) * q_next)
    M = min(r, anchor) if in_k else max(r, anchor)
    # window length: the proof's inequality chain M >= L > eps^4 M pins the
    # eps power (the displayed eps^5 would violate L >= N at desk scale);
    # the ratio requirement stays L/M >= kappa = eps^5
    L = int(eps ** 4 * M) + 1
    kappa_ok = (L / M >= cfg.kappa) and M >= cfg.N and L >= cfg.N

    def attempt(att_direction):
        checkpoints, straddle, deriv = _pair_walk(
            iet, spec, x, y, M, L, forward=(att_direction == "forward"))
        # the shift opposes the drift of the derivative sums; vanishing
        # sums (no shearing) leave every shift off by one, so p = -1 is as
        # good as any
        out = dict(direction=att_direction, p=1 if deriv < 0 else -1,
                   max_deviation=math.inf, max_separation=math.inf,
                   verdict="failed", straddle_index=straddle,
                   checkpoints=checkpoints)
        if straddle is not None:
            return dict(out, failure_kind="straddle",
                        failure_reason="pair straddles a discontinuity at "
                                       "orbit index %d" % straddle)
        if len({d > 0 for _, _, d in checkpoints if d != 0}) > 1:
            # sign change inside the bracket: no admissible shift
            return dict(out, p=0, failure_kind="tie",
                        failure_reason="derivative sum changes sign on the "
                                       "window (tie)")
        # the largest certified deviation, at the first n that attains it
        dev, n = max((abs(v - out["p"]) + e, -n)
                     for n, (v, e, _) in enumerate(checkpoints, M))
        out.update(max_deviation=dev, max_separation=float(gap))
        if dev < eps:
            return dict(out, verdict="verified")
        return dict(out, failure_kind="deviation",
                    failure_reason="Birkhoff deviation %.3g at n=%d"
                                   % (dev, -n))

    # the realignment clause may hold in either time direction (the property
    # is switchable): forward first, so a pair verified forward reports
    # forward; a pair failing both reports the forward attempt
    attempts = []
    outcome = None
    for att_direction in ("forward", "backward"):
        out = attempt(att_direction)
        ok = out["verdict"] == "verified"
        attempts.append((att_direction, ok, out.get("failure_reason", ""),
                         out["straddle_index"]))
        if ok or outcome is None:
            outcome = out
        if ok:
            break
    return WitnessResult(x, y, M=M, L=L, case_in_k_set=in_k, ell=ell, r=r,
                         kappa_ok=kappa_ok, attempts=attempts, **outcome)


# no code path uses gmpy2; the name stays bound because the environment
# stamp of the benchmark (perfbench/stats.py) reads it
try:
    import gmpy2
except ImportError:         # pragma: no cover - gmpy2 is optional
    gmpy2 = None


def verify_witness_high_precision(iet: Iet, spec: RoofSpec,
                                  result: WitnessResult,
                                  epsilon: float) -> bool:
    """Check the pair test's certificate of a verified pair, with no walk.

    The pair passes when its verdict is "verified", 0 < y - x <
    `eps_fraction(epsilon)` exactly, it straddles no cut, it holds one
    checkpoint for each n in [M, M+L] and |S_n(f)(x) - S_n(f)(y) - p| +
    radius < epsilon at every one.  The walk that made the certificate raised on any orbit point at
    a singular endpoint or within the hard cutoff.  `iet` and `spec` are
    not read; they stay in the signature for its callers.
    """
    cps = result.checkpoints
    return (result.verdict == "verified" and result.straddle_index is None
            and 0 < result.y - result.x < ExactScalar(eps_fraction(epsilon))
            and len(cps) == result.L + 1
            and all(abs(v - result.p) + e < epsilon for v, e, _ in cps))


def witness_run(accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig,
                count: int, gap):
    """Sample `count` good pairs (x, x + gap), test each and check each
    certificate.  Returns (results, reverified, failures): WitnessResults in
    sample order, one re-verified flag per pair and failures by kind."""
    pairs, region = sample_good_pairs(accel, spec, cfg, count, gap)
    results = [sr_pair_test(accel, spec, cfg, x, y, good_region=region)
               for x, y in pairs]
    reverified = [verify_witness_high_precision(accel.trace.base, spec, res,
                                                cfg.epsilon)
                  for res in results]
    failures = {kind: sum(res.failure_kind == kind for res in results)
                for kind in ("straddle", "deviation", "tie")}
    return results, reverified, failures


def sample_good_pairs(accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig,
                      count: int, gap, max_tries: int = SAMPLE_TRIES,
                      good_region: Optional[GoodRegion] = None):
    """Deterministic sample of good pairs (x, x + gap) inside the good set.

    The gap must lie in (0, min(eps, eps^2)) and leave room for x between
    the margins; both are checked before any sampling.
    """
    import random as _random
    rng = _random.Random(cfg.seed)
    gap = F(gap) if not isinstance(gap, F) else gap
    _require_pair_gap(gap, cfg.epsilon)
    denom = 10 ** 9
    lo = int(cfg.margin * denom) + 1
    hi = int((1 - cfg.margin - gap) * denom)
    if hi <= lo:
        raise WitnessPreconditionError(
            "pair gap %s leaves no room for x between the margins of width "
            "%s" % (gap, cfg.margin), excluding_set="margins")
    region = good_region or GoodRegion(accel, spec, cfg)
    pairs = []
    for _ in range(max_tries):
        if len(pairs) >= count:
            break
        x = F(rng.randrange(lo, hi), denom)
        y = x + gap
        if region.contains(x) and region.contains(y):
            pairs.append((ExactScalar(x), ExactScalar(y)))
    if len(pairs) < count:
        raise PairSamplingError(count, len(pairs), max_tries)
    return pairs, region


# ---------------------------------------------------------------------------
# Monte-Carlo mixing probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpObservable:
    """Separable polynomial bump g(x, y) = B((x-x0)/wx) B((y-y0)/wy) with
    B(u) = (1-u^2)^3 on |u| < 1; supported under the roof when
    y0 + wy <= c0.  Integrals are exact: int B = 32/35 per unit scale.

    Calls evaluate the two polynomials only on the support, the points
    where both |u| < 1, which are indexed (`np.flatnonzero`, then `take`
    and `put`) rather than masked, with the same operations in the same
    order as the full product; every other point gets 0.0, which is what
    the product of a zero factor and a factor in [0, 1] gives.  Scalars
    and 0-d arrays give a numpy scalar.  ValueError, naming the field, for a
    non-finite centre or a non-finite or non-positive width.
    """

    x0: float
    wx: float
    y0: float
    wy: float

    _B_INT = 32.0 / 35.0
    _B2_INT = 2048.0 / 3003.0

    def __post_init__(self):
        for name in ("x0", "wx", "y0", "wy"):
            value = getattr(self, name)
            if not math.isfinite(value) or (name[0] == "w" and value <= 0):
                raise ValueError("BumpObservable %s = %r: %s" % (
                    name, value, "a width must be finite and positive"
                    if name[0] == "w" else "a centre must be finite"))

    def __call__(self, x, y):
        ux, uy = np.broadcast_arrays((x - self.x0) / self.wx,
                                     (y - self.y0) / self.wy)
        inside = np.flatnonzero((np.abs(ux) < 1) & (np.abs(uy) < 1))
        out = np.zeros(ux.shape)
        ux, uy = ux.take(inside), uy.take(inside)
        out.put(inside, (1 - ux ** 2) ** 3 * (1 - uy ** 2) ** 3)
        return out[()]

    @property
    def integral(self) -> float:
        return self._B_INT ** 2 * self.wx * self.wy

    @property
    def square_integral(self) -> float:
        return self._B2_INT ** 2 * self.wx * self.wy

    def mean(self, area: float) -> float:
        return self.integral / area

    def second_moment(self, area: float) -> float:
        return self.square_integral / area


@dataclass(frozen=True)
class ConstantObservable:
    """g == value everywhere on the flow space (marginalization checks);
    ValueError for a non-finite value."""

    value: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("ConstantObservable value = %r: the value must "
                             "be finite" % (self.value,))

    def __call__(self, x, y):
        return np.full(np.shape(x), self.value)

    def mean(self, area: float) -> float:
        return self.value

    def second_moment(self, area: float) -> float:
        return self.value ** 2


def sample_flow_space(iet: Iet, spec: RoofSpec, n: int, rng) -> tuple:
    """n exact-law samples of the normalized area measure on the flow space,
    as (x, y, tables, f): the samples, the IET's `kernels.float_tables`
    and the roof values f(x) of the default kernel.

    The x-marginal has density f/area: a mixture of the uniform part and,
    per singular side, a product-of-two-uniforms log component plus the
    -log(lambda) uniform remainder; then y is uniform under f(x).  Each
    mixture component's samples are drawn together, in component order,
    and written to the positions that chose it.
    """
    weights = []
    actions = []
    for a in iet.perm.alphabet:
        lam = float(iet.length(a))
        left = float(iet.left(a))
        right = float(iet.right(a))
        for c, from_left in ((float(spec.cplus[a]), True),
                             (float(spec.cminus[a]), False)):
            if c == 0:
                continue
            weights.append(c * lam)
            actions.append(("log", left, right, lam, from_left))
            w2 = -c * lam * math.log(lam)
            if w2 > 0:
                weights.append(w2)
                actions.append(("flat", left, right, lam, from_left))
    weights.append(float(spec.c0) * float(iet.total))
    actions.append(("uniform", 0.0, float(iet.total), float(iet.total), True))
    weights = np.array(weights)
    probs = weights / weights.sum()
    choice = rng.choice(len(actions), size=n, p=probs)
    x = np.empty(n)
    for idx, action in enumerate(actions):
        sel = np.flatnonzero(choice == idx)
        m = sel.size
        if not m:
            continue
        kind, left, right, lam, from_left = action
        if kind == "uniform":
            x[sel] = rng.uniform(0.0, lam, m)
        elif kind == "flat":
            x[sel] = left + lam * rng.uniform(0.0, 1.0, m)
        else:
            u = rng.uniform(0.0, 1.0, m) * rng.uniform(0.0, 1.0, m)
            x[sel] = left + lam * u if from_left else right - lam * u
    tables = kernels.float_tables(iet, spec)
    fx = kernels.roof_values(tables, x)
    y = rng.uniform(0.0, 1.0, n) * fx
    return x, y, tables, fx


@dataclass(frozen=True)
class MixingEstimate:
    value: float
    stderr: float
    n: int
    t: float


def _require_samples(n_samples: int):
    """A mean and a sample standard error need at least two samples."""
    if n_samples < 2:
        raise ValueError("n_samples = %r: a mixing probe needs at least 2 "
                         "samples" % (n_samples,))


def _probe(iet: Iet, spec: RoofSpec, gs: tuple, ts: tuple,
           n_samples: int, seed: int) -> tuple:
    """(value, stderr): the Monte-Carlo estimate of int prod_i g_i(p_i) dmu
    minus the product of the means of the g_i, with p_0 a sample and p_i =
    phi_{t_i} p_{i-1}; ValueError for n_samples < 2 or a non-finite t_i.

    Only the live samples, those whose running product z is nonzero, are
    flowed and observed: before each factor the samples where z is exactly
    0.0 are dropped, and the next products are written back into the
    full-length z, whose mean and std still run over all n_samples.  The
    observables are finite (they refuse non-finite parameters), so 0.0
    times the next factor is 0.0, the product a dropped sample keeps; and
    the flow is elementwise.  So every estimate is bit for bit that of
    flowing every sample, except that a negative factor can flip the sign
    of an estimate that is zero.  A FlowStepBudgetError's pending count
    counts the flowed samples only.
    """
    _require_samples(n_samples)
    for t in ts:
        if not math.isfinite(t):
            raise ValueError("flow time t = %r is not finite" % (t,))
    rng = np.random.default_rng(seed)
    area = roof_area(iet, spec)
    x, y, tables, f = sample_flow_space(iet, spec, n_samples, rng)
    z = gs[0](x, y)
    live = np.arange(n_samples)
    for g, t in zip(gs[1:], ts):
        # the index of a bool array, several times faster than of floats
        keep = np.flatnonzero(z.take(live) != 0.0)
        live, x, y = live.take(keep), x.take(keep), y.take(keep)
        if f is not None:
            f = f.take(keep)
        if not live.size:
            break
        if t != 0.0:
            # the samples' roof values serve only a flow from the samples
            x, y, _ = kernels.flow_points(tables, x, y, t, f=f)
            f = None
        z.put(live, z.take(live) * g(x, y))
    value = float(z.mean()) - math.prod(g.mean(area) for g in gs)
    return value, float(z.std(ddof=1)) / math.sqrt(n_samples)


def mixing_correlation(iet: Iet, spec: RoofSpec, g: BumpObservable,
                       h: BumpObservable, t: float, n_samples: int,
                       seed: int = 0) -> MixingEstimate:
    """Monte-Carlo estimate of int g(phi_t p) h(p) dmu - int g int h;
    ValueError for n_samples < 2."""
    return MixingEstimate(*_probe(iet, spec, (h, g), (t,), n_samples, seed),
                          n_samples, t)


def triple_mixing_probe(iet: Iet, spec: RoofSpec, g1: BumpObservable,
                        g2: BumpObservable, g3: BumpObservable, t2: float,
                        t3: float, n_samples: int,
                        seed: int = 0) -> MixingEstimate:
    """Three-fold analogue: int g1(p) g2(phi_t2 p) g3(phi_{t2+t3} p) dmu
    minus the product of the means; ValueError for n_samples < 2."""
    return MixingEstimate(*_probe(iet, spec, (g1, g2, g3), (t2, t3),
                                  n_samples, seed), n_samples, t2 + t3)
