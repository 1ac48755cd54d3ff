"""Empirical switchable-Ratner witness and Monte-Carlo mixing probes.

The witness machinery realizes the finite part of the shearing argument:
for a pair x < y at scale 1/((C- - C+) r log r), the Birkhoff sums of the
roof drift apart by almost exactly one unit over the window [M, M+L] with
M ~ r and L ~ eps^5 M, provided the pair's orbit stays clear of the
singular endpoints in the chosen time direction.  The backward-or-forward
scan decides that direction; every verified pair is re-checked on the exact
orbit, where each Birkhoff sum comes with a rigorous error radius
(`verify_witness_high_precision`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .birkhoff import sigma_set
from .diophantine import DcParams, k_set_membership
from .exact import ExactScalar, exact_min
from .iet import Iet
from .intervals import IntervalUnion, neighborhood, pullback_union
from .rauzy import AccelTimes
from .roof import BirkhoffCursor, RoofSpec, roof_area

F = Fraction


class WitnessPreconditionError(ValueError):
    def __init__(self, msg, excluding_set=None, witness=None):
        self.excluding_set = excluding_set
        self.witness = witness
        super().__init__(msg)


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

    The margin precondition x not in [0, eps/8) u (1 - eps/8, 1) applies
    when epsilon is given.
    """
    iet = accel.trace.base
    if not isinstance(x, ExactScalar):
        x = ExactScalar(x)
    if epsilon is not None:
        margin = F(epsilon).limit_denominator(10 ** 9) / 8
        if x < ExactScalar(margin) or ExactScalar(1 - margin) < x:
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


def induced_discontinuity_gaps(accel: AccelTimes, ell: int,
                      lbar: Optional[int] = None) -> DiscontinuityDistances:
    """Min distances between top discontinuities and bottom images at step
    n_l, after the two structural exclusions, against |I^(n_{l+lbar})|/nu.

    Exclusions: for the l-family, the bottom-first letter (its image
    endpoint is 0); for the r-family, the top-last letter (its endpoint is
    the right end of the interval).
    """
    lbar = lbar or accel.lbar
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
    pairs are required to satisfy the structural part 0 < y - x < eps^2.
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
        return F(self.epsilon).limit_denominator(10 ** 9) / 8

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


class GoodRegion:
    """X' = margins complement minus Z1 (doubled excluded sets) and Z2
    (the J_l unions), accumulated over the indices outside K_T up to the
    trace horizon."""

    def __init__(self, accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig):
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
        x = x if isinstance(x, ExactScalar) else ExactScalar(x)
        if x < ExactScalar(self.margin):
            return False
        if ExactScalar(1 - self.margin) < x:
            return False
        return not self.excluded.contains(x)

    def why_excluded(self, x):
        x = x if isinstance(x, ExactScalar) else ExactScalar(x)
        if x < ExactScalar(self.margin) or ExactScalar(1 - self.margin) < x:
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
    worst_n: Optional[int] = None
    straddle_index: Optional[int] = None
    deviations: list = field(default_factory=list)
    attempts: list = field(default_factory=list)   # (direction, ok, reason,
    #                                                straddle_index)


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
    """Lockstep float orbit walk of x and y to depth M+L.

    Accumulates the difference of roof sums (term by term, which keeps the
    cancellation benign), the derivative sums at x, the separation, and
    the first index at which the pair straddles a discontinuity.  Float
    drift over these windows is ~1e-12, far below the pair gap; every
    verified pair is re-checked on the exact orbit with rigorous radii.
    Returns (checkpoints, straddle) with checkpoints[n] =
    (delta_sum, deriv_sum, separation) for n in [M, M+L].
    """
    top_order = iet.perm.top
    d = len(top_order)
    cuts = [float(c) for c in iet._top_cuts]
    lefts = [float(iet.left(a)) for a in top_order]
    trans = [float(iet.translation(a)) for a in top_order]
    cuts_b = [float(c) for c in iet._bottom_cuts]
    trans_b = [float(iet.translation(a)) for a in iet.perm.bottom]
    c0 = float(spec.c0)
    cp = [float(spec.cplus[a]) for a in top_order]
    cm = [float(spec.cminus[a]) for a in top_order]
    tiny = 1e-300

    def locate(v, bounds):
        for i in range(d - 1):
            if v < bounds[i]:
                return i
        return d - 1

    px = float(x)
    py = float(y)
    dsum = 0.0
    deriv = 0.0
    straddle = None
    checkpoints = {}
    top = M + L
    for n in range(top + 1):
        if n >= M:
            checkpoints[n] = (dsum, deriv, abs(py - px))
        if n == top:
            break
        if not forward:
            px -= trans_b[locate(px, cuts_b)]
            py -= trans_b[locate(py, cuts_b)]
        ix = locate(px, cuts)
        iy = locate(py, cuts)
        dlx = max(px - lefts[ix], tiny)
        drx = max(cuts[ix] - px, tiny)
        dly = max(py - lefts[iy], tiny)
        dry = max(cuts[iy] - py, tiny)
        fx = c0
        dvx = 0.0
        if cp[ix]:
            fx -= cp[ix] * math.log(dlx)
            dvx -= cp[ix] / dlx
        if cm[ix]:
            fx -= cm[ix] * math.log(drx)
            dvx += cm[ix] / drx
        fy = c0
        if cp[iy]:
            fy -= cp[iy] * math.log(dly)
        if cm[iy]:
            fy -= cm[iy] * math.log(dry)
        if forward:
            dsum += fx - fy
            deriv += dvx
        else:
            dsum -= fx - fy
            deriv -= dvx
        if ix != iy and straddle is None:
            straddle = n
        if forward:
            px += trans[ix]
            py += trans[iy]
    return checkpoints, straddle


def sr_pair_test(accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig,
                 x, y, good_region: Optional[GoodRegion] = None) -> WitnessResult:
    """Construct and verify the shearing witness for a close pair x < y.

    The scale r solves 1/((C- - C+)(r+1) log(r+1)) < y-x <=
    1/((C- - C+) r log r); the window is M = min(r, (1-eps^4) q_{l+1})
    when l is in K_T (max otherwise), L = [eps^5 M] + 1; the direction
    comes from the backward-or-forward scan and p from the derivative-sum
    sign.  The verdict re-evaluates the realignment clause directly:
    orbit separation < eps and |S_n(f)(x) - S_n(f)(y) - p| < eps for every
    n in [M, M+L].
    """
    iet = accel.trace.base
    eps = cfg.epsilon
    x = x if isinstance(x, ExactScalar) else ExactScalar(x)
    y = y if isinstance(y, ExactScalar) else ExactScalar(y)
    if not x < y:
        raise WitnessPreconditionError("need x < y")
    gap = y - x
    if not float(gap) < eps * eps:
        raise WitnessPreconditionError("pair gap must be below eps^2")
    if good_region is not None:
        for pt, name in ((x, "x"), (y, "y")):
            why = good_region.why_excluded(pt)
            if why is not None:
                raise WitnessPreconditionError(
                    "%s outside the good set: %s" % (name, why[0]),
                    excluding_set=why[0], witness=why[1])
    else:
        margin = cfg.margin
        for pt in (x, y):
            if pt < ExactScalar(margin) or ExactScalar(1 - margin) < pt:
                raise WitnessPreconditionError(
                    "pair inside the margin strip", excluding_set="margins")

    g = abs(float(spec.asymmetry_gap))
    if g > 0:
        r = _scale_from_gap(float(gap), g)
    else:
        r = max(cfg.N, accel.q(min(2, accel.count)))
    try:
        ell = _locate(accel, r)
    except ValueError as exc:
        raise WitnessPreconditionError(str(exc))

    direction = "forward"
    if ell + 1 + cfg.params.L <= accel.count:
        # float scan suggests the direction to try first; the verification
        # itself decides, and the exact scan stays available via forbac_scan
        tables = kernels.float_tables(iet, spec)
        endpoints = np.array(sorted({float(s) for s in
                                     iet.singular_points()} |
                                    {float(iet.right(a))
                                     for a in iet.perm.alphabet}))
        horizon = accel.q(ell + 1)
        thr = float(F(1, 6) / cfg.params.nu / accel.q(ell + 1 + cfg.params.L))
        fwd = kernels.min_orbit_distance(tables, float(x), horizon, endpoints)
        bwd = kernels.min_orbit_distance(tables, float(x), -horizon,
                                         endpoints)
        # forward preference: when the forward alternative holds the
        # verified direction must be forward
        if fwd > thr:
            direction = "forward"
        elif bwd > thr:
            direction = "backward"
        else:
            direction = "forward" if fwd >= bwd else "backward"

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
        checkpoints, straddle = _pair_walk(
            iet, spec, x, y, M, L, forward=(att_direction == "forward"))
        signs = {v > 0 for _, v, _ in checkpoints.values() if v != 0}
        if len(signs) > 1:
            # sign change inside the bracket: no admissible shift
            return dict(ok=False, p=0, max_dev=math.inf, max_sep=math.inf,
                        worst=None, straddle=straddle, devs=[],
                        reason="derivative sum changes sign on the window "
                               "(tie)")
        # vanishing derivative sums (no shearing): any shift gives
        # deviation |0 - p| = 1, so p = -1 is as good as it gets
        p = (-1 if signs.pop() else 1) if signs else -1
        max_dev = 0.0
        max_sep = 0.0
        worst = None
        devs = []
        for n in range(M, M + L + 1):
            dsum, _, sep = checkpoints[n]
            dev = abs(dsum - p)
            devs.append((n, dev, sep))
            if dev > max_dev:
                max_dev, worst = dev, n
            max_sep = max(max_sep, sep)
        ok = max_dev < eps and max_sep < eps
        reason = ""
        if not ok:
            if straddle is not None and straddle <= M + L:
                reason = ("pair straddles a discontinuity at orbit index %d"
                          % straddle)
            elif max_sep >= eps:
                reason = "orbit separation reached %.3g" % max_sep
            else:
                reason = "Birkhoff deviation %.3g at n=%d" % (max_dev, worst)
        return dict(ok=ok, p=p, max_dev=max_dev, max_sep=max_sep,
                    worst=worst, straddle=straddle, devs=devs, reason=reason)

    # the realignment clause may hold in either time direction; try the
    # scan-suggested one first and switch if it fails
    order = ([direction, "backward" if direction == "forward" else "forward"])
    attempts = []
    first = attempt(order[0])
    attempts.append((order[0], first["ok"], first["reason"],
                     first["straddle"]))
    if first["ok"]:
        chosen, outcome = order[0], first
    else:
        second = attempt(order[1])
        attempts.append((order[1], second["ok"], second["reason"],
                         second["straddle"]))
        if second["ok"]:
            chosen, outcome = order[1], second
        else:
            chosen = order[0]
            outcome = first
    return WitnessResult(x, y, chosen, M, L, outcome["p"], in_k, ell, r,
                         outcome["max_dev"], outcome["max_sep"],
                         "verified" if outcome["ok"] else "failed", kappa_ok,
                         failure_reason=outcome["reason"],
                         worst_n=outcome["worst"],
                         straddle_index=outcome["straddle"],
                         deviations=outcome["devs"], attempts=attempts)


def _locate(accel: AccelTimes, r: int) -> int:
    from .birkhoff import locate_scale
    return locate_scale(accel, r)


# no code path uses gmpy2; the name stays bound because the environment
# stamp of the benchmark (perfbench/stats.py) reads it
try:
    import gmpy2
except ImportError:         # pragma: no cover - gmpy2 is optional
    gmpy2 = None


def verify_witness_high_precision(iet: Iet, spec: RoofSpec,
                                  result: WitnessResult,
                                  epsilon: float) -> bool:
    """Re-check a verified pair on the exact orbit with rigorous radii.

    Two BirkhoffCursors walk x and y in lockstep in the verified direction:
    exact IntegerOrbit points, every roof term from the exact gaps with its
    rounding-error radius, never the float orbit of the pair test.  The
    pair passes when at every n in [M, M+L] the enclosure
    |S_n(f)(x) - S_n(f)(y) - p| + err_x + err_y stays below epsilon and the
    separation |x_n - y_n|, compared exactly, is below epsilon.  The radii
    charge every summation step twice its rounding bound, which also covers
    the few roundings of the comparison itself.  An orbit point on a
    singular endpoint or within the hard cutoff raises the cursor's
    RoofDomainError or SingularityTooClose, with its orbit index.
    """
    if result.verdict != "verified":
        return False
    forward = result.direction == "forward"
    cx = BirkhoffCursor(iet, spec, result.x, forward=forward)
    cy = BirkhoffCursor(iet, spec, result.y, forward=forward)
    eps = ExactScalar(F(epsilon))
    for n in range(result.M, result.M + result.L + 1):
        sx, sy = cx.sum_at(n), cy.sum_at(n)
        if not abs(sx.value - sy.value - result.p) + sx.err + sy.err < epsilon:
            return False
        if not abs(cx.orbit.value() - cy.orbit.value()) < eps:
            return False
    return True


def sample_good_pairs(accel: AccelTimes, spec: RoofSpec, cfg: WitnessConfig,
                      count: int, gap, max_tries: int = 100000,
                      good_region: Optional[GoodRegion] = None):
    """Deterministic sample of good pairs (x, x + gap) inside the good set."""
    import random as _random
    rng = _random.Random(cfg.seed)
    gap = F(gap) if not isinstance(gap, F) else gap
    region = good_region or GoodRegion(accel, spec, cfg)
    lo = cfg.margin
    hi = 1 - cfg.margin - gap
    pairs = []
    denom = 10 ** 9
    for _ in range(max_tries):
        if len(pairs) >= count:
            break
        x = F(rng.randrange(int(lo * denom) + 1, int(hi * denom)), denom)
        y = x + gap
        if region.contains(x) and region.contains(y):
            pairs.append((ExactScalar(x), ExactScalar(y)))
    if len(pairs) < count:
        raise RuntimeError("could not sample %d good pairs" % count)
    return pairs, region


# ---------------------------------------------------------------------------
# Monte-Carlo mixing probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpObservable:
    """Separable polynomial bump g(x, y) = B((x-x0)/wx) B((y-y0)/wy) with
    B(u) = (1-u^2)^3 on |u| < 1; supported under the roof when
    y0 + wy <= c0.  Integrals are exact: int B = 32/35 per unit scale."""

    x0: float
    wx: float
    y0: float
    wy: float

    _B_INT = 32.0 / 35.0
    _B2_INT = 2048.0 / 3003.0

    def __call__(self, x, y):
        ux = (x - self.x0) / self.wx
        uy = (y - self.y0) / self.wy
        bx = np.where(np.abs(ux) < 1, (1 - ux ** 2) ** 3, 0.0)
        by = np.where(np.abs(uy) < 1, (1 - uy ** 2) ** 3, 0.0)
        return bx * by

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
    """g == value everywhere on the flow space (marginalization checks)."""

    value: float = 1.0

    def __call__(self, x, y):
        return np.full(np.shape(x), self.value)

    def mean(self, area: float) -> float:
        return self.value

    def second_moment(self, area: float) -> float:
        return self.value ** 2


def sample_flow_space(iet: Iet, spec: RoofSpec, n: int, rng) -> tuple:
    """n exact-law samples of the normalized area measure on the flow space.

    The x-marginal has density f/area: a mixture of the uniform part and,
    per singular side, a product-of-two-uniforms log component plus the
    -log(lambda) uniform remainder; then y is uniform under f(x).
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
        mask = choice == idx
        m = int(mask.sum())
        if not m:
            continue
        kind, left, right, lam, from_left = action
        if kind == "uniform":
            x[mask] = rng.uniform(0.0, lam, m)
        elif kind == "flat":
            x[mask] = left + lam * rng.uniform(0.0, 1.0, m)
        else:
            u = rng.uniform(0.0, 1.0, m) * rng.uniform(0.0, 1.0, m)
            x[mask] = left + lam * u if from_left else right - lam * u
    tables = kernels.float_tables(iet, spec)
    fx = kernels.roof_values(tables, x)
    y = rng.uniform(0.0, 1.0, n) * fx
    return x, y, tables


@dataclass(frozen=True)
class MixingEstimate:
    value: float
    stderr: float
    n: int
    t: float


def mixing_correlation(iet: Iet, spec: RoofSpec, g: BumpObservable,
                       h: BumpObservable, t: float, n_samples: int,
                       seed: int = 0) -> MixingEstimate:
    """Monte-Carlo estimate of int g(phi_t p) h(p) dmu - int g int h."""
    rng = np.random.default_rng(seed)
    area = roof_area(iet, spec)
    x, y, tables = sample_flow_space(iet, spec, n_samples, rng)
    hx = h(x, y)
    if t == 0.0:
        gx = g(x, y)
    else:
        xt, yt, _ = kernels.flow_points(tables, x, y, t)
        gx = g(xt, yt)
    z = gx * hx
    value = float(z.mean()) - g.mean(area) * h.mean(area)
    stderr = float(z.std(ddof=1)) / math.sqrt(n_samples)
    return MixingEstimate(value, stderr, n_samples, t)


def triple_mixing_probe(iet: Iet, spec: RoofSpec, g1: BumpObservable,
                        g2: BumpObservable, g3: BumpObservable, t2: float,
                        t3: float, n_samples: int,
                        seed: int = 0) -> MixingEstimate:
    """Three-fold analogue: int g1(p) g2(phi_t2 p) g3(phi_{t2+t3} p) dmu
    minus the product of the means."""
    rng = np.random.default_rng(seed)
    area = roof_area(iet, spec)
    x, y, tables = sample_flow_space(iet, spec, n_samples, rng)
    v1 = g1(x, y)
    if t2 == 0.0:
        x2, y2 = x, y
    else:
        x2, y2, _ = kernels.flow_points(tables, x, y, t2)
    v2 = g2(x2, y2)
    if t3 == 0.0:
        x3, y3 = x2, y2
    else:
        x3, y3, _ = kernels.flow_points(tables, x2, y2, t3)
    v3 = g3(x3, y3)
    z = v1 * v2 * v3
    value = float(z.mean()) - (g1.mean(area) * g2.mean(area) * g3.mean(area))
    stderr = float(z.std(ddof=1)) / math.sqrt(n_samples)
    return MixingEstimate(value, stderr, n_samples, t2 + t3)
