"""Diophantine-condition diagnostics along accelerated induction times.

Everything here is finite-horizon: the integrability sequence |A_l|/l^tau,
the windowed norm products behind the Ratner condition, membership in the
set K_T = {l : q_{l+L} <= q_l / sigma_l^xi}, and the partial sums whose
convergence the summability condition asserts.  Exponent comparisons are
exact (rational exponents reduce to integer power comparisons; the K_T
inequality is decided with outward-rounded interval arithmetic and raised
precision, never with bare floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .birkhoff import sigma, sigma_set
from .rauzy import AccelTimes, balance_check, is_positive, \
    projective_diameter


class ParamWindowError(ValueError):
    def __init__(self, constraint, detail=""):
        self.constraint = constraint
        super().__init__("parameter window violated: %s%s"
                         % (constraint, " (%s)" % detail if detail else ""))


class IndeterminateComparison(ArithmeticError):
    """Interval arithmetic could not decide the comparison at max precision."""


def _as_exact(value, name) -> Fraction:
    """Exact rational reading of a parameter; float literals are taken at
    their decimal face value (0.995 means 199/200)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    raise ParamWindowError(name, "cannot read %r exactly" % (value,))


def window_length(lbar: int, d: int, nu: Fraction) -> int:
    """L = lbar * (1 + floor(log_d(2 nu^2))), computed exactly."""
    if lbar < 1 or d < 2:
        raise ParamWindowError("window", "need lbar >= 1 and d >= 2")
    bound = 2 * nu * nu
    k = 0
    power = 1
    while power * d <= bound:
        power *= d
        k += 1
    return lbar * (1 + k)


@dataclass(frozen=True)
class DcParams:
    """Exponent bundle (tau, tau', xi, eta) with the balance data (nu,
    lbar) and the derived window length L."""

    tau: Fraction
    tau_prime: Fraction
    eta: Fraction
    xi: Fraction
    nu: Fraction
    lbar: int
    d: int
    L: int
    window: str


def validate_params(tau, tau_prime, eta, xi, nu=3, lbar=2, d=2,
                    window="para") -> DcParams:
    """Accept exactly the exponent bundles inside the chosen window.

    "para": tau in (1, 16/15), tau' in (15/16, 1), eta in (3/4, 2tau'-tau),
            xi in (max(99/100, tau' eta), tau').
    "asucons": same but eta in (3/4, tau'(2tau'-tau)) and the xi floor
            11/12 instead of 99/100.
    """
    tau = _as_exact(tau, "tau")
    tau_prime = _as_exact(tau_prime, "tau_prime")
    eta = _as_exact(eta, "eta")
    xi = _as_exact(xi, "xi")
    nu = _as_exact(nu, "nu")
    if window not in ("para", "asucons"):
        raise ParamWindowError("window", "unknown window %r" % (window,))
    if not (Fraction(1) < tau < Fraction(16, 15)):
        raise ParamWindowError("tau", "tau must lie in (1, 16/15)")
    if not (Fraction(15, 16) < tau_prime < 1):
        raise ParamWindowError("tau_prime", "tau' must lie in (15/16, 1)")
    eta_cap = (2 * tau_prime - tau if window == "para"
               else tau_prime * (2 * tau_prime - tau))
    if not (Fraction(3, 4) < eta < eta_cap):
        raise ParamWindowError("eta", "eta must lie in (3/4, %s)" % eta_cap)
    xi_floor = max(Fraction(99, 100) if window == "para"
                   else Fraction(11, 12), tau_prime * eta)
    if not (xi_floor < xi < tau_prime):
        raise ParamWindowError("xi", "xi must lie in (%s, %s)"
                               % (xi_floor, tau_prime))
    if not nu > 1:
        raise ParamWindowError("nu", "nu must exceed 1")
    return DcParams(tau, tau_prime, eta, xi, nu, int(lbar), int(d),
                    window_length(int(lbar), int(d), nu), window)


# ---------------------------------------------------------------------------
# Mixing DC report
# ---------------------------------------------------------------------------

@dataclass
class MixingDcReport:
    depth: int
    lbar: int
    balanced: list
    windows_positive: list
    diameters: list
    integrability: list          # |A_l| / l^tau
    insufficient_depth: bool = False

    @property
    def all_balanced(self):
        return all(self.balanced)

    @property
    def all_windows_positive(self):
        return all(self.windows_positive)

    @property
    def max_diameter(self):
        finite = [v for v in self.diameters if math.isfinite(v)]
        return max(finite) if finite else math.inf

    def integrability_below(self, threshold, beyond=1):
        return all(v < threshold
                   for v in self.integrability[beyond - 1:])


def mixing_dc_report(accel: AccelTimes, params: DcParams,
                     depth: int) -> MixingDcReport:
    """Balance, lbar-window positivity, window diameters and the
    integrability sequence |A_l|/l^tau up to `depth`."""
    lbar = accel.lbar or params.lbar
    if accel.count < max(depth + lbar, depth + 1):
        return MixingDcReport(depth, lbar, [], [], [], [],
                              insufficient_depth=True)
    balanced = []
    windows = []
    diams = []
    integ = []
    tau = float(params.tau)
    for ell in range(1, depth + 1):
        balanced.append(balance_check(accel.trace, accel.time(ell), accel.nu))
        w = accel.window(ell, lbar)
        windows.append(is_positive(w))
        diams.append(projective_diameter(w) if is_positive(w) else math.inf)
        integ.append(accel.A_norm(ell) / ell ** tau)
    return MixingDcReport(depth, lbar, balanced, windows, diams, integ)


# ---------------------------------------------------------------------------
# Ratner DC partial data
# ---------------------------------------------------------------------------

def _norm_product_exceeds(product: int, ell: int, xi: Fraction) -> bool:
    """product > ell^xi decided exactly via integer powers."""
    if ell <= 1:
        return product > 1
    p, q = xi.numerator, xi.denominator
    return product ** q > ell ** p


@dataclass
class RatnerDcPartial:
    depth: int
    window_len: int
    bad_indices: list
    partial_sum: float
    products: list


def _require_times(accel: AccelTimes, n: int):
    """ValueError unless `accel` has at least n accelerated times."""
    if accel.count < n:
        raise ValueError("acceleration too short: need %d times, have %d"
                         % (n, accel.count))


def ratner_dc_partial(accel: AccelTimes, params: DcParams, depth: int,
                      window_len: Optional[int] = None) -> RatnerDcPartial:
    """Indices l <= depth with |A_l| ... |A_{l+W}| > l^xi and the partial
    sum of 1/(log q_l)^eta over them.

    W defaults to the faithful params.L; an explicit 0 gives the
    single-matrix (consecutive-scale) variant used for the bounded-type
    diagnostics.
    """
    W = params.L if window_len is None else int(window_len)
    _require_times(accel, depth + W + 1)
    bad = []
    products = []
    total = 0.0
    eta = float(params.eta)
    for ell in range(1, depth + 1):
        prod = 1
        for j in range(ell, ell + W + 1):
            prod *= accel.A_norm(j)
        products.append(prod)
        if _norm_product_exceeds(prod, ell, params.xi):
            bad.append(ell)
            total += 1.0 / math.log(accel.q(ell)) ** eta
    return RatnerDcPartial(depth, W, bad, total, products)


# ---------------------------------------------------------------------------
# K_T membership and the summability partial sums
# ---------------------------------------------------------------------------

#: The most decimal digits `k_set_membership` raises its interval
#: arithmetic to before it gives up.
_KSET_MAX_DPS = 200


def k_set_membership(accel: AccelTimes, params: DcParams, ell: int,
                     window_len: Optional[int] = None) -> bool:
    """q_{l+W} <= q_l / sigma_l^xi, decided with outward rounding.

    sigma_l^xi is irrational; the comparison is evaluated in interval
    arithmetic at increasing precision and raises IndeterminateComparison
    only if the hardest precision still straddles (callers then know the
    inequality is razor-thin rather than silently guessing).
    """
    W = params.L if window_len is None else int(window_len)
    q_l = accel.q(ell)
    q_W = accel.q(ell + W)
    norm = accel.A_norm(ell)
    if norm < 2 or q_l < 2:
        raise ValueError("sigma undefined at ell=%d" % ell)
    # algebraic fast paths (also the exact boundary sigma == 1)
    if norm == q_l:
        return q_W <= q_l
    if norm < q_l and q_W <= q_l:
        return True         # sigma < 1 so q_l / sigma^xi > q_l >= q_W
    if norm > q_l and q_W > q_l:
        return False        # sigma > 1 so q_l / sigma^xi < q_l < q_W
    expo = params.xi * params.tau_prime      # sigma^xi = exp(expo * ln_ratio)
    dps = 30
    while dps <= _KSET_MAX_DPS:
        iv = mpmath.iv
        old = iv.dps
        try:
            iv.dps = dps
            ln_ratio = iv.log(iv.log(norm) / iv.log(q_l))
            factor = iv.exp(iv.mpf(expo.numerator) / expo.denominator
                            * ln_ratio)
            rhs = factor * q_W
            if rhs.b < q_l:
                return True
            if rhs.a > q_l:
                return False
        finally:
            iv.dps = old
        dps *= 2
    raise IndeterminateComparison(
        "K_T membership at ell=%d undecided at %d digits"
        % (ell, _KSET_MAX_DPS))


@dataclass
class SummabilityPartial:
    depth: int
    window_len: int
    members: list
    non_members: list
    sum_sigma_eta: float
    sum_measures: float


def summability_partial(accel: AccelTimes, params: DcParams, depth: int,
                        window_len: Optional[int] = None) -> SummabilityPartial:
    """Partial sums of sigma_l^eta and of measure(Sigma_l^+) over the
    indices l <= depth outside K_T.  The K_T test of l reads q_{l+W} and
    sigma_l reads A_l, so depth + max(W, 1) accelerated times are needed
    (else ValueError)."""
    W = params.L if window_len is None else int(window_len)
    _require_times(accel, depth + max(W, 1))
    tp = float(params.tau_prime)
    members = []
    non_members = []
    s_eta = 0.0
    s_mu = 0.0
    eta = float(params.eta)
    for ell in range(1, depth + 1):
        if k_set_membership(accel, params, ell, window_len=W):
            members.append(ell)
        else:
            non_members.append(ell)
            s_eta += sigma(accel, ell, tp) ** eta
            s_mu += float(sigma_set(accel, ell, tp).measure)
    return SummabilityPartial(depth, W, members, non_members, s_eta, s_mu)


# ---------------------------------------------------------------------------
# exact structural inequalities
# ---------------------------------------------------------------------------

def norm_chain_check(accel: AccelTimes, ell: int, W: int) -> bool:
    """|A_l| ... |A_{l+W}| >= q_{l+W} / q_l, exactly (integer arithmetic).

    This is the implication chain tying K_T to the Ratner-DC bad set:
    heights are submultiplicative under the column-sum norm.
    """
    prod = 1
    for j in range(ell, ell + W + 1):
        prod *= accel.A_norm(j)
    # note the chain compares against the window ending at l+W+1 scales;
    # q_{l+W} <= q_l * |A_l|...|A_{l+W-1}| already, so the product over
    # W+1 factors dominates q_{l+W}/q_l with room
    return prod * accel.q(ell) >= accel.q(ell + W)


def min_height_growth(accel: AccelTimes, params: DcParams, ell: int) -> bool:
    """min_a h^(n_{l+l0}) >= 2 q_l with l0 = lbar * floor(log_d(2 nu^2))
    (= L - lbar), the height-growth step behind the backward/forward
    dichotomy."""
    ell0 = params.L - params.lbar
    target = ell + ell0
    if target > accel.count:
        raise ValueError("acceleration too short for the shifted index")
    return min(accel.heights(target)) >= 2 * accel.q(ell)
