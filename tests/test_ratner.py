import dataclasses
import math
from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from ietflow.diophantine import validate_params
from ietflow.exact import ExactScalar, _sign, quadratic_float
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    constant_roof,
    golden_rotation,
)
from ietflow.iet import (_SHADOW_RESYNC, Iet, IntegerOrbit, Permutation,
                         _first_above)
from ietflow import iet as iet_module, kernels, ratner, roof as roof_module
from ietflow.rauzy import InductionTrace, select_accel_times
from ietflow.ratner import (
    BumpObservable,
    ConstantObservable,
    GoodRegion,
    PairSamplingError,
    WitnessConfig,
    WitnessPreconditionError,
    forbac_scan,
    induced_discontinuity_gaps,
    mixing_correlation,
    sample_flow_space,
    sample_good_pairs,
    sr_pair_test,
    triple_mixing_probe,
    verify_witness_high_precision,
)
from ietflow.roof import (
    BirkhoffCursor,
    RoofDomainError,
    RoofSpec,
    SingularityTooClose,
    _EPS,
    _SHADOW_GAP,
    eval_roof,
    roof_area,
)
from ietflow.serialize import loads_iet
from iet_reference import ReferenceMap

F = Fraction

_CACHE = {}


def golden_accel():
    if "golden" not in _CACHE:
        trace = InductionTrace(golden_rotation()).extend(46)
        _CACHE["golden"] = select_accel_times(trace, 3, lbar_max=4)
    return _CACHE["golden"]


def bounded3_accel():
    if "b3" not in _CACHE:
        trace = InductionTrace(bounded_type_3iet()).extend(48)
        _CACHE["b3"] = select_accel_times(trace, 4, lbar_max=6)
    return _CACHE["b3"]


def golden_params():
    return validate_params(1.01, 0.995, 0.9, 0.992)


def witness_setup():
    accel = golden_accel()
    spec = asymmetric_log_roof(accel.trace.base)
    cfg = WitnessConfig(epsilon=0.2, N=10, params=golden_params(), seed=7,
                        window_len=0)
    return accel, spec, cfg


class TestForbac:
    def test_grid_dichotomy_small(self):
        accel = golden_accel()
        params = golden_params()
        for k in range(1, 41):
            x = F(2 * k + 1, 83)
            if not (F(1, 40) < x < F(39, 40)):
                continue
            rep = forbac_scan(accel, x, 8, params, epsilon=0.2)
            assert rep.which_holds != "neither"

    def test_forward_violator_has_backward_control(self):
        accel = golden_accel()
        params = golden_params()
        iet = accel.trace.base
        ell = 8
        thr = F(1, 6) / params.nu / accel.q(ell + params.L)
        # plant x so the forward orbit hits within c/(2 q_{l+L}) of l_B
        target = iet.left("B") + ExactScalar(thr / 2)
        x = ReferenceMap(iet).iterate(target, -5)
        rep = forbac_scan(accel, x, ell, params)
        assert not rep.forward_ok
        assert rep.backward_ok

    @pytest.mark.parametrize("shift,holds", [(-5, "backward"),
                                             (5, "forward")])
    def test_planted_violator_holds_the_other_way(self, shift, holds):
        # x's orbit hits within c/(2 q_{l+L}) of l_B five steps ahead
        # (shift -5) or five steps back (shift 5)
        accel = golden_accel()
        params = golden_params()
        iet = accel.trace.base
        ell = 8
        thr = F(1, 6) / params.nu / accel.q(ell + params.L)
        target = iet.left("B") + ExactScalar(thr / 2)
        rep = forbac_scan(accel, ReferenceMap(iet).iterate(target, shift),
                          ell, params)
        assert rep.which_holds == holds
        assert dataclasses.replace(rep, forward_ok=True,
                                   backward_ok=True).which_holds == "both"
        assert dataclasses.replace(rep, forward_ok=False,
                                   backward_ok=False).which_holds == "neither"

    def test_margin_precondition(self):
        accel = golden_accel()
        with pytest.raises(WitnessPreconditionError):
            forbac_scan(accel, F(1, 100), 8, golden_params(), epsilon=0.2)

    def test_margin_rule_is_half_open(self):
        # the margins are [0, eps/8) and (1 - eps/8, 1): their inner ends
        # belong to the good side
        margin = ratner.margin_width(0.2)
        assert margin == F(1, 40)
        tiny = F(1, 10 ** 12)
        for x, inside in [(0, True), (F(1, 40) - tiny, True),
                          (F(1, 40), False), (F(1, 2), False),
                          (F(39, 40), False), (F(39, 40) + tiny, True)]:
            assert ratner.in_margins(x, margin) is inside

    def test_epsilon_refuses_an_iet_off_the_unit_interval(self):
        # the golden rotation scaled to total 1/2: the eps/8 margins are
        # margins of [0, 1), so forbac_scan names the total
        half = loads_iet("top = A B\nbottom = B A\n"
                         "lengths = (3-1*sqrt(5))/4 (-1+1*sqrt(5))/4\n")
        accel = select_accel_times(InductionTrace(half).extend(46), 3,
                                   lbar_max=4)
        with pytest.raises(WitnessPreconditionError, match="total 1/2"):
            forbac_scan(accel, F(1, 4), 6, golden_params(), epsilon=0.2)
        # without epsilon there are no margins to place
        rep = forbac_scan(accel, F(1, 4), 6, golden_params())
        assert rep.forward_min.sign() > 0

    def test_exact_distances_positive(self):
        accel = golden_accel()
        rep = forbac_scan(accel, F(5, 12), 6, golden_params())
        assert rep.forward_min.sign() > 0
        assert rep.backward_min.sign() > 0
        assert rep.horizon == accel.q(6)


class TestLemma62:
    def test_golden_holds(self):
        accel = golden_accel()
        rep = induced_discontinuity_gaps(accel, 5)
        assert rep.holds
        assert rep.bound.sign() > 0

    def test_bounded3_holds(self):
        accel = bounded3_accel()
        for ell in [3, 4, 6]:
            assert induced_discontinuity_gaps(accel, ell).holds

    def test_d2_single_pairs(self):
        # after the exclusions exactly one pair remains on each side
        accel = golden_accel()
        rep = induced_discontinuity_gaps(accel, 4)
        ind = accel.iet(4)
        assert rep.holds
        # left family: alpha in {A, B}, beta != bottom-first
        bot_first = ind.perm.bottom[0]
        assert bot_first in ind.perm.alphabet


class TestWitness:
    def test_small_sample_rate(self):
        accel, spec, cfg = witness_setup()
        pairs, region = sample_good_pairs(accel, spec, cfg, 12, F(1, 10 ** 5))
        results = [sr_pair_test(accel, spec, cfg, x, y, good_region=region)
                   for x, y in pairs]
        verified = [r for r in results if r.verdict == "verified"]
        assert len(verified) >= 9
        for r in verified:
            assert r.p in (-1, 1)
            assert r.kappa_ok
            assert r.L / r.M >= cfg.kappa
            assert r.M >= cfg.N and r.L >= cfg.N
            assert r.max_deviation < cfg.epsilon
            assert r.max_separation < cfg.epsilon
        # the library sweep gives the hand loop's verdicts on the same pairs
        swept, reverified, failures = ratner.witness_run(accel, spec, cfg, 12,
                                                         F(1, 10 ** 5))
        keys = ("x", "y", "verdict", "direction", "p", "M", "L",
                "failure_kind")
        assert [[getattr(r, k) for k in keys] for r in swept] == \
            [[getattr(r, k) for k in keys] for r in results]
        hand = {"straddle": 0, "deviation": 0, "tie": 0}
        for r in results:
            if r.verdict != "verified":
                hand[r.failure_kind] += 1
        assert failures == hand
        assert sum(failures.values()) == len(pairs) - len(verified)
        assert sum(reverified) == len(verified)

    def test_high_precision_reverification(self):
        accel, spec, cfg = witness_setup()
        pairs, region = sample_good_pairs(accel, spec, cfg, 3, F(1, 10 ** 5))
        for x, y in pairs:
            res = sr_pair_test(accel, spec, cfg, x, y, good_region=region)
            if res.verdict == "verified":
                assert verify_witness_high_precision(
                    accel.trace.base, spec, res, cfg.epsilon)

    def test_constant_roof_fails_with_unit_deviation(self):
        accel = golden_accel()
        spec = constant_roof(accel.trace.base)
        cfg = WitnessConfig(epsilon=0.2, N=10, params=golden_params(),
                            seed=1, window_len=0)
        res = sr_pair_test(accel, spec, cfg, F(41, 100),
                           F(41, 100) + F(1, 10 ** 5))
        assert res.verdict == "failed"
        assert res.p in (-1, 1)
        assert res.max_deviation == pytest.approx(1.0, abs=1e-9)

    def test_sign_change_of_the_derivative_sums_is_a_tie(self,
                                                            monkeypatch):
        # the walk's derivative sums made to change sign on the window:
        # no shift p is admissible, in either direction
        accel, spec, cfg = witness_setup()
        walk = ratner._pair_walk

        def flipped(*args, **kwargs):
            checkpoints, straddle, deriv = walk(*args, **kwargs)
            v, e, d = checkpoints[-1]
            return checkpoints[:-1] + [(v, e, -d)], straddle, deriv

        monkeypatch.setattr(ratner, "_pair_walk", flipped)
        res = sr_pair_test(accel, spec, cfg, F(41, 100),
                           F(41, 100) + F(1, 10 ** 5))
        assert (res.verdict, res.failure_kind, res.p) == ("failed", "tie", 0)
        assert res.max_deviation == res.max_separation == math.inf
        assert [a[:2] for a in res.attempts] == [("forward", False),
                                                 ("backward", False)]
        assert res.failure_reason == ("derivative sum changes sign on the "
                                      "window (tie)")

    def test_straddling_pair_reported(self):
        accel, spec, cfg = witness_setup()
        iet = accel.trace.base
        gap = F(1, 10 ** 5)
        # plant a discontinuity preimage strictly inside [x, y]: the
        # forward attempt must fail with the witnessing index; the pair may
        # still rescue itself by switching to the backward direction
        inside = ReferenceMap(iet).iterate(iet.left("B"), -7)
        x = inside - ExactScalar(gap / 2)
        res = sr_pair_test(accel, spec, cfg, x, x + ExactScalar(gap))
        fwd_attempts = [a for a in res.attempts if a[0] == "forward"]
        assert fwd_attempts
        direction, ok, reason, straddle = fwd_attempts[0]
        assert not ok
        assert straddle == 7
        if res.verdict == "verified":
            assert res.direction == "backward"

    def test_forward_first_with_no_float_scan(self, monkeypatch):
        # the switchable property needs one direction: forward is tried
        # first and backward only after forward fails, with no kernel call
        def no_kernel(*args, **kwargs):
            raise AssertionError("the pair test called a float kernel")

        for name in ("float_tables", "min_orbit_distance"):
            monkeypatch.setattr(kernels, name, no_kernel)
        accel, spec, cfg = witness_setup()
        pairs, region = sample_good_pairs(accel, spec, cfg, 12, F(1, 10 ** 5))
        results = [sr_pair_test(accel, spec, cfg, x, y, good_region=region)
                   for x, y in pairs]
        for res in results:
            assert res.attempts[0][0] == "forward"
            if res.direction == "backward":
                assert len(res.attempts) == 2 and not res.attempts[0][1]
        assert {res.direction for res in results} == {"forward", "backward"}

    def test_iet_off_the_unit_interval_refused(self):
        # the golden rotation scaled to total 1/2: the margins and the
        # sampler take [0, 1), so the witness names the total instead
        half = loads_iet("top = A B\nbottom = B A\n"
                         "lengths = (3-1*sqrt(5))/4 (-1+1*sqrt(5))/4\n")
        accel = select_accel_times(InductionTrace(half).extend(46), 3,
                                   lbar_max=4)
        spec = asymmetric_log_roof(half)
        _, _, cfg = witness_setup()
        x = F(1, 4)
        for call in (lambda: GoodRegion(accel, spec, cfg),
                     lambda: sr_pair_test(accel, spec, cfg, x,
                                          x + F(1, 10 ** 5)),
                     lambda: ratner.witness_run(accel, spec, cfg, 2,
                                                F(1, 10 ** 5))):
            with pytest.raises(WitnessPreconditionError, match="total 1/2"):
                call()

    def test_gap_precondition(self):
        accel, spec, cfg = witness_setup()
        with pytest.raises(WitnessPreconditionError):
            sr_pair_test(accel, spec, cfg, F(1, 3), F(1, 3) + F(1, 10))

    @pytest.mark.parametrize("gap", [F(19, 20), F(1, 2), F(1, 10), F(0),
                                     F(-1, 10 ** 5)])
    def test_impossible_gap_is_named_before_sampling(self, monkeypatch,
                                                     gap):
        # at eps = 0.2 a pair gap must lie in (0, min(eps, eps^2) = 0.04)
        accel, spec, cfg = witness_setup()

        def no_region(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(ratner, "GoodRegion", no_region)
        name = "pair gap %s outside" % ExactScalar(gap).to_string()
        for call in (lambda: sample_good_pairs(accel, spec, cfg, 3, gap),
                     lambda: ratner.witness_run(accel, spec, cfg, 3, gap)):
            with pytest.raises(WitnessPreconditionError, match=name):
                call()
        if gap > 0:
            with pytest.raises(WitnessPreconditionError, match=name):
                sr_pair_test(accel, spec, cfg, F(1, 4), F(1, 4) + gap)

    def test_gap_of_eps_squared_is_refused(self, monkeypatch):
        # eps = 0.2 is read once, as the fraction 1/5, by every rule: a gap
        # of exactly eps^2 = 1/25 is refused (the float 0.2 * 0.2 rounds up
        # past it), one of 1/25 - 10^-18 is accepted
        accel, spec, cfg = witness_setup()

        def no_region(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(ratner, "GoodRegion", no_region)
        gap = F(1, 25)
        name = r"pair gap 1/25 outside \(0, min\(eps, eps\^2\)\) = \(0, 1/25\)"
        for call in (lambda: ratner._require_pair_gap(gap, cfg.epsilon),
                     lambda: sample_good_pairs(accel, spec, cfg, 3, gap),
                     lambda: sr_pair_test(accel, spec, cfg, F(1, 4),
                                          F(1, 4) + gap)):
            with pytest.raises(WitnessPreconditionError, match=name):
                call()
        below = gap - F(1, 10 ** 18)
        ratner._require_pair_gap(below, cfg.epsilon)
        with pytest.raises(AssertionError, match="sampling started"):
            sample_good_pairs(accel, spec, cfg, 3, below)

    def test_certificate_reads_eps_as_the_margins_do(self):
        # y - x = 1/5 = eps is refused although 1/5 < F(0.2), the float's
        # exact binary value
        iet, spec, cfg, res = verified_result()
        assert ratner.eps_fraction(cfg.epsilon) == F(1, 5) == \
            8 * ratner.margin_width(cfg.epsilon)
        wide = dataclasses.replace(res, y=res.x + F(1, 5))
        assert F(1, 5) < F(cfg.epsilon)
        assert not verify_witness_high_precision(iet, spec, wide, cfg.epsilon)
        assert verify_witness_high_precision(
            iet, spec, dataclasses.replace(res, y=res.x + F(1, 5) - F(
                1, 10 ** 18)), cfg.epsilon)

    def test_gap_with_no_room_between_the_margins(self):
        # eps = 0.95 admits gaps below 0.9025, but its margins are 0.11875
        # wide: a gap of 0.8 leaves no x with x and x + gap between them
        accel, spec, cfg = witness_setup()
        cfg = dataclasses.replace(cfg, epsilon=0.95)
        with pytest.raises(WitnessPreconditionError, match="no room") as info:
            sample_good_pairs(accel, spec, cfg, 3, F(4, 5))
        assert info.value.excluding_set == "margins"

    def test_too_few_good_pairs_raise_typed_error(self):
        accel, spec, cfg = witness_setup()
        with pytest.raises(PairSamplingError) as info:
            sample_good_pairs(accel, spec, cfg, 5, F(1, 10 ** 5),
                              max_tries=3)
        err = info.value
        assert isinstance(err, RuntimeError)
        # with window_len=0 the good set is the margins' complement, so
        # each of the three draws is a good pair
        assert (err.requested, err.found, err.max_tries) == (5, 3, 3)
        assert "found 3 in 3 tries" in str(err)

    def test_margin_precondition_named(self):
        accel, spec, cfg = witness_setup()
        with pytest.raises(WitnessPreconditionError) as info:
            sr_pair_test(accel, spec, cfg, F(1, 1000),
                         F(1, 1000) + F(1, 10 ** 5))
        assert info.value.excluding_set == "margins"

    def test_config_derived_quantities(self):
        cfg = WitnessConfig(epsilon=0.2, N=10, params=golden_params())
        assert cfg.kappa == pytest.approx(0.2 ** 5)
        assert cfg.shift_set == (-1, 1)
        assert cfg.ell_a == pytest.approx(101 / 0.2 ** 4)
        assert cfg.delta_asymptotic == pytest.approx(min(1 / cfg.ell_a ** 2, 0.04))


def reference_checkpoints(iet, spec, res):
    """The former 120-bit mpmath re-verification, kept as a reference:
    n -> (S_n(f)(x) - S_n(f)(y), |x_n - y_n|) for n in [M, M+L], from
    120-bit logs of the exact orbit gaps."""
    ox = IntegerOrbit(iet, res.x, extra=[res.y])
    oy = IntegerOrbit(iet, res.y, extra=[res.x])
    top = iet.perm.top
    lefts = [ox.pair_of(iet.left(a)) for a in top]
    rights = [ox.pair_of(iet.right(a)) for a in top]
    cps = [float(spec.cplus[a]) for a in top]
    cms = [float(spec.cminus[a]) for a in top]
    forward = res.direction == "forward"
    out = {}
    with mpmath.workprec(120):
        root = mpmath.sqrt(ox.field)

        def hp(pair):
            return (mpmath.mpf(pair[0]) + mpmath.mpf(pair[1]) * root) / ox.den

        def roof_hp(orbit):
            idx = orbit.interval_index()
            val = mpmath.mpf(spec.c0.numerator) / spec.c0.denominator
            if cps[idx]:
                dl = orbit.abs_distance(lefts[idx])
                val -= cps[idx] * mpmath.log(hp(dl))
            if cms[idx]:
                dr = orbit.abs_distance(rights[idx])
                val -= cms[idx] * mpmath.log(hp(dr))
            return val

        dsum = mpmath.mpf(0)
        top_n = res.M + res.L
        for n in range(top_n + 1):
            if n >= res.M:
                out[n] = (float(dsum),
                          float(abs(hp((ox.p - oy.p, ox.q - oy.q)))))
            if n == top_n:
                break
            if forward:
                dsum += roof_hp(ox) - roof_hp(oy)
                ox.step_forward()
                oy.step_forward()
            else:
                ox.step_backward()
                oy.step_backward()
                dsum -= roof_hp(ox) - roof_hp(oy)
    return out


def two_cursor_checkpoints(iet, spec, x, y, ns, forward):
    """The former two-cursor re-verification, kept as the reference of the
    exact pair walk: two BirkhoffCursors walk x and y in lockstep; n ->
    (S_n(f)(x) - S_n(f)(y), err_x + err_y) for n in ns (ascending)."""
    cx = BirkhoffCursor(iet, spec, x, forward=forward)
    cy = BirkhoffCursor(iet, spec, y, forward=forward)
    out = {}
    for n in ns:
        sx, sy = cx.sum_at(n), cy.sum_at(n)
        out[n] = (sx.value - sy.value, sx.err + sy.err)
    return out


def first_split(iet, x, y, depth, forward):
    """The first n < depth at which the exact orbit points x_n and y_n
    (backward: T^-(n+1) x and T^-(n+1) y) lie in two intervals, or None."""
    ox = IntegerOrbit(iet, x, extra=[y])
    oy = IntegerOrbit(iet, y, extra=[x])
    for n in range(depth):
        if not forward:
            ox.step_backward()
            oy.step_backward()
        if ox.interval_index() != oy.interval_index():
            return n
        if forward:
            ox.step_forward()
            oy.step_forward()
    return None


def bounded3_witness_setup():
    accel = bounded3_accel()
    params = validate_params(1.01, 0.995, 0.9, 0.992, nu=4, d=3,
                             lbar=accel.lbar)
    spec = asymmetric_log_roof(accel.trace.base)
    cfg = WitnessConfig(epsilon=0.2, N=10, params=params, seed=3,
                        window_len=0)
    return accel, spec, cfg


class TestReverification:
    @pytest.mark.parametrize("setup,count", [(witness_setup, 3),
                                             (bounded3_witness_setup, 1)])
    def test_cursor_enclosure_against_mpmath(self, setup, count):
        accel, spec, cfg = setup()
        iet = accel.trace.base
        pairs, region = sample_good_pairs(accel, spec, cfg, count,
                                          F(1, 10 ** 5))
        accepted = 0
        for x, y in pairs:
            res = sr_pair_test(accel, spec, cfg, x, y, good_region=region)
            if res.verdict != "verified":
                continue
            ref = reference_checkpoints(iet, spec, res)
            ok = verify_witness_high_precision(iet, spec, res, cfg.epsilon)
            ref_ok = all(abs(dev - res.p) < cfg.epsilon and sep < cfg.epsilon
                         for dev, sep in ref.values())
            assert ref_ok or not ok
            accepted += ok
            forward = res.direction == "forward"
            cx = BirkhoffCursor(iet, spec, x, forward=forward)
            cy = BirkhoffCursor(iet, spec, y, forward=forward)
            for n, (dev, _) in ref.items():
                sx, sy = cx.sum_at(n), cy.sum_at(n)
                assert abs(sx.value - sy.value - dev) <= sx.err + sy.err
            # the shift of the other sign is off by about 2 everywhere
            flipped = dataclasses.replace(res, p=-res.p)
            assert not verify_witness_high_precision(iet, spec, flipped,
                                                     cfg.epsilon)
        assert accepted >= 1

    def test_exact_hit_raises_with_orbit_index(self):
        accel, spec, cfg = witness_setup()
        iet = accel.trace.base
        pairs, region = sample_good_pairs(accel, spec, cfg, 1, F(1, 10 ** 5))
        res = sr_pair_test(accel, spec, cfg, *pairs[0], good_region=region)
        # the pair walk, which makes the certificate, raises on the orbit
        # point that lands on l_B; verification reads no orbit
        x = ReferenceMap(iet).iterate(iet.left("B"), -5)
        y = x + F(1, 10 ** 5)
        with pytest.raises(RoofDomainError, match="orbit index 5"):
            ratner._pair_walk(iet, spec, x, y, res.M, res.L, True)


def rewalk_verify(iet, spec, res, epsilon):
    """The former re-verification, kept as the reference of the certificate
    check: `_pair_walk` runs again on the result's x, y, direction, M and L,
    and the pair passes when 0 < y - x < epsilon, no straddle and
    |Delta_n - p| + radius < epsilon on the walked window."""
    if res.verdict != "verified" or \
            not 0 < res.y - res.x < ExactScalar(F(epsilon)):
        return False
    checkpoints, straddle, _ = ratner._pair_walk(
        iet, spec, res.x, res.y, res.M, res.L,
        forward=res.direction == "forward")
    return straddle is None and all(abs(v - res.p) + e < epsilon
                                    for v, e, _ in checkpoints)


def _terms(c0: float, cp: float, cm: float, dl: float, dr: float):
    """The former per-point `roof._terms`, kept as the reference of the
    pair walks below: (f, err, f', err') at a point of I_a from its
    correctly rounded float gaps dl = x - l_a and dr = r_a - x, with
    cp = Cplus_a, cm = Cminus_a; a gap is read only when its constant is
    nonzero."""
    val = c0
    budget = abs(val)
    dval = 0.0
    dbudget = 0.0
    if cp:
        term = -cp * math.log(dl)
        val += term
        budget += abs(term) + cp
        term = -cp / dl
        dval += term
        dbudget += abs(term)
    if cm:
        term = -cm * math.log(dr)
        val += term
        budget += abs(term) + cm
        term = cm / dr
        dval += term
        dbudget += abs(term)
    return (val, _EPS * (budget + abs(val)),
            dval, _EPS * (dbudget + abs(dval)) + 1e-300)


def exact_gap_pair_walk(iet, spec, x, y, M, L, forward):
    """The former `_pair_walk`, kept as the reference of the shadow-gap
    walk: IntegerOrbit's own steps, a second top-order locate after each
    backward step, and every roof term from the correctly rounded float of
    its exact gap through `_terms`.  Same arguments and return value
    (checkpoints, straddle, deriv)."""
    orbit = IntegerOrbit(iet, x, extra=[y])
    field, den, unit = orbit.field, orbit.den, orbit.unit
    d0, d1 = orbit.pair_of(y)
    d0, d1 = d0 - orbit.p, d1 - orbit.q
    step = orbit.step_forward if forward else orbit.step_backward
    lefts, rights = orbit.lefts, orbit.cuts
    top = iet.perm.top
    c0 = float(spec.c0)
    cps = [float(spec.cplus[a]) for a in top]
    cms = [float(spec.cminus[a]) for a in top]
    singular, cutoff = spec.has_log_singularity, spec.hard_cutoff
    df, cut = orbit.to_float((d0, d1)), float(cutoff)
    sign = 1 if forward else -1
    s = err = ds = 0.0
    checkpoints = []
    for n in range(M + L + 1):
        if n >= M:
            checkpoints.append((sign * s, err, sign * ds))
        if n == M + L:
            break
        if not forward:
            step()
        i = orbit.interval_index()
        p, q, left, right = orbit.p, orbit.q, lefts[i], rights[i]
        tol = orbit.xerr + 3 * unit
        yrf = orbit.frights[i] - orbit.xf - df
        if yrf <= tol and (yrf < -tol or _sign(right[0] - p - d0,
                                               right[1] - q - d1, field) <= 0):
            return checkpoints, n, sign * ds
        idx = n if forward else -n - 1
        if singular and p == left[0] and q == left[1]:
            # the model is undefined on {l_a}; constant roofs have no
            # singular set and evaluate everywhere
            raise RoofDomainError("evaluation at the singular point l_%s "
                                  "(orbit index %d)" % (top[i], idx))
        cp, cm = cps[i], cms[i]
        # where the roof is constant, f(x_n) - f(y_n) and f'(x_n) are 0
        if cp or cm:
            dl = (p - left[0], q - left[1])
            dr = (right[0] - p, right[1] - q)
            yl, yr = (dl[0] + d0, dl[1] + d1), (dr[0] - d0, dr[1] - d1)
            # y's left gap exceeds x's and x's right gap exceeds y's, so
            # these two shadows gate the exact cutoff checks of both points
            if (cp and orbit.xf - orbit.flefts[i] <= tol + cut) or (
                    cm and yrf <= tol + cut):
                for side, c, gap in (("left", cp, dl), ("right", cm, dr),
                                     ("left", cp, yl), ("right", cm, yr)):
                    if c and orbit.value(gap) <= cutoff:
                        raise SingularityTooClose(top[i], side,
                                                  orbit.value(gap), idx)
            fx, ex, dfx, _ = _terms(
                c0, cp, cm, quadratic_float(*dl, den, field) if cp else 0.0,
                quadratic_float(*dr, den, field) if cm else 0.0)
            fy, ey, _, _ = _terms(
                c0, cp, cm, quadratic_float(*yl, den, field) if cp else 0.0,
                quadratic_float(*yr, den, field) if cm else 0.0)
            s += fx - fy
            err += ex + ey + (abs(fx - fy) + abs(s)) * 2.0 ** -52
            ds += dfx
        if forward:
            step(i)
    return checkpoints, None, sign * ds


def scalar_pair_walk(iet: Iet, spec: RoofSpec, x, y, M: int, L: int,
                     forward: bool):
    """The former per-step `_pair_walk`, kept as the reference of the
    two-pass walk: the same orbit, straddle test, exact checks, roof terms
    and radius, one step at a time.  Same arguments and return value
    (checkpoints, straddle, deriv)."""
    orbit = IntegerOrbit(iet, x, extra=[y])
    field, den, unit = orbit.field, orbit.den, orbit.unit
    d0, d1 = orbit.pair_of(y)
    d0, d1 = d0 - orbit.p, d1 - orbit.q
    lefts, rights, flefts, frights = (orbit.lefts, orbit.cuts, orbit.flefts,
                                      orbit.frights)
    if forward:
        cuts, fcuts, trans, ftrans = rights, frights, orbit.trans, orbit.ftrans
    else:
        # the walk visits T^-1 x, T^-2 x, ...: it starts one step back and
        # locates each point in bottom order to step it on
        i = orbit.step_backward()
        cuts, fcuts, top_of_b = orbit.cuts_b, orbit.frights_b, orbit.top_of_b
        trans = [(-t0, -t1) for t0, t1 in orbit.trans_b]
        ftrans = [-t for t in orbit.ftrans_b]
    p, q, xf, xerr = orbit.p, orbit.q, orbit.xf, orbit.xerr
    last = len(cuts) - 1
    resync = _SHADOW_RESYNC * unit
    log = math.log
    top = iet.perm.top
    c0 = float(spec.c0)
    ac0 = abs(c0)
    cps = [float(spec.cplus[a]) for a in top]
    cms = [float(spec.cminus[a]) for a in top]
    singular, cutoff = spec.has_log_singularity, spec.hard_cutoff
    # on Q the terms are those of the correctly rounded exact gaps
    rational = field is None
    df, cut = orbit.to_float((d0, d1)), float(cutoff)
    sign = 1 if forward else -1
    s = err = ds = 0.0
    checkpoints = []
    for n in range(M + L + 1):
        if n >= M:
            checkpoints.append((sign * s, err, sign * ds))
        if n == M + L:
            break
        # locate x_n among `cuts` as IntegerOrbit._locate does
        j = bisect_right(fcuts, xf, 0, last)
        tol = xerr + 2 * unit
        if not ((j == 0 or xf - fcuts[j - 1] > tol) and
                (j == last or fcuts[j] - xf > tol)):
            j = _first_above(p, q, cuts, field)
        if forward:
            i = j
        tol += unit
        left, right = lefts[i], rights[i]
        grx = frights[i] - xf
        yrf = grx - df
        if yrf <= tol and (yrf < -tol or _sign(right[0] - p - d0,
                                               right[1] - q - d1, field) <= 0):
            return checkpoints, n, sign * ds
        if singular and p == left[0] and q == left[1]:
            # the model is undefined on {l_a}; constant roofs have no
            # singular set and evaluate everywhere
            raise RoofDomainError("evaluation at the singular point l_%s "
                                  "(orbit index %d)"
                                  % (top[i], n if forward else -n - 1))
        cp, cm = cps[i], cms[i]
        # where the roof is constant, f(x_n) - f(y_n) and f'(x_n) are 0
        if cp or cm:
            glx = xf - flefts[i]
            # y's left gap exceeds x's and x's right gap exceeds y's, so
            # these two shadows gate the exact cutoff checks of both points
            if (cp and glx <= tol + cut) or (cm and yrf <= tol + cut):
                dl = (p - left[0], q - left[1])
                dr = (right[0] - p, right[1] - q)
                for side, c, gap in (
                        ("left", cp, dl), ("right", cm, dr),
                        ("left", cp, (dl[0] + d0, dl[1] + d1)),
                        ("right", cm, (dr[0] - d0, dr[1] - d1))):
                    if c and orbit.value(gap) <= cutoff:
                        raise SingularityTooClose(
                            top[i], side, orbit.value(gap),
                            n if forward else -n - 1)
            # the terms of x and y as `_terms`, from shadow gaps gx, gy
            # within e, ey of the exact ones (correctly rounded on Q)
            e, ey = xerr + unit, xerr + 2 * unit
            fx = fy = c0
            bx = by = ac0
            dfx = rad = 0.0
            if cp:
                gx, gy = glx, glx + df
                if rational:
                    gx, gy = (p - left[0]) / den, (p - left[0] + d0) / den
                else:
                    if e > gx * _SHADOW_GAP:
                        gx = quadratic_float(p - left[0], q - left[1], den,
                                             field)
                    else:
                        rad += cp * e / (gx - e)
                    if ey > gy * _SHADOW_GAP:
                        gy = quadratic_float(p - left[0] + d0,
                                             q - left[1] + d1, den, field)
                    else:
                        rad += cp * ey / (gy - ey)
                tx, ty = -cp * log(gx), -cp * log(gy)
                fx += tx
                fy += ty
                bx += abs(tx) + cp
                by += abs(ty) + cp
                dfx += -cp / gx
            if cm:
                gx, gy = grx, yrf
                if rational:
                    gx, gy = (right[0] - p) / den, (right[0] - p - d0) / den
                else:
                    if e > gx * _SHADOW_GAP:
                        gx = quadratic_float(right[0] - p, right[1] - q, den,
                                             field)
                    else:
                        rad += cm * e / (gx - e)
                    if ey > gy * _SHADOW_GAP:
                        gy = quadratic_float(right[0] - p - d0,
                                             right[1] - q - d1, den, field)
                    else:
                        rad += cm * ey / (gy - ey)
                tx, ty = -cm * log(gx), -cm * log(gy)
                fx += tx
                fy += ty
                bx += abs(tx) + cm
                by += abs(ty) + cm
                dfx += cm / gx
            s += fx - fy
            err += (_EPS * (bx + abs(fx)) + _EPS * (by + abs(fy)) + rad
                    + (abs(fx - fy) + abs(s)) * 2.0 ** -52)
            ds += dfx
        # step x_n on, moving the shadow as IntegerOrbit._shift does
        t = trans[j]
        p += t[0]
        q += t[1]
        xerr += 2 * unit
        if xerr > resync:
            xf, xerr = quadratic_float(p, q, den, field), unit
        else:
            xf += ftrans[j]
        if not forward:
            i = top_of_b[j]
    return checkpoints, None, sign * ds


def verified_result():
    """A verified golden (seed 7) result and its setup."""
    if "verified" not in _CACHE:
        accel, spec, cfg = witness_setup()
        results, _, _ = ratner.witness_run(accel, spec, cfg, 3, F(1, 10 ** 5))
        res = next(r for r in results if r.verdict == "verified")
        _CACHE["verified"] = (accel.trace.base, spec, cfg, res)
    return _CACHE["verified"]


def _radius_to_the_bound(res, eps):
    # raise one radius until |Delta - p| + radius == eps exactly
    cps = list(res.checkpoints)
    k = len(cps) // 2
    v, e, d = cps[k]
    dev = abs(v - res.p)
    r = eps - dev
    while dev + r < eps:
        r = math.nextafter(r, math.inf)
    while dev + r > eps:
        r = math.nextafter(r, -math.inf)
    assert dev + r == eps and r > e
    cps[k] = (v, r, d)
    return dataclasses.replace(res, checkpoints=cps)


TAMPERS = {
    "radius_at_the_bound": _radius_to_the_bound,
    "one_checkpoint_short": lambda res, eps: dataclasses.replace(
        res, checkpoints=res.checkpoints[:-1]),
    "straddle_index_set": lambda res, eps: dataclasses.replace(
        res, straddle_index=res.M + res.L // 2),
    "gap_at_epsilon": lambda res, eps: dataclasses.replace(
        res, y=res.x + ExactScalar(F(eps))),
    "verdict_failed": lambda res, eps: dataclasses.replace(
        res, verdict="failed"),
}


class TestCertificate:
    """`verify_witness_high_precision` checks the pair test's certificate;
    the former re-walk is the reference."""

    @pytest.mark.parametrize("setup", [witness_setup, bounded3_witness_setup])
    def test_agrees_with_the_rewalk(self, setup):
        accel, spec, cfg = setup()
        iet = accel.trace.base
        results, reverified, _ = ratner.witness_run(accel, spec, cfg, 12,
                                                    F(1, 10 ** 5))
        seen = set()
        for res in results:
            # the result, its flipped shift, and both shifts called verified
            # (a failed result's certificate then decides alone)
            variants = [res] + [dataclasses.replace(res, p=p,
                                                    verdict="verified")
                                for p in (res.p, -res.p) if p]
            for v in variants:
                ok = verify_witness_high_precision(iet, spec, v, cfg.epsilon)
                assert ok == rewalk_verify(iet, spec, v, cfg.epsilon)
                seen.add(ok)
        assert seen == {True, False}
        assert reverified == [r.verdict == "verified" for r in results]

    def test_makes_no_walk(self, monkeypatch):
        iet, spec, cfg, res = verified_result()

        def no_walk(*args, **kwargs):
            raise AssertionError("the certificate check walked the pair")

        monkeypatch.setattr(ratner, "_pair_walk", no_walk)
        assert verify_witness_high_precision(iet, spec, res, cfg.epsilon)

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_certificate_fails(self, tamper):
        iet, spec, cfg, res = verified_result()
        assert len(res.checkpoints) == res.L + 1
        assert verify_witness_high_precision(iet, spec, res, cfg.epsilon)
        bad = TAMPERS[tamper](res, cfg.epsilon)
        assert not verify_witness_high_precision(iet, spec, bad, cfg.epsilon)


class TestPairWalk:
    """The exact pair walk of `sr_pair_test` and the re-verification,
    against the two-cursor walk, the exact orbits and 120-bit mpmath."""

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("setup", [witness_setup,
                                       bounded3_witness_setup])
    def test_against_references(self, setup, direction):
        accel, spec, cfg = setup()
        iet = accel.trace.base
        forward = direction == "forward"
        gap = F(1, 10 ** 5)
        pairs, region = sample_good_pairs(accel, spec, cfg, 2, gap)
        res = sr_pair_test(accel, spec, cfg, *pairs[0], good_region=region)
        M, L = res.M, res.L
        # plant a straddle inside the window: a top cut at x_k forward, a
        # bottom cut at T^-k x backward (the pair then lands in two top
        # intervals at T^-(k+1) x, which the walk reports as index k)
        k = M + L // 2
        rmap = ReferenceMap(iet)
        if forward:
            mid = rmap.iterate(iet.left(iet.perm.top[1]), -k)
        else:
            mid = rmap.iterate(iet.left_image(iet.perm.bottom[1]), k)
        pairs.append((mid - ExactScalar(gap / 2), mid + ExactScalar(gap / 2)))
        straddles = []
        for x, y in pairs:
            checkpoints, straddle, _ = ratner._pair_walk(iet, spec, x, y, M,
                                                         L, forward)
            assert straddle == first_split(iet, x, y, M + L, forward)
            straddles.append(straddle)
            top = M + L if straddle is None else straddle
            assert len(checkpoints) == max(top - M + 1, 0)
            if not checkpoints:
                continue
            ns = range(M, top + 1)
            ref = two_cursor_checkpoints(iet, spec, x, y, ns, forward)
            hp = reference_checkpoints(iet, spec, SimpleNamespace(
                x=x, y=y, direction=direction, M=M, L=top - M))
            for n, (value, err, _) in zip(ns, checkpoints):
                ref_value, ref_err = ref[n]
                assert abs(value - ref_value) <= err + ref_err, n
                assert abs(value - hp[n][0]) <= err, n
        assert straddles[-1] == k

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("setup", [witness_setup,
                                       bounded3_witness_setup])
    def test_radius_covers_both_roof_radii(self, setup, forward):
        accel, spec, _ = setup()
        iet = accel.trace.base
        x = ExactScalar(F(41, 100))
        y = x + ExactScalar(F(1, 10 ** 5))
        checkpoints, straddle, _ = ratner._pair_walk(iet, spec, x, y, 0, 60,
                                                     forward)
        assert straddle is None
        # at every n the radius is at least the sum of the eval_roof radii
        # of x_k and y_k over the points walked (up to float summation),
        # except where the roof is constant and f(x_k) - f(y_k) = 0 exactly
        bound, ref = 0.0, ReferenceMap(iet)
        for n, (_, err, _) in enumerate(checkpoints):
            assert err >= bound * (1 - 1e-12), n
            if not forward:
                x, y = ref.evaluate_inverse(x), ref.evaluate_inverse(y)
            a = ref.interval_of(x)
            if spec.cplus[a] or spec.cminus[a]:
                bound += (eval_roof(iet, spec, x).err
                          + eval_roof(iet, spec, y).err)
            if forward:
                x, y = ref.evaluate(x), ref.evaluate(y)
        assert bound > 0

    def test_pair_on_a_cut_straddles_by_the_exact_test(self, monkeypatch):
        accel, spec, _ = witness_setup()
        iet = accel.trace.base
        # y_7 lands exactly on l_B: r_A - x_7 equals delta, a tie that
        # only the exact sign can decide, and a straddle
        y = ReferenceMap(iet).iterate(iet.left("B"), -7)
        x = y - ExactScalar(F(1, 10 ** 5))
        signs = []
        exact_sign = ratner._sign

        def spy(p, q, d):
            signs.append(exact_sign(p, q, d))
            return signs[-1]

        monkeypatch.setattr(ratner, "_sign", spy)
        checkpoints, straddle, _ = ratner._pair_walk(iet, spec, x, y, 5, 10,
                                                     True)
        assert straddle == 7
        assert signs == [0]
        assert len(checkpoints) == 3


def walk_outcome(checkpoints, deriv):
    """(p, tie) as `sr_pair_test` reads them from one walk."""
    return (1 if deriv < 0 else -1,
            len({d > 0 for _, _, d in checkpoints if d != 0}) > 1)


def count_calls(monkeypatch, module, name):
    """Wrap module.name to count its calls; returns the one-item count
    list."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_walk_floats(monkeypatch, iet):
    """Count the floats a pair walk on `iet` rounds from exact pairs once
    its orbit is built: the exact gaps (`quadratic_float` in `roof`) and the
    shadow re-syncs (`quadratic_float` in `iet`, inside
    `IntegerOrbit.segment`); returns the one-item count list.  The IET's
    itinerary table, built once per IET, is built before counting."""
    iet.itinerary_table()
    calls = count_calls(monkeypatch, roof_module, "quadratic_float")
    inside = [False]
    inner, segment = iet_module.quadratic_float, IntegerOrbit.segment

    def counted(*args):
        calls[0] += inside[0]
        return inner(*args)

    def walked(self, *args):
        inside[0] = True
        try:
            return segment(self, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(iet_module, "quadratic_float", counted)
    monkeypatch.setattr(IntegerOrbit, "segment", walked)
    return calls


def two_sided_roof(iet):
    """Log singularities on both sides of every cut, of unequal weights."""
    top = iet.perm.top
    return RoofSpec(c0=F(1), cplus={a: F(k + 1, 4) for k, a in enumerate(top)},
                    cminus={a: F(k + 2, 3) for k, a in enumerate(top)})


class TestShadowGapWalk:
    """`_pair_walk` reads x's gaps from the shadow; the former walk, which
    rounds every exact gap, and 120-bit mpmath are its references."""

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("setup", [witness_setup,
                                       bounded3_witness_setup])
    def test_against_the_exact_gap_walk(self, setup, forward):
        accel, spec, cfg = setup()
        iet = accel.trace.base
        pairs, region = sample_good_pairs(accel, spec, cfg, 20,
                                          F(1, 10 ** 5))
        res = sr_pair_test(accel, spec, cfg, *pairs[0], good_region=region)
        for x, y in pairs:
            checkpoints, straddle, deriv = ratner._pair_walk(
                iet, spec, x, y, res.M, res.L, forward)
            ref, ref_straddle, ref_deriv = exact_gap_pair_walk(
                iet, spec, x, y, res.M, res.L, forward)
            assert straddle == ref_straddle
            assert len(checkpoints) == len(ref)
            for (v, e, _), (rv, re, _) in zip(checkpoints, ref):
                assert abs(v - rv) <= e + re
                assert e >= re * (1 - 1e-12)
            assert walk_outcome(checkpoints, deriv) == \
                walk_outcome(ref, ref_deriv)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_gap_near_a_cut_is_rounded_exactly(self, monkeypatch, side,
                                                forward):
        iet = golden_rotation()
        spec = two_sided_roof(iet)
        tiny = ExactScalar(F(1, 10 ** 12))
        gap = ExactScalar(F(1, 10 ** 5))
        # the walk's point 7 (forward x_7, backward T^-7 x, index 6) lies
        # 1e-12 from l_B: x to its right (x's left gap), or y to its left
        # (y's right gap); the next forward point lies 1e-12 from 0 or 1
        # (T l_B = 0).  The 2^-20 rule rounds those two gaps exactly.
        target = iet.left("B") + tiny if side == "left" \
            else iet.left("B") - tiny
        start = ReferenceMap(iet).iterate(target, -7 if forward else 7)
        x, y = (start, start + gap) if side == "left" else (start - gap,
                                                            start)
        calls = count_walk_floats(monkeypatch, iet)
        L = 12
        checkpoints, straddle, _ = ratner._pair_walk(iet, spec, x, y, 0, L,
                                                     forward)
        assert straddle is None and len(checkpoints) == L + 1
        assert calls[0] == 2
        hp = reference_checkpoints(iet, spec, SimpleNamespace(
            x=x, y=y, direction="forward" if forward else "backward", M=0,
            L=L))
        for n, (value, err, _) in enumerate(checkpoints):
            assert abs(value - hp[n][0]) <= err, n

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("roof", [asymmetric_log_roof, two_sided_roof])
    def test_rational_iet_is_bit_identical(self, roof, forward):
        perm = Permutation(["A", "B", "C", "D"], ["D", "C", "B", "A"])
        iet = Iet(perm, [F(3, 17), F(5, 19), F(2, 7), F(7, 23)])
        spec = roof(iet)
        x = ExactScalar(F(41, 100))
        y = x + ExactScalar(F(1, 10 ** 7))
        walk = ratner._pair_walk(iet, spec, x, y, 20, 300, forward)
        assert walk == exact_gap_pair_walk(iet, spec, x, y, 20, 300, forward)
        assert len(walk[0]) > 100

    @pytest.mark.parametrize("forward", [True, False])
    def test_long_window_passes_the_shadow_resync(self, monkeypatch,
                                                  forward):
        accel, spec, _ = witness_setup()
        iet = accel.trace.base
        x = ExactScalar(F(41, 100))
        y = x + ExactScalar(F(1, 10 ** 5))
        M, L = 2100, 20
        calls = count_walk_floats(monkeypatch, iet)
        checkpoints, straddle, _ = ratner._pair_walk(iet, spec, x, y, M, L,
                                                     forward)
        assert straddle is None and len(checkpoints) == L + 1
        # 2 units a step from 1: the shadow re-syncs once past 4096 units
        assert calls[0] == 1
        hp = reference_checkpoints(iet, spec, SimpleNamespace(
            x=x, y=y, direction="forward" if forward else "backward", M=M,
            L=L))
        for n, (value, err, _) in enumerate(checkpoints, M):
            assert abs(value - hp[n][0]) <= err, n


def walk_or_error(walk, *args):
    """A pair walk's (checkpoints, straddle, deriv), or its error: the
    type, the message (which names the orbit index) and, for
    SingularityTooClose, the label, side, distance and orbit index."""
    try:
        return walk(*args)
    except RoofDomainError as exc:
        return type(exc), str(exc)
    except SingularityTooClose as exc:
        return (type(exc), str(exc), exc.label, exc.side, exc.distance,
                exc.orbit_index)


def assert_walks_agree(iet, spec, x, y, M, L, forward):
    """`_pair_walk` equals `scalar_pair_walk` exactly; returns its walk."""
    args = (iet, spec, x, y, M, L, forward)
    walk = walk_or_error(ratner._pair_walk, *args)
    assert walk == walk_or_error(scalar_pair_walk, *args)
    return walk


def rational_4iet():
    perm = Permutation(["A", "B", "C", "D"], ["D", "C", "B", "A"])
    return Iet(perm, [F(3, 17), F(5, 19), F(2, 7), F(7, 23)])


class TestTwoPassWalk:
    """`_pair_walk` walks segments in two passes (the interval indices,
    then array operations); the former per-step walk, `scalar_pair_walk`,
    is its reference bit for bit: the checkpoints, straddle and deriv, or
    the error type and orbit index."""

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("setup", [witness_setup,
                                       bounded3_witness_setup])
    def test_sampled_pairs(self, setup, forward):
        accel, spec, cfg = setup()
        iet = accel.trace.base
        pairs, region = sample_good_pairs(accel, spec, cfg, 6, F(1, 10 ** 5))
        res = sr_pair_test(accel, spec, cfg, *pairs[0], good_region=region)
        # the witness windows span more than two segments
        assert res.M + res.L > 2 * ratner._SEGMENT
        for x, y in pairs:
            assert_walks_agree(iet, spec, x, y, res.M, res.L, forward)

    def test_exact_gap_branch(self, monkeypatch):
        # the forward walk of the 44th bounded-3 seed-3 pair comes within
        # 2^-20 of a cut once, where its gap is rounded exactly
        accel, spec, _ = bounded3_witness_setup()
        iet = accel.trace.base
        x = ExactScalar(F(43560461, 125000000))
        y = x + ExactScalar(F(1, 10 ** 5))
        M, L = 10770, 18
        calls = count_walk_floats(monkeypatch, iet)
        _, straddle, _ = assert_walks_agree(iet, spec, x, y, M, L, True)
        assert straddle is None
        # one call per shadow re-sync, one for the exact gap
        assert calls[0] == (M + L) // ratner._SEGMENT + 1

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("k", [100, 5000])
    def test_straddle_in_a_segment(self, k, forward):
        # a straddle planted as in TestPairWalk, in the first segment or a
        # later one
        accel, spec, _ = witness_setup()
        iet = accel.trace.base
        half = ExactScalar(F(1, 2 * 10 ** 9))
        rmap = ReferenceMap(iet)
        if forward:
            mid = rmap.iterate(iet.left(iet.perm.top[1]), -k)
        else:
            mid = rmap.iterate(iet.left_image(iet.perm.bottom[1]), k)
        M = 50
        checkpoints, straddle, _ = assert_walks_agree(
            iet, spec, mid - half, mid + half, M, 6000, forward)
        assert straddle == k and len(checkpoints) == k - M + 1

    @pytest.mark.parametrize("field,roof,forward", [
        ("sqrt5", asymmetric_log_roof, True),
        ("sqrt5", asymmetric_log_roof, False),
        ("Q", two_sided_roof, True), ("Q", constant_roof, True)])
    @pytest.mark.parametrize("n", [7, 3000])
    def test_straddle_by_the_exact_sign(self, monkeypatch, n, field, roof,
                                        forward):
        # y_n lands exactly on a cut, a tie only `_sign` decides: forward
        # on l_B = r_A; backward on r_B = 1, past T^-(n+1) y = l_B since
        # T l_B = 0.  On Q the shadow difference is exactly 0 there, at
        # the edge of the gate of a log roof and of a constant one.
        iet = rational_4iet() if field == "Q" else golden_rotation()
        spec = roof(iet)
        y = ReferenceMap(iet).iterate(iet.left("B"), -n if forward else n + 2)
        x = y - ExactScalar(F(1, 10 ** 5))
        signs = []
        exact_sign = ratner._sign

        def spy(p, q, d):
            signs.append(exact_sign(p, q, d))
            return signs[-1]

        monkeypatch.setattr(ratner, "_sign", spy)
        _, straddle, _ = assert_walks_agree(iet, spec, x, y, 5, n + 10,
                                            forward)
        assert straddle == n and signs == [0]

    @pytest.mark.parametrize("setup,label,forward", [
        (bounded3_witness_setup, "C", True),
        (witness_setup, "B", False)])
    def test_shadow_index_corrected(self, monkeypatch, setup, label,
                                    forward):
        # T^5 x lands exactly on l_C (bounded-3, forward), or T^-9 x =
        # T^2 l_B on the right end of T(I_B), the first bottom cut
        # (golden, backward), where the bisection of the shadow cannot
        # decide: the per-step reference's locate falls back to the exact
        # `_first_above` there, and the pair walk, whose segments read
        # their indices off the IET's itinerary table, agrees with it; the
        # roof is constant, so the walk goes on past the hit
        accel, _, _ = setup()
        iet = accel.trace.base
        spec = constant_roof(iet)
        n = 5 if forward else 10
        ref = ReferenceMap(iet)
        x = ref.iterate(iet.left(label), -n if forward else n + 1)
        y = x + ExactScalar(F(1, 10 ** 9))
        on_cut = iet.left(label) if forward else \
            iet.right_image(iet.perm.bottom[0])
        assert ref.iterate(x, n if forward else 1 - n) == on_cut
        orbit = IntegerOrbit(iet, x, extra=[y])
        points, inner = [], _first_above

        def spy(p, q, cuts, field):
            points.append((p, q))
            return inner(p, q, cuts, field)

        monkeypatch.setitem(scalar_pair_walk.__globals__, "_first_above",
                            spy)
        _, straddle, _ = assert_walks_agree(iet, spec, x, y, 0, n + 20,
                                            forward)
        assert straddle is None
        assert orbit.pair_of(on_cut) in points

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("setup", [witness_setup,
                                       bounded3_witness_setup])
    @pytest.mark.parametrize("L", [60, 3000])
    def test_window_from_zero(self, setup, L, forward):
        accel, spec, _ = setup()
        iet = accel.trace.base
        x = ExactScalar(F(41, 100))
        y = x + ExactScalar(F(1, 10 ** 5))
        checkpoints, _, _ = assert_walks_agree(iet, spec, x, y, 0, L,
                                               forward)
        assert checkpoints[0] == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("den", [10 ** 7, 10 ** 12, 10 ** 50])
    def test_rational_iet(self, den, forward):
        # the shadow on Q is Python ints; at den 10^50 the hard cutoff's
        # numerator of the log roof is past int64
        iet = rational_4iet()
        spec = two_sided_roof(iet)
        x = ExactScalar(F(41, 100))
        y = x + ExactScalar(F(1, den))
        checkpoints, _, _ = assert_walks_agree(iet, spec, x, y, 20, 5000,
                                               forward)
        assert len(checkpoints) > 100

    @pytest.mark.parametrize("forward", [True, False])
    def test_offsets_past_int64(self, forward):
        # over a denominator of 10^30 the translation numerators times a
        # segment pass 2^63: the exact offsets are Python ints
        accel, spec, _ = witness_setup()
        iet = accel.trace.base
        x = ExactScalar(F(41, 100) + F(1, 10 ** 30))
        y = x + ExactScalar(F(1, 10 ** 5))
        assert_walks_agree(iet, spec, x, y, 100, 3000, forward)

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("n", [5, 3000])
    def test_singular_point(self, n, forward):
        # x_n lands on l_B forward; backward on l_A = 0 (T l_B = 0, so the
        # backward orbit of a point past l_B meets 0 first)
        accel, spec, _ = witness_setup()
        iet = accel.trace.base
        ref = ReferenceMap(iet)
        x = ref.iterate(iet.left("B"), -n) if forward else \
            ref.iterate(iet.left("A"), n + 1)
        y = x + ExactScalar(F(1, 10 ** 5))
        walk = assert_walks_agree(iet, spec, x, y, 0, n + 10, forward)
        assert walk[0] is RoofDomainError
        assert walk[1].endswith("(orbit index %d)" % (n if forward
                                                     else -n - 1))

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n", [5, 3000])
    def test_within_the_cutoff(self, n, side, forward):
        # x_n just right of a cut (x's left gap), or y_n just left of it
        # (y's right gap), closer than the cutoff 10^-30: of l_B forward;
        # backward, where T maps points near l_B near 0 or 1, of 0 or 1
        iet = golden_rotation()
        spec = two_sided_roof(iet)
        tiny = ExactScalar(F(1, 10 ** 31))
        gap = ExactScalar(F(1, 10 ** 5))
        if forward:
            target = iet.left("B") + (tiny if side == "left" else -tiny)
        else:
            target = tiny if side == "left" else iet.total - tiny
        start = ReferenceMap(iet).iterate(target, -n if forward else n + 1)
        x, y = (start, start + gap) if side == "left" else (start - gap,
                                                            start)
        walk = assert_walks_agree(iet, spec, x, y, 0, n + 10, forward)
        assert walk[0] is SingularityTooClose
        assert walk[3:] == (side, tiny, n if forward else -n - 1)


class TestExactInputs:
    """Points entering the exact pipeline are exact: a float is a
    TypeError at each entry point, never a silently converted Fraction."""

    def test_forbac_scan(self):
        with pytest.raises(TypeError):
            forbac_scan(golden_accel(), 0.5, 8, golden_params())

    def test_good_region(self):
        accel, spec, cfg = witness_setup()
        region = GoodRegion(accel, spec, cfg)
        for query in (region.contains, region.why_excluded):
            with pytest.raises(TypeError):
                query(0.5)
        assert region.contains(F(1, 2))
        assert region.why_excluded(F(1, 2)) is None

    @pytest.mark.parametrize("x, y", [(0.5, F(1, 2) + F(1, 10 ** 4)),
                                      (F(1, 2), 0.5001)])
    def test_sr_pair_test(self, x, y):
        accel, spec, cfg = witness_setup()
        with pytest.raises(TypeError):
            sr_pair_test(accel, spec, cfg, x, y)


class TestGoodRegion:
    def test_window0_region_is_margins_only(self):
        accel, spec, cfg = witness_setup()
        region = GoodRegion(accel, spec, cfg)
        assert region.excluded_indices == []
        assert region.contains(F(1, 2))
        assert not region.contains(F(1, 100))

    def test_faithful_window_excludes_sets(self):
        accel, spec, _ = witness_setup()
        cfg = WitnessConfig(epsilon=0.2, N=10, params=golden_params(),
                            seed=7, window_len=None, horizon_start=3,
                            horizon_end=6)
        region = GoodRegion(accel, spec, cfg)
        # golden indices sit outside K_T under the faithful window, so the
        # excluded unions are non-trivial
        assert region.excluded_indices == [3, 4, 5, 6]
        assert not region.excluded.is_empty()


class TestMixingProbes:
    def setup_method(self):
        self.iet = golden_rotation()
        self.spec = asymmetric_log_roof(self.iet)
        self.area = roof_area(self.iet, self.spec)
        self.g = BumpObservable(x0=0.3, wx=0.12, y0=0.45, wy=0.3)
        self.h = BumpObservable(x0=0.7, wx=0.12, y0=0.45, wy=0.3)

    def test_t0_variance_check(self):
        est = mixing_correlation(self.iet, self.spec, self.g, self.g, 0.0,
                                 200000, seed=3)
        analytic = (self.g.second_moment(self.area)
                    - self.g.mean(self.area) ** 2)
        assert abs(est.value - analytic) <= 3 * est.stderr

    def test_disjoint_supports_at_t0(self):
        est = mixing_correlation(self.iet, self.spec, self.g, self.h, 0.0,
                                 50000, seed=4)
        expect = -self.g.mean(self.area) * self.h.mean(self.area)
        assert est.value == pytest.approx(expect, abs=1e-12)
        assert est.stderr == 0.0

    def test_deterministic_under_seed(self):
        a = mixing_correlation(self.iet, self.spec, self.g, self.h, 7.0,
                               20000, seed=11)
        b = mixing_correlation(self.iet, self.spec, self.g, self.h, 7.0,
                               20000, seed=11)
        assert a.value == b.value and a.stderr == b.stderr

    def test_decay_trend(self):
        small = mixing_correlation(self.iet, self.spec, self.g, self.g, 5.0,
                                   300000, seed=5)
        large = mixing_correlation(self.iet, self.spec, self.g, self.g,
                                   200.0, 300000, seed=5)
        assert abs(large.value) < abs(small.value)

    def test_flows_reuse_the_sampled_roof_values(self, monkeypatch):
        # the flow-space check reads f(x) from `sample_flow_space`, with no
        # second roof pass; a flow from flowed points makes its own.  The
        # triple probes carry constants, so their live samples (h's
        # support) reach both flows
        seen, inner = [], kernels._require_flow_space
        one = ConstantObservable(1.0)

        def spy(tables, x, y, f=None):
            seen.append(f)
            return inner(tables, x, y, f)

        monkeypatch.setattr(kernels, "_require_flow_space", spy)
        mixing_correlation(self.iet, self.spec, self.g, self.h, 7.0, 20000,
                           seed=11)
        triple_mixing_probe(self.iet, self.spec, self.h, one, one, 3.5,
                            2.0, 20000, seed=11)
        triple_mixing_probe(self.iet, self.spec, self.h, one, one, 0.0,
                            2.0, 20000, seed=11)
        assert [f is None for f in seen] == [False, False, True, False]
        x, y, tables, fx = sample_flow_space(self.iet, self.spec, 20000,
                                             np.random.default_rng(11))
        assert np.array_equal(fx, kernels.roof_values(tables, x))
        # the first flow moves only the samples in h's support
        assert np.array_equal(seen[0], fx.take(np.flatnonzero(self.h(x, y))))

    def test_triple_marginalization(self):
        one = ConstantObservable(1.0)
        t2 = 3.5
        triple = triple_mixing_probe(self.iet, self.spec, self.h, self.g,
                                     one, t2, 0.0, 40000, seed=9)
        double = mixing_correlation(self.iet, self.spec, self.g, self.h, t2,
                                    40000, seed=9)
        assert triple.value == pytest.approx(double.value, abs=1e-12)

    def test_triple_t0_quadrature_oracle(self):
        scipy = pytest.importorskip("scipy.integrate")
        g1 = BumpObservable(x0=0.4, wx=0.2, y0=0.4, wy=0.35)
        g2 = BumpObservable(x0=0.45, wx=0.2, y0=0.45, wy=0.35)
        g3 = BumpObservable(x0=0.5, wx=0.2, y0=0.5, wy=0.35)
        est = triple_mixing_probe(self.iet, self.spec, g1, g2, g3, 0.0, 0.0,
                                  400000, seed=13)

        def bump(u):
            return (1 - u ** 2) ** 3 if abs(u) < 1 else 0.0

        fx, _ = scipy.quad(lambda x: (bump((x - 0.4) / 0.2)
                                      * bump((x - 0.45) / 0.2)
                                      * bump((x - 0.5) / 0.2)), 0, 1)
        fy, _ = scipy.quad(lambda y: (bump((y - 0.4) / 0.35)
                                      * bump((y - 0.45) / 0.35)
                                      * bump((y - 0.5) / 0.35)), 0, 1)
        analytic = (fx * fy / self.area
                    - g1.mean(self.area) * g2.mean(self.area)
                    * g3.mean(self.area))
        assert abs(est.value - analytic) <= 3 * est.stderr

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_few_samples_is_refused(self, n):
        # one sample has no standard error and none has no mean
        with pytest.raises(ValueError, match=r"n_samples = %d: .* at least "
                           r"2 samples" % n):
            mixing_correlation(self.iet, self.spec, self.g, self.h, 5.0, n)
        with pytest.raises(ValueError, match=r"n_samples = %d" % n):
            triple_mixing_probe(self.iet, self.spec, self.g, self.h, self.g,
                                1.0, 2.0, n)
        est = mixing_correlation(self.iet, self.spec, self.g, self.g, 5.0, 2)
        assert math.isfinite(est.value) and math.isfinite(est.stderr)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constant_refuses_a_non_finite_value(self, value):
        # 0.0 times a non-finite factor is NaN, not the 0.0 that a sample
        # dropped from the probe keeps
        with pytest.raises(ValueError, match=r"ConstantObservable value = "):
            ConstantObservable(value)
        ConstantObservable(-1e308)

    def test_triple_decay_trend(self):
        small = triple_mixing_probe(self.iet, self.spec, self.g, self.g,
                                    self.g, 3.0, 2.0, 200000, seed=6)
        large = triple_mixing_probe(self.iet, self.spec, self.g, self.g,
                                    self.g, 120.0, 90.0, 200000, seed=6)
        assert abs(large.value) < abs(small.value)


# value and stderr as float.hex, recorded with the numpy kernel before the
# flow compacted by index and ran in blocks; n = 140000 is three blocks
PINNED_PROBES = {
    3: [(0.0, "0x1.e31cffb49a2e6p-10", "0x1.c50b48e4bf78bp-15"),
        (5.0, "0x1.9ebb024ebc0aep-10", "0x1.71dfd94eb1f62p-14"),
        (-200.0, "0x1.d59d37ebf3700p-18", "0x1.a88059e1ff6b0p-15"),
        ("triple", "-0x1.63b645354d1c6p-14", "0x1.acfe60e52f5eep-28")],
    8: [(0.0, "0x1.de29aac3bc3a8p-10", "0x1.c2566dd608560p-15"),
        (5.0, "0x1.9b366f0e4fe4cp-10", "0x1.74639c84bb4cep-14"),
        (-200.0, "-0x1.8596371d256a0p-15", "0x1.9a10a99fcb4b7p-15"),
        ("triple", "-0x1.63b2621c0edf4p-14", "0x1.ea68c31ca6812p-28")],
}


@pytest.mark.parametrize("seed", sorted(PINNED_PROBES))
def test_probe_outputs_are_pinned(seed):
    """Every bit of the mix_probe estimates on the numpy kernel: the
    benchmark's fingerprint holds only the item and the sample count."""
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    g = BumpObservable(x0=0.5, wx=0.3, y0=0.5, wy=0.49)
    h = BumpObservable(x0=0.3, wx=0.12, y0=0.45, wy=0.3)
    n = 140000
    for t, value, stderr in PINNED_PROBES[seed]:
        if t == "triple":
            est = triple_mixing_probe(iet, spec, g, h, g, 5.0, 20.0, n,
                                      seed=seed)
        else:
            est = mixing_correlation(iet, spec, g, h, t, n, seed=seed)
        assert (est.value.hex(), est.stderr.hex()) == (value, stderr), t
