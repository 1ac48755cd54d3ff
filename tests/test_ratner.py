import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ietflow.diophantine import validate_params
from ietflow.exact import ExactScalar
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    constant_roof,
    golden_rotation,
)
from ietflow.iet import Iet, IntegerOrbit, Permutation
from ietflow.rauzy import InductionTrace, select_accel_times
from ietflow.ratner import (
    BumpObservable,
    ConstantObservable,
    GoodRegion,
    WitnessConfig,
    WitnessPreconditionError,
    forbac_scan,
    induced_discontinuity_gaps,
    mixing_correlation,
    sample_good_pairs,
    sr_pair_test,
    triple_mixing_probe,
    verify_witness_high_precision,
)
from ietflow.roof import BirkhoffCursor, RoofDomainError, roof_area

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
        x = iet.iterate(target, -5)
        rep = forbac_scan(accel, x, ell, params)
        assert not rep.forward_ok
        assert rep.backward_ok

    def test_margin_precondition(self):
        accel = golden_accel()
        with pytest.raises(WitnessPreconditionError):
            forbac_scan(accel, F(1, 100), 8, golden_params(), epsilon=0.2)

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

    def test_straddling_pair_reported(self):
        accel, spec, cfg = witness_setup()
        iet = accel.trace.base
        gap = F(1, 10 ** 5)
        # plant a discontinuity preimage strictly inside [x, y]: the
        # forward attempt must fail with the witnessing index; the pair may
        # still rescue itself by switching to the backward direction
        inside = iet.iterate(iet.left("B"), -7)
        x = inside - ExactScalar(gap / 2)
        res = sr_pair_test(accel, spec, cfg, x, x + ExactScalar(gap))
        fwd_attempts = [a for a in res.attempts if a[0] == "forward"]
        assert fwd_attempts
        direction, ok, reason, straddle = fwd_attempts[0]
        assert not ok
        assert straddle == 7
        if res.verdict == "verified":
            assert res.direction == "backward"

    def test_gap_precondition(self):
        accel, spec, cfg = witness_setup()
        with pytest.raises(WitnessPreconditionError):
            sr_pair_test(accel, spec, cfg, F(1, 3), F(1, 3) + F(1, 10))

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
        x = iet.iterate(iet.left("B"), -5)
        planted = dataclasses.replace(res, x=x, y=x + F(1, 10 ** 5),
                                      direction="forward")
        with pytest.raises(RoofDomainError, match="orbit index 5"):
            verify_witness_high_precision(iet, spec, planted, cfg.epsilon)


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

    def test_triple_decay_trend(self):
        small = triple_mixing_probe(self.iet, self.spec, self.g, self.g,
                                    self.g, 3.0, 2.0, 200000, seed=6)
        large = triple_mixing_probe(self.iet, self.spec, self.g, self.g,
                                    self.g, 120.0, 90.0, 200000, seed=6)
        assert abs(large.value) < abs(small.value)
