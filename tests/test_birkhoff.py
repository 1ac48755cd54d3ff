import dataclasses
import math
import statistics
from fractions import Fraction

import pytest

from ietflow import birkhoff
from ietflow.birkhoff import (
    ExactHitError,
    ExcludedPointError,
    SigmaDomainError,
    approach_stats,
    derivative_growth_check,
    exponent_trend_series,
    locate_scale,
    prty_conditions,
    sigma,
    sigma_rational,
    sigma_set,
)
from ietflow.exact import ExactScalar
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    constant_roof,
    golden_rotation,
    rotation_third,
)
from ietflow.iet import Iet, Permutation
from ietflow.rauzy import InductionTrace, select_accel_times, towers
from ietflow.roof import BirkhoffCursor, RoofSpec

F = Fraction


_ACCEL_CACHE = {}


def golden_accel(depth=32):
    key = ("golden", depth)
    if key not in _ACCEL_CACHE:
        trace = InductionTrace(golden_rotation()).extend(depth)
        _ACCEL_CACHE[key] = select_accel_times(trace, 3, lbar_max=4)
    return _ACCEL_CACHE[key]


def bounded3_accel(depth=30):
    key = ("bounded3", depth)
    if key not in _ACCEL_CACHE:
        trace = InductionTrace(bounded_type_3iet()).extend(depth)
        _ACCEL_CACHE[key] = select_accel_times(trace, 4, lbar_max=6)
    return _ACCEL_CACHE[key]


class _StubAccel:
    """Duck-typed scale data for formula-level checks."""

    def __init__(self, norms, qs):
        self._norms = norms
        self._qs = qs

    def A_norm(self, ell):
        return self._norms[ell - 1]

    def q(self, ell):
        return self._qs[ell - 1]


class TestSigma:
    def test_equal_norm_and_q_gives_one(self):
        stub = _StubAccel([16], [16])
        for tp in [0.9, 0.95, 0.995]:
            assert sigma(stub, 1, tp) == pytest.approx(1.0)

    def test_spec_arithmetic(self):
        stub = _StubAccel([8], [4096])
        val = sigma(stub, 1, 0.995)
        assert val == pytest.approx(0.25 ** 0.995, rel=1e-12)
        assert val == pytest.approx(0.2517, abs=2e-4)

    def test_golden_sigma_trend(self):
        accel = golden_accel()
        vals = [sigma(accel, ell, 0.995) for ell in range(1, 31)]
        assert all(b < a for a, b in zip(vals[1:], vals[2:]))
        assert vals[-1] < 0.1

    def test_degenerate_rejected(self):
        stub = _StubAccel([1], [10])
        with pytest.raises(SigmaDomainError):
            sigma(stub, 1, 0.995)

    def test_rational_rounding_is_upward(self):
        accel = golden_accel()
        for ell in [2, 5, 9]:
            assert float(sigma_rational(accel, ell, 0.995)) > sigma(
                accel, ell, 0.995)


class TestSigmaSet:
    def test_degenerate_empty(self):
        accel = golden_accel()
        sset = sigma_set(accel, 5, 0.995, dilate=0)
        assert sset.union.is_empty()
        assert sset.measure == 0

    def test_golden_bound_holds(self):
        accel = golden_accel()
        sset = sigma_set(accel, 5, 0.995)
        assert sset.bound_holds
        assert not sset.union.is_empty()
        assert ExactScalar(sset.bound) >= sset.measure

    def test_membership_of_constructed_preimage(self):
        accel = golden_accel()
        sset = sigma_set(accel, 5, 0.995)
        iet = accel.trace.base
        y = iet.left("B") + sset.radius * F(1, 2)
        x = iet.iterate(y, -3)
        assert sset.contains(x)
        assert sset.witness(x) is not None

    def test_bound_all_ells_both_fixtures(self):
        for accel in (golden_accel(), bounded3_accel()):
            for ell in range(1, 9):
                if ell + 1 > accel.count:
                    break
                assert sigma_set(accel, ell, 0.995).bound_holds

    def test_built_once_per_accel_and_key(self):
        accel = golden_accel()
        sset = sigma_set(accel, 6, 0.995)
        assert sigma_set(accel, 6, 0.995) is sset
        fresh = select_accel_times(InductionTrace(golden_rotation()).extend(
            32), 3, lbar_max=4)
        others = [sigma_set(accel, 7, 0.995), sigma_set(accel, 6, 0.99),
                  sigma_set(accel, 6, 0.995, dilate=2),
                  sigma_set(fresh, 6, 0.995)]
        assert len({id(s) for s in others + [sset]}) == 5
        assert sigma_set(fresh, 6, 0.995).union.parts == sset.union.parts

    def test_shared_sets_are_read_only(self):
        sset = sigma_set(golden_accel(), 6, 0.995)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sset.union = None
        assert isinstance(sset.union.parts, tuple)

    def test_growth_sweep_builds_its_set_once(self, monkeypatch):
        accel = select_accel_times(InductionTrace(golden_rotation()).extend(
            32), 3, lbar_max=4)
        spec = asymmetric_log_roof(accel.trace.base)
        real = birkhoff.pullback_union
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)
        monkeypatch.setattr(birkhoff, "pullback_union", counting)
        swept = excluded = 0
        for k in range(1, 21):
            try:
                derivative_growth_check(accel, spec, F(k, 23), 200, eps=0.39)
                swept += 1
            except ExcludedPointError:
                excluded += 1
        assert swept + excluded == 20 and swept >= 10
        assert len(calls) == 1

    def test_each_tau_prime_checks_against_its_own_set(self):
        # a set cached by the scale alone would answer for the wrong tau'
        accel = golden_accel()
        spec = asymmetric_log_roof(accel.trace.base)
        ell = locate_scale(accel, 200)
        wide, narrow = sigma_set(accel, ell, 0.5), sigma_set(accel, ell, 0.995)
        x = next(p for a, b in wide.union.parts for p in (a, b)
                 if not narrow.contains(p))
        derivative_growth_check(accel, spec, x, 200, eps=0.39)
        with pytest.raises(ExcludedPointError):
            derivative_growth_check(accel, spec, x, 200, eps=0.39,
                                    tau_prime=0.5)
        derivative_growth_check(accel, spec, x, 200, eps=0.39)


class TestApproachStats:
    def test_spec_single_step_example(self):
        iet = rotation_third()
        stats = approach_stats(iet, F(3, 4), 1)
        assert stats.U == pytest.approx(12.0)
        assert stats.u_distance == ExactScalar(F(1, 12))
        # V: nearest endpoint above 3/4 is 1
        assert stats.V == pytest.approx(4.0)

    def test_pullback_construction(self):
        iet = golden_rotation()
        delta = F(1, 10 ** 7)
        x = iet.right("A") + ExactScalar(delta)
        stats = approach_stats(iet, x, 1)
        assert stats.U == pytest.approx(1e7, rel=1e-9)
        # pulling back five steps and scanning six recovers the same gap
        x5 = iet.iterate(x, -5)
        stats6 = approach_stats(iet, x5, 6)
        assert stats6.U >= 1e7 * (1 - 1e-12)

    def test_monotone_in_r(self):
        iet = golden_rotation()
        for k in range(1, 101):
            x = F(k, 101)
            prev_u, prev_v = 0.0, 0.0
            stats_small = approach_stats(iet, x, 3)
            stats_big = approach_stats(iet, x, 7)
            assert stats_big.U >= stats_small.U
            assert stats_big.V >= stats_small.V

    def test_exact_hit_reported(self):
        iet = rotation_third()
        with pytest.raises(ExactHitError) as info:
            approach_stats(iet, F(1, 3), 2)  # T(1/3) = 2/3 = r_A
        assert info.value.index == 1

    def test_backward_segment(self):
        iet = golden_rotation()
        x = F(17, 101)
        back = approach_stats(iet, x, -8)
        # backward stats equal forward stats started at T^-8 x over 8 steps
        x8 = iet.iterate(x, -8)
        fwd = approach_stats(iet, x8, 8)
        assert back.U == pytest.approx(fwd.U)
        assert back.V == pytest.approx(fwd.V)

    def test_zero_steps(self):
        iet = golden_rotation()
        stats = approach_stats(iet, F(1, 7), 0)
        assert stats.U == 0.0 and stats.V == 0.0


class TestLocateScale:
    def test_golden_scales(self):
        accel = golden_accel()
        for r in [10, 100, 1000]:
            ell = locate_scale(accel, r)
            assert accel.q(ell) <= r < accel.q(ell + 1)

    def test_too_small_r(self):
        accel = golden_accel()
        with pytest.raises(ValueError):
            locate_scale(accel, 1)


class TestDerivativeGrowth:
    def test_constant_roof_zero_ratio(self):
        accel = golden_accel()
        spec = constant_roof(accel.trace.base)
        rep = derivative_growth_check(accel, spec, F(2, 7), 100, eps=0.3)
        assert rep.sum_value == 0.0
        assert rep.ratio == 0.0
        assert rep.within_mpd_bounds

    def test_asymmetric_two_sided_bound(self):
        # the clean lower bound holds for every good point; the upper bound
        # holds with the proposition's M(U+V) slack term
        accel = golden_accel()
        spec = asymmetric_log_roof(accel.trace.base)
        hits = 0
        in_clean_band = 0
        for k in [13, 29, 47, 61, 83]:
            x = F(k, 97)
            try:
                rep = derivative_growth_check(accel, spec, x, 1500, eps=0.39)
            except ExcludedPointError:
                continue
            hits += 1
            assert rep.oriented_ratio >= 0.85
            assert rep.within_mpd_bounds
            if rep.oriented_ratio <= 1.15:
                in_clean_band += 1
            else:
                assert rep.used_UV_slack
        assert hits >= 3
        assert in_clean_band >= 1

    def test_symmetric_roof_ratio_decays(self):
        accel = golden_accel()
        iet = accel.trace.base
        spec = RoofSpec(c0=F(1),
                        cplus={"A": F(0), "B": F(1)},
                        cminus={"A": F(1), "B": F(0)})
        assert not spec.is_asymmetric
        x = F(6, 211)
        vals = []
        for r in [100, 1000, 10000]:
            rep = derivative_growth_check(accel, spec, x, r, eps=0.3,
                                          skip_exclusion_check=True)
            vals.append(abs(rep.ratio))
        assert vals[2] < vals[1] < vals[0]
        # and the cancellation is visible in a 101-point median
        cursors = [BirkhoffCursor(iet, spec, F(k, 103)) for k in range(1, 102)]
        medians = []
        for r in [100, 10000]:
            medians.append(statistics.median(
                abs(cur.derivative_sum_at(r).value) / (r * math.log(r))
                for cur in cursors))
        assert medians[1] < medians[0]

    def test_excluded_point_raises_with_witness(self):
        accel = golden_accel()
        spec = asymmetric_log_roof(accel.trace.base)
        iet = accel.trace.base
        ell = locate_scale(accel, 300)
        sset = sigma_set(accel, ell, 0.995)
        bad = iet.left("B") + sset.radius * F(1, 3)
        with pytest.raises(ExcludedPointError) as info:
            derivative_growth_check(accel, spec, bad, 300, eps=0.3)
        assert info.value.witness is not None


class TestPrtyConditions:
    def test_tower_midpoint_forward_ok(self):
        accel = golden_accel()
        spec = asymmetric_log_roof(accel.trace.base)
        ell = 8
        n_next = accel.time(ell + 1)
        system = towers(accel.trace, n_next)
        tallest = max(system.towers, key=lambda t: t.height)
        mid = (tallest.base_left + tallest.base_right) * F(1, 2)
        rep = prty_conditions(accel, spec, mid, ell, xi=0.992)
        assert rep.forward_ok
        # the scale is small, so only the slack-free lower edge is asserted;
        # the full rows are reported for inspection
        assert rep.forward_bounds
        for _, ratio, _ in rep.forward_bounds:
            assert ratio >= 1.0 - 0.15

    def test_point_too_close_fails_hypothesis(self):
        accel = golden_accel()
        spec = asymmetric_log_roof(accel.trace.base)
        ell = 8
        q = accel.q(ell)
        dist = 1.0 / (4 * q * math.log(q) ** 0.992)
        iet = accel.trace.base
        x = iet.left("B") + ExactScalar(F(dist).limit_denominator(10 ** 12))
        rep = prty_conditions(accel, spec, x, ell, xi=0.992)
        assert not rep.forward_ok

    def test_constant_roof_vacuous(self):
        accel = golden_accel()
        spec = constant_roof(accel.trace.base)
        rep = prty_conditions(accel, spec, F(2, 9), 6, xi=0.992)
        if rep.forward_ok:
            for _, ratio, ok in rep.forward_bounds:
                assert ratio == 0.0 and ok

    def test_backward_mirror(self):
        accel = golden_accel()
        spec = asymmetric_log_roof(accel.trace.base)
        ell = 7
        # generic point: both sides usually satisfy the bound at this scale
        rep = prty_conditions(accel, spec, F(41, 89), ell, xi=0.992)
        assert rep.forward_ok or rep.backward_ok
        if rep.backward_ok:
            assert rep.backward_bounds


def test_exponent_trend_series_golden():
    accel = golden_accel()
    series = exponent_trend_series(accel, tau=1.01, tau_prime=0.995, xi=0.992,
                                eta=0.9, depth=28)
    for key in ("sigma_logq_xi", "sigma_pow_ell_tau",
                "logA_over_logq_sigma"):
        vals = series[key]
        assert len(vals) == 28
        # decreasing trend over the tail of the computed range
        assert vals[-1] < vals[4]
