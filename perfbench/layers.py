"""Which `ietflow` callables the traced run wraps, and the per-layer
metrics derived from what the wrappers record.

Every name in PER_LAYER is printed by a traced run; a metric whose layer
did no work on a workload reads 0.
"""

from __future__ import annotations

import functools

import numpy as np

from tracer import Tracer

EXACT_METHODS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__",
                 "__truediv__", "__rtruediv__", "__abs__", "__pow__",
                 "inverse", "sign", "__eq__", "__ne__", "__lt__", "__le__",
                 "__gt__", "__ge__")

PER_LAYER = (
    ("exact.ops", "count"), ("exact.self_s", "s"),
    ("iet.exact_steps", "count"), ("iet.exact_step_us", "us"),
    ("iet.int_steps", "count"), ("iet.int_step_us", "us"),
    ("iet.keane_s", "s"), ("iet.first_return_s", "s"),
    ("rauzy.rv_steps", "count"), ("rauzy.extend_s", "s"),
    ("rauzy.towers_s", "s"), ("rauzy.return_time_s", "s"),
    ("rauzy.accel_s", "s"),
    ("zippered.backward_steps", "count"), ("zippered.backward_s", "s"),
    ("roof.evals", "count"), ("roof.eval_us", "us"),
    ("roof.cursor_self_s", "s"), ("roof.flow_s", "s"),
    ("birkhoff.sigma_set_s", "s"), ("birkhoff.approach_s", "s"),
    ("birkhoff.growth_self_s", "s"), ("birkhoff.excluded_ratio", "fraction"),
    ("intervals.preimages", "count"), ("intervals.pullback_s", "s"),
    ("intervals.max_components", "count"),
    ("diophantine.kset_calls", "count"), ("diophantine.kset_s", "s"),
    ("diophantine.dc_report_s", "s"),
    ("ratner.sample_tries", "count"), ("ratner.sample_accept_ratio",
                                       "fraction"),
    ("ratner.good_region_s", "s"), ("ratner.pair_test_self_s", "s"),
    ("ratner.walk_steps", "count"), ("ratner.second_attempt_ratio",
                                     "fraction"),
    ("ratner.verified_ratio", "fraction"), ("ratner.verify_hp_self_s", "s"),
    ("ratner.hp_log_calls", "count"), ("ratner.hp_us_per_log", "us"),
    ("ratner.forbac_self_s", "s"), ("ratner.mix_self_s", "s"),
    ("ratner.sample_flow_space_s", "s"),
    ("kernels.min_orbit_calls", "count"), ("kernels.min_orbit_s", "s"),
    ("kernels.min_orbit_us_per_step", "us"), ("kernels.flow_points_s", "s"),
    ("kernels.flow_jumps", "count"), ("kernels.ns_per_jump", "ns"),
    ("kernels.roof_values_s", "s"),
    ("cli.self_s", "s"),
    ("process.cpu_s", "s"), ("trace.overhead_ratio", "ratio"),
)


def _pullback(tr, args, kwargs, result):
    tr.maxima["intervals.max_components"] = max(
        tr.maxima["intervals.max_components"], len(result))


def _pair_test(tr, args, kwargs, result):
    tr.counts["ratner.pair_tests"] += 1
    tr.counts["ratner.walk_steps"] += len(result.attempts) * (result.M +
                                                               result.L)
    tr.counts["ratner.second_attempts"] += len(result.attempts) > 1
    tr.counts["ratner.verified"] += result.verdict == "verified"


def _min_orbit(tr, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n"]
    tr.counts["kernels.min_orbit_steps"] += abs(int(n))


def _flow_points(tr, args, kwargs, result):
    tr.counts["kernels.flow_jumps"] += int(np.abs(result[2]).sum())


def _growth_call(tr, args, kwargs, result):
    tr.counts["birkhoff.growth_calls"] += 1


def _growth_error(tr, exc):
    from ietflow.birkhoff import ExcludedPointError

    tr.counts["birkhoff.growth_calls"] += 1
    tr.counts["birkhoff.excluded"] += isinstance(exc, ExcludedPointError)


def _contains(tr, args, result):
    tr.counts["ratner.sample_accepts"] += bool(result)


def install(tr: Tracer):
    """Wrap every traced callable; `tr.uninstall()` restores them."""
    import mpmath

    from ietflow import (birkhoff, cli, diophantine, exact, iet, intervals,
                         kernels, ratner, rauzy, roof, zippered)

    def span(name, **hooks):
        return lambda fn: tr.span(name, fn, **hooks)

    def step(counter, **hooks):
        return lambda fn: tr.step(counter, fn, **hooks)

    for attr in EXACT_METHODS:
        tr.patch_method(exact.ExactScalar, attr, step("exact.ops"))
    for attr in ("evaluate", "evaluate_inverse"):
        tr.patch_method(iet.Iet, attr, step("iet.exact_steps"))
    for attr in ("step_forward", "step_backward"):
        tr.patch_method(iet.IntegerOrbit, attr, step("iet.int_steps"))
    tr.patch_function(iet, "keane_check", span("iet.keane_check"))

    def first_return_factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tr.span("iet.first_return", fn(*args, **kwargs))
        return wrapper
    tr.patch_function(iet, "first_return_map", first_return_factory)

    tr.patch_function(rauzy, "rv_step", step("rauzy.rv_steps"))
    tr.patch_method(rauzy.InductionTrace, "extend", step("rauzy.extend"))
    for attr in ("towers", "return_time_oracle", "select_accel_times"):
        tr.patch_function(rauzy, attr, span("rauzy." + attr))
    tr.patch_function(zippered, "backward_rv_step", step("zippered.backward"))

    for attr in ("eval_roof", "eval_roof_derivative",
                 "eval_roof_second_derivative"):
        tr.patch_function(roof, attr, step("roof.evals"))
    tr.patch_method(roof.BirkhoffCursor, "advance_to", span("roof.cursor"))
    tr.patch_function(roof, "flow", span("roof.flow"))

    tr.patch_function(birkhoff, "sigma_set", span("birkhoff.sigma_set"))
    tr.patch_function(birkhoff, "approach_stats", span("birkhoff.approach"))
    tr.patch_function(birkhoff, "derivative_growth_check",
                      span("birkhoff.growth",
                           on_result=_growth_call,
                           on_error=_growth_error))

    tr.patch_method(intervals.IntervalUnion, "preimage",
                    step("intervals.preimages"))
    tr.patch_function(intervals, "pullback_union",
                      span("intervals.pullback",
                           on_result=_pullback))

    tr.patch_function(diophantine, "k_set_membership",
                      span("diophantine.kset"))
    for attr in ("mixing_dc_report", "ratner_dc_partial",
                 "summability_partial"):
        tr.patch_function(diophantine, attr, span("diophantine.dc_report"))

    tr.patch_method(ratner.GoodRegion, "contains",
                    step("ratner.sample_tries", on_result=_contains))
    tr.patch_method(ratner.GoodRegion, "__init__", span("ratner.good_region"))
    tr.patch_function(ratner, "sr_pair_test",
                      span("ratner.pair_test",
                           on_result=_pair_test))
    tr.patch_function(ratner, "verify_witness_high_precision",
                      span("ratner.verify_hp"))
    tr.patch_function(mpmath, "log", step("ratner.hp_log"))
    tr.patch_function(ratner, "forbac_scan", span("ratner.forbac"))
    for attr in ("mixing_correlation", "triple_mixing_probe"):
        tr.patch_function(ratner, attr, span("ratner.mix"))
    tr.patch_function(ratner, "sample_flow_space",
                      span("ratner.sample_flow_space"))

    tr.patch_function(kernels, "min_orbit_distance",
                      span("kernels.min_orbit",
                           on_result=_min_orbit))
    tr.patch_function(kernels, "flow_points",
                      span("kernels.flow_points",
                           on_result=_flow_points))
    tr.patch_function(kernels, "roof_values", span("kernels.roof_values"))

    tr.patch_function(cli, "main", span("cli.main"))


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def derive(tr: Tracer, cpu_s: float, overhead_ratio: float) -> dict:
    """Per-layer metric values, keyed as in PER_LAYER."""
    c, t, s = tr.counts, tr.times, tr.span_total
    pairs = c["ratner.pair_tests"]
    values = {
        "exact.ops": c["exact.ops"],
        "exact.self_s": t["exact.ops"],
        "iet.exact_steps": c["iet.exact_steps"],
        "iet.exact_step_us": _per(t["iet.exact_steps"],
                                  c["iet.exact_steps"], 1e6),
        "iet.int_steps": c["iet.int_steps"],
        "iet.int_step_us": _per(t["iet.int_steps"], c["iet.int_steps"], 1e6),
        "iet.keane_s": s("iet.keane_check"),
        "iet.first_return_s": s("iet.first_return"),
        "rauzy.rv_steps": c["rauzy.rv_steps"],
        "rauzy.extend_s": t["rauzy.extend"],
        "rauzy.towers_s": s("rauzy.towers"),
        "rauzy.return_time_s": s("rauzy.return_time_oracle"),
        "rauzy.accel_s": s("rauzy.select_accel_times"),
        "zippered.backward_steps": c["zippered.backward"],
        "zippered.backward_s": t["zippered.backward"],
        "roof.evals": c["roof.evals"],
        "roof.eval_us": _per(t["roof.evals"], c["roof.evals"], 1e6),
        "roof.cursor_self_s": tr.self_total("roof.cursor"),
        "roof.flow_s": s("roof.flow"),
        "birkhoff.sigma_set_s": s("birkhoff.sigma_set"),
        "birkhoff.approach_s": s("birkhoff.approach"),
        "birkhoff.growth_self_s": tr.self_total("birkhoff.growth"),
        "birkhoff.excluded_ratio": _per(c["birkhoff.excluded"],
                                        c["birkhoff.growth_calls"], 1.0),
        "intervals.preimages": c["intervals.preimages"],
        "intervals.pullback_s": s("intervals.pullback"),
        "intervals.max_components": tr.maxima["intervals.max_components"],
        "diophantine.kset_calls": sum(1 for r in tr.spans
                                      if r[0] == "diophantine.kset"),
        "diophantine.kset_s": s("diophantine.kset"),
        "diophantine.dc_report_s": s("diophantine.dc_report"),
        "ratner.sample_tries": c["ratner.sample_tries"],
        "ratner.sample_accept_ratio": _per(c["ratner.sample_accepts"],
                                           c["ratner.sample_tries"], 1.0),
        "ratner.good_region_s": s("ratner.good_region"),
        "ratner.pair_test_self_s": tr.self_total("ratner.pair_test"),
        "ratner.walk_steps": c["ratner.walk_steps"],
        "ratner.second_attempt_ratio": _per(c["ratner.second_attempts"],
                                            pairs, 1.0),
        "ratner.verified_ratio": _per(c["ratner.verified"], pairs, 1.0),
        "ratner.verify_hp_self_s": tr.self_total("ratner.verify_hp"),
        "ratner.hp_log_calls": c["ratner.hp_log"],
        "ratner.hp_us_per_log": _per(t["ratner.hp_log"], c["ratner.hp_log"],
                                     1e6),
        "ratner.forbac_self_s": tr.self_total("ratner.forbac"),
        "ratner.mix_self_s": tr.self_total("ratner.mix"),
        "ratner.sample_flow_space_s": s("ratner.sample_flow_space"),
        "kernels.min_orbit_calls": sum(1 for r in tr.spans
                                       if r[0] == "kernels.min_orbit"),
        "kernels.min_orbit_s": s("kernels.min_orbit"),
        "kernels.min_orbit_us_per_step": _per(
            s("kernels.min_orbit"), c["kernels.min_orbit_steps"], 1e6),
        "kernels.flow_points_s": s("kernels.flow_points"),
        "kernels.flow_jumps": c["kernels.flow_jumps"],
        "kernels.ns_per_jump": _per(s("kernels.flow_points"),
                                    c["kernels.flow_jumps"], 1e9),
        "kernels.roof_values_s": s("kernels.roof_values"),
        "cli.self_s": tr.self_total("cli.main"),
        "process.cpu_s": cpu_s,
        "trace.overhead_ratio": overhead_ratio,
    }
    assert set(values) == {name for name, _ in PER_LAYER}
    return values
