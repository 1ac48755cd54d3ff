"""The benchmark's traced run (perfbench/run.py --trace 1) wraps names of
the package listed in perfbench/layers.py and reads others in its
environment stamp (perfbench/stats.py).  A refactor that renames or
deletes one of them breaks the traced run; this test names the break."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "perfbench")


def bench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return __import__(name)
    finally:
        sys.path.remove(PERFBENCH)


def bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else \
        getattr(owner, attr)


def test_traced_names_resolve_and_are_restored():
    from ietflow import iet, kernels, ratner, roof

    layers, tracer = bench_module("layers"), bench_module("tracer")
    tr = tracer.Tracer()
    try:
        # install looks every name up: a missing one raises here
        layers.install(tr)
        patched = [(owner, attr, original)
                   for owner, attr, original in tr._patches]
        for owner, attr, original in patched:
            assert bound(owner, attr) is not original, (owner, attr)
    finally:
        tr.uninstall()
    for owner, attr, original in patched:
        assert bound(owner, attr) is original, (owner, attr)
    names = {(owner, attr) for owner, attr, _ in patched}
    for owner, attr in ((iet.IntegerOrbit, "step_forward"),
                        (iet.IntegerOrbit, "step_backward"),
                        (roof.BirkhoffCursor, "advance_to"),
                        (roof, "flow"), (roof, "eval_roof"),
                        (roof, "eval_roof_derivative"),
                        (roof, "eval_roof_second_derivative"),
                        (kernels, "min_orbit_distance")):
        assert (owner, attr) in names, attr
    # read by the environment stamp
    assert bench_module("stats").environment(os.getcwd())["hp_backend"] \
        == ("mpmath" if ratner.gmpy2 is None else "gmpy2")


def test_every_induction_step_passes_the_step_hook():
    # the traced run counts `rauzy.rv_steps` by wrapping `rauzy.rv_step`:
    # the trace and the zippered forward step must both step through it
    from ietflow import fixtures, rauzy, zippered

    layers, tracer = bench_module("layers"), bench_module("tracer")
    tr = tracer.Tracer()
    try:
        layers.install(tr)
        rauzy.InductionTrace(fixtures.golden_rotation()).extend(20)
        z = zippered.canonical_zippered(fixtures.golden_rotation(),
                                        normalize=False)
        for _ in range(5):
            z, _, _ = zippered.forward_rv_step(z)
    finally:
        tr.uninstall()
    assert tr.counts["rauzy.rv_steps"] == 25
