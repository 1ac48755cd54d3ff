import os
import sys
import types

import pytest

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import tracer  # noqa: E402
from tracer import CHILD, END, START, Tracer  # noqa: E402


class FakeClock:
    """perf_counter stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", fake)
    return fake


def test_self_time_subtracts_children_and_foreign_steps(clock):
    tr = Tracer()
    inner = tr.span("kernels.inner", lambda: clock.work(2.0))
    # a step of another layer inside the outer span counts as child time;
    # a step of the span's own layer stays in its self time
    foreign = tr.step("iet.steps", lambda: clock.work(0.5))
    own = tr.step("ratner.logs", lambda: clock.work(0.25))

    def body():
        clock.work(1.0)
        inner()
        foreign()
        own()
        inner()
        clock.work(1.0)

    tr.span("ratner.outer", body)()
    outer, first, second = tr.spans
    assert outer[END] - outer[START] == 6.75
    assert outer[CHILD] == 4.5
    assert tr.self_time(0) == 2.25
    assert first[CHILD] == second[CHILD] == 0.0
    assert tr.self_total("kernels.inner") == 4.0
    assert tr.span_total("kernels.inner") == 4.0
    assert (tr.counts["iet.steps"], tr.times["iet.steps"]) == (1, 0.5)


def test_nested_steps_of_one_counter_count_once(clock):
    tr = Tracer()
    calls = []

    def leaf():
        clock.work(1.0)

    wrapped_leaf = tr.step("exact.ops", leaf)

    def composite():
        calls.append(1)
        wrapped_leaf()
        wrapped_leaf()

    tr.step("exact.ops", composite)()
    assert tr.counts["exact.ops"] == 1
    assert tr.times["exact.ops"] == 2.0
    wrapped_leaf()
    assert tr.counts["exact.ops"] == 2


def test_spans_record_parent_and_item(clock):
    tr = Tracer()
    child = tr.span("b.child", lambda: None)
    tr.item = 7
    tr.span("a.parent", child)()
    (parent, kid) = tr.spans
    assert parent[3] is None and kid[3] == 0
    assert parent[4] == kid[4] == 7


def test_patch_function_rebinds_imported_names():
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")

    def f():
        return "f"

    mod_a.f = f
    mod_b.f = f                 # as after `from .a import f`
    mod_b.g = f                 # and under another name
    saved = {name: sys.modules.get(name) for name in
             ("fakepkg", "fakepkg.a", "fakepkg.b")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": mod_a,
                        "fakepkg.b": mod_b})
    try:
        tr = Tracer()
        wrapped = tr.patch_function(mod_a, "f",
                                    lambda fn: tr.span("a.f", fn),
                                    package="fakepkg")
        assert mod_a.f is mod_b.f is mod_b.g is wrapped
        assert mod_b.g() == "f" and len(tr.spans) == 1
        tr.uninstall()
        assert mod_a.f is mod_b.f is mod_b.g is f
    finally:
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = mod


def test_patch_method_covers_aliases():
    class Scalar:
        def __add__(self, other):
            return 1
        __radd__ = __add__

    tr = Tracer()
    tr.patch_method(Scalar, "__add__", lambda fn: tr.step("exact.ops", fn))
    assert Scalar() + 1 == 1 and 1 + Scalar() == 1
    assert tr.counts["exact.ops"] == 2
    tr.uninstall()
    assert Scalar.__radd__ is Scalar.__add__
    assert not hasattr(Scalar.__add__, "__wrapped__")


def test_layers_rebind_names_bound_at_import():
    import layers
    from ietflow import birkhoff, cli, diophantine, exact, rauzy, ratner

    originals = (birkhoff.sigma_set, diophantine.k_set_membership,
                 rauzy.towers, exact.ExactScalar.__add__)
    tr = Tracer()
    layers.install(tr)
    try:
        assert ratner.sigma_set is birkhoff.sigma_set is diophantine.sigma_set
        assert ratner.sigma_set is not originals[0]
        assert ratner.k_set_membership is diophantine.k_set_membership
        assert ratner.k_set_membership is not originals[1]
        assert cli.towers is rauzy.towers is not originals[2]
        assert cli.sigma_set is birkhoff.sigma_set
        assert exact.ExactScalar.__radd__ is exact.ExactScalar.__add__
        assert exact.ExactScalar.__add__ is not originals[3]
    finally:
        tr.uninstall()
    assert (birkhoff.sigma_set, diophantine.k_set_membership, rauzy.towers,
            exact.ExactScalar.__add__) == originals
    assert ratner.sigma_set is originals[0] and cli.towers is originals[2]
