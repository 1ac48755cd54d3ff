"""The mixing probes flow only the live samples, those whose running product
is nonzero; `_full_probe` below, which flows every sample, is the
reference, and every estimate must match it bit for bit."""

import math

import numpy as np
import pytest

from ietflow import kernels
from ietflow.fixtures import asymmetric_log_roof, golden_rotation
from ietflow.ratner import (
    BumpObservable,
    ConstantObservable,
    _probe,
    _require_samples,
    mixing_correlation,
    roof_area,
    sample_flow_space,
    triple_mixing_probe,
)

N = 70001


def _full_probe(iet, spec, gs, ts, n_samples, seed):
    """`ratner._probe` before the live-sample rule, verbatim."""
    _require_samples(n_samples)
    rng = np.random.default_rng(seed)
    area = roof_area(iet, spec)
    x, y, tables, f = sample_flow_space(iet, spec, n_samples, rng)
    z = gs[0](x, y)
    for g, t in zip(gs[1:], ts):
        if t != 0.0:
            # the samples' roof values serve only a flow from the samples
            x, y, _ = kernels.flow_points(tables, x, y, t, f=f)
            f = None
        z = z * g(x, y)
    value = float(z.mean()) - math.prod(g.mean(area) for g in gs)
    return value, float(z.std(ddof=1)) / math.sqrt(n_samples)


IET = golden_rotation()
SPEC = asymmetric_log_roof(IET)
G = BumpObservable(x0=0.5, wx=0.3, y0=0.5, wy=0.49)
H = BumpObservable(x0=0.3, wx=0.12, y0=0.45, wy=0.3)
FAR = BumpObservable(x0=0.7, wx=0.12, y0=0.45, wy=0.3)   # disjoint from H
ONE = ConstantObservable(1.0)
NEG = ConstantObservable(-2.0)

#: (factors, flow times) of `_probe`; mixing_correlation(g, h, t) is
#: ((h, g), (t,)) and triple_mixing_probe(g1, g2, g3, t2, t3) is
#: ((g1, g2, g3), (t2, t3))
CASES = ([pytest.param((H, G), (t,), id="h,g@%s" % t)
          for t in (-200.0, -3.5, 0.0, 5.0, 50.0)]
         + [pytest.param((G, H, G), ts, id="g,h,g@%s,%s" % ts)
            for ts in ((5.0, 20.0), (0.0, 2.0), (3.5, 0.0))]
         + [pytest.param((ONE, G), (5.0,), id="one,g@5.0"),
            pytest.param((ONE, H, G), (5.0, 20.0), id="one,h,g@5.0,20.0"),
            pytest.param((NEG, H, G), (5.0, 20.0), id="neg,h,g@5.0,20.0")])


def _estimate(gs, ts, seed):
    if len(gs) == 2:
        est = mixing_correlation(IET, SPEC, gs[1], gs[0], ts[0], N,
                                 seed=seed)
    else:
        est = triple_mixing_probe(IET, SPEC, *gs, *ts, N, seed=seed)
    return est.value, est.stderr


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("gs, ts", CASES)
def test_live_samples_match_the_full_probe(gs, ts, seed):
    live = _estimate(gs, ts, seed)
    full = _full_probe(IET, SPEC, gs, ts, N, seed)
    assert [v.hex() for v in live] == [v.hex() for v in full]


class _Recorded:
    """An observable that appends each of its outputs to a shared log."""

    def __init__(self, g, log):
        self.g, self.log = g, log

    def __call__(self, x, y):
        out = self.g(x, y)
        self.log.append(out)
        return out

    def mean(self, area):
        return self.g.mean(area)


def _flows(probe, gs, ts, monkeypatch):
    """Each flow_points call of `probe` as (factor index, x, y, f): the
    flow that precedes factor k, after the k factors already evaluated,
    and each factor's outputs."""
    outputs, flows = [], []
    inner = kernels.flow_points

    def spy(tables, x, y, t, f=None):
        flows.append((len(outputs), x, y, f))
        return inner(tables, x, y, t, f=f)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "flow_points", spy)
        probe(IET, SPEC, tuple(_Recorded(g, outputs) for g in gs), ts, N, 3)
    return flows, outputs


@pytest.mark.parametrize("gs, ts", CASES)
def test_each_flow_moves_the_samples_whose_product_is_nonzero(gs, ts,
                                                              monkeypatch):
    full, outputs = _flows(_full_probe, gs, ts, monkeypatch)
    live, _ = _flows(_probe, gs, ts, monkeypatch)
    expected = []
    for k, x, y, f in full:
        nonzero = np.flatnonzero(math.prod(outputs[:k]))
        if nonzero.size:
            expected.append((k, x.take(nonzero), y.take(nonzero),
                             None if f is None else f.take(nonzero)))
    assert [k for k, *_ in live] == [k for k, *_ in expected]
    for got, want in zip(live, expected):
        for a, b in zip(got[1:], want[1:]):
            assert (a is None) == (b is None)
            assert a is None or np.array_equal(a, b)


def test_disjoint_supports_flow_nothing(monkeypatch):
    # h * far is 0.0 everywhere, so the flow before the third factor has
    # no live sample and is not called
    calls = []
    inner = kernels.flow_points

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(kernels, "flow_points", spy)
    est = triple_mixing_probe(IET, SPEC, H, FAR, G, 0.0, 5.0, N, seed=1)
    assert calls == []
    area = roof_area(IET, SPEC)
    expect = -(H.mean(area) * FAR.mean(area) * G.mean(area))
    assert (est.value, est.stderr) == (expect, 0.0)
    assert (est.value, est.stderr) == _full_probe(
        IET, SPEC, (H, FAR, G), (0.0, 5.0), N, 1)


def test_a_negative_constant_after_dropped_samples():
    """A dropped sample keeps its product 0.0 where the full loop goes on to
    -0.0 under a negative factor; a signed zero moves no sum unless every
    product is zero, and then it can flip only the sign of a zero
    estimate.  So this case compares with == (which takes 0.0 == -0.0),
    not by float.hex."""
    for gs, ts in (((H, FAR, NEG), (0.0, 5.0)), ((H, G, NEG), (5.0, 0.0))):
        live = triple_mixing_probe(IET, SPEC, *gs, *ts, N, seed=1)
        assert (live.value, live.stderr) == _full_probe(IET, SPEC, gs, ts,
                                                        N, 1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_refused_with_no_live_sample(t):
    # the full probe's flow refused it; the live one refuses it up front,
    # also where no sample would reach the flow
    with pytest.raises(ValueError, match="flow time t = .* is not finite"):
        triple_mixing_probe(IET, SPEC, H, FAR, G, 0.0, t, N, seed=1)
    with pytest.raises(ValueError, match="flow time t = .* is not finite"):
        _full_probe(IET, SPEC, (H, FAR, G), (0.0, t), N, 1)
