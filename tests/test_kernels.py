import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ietflow import _core_py, kernels, ratner
from ietflow.exact import ExactScalar
from ietflow.fixtures import (asymmetric_log_roof, bounded_type_3iet,
                              constant_roof, golden_rotation)
from ietflow.iet import Iet, Permutation
from ietflow.ratner import BumpObservable
from ietflow.roof import (BirkhoffCursor, FlowDomainError, FlowPoint,
                          FlowStepBudgetError, RoofSpec, eval_roof, flow)

F = Fraction


@pytest.fixture
def module(request):
    """The kernel backend named by the test's parameter: numpy, or the
    compiled build that `compiled_core` (conftest) provides or skips for."""
    if request.param == "numpy":
        return _core_py
    return request.getfixturevalue("compiled_core")


BACKENDS = pytest.mark.parametrize("module", ["numpy", "cython"],
                                   indirect=True)


def numpy_min_distance(tables, x, n, points):
    """The former numpy per-step scan of `_core_py.min_orbit_distance`,
    kept as its reference."""
    def index(cuts, v):
        return min(int(np.searchsorted(cuts, np.array([v]), side="right")[0]),
                   len(cuts) - 1)

    best = np.inf
    cur = float(x)
    for _ in range(abs(n)):
        if n < 0:
            cur = cur - tables.trans_b[index(tables.rights_b, cur)]
        best = min(best, float(np.min(np.abs(points - cur))))
        if n > 0:
            cur = cur + tables.trans[index(tables.rights, cur)]
    return best


def _searchsorted_index(rights, x):
    return np.minimum(np.searchsorted(rights, x, side="right"),
                      len(rights) - 1)


def numpy_roof_values(tables, x):
    """The former numpy `_core_py.roof_values` (searchsorted index, both
    terms always evaluated), kept as the reference of the comparison
    index and the zero-term skip."""
    idx = _searchsorted_index(tables.rights, x)
    dl = np.maximum(x - tables.lefts[idx], 1e-300)
    dr = np.maximum(tables.rights[idx] - x, 1e-300)
    return (tables.c0 - tables.cp[idx] * np.log(dl)
            - tables.cm[idx] * np.log(dr))


def numpy_flow_points(tables, x, y, t):
    """The former numpy `_core_py.flow_points` (masked full-length loop,
    every sample located twice per forward jump), kept as the reference
    of the compacted kernel."""
    x = np.array(x, dtype=np.float64, copy=True)
    s = np.array(y, dtype=np.float64, copy=True) + t
    steps = np.zeros(x.shape, dtype=np.int64)
    if t >= 0:
        active = np.ones(x.shape, dtype=bool)
        while True:
            f = numpy_roof_values(tables, x[active])
            jump = s[active] >= f
            if not jump.any():
                break
            idx_global = np.flatnonzero(active)
            idx = idx_global[jump]
            s[idx] -= f[jump]
            x[idx] = x[idx] + tables.trans[_searchsorted_index(tables.rights,
                                                               x[idx])]
            steps[idx] += 1
            active[idx_global[~jump]] = False
        return x, s, steps
    while True:
        pending = s < 0
        if not pending.any():
            break
        xp = x[pending]
        x[pending] = xp - tables.trans_b[_searchsorted_index(tables.rights_b,
                                                             xp)]
        s[pending] += numpy_roof_values(tables, x[pending])
        steps[pending] -= 1
    return x, s, steps


def numpy_bump(g, x, y):
    """The former `BumpObservable.__call__` (both factors everywhere),
    kept as the reference of the support mask."""
    ux = (x - g.x0) / g.wx
    uy = (y - g.y0) / g.wy
    bx = np.where(np.abs(ux) < 1, (1 - ux ** 2) ** 3, 0.0)
    by = np.where(np.abs(uy) < 1, (1 - uy ** 2) ** 3, 0.0)
    return bx * by


def masked_bump(g, x, y):
    """The former `BumpObservable.__call__` (the support as a boolean
    mask), kept as the reference of the indexed support."""
    ux, uy = np.broadcast_arrays((x - g.x0) / g.wx, (y - g.y0) / g.wy)
    inside = (np.abs(ux) < 1) & (np.abs(uy) < 1)
    out = np.zeros(inside.shape)
    ux, uy = ux[inside], uy[inside]
    out[inside] = (1 - ux ** 2) ** 3 * (1 - uy ** 2) ** 3
    return out[()]


def masked_sample_flow_space(iet, spec, n, rng):
    """The former `ratner.sample_flow_space` (each component's positions
    as a boolean mask), kept as the reference of the indexed draw."""
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
    fx = kernels.roof_values(kernels.float_tables(iet, spec), x)
    return x, rng.uniform(0.0, 1.0, n) * fx, fx


def rational_3iet():
    return Iet(Permutation("ABC", "CAB"), [F(1, 7), F(2, 5), F(16, 35)])


@pytest.mark.parametrize("make_iet", [golden_rotation, bounded_type_3iet,
                                      rational_3iet])
def test_float_tables_are_the_rounded_endpoints(make_iet):
    # the IET's cached tables: each float the correct rounding of its
    # exact endpoint or translation
    iet = make_iet()
    tables = kernels.float_tables(iet, constant_roof(iet))
    top, bottom = iet.perm.top, iet.perm.bottom
    for got, want in (
            (tables.rights, [iet.right(a) for a in top]),
            (tables.lefts, [iet.left(a) for a in top]),
            (tables.trans, [iet.translation(a) for a in top]),
            (tables.rights_b, [iet.right_image(a) for a in bottom]),
            (tables.trans_b, [iet.translation(a) for a in bottom])):
        assert got.dtype == np.float64
        assert got.tolist() == [float(v) for v in want]
    assert tables.total == float(iet.total)


def test_float_tables_refuse_an_iet_past_the_float_range():
    huge = ExactScalar(2 ** 900)
    iet = Iet(Permutation("AB", "BA"), [huge, 3 * huge])
    with pytest.raises(ValueError, match="total length %d" % (4 * 2 ** 900)):
        kernels.float_tables(iet, constant_roof(iet))


@pytest.fixture(scope="module")
def setup():
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    tables = kernels.float_tables(iet, spec)
    return iet, spec, tables


@BACKENDS
class TestAgainstExactPath:
    def test_flow_matches_exact_path(self, module, setup):
        iet, spec, tables = setup
        rng = random.Random(4)
        xs = [F(rng.randrange(1, 10 ** 6), 10 ** 6) for _ in range(20)]
        ys = [rng.uniform(0.05, 0.9) for _ in range(20)]
        for t in [4.25, -3.5]:
            xf, yf, steps = kernels.flow_points(
                tables, [float(x) for x in xs], ys, t, module=module)
            for i, (x, y) in enumerate(zip(xs, ys)):
                out = flow(iet, spec, FlowPoint(ExactScalar(x), y), t)
                assert xf[i] == pytest.approx(float(out.x), abs=1e-7)
                assert yf[i] == pytest.approx(out.y, abs=1e-7)

    @pytest.mark.parametrize("make_iet", [golden_rotation,
                                          bounded_type_3iet])
    def test_min_distance_matches_exact_path(self, module, make_iet):
        iet = make_iet()
        tables = kernels.float_tables(iet, asymmetric_log_roof(iet))
        endpoints = np.array(sorted({float(s) for s in iet.singular_points()}))
        for x in [F(123457, 10 ** 6), F(1, 3), F(9, 10)]:
            for n in [400, -400]:
                got = kernels.min_orbit_distance(tables, float(x), n,
                                                 endpoints, module=module)
                assert got == numpy_min_distance(tables, float(x), n,
                                                 endpoints)
                exact = BirkhoffCursor(iet, None, x, forward=n > 0) \
                    .advance_to(abs(n)).min_gap()
                # the float orbit drifts by at most two roundings a step
                assert abs(got - float(exact)) <= 2 * abs(n) * 2.0 ** -52

    def test_min_distance_of_empty_segment(self, module, setup):
        _, _, tables = setup
        points = np.array([0.0, 0.5, 1.0])
        assert kernels.min_orbit_distance(tables, 0.123, 0, points,
                                          module=module) == math.inf

    def test_roof_values(self, module, setup):
        iet, spec, tables = setup
        xs = np.array([0.1, 0.2, 0.5, 0.9])
        got = kernels.roof_values(tables, xs, module=module)
        want = [eval_roof(iet, spec, F(v).limit_denominator(10)).value
                for v in [F(1, 10), F(1, 5), F(1, 2), F(9, 10)]]
        np.testing.assert_allclose(got, want, rtol=1e-12)


def _mixed_roof(iet):
    """Nonzero Cplus and Cminus on several intervals: both roof terms run."""
    labels = iet.perm.alphabet
    cplus = {a: F(k % 3, 3) for k, a in enumerate(labels)}
    cminus = {a: F((k + 2) % 3, 4) for k, a in enumerate(labels)}
    return RoofSpec(c0=F(3, 2), cplus=cplus, cminus=cminus)


def _left_roof(iet):
    """Cplus only: the Cminus term is skipped."""
    zero = {a: F(0) for a in iet.perm.alphabet}
    return RoofSpec(c0=F(1), cplus={a: F(1, 2) for a in zero}, cminus=zero)


def _kernel_samples(tables, n=3000, seed=11):
    """Uniform samples plus every cut, every left endpoint (distance 0
    to it, so the 1e-300 clamp runs) and the floats just below them."""
    rng = np.random.default_rng(seed)
    marks = np.concatenate([tables.lefts, tables.rights[:-1],
                            tables.rights_b[:-1]])
    below = np.nextafter(marks[marks > 0], -np.inf)
    x = np.concatenate([marks, below, rng.uniform(0.0, tables.total, n)])
    y = rng.uniform(0.0, 1.0, x.size) * numpy_roof_values(tables, x)
    return x, y


@pytest.mark.parametrize("make_iet", [golden_rotation, bounded_type_3iet])
@pytest.mark.parametrize("make_roof", [asymmetric_log_roof, _mixed_roof,
                                       _left_roof, constant_roof])
class TestNumpyKernelsMatchFormer:
    """The comparison index, the zero-term skip, the shared index and the
    compacted active set change no output bit."""

    def test_roof_values(self, make_iet, make_roof):
        tables = kernels.float_tables(make_iet(), make_roof(make_iet()))
        x, _ = _kernel_samples(tables)
        got = kernels.roof_values(tables, x, module=_core_py)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, numpy_roof_values(tables, x))

    @pytest.mark.parametrize("t", [0.0, 5.0, -5.0, 200.0, -200.0])
    def test_flow_points(self, make_iet, make_roof, t):
        tables = kernels.float_tables(make_iet(), make_roof(make_iet()))
        x, y = _kernel_samples(tables, n=1000 if abs(t) > 100 else 3000)
        got = kernels.flow_points(tables, x, y, t,
                                  module=_core_py)
        want = numpy_flow_points(tables, x, y, t)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("t", [5.0, -5.0])
    def test_flow_points_across_blocks(self, make_iet, make_roof, t):
        # three blocks: the samples' order and every bit survive the cuts
        tables = kernels.float_tables(make_iet(), make_roof(make_iet()))
        x, y = _kernel_samples(tables, n=2 * _core_py._BLOCK + 1001)
        got = kernels.flow_points(tables, x, y, t, module=_core_py)
        want = numpy_flow_points(tables, x, y, t)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_bump_matches_former_on_arrays_and_scalars():
    bumps = [BumpObservable(x0=0.5, wx=0.3, y0=0.5, wy=0.49),
             BumpObservable(x0=0.3, wx=0.12, y0=0.45, wy=0.3)]
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(-0.2, 1.2, 5000), [0.2, 0.8, 0.18]])
    y = np.concatenate([rng.uniform(-0.2, 1.5, 5000), [0.5, 0.01, 0.75]])
    for g in bumps:
        got = g(x, y)
        assert got.dtype == np.float64 and got.shape == x.shape
        np.testing.assert_array_equal(got, numpy_bump(g, x, y))
        np.testing.assert_array_equal(got, masked_bump(g, x, y))
        # a broadcast 2-d grid: indexed in C order like the mask
        gx, gy = x[:60, None], y[None, :70]
        got = g(gx, gy)
        assert got.shape == (60, 70)
        np.testing.assert_array_equal(got, masked_bump(g, gx, gy))
        for px, py in [(0.5, 0.5), (0.3, 0.45), (0.2, 0.5), (5.0, 0.5),
                       (np.float64(0.41), 0.6), (np.array(0.35),
                                                 np.array(0.4))]:
            got = g(px, py)
            for want in (numpy_bump(g, px, py), masked_bump(g, px, py)):
                assert type(got) is type(want)
                assert got == want


@pytest.mark.parametrize("make_iet", [golden_rotation, bounded_type_3iet])
@pytest.mark.parametrize("make_roof", [asymmetric_log_roof, _mixed_roof,
                                       constant_roof])
def test_sample_flow_space_matches_masked_draw(make_iet, make_roof):
    # the same RNG calls in the same order: x, y and f(x) bit for bit
    iet = make_iet()
    spec = make_roof(iet)
    for n in [0, 1, 5, 70001]:
        x, y, _, fx = ratner.sample_flow_space(iet, spec, n,
                                               np.random.default_rng(n))
        want = masked_sample_flow_space(iet, spec, n,
                                        np.random.default_rng(n))
        for a, b in zip((x, y, fx), want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


@BACKENDS
@pytest.mark.parametrize("forward", [True, False])
def test_flow_step_budget_allows_exactly_max_steps(module, forward, setup):
    """A sample that needs exactly one jump flows under max_steps=1 and
    raises under max_steps=0, in both directions, on every backend."""
    iet, _, tables = setup
    x = np.array([0.3])
    if forward:
        nxt = float(iet.evaluate(F(3, 10)))
        t = float(kernels.roof_values(tables, x)[0]
                  + 0.5 * kernels.roof_values(tables, [nxt])[0])
    else:
        prev = float(iet.evaluate_inverse(F(3, 10)))
        t = float(-0.5 * kernels.roof_values(tables, [prev])[0])
    _, _, steps = kernels.flow_points(tables, x, [0.0], t, max_steps=1,
                                      module=module)
    assert steps[0] == (1 if forward else -1)
    with pytest.raises(FlowStepBudgetError, match="exceeded 0 steps") as info:
        kernels.flow_points(tables, x, [0.0], t, max_steps=0, module=module)
    assert (info.value.max_steps, info.value.t) == (0, t)


def test_plain_budget_error_is_typed_and_chained(setup):
    # a backend that reports the budget as the compiled build does, with a
    # plain RuntimeError; any other RuntimeError passes through
    _, _, tables = setup

    def backend(message):
        def flow_points(*args):
            raise RuntimeError(message)
        return SimpleNamespace(roof_values=_core_py.roof_values,
                               flow_points=flow_points)

    x, y = np.array([0.3]), np.array([0.0])
    with pytest.raises(FlowStepBudgetError) as info:
        kernels.flow_points(tables, x, y, 7.5, max_steps=4,
                            module=backend("flow advance exceeded 4 steps"))
    err = info.value
    assert (err.max_steps, err.t, err.pending, err.steps) == (4, 7.5, None,
                                                              None)
    assert str(err.__cause__) == "flow advance exceeded 4 steps"
    with pytest.raises(RuntimeError, match="^other$") as info:
        kernels.flow_points(tables, x, y, 7.5, module=backend("other"))
    assert type(info.value) is RuntimeError


@pytest.mark.parametrize("t", [50.0, -50.0])
def test_numpy_flow_budget_error_carries_context(setup, t):
    # past one block, `pending` still counts the whole array
    _, _, tables = setup
    rng = np.random.default_rng(9)
    for n in [400, 2 * _core_py._BLOCK + 7]:
        x = rng.uniform(0.0, 1.0, n)
        y = rng.uniform(0.0, 0.5, n)
        _, _, steps = kernels.flow_points(tables, x, y, t, module=_core_py)
        budget = int(np.median(np.abs(steps)))
        with pytest.raises(FlowStepBudgetError) as info:
            kernels.flow_points(tables, x, y, t, max_steps=budget,
                                module=_core_py)
        err = info.value
        assert isinstance(err, RuntimeError)
        assert (err.max_steps, err.t, err.steps) == (budget, t, None)
        assert err.pending == int((np.abs(steps) > budget).sum()) > 0


@pytest.mark.parametrize("t", [5.0, -5.0])
def test_numpy_flow_runs_in_equal_blocks(setup, monkeypatch, t):
    # consecutive blocks of at most _BLOCK samples, sizes within one
    _, _, tables = setup
    sizes = []
    for name in ("_forward", "_backward"):
        def spy(*args, inner=getattr(_core_py, name)):
            sizes.append(args[-4].size)  # the block of x
            return inner(*args)
        monkeypatch.setattr(_core_py, name, spy)
    rng = np.random.default_rng(4)
    for n in [0, 1, _core_py._BLOCK, _core_py._BLOCK + 1,
              3 * _core_py._BLOCK + 2]:
        del sizes[:]
        x = rng.uniform(0.0, 1.0, n)
        kernels.flow_points(tables, x, 0.5 * x, t, module=_core_py)
        assert sum(sizes) == n
        assert len(sizes) == -(-n // _core_py._BLOCK)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1


class TestParity:
    """The compiled kernels against numpy; `compiled_core` (conftest)
    builds the committed _core.c when no extension is installed."""

    def test_flow_parity(self, setup, compiled_core):
        _, _, tables = setup
        rng = np.random.default_rng(23)
        x = rng.uniform(0.001, 0.999, size=500)
        y = rng.uniform(0.0, 0.9, size=500)
        for t in [7.3, -2.9]:
            xa, ya, sa = kernels.flow_points(tables, x, y, t,
                                             module=compiled_core)
            xb, yb, sb = kernels.flow_points(tables, x, y, t, module=_core_py)
            # jump counts may differ only where a sample sits within float
            # rounding of a jump boundary; none of these random samples do
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_allclose(xa, xb, atol=1e-12)
            np.testing.assert_allclose(ya, yb, atol=1e-10)

    @pytest.mark.parametrize("t", [5.0, -5.0])
    def test_flow_parity_across_blocks(self, setup, compiled_core, t):
        # the numpy kernel runs these in three blocks, the compiled one in
        # a single loop
        _, _, tables = setup
        rng = np.random.default_rng(29)
        n = 2 * _core_py._BLOCK + 1001
        x = rng.uniform(0.001, 0.999, size=n)
        y = rng.uniform(0.0, 0.9, size=n)
        xa, ya, sa = kernels.flow_points(tables, x, y, t,
                                         module=compiled_core)
        xb, yb, sb = kernels.flow_points(tables, x, y, t, module=_core_py)
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_allclose(xa, xb, atol=1e-12)
        np.testing.assert_allclose(ya, yb, atol=1e-10)

    def test_min_distance_parity(self, setup, compiled_core):
        iet, _, tables = setup
        points = np.array([0.0, float(iet.right("A")), 1.0])
        for x in [0.123, 0.456, 0.789]:
            for n in [50, -50]:
                a = kernels.min_orbit_distance(tables, x, n, points,
                                               module=compiled_core)
                b = kernels.min_orbit_distance(tables, x, n, points,
                                               module=_core_py)
                assert a == b

    def test_3iet_roof_parity(self, compiled_core):
        iet = bounded_type_3iet()
        spec = asymmetric_log_roof(iet)
        tables = kernels.float_tables(iet, spec)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.001, 0.999, size=300)
        a = kernels.roof_values(tables, x, module=compiled_core)
        b = kernels.roof_values(tables, x, module=_core_py)
        np.testing.assert_allclose(a, b, rtol=1e-13)


def test_selected_implementation_reported():
    assert kernels.implementation_name() in ("numpy", "cython")


@BACKENDS
def test_backend_defines_the_kernel_contract(module):
    """Every function `kernels` dispatches to, plus IMPLEMENTATION."""
    assert module.IMPLEMENTATION in ("numpy", "cython")
    for name in ("roof_values", "flow_points", "min_orbit_distance"):
        assert callable(getattr(module, name)), name


@BACKENDS
@pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((), ()),
                                    ((1, 1), (1, 1)), ((5,), (4,)),
                                    ((5,), ())])
def test_flow_points_take_1d_arrays_of_one_length(module, setup, shapes):
    # samples are written back by flat position, which a 2-d array would
    # take for a row
    _, _, tables = setup
    x, y = np.full(shapes[0], 0.3), np.full(shapes[1], 0.1)
    with pytest.raises(ValueError, match="takes 1-d x and y of one length"):
        kernels.flow_points(tables, x, y, 5.0, module=module)


@BACKENDS
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_points_refuse_a_non_finite_time(module, setup, t):
    # nan would flow nowhere and inf would run the whole step budget
    _, _, tables = setup
    with pytest.raises(ValueError, match="flow time t = %r is not finite"
                       % t):
        kernels.flow_points(tables, np.array([0.3]), np.array([0.1]), t,
                            module=module)


@BACKENDS
@pytest.mark.parametrize("t", [0.5, -0.5])
@pytest.mark.parametrize("where", ["y below 0", "y at f(x)", "y above f(x)",
                                   "x below 0", "x at total"])
def test_flow_domain_error_on_every_backend(module, setup, t, where):
    """A sample outside 0 <= x < total, 0 <= y < f(x) is refused before
    dispatch with one typed error naming it, never returned unmoved."""
    _, _, tables = setup
    x = np.array([0.1, 0.3, 0.7])
    y = np.array([0.2, 0.2, 0.2])
    f = kernels.roof_values(tables, x, module=module)
    x[1], y[1] = {"y below 0": (0.3, -1.0),
                  "y at f(x)": (0.3, f[1]),
                  "y above f(x)": (0.3, f[1] + 1.0),
                  "x below 0": (-0.25, 0.2),
                  "x at total": (tables.total, 0.2)}[where]
    with pytest.raises(FlowDomainError) as info:
        kernels.flow_points(tables, x, y, t, module=module)
    err = info.value
    assert isinstance(err, ValueError)
    assert (err.index, err.x, err.y, err.count) == (1, x[1], y[1], 1)
    assert err.total == tables.total
    assert "outside the flow space" in str(err)


@BACKENDS
@pytest.mark.parametrize("where", ["y at f(x)", "y above f(x)", "x at total"])
def test_flow_domain_error_with_given_roof_values(module, setup, where):
    """Roof values handed to `flow_points` replace its roof pass, not its
    check: a sample outside the flow space raises the same error."""
    _, _, tables = setup
    x = np.array([0.1, 0.3, 0.7])
    y = np.array([0.2, 0.2, 0.2])
    f = kernels.roof_values(tables, x, module=module)
    x[1], y[1] = {"y at f(x)": (0.3, f[1]),
                  "y above f(x)": (0.3, f[1] + 1.0),
                  "x at total": (tables.total, 0.2)}[where]
    f = kernels.roof_values(tables, x, module=module)
    errors = []
    for given in (None, f):
        with pytest.raises(FlowDomainError) as info:
            kernels.flow_points(tables, x, y, 0.5, module=module, f=given)
        err = info.value
        errors.append((err.index, err.x, err.y, err.f, err.total, err.count))
    assert errors[0] == errors[1]
    assert errors[0][:3] == (1, x[1], y[1])
