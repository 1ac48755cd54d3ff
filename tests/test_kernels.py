import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ietflow import kernels
from ietflow.exact import ExactScalar
from ietflow.fixtures import asymmetric_log_roof, bounded_type_3iet, golden_rotation
from ietflow.roof import (BirkhoffCursor, FlowPoint, birkhoff_sum, eval_roof,
                          flow)

F = Fraction

COMPILED = kernels.load_compiled()
MODULES = [kernels.load_fallback()] + ([COMPILED] if COMPILED else [])
IDS = ["numpy"] + (["cython"] if COMPILED else [])


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


@pytest.fixture(scope="module")
def setup():
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    tables = kernels.float_tables(iet, spec)
    return iet, spec, tables


@pytest.mark.parametrize("module", MODULES, ids=IDS)
class TestAgainstExactPath:
    def test_iterate_matches_exact_orbit(self, module, setup):
        iet, spec, tables = setup
        xs = [F(k, 97) for k in range(1, 30)]
        arr = np.array([float(x) for x in xs])
        for n in [1, 5, 20, -7]:
            got = kernels.iet_iterate(tables, arr, n, module=module)
            want = [float(iet.iterate(x, n)) for x in xs]
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_birkhoff_matches_exact_path(self, module, setup):
        iet, spec, tables = setup
        xs = [F(k, 53) for k in range(1, 20)]
        arr = np.array([float(x) for x in xs])
        for r in [3, 25, -12]:
            got = kernels.birkhoff_sums(tables, arr, r, module=module)
            want = [birkhoff_sum(iet, spec, x, r).value for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-9)
        got = kernels.birkhoff_sums(tables, arr, 25, derivative=True,
                                    module=module)
        want = [birkhoff_sum(iet, spec, x, 25, derivative=True).value
                for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-9)

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


@pytest.mark.skipif(COMPILED is None, reason="compiled kernels unavailable")
class TestParity:
    def test_birkhoff_parity(self, setup):
        _, _, tables = setup
        rng = np.random.default_rng(17)
        x = rng.uniform(0.001, 0.999, size=200)
        for r in [1, 10, 100, -40]:
            a = kernels.birkhoff_sums(tables, x, r, module=COMPILED)
            b = kernels.birkhoff_sums(tables, x, r,
                                      module=kernels.load_fallback())
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_flow_parity(self, setup):
        _, _, tables = setup
        rng = np.random.default_rng(23)
        x = rng.uniform(0.001, 0.999, size=500)
        y = rng.uniform(0.0, 0.9, size=500)
        for t in [7.3, -2.9]:
            xa, ya, sa = kernels.flow_points(tables, x, y, t, module=COMPILED)
            xb, yb, sb = kernels.flow_points(tables, x, y, t,
                                             module=kernels.load_fallback())
            # jump counts may differ only where a sample sits within float
            # rounding of a jump boundary; none of these random samples do
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_allclose(xa, xb, atol=1e-12)
            np.testing.assert_allclose(ya, yb, atol=1e-10)

    def test_min_distance_parity(self, setup):
        iet, _, tables = setup
        points = np.array([0.0, float(iet.right("A")), 1.0])
        for x in [0.123, 0.456, 0.789]:
            for n in [50, -50]:
                a = kernels.min_orbit_distance(tables, x, n, points,
                                               module=COMPILED)
                b = kernels.min_orbit_distance(tables, x, n, points,
                                               module=kernels.load_fallback())
                assert a == b

    def test_3iet_roof_parity(self):
        iet = bounded_type_3iet()
        spec = asymmetric_log_roof(iet)
        tables = kernels.float_tables(iet, spec)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.001, 0.999, size=300)
        a = kernels.roof_values(tables, x, module=COMPILED)
        b = kernels.roof_values(tables, x, module=kernels.load_fallback())
        np.testing.assert_allclose(a, b, rtol=1e-13)


def test_selected_implementation_reported():
    assert kernels.implementation_name() in ("numpy", "cython")
    assert kernels.COMPILED == (kernels.implementation_name() == "cython")
