"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them);
shared traces are built once per session.  The criteria run the full stated
sample sizes, so this module carries most of the suite's runtime.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ietflow import kernels
from ietflow.birkhoff import sigma_set
from ietflow.diophantine import (
    ParamWindowError,
    ratner_dc_partial,
    summability_partial,
    validate_params,
)
from ietflow.exact import ExactScalar
from ietflow.fixtures import (
    asymmetric_log_roof,
    bounded_type_3iet,
    golden_rotation,
)
from ietflow.iet import Iet, Permutation
from ietflow.rauzy import (
    InductionTrace,
    RVUndefinedError,
    is_positive,
    jacobian,
    mat_identity,
    mat_mul,
    nu_col,
    return_time_oracle,
    select_accel_times,
    towers,
)
from ietflow.ratner import (
    BumpObservable,
    WitnessConfig,
    induced_discontinuity_gaps,
    mixing_correlation,
    verify_witness_high_precision,
    witness_run,
)
from ietflow.roof import BirkhoffCursor, roof_area
from ietflow.birkhoff import default_slack_constant

F = Fraction


def report(criterion, detail=""):
    print("ACCEPTANCE %s: PASS %s" % (criterion, detail))


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_trace():
    return InductionTrace(golden_rotation()).extend(46)


@pytest.fixture(scope="module")
def golden_accel(golden_trace):
    return select_accel_times(golden_trace, 3, lbar_max=4)


@pytest.fixture(scope="module")
def bounded3_trace():
    return InductionTrace(bounded_type_3iet()).extend(40)


@pytest.fixture(scope="module")
def bounded3_accel(bounded3_trace):
    return select_accel_times(bounded3_trace, 4, lbar_max=6)


def random_rational_iet(rng, d):
    """Random irreducible rational IET with bounded denominators."""
    alphabet = list("ABCD"[:d])
    while True:
        bottom = alphabet[:]
        rng.shuffle(bottom)
        perm = Permutation(alphabet, bottom)
        if perm.irreducible:
            break
    weights = [rng.randrange(1, 10 ** 6) for _ in range(d)]
    total = sum(weights)
    return Iet(perm, [F(w, total) for w in weights])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_cocycle_exactness():
    start = time.time()
    rng = random.Random(2024)
    checked = 0
    for trial in range(50):
        d = 3 if trial % 2 == 0 else 4
        iet = random_rational_iet(rng, d)
        trace = InductionTrace(iet)
        try:
            trace.extend(25)
        except RVUndefinedError:
            pass
        for n in range(trace.depth + 1):
            assert trace.check_cocycle(n), "lambda = B lambda' failed"
            prod = trace.product(0, n)
            ones = (1,) * d
            dual = tuple(sum(prod[i][j] for i in range(d)) for j in range(d))
            assert dual == trace.heights(n), "heights relation failed"
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0, "runtime %.1f s exceeds 10 s" % elapsed
    report("1 (cocycle exactness)",
           "- %d trace states, %.1f s" % (checked, elapsed))


def test_criterion_02_return_time_oracle(golden_trace, bounded3_trace):
    start = time.time()
    rng = random.Random(7)
    corpora = [(golden_trace, [5, 10, 15, 20, 25]),
               (bounded3_trace, [5, 10, 15, 20, 25])]
    for _ in range(5):
        iet = random_rational_iet(rng, 3)
        trace = InductionTrace(iet)
        try:
            trace.extend(25)
        except RVUndefinedError:
            pass
        depths = [n for n in range(5, trace.depth + 1, 5)]
        corpora.append((trace, depths))
    measured = 0
    for trace, depths in corpora:
        d = trace.base.perm.d
        for n in depths:
            if max(trace.heights(n)) > 4000 and trace is not golden_trace:
                continue
            prod = trace.product(0, n)
            for idx, label in enumerate(trace.base.perm.alphabet):
                expect = sum(prod[i][idx] for i in range(d))
                assert return_time_oracle(trace, n, label) == expect
                measured += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, "runtime %.1f s exceeds 30 s" % elapsed
    report("2 (return-time oracle)",
           "- %d towers measured, %.1f s" % (measured, elapsed))


def test_criterion_03_tower_partitions(golden_trace, bounded3_trace):
    rng = random.Random(11)
    count = 0
    for n in range(0, 15):
        assert towers(golden_trace, n).check_partition()
        count += 1
    for n in range(0, 13):
        assert towers(bounded3_trace, n).check_partition()
        count += 1
    for _ in range(3):
        trace = InductionTrace(random_rational_iet(rng, 3))
        try:
            trace.extend(12)
        except RVUndefinedError:
            pass
        for n in range(trace.depth + 1):
            assert towers(trace, n).check_partition()
            count += 1
    report("3 (tower partitions)", "- %d tower systems, zero tolerance"
           % count)


def test_criterion_04_golden_fibonacci(golden_trace):
    # offset fixed by the oracle: the max return time at step 1 is 2 = F(3)
    assert return_time_oracle(golden_trace, 1, "A") in (1, 2)
    q1 = golden_trace.q(1)
    assert q1 == fib(3)
    for n in range(1, 26):
        hs = sorted(golden_trace.heights(n))
        assert hs == [fib(n + 1), fib(n + 2)], "heights at %d" % n
    report("4 (golden Fibonacci law)", "- 25 steps exact")


def test_criterion_05_hilbert_distortion_suite(golden_trace, bounded3_trace):
    start = time.time()
    rng = random.Random(5)

    def ratio(p, q):
        r = [F(a) / F(b) for a, b in zip(p, q)]
        return max(r) / min(r)

    contraction_trials = 0
    while contraction_trials < 10 ** 4:
        d = rng.choice([2, 3])
        a = tuple(tuple(rng.randint(0, 3) for _ in range(d))
                  for _ in range(d))
        if not all(any(col) for col in zip(*a)) or not all(any(r) for r in a):
            continue
        u = [F(rng.randint(1, 40)) for _ in range(d)]
        v = [F(rng.randint(1, 40)) for _ in range(d)]
        im_u = [sum(a[i][j] * u[j] for j in range(d)) for i in range(d)]
        im_v = [sum(a[i][j] * v[j] for j in range(d)) for i in range(d)]
        assert ratio(im_u, im_v) <= ratio(u, v)
        if is_positive(a) and ratio(u, v) != 1:
            assert ratio(im_u, im_v) < ratio(u, v)
        contraction_trials += 1

    # Jacobian vs central differences on unimodular cocycle products
    for trace, lam in ((golden_trace, [0.35, 0.65]),
                       (bounded3_trace, [0.3, 0.45, 0.25])):
        d = trace.base.perm.d
        mat = trace.product(0, 6)
        h = 1e-6

        def chart(*coords):
            v = list(coords) + [1 - sum(coords)]
            im = [sum(mat[i][j] * v[j] for j in range(d)) for i in range(d)]
            s = sum(im)
            return [c / s for c in im[:d - 1]]

        if d == 2:
            numeric = abs(chart(lam[0] + h)[0] - chart(lam[0] - h)[0]) / (2 * h)
        else:
            j = [[(chart(*(lam[:2][k] + h * (k == col) for k in range(2)))[row]
                   - chart(*(lam[:2][k] - h * (k == col) for k in range(2)))[row])
                  / (2 * h) for col in range(2)] for row in range(2)]
            numeric = abs(j[0][0] * j[1][1] - j[0][1] * j[1][0])
        assert numeric == pytest.approx(jacobian(mat, lam), rel=1e-6)

    # sup Jacobian ratio <= nu_col^d over 1e4 samples
    samples_done = 0
    while samples_done < 4:
        d = rng.choice([2, 3])
        mat = tuple(tuple(rng.randint(1, 6) for _ in range(d))
                    for _ in range(d))
        bound = float(nu_col(mat)) ** d
        vals = []
        for _ in range(2500):
            w = [rng.random() + 1e-9 for _ in range(d)]
            s = sum(w)
            vals.append(jacobian(mat, [c / s for c in w]))
        assert max(vals) / min(vals) <= bound * (1 + 1e-9)
        samples_done += 1

    # nu_col(CD) <= nu_col(D) over 1e3 trials
    prod_trials = 0
    while prod_trials < 10 ** 3:
        d = rng.choice([2, 3])
        c = tuple(tuple(rng.randint(0, 4) for _ in range(d))
                  for _ in range(d))
        dm = tuple(tuple(rng.randint(1, 6) for _ in range(d))
                   for _ in range(d))
        cd = mat_mul(c, dm)
        if not is_positive(cd):
            continue
        assert nu_col(cd) <= nu_col(dm)
        prod_trials += 1

    elapsed = time.time() - start
    assert elapsed < 30.0, "runtime %.1f s exceeds 30 s" % elapsed
    report("5 (Hilbert/distortion suite)", "- %.1f s" % elapsed)


def test_criterion_06_sigma_bound(golden_accel, bounded3_accel):
    for accel, name in ((golden_accel, "golden"), (bounded3_accel, "b3")):
        for ell in range(1, 16):
            sset = sigma_set(accel, ell, 0.995)
            assert sset.bound_holds, "%s ell=%d" % (name, ell)
            assert not ExactScalar(sset.bound) < sset.measure
    report("6 (Sigma_l+ measure bound)", "- ell <= 15, both fixtures, exact")


def test_criterion_07_derivative_growth(golden_accel):
    # two-sided growth bound of the derivative sums at desk tolerance 0.15:
    # (gap - 0.15) r log r <= oriented S_r(f') <= (gap + 0.15) r log r
    # + M (U + V); the clean-band fraction is reported alongside
    start = time.time()
    accel = golden_accel
    iet = accel.trace.base
    spec = asymmetric_log_roof(iet)     # |C- - C+| = 1
    assert abs(float(spec.asymmetry_gap)) == 1
    M_const = default_slack_constant(spec)
    r_grid = [1000, 3000, 10000, 30000]
    from ietflow.birkhoff import locate_scale
    ells = {locate_scale(accel, r) for r in r_grid}

    rng = random.Random(77)
    points = []
    while len(points) < 50:
        x = F(rng.randrange(3 * 10 ** 5, 7 * 10 ** 5), 10 ** 6)
        if any(sigma_set(accel, ell, 0.995).contains(x) for ell in ells):
            continue
        points.append(x)

    tol = 0.15
    clean = 0
    total = 0
    for x in points:
        # one exact sweep to the largest r, read at every r: S_r(f') and
        # the running closest approaches
        cursor = BirkhoffCursor(iet, spec, x)
        for r in r_grid:
            s_val = cursor.derivative_sum_at(r).value
            u_gap, _, v_gap, _ = cursor.gap_minima()
            u_val, v_val = 1.0 / float(u_gap), 1.0 / float(v_gap)
            rlog = r * math.log(r)
            assert s_val >= (1.0 - tol) * rlog, \
                "lower bound failed at x=%s r=%d" % (x, r)
            assert s_val <= (1.0 + tol) * rlog + M_const * (u_val + v_val), \
                "slacked upper bound failed at x=%s r=%d" % (x, r)
            total += 1
            if s_val <= (1.0 + tol) * rlog:
                clean += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, "runtime %.1f s exceeds 2 min" % elapsed
    report("7 (derivative-sum growth)",
           "- 50 points x 4 scales, two-sided bound at 0.15; clean band "
           "%d/%d, %.1f s" % (clean, total, elapsed))


def test_criterion_08_backward_forward_control(golden_accel):
    start = time.time()
    accel = golden_accel
    params = validate_params(1.01, 0.995, 0.9, 0.992)
    iet = accel.trace.base
    ells = list(range(6, 13))
    margin = F(1, 40)   # eps = 0.2: good region excludes [0, eps/8) etc.
    threshold_scalars = {ell: ExactScalar(F(1, 18) / accel.q(ell + params.L))
                         for ell in ells}
    tested = 0
    for k in range(1, 1001):
        x = F(k, 1001)
        if x < margin or x > 1 - margin:
            continue
        # one distances-only sweep per direction, read at every q_l
        fwd = BirkhoffCursor(iet, None, x, forward=True)
        bwd = BirkhoffCursor(iet, None, x, forward=False)
        for ell in ells:
            q = accel.q(ell)
            thr = threshold_scalars[ell]
            ok_f = thr < fwd.advance_to(q).min_gap()
            ok_b = thr < bwd.advance_to(q).min_gap()
            assert ok_f or ok_b, "dichotomy failed at x=%s ell=%d" % (x, ell)
        tested += 1
    elapsed = time.time() - start
    assert tested >= 950
    assert elapsed < 60.0, "runtime %.1f s exceeds 1 min" % elapsed
    report("8 (backward/forward control)",
           "- %d grid points x 7 scales, 100%%, %.1f s" % (tested, elapsed))


def test_criterion_09_induced_discontinuity_gaps(golden_accel, bounded3_accel):
    for accel, name in ((golden_accel, "golden"), (bounded3_accel, "b3")):
        for ell in range(1, 13):
            rep = induced_discontinuity_gaps(accel, ell)
            assert rep.holds, "%s ell=%d" % (name, ell)
    report("9 (discontinuity distances)", "- ell <= 12, both fixtures, exact")


def test_criterion_10_sr_witness(golden_accel):
    start = time.time()
    accel = golden_accel
    iet = accel.trace.base
    spec = asymmetric_log_roof(iet)
    params = validate_params(1.01, 0.995, 0.9, 0.992)
    cfg = WitnessConfig(epsilon=0.2, N=10, params=params, seed=42,
                        window_len=0)
    results, _, _ = witness_run(accel, spec, cfg, 100, F(1, 10 ** 5))
    verified = []
    for res in results:
        if res.verdict == "verified":
            assert res.p in (-1, 1)
            assert res.L / res.M >= cfg.kappa
            assert res.M >= cfg.N and res.L >= cfg.N
            assert res.direction in ("forward", "backward")
            verified.append(res)
    rate = len(verified) / len(results)
    assert rate >= 0.9, "verified rate %.2f below 0.9" % rate
    for res in verified:
        assert verify_witness_high_precision(iet, spec, res, cfg.epsilon), \
            "high-precision re-verification failed"
    elapsed = time.time() - start
    directions = {}
    for res in verified:
        directions[res.direction] = directions.get(res.direction, 0) + 1
    assert elapsed < 300.0, "runtime %.1f s exceeds 5 min" % elapsed
    report("10 (SR witness)",
           "- %d/100 verified (%s), all re-verified, %.1f s"
           % (len(verified), directions, elapsed))


def test_criterion_11_mixing_trend():
    start = time.time()
    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    g = BumpObservable(x0=0.5, wx=0.3, y0=0.5, wy=0.49)
    n = 10 ** 6
    var_est = mixing_correlation(iet, spec, g, g, 0.0, n, seed=20)
    area = roof_area(iet, spec)
    analytic_var = g.second_moment(area) - g.mean(area) ** 2
    assert abs(var_est.value - analytic_var) <= 3 * var_est.stderr
    small = mixing_correlation(iet, spec, g, g, 5.0, n, seed=20)
    large = mixing_correlation(iet, spec, g, g, 200.0, n, seed=20)
    assert abs(large.value) < abs(small.value)
    elapsed = time.time() - start
    assert elapsed < 180.0, "runtime %.1f s exceeds 3 min" % elapsed
    report("11 (mixing trend probe)",
           "- |corr(200)|=%.2e < |corr(5)|=%.2e, variance within 3 stderr, "
           "%.1f s (%s kernel)" % (abs(large.value), abs(small.value),
                                   elapsed, kernels.implementation_name()))


def test_criterion_12_diophantine_diagnostics(golden_accel):
    params = validate_params(1.01, 0.995, 0.9, 0.992)
    assert params.L == 10

    rng = random.Random(99)
    base = dict(tau=F("1.01"), tau_prime=F("0.995"), eta=F("0.9"),
                xi=F("0.992"))
    violations = [
        ("tau", F(1)), ("tau", F("16/15")), ("tau", F("0.99")),
        ("tau", F("1.5")), ("tau", F(2)),
        ("tau_prime", F("15/16")), ("tau_prime", F(1)),
        ("tau_prime", F("0.5")), ("tau_prime", F("1.2")),
        ("eta", F(3, 4)), ("eta", F("0.98")), ("eta", F("0.1")),
        ("eta", F("1.5")), ("eta", F(2)),
        ("xi", F("0.99")), ("xi", F("0.995")), ("xi", F("0.9")),
        ("xi", F("0.996")), ("xi", F("0.5")), ("xi", F(1)),
    ]
    assert len(violations) == 20
    for name, value in violations:
        kwargs = dict(base)
        kwargs[name] = value
        with pytest.raises(ParamWindowError):
            validate_params(**kwargs)

    accel = golden_accel
    # bounded-type diagnostics along consecutive scales (the window
    # override documented in the module: the faithful L-window makes every
    # small index bad on any trace, see the module docstring)
    out30 = ratner_dc_partial(accel, params, depth=30, window_len=0)
    assert all(ell <= 3 for ell in out30.bad_indices), \
        "bad set not empty beyond 3: %s" % out30.bad_indices
    out25 = ratner_dc_partial(accel, params, depth=25, window_len=0)
    assert out30.partial_sum == out25.partial_sum, "partial sum not stable"

    memb = [summability_partial(accel, params, depth=d, window_len=0)
            for d in (25, 30)]
    assert memb[0].non_members == memb[1].non_members == []
    assert memb[0].sum_sigma_eta == memb[1].sum_sigma_eta
    assert memb[0].sum_measures == memb[1].sum_measures
    report("12 (Diophantine diagnostics)",
           "- window accepts/rejects exactly; bad set %s; K_T stable to "
           "depth 30" % out30.bad_indices)
