import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ietflow.exact import ExactScalar
from ietflow.fixtures import (
    bounded_type_3iet,
    golden_rotation,
    rotation_third,
    symmetric_3iet,
)
from ietflow.iet import Iet, IntegerOrbit, Permutation, first_return_map
from ietflow.rauzy import (
    AccelTimes,
    InductionTrace,
    MatrixDomainError,
    RVUndefinedError,
    TowerSystem,
    balance_check,
    col_norm,
    hilbert_distance,
    induct,
    is_positive,
    jacobian,
    mat_det,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    nu_col,
    positivity_check,
    projective_diameter,
    return_time_oracle,
    select_accel_times,
    towers,
)
from iet_reference import ReferenceMap

F = Fraction


def _random_trace(seed, depth):
    """Trace of a random irreducible Q-IET with d = 3 + seed % 3, lengths
    over 10^6, extended to `depth` steps or until a step is undefined."""
    rng = random.Random(seed)
    d = 3 + seed % 3
    alphabet = "ABCDE"[:d]
    bottom = list(alphabet)
    while True:
        rng.shuffle(bottom)
        perm = Permutation(alphabet, bottom)
        if perm.irreducible:
            break
    base = Iet(perm, [F(rng.randrange(1, 10 ** 6), 10 ** 6)
                      for _ in range(d)])
    trace = InductionTrace(base)
    try:
        trace.extend(depth)
    except RVUndefinedError:
        pass
    return trace


def _fixture_traces(depth):
    """Golden (Q(sqrt 5)), bounded-3 (Q(sqrt 2)) and random d = 3..5 Q
    traces, extended to at most `depth` steps."""
    return [InductionTrace(golden_rotation()).extend(depth),
            InductionTrace(bounded_type_3iet()).extend(depth)] + [
        _random_trace(seed, depth) for seed in range(6)]


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


class TestRvStep:
    def test_symmetric_3iet_example(self):
        iet = symmetric_3iet()
        trace = InductionTrace(iet)
        new, matrix, step_type = (trace.iet(1), trace.step_matrix(0),
                                  trace.step_type(0))
        # bottom interval A (1/2) beats top interval C (1/6)
        assert step_type == "bottom"
        lengths = {a: new.length(a) for a in "ABC"}
        assert lengths["A"] == ExactScalar(F(1, 3))
        assert lengths["B"] == ExactScalar(F(1, 3))
        assert lengths["C"] == ExactScalar(F(1, 6))
        assert new.total == ExactScalar(F(5, 6))
        # B = identity plus extra unit in position (A, C)
        expect = ((1, 0, 1), (0, 1, 0), (0, 0, 1))
        assert matrix == expect
        # lambda = B lambda' exactly
        lam = mat_vec(matrix, new.lengths)
        assert tuple(lam) == iet.lengths

    def test_first_return_oracle(self):
        # the induced map must equal the first-return map to the new interval
        iet = symmetric_3iet()
        new = InductionTrace(iet).iet(1)
        hit = first_return_map(iet, new.total)
        for k in range(1, 40):
            x = ExactScalar(F(k, 48))
            if not x < new.total:
                continue
            y, _ = hit(x)
            assert y == new.evaluate(x)

    def test_first_return_oracle_golden(self):
        iet = golden_rotation()
        new = InductionTrace(iet).iet(1)
        hit = first_return_map(iet, new.total)
        for k in range(1, 20):
            x = ExactScalar(F(k, 60))
            if not x < new.total:
                continue
            y, _ = hit(x)
            assert y == new.evaluate(x)

    def test_golden_alternates_and_fibonacci_lengths(self):
        trace = InductionTrace(golden_rotation()).extend(12)
        word = trace.type_word()
        assert word in ("tb" * 6, "bt" * 6)
        # |I^(n-1)| = |I^(n)| + |I^(n+1)| exactly (golden continued fraction
        # [0;1,1,1,...]: every step removes the next remainder)
        for n in range(1, 11):
            lhs = trace.interval_length(n - 1)
            rhs = trace.interval_length(n) + trace.interval_length(n + 1)
            assert lhs == rhs

    def test_rational_rotation_becomes_undefined(self):
        trace = InductionTrace(rotation_third())
        with pytest.raises(RVUndefinedError):
            trace.extend(3)
        assert trace.depth < 3

    def test_determinant_is_unimodular(self):
        trace = InductionTrace(golden_rotation()).extend(10)
        t2 = InductionTrace(bounded_type_3iet()).extend(10)
        for tr in (trace, t2):
            for k in range(tr.depth):
                assert mat_det(tr.step_matrix(k)) in (1, -1)
            assert mat_det(tr.product(0, tr.depth)) in (1, -1)


def _reference_step(iet):
    """One Rauzy-Veech step of an Iet in ExactScalar arithmetic: (induced
    Iet, step matrix, step type, (w, l)); the differential reference of
    the integer step `rv_step`."""
    perm = iet.perm
    alphabet = perm.alphabet
    ti = alphabet.index(perm.top[-1])
    bi = alphabet.index(perm.bottom[-1])
    lt = iet.lengths[ti]
    lb = iet.lengths[bi]
    if lt == lb:
        raise RVUndefinedError(
            "last top and bottom intervals both have length %s"
            % lt.to_string())
    if lt > lb:
        step_type, wi, li = "top", ti, bi
    else:
        step_type, wi, li = "bottom", bi, ti
    winner, loser = alphabet[wi], alphabet[li]
    lengths = list(iet.lengths)
    lengths[wi] = lengths[wi] - lengths[li]
    row = [a for a in (perm.bottom if step_type == "top" else perm.top)
           if a != loser]
    row.insert(row.index(winner) + 1, loser)
    if step_type == "top":
        new_perm = Permutation(perm.top, row, alphabet=alphabet)
    else:
        new_perm = Permutation(row, perm.bottom, alphabet=alphabet)
    matrix = tuple(tuple(int(i == j or (i, j) == (wi, li))
                         for j in range(perm.d)) for i in range(perm.d))
    return Iet(new_perm, lengths), matrix, step_type, (wi, li)


def _random_iet(seed, field):
    """A random irreducible IET with d = 3..6 and lengths a + b sqrt(field)
    (b = 0 on Q), a and b over 10^6, a > 0 and b >= 0."""
    rng = random.Random("%d:%s" % (seed, field))
    d = 3 + seed % 4
    alphabet = "ABCDEF"[:d]
    bottom = list(alphabet)
    while True:
        rng.shuffle(bottom)
        perm = Permutation(alphabet, bottom)
        if perm.irreducible:
            break
    return Iet(perm, [
        ExactScalar(F(rng.randrange(1, 10 ** 6), 10 ** 6),
                    F(rng.randrange(0, 10 ** 6), 10 ** 6) if field else 0,
                    field)
        for _ in range(d)])


class TestIntegerTrace:
    """The trace's integer steps against the ExactScalar reference."""

    def _compare(self, base, depth):
        trace = InductionTrace(base)
        iet, d = base, base.perm.d
        heights, prod, word = (1,) * d, mat_identity(d), ""
        for n in range(depth + 1):
            got = trace.iet(n)
            assert got.perm == iet.perm and got.lengths == iet.lengths
            assert trace.iet(n) is got
            assert trace.heights(n) == heights
            assert trace.product(0, n) == prod
            assert trace.type_word(n) == word
            assert trace.interval_length(n) == iet.total
            assert trace.check_cocycle(n)
            assert all(sum((k * lam for k, lam in zip(row, iet.lengths)),
                           ExactScalar(0)) == lam0
                       for row, lam0 in zip(prod, base.lengths))
            if n == depth:
                return trace
            try:
                iet, matrix, step_type, (w, l) = _reference_step(iet)
            except RVUndefinedError as exc:
                with pytest.raises(RVUndefinedError) as got_exc:
                    trace.extend(n + 1)
                assert str(got_exc.value) == str(exc)
                assert got_exc.value.depth == trace.depth == n
                return trace
            assert trace.step_matrix(n) == matrix
            assert trace.step_type(n) == step_type
            h = list(heights)
            h[l] += h[w]
            heights, prod = tuple(h), mat_mul(prod, matrix)
            word += step_type[0]

    @pytest.mark.parametrize("field", [None, 2, 5])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_iets_match_the_exact_reference(self, field, seed):
        trace = self._compare(_random_iet(seed, field), 40)
        assert trace.depth == 40

    @pytest.mark.parametrize("lengths,depth,tied", [
        ([F(2, 5), F(3, 5)], 2, "1/5"),
        ([ExactScalar(-1, 1, 2), ExactScalar(-2, 2, 2)], 1,
         "(-1+1*sqrt(2))/1"),
    ])
    def test_a_tie_is_met_at_the_same_depth(self, lengths, depth, tied):
        base = Iet(Permutation("AB", "BA"), lengths)
        trace = self._compare(base, depth + 1)
        assert trace.depth == depth
        with pytest.raises(RVUndefinedError,
                           match=r"both have length %s$" % re.escape(tied)):
            trace.extend(depth + 1)


class TestInduct:
    def test_depth_zero_is_trivial(self):
        trace = InductionTrace(symmetric_3iet())
        assert trace.product(0, 0) == mat_identity(3)
        assert trace.heights(0) == (1, 1, 1)

    def test_heights_after_one_step(self):
        trace = induct(InductionTrace(symmetric_3iet()), 1)
        assert trace.heights(1) == (1, 1, 2)
        # cross-check: the return time of I^(1)_C is 2
        assert return_time_oracle(trace, 1, "C") == 2

    def test_negative_steps_are_refused(self):
        # a negative step would index the trace's lists from their ends
        trace = InductionTrace(golden_rotation()).extend(10)
        for read in (trace.extend, trace.iet, trace.heights, trace.words,
                     trace.step_matrix, trace.step_type,
                     lambda n: trace.product(n, 3),
                     lambda n: towers(trace, n)):
            with pytest.raises(ValueError, match="negative induction step -1"):
                read(-1)
        assert trace.depth == 10

    def test_golden_heights_are_fibonacci(self):
        trace = InductionTrace(golden_rotation()).extend(21)
        # fix the offset at small depth with the return-time oracle
        t1 = max(return_time_oracle(trace, 1, a) for a in "AB")
        assert t1 == trace.q(1) == 2 == fib(3)
        assert trace.q(20) == fib(22) == 17711

    def test_cocycle_identity(self):
        for base in (golden_rotation(), bounded_type_3iet(), symmetric_3iet()):
            trace = InductionTrace(base)
            try:
                trace.extend(15)
            except RVUndefinedError:
                pass
            for n in range(trace.depth + 1):
                assert trace.check_cocycle(n)

    def test_heights_equal_column_sums(self):
        trace = InductionTrace(bounded_type_3iet()).extend(12)
        for n in range(13):
            prod = trace.product(0, n)
            sums = tuple(sum(col) for col in zip(*prod))
            assert sums == trace.heights(n)

    @pytest.mark.parametrize("seed", range(6))
    def test_column_updates_match_matrix_products(self, seed):
        # extend updates B^(0,n) and h^(n) one column and one entry per
        # step; the reference folds the step matrices with mat_mul and
        # takes h^(n) = (B^(0,n))^T (1, ..., 1)
        trace = _random_trace(seed, 30)
        d = trace.base.perm.d
        assert trace.depth > 5
        prod = mat_identity(d)
        for n in range(trace.depth + 1):
            assert trace.product(0, n) == prod
            assert trace.heights(n) == mat_vec(mat_transpose(prod), (1,) * d)
            if n < trace.depth:
                prod = mat_mul(prod, trace.step_matrix(n))

    @pytest.mark.parametrize("index", range(8))
    def test_every_window_matches_mat_mul_fold(self, index):
        # product(m, n) folds column additions onto the longest cached
        # window with the same m; the reference folds full mat_muls.
        # The windows are asked for in a shuffled order, so a window is
        # built from scratch, from a shorter cached one, or read back.
        trace = _fixture_traces(24)[index]
        depth, d = trace.depth, trace.base.perm.d
        want = {}
        for m in range(depth + 1):
            prod = mat_identity(d)
            for n in range(m, depth + 1):
                want[m, n] = prod
                if n < depth:
                    prod = mat_mul(prod, trace.step_matrix(n))
        fresh = InductionTrace(trace.base).extend(depth)
        windows = list(want)
        random.Random(index).shuffle(windows)
        for m, n in windows + windows:
            assert fresh.product(m, n) == want[m, n]


def _reference_towers(trace, n):
    """Reference tower walk: one IntegerOrbit per tower, started at its
    base, each floor read back as a pair of ExactScalars.  Returns
    (label, height, floors) per tower."""
    from ietflow.iet import IetDomainError, IntegerOrbit

    trace.extend(n)
    base_iet = trace.base
    ind = trace.iet(n)
    heights = trace.heights(n)
    out = []
    for idx, a in enumerate(base_iet.perm.alphabet):
        left = ind.left(a)
        right = ind.right(a)
        floors = [(left, right)]
        orbit = IntegerOrbit(base_iet, left)
        wp, wq = orbit.pair_of(right)
        wp, wq = wp - orbit.p, wq - orbit.q
        for _ in range(heights[idx] - 1):
            i = orbit.interval_index()
            if orbit.pair_less(orbit.cuts[i], (orbit.p + wp, orbit.q + wq)):
                raise IetDomainError("interval crosses a discontinuity")
            orbit.step_forward(i)
            floors.append((orbit.value(),
                           orbit.value((orbit.p + wp, orbit.q + wq))))
        out.append((a, heights[idx], tuple(floors)))
    return out


def _sorted_partition(floors, total):
    """Reference partition check: the floors, sorted by their left ends,
    must tile [0, total).  It lets a zero-width floor through, which
    check_partition rejects."""
    x = ExactScalar(0)
    for left, right, *_ in sorted(floors, key=lambda f: f[0]):
        if left != x:
            return False
        x = right
    return x == total


def _flat(den, field, total, specs):
    """Hand-built TowerSystem at step 0 of per-tower (label, lefts, width)
    specs, left ends and widths as integer pairs over den; every word
    index and exit is 0."""
    lefts = [left for _, ls, _ in specs for left in ls]
    return TowerSystem(den, field, total, 0, [a for a, _, _ in specs],
                       [len(ls) for _, ls, _ in specs],
                       [w for _, _, w in specs], [(0, 0)] * len(specs),
                       [p for p, _ in lefts], [q for _, q in lefts],
                       np.zeros(len(lefts), np.int8))


def _system(total, den, *towers_):
    """Hand-built TowerSystem over Q: (label, lefts, width) numerators over
    den per tower."""
    return _flat(den, None, ExactScalar(total),
                 [(a, [(p, 0) for p in lefts], (w, 0))
                  for a, lefts, w in towers_])


def _floors(system):
    """(left, right, label) of every floor, tower by tower."""
    return [floor + (t.label,) for t in system.towers for floor in t.floors]


class TestTowers:
    def test_depth_zero(self):
        iet = symmetric_3iet()
        system = towers(InductionTrace(iet), 0)
        assert all(t.height == 1 for t in system.towers)
        assert system.floor_count() == 3
        assert system.check_partition()

    def test_3iet_one_step(self):
        system = towers(InductionTrace(symmetric_3iet()), 1)
        heights = {t.label: t.height for t in system.towers}
        assert heights == {"A": 1, "B": 1, "C": 2}
        assert system.floor_count() == 4
        assert system.check_partition()

    def test_golden_fibonacci_towers(self):
        trace = InductionTrace(golden_rotation())
        system = towers(trace, 5)
        hs = sorted(t.height for t in system.towers)
        assert hs == [fib(5), fib(6)] or hs == [fib(6), fib(7)]
        assert system.check_partition()

    def test_partition_many_depths(self):
        trace = InductionTrace(bounded_type_3iet())
        for n in range(0, 11):
            assert towers(trace, n).check_partition()

    @pytest.mark.parametrize("index", range(8))
    def test_floors_match_per_tower_walk(self, index):
        trace = _fixture_traces(12)[index]
        for n in range(trace.depth + 1):
            system = towers(trace, n)
            got = [(t.label, t.height, t.floors) for t in system.towers]
            assert got == _reference_towers(trace, n)
            for t in system.towers:
                assert (t.base_left, t.base_right) == t.floors[0]
            assert _sorted_partition(_floors(system), system.total)

    def test_check_partition_faults(self):
        # three single-floor towers tile [0, 1) in tenths
        assert _system(1, 10, ("A", [0], 3), ("B", [3], 2),
                       ("C", [5], 5)).check_partition()
        # two-floor towers: [0,3) [5,8) and [3,5) [8,10)
        assert _system(1, 10, ("A", [0, 5], 3),
                       ("B", [3, 8], 2)).check_partition()
        faults = {
            "gap": [("A", [0], 3), ("B", [4], 1), ("C", [5], 5)],
            "overlap": [("A", [0], 4), ("B", [3], 2), ("C", [5], 5)],
            "duplicate": [("A", [0], 3), ("B", [3, 3], 2), ("C", [5], 5)],
            "duplicate tower": [("A", [0], 3), ("B", [3], 2), ("C", [5], 5),
                                ("D", [3], 2)],
            "missing": [("A", [0], 3), ("C", [5], 5)],
            "missing upper floor": [("A", [0, 5], 3), ("B", [3], 2)],
            "past total": [("A", [0], 3), ("B", [3], 2), ("C", [5], 5),
                           ("D", [10], 2)],
            "zero width": [("A", [0], 3), ("B", [3], 2), ("E", [5], 0),
                           ("C", [5], 5)],
            "zero width at the end": [("A", [0], 3), ("B", [3], 2),
                                      ("C", [5], 5), ("E", [10], 0)],
            "negative width": [("A", [0], 3), ("B", [3], 2), ("C", [5], 5),
                               ("E", [10], -1)],
            "short of total": [("A", [0], 3), ("B", [3], 2), ("C", [5], 4)],
        }
        for name, spec in faults.items():
            assert not _system(1, 10, *spec).check_partition(), name
        # a zero-width floor the sort-based check lets through
        assert _sorted_partition(
            _floors(_system(1, 10, *faults["zero width"])),
            ExactScalar(1))

    def test_check_partition_faults_on_a_quadratic_field(self):
        # [0, a) and [a, 1) with a = sqrt(2) - 1, as pairs over 1
        a, b = (-1, 1), (2, -1)

        def system(*towers_):
            return _flat(1, 2, ExactScalar(1), towers_)

        assert system(("A", [(0, 0)], a), ("B", [a], b)).check_partition()
        assert system(("B", [a], b), ("A", [(0, 0)], a)).check_partition()
        faults = {
            # 3 - 2 sqrt(2) ~ 0.17
            "gap": [("A", [(0, 0)], (3, -2)), ("B", [a], b)],
            "overlap": [("A", [(0, 0)], a), ("B", [(3, -2)], (-2, 2))],
            "duplicate": [("A", [(0, 0)], a), ("B", [a, a], b)],
            "missing": [("A", [(0, 0)], a)],
            "zero width": [("A", [(0, 0)], a), ("E", [a], (0, 0)),
                           ("B", [a], b)],
            "negative width": [("A", [(0, 0)], a), ("B", [a], b),
                               ("E", [(1, 0)], (1, -1))],
            "short of total": [("A", [(0, 0)], a), ("B", [a], (1, -1))],
            "past total": [("A", [(0, 0)], a), ("B", [a], b),
                           ("C", [(1, 0)], a)],
        }
        for name, spec in faults.items():
            assert not system(*spec).check_partition(), name

    def test_sort_keys_order_floors_closer_than_a_float_resolves(self):
        # w = (sqrt(2) - 1)^40 ~ 5e-16 has pairs near 10^15, so p +
        # q sqrt(2) in floats cannot order the floors [j w, (j + 1) w);
        # the integer keys must, in any order of the tower's floors
        w = ExactScalar(-1, 1, 2) ** 40
        wp, wq = w.p, w.q
        lefts = [(j * wp, j * wq) for j in range(50)]
        random.Random(0).shuffle(lefts)
        rest = (1 - 50 * wp, -50 * wq)
        system = _flat(1, 2, ExactScalar(1), [
            ("A", lefts, (wp, wq)), ("B", [(50 * wp, 50 * wq)], rest)])
        floats = sorted(lefts, key=lambda f: f[0] + f[1] * math.sqrt(2))
        assert floats != sorted(lefts, key=lambda f: f[0] // wp)
        assert system.check_partition()
        lefts[7] = (lefts[7][0] + wp, lefts[7][1] + wq)
        assert not _flat(1, 2, ExactScalar(1), [
            ("A", lefts, (wp, wq)),
            ("B", [(50 * wp, 50 * wq)], rest)]).check_partition()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 5), n=st.integers(0, 8),
           edits=st.lists(st.tuples(st.sampled_from(
               ["drop", "copy", "shift", "width"]), st.integers(0, 10 ** 6),
               st.integers(-3, 3)), max_size=3))
    def test_chain_check_matches_sorted_check(self, seed, n, edits):
        # perturb the integer floors of a real system (drop, duplicate or
        # shift a floor, change a tower's width by a few units of the
        # denominator) and compare the two checks on the result
        trace = _random_trace(seed, n)
        _compare_checks(towers(trace, min(n, trace.depth)), edits)

    @settings(max_examples=100, deadline=None)
    @given(make=st.sampled_from([golden_rotation, bounded_type_3iet]),
           n=st.integers(0, 12),
           edits=st.lists(st.tuples(st.sampled_from(
               ["drop", "copy", "shift", "width", "qshift", "qwidth"]),
               st.integers(0, 10 ** 6), st.integers(-3, 3)), max_size=3))
    def test_chain_check_matches_sorted_check_on_quadratic_fields(
            self, make, n, edits):
        # as above on Q(sqrt 5) and Q(sqrt 2), where the floors also move
        # by units of sqrt(d)
        _compare_checks(towers(InductionTrace(make()), n), edits)


def _compare_checks(system, edits):
    """Apply `edits` to the integer floors of `system` and compare
    check_partition with the reference `_sorted_partition` and positive
    widths."""
    specs = [[t.label, list(t.lefts), t.width] for t in system.towers]
    for kind, pick, delta in edits:
        spec = specs[pick % len(specs)]
        lefts = spec[1]
        if kind in ("width", "qwidth"):
            wp, wq = spec[2]
            spec[2] = (wp + delta, wq) if kind == "width" else \
                (wp, wq + delta)
        elif lefts:
            j = pick % len(lefts)
            p, q = lefts[j]
            if kind == "drop":
                del lefts[j]
            elif kind == "copy":
                lefts.insert(j, lefts[j])
            else:
                lefts[j] = (p + delta, q) if kind == "shift" else \
                    (p, q + delta)
    den, field = system.den, system.field
    perturbed = _flat(den, field, system.total, specs)
    want = (_sorted_partition(_floors(perturbed), perturbed.total)
            and all(ExactScalar(F(wp, den), F(wq, den), field) > 0
                    for wp, wq in perturbed.widths))
    assert perturbed.check_partition() == want


class TestReturnTimes:
    def test_depth_zero_returns_one(self):
        trace = InductionTrace(symmetric_3iet())
        for a in "ABC":
            assert return_time_oracle(trace, 0, a) == 1

    def test_golden_matches_column_sums(self):
        trace = InductionTrace(golden_rotation()).extend(10)
        prod = trace.product(0, 10)
        for idx, a in enumerate("AB"):
            measured = return_time_oracle(trace, 10, a)
            assert measured == sum(row[idx] for row in prod)


    @pytest.mark.parametrize("make", [
        lambda: InductionTrace(bounded_type_3iet()).extend(8),
        lambda: InductionTrace(golden_rotation()).extend(8),
        lambda: _random_trace(2, 8)], ids=["sqrt2", "sqrt5", "Q-d5"])
    def test_one_orbit_per_step(self, monkeypatch, make):
        # every label's midpoint on one orbit, moved to each in turn
        built, inner = [], IntegerOrbit.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            inner(self, *args, **kwargs)

        monkeypatch.setattr(IntegerOrbit, "__init__", spy)
        trace = make()
        assert trace.depth == 8
        for n in (4, 8):
            prod = trace.product(0, n)
            for idx, a in enumerate(trace.base.perm.alphabet):
                measured = return_time_oracle(trace, n, a)
                assert measured == sum(row[idx] for row in prod)
        assert len(built) == 2


class TestBalance:
    def test_equal_lengths_fully_balanced(self):
        perm = Permutation(["A", "B", "C"], ["C", "B", "A"])
        trace = InductionTrace(Iet(perm, [F(1, 3)] * 3))
        assert balance_check(trace, 0, 1)

    def test_golden_balanced_nu3(self):
        trace = InductionTrace(golden_rotation()).extend(20)
        for n in range(21):
            assert balance_check(trace, n, 3)

    def test_3iet_step1_nu2(self):
        trace = InductionTrace(symmetric_3iet()).extend(1)
        assert balance_check(trace, 1, 2)


class TestPositivity:
    def test_single_step_not_positive_for_d3(self):
        trace = InductionTrace(symmetric_3iet()).extend(1)
        assert not positivity_check(trace, 0, 1)

    def test_golden_two_step_windows_positive(self):
        trace = InductionTrace(golden_rotation()).extend(12)
        for m in range(11):
            assert positivity_check(trace, m, m + 2)

    def test_identity_window_not_positive(self):
        trace = InductionTrace(golden_rotation()).extend(3)
        assert not positivity_check(trace, 2, 2)


class TestAccelSelection:
    def test_golden_all_steps_lbar_2(self):
        trace = InductionTrace(golden_rotation()).extend(20)
        accel = select_accel_times(trace, 3, lbar_max=4)
        assert accel.times == list(range(1, 21))
        assert accel.lbar == 2

    def test_unbalanced_stretch_skipped(self):
        # near-degenerate rotation: long unbalanced stretch in the middle
        perm = Permutation(["A", "B"], ["B", "A"])
        iet = Iet(perm, [F(499, 1000), F(501, 1000)])
        trace = InductionTrace(iet)
        try:
            trace.extend(40)
        except RVUndefinedError:
            pass
        accel = select_accel_times(trace, 3, lbar_max=6, depth=trace.depth)
        assert len(accel.times) < trace.depth  # something was skipped
        for n in accel.times:
            assert balance_check(trace, n, 3)
        if accel.lbar is not None:
            for i in range(len(accel.times) - accel.lbar):
                assert is_positive(
                    trace.product(accel.times[i], accel.times[i + accel.lbar]))

    def test_empty_trace_empty_selection(self):
        trace = InductionTrace(golden_rotation())
        accel = select_accel_times(trace, 3, lbar_max=3, depth=0)
        assert accel.times == []
        assert accel.lbar is None
        assert accel.diagnostic


class TestHilbert:
    def test_zero_on_equal(self):
        assert hilbert_distance([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]) == 0.0

    def test_spec_values(self):
        d = hilbert_distance([F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)])
        assert d == pytest.approx(math.log(4), rel=1e-12)
        d = hilbert_distance([F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)])
        assert d == pytest.approx(math.log(3), rel=1e-12)

    def test_symmetry_and_projectivity(self):
        u = [F(1, 5), F(3, 10), F(1, 2)]
        v = [F(1, 3), F(1, 3), F(1, 3)]
        assert hilbert_distance(u, v) == pytest.approx(hilbert_distance(v, u))
        assert hilbert_distance(u, [2 * x for x in u]) == 0.0

    def test_contraction_random(self):
        rng = random.Random(7)
        for _ in range(300):
            d = rng.choice([2, 3, 4])
            a = tuple(tuple(rng.randint(0, 3) for _ in range(d))
                      for _ in range(d))
            cols_ok = all(any(a[i][j] for i in range(d)) for j in range(d))
            rows_ok = all(any(row) for row in a)
            if not (cols_ok and rows_ok):
                continue
            u = [F(rng.randint(1, 50)) for _ in range(d)]
            v = [F(rng.randint(1, 50)) for _ in range(d)]
            # compare max/min ratios exactly to dodge float log rounding
            def ratio(p, q):
                r = [Fraction(pi) / Fraction(qi) for pi, qi in zip(p, q)]
                return max(r) / min(r)
            im_u = [sum(a[i][j] * u[j] for j in range(d)) for i in range(d)]
            im_v = [sum(a[i][j] * v[j] for j in range(d)) for i in range(d)]
            assert ratio(im_u, im_v) <= ratio(u, v)
            if is_positive(a) and ratio(u, v) > 1:
                assert ratio(im_u, im_v) < ratio(u, v)


class TestProjectiveDiameter:
    def test_identity_infinite(self):
        assert projective_diameter(mat_identity(3)) == math.inf

    def test_positive_2x2_with_sampling_oracle(self):
        a = ((2, 1), (1, 2))
        diam = projective_diameter(a)
        assert diam == pytest.approx(math.log(4), rel=1e-12)
        rng = random.Random(3)
        sup = 0.0
        for k in range(10 ** 4):
            # bias a share of the samples toward the simplex corners,
            # where the supremum of the image diameter is approached
            if k % 4 == 0:
                s = 10.0 ** -rng.uniform(1, 8)
                t = 10.0 ** -rng.uniform(1, 8)
                lam, mu = [s, 1 - s], [1 - t, t]
            else:
                s, t = rng.random(), rng.random()
                lam, mu = [s, 1 - s], [t, 1 - t]
            if min(lam) < 1e-12 or min(mu) < 1e-12:
                continue
            im_l = [2 * lam[0] + lam[1], lam[0] + 2 * lam[1]]
            im_m = [2 * mu[0] + mu[1], mu[0] + 2 * mu[1]]
            sup = max(sup, hilbert_distance(im_l, im_m))
        assert sup <= diam + 1e-9
        assert sup == pytest.approx(diam, abs=1e-3)

    def test_rank_one_zero_diameter(self):
        assert projective_diameter(((1, 1), (1, 1))) == 0.0

    def test_zero_column_rejected(self):
        with pytest.raises(MatrixDomainError):
            projective_diameter(((1, 0), (1, 0)))

    def test_monotone_under_products(self):
        rng = random.Random(11)
        for _ in range(100):
            d = rng.choice([2, 3])
            a = tuple(tuple(rng.randint(1, 5) for _ in range(d))
                      for _ in range(d))
            b = tuple(tuple(rng.randint(1, 5) for _ in range(d))
                      for _ in range(d))
            dab = projective_diameter(mat_mul(a, b))
            assert dab <= min(projective_diameter(a),
                              projective_diameter(b)) + 1e-9


class TestNuCol:
    def test_constant_matrix(self):
        assert nu_col(((3, 3), (3, 3))) == 1

    def test_spec_example(self):
        assert nu_col(((1, 2), (3, 4))) == 2

    def test_product_bound_random(self):
        rng = random.Random(5)
        for _ in range(1000):
            d = rng.choice([2, 3])
            c = tuple(tuple(rng.randint(0, 4) for _ in range(d))
                      for _ in range(d))
            dm = tuple(tuple(rng.randint(1, 6) for _ in range(d))
                       for _ in range(d))
            if not is_positive(mat_mul(c, dm)):
                continue
            assert nu_col(mat_mul(c, dm)) <= nu_col(dm)

    def test_rejects_nonpositive(self):
        with pytest.raises(MatrixDomainError):
            nu_col(((1, 0), (1, 1)))


class TestJacobian:
    def test_identity_unit_simplex(self):
        assert jacobian(mat_identity(2), [0.5, 0.5]) == pytest.approx(1.0)

    def test_spec_example(self):
        assert jacobian(((2, 1), (1, 2)), [0.5, 0.5]) == pytest.approx(1 / 9)

    def test_distortion_bound_sampled(self):
        rng = random.Random(13)
        for _ in range(20):
            d = rng.choice([2, 3])
            mat = tuple(tuple(rng.randint(1, 6) for _ in range(d))
                        for _ in range(d))
            bound = float(nu_col(mat)) ** d
            vals = []
            for _ in range(500):
                w = [rng.random() + 1e-9 for _ in range(d)]
                s = sum(w)
                vals.append(jacobian(mat, [x / s for x in w]))
            assert max(vals) / min(vals) <= bound * (1 + 1e-9)

    def test_finite_difference_oracle(self):
        # unimodular cocycle products: chart Jacobian det == |D lambda|^-d
        trace = InductionTrace(golden_rotation()).extend(6)
        mat = trace.product(0, 4)
        lam = [0.35, 0.65]
        h = 1e-6

        def chart(x):
            v = [x, 1 - x]
            im = [sum(mat[i][j] * v[j] for j in range(2)) for i in range(2)]
            s = im[0] + im[1]
            return im[0] / s

        numeric = abs(chart(lam[0] + h) - chart(lam[0] - h)) / (2 * h)
        assert numeric == pytest.approx(jacobian(mat, lam), rel=1e-6)

    def test_finite_difference_oracle_3d(self):
        trace = InductionTrace(bounded_type_3iet()).extend(6)
        mat = trace.product(0, 6)
        lam = [0.3, 0.45, 0.25]
        h = 1e-6

        def chart(x, y):
            v = [x, y, 1 - x - y]
            im = [sum(mat[i][j] * v[j] for j in range(3)) for i in range(3)]
            s = sum(im)
            return im[0] / s, im[1] / s

        j00 = (chart(lam[0] + h, lam[1])[0] - chart(lam[0] - h, lam[1])[0]) / (2 * h)
        j01 = (chart(lam[0], lam[1] + h)[0] - chart(lam[0], lam[1] - h)[0]) / (2 * h)
        j10 = (chart(lam[0] + h, lam[1])[1] - chart(lam[0] - h, lam[1])[1]) / (2 * h)
        j11 = (chart(lam[0], lam[1] + h)[1] - chart(lam[0], lam[1] - h)[1]) / (2 * h)
        det = abs(j00 * j11 - j01 * j10)
        assert det == pytest.approx(jacobian(mat, lam), rel=1e-5)


class TestZorich:
    def test_golden_alternating_runs(self):
        from ietflow.rauzy import zorich_times
        trace = InductionTrace(golden_rotation()).extend(10)
        # the golden word alternates, so every step ends a run
        assert zorich_times(trace) == list(range(1, 11))

    def test_run_grouping(self):
        from ietflow.rauzy import zorich_times
        trace = InductionTrace(bounded_type_3iet()).extend(12)
        times = zorich_times(trace)
        word = trace.type_word()
        # each selected time is the end of a maximal same-type run
        for t in times[:-1]:
            assert word[t - 1] != word[t]


class TestIntegerOrbit:
    def test_matches_exact_evaluate(self):
        from ietflow.iet import IntegerOrbit
        for iet in (golden_rotation(), bounded_type_3iet()):
            x = F(13, 97)
            orbit = IntegerOrbit(iet, x)
            ref, step = ExactScalar(x), ReferenceMap(iet)
            for _ in range(200):
                orbit.step_forward()
                ref = step.evaluate(ref)
                assert orbit.value() == ref
            for _ in range(400):
                orbit.step_backward()
                ref = step.evaluate_inverse(ref)
                assert orbit.value() == ref

    def test_distance_comparisons(self):
        from ietflow.iet import IntegerOrbit
        iet = golden_rotation()
        orbit = IntegerOrbit(iet, F(3, 7))
        cut = orbit.pair_of(iet.left("B"))
        d = orbit.abs_distance(cut)
        exact = abs(ExactScalar(F(3, 7)) - iet.left("B"))
        assert orbit.to_float(d) == pytest.approx(float(exact))

    def test_length_decay_along_positive_windows(self):
        # |I^(n_l)| >= d^k |I^(n_{l + k lbar})| along the positive windows
        from ietflow.rauzy import select_accel_times
        trace = InductionTrace(bounded_type_3iet()).extend(30)
        accel = select_accel_times(trace, 4, lbar_max=6)
        d = 3
        lbar = accel.lbar
        for ell in range(1, accel.count - 3 * lbar):
            for k in (1, 2, 3):
                lhs = accel.interval_length(ell)
                rhs = accel.interval_length(ell + k * lbar) * (d ** k)
                assert not lhs < rhs


class TestBoundedTypeFixture:
    def test_periodic_word(self):
        trace = InductionTrace(bounded_type_3iet()).extend(18)
        assert trace.type_word() == "tbtbtb" * 3

    def test_self_similar(self):
        iet = bounded_type_3iet()
        trace = InductionTrace(iet).extend(6)
        after = trace.iet(6)
        rho = ExactScalar(3, 2, 2)
        assert after.perm.top == iet.perm.top
        assert after.perm.bottom == iet.perm.bottom
        assert tuple(v * rho for v in after.lengths) == iet.lengths

    def test_loop_matrix(self):
        from ietflow.fixtures import BOUNDED3_LOOP_MATRIX
        trace = InductionTrace(bounded_type_3iet()).extend(6)
        assert trace.product(0, 6) == BOUNDED3_LOOP_MATRIX

    def test_norms(self):
        assert col_norm(((1, 1, 1), (2, 4, 1), (2, 3, 2))) == 8
