"""Benchmark: compiled kernels vs the numpy fallback, and exact scalar ops.

Times the hot loops (base-map iteration, Birkhoff sums of the roof
derivative, roof values, the special-flow advance in both directions,
the closest approach of one orbit to the endpoints) on the golden
asymmetric-log flow and prints a table with the speedup, then the cost
of one rational and one Q(sqrt 5) ExactScalar `<`, `==`, `+`, `*`,
`hash` and `inverse` in microseconds, then the cost of the induction
calls (Rohlin towers, their partition check, one `rv towers` CLI call and
the selection of accelerated times) in milliseconds.  Run from the
repository root:

    python3 benchmarks/bench_kernels.py [--samples N]
"""

import argparse
import contextlib
import io
import os
import random
import sys
import time
import timeit
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from ietflow import cli, kernels
from ietflow.exact import ExactScalar
from ietflow.fixtures import asymmetric_log_roof, golden_rotation
from ietflow.iet import Iet, Permutation
from ietflow.rauzy import InductionTrace, select_accel_times, towers


def timed(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def exact_ops(number=20000):
    """Print the best-of-5 cost per op of ExactScalar <, ==, +, *, hash and
    inverse."""
    operands = {
        "rational": (ExactScalar(Fraction(12345, 67891)),
                     ExactScalar(Fraction(2345, 6789))),
        "Q(sqrt5)": (ExactScalar(Fraction(-1, 2), Fraction(1, 2), 5),
                     ExactScalar(Fraction(3, 7), Fraction(-1, 5), 5)),
    }
    ops = [("<", lambda x, y: x < y), ("==", lambda x, y: x == y),
           ("+", lambda x, y: x + y), ("*", lambda x, y: x * y),
           ("hash", lambda x, y: hash(x)),
           ("inverse", lambda x, y: x.inverse())]
    print("\nexact scalar ops [us per op]")
    print("%-10s" % "" + "".join("%10s" % name for name, _ in ops))
    for label, (x, y) in operands.items():
        row = []
        for _, op in ops:
            best = min(timeit.repeat(lambda: op(x, y), number=number,
                                     repeat=5))
            row.append(best / number * 1e6)
        print("%-10s" % label + "".join("%10.2f" % t for t in row))


def _random_iet(seed: int, d: int) -> Iet:
    """An irreducible d-IET with random lengths over Q, as the induction
    benchmark workload draws them."""
    rng = random.Random(seed)
    alphabet = "ABCDE"[:d]
    bottom = list(alphabet)
    while True:
        rng.shuffle(bottom)
        perm = Permutation(alphabet, bottom)
        if perm.irreducible:
            break
    weights = [rng.randrange(1, 10 ** 6) for _ in range(d)]
    return Iet(perm, [Fraction(w, sum(weights)) for w in weights])


def induction_ops(number=20):
    """Print the best-of-5 cost per call of towers at step 12, the
    partition check of that system, one `rv towers --at 10` CLI call and
    select_accel_times (fresh trace, extension included)."""
    gold = golden_rotation()
    rand = _random_iet(5, 5)
    gold_trace = InductionTrace(gold).extend(12)
    rand_trace = InductionTrace(rand).extend(12)
    system = towers(gold_trace, 12)

    def cli_towers():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["rv", "towers", "--at", "10"])

    rows = [
        ("towers golden n=12", lambda: towers(gold_trace, 12)),
        ("towers random d=5 n=12", lambda: towers(rand_trace, 12)),
        ("check_partition golden n=12", system.check_partition),
        ("cli rv towers --at 10", cli_towers),
        ("select_accel_times golden 46", lambda: select_accel_times(
            InductionTrace(gold).extend(46), 3, lbar_max=4)),
        ("select_accel_times random d=5 25", lambda: select_accel_times(
            InductionTrace(rand).extend(25), 3, lbar_max=4)),
    ]
    cli_towers()        # the CLI builds its parser on the first call
    print("\ninduction calls [ms per call]")
    for name, fn in rows:
        best = min(timeit.repeat(fn, number=number, repeat=5))
        print("%-34s %10.3f" % (name, best / number * 1e3))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=200000)
    args = parser.parse_args()

    iet = golden_rotation()
    spec = asymmetric_log_roof(iet)
    tables = kernels.float_tables(iet, spec)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.001, 0.999, args.samples)
    y = rng.uniform(0.0, 0.9, args.samples)
    endpoints = np.array(sorted({float(s) for s in iet.singular_points()}))

    fallback = kernels.load_fallback()
    compiled = kernels.load_compiled()
    if compiled is None:
        print("compiled kernels unavailable; timing the numpy fallback only")
    modules = [("numpy", fallback)] + ([("cython", compiled)]
                                       if compiled else [])

    workloads = [
        ("iterate x200", lambda mod: kernels.iet_iterate(
            tables, x, 200, module=mod)),
        ("birkhoff f' r=200", lambda mod: kernels.birkhoff_sums(
            tables, x, 200, derivative=True, module=mod)),
        ("roof values", lambda mod: kernels.roof_values(
            tables, x, module=mod)),
        ("flow t=50", lambda mod: kernels.flow_points(
            tables, x, y, 50.0, module=mod)),
        ("flow t=-200", lambda mod: kernels.flow_points(
            tables, x, y, -200.0, module=mod)),
        ("min distance n=1e5", lambda mod: kernels.min_orbit_distance(
            tables, 0.123, 10 ** 5, endpoints, module=mod)),
    ]

    print("%-20s %12s %12s %9s" % ("workload", "numpy [s]", "cython [s]",
                                   "speedup"))
    for name, fn in workloads:
        times = {}
        for label, mod in modules:
            times[label] = timed(lambda m=mod: fn(m))
        if "cython" in times:
            print("%-20s %12.3f %12.3f %8.1fx"
                  % (name, times["numpy"], times["cython"],
                     times["numpy"] / times["cython"]))
        else:
            print("%-20s %12.3f %12s %9s" % (name, times["numpy"], "-", "-"))

    # correctness spot check between the two implementations
    if compiled is not None:
        a = kernels.birkhoff_sums(tables, x[:1000], 100, derivative=True,
                                  module=compiled)
        b = kernels.birkhoff_sums(tables, x[:1000], 100, derivative=True,
                                  module=fallback)
        err = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)))
        print("max relative disagreement (r=100 derivative sums): %.2e" % err)

    exact_ops()
    induction_ops()


if __name__ == "__main__":
    main()
