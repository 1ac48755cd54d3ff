"""ietflow benchmark: one seeded, closed-loop workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sr_witness --seed 1 --seconds 20 \
        --trace 0

Workloads: sr_witness, exact_scan, mix_probe, induction (see
workloads.py).  The package is imported from ./src; nothing is built.

--trace 0 measures the end-to-end metrics.  setup_s is the median over
SETUP_REPEATS fresh processes, each timed from its start to the end of its
set-up (imports, fixture traces, inputs, one untimed warm-up item).  Then
one caller runs whole cycles of distinct items back to back, closed loop,
for --seconds.  The host-speed reference of calib.py runs between items,
and every time reported (item latencies and set-up times) is scaled to the
reference's nominal speed, because the shared host's own speed drifts by
more than the benchmark's bounds.  An item's latency is timed around the
package calls only; throughput is items / sum of latencies, item_p50_s
their median and item_tail_s the latency at the highest percentile with
at least ten items beyond it.  Outputs are checked after the timed phase,
and the first cycle of items is run again and must repeat its outputs.

--trace 1 measures the per-layer metrics.  It runs a fixed number of items
untraced, then wraps the package (tracer.py, layers.py), sets up again and
runs the same items traced.  Counts therefore repeat exactly at a fixed
seed; spans are written to .perfbench_out/ at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

END_TO_END = (("throughput", "items/s"), ("item_p50_s", "s"),
              ("item_tail_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Import ietflow from ./src of the current checkout, or exit."""
    if not os.path.isfile(os.path.join(SRC, "ietflow", "__init__.py")):
        sys.exit("perfbench: no ietflow package under %s; run from the root "
                 "of a checkout" % SRC)
    sys.path.insert(0, SRC)
    import ietflow

    if not os.path.abspath(ietflow.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported ietflow from %s, not from %s"
                 % (ietflow.__file__, SRC))


def _rejections():
    from ietflow.birkhoff import ExcludedPointError
    from ietflow.ratner import WitnessPreconditionError
    return (ExcludedPointError, WitnessPreconditionError)


def _run_item(wl, item, rejections):
    try:
        return wl.run(item)
    except rejections as exc:
        return dict(fp=["rejected", type(exc).__name__, str(exc)], num={},
                    rejected=True)
    except Exception as exc:          # a failed item, reported below
        return dict(fp=["error", repr(exc)], num={}, error=repr(exc))


def _set_up(name, seed):
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(name)
    wl.setup(seed, OUT_DIR)
    _run_item(wl, wl.item(0), _rejections())          # warm-up, untimed
    return wl


def fingerprint(outs) -> str:
    """Hash of the exact and discrete outputs, in item order."""
    digest = hashlib.sha256()
    for out in outs:
        digest.update(json.dumps(out["fp"], default=str).encode())
    return digest.hexdigest()[:16]


def _failures(wl, items, outs, changed) -> list:
    """One message per item whose output failed its check or changed
    between runs of the item (`changed` holds their indices)."""
    failures = []
    for k, (item, out) in enumerate(zip(items, outs)):
        if "error" in out:
            failures.append(out["error"])
        elif k in changed:
            failures.append("output changed between runs of one item")
        elif not out.get("rejected"):
            msg = wl.check(item, out)
            if msg is not None:
                failures.append(msg)
    return failures


def _measure_setup(args) -> list:
    """Wall time from spawning a fresh process to the end of its set-up,
    scaled to the nominal host speed measured just before and after with
    every reference part (set-up is imports as much as computation)."""
    import calib

    ref = calib.Reference(calib.PARTS)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        refs = [ref() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != "READY":
            sys.exit("perfbench: set-up process failed (exit %s)"
                     % proc.returncode)
        refs += [ref() for _ in range(3)]
        times.append(ready * ref.speed(refs))
    return times


def _timed(args, wl):
    """Whole cycles of distinct items for --seconds, one after the other.

    The host-speed reference runs before every item and after the last,
    so item k lies between reference runs k and k + 1 (Reference.scaled).
    """
    import calib
    from stats import tail

    rejections = _rejections()
    period = len(wl.cycle)
    ref = calib.Reference(wl.reference)
    items, outs, lat, refs = [], [], [], [ref()]
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 1
    while True:
        item = wl.item(i)
        t0 = time.perf_counter()
        out = _run_item(wl, item, rejections)
        lat.append(time.perf_counter() - t0)
        refs.append(ref())
        items.append(item)
        outs.append(out)
        if i % period == 0 and time.perf_counter() >= deadline:
            break
        i += 1
    wall = time.perf_counter() - start
    changed = {k for k in range(period)
               if _run_item(wl, items[k], rejections)["fp"] != outs[k]["fp"]}
    scaled = ref.scaled(lat, refs)
    tail_s, pct, n = tail(scaled)
    metrics = dict(throughput=n / sum(scaled), item_p50_s=median(scaled),
                   item_tail_s=tail_s,
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    notes = dict(
        throughput="%d items in %d cycles, %.1f s wall; unscaled %.4g "
        "items/s, host at %.2fx nominal speed" % (
            n, n // period, wall, n / sum(lat),
            ref.speed(refs)),
        item_tail_s="p%.1f: %d of %d items beyond" % (pct, min(10, n - 1),
                                                       n))
    return items, outs, changed, metrics, notes


def _traced(args, wl):
    import layers
    import workloads
    from tracer import Tracer

    rejections = _rejections()
    items = [wl.item(i) for i in range(1, wl.trace_items + 1)]
    start = time.perf_counter()
    plain = [_run_item(wl, item, rejections) for item in items]
    untraced_s = time.perf_counter() - start

    tr = Tracer()
    layers.install(tr)
    cpu0 = time.process_time()
    try:
        tr.item = "setup"
        traced_wl = workloads.make(args.workload)
        traced_wl.setup(args.seed, OUT_DIR)
        _run_item(traced_wl, traced_wl.item(0), rejections)
        start = time.perf_counter()
        outs = []
        for i, item in enumerate(items, 1):
            tr.item = i
            outs.append(_run_item(traced_wl, item, rejections))
        traced_s = time.perf_counter() - start
    finally:
        tr.uninstall()
    cpu_s = time.process_time() - cpu0
    traced_wl.close()
    metrics = layers.derive(tr, cpu_s, traced_s / untraced_s)
    changed = {k for k, (a, b) in enumerate(zip(plain, outs))
               if a["fp"] != b["fp"]}
    return items, outs, changed, metrics, dict(spans=tr.spans)


def _compare_with_baseline(env):
    """Warn when the kernel or high-precision backend differs from the
    committed baseline's, whose numbers then do not compare."""
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)["env"]
    for key in ("kernel", "hp_backend"):
        if base.get(key) != env[key]:
            print("perfbench: warning: %s=%s, but baseline.json was measured "
                  "with %s=%s; do not compare the two"
                  % (key, env[key], key, base.get(key)), file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set and label iteration orders feed the exact operation counts
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    _import_package()

    if args.setup_only:
        _set_up(args.workload, args.seed).close()
        print("READY", flush=True)
        return 0

    import layers
    from stats import environment

    env = environment(ROOT)
    _compare_with_baseline(env)
    setups = [] if args.trace else _measure_setup(args)
    wl = _set_up(args.workload, args.seed)
    try:
        if args.trace:
            items, outs, changed, metrics, extra = _traced(args, wl)
            units = dict(layers.PER_LAYER)
        else:
            items, outs, changed, metrics, extra = _timed(args, wl)
            metrics["setup_s"] = median(setups)
            extra["setup_s"] = "median of %d processes: %s" % (
                len(setups), " ".join("%.3f" % s for s in setups))
            units = dict(END_TO_END)
        failures = _failures(wl, items, outs, changed)
        fp = fingerprint(outs)
    finally:
        wl.close()

    print("perfbench %s seed=%d trace=%d %s" % (
        args.workload, args.seed, args.trace,
        " ".join("%s=%s" % kv for kv in env.items())))
    for name, value in metrics.items():
        note = extra.get(name)
        print("  %-32s %14.6g %-8s%s" % (name, value, units[name],
                                         "  (%s)" % note if note else ""))
    print("  %-32s %14.6g %-8s  (%d of %d items)" % (
        "failed_ratio", len(failures) / len(outs), "fraction",
        len(failures), len(outs)))
    print("  %-32s %14s" % ("fingerprint", fp))
    for msg in failures[:5]:
        print("perfbench: failed item: %s" % msg, file=sys.stderr)
    if args.trace:
        path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (args.workload,
                                                           args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(env=env, metrics=metrics, fingerprint=fp,
                           spans=extra["spans"]), fh)
    print(json.dumps(dict(
        correct=not failures, attempted=len(outs), failed=len(failures),
        metrics={k: dict(value=v, unit=units[k])
                 for k, v in metrics.items()})))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
