"""Workload determinism and traced-run coverage.

The traced-run tests start the benchmark as a subprocess from the checkout
root, so they exercise the command exactly as it is run.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that must be nonzero on the workload named for them
MOVES_ON = {
    "sr_witness": [
        "iet.int_steps", "iet.int_step_us", "ratner.sample_tries",
        "ratner.sample_accept_ratio", "ratner.good_region_s",
        "ratner.pair_test_self_s", "ratner.walk_steps",
        "ratner.second_attempt_ratio", "ratner.verified_ratio",
        "ratner.verify_hp_self_s", "ratner.hp_log_calls",
        "ratner.hp_us_per_log", "kernels.min_orbit_calls",
        "kernels.min_orbit_s", "kernels.min_orbit_us_per_step"],
    "exact_scan": [
        "exact.ops", "exact.self_s", "iet.exact_steps", "iet.exact_step_us",
        "iet.keane_s", "iet.first_return_s", "roof.evals", "roof.eval_us",
        "roof.cursor_self_s", "roof.flow_s", "birkhoff.sigma_set_s",
        "birkhoff.approach_s", "birkhoff.growth_self_s",
        "birkhoff.excluded_ratio", "intervals.preimages",
        "intervals.pullback_s", "intervals.max_components",
        "ratner.forbac_self_s"],
    "mix_probe": [
        "ratner.mix_self_s", "ratner.sample_flow_space_s",
        "kernels.flow_points_s", "kernels.flow_jumps", "kernels.ns_per_jump",
        "kernels.roof_values_s"],
    "induction": [
        "exact.ops", "exact.self_s", "rauzy.rv_steps", "rauzy.extend_s",
        "rauzy.towers_s", "rauzy.return_time_s", "rauzy.accel_s",
        "zippered.backward_steps", "zippered.backward_s",
        "diophantine.kset_calls", "diophantine.kset_s",
        "diophantine.dc_report_s", "cli.self_s"],
}
COUNTS = ("exact.ops", "iet.exact_steps", "iet.int_steps", "rauzy.rv_steps",
          "intervals.preimages", "ratner.hp_log_calls", "kernels.flow_jumps")


def _fingerprint(name, seed, count):
    wl = workloads.make(name)
    wl.setup(seed, os.path.join(ROOT, ".perfbench_out"))
    try:
        rejections = run._rejections()
        items = [wl.item(i) for i in range(1, count + 1)]
        outs = [run._run_item(wl, item, rejections) for item in items]
        assert run._failures(wl, items, outs, set()) == []
        return run.fingerprint(outs)
    finally:
        wl.close()


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fingerprint_repeats_and_follows_the_seed(name):
    count = 3
    first = _fingerprint(name, 1, count)
    assert _fingerprint(name, 1, count) == first
    assert _fingerprint(name, 2, count) != first


def _traced(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         name, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_covers_its_layers_and_repeats(name):
    import layers

    first = _traced(name, 3)
    assert set(first) == {metric for metric, _ in layers.PER_LAYER}
    zero = [m for m in MOVES_ON[name] if not first[m] > 0]
    assert zero == [], "zero on %s: %s" % (name, zero)
    assert first["trace.overhead_ratio"] > 0 and first["process.cpu_s"] > 0
    second = _traced(name, 3)
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}
