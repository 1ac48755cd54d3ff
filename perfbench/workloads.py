"""The four benchmark workloads.

Each workload is a closed loop with one caller.  Item i is built from
(seed, i) alone, so the same seed always yields the same items, and the
kind of item i follows a fixed cycle, so every run sees the same mix of
item kinds whatever the seed.  `run` calls the package and returns a
compact output; `check` compares that output with a reference computed by
another code path (or with an invariant the paper guarantees) and is never
timed.

Outputs are split into `fp` (exact and discrete values, hashed into the
run's fingerprint) and `num` (floats, checked against the tolerances
stated next to each check).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

F = Fraction

WORKLOADS = ("sr_witness", "exact_scan", "mix_probe", "induction")

EPS = 0.2                  # witness epsilon (criterion-10 configuration)
GROWTH_EPS = 0.39          # derivative-growth tolerance, eps^2 ~ 0.15
SUM_RTOL = 1e-6            # float sums: exact-orbit reference, relative
FLOW_ATOL = 1e-9           # flow round trip: height error per unit time
MC_SIGMAS = 5.0            # Monte-Carlo checks: allowed standard errors


def item_rng(seed: int, i: int) -> random.Random:
    return random.Random("%d:%d" % (seed, i))


def _accel_fixtures():
    """name -> (accel, spec, params) for the golden rotation over
    Q(sqrt 5) and the bounded-type 3-IET over Q(sqrt 2)."""
    from ietflow import diophantine, fixtures, rauzy

    gold = rauzy.select_accel_times(
        rauzy.InductionTrace(fixtures.golden_rotation()).extend(46), 3,
        lbar_max=4)
    b3 = rauzy.select_accel_times(
        rauzy.InductionTrace(fixtures.bounded_type_3iet()).extend(40), 4,
        lbar_max=6)
    out = {}
    for name, accel, extra in (("golden", gold, {}),
                               ("bounded3", b3, dict(nu=4, d=3,
                                                     lbar=b3.lbar))):
        spec = fixtures.asymmetric_log_roof(accel.trace.base)
        params = diophantine.validate_params(1.01, 0.995, 0.9, 0.992,
                                             **extra)
        out[name] = (accel, spec, params)
    return out


def _rand_point(rng, lo=F(1, 40), hi=F(39, 40), den=10 ** 6) -> F:
    return F(rng.randrange(int(lo * den) + 1, int(hi * den)), den)


class Workload:
    name = ""
    why = ""
    cycle: tuple = ()
    trace_items = 0       # items in a traced run (a fixed count)
    # parts of the host-speed reference (calib.py) whose speed follows
    # this workload's items on a shared host
    reference = ("ints", "fractions", "logs", "arrays")

    def setup(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def slot(self, i: int):
        return self.cycle[i % len(self.cycle)]

    def item(self, i: int):
        raise NotImplementedError

    def run(self, item) -> dict:
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sr_witness
# ---------------------------------------------------------------------------

class SrWitness(Workload):
    name = "sr_witness"
    why = ("SR pair test plus high-precision re-verification: scalar float "
           "kernel, mpmath logs and IntegerOrbit, no ExactScalar orbit step")
    # (fixture, gap).  Cost per item grows ~1/gap and is ~2.5x higher on
    # the golden flow, so golden 3e-5 and bounded3 1e-5 cost about the same
    # (golden 1e-5, at 0.5-0.8 s a pair, left too few pairs per run for a
    # steady median).  Three of the four slots are those two kinds, so the
    # median and the tail fall inside one cluster; the short cycle keeps
    # the item count per run from jumping.  Item 0, the warm-up, is light.
    cycle = (("golden", "1/10000"), ("bounded3", "1/100000"),
             ("golden", "3/100000"), ("bounded3", "1/100000"))
    trace_items = 24
    pool = 64
    reference = ("logs",) * 4

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        from ietflow import ratner

        self.fix = {}
        for name, (accel, spec, params) in _accel_fixtures().items():
            cfg = ratner.WitnessConfig(epsilon=EPS, N=10, params=params,
                                       seed=0, window_len=0)
            region = ratner.GoodRegion(accel, spec, cfg)
            self.fix[name] = (accel, spec, cfg, region)
        # one pool of good pairs per cycle position
        self.pairs = []
        for pos, (name, gap) in enumerate(self.cycle):
            accel, spec, cfg, region = self.fix[name]
            cfg_pos = ratner.WitnessConfig(
                epsilon=EPS, N=10, params=cfg.params,
                seed=item_rng(seed, -1 - pos).randrange(2 ** 31),
                window_len=0)
            pairs, _ = ratner.sample_good_pairs(accel, spec, cfg_pos,
                                                self.pool, F(gap),
                                                good_region=region)
            self.pairs.append(pairs)

    def item(self, i):
        pos = i % len(self.cycle)
        name, gap = self.cycle[pos]
        x, y = self.pairs[pos][(i // len(self.cycle)) % self.pool]
        return dict(fixture=name, gap=gap, x=x, y=y)

    def run(self, item):
        from ietflow import ratner

        accel, spec, cfg, region = self.fix[item["fixture"]]
        res = ratner.sr_pair_test(accel, spec, cfg, item["x"], item["y"],
                                  good_region=region)
        hp = None
        if res.verdict == "verified":
            hp = ratner.verify_witness_high_precision(accel.trace.base, spec,
                                                      res, cfg.epsilon)
        return dict(fp=[item["fixture"], item["gap"], item["x"].to_string(),
                        res.verdict, res.direction, res.p, res.M, res.L,
                        res.case_in_k_set, len(res.attempts), res.kappa_ok,
                        hp],
                    num=dict(max_dev=res.max_deviation,
                             max_sep=res.max_separation))

    def check(self, item, out):
        (_, _, _, verdict, direction, p, M, L, _, attempts, kappa_ok,
         hp) = out["fp"]
        dev, sep = out["num"]["max_dev"], out["num"]["max_sep"]
        if L / M < EPS ** 5 or kappa_ok != (M >= 10 and L >= 10):
            return "window M=%d L=%d inconsistent with kappa" % (M, L)
        if attempts not in (1, 2):
            return "%d attempts" % attempts
        if verdict == "verified":
            if p not in (-1, 1) or direction not in ("forward", "backward"):
                return "verified pair with p=%r direction=%r" % (p, direction)
            if not (dev < EPS and sep < EPS):
                return "verified pair with deviation %g separation %g" % (
                    dev, sep)
            if hp is not True:
                return "high-precision re-verification rejected the pair"
        elif verdict == "failed":
            if hp is not None or (dev < EPS and sep < EPS):
                return "failed pair inside both realignment bounds"
        else:
            return "unknown verdict %r" % verdict
        return None


# ---------------------------------------------------------------------------
# exact_scan
# ---------------------------------------------------------------------------

def _orbit_min_pairs(iet, x, n):
    """Reference for forbac_scan on IntegerOrbit: exact min distance of the
    forward (n > 0) or backward (n < 0) orbit segment to the endpoints."""
    from ietflow.iet import IntegerOrbit

    orbit = IntegerOrbit(iet, x)
    pts = sorted(set(iet.singular_points()) |
                 {iet.right(a) for a in iet.perm.alphabet})
    pairs = [orbit.pair_of(s) for s in pts]
    best = None
    for _ in range(abs(n)):
        if n < 0:
            orbit.step_backward()
        for s in pairs:
            d = orbit.abs_distance(s)
            if best is None or orbit.pair_less(d, best):
                best = d
        if n > 0:
            orbit.step_forward()
    return orbit, best


def _growth_reference(iet, spec, x, r):
    """S_r(f')(x) and the closest approaches U, V on IntegerOrbit."""
    from ietflow.iet import IntegerOrbit

    orbit = IntegerOrbit(iet, x)
    top = iet.perm.top
    lefts = [orbit.pair_of(iet.left(a)) for a in top]
    rights = [orbit.pair_of(iet.right(a)) for a in top]
    all_l = [orbit.pair_of(iet.left(a)) for a in iet.perm.alphabet]
    all_r = [orbit.pair_of(iet.right(a)) for a in iet.perm.alphabet]
    cp = [float(spec.cplus[a]) for a in top]
    cm = [float(spec.cminus[a]) for a in top]
    deriv = 0.0
    best_u = best_v = None
    for _ in range(r):
        for s in all_l:
            if orbit._sign(orbit.p - s[0], orbit.q - s[1]) > 0:
                d = orbit.abs_distance(s)
                if best_u is None or orbit.pair_less(d, best_u):
                    best_u = d
        for s in all_r:
            if orbit._sign(orbit.p - s[0], orbit.q - s[1]) < 0:
                d = orbit.abs_distance(s)
                if best_v is None or orbit.pair_less(d, best_v):
                    best_v = d
        idx = orbit.interval_index()
        if cm[idx]:
            deriv += cm[idx] / orbit.to_float(orbit.abs_distance(rights[idx]))
        if cp[idx]:
            deriv -= cp[idx] / orbit.to_float(orbit.abs_distance(lefts[idx]))
        orbit.step_forward()
    u = 1.0 / orbit.to_float(best_u) if best_u is not None else 0.0
    v = 1.0 / orbit.to_float(best_v) if best_v is not None else 0.0
    return deriv, u, v


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class ExactScan(Workload):
    name = "exact_scan"
    why = ("exact ExactScalar orbit walkers (forbac, growth cursor, flow, "
           "Keane, first return) and sigma-set interval unions")
    # (kind, fixture, size): the sizes make every kind cost about the same
    # (0.1-0.2 s here), so the median and the tail sit inside one cluster.
    # Sizes are forbac: ell; growth, excluded: r; flow: t; keane: depth;
    # first_return: induction step n.  "excluded" draws x inside the
    # sigma-set, so derivative_growth_check must reject it.
    cycle = (("forbac", "golden", 11), ("growth", "bounded3", 150),
             ("flow", "golden", 1000.0), ("keane", "bounded3", 600),
             ("first_return", "golden", 10), ("excluded", "bounded3", 150),
             ("forbac", "bounded3", 15), ("growth", "golden", 200),
             ("flow", "bounded3", 750.0), ("keane", "golden", 1500),
             ("first_return", "bounded3", 16), ("excluded", "golden", 200))
    trace_items = 24
    points = 12             # first-return points per item
    reference = ("logs",) * 4

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        from ietflow import birkhoff

        self.fix = _accel_fixtures()
        self.sigma = {}
        for kind, name, r in self.cycle:
            if kind in ("growth", "excluded") and name not in self.sigma:
                accel = self.fix[name][0]
                self.sigma[name] = birkhoff.sigma_set(
                    accel, birkhoff.locate_scale(accel, r), 0.995)

    def item(self, i):
        kind, name, size = self.slot(i)
        rng = item_rng(self.seed, i)
        it = dict(kind=kind, fixture=name, size=size)
        if kind == "excluded":
            a, b = rng.choice(self.sigma[name].union.parts)
            it.update(x=a + (b - a) * F(rng.randrange(1, 1000), 1000))
        elif kind == "first_return":
            it.update(u=[F(rng.randrange(1, 10 ** 6), 10 ** 6)
                         for _ in range(self.points)])
        elif kind != "keane":
            x = _rand_point(rng)
            while kind == "growth" and self.sigma[name].contains(x):
                x = _rand_point(rng)
            it.update(x=x)
        return it

    def run(self, item):
        from ietflow import birkhoff, iet as iet_mod, ratner, roof
        from ietflow.exact import ExactScalar

        accel, spec, params = self.fix[item["fixture"]]
        iet = accel.trace.base
        kind, size = item["kind"], item["size"]
        head = [kind, item["fixture"], size, str(item.get("x"))]
        if kind == "forbac":
            rep = ratner.forbac_scan(accel, item["x"], size, params,
                                     epsilon=EPS)
            return dict(fp=head + [rep.horizon, rep.which_holds,
                                   rep.forward_min.to_string(),
                                   rep.backward_min.to_string()], num={})
        if kind in ("growth", "excluded"):
            try:
                rep = birkhoff.derivative_growth_check(
                    accel, spec, item["x"], size, GROWTH_EPS)
            except birkhoff.ExcludedPointError as exc:
                return dict(fp=head + ["excluded", exc.witness[0].to_string(),
                                       exc.witness[1].to_string()], num={})
            return dict(fp=head + [rep.ell, rep.lower_ok, rep.upper_ok,
                                   rep.used_UV_slack],
                        num=dict(sum=rep.sum_value, U=rep.U, V=rep.V))
        if kind == "flow":
            start = roof.FlowPoint(ExactScalar(item["x"]), 0.0)
            end = roof.flow(iet, spec, start, size)
            return dict(fp=head + [end.x.to_string()], num=dict(y=end.y))
        if kind == "keane":
            rep = iet_mod.keane_check(iet, size)
            return dict(fp=head + [rep.satisfied_to_depth], num={})
        cut = accel.trace.interval_length(size)
        hit = iet_mod.first_return_map(iet, cut)
        rows = []
        for u in item["u"]:
            y, k = hit(cut * u)
            rows.append([y.to_string(), k])
        return dict(fp=head + [rows], num={})

    def check(self, item, out):
        from ietflow import roof
        from ietflow.exact import ExactScalar

        accel, spec, params = self.fix[item["fixture"]]
        iet = accel.trace.base
        kind, size = item["kind"], item["size"]
        fp = out["fp"][4:]
        if kind == "forbac":
            if fp[1] == "neither":
                return "backward-or-forward dichotomy failed"
            for pos, n in ((2, fp[0]), (3, -fp[0])):
                orbit, best = _orbit_min_pairs(iet, item["x"], n)
                if orbit.pair_of(ExactScalar.parse(fp[pos])) != best:
                    return "exact minimum differs from the IntegerOrbit scan"
            return None
        if kind == "excluded":
            if fp[0] != "excluded":
                return "point inside Sigma_l^+ was not rejected"
            return None
        if kind == "growth":
            if fp[0] == "excluded":
                return "point outside Sigma_l^+ was rejected"
            deriv, u, v = _growth_reference(iet, spec, item["x"], size)
            num = out["num"]
            for key, ref in (("sum", deriv), ("U", u), ("V", v)):
                if not _close(num[key], ref, SUM_RTOL):
                    return "%s %r differs from reference %r" % (key, num[key],
                                                               ref)
            return None
        if kind == "flow":
            x0 = ExactScalar(item["x"])
            half = roof.eval_roof(iet, spec, x0).value / 2
            end = roof.FlowPoint(ExactScalar.parse(fp[0]), out["num"]["y"])
            back = roof.flow(iet, spec, end, -size + half)
            if back.x != x0 or abs(back.y - half) > FLOW_ATOL * (size + 1):
                return "flow round trip missed the start point"
            return None
        if kind == "keane":
            return None if fp[0] else "Keane collision on a bounded-type IET"
        ind = accel.trace.iet(size)
        heights = accel.trace.heights(size)
        for u, (y, k) in zip(item["u"], fp[0]):
            x = ind.total * u
            label = ind.interval_of(x)
            want = [ind.evaluate(x).to_string(),
                    heights[iet.perm.alphabet.index(label)]]
            if [y, k] != want:
                return "first return differs from the induced IET"
        return None


# ---------------------------------------------------------------------------
# mix_probe
# ---------------------------------------------------------------------------

class MixProbe(Workload):
    name = "mix_probe"
    why = ("vectorised float kernels (flow_points, roof_values, "
           "sample_flow_space) on long arrays, no exact arithmetic")
    # (kind, t, samples): samples fall as |t| grows so that every item
    # costs about the same (~0.17 s here); t = 0 checks the analytic
    # variance and "preserve" checks that the flow preserves the measure
    cycle = (("corr", -200.0, 20000), ("preserve", 50.0, 50000),
             ("corr", 200.0, 16000), ("corr", 5.0, 150000),
             ("variance", 0.0, 270000), ("corr", 50.0, 50000),
             ("triple", 5.0, 70000), ("preserve", -200.0, 20000),
             ("corr", -200.0, 20000), ("corr", 200.0, 16000))
    trace_items = 20

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        from ietflow import fixtures, ratner, roof

        self.iet = fixtures.golden_rotation()
        self.spec = fixtures.asymmetric_log_roof(self.iet)
        self.area = roof.roof_area(self.iet, self.spec)
        self.g = ratner.BumpObservable(x0=0.5, wx=0.3, y0=0.5, wy=0.49)
        self.h = ratner.BumpObservable(x0=0.3, wx=0.12, y0=0.45, wy=0.3)
        self.one = ratner.ConstantObservable(1.0)

    def item(self, i):
        kind, t, n = self.slot(i)
        return dict(kind=kind, t=t, n=n,
                    seed=item_rng(self.seed, i).randrange(2 ** 32))

    def run(self, item):
        from ietflow import ratner

        kind, t, n, seed = item["kind"], item["t"], item["n"], item["seed"]
        if kind == "triple":
            est = ratner.triple_mixing_probe(self.iet, self.spec, self.g,
                                             self.h, self.g, t, 4 * t, n,
                                             seed=seed)
        else:
            h = self.one if kind == "preserve" else (
                self.g if kind == "variance" else self.h)
            est = ratner.mixing_correlation(self.iet, self.spec, self.g, h,
                                            t, n, seed=seed)
        return dict(fp=[kind, t, n, seed, est.n, est.t],
                    num=dict(value=est.value, stderr=est.stderr))

    def _var(self, obs):
        return obs.second_moment(self.area) - obs.mean(self.area) ** 2

    def check(self, item, out):
        value, stderr = out["num"]["value"], out["num"]["stderr"]
        kind = item["kind"]
        if not (math.isfinite(value) and math.isfinite(stderr)
                and stderr > 0):
            return "non-finite estimate"
        slack = MC_SIGMAS * stderr
        if kind == "variance":
            ref = self._var(self.g)
            if abs(value - ref) > slack:
                return "variance %g vs analytic %g" % (value, ref)
        elif kind == "preserve":
            # int g(phi_t p) dmu = int g dmu: the flow preserves the measure
            if abs(value) > slack:
                return "flow moved the mean of g by %g" % value
        elif kind == "corr":
            bound = math.sqrt(self._var(self.g) * self._var(self.h))
            if abs(value) > bound + slack:
                return "correlation %g beyond Cauchy-Schwarz" % value
        elif abs(value) > 1.0 + slack:
            return "triple correlation %g out of range" % value
        return None


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------

CLI_COMMANDS = (("rv", "induct", "--steps", "20"),
                ("rv", "towers", "--at", "10"),
                ("dc", "mixing", "--depth", "10"),
                ("dc", "summability", "--depth", "10", "--window-len", "0"))
CLI_EXTRA = {"golden": (), "bounded3": ("--nu", "4", "--d", "3")}


def _iet_text(iet) -> str:
    perm = iet.perm
    return ("alphabet = %s\ntop = %s\nbottom = %s\nlengths = %s\n"
            % (" ".join(perm.alphabet), " ".join(perm.top),
               " ".join(perm.bottom),
               " ".join(iet.length(a).to_string() for a in perm.alphabet)))


class Induction(Workload):
    name = "induction"
    why = ("Rauzy-Veech traces, towers, return times, zippered steps, "
           "Diophantine reports and the CLI, on exact rationals")
    # two random IETs (d cycles 3, 4, 5, 4) per fixture command through
    # the CLI; every command runs on both fixtures once per cycle
    cycle = tuple(entry for k in range(8) for entry in (
        ("random", (3, 4, 5, 4)[(2 * k) % 4]),
        ("random", (3, 4, 5, 4)[(2 * k + 1) % 4]),
        ("cli", ("golden", "bounded3")[k % 2], k // 2)))
    trace_items = 24
    reference = ("fractions",) * 4

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        from ietflow import diophantine, fixtures, rauzy

        self.params = diophantine.validate_params(1.01, 0.995, 0.9, 0.992)
        self.files = {}
        self.ref = {}
        for name, iet in (("golden", fixtures.golden_rotation()),
                          ("bounded3", fixtures.bounded_type_3iet())):
            path = os.path.join(workdir, "%s-%d.iet" % (name, os.getpid()))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_iet_text(iet))
            self.files[name] = path
            self.ref[name] = rauzy.InductionTrace(iet).extend(20)

    def close(self):
        for path in self.files.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def item(self, i):
        slot = self.slot(i)
        if slot[0] == "cli":
            _, name, cmd = slot
            argv = list(CLI_COMMANDS[cmd]) + ["--iet", self.files[name]]
            if cmd >= 2:
                argv += CLI_EXTRA[name]
            return dict(kind="cli", fixture=name, cmd=cmd, argv=argv)
        from ietflow.iet import Iet, Permutation

        rng = item_rng(self.seed, i)
        d = slot[1]
        alphabet = list("ABCDE"[:d])
        while True:
            bottom = alphabet[:]
            rng.shuffle(bottom)
            perm = Permutation(alphabet, bottom)
            if perm.irreducible:
                break
        weights = [rng.randrange(1, 10 ** 6) for _ in range(d)]
        total = sum(weights)
        return dict(kind="random",
                    iet=Iet(perm, [F(w, total) for w in weights]))

    def run(self, item):
        if item["kind"] == "cli":
            from ietflow import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(item["argv"])
            return dict(fp=["cli", item["fixture"], item["cmd"], code,
                            buf.getvalue()], num={})
        return self._run_random(item["iet"])

    def _run_random(self, iet):
        from ietflow import diophantine, rauzy, zippered

        trace = rauzy.InductionTrace(iet)
        try:
            trace.extend(25)
        except rauzy.RVUndefinedError:
            pass
        depth = trace.depth
        cocycle = [trace.check_cocycle(n) for n in range(depth + 1)]
        floors = []
        for n in range(min(depth, 12) + 1):
            system = rauzy.towers(trace, n)
            floors.append([system.floor_count(), system.check_partition()])
        returns = []
        for n in range(5, depth + 1, 5):
            if max(trace.heights(n)) <= 4000:
                returns.append([n, [rauzy.return_time_oracle(trace, n, a)
                                    for a in iet.perm.alphabet]])
        steps = min(depth, 10)
        z0 = zippered.canonical_zippered(iet, normalize=False)
        z = z0
        for _ in range(steps):
            z, _, _ = zippered.forward_rv_step(z)
        for _ in range(steps):
            z, _, _ = zippered.backward_rv_step(z)
        round_trip = (z.iet == z0.iet and
                      z.suspension.tau == z0.suspension.tau)
        accel = rauzy.select_accel_times(trace, 3, lbar_max=4)
        report = diophantine.mixing_dc_report(accel, self.params, 3)
        return dict(fp=["random", repr(iet), trace.type_word(), cocycle,
                        floors, returns, steps, round_trip, accel.times,
                        accel.lbar, report.insufficient_depth,
                        report.balanced, report.windows_positive],
                    num={}, heights=[list(trace.heights(n))
                                     for n, _ in returns])

    def check(self, item, out):
        fp = out["fp"]
        if item["kind"] == "random":
            (_, _, word, cocycle, floors, returns, _, round_trip, *_rest) = fp
            if not all(cocycle):
                return "cocycle identity failed"
            if not all(ok for _, ok in floors):
                return "tower floors do not partition"
            if [r for _, r in returns] != out["heights"]:
                return "return times differ from the heights h^(n)"
            if not round_trip:
                return "zippered backward steps did not invert forward steps"
            return None
        _, name, cmd, code, text = fp
        if code != 0:
            return "cli exit code %d" % code
        ref = self.ref[name]
        lines = [json.loads(line) for line in text.splitlines() if line]
        if cmd == 0:
            word = "".join("t" if r["type"] == "top" else "b" for r in lines)
            if word != ref.type_word(20):
                return "rv induct type word differs from the library trace"
        elif cmd == 1:
            (rec,) = lines
            want = dict(zip(ref.base.perm.alphabet, ref.heights(10)))
            if rec["heights"] != want or not rec["partition_exact"]:
                return "rv towers heights differ from the library trace"
        elif cmd == 2:
            (rec,) = lines
            if not (rec["all_balanced"] and rec["all_windows_positive"]):
                return "dc mixing: bounded-type fixture not balanced"
        else:
            (rec,) = lines
            if rec["non_members"]:
                return "dc summability: K_T misses %s" % rec["non_members"]
        return None


def make(name: str) -> Workload:
    return {"sr_witness": SrWitness, "exact_scan": ExactScan,
            "mix_probe": MixProbe, "induction": Induction}[name]()
