"""Command-line front end.

Subcommand groups: iet, rv, zip, flow, bs, dc, ratner, mix.  Results are
line-delimited JSON on stdout; the commands with a series print it as CSV
under --csv.  Each subcommand registers only the flags it reads.  A command
returns its exit code, its record payload and its induction trace, and
`main` appends the run's one experiment record under --log, carrying the
full configuration echo, the seed, and a fingerprint of the induction type
word, so that a record replays bit-for-bit for exact outputs.

Exit codes: 0 ok, 1 a requested check failed (or a run failed), 2 usage
error; `_run` reports each error as one JSON object on stderr.  Output is
strict JSON: the `max_dev` of a pair that never got a certified deviation
and the `max_diameter` of windows none of which is positive are null, and
any other non-finite value fails the run (`NonFiniteOutput`, exit 1).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from . import fixtures, kernels
from .birkhoff import ExactHitError, sigma_set
from .diophantine import (
    IndeterminateComparison,
    ParamWindowError,
    _require_times,
    mixing_dc_report,
    ratner_dc_partial,
    summability_partial,
    validate_params,
)
from .exact import ExactScalar, FieldMismatchError
from .iet import Iet, ReturnBudgetError, keane_check
from .rauzy import InductionTrace, RVUndefinedError, select_accel_times, towers
from .ratner import (
    BumpObservable,
    SAMPLE_TRIES,
    PairSamplingError,
    WitnessConfig,
    forbac_scan,
    in_margins,
    margin_width,
    mixing_correlation,
    witness_run,
)
from .roof import (FlowStepBudgetError, SingularityTooClose, _advance,
                   birkhoff_sum, roof_area)
from .serialize import (
    load_iet,
    load_roof,
    records_to_jsonl,
    series_to_csv,
    trace_records,
)
from .zippered import ZipperedRectangles, backward_rv_step, generic_tau


class _FlagError(ValueError):
    """A flag's value outside its domain: a usage error naming the flag."""

    def __init__(self, field, detail):
        super().__init__(detail)
        self.constraint = field


def _load_iet(args) -> Iet:
    if args.iet:
        return load_iet(args.iet)
    return fixtures.golden_rotation()


def _load_roof(args, iet: Iet):
    if args.roof:
        return load_roof(args.roof, iet)
    return fixtures.asymmetric_log_roof(iet)


class NonFiniteOutput(Exception):
    """A non-finite float reached an output, where strict JSON has no token
    for it: a defect of the run (exit 1), not of its flags."""


def _dumps(obj, **options) -> str:
    """`json.dumps` that raises `NonFiniteOutput` rather than write a NaN
    or Infinity token."""
    try:
        return json.dumps(obj, allow_nan=False, **options)
    except ValueError as exc:
        raise NonFiniteOutput(str(exc)) from None


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _emit(payload):
    """Print the payload as one strict JSON line."""
    print(_dumps(payload, sort_keys=True))


def _rows(header, rows, csv=False):
    """Print a series: CSV, or one strict JSON object per row with its keys
    in header order, every row encoded before the first is printed."""
    if csv:
        sys.stdout.write(series_to_csv(rows, header))
    else:
        for line in [_dumps(dict(zip(header, row))) for row in rows]:
            print(line)


def _fingerprint(trace: InductionTrace) -> str:
    return hashlib.sha256(trace.type_word().encode()).hexdigest()[:16]


def _log_record(args, payload, trace):
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "command": "%s %s" % (args.group, args.cmd),
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func",) and v is not None},
        "seed": getattr(args, "seed", None),
        "fingerprint": _fingerprint(trace) if trace is not None else None,
        "results": payload,
    }
    line = _dumps(record, sort_keys=True, default=str)
    with open(args.log, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def _params_from(args):
    return validate_params(args.tau, args.tau_prime, args.eta, args.xi,
                           nu=Fraction(args.nu), lbar=args.lbar, d=args.d,
                           window=args.window)


def _induct(args, iet: Iet, partial=False):
    """The induction trace of `iet` to --steps (under `partial`, as far as
    it is defined) and its accelerated times."""
    trace = InductionTrace(iet)
    try:
        trace.extend(args.steps)
    except RVUndefinedError:
        if not partial:
            raise
    return trace, select_accel_times(trace, Fraction(args.nu),
                                     lbar_max=args.lbar_max,
                                     depth=trace.depth)


#: (flag, options, in the parameter window): the flags of the commands
#: that induct, the window ones only where `_params_from` reads them
_INDUCTION_FLAGS = (
    ("--tau", dict(default="1.01"), True),
    ("--tau-prime", dict(dest="tau_prime", default="0.995"), False),
    ("--eta", dict(default="0.9"), True),
    ("--xi", dict(default="0.992"), True),
    ("--nu", dict(default="3"), False),
    ("--lbar", dict(type=int, default=2), True),
    ("--d", dict(type=int, default=2), True),
    ("--window", dict(default="para", choices=["para", "asucons"]), True),
    ("--lbar-max", dict(dest="lbar_max", type=int, default=6), False),
    ("--steps", dict(type=int, default=46,
                     help="induction depth to compute"), False),
)


def _add_common(parser, csv=False, roof=False, induction=False,
                window=False):
    """--iet and --log; --csv, --roof and the induction flags (with the
    parameter-window ones under `window`) on the commands that read them.
    Flags are matched whole, so one a command does not take is refused
    rather than read as a longer one (--tau as --tau-prime on bs)."""
    parser.allow_abbrev = False
    parser.add_argument("--iet", help="IET file (default: the golden "
                                      "rotation)")
    parser.add_argument("--log", help="append an experiment record to this "
                                      "JSONL file")
    if csv:
        parser.add_argument("--csv", action="store_true",
                            help="emit CSV series instead of JSON lines")
    if roof:
        parser.add_argument("--roof", help="roof file (default: "
                                           "fixtures.asymmetric_log_roof)")
    if induction or window:
        for flag, options, windowed in _INDUCTION_FLAGS:
            if window or not windowed:
                parser.add_argument(flag, **options)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_iet_eval(args):
    iet = _load_iet(args)
    x = ExactScalar.parse(args.x)
    value = iet.iterate(x, args.n)
    payload = {"x": args.x, "n": args.n, "result": value.to_string(),
               "float": float(value)}
    _emit(payload)
    return 0, payload, None


def cmd_iet_keane(args):
    iet = _load_iet(args)
    report = keane_check(iet, args.depth)
    payload = {"depth": args.depth,
               "satisfied_to_depth": report.satisfied_to_depth,
               "colliding_pair": repr(report.colliding_pair)
               if report.colliding_pair else None}
    _emit(payload)
    return (0 if report.satisfied_to_depth else 1), payload, None


def cmd_rv_induct(args):
    iet = _load_iet(args)
    trace = InductionTrace(iet)
    out = records_to_jsonl(list(trace_records(trace, args.steps)))
    sys.stdout.write(out)
    return 0, {"steps": args.steps,
               "sha256": hashlib.sha256(out.encode()).hexdigest()}, trace


def cmd_rv_towers(args):
    iet = _load_iet(args)
    trace = InductionTrace(iet)
    system = towers(trace, args.at)
    payload = {
        "at": args.at,
        "heights": {t.label: t.height for t in system.towers},
        "floor_count": system.floor_count(),
        "partition_exact": system.check_partition(),
        "bases": {t.label: [t.base_left.to_string(),
                            t.base_right.to_string()]
                  for t in system.towers},
    }
    _emit(payload)
    return (0 if payload["partition_exact"] else 1), payload, trace


def cmd_rv_accel(args):
    trace, accel = _induct(args, _load_iet(args), partial=True)
    payload = {"nu": str(args.nu), "lbar": accel.lbar,
               "times": accel.times, "count": accel.count,
               "diagnostic": accel.diagnostic}
    _emit(payload)
    return (0 if accel.count else 1), payload, trace


def cmd_zip_backward(args):
    from .zippered import BackwardUndefinedError

    iet = _load_iet(args)
    z = ZipperedRectangles(iet, generic_tau(iet.perm, Fraction(args.eps)))
    steps = []
    cur = z
    stopped = None
    for k in range(args.steps):
        try:
            cur, matrix, step_type = backward_rv_step(cur)
        except BackwardUndefinedError as exc:
            # rational tau data always tie eventually; report the partial
            # expansion rather than discarding it
            stopped = {"error": "BackwardUndefined", "detail": str(exc),
                       "steps_completed": k}
            break
        steps.append({
            "index": -(k + 1), "type": step_type,
            "matrix": [list(row) for row in matrix],
            "lengths": [v.to_string() for v in cur.iet.lengths],
            "tau": [v.to_string() for v in cur.suspension.tau],
        })
    sys.stdout.write(records_to_jsonl(steps))
    if stopped:
        print(json.dumps(stopped))
    return ((0 if stopped is None else 1),
            {"steps": args.steps, "completed": len(steps)}, None)


def cmd_flow_orbit(args):
    iet = _load_iet(args)
    spec = _load_roof(args, iet)
    end_x, end_y, r = _advance(iet, spec, ExactScalar.parse(args.x), args.y,
                               args.t)
    payload = {"x": args.x, "y": args.y, "t": args.t,
               "end_x": end_x.to_string(), "end_x_float": float(end_x),
               "end_y": end_y, "discrete_iterations": r}
    _emit(payload)
    return 0, payload, None


def cmd_flow_birkhoff(args):
    iet = _load_iet(args)
    spec = _load_roof(args, iet)
    x = ExactScalar.parse(args.x)
    value = birkhoff_sum(iet, spec, x, args.r, derivative=args.derivative)
    payload = {"x": args.x, "r": args.r, "derivative": args.derivative,
               "sum": value.value, "error_radius": value.err}
    _emit(payload)
    return 0, payload, None


def cmd_bs_growth(args):
    iet = _load_iet(args)
    spec = _load_roof(args, iet)
    trace, accel = _induct(args, iet)
    from .birkhoff import ExcludedPointError, derivative_growth_check
    grid = [int(tok) for tok in args.r_grid.split(",")]
    import random as _random
    rng = _random.Random(args.seed)
    rows = []
    sampled = 0
    for _ in range(SAMPLE_TRIES):
        if sampled >= args.points:
            break
        x = Fraction(rng.randrange(10 ** 6 // 20, 10 ** 6 * 19 // 20), 10 ** 6)
        try:
            reports = [derivative_growth_check(accel, spec, x, r,
                                               eps=args.eps,
                                               tau_prime=float(args.tau_prime))
                       for r in grid]
        except ExcludedPointError:
            continue
        sampled += 1
        for rep in reports:
            rows.append((str(x), rep.r, rep.ell, rep.oriented_ratio,
                         rep.lower_ok, rep.upper_ok, rep.used_UV_slack))
    if sampled < args.points:
        # Sigma covers the sampling range at some scale of the grid
        raise PairSamplingError(args.points, sampled, SAMPLE_TRIES)
    _rows(["x", "r", "ell", "oriented_ratio", "lower_ok", "upper_ok",
           "used_UV_slack"], rows, args.csv)
    ok = all(row[4] and row[5] for row in rows)
    return (0 if ok else 1), {"rows": len(rows), "all_bounds": ok}, trace


def cmd_bs_sigma_sets(args):
    iet = _load_iet(args)
    trace, accel = _induct(args, iet)
    # sigma_l reads A_l = B^(n_l, n_{l+1})
    _require_times(accel, args.l_max + 1)
    rows = []
    for ell in range(1, args.l_max + 1):
        sset = sigma_set(accel, ell, float(args.tau_prime))
        rows.append((ell, sset.sigma, float(sset.measure), float(sset.bound),
                     accel.q(ell), accel.A_norm(ell)))
    _rows(["ell", "sigma", "measure", "bound", "q", "normA"], rows,
          args.csv)
    ok = all(row[2] <= row[3] for row in rows)
    return (0 if ok else 1), {"l_max": args.l_max, "bounds_hold": ok}, trace


def _dc_setup(args, least=0):
    """Parameters, trace and accelerated times; --depth >= `least`."""
    if args.depth < least:
        raise _FlagError("depth", "need --depth >= %d, got %d"
                         % (least, args.depth))
    iet = _load_iet(args)
    params = _params_from(args)
    return (params, *_induct(args, iet, partial=True))


def cmd_dc_mixing(args):
    params, trace, accel = _dc_setup(args, least=1)
    report = mixing_dc_report(accel, params, args.depth)
    full = not report.insufficient_depth
    payload = {
        "depth": args.depth, "insufficient_depth": report.insufficient_depth,
        "all_balanced": report.all_balanced if full else None,
        "all_windows_positive": report.all_windows_positive if full else None,
        "max_diameter": _finite_or_none(report.max_diameter) if full
        else None,
        "integrability": report.integrability,
    }
    if args.csv and full:
        rows = [(ell + 1, report.balanced[ell], report.windows_positive[ell],
                 report.diameters[ell], report.integrability[ell])
                for ell in range(args.depth)]
        _rows(["ell", "balanced", "window_positive", "diameter",
               "normA_over_ell_tau"], rows, csv=True)
    else:
        _emit(payload)
    ok = full and report.all_balanced and report.all_windows_positive
    return (0 if ok else 1), payload, trace


def cmd_dc_ratner(args):
    params, trace, accel = _dc_setup(args)
    if args.depth == 0:
        payload = {"depth": 0, "bad_indices": [], "partial_sum": 0.0,
                   "window": args.window_len if args.window_len is not None
                   else params.L}
        _emit(payload)
        return 0, payload, trace
    out = ratner_dc_partial(accel, params, args.depth,
                            window_len=args.window_len)
    payload = {"depth": out.depth, "window": out.window_len,
               "bad_indices": out.bad_indices,
               "partial_sum": out.partial_sum}
    if args.csv:
        rows = [(ell, out.products[ell - 1], ell in out.bad_indices)
                for ell in range(1, out.depth + 1)]
        _rows(["ell", "window_norm_product", "bad"], rows, csv=True)
    else:
        _emit(payload)
    return 0, payload, trace


def cmd_dc_summability(args):
    params, trace, accel = _dc_setup(args)
    out = summability_partial(accel, params, args.depth,
                              window_len=args.window_len)
    payload = {"depth": out.depth, "window": out.window_len,
               "members": out.members, "non_members": out.non_members,
               "sum_sigma_eta": out.sum_sigma_eta,
               "sum_measures": out.sum_measures}
    if args.csv:
        rows = [(ell, ell in out.members) for ell in range(1, out.depth + 1)]
        _rows(["ell", "in_K_T"], rows, csv=True)
    else:
        _emit(payload)
    return 0, payload, trace


def cmd_ratner_witness(args):
    iet = _load_iet(args)
    spec = _load_roof(args, iet)
    params = _params_from(args)
    trace, accel = _induct(args, iet)
    cfg = WitnessConfig(epsilon=args.eps, N=args.n_floor, params=params,
                        seed=args.seed, window_len=args.window_len)
    gap = Fraction(args.gap) if args.gap else Fraction(1, 10 ** 5)
    results, ok_hp, failures = witness_run(accel, spec, cfg, args.pairs, gap)
    _rows(["x", "direction", "verdict", "p", "M", "L", "max_dev",
           "reverified", "reason"],
          [(res.x.to_string(), res.direction, res.verdict, res.p, res.M,
            res.L, _finite_or_none(res.max_deviation), ok,
            res.failure_reason)
           for res, ok in zip(results, ok_hp)])
    verified = sum(res.verdict == "verified" for res in results)
    reverified = sum(ok_hp)
    rate = verified / len(results) if results else 0.0
    payload = {"pairs": len(results), "verified": verified,
               "reverified": reverified, "rate": rate, "failures": failures}
    _emit(payload)
    ok = rate >= args.rate_floor and reverified == verified
    return (0 if ok else 1), payload, trace


def cmd_ratner_forbac(args):
    iet = _load_iet(args)
    params = _params_from(args)
    trace, accel = _induct(args, iet)
    lo, _, hi = args.l_range.partition("..")
    lo, hi = int(lo), int(hi)
    if not 1 <= lo <= hi <= accel.count:
        raise _FlagError("l_range", "need 1 <= lo <= hi <= %d (accelerated "
                         "times), got %s" % (accel.count, args.l_range))
    rows = []
    failures = 0
    margin = margin_width(args.eps)
    for ell in range(lo, hi + 1):
        for k in range(1, args.grid + 1):
            x = Fraction(k, args.grid + 1)
            if in_margins(x, margin):
                continue
            rep = forbac_scan(accel, x, ell, params, epsilon=args.eps)
            ok = rep.which_holds != "neither"
            failures += not ok
            rows.append((ell, str(x), rep.which_holds,
                         float(rep.forward_min), float(rep.backward_min),
                         float(rep.threshold)))
    _rows(["ell", "x", "which_holds", "forward_min", "backward_min",
           "threshold"], rows, args.csv)
    payload = {"points": len(rows), "failures": failures}
    _emit(payload)
    return (0 if failures == 0 else 1), payload, trace


def cmd_mix_correlate(args):
    iet = _load_iet(args)
    spec = _load_roof(args, iet)
    g = BumpObservable(x0=args.gx, wx=args.gw, y0=args.gy, wy=args.gwy)
    h = BumpObservable(x0=args.hx, wx=args.hw, y0=args.hy, wy=args.hwy)
    est = mixing_correlation(iet, spec, g, h, args.t, args.samples,
                             seed=args.seed)
    payload = {"t": args.t, "samples": args.samples,
               "estimate": est.value, "stderr": est.stderr,
               "area": roof_area(iet, spec),
               "kernel": kernels.implementation_name()}
    _emit(payload)
    return 0, payload, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses a flag it does not take with its
    own usage line, rather than pass it up to the top parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ietflow",
        description="Interval exchange transformations, Rauzy-Veech "
                    "induction and special flows with log singularities.")
    sub = parser.add_subparsers(dest="group", required=True)

    def group(name, what):
        return sub.add_parser(name, help=what).add_subparsers(
            dest="cmd", required=True, parser_class=_CommandParser)

    s = group("iet", "evaluate and check IETs")
    p = s.add_parser("eval")
    _add_common(p)
    p.add_argument("--x", required=True, help="exact point, e.g. 1/3")
    p.add_argument("--n", type=int, default=1, help="iterate count")
    p.set_defaults(func=cmd_iet_eval)
    p = s.add_parser("keane")
    _add_common(p)
    p.add_argument("--depth", type=int, default=100)
    p.set_defaults(func=cmd_iet_keane)

    s = group("rv", "Rauzy-Veech induction")
    p = s.add_parser("induct")
    _add_common(p)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_rv_induct)
    p = s.add_parser("towers")
    _add_common(p)
    p.add_argument("--at", type=int, required=True)
    p.set_defaults(func=cmd_rv_towers)
    p = s.add_parser("accel")
    _add_common(p)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--nu", default="3")
    p.add_argument("--lbar-max", dest="lbar_max", type=int, required=True)
    p.set_defaults(func=cmd_rv_accel)

    s = group("zip", "zippered rectangles")
    p = s.add_parser("backward")
    _add_common(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--eps", default="3/11",
                   help="off-boundary nudge for the seed suspension datum")
    p.set_defaults(func=cmd_zip_backward)

    s = group("flow", "special flow over the IET")
    p = s.add_parser("orbit")
    _add_common(p, roof=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", type=float, default=0.0)
    p.set_defaults(func=cmd_flow_orbit)
    p = s.add_parser("birkhoff")
    _add_common(p, roof=True)
    p.add_argument("--x", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--derivative", action="store_true")
    p.set_defaults(func=cmd_flow_birkhoff)

    s = group("bs", "Birkhoff-sum diagnostics")
    p = s.add_parser("growth")
    _add_common(p, csv=True, roof=True, induction=True)
    p.add_argument("--r-grid", dest="r_grid", default="1000,3000,10000")
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--eps", type=float, default=0.39)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bs_growth)
    p = s.add_parser("sigma-sets")
    _add_common(p, csv=True, induction=True)
    p.add_argument("--l-max", dest="l_max", type=int, required=True)
    p.set_defaults(func=cmd_bs_sigma_sets)

    s = group("dc", "Diophantine-condition diagnostics")
    for name, func in (("mixing", cmd_dc_mixing), ("ratner", cmd_dc_ratner),
                       ("summability", cmd_dc_summability)):
        p = s.add_parser(name)
        _add_common(p, csv=True, window=True)
        p.add_argument("--depth", type=int, required=True,
                       help="scales to report, >= 1 on mixing, else >= 0")
        if name != "mixing":
            p.add_argument("--window-len", dest="window_len", type=int,
                           default=None,
                           help="override the L-window (0 = consecutive "
                                "scales)")
        p.set_defaults(func=func)

    s = group("ratner", "switchable-Ratner witness")
    p = s.add_parser("witness")
    _add_common(p, roof=True, window=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap", default=None, help="pair separation (fraction)")
    p.add_argument("--n-floor", dest="n_floor", type=int, default=10)
    p.add_argument("--rate-floor", dest="rate_floor", type=float, default=0.9)
    p.add_argument("--window-len", dest="window_len", type=int, default=0)
    p.set_defaults(func=cmd_ratner_witness)
    p = s.add_parser("forbac")
    _add_common(p, csv=True, window=True)
    p.add_argument("--l-range", dest="l_range", required=True,
                   help="1 <= lo..hi <= accelerated times, e.g. 6..12")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.set_defaults(func=cmd_ratner_forbac)

    s = group("mix", "Monte-Carlo mixing probes")
    p = s.add_parser("correlate")
    _add_common(p, roof=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gx", type=float, default=0.3)
    p.add_argument("--gw", type=float, default=0.12)
    p.add_argument("--gy", type=float, default=0.45)
    p.add_argument("--gwy", type=float, default=0.3)
    p.add_argument("--hx", type=float, default=0.3)
    p.add_argument("--hw", type=float, default=0.12)
    p.add_argument("--hy", type=float, default=0.45)
    p.add_argument("--hwy", type=float, default=0.3)
    p.set_defaults(func=cmd_mix_correlate)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call.  Parsing leaves a
    parser unchanged (every call fills a fresh namespace), so one serves
    every call in the process."""
    return build_parser()


def main(argv=None) -> int:
    return _run(_parser().parse_args(argv))


#: Package errors that fail a run (exit 1), reported by their type name
_FAILURES = (IndeterminateComparison, FlowStepBudgetError,
             SingularityTooClose, ReturnBudgetError, ExactHitError,
             NonFiniteOutput)


def _run(args) -> int:
    """Run the command of parsed `args`, append its record under --log
    (none for a payload of None), and report its errors on stderr."""
    try:
        code, payload, trace = args.func(args)
        if args.log and payload is not None:
            _log_record(args, payload, trace)
        return code
    except (ParamWindowError, _FlagError) as exc:
        error, code = {"error": "usage", "field": exc.constraint,
                       "detail": str(exc)}, 2
    except RVUndefinedError as exc:
        error, code = {"error": "RVUndefined", "detail": str(exc),
                       "depth_reached": exc.depth}, 1
    except PairSamplingError as exc:
        error, code = {"error": "PairSamplingError",
                       "requested": exc.requested, "found": exc.found,
                       "max_tries": exc.max_tries, "detail": str(exc)}, 1
    except _FAILURES as exc:
        error, code = {"error": type(exc).__name__, "detail": str(exc)}, 1
    except (FileNotFoundError, ValueError, FieldMismatchError) as exc:
        error, code = {"error": "usage", "detail": str(exc)}, 2
    print(json.dumps(error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
