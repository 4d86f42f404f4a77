"""pptlab benchmark.

    python3 pptbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pptbench/run.py --self-check

Run from the repository root; the program under test is the tree in
``src/``.  Workloads (see ``DESIGN.md`` for why each was chosen):

    extend-survey  generic extensions of exact cores and their extension
                   spaces; then a numeric survey, exact rounding, and CLI
                   certification of the roundings
    certify        ppt-check, certify-sn and verify on rho3x3, rho4x5 and
                   family:2..5 (family:5 with the linear certifier)

A run sets up (writes the state files with ``pptlab build``), then issues
passes over the workload's requests, one at a time, until ``--seconds`` have
passed; every pass is complete.  With ``--trace 0`` the last line of output
is a JSON object with the end-to-end metrics, medians over passes; with
``--trace 1`` the run wraps pptlab's public functions, writes the spans to
``.pptbench/`` and reports per-layer metrics instead.  The lines above the
JSON list the per-stage times and every failed request with its cause.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pptbench")
sys.path.insert(0, HERE)

from harness import (DERIVE, SPEEDPROBE, Bench, Pass, SpeedTrace,  # noqa: E402
                     self_peak_kb, verify_ok)
from tracer import WRAPPED, Counters, Tracer, read_spans  # noqa: E402

# Set-up is repeated until this many samples or this many seconds, and the
# median is reported.
SETUP_SAMPLES = 3
SETUP_SECONDS = 1.0

# Times are seconds at the reference CPU speed of SpeedTrace; the raw wall
# times are printed above the result.
END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("derive_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Stage metrics named in the workload design, printed for the workloads
# they apply to.
STAGES = {
    "extend-survey": ("extend", "space", "space_sparse", "lift", "extremal", "survey",
                      "numeric", "sample", "round", "ppt", "verify"),
    "certify": ("ppt", "sn", "verify"),
}

SPAN_NAMES = [f"{module}.{path}" for module, path in WRAPPED]
PER_LAYER = (
    [(f"{name}.s", "s") for name in SPAN_NAMES]
    + [(f"{name}.calls", "count") for name in (
        "exactmat.psd_check", "exactmat.rank_and_kernel", "exactmat.ExactMatrix.outer",
        "extender.ppt_extension_space", "algcert.normal_form",
        "algcert.linear_membership_cofactors", "numlab.gauss_newton_birank")]
    + [
        ("exactmat.psd_check.max_n", "count"),
        ("exactmat.psd_check.pivot_bits_max", "bits"),
        ("exactmat.rank_and_kernel.max_cols", "count"),
        ("extender.ppt_extension_space.max_N", "count"),
        ("extender.ppt_extension_space.dimension_sum", "count"),
        ("algcert.buchberger.basis_size", "count"),
        ("algcert.in_ideal.hit_ratio", "ratio"),
        ("algcert.minor_ideal.generators", "count"),
        ("algcert.linear_membership_cofactors.hit_ratio", "ratio"),
        ("numlab.gauss_newton_birank.iterations_mean", "count"),
        ("numlab.gauss_newton_birank.converged_ratio", "ratio"),
        ("numlab.numeric_extension_dimension.ambiguous_ratio", "ratio"),
        ("certificates.bytes", "bytes"),
        ("cli.startup.s", "s"),
        ("trace.wall_s", "s"),
        ("trace.spans", "count"),
    ]
)


def _ratio(num, den):
    return num / den if den else 0.0


def setup(workload, bench):
    """Set up repeatedly; returns the last inputs and each set-up's interval."""
    intervals = []
    inputs = None
    while (len(intervals) < SETUP_SAMPLES
           and sum(b - a for a, b in intervals) < SETUP_SECONDS):
        t0 = time.perf_counter()
        inputs = workload.setup(bench, f"setup{len(intervals)}")
        intervals.append((t0, time.perf_counter()))
    return inputs, intervals


def run_passes(name, workload, bench, inputs, seed, seconds):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = Pass()
        rng = random.Random(f"{name}:{seed}:{len(passes)}")
        p.start = time.perf_counter()
        workload.run_pass(bench, p, inputs, rng)
        p.end = time.perf_counter()
        p.peak_kb = max(p.peak_kb, self_peak_kb())
        passes.append(p)
    return passes


def end_to_end(passes, setups, speed):
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "pass_s": statistics.median(speed.seconds(p.start, p.end) for p in passes),
        "setup_s": statistics.median(speed.seconds(a, b) for a, b in setups),
        "derive_s": statistics.median(
            sum(speed.seconds(a, b) for stage, a, b in p.intervals if stage in DERIVE)
            for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p.peak_kb for p in passes) / 1024.0,
    }


def per_layer(bench, tracer, passes, spans_out):
    """Per-layer metrics from the spans of every traced process."""
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    counters = Counters()
    startup = 0.0
    nspans = 0
    records = [dict(pid=os.getpid(), request=req, name=n, start=s, end=e, parent=par)
               for n, s, e, par, req in tracer.spans]
    groups = [(records, tracer.counters.to_json(), None)]
    for path, wall in bench.cli_walls:
        spans, cnt = read_spans(path)
        groups.append((spans, cnt, wall))
    by_group = {}
    with open(spans_out, "w") as fh:
        for spans, cnt, wall in groups:
            # a span's self time is its duration minus its direct children's
            child = [0.0] * len(spans)
            for s in spans:
                if s["parent"] >= 0:
                    child[s["parent"]] += s["end"] - s["start"]
            for s, inner in zip(spans, child):
                own = s["end"] - s["start"] - inner
                totals[s["name"]] += own
                calls[s["name"]] += 1
                group = by_group.setdefault(s["request"].split("|")[0], {})
                group[s["name"]] = group.get(s["name"], 0.0) + own
                fh.write(json.dumps(s) + "\n")
            counters.merge(cnt)
            nspans += len(spans)
            if wall is not None:
                startup += wall - sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    sums, maxima = counters.sums, counters.maxima
    out = {f"{n}.s": totals[n] for n in SPAN_NAMES}
    for metric, _ in PER_LAYER:
        if metric.endswith(".calls"):
            out[metric] = calls[metric[:-len(".calls")]]
    for key in ("exactmat.psd_check.max_n", "exactmat.psd_check.pivot_bits_max",
                "exactmat.rank_and_kernel.max_cols", "extender.ppt_extension_space.max_N",
                "algcert.buchberger.basis_size", "algcert.minor_ideal.generators"):
        out[key] = maxima.get(key, 0)
    out["extender.ppt_extension_space.dimension_sum"] = sums.get(
        "extender.ppt_extension_space.dimension_sum", 0)
    out["algcert.in_ideal.hit_ratio"] = _ratio(sums.get("algcert.in_ideal.hits", 0),
                                               calls["algcert.in_ideal"])
    out["algcert.linear_membership_cofactors.hit_ratio"] = _ratio(
        sums.get("algcert.linear_membership_cofactors.hits", 0),
        calls["algcert.linear_membership_cofactors"])
    converged = sums.get("numlab.gauss_newton_birank.converged", 0)
    out["numlab.gauss_newton_birank.iterations_mean"] = _ratio(
        sums.get("numlab.gauss_newton_birank.iterations", 0), converged)
    out["numlab.gauss_newton_birank.converged_ratio"] = _ratio(
        converged, calls["numlab.gauss_newton_birank"])
    out["numlab.numeric_extension_dimension.ambiguous_ratio"] = _ratio(
        sums.get("numlab.numeric_extension_dimension.ambiguous", 0),
        calls["numlab.numeric_extension_dimension"])
    out["certificates.bytes"] = statistics.median(p.cert_bytes for p in passes)
    out["cli.startup.s"] = startup
    out["trace.wall_s"] = statistics.median(p.wall for p in passes)
    out["trace.spans"] = nspans
    return out, by_group


def report(name, passes, speed):
    """Human-readable lines: raw stage times of the median pass, failures."""
    mid = sorted(passes, key=lambda p: p.wall)[len(passes) // 2]
    print(f"# workload {name}: {len(passes)} pass(es), median pass {mid.wall:.3f} s wall, "
          f"{speed.seconds(mid.start, mid.end):.3f} s at reference speed")
    for stage in STAGES[name]:
        print(f"#   {stage}_s {mid.stage[stage]:.4f} s")
    if "survey" in STAGES[name]:
        print(f"#   samples_per_s {_ratio(mid.samples, mid.stage['survey']):.3f} 1/s")
    print(f"#   fail_ratio {_ratio(len(mid.failures), mid.attempted):.4f} "
          f"({len(mid.failures)} of {mid.attempted} requests)")
    seen = set()
    for p in passes:
        for label, cause in p.failures:
            if (label, cause) not in seen:
                seen.add((label, cause))
                kind = "WRONG" if label in p.wrong else "FAILED"
                print(f"# {kind} {label}: {cause}")
    for note in sorted({n for p in passes for n in p.notes}):
        print(f"# NOTE {note}")


def run(args, workload, workdir):
    tracer = Tracer() if args.trace else None
    bench = Bench(SRC, workdir, tracer)
    # Everything, the speed probe included, shares one CPU, so the probe
    # measures the speed the requests get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe_file = bench.path("speed.txt")
    probe = subprocess.Popen([sys.executable, SPEEDPROBE, probe_file])
    try:
        inputs, setups = setup(workload, bench)
        if tracer is not None:
            tracer.install()
        try:
            passes = run_passes(args.workload, workload, bench, inputs, args.seed,
                                args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        probe.terminate()
        probe.wait()
    speed = SpeedTrace(probe_file)
    report(args.workload, passes, speed)
    if args.trace:
        spans_out = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        values, by_group = per_layer(bench, tracer, passes, spans_out)
        for group, times in sorted(by_group.items()):
            top = sorted(((v, k) for k, v in times.items()), reverse=True)[:3]
            print(f"# largest self time in {group}: "
                  + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        units = dict(PER_LAYER)
    else:
        values = end_to_end(passes, setups, speed)
        units = dict(END_TO_END)
    return {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def self_check(workdir):
    """Show that the oracle can fail: a tampered certificate and a wrong
    expected verdict must each raise the failure ratio of a pass."""
    from workloads import build_states, check_ppt

    bench = Bench(SRC, workdir)
    paths = build_states(bench, [("rho3x3", "rho3x3")], "setup")
    cert = bench.path("ppt_rho3x3.json")
    made = bench.cli(None, None, "ppt-check", ["ppt-check", "--state", paths["rho3x3"],
                                              "--out", cert])
    if made.code != 0:
        print(f"self-check: ppt-check failed: {made.cause()}")
        return 1
    with open(cert) as fh:
        data = json.load(fh)
    index, pivot = data["rho"]["pivots"][0]
    data["rho"]["pivots"][0] = [index, str(2 * Fraction(pivot))]
    tampered = bench.path("ppt_rho3x3_tampered.json")
    with open(tampered, "w") as fh:
        json.dump(data, fh)

    def replay(p, label, path):
        res = bench.cli(p, "verify", label, ["verify", path])
        p.outcome(label, verify_ok(res), res.cause())

    cases = (
        ("genuine certificate", False,
         lambda p: (replay(p, "verify genuine", cert), check_ppt(p, "verdict", made, cert))),
        ("tampered pivot", True, lambda p: replay(p, "verify tampered", tampered)),
        ("wrong expected verdict", True,
         lambda p: check_ppt(p, "verdict expected NPT", made, cert, expected="NPT")),
    )
    ok = True
    for what, must_fail, fn in cases:
        p = Pass()
        fn(p)
        fail_ratio = _ratio(len(p.failures), p.attempted)
        ok &= (fail_ratio > 0) == must_fail
        causes = "; ".join(f"{label}: {cause}" for label, cause in p.failures)
        print(f"self-check {what}: fail_ratio {fail_ratio:.2f} {causes}")
    print(f"self-check {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def _terminate(signum, frame):
    # lets the request runner stop its child process and clean up
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="show that tampered outputs raise the failure ratio")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pptlab", "cli.py")):
        print(f"pptbench: no pptlab source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pptlab
    from workloads import WORKLOADS, SetupError

    if not os.path.abspath(pptlab.__file__).startswith(SRC + os.sep):
        print(f"pptbench: imported pptlab from {pptlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    signal.signal(signal.SIGTERM, _terminate)
    tag = "self-check" if args.self_check else f"{args.workload}-{args.seed}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.self_check:
            return self_check(workdir)
        try:
            result = run(args, WORKLOADS[args.workload], workdir)
        except SetupError as exc:
            print(f"pptbench: set-up failed: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
