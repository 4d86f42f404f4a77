"""Request runner shared by the workloads.

``pptlab`` verbs run as separate processes, the way users and third-party
verifiers run them; library-only operations run in the benchmark's own
process.  One closed-loop client issues every request in turn.  Each
request's time is charged to a stage (``ppt``, ``sn``, ``verify``, ...) and
its outcome is checked against the expected result.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
TRACECLI = os.path.join(HERE, "tracecli.py")
SPEEDPROBE = os.path.join(HERE, "speedprobe.py")

# Stages that derive a result; the others ("verify", "lift", "extremal")
# check one.
DERIVE = ("ppt", "sn", "space", "space_sparse", "extend", "survey", "numeric", "sample",
          "round")


class Pass:
    """One pass over a workload: stage times, request outcomes, peak RSS."""

    def __init__(self):
        self.stage = defaultdict(float)     # stage -> seconds
        self.intervals = []                 # (stage, start, end) of every request
        self.attempted = 0
        self.failures = []                  # (label, cause)
        self.wrong = []                     # labels whose output contradicts the claim
        self.peak_kb = 0
        self.samples = 0                    # converged numeric samples (survey)
        self.cert_bytes = 0
        self.start = self.end = 0.0
        self.notes = []                     # observations that are not failures

    def outcome(self, label, ok, cause="", wrong=False):
        """Count one request; ``wrong`` marks an output that contradicts the
        expected result, as opposed to a request that did not complete."""
        self.attempted += 1
        if not ok:
            self.failures.append((label, cause))
            if wrong:
                self.wrong.append(label)

    @property
    def wall(self):
        return self.end - self.start

    def charge(self, stage, start, end):
        self.stage[stage] += end - start
        self.intervals.append((stage, start, end))


class SpeedTrace:
    """Samples of ``speedprobe.py``; converts wall intervals into seconds at
    a reference CPU speed.

    An interval's work is the integral of the CPU's speed over it.  The
    probe's unit CPU time is inversely proportional to that speed, so an
    interval of ``d`` wall seconds holds ``d * REF_UNIT_S * mean(1/unit)``
    seconds of work at the speed where one unit takes ``REF_UNIT_S``.
    """

    REF_UNIT_S = 5e-4

    def __init__(self, path):
        samples = []
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:         # the last line may be cut short
                    samples.append((float(parts[0]), 1.0 / float(parts[1])))
        if not samples:
            raise RuntimeError("the speed probe recorded no samples")
        samples.sort()
        self.times = [t for t, _ in samples]
        self.rates = [r for _, r in samples]

    def seconds(self, start, end):
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, end)
        if j <= i:                          # shorter than the sampling interval
            i, j = max(i - 1, 0), min(i + 1, len(self.times))
        return (end - start) * self.REF_UNIT_S * statistics.fmean(self.rates[i:j])


class CliResult:
    def __init__(self, code, stdout, stderr, seconds):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds

    def cause(self):
        """Exit code and the last line the command printed."""
        lines = (self.stderr.strip() or self.stdout.strip()).splitlines()
        return f"exit {self.code}: {lines[-1][:300] if lines else ''}"


class Bench:
    """Runs requests against the pptlab tree at ``src`` from ``workdir``."""

    def __init__(self, src, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.requests = 0
        self.group = ""                     # part of the workload, recorded in spans
        self.cli_walls = []                 # (spans file, request seconds) when tracing

    def cli(self, p: Pass | None, stage, label, argv, trace=True) -> CliResult:
        """Run ``pptlab <argv>`` in a fresh process and time it.

        With ``p`` None the request is set-up work and is not accounted.
        """
        self.requests += 1
        tag = f"r{self.requests:04d}"
        out_path = os.path.join(self.workdir, f"{tag}.out")
        err_path = os.path.join(self.workdir, f"{tag}.err")
        traced = trace and self.tracer is not None
        if traced:
            spans = os.path.join(self.workdir, f"{tag}.spans")
            cmd = [sys.executable, TRACECLI, spans, f"{self.group}|{tag} {label}"] + argv
        else:
            cmd = [sys.executable, "-m", "pptlab.cli"] + argv
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        if p is not None:
            p.charge(stage, t0, t1)
            p.peak_kb = max(p.peak_kb, usage.ru_maxrss)
        if traced and os.path.exists(spans):
            self.cli_walls.append((spans, t1 - t0))
        return CliResult(proc.returncode, stdout, stderr, t1 - t0)

    def call(self, p: Pass, stage, label, fn, *args):
        """Run one library request in this process and time it.

        Returns ``(result, None)`` or ``(None, exception)``.
        """
        if self.tracer is not None:
            self.tracer.request = f"{self.group}|{label}"
        t0 = time.perf_counter()
        try:
            return fn(*args), None
        except Exception as exc:   # the request failed; the caller counts it
            return None, exc
        finally:
            p.charge(stage, t0, time.perf_counter())

    @contextlib.contextmanager
    def untraced(self):
        """Input generation and oracle checks: keep them out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    def path(self, name):
        return os.path.join(self.workdir, name)


def self_peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def verify_ok(res: CliResult) -> bool:
    return res.code == 0 and res.stdout.startswith("verify: OK")
