"""One pass of a workload in a fresh interpreter.

    python3 worker.py SRC MANIFEST RESULT [--setup-only] [--trace SPANS]

Imports `arrangements` from SRC, reads the case list, writes "ready" on
stdout, then runs every case through `arrangements.cli.main(argv)` with its
stdout and stderr captured.  Each case has a time budget; a case that runs
past it, raises or exits through SystemExit is recorded, not fatal.  The
result file holds each case's exit code, output, error, start, wall and
CPU seconds, the speed samples, and the worker's peak resident memory; a
--setup-only worker's holds its speed samples and its CPU seconds until
ready.  With --trace the package is wrapped by `tracer.Recorder`; spans go
to SPANS as JSON lines and their summary into the result.

Host speed.  On a shared 2-vCPU VM other tenants slowed the host by up to
1.9x, in two ways.  The hypervisor took the CPU away for stretches (steal
time); a kernel with paravirtual time accounting leaves that out of a
process's CPU time, so set-up and cases are timed in CPU seconds
(`cpu_seconds`).  And the CPU ran slower while it was ours, switching
between a fast and a slow speed within seconds; so while the worker runs,
a child (`Sampler`) takes the CPU time of a fixed pure-Python loop
(`speed_probe`, under a millisecond, sharing no code with the package)
every SAMPLE_EVERY_S.  The child is forked before the package is imported,
so no package code runs in it and what the package leaves in the worker's
heap cannot change the probe; worker and child are pinned to the same CPU,
so the probe sees the speed the worker ran at.  run.py scales the set-up
time and each case's time by PROBE_REF_S over the mean probe taken
meanwhile: the CPU time it would take on a host that runs the probe in
PROBE_REF_S seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import select
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

CASE_BUDGET_S = 30.0
PROBE_REF_S = 0.0005
SAMPLE_EVERY_S = 0.025


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise CaseTimeout(f"ran past the {CASE_BUDGET_S:g} s case budget")


def cpu_seconds():
    """CPU seconds of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    ended = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + ended.ru_utime + ended.ru_stime


def speed_probe():
    """CPU seconds of fixed work of the package's kind: exact rational
    elimination and tuple-keyed dictionaries."""
    start = thread_time()
    seen = {}
    for s in range(1):
        rows = [[Fraction((i * 7 + j * 3 + s) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
                for i in range(6)]
        for c in range(6):
            p = next((i for i in range(c, 6) if rows[i][c]), None)
            if p is None:
                continue
            rows[c], rows[p] = rows[p], rows[c]
            for i in range(c + 1, 6):
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        seen[tuple(tuple(r) for r in rows)] = s
    return thread_time() - start


class Sampler:
    """A forked child that times `speed_probe` every SAMPLE_EVERY_S until
    `stop`, which returns the samples as [start, seconds] pairs."""

    def __init__(self):
        stop_r, self.stop_w = os.pipe()
        self.out_r, out_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self.stop_w)
            os.close(self.out_r)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # release the parent's stdout
            speed_probe()  # the first run is slow: it warms the child up
            samples = []
            while not select.select([stop_r], [], [], SAMPLE_EVERY_S)[0]:
                samples.append([perf_counter(), speed_probe()])
            with os.fdopen(out_w, "w") as out:
                json.dump(samples, out)
            os._exit(0)
        os.close(stop_r)
        os.close(out_w)

    def stop(self):
        os.close(self.stop_w)
        with os.fdopen(self.out_r) as out:
            samples = json.load(out)
        os.waitpid(self.pid, 0)
        return samples


def run_case(call, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    outcome = {"exit": None, "error": None}
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CASE_BUDGET_S)
    outcome["start"] = start = perf_counter()
    cpu = cpu_seconds()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            outcome["exit"] = call(argv)
    except SystemExit as exc:
        outcome["exit"] = exc.code if isinstance(exc.code, int) else 1
    except (Exception, CaseTimeout):
        outcome["error"] = traceback.format_exc()
    finally:
        outcome["seconds"] = perf_counter() - start
        outcome["cpu_seconds"] = cpu_seconds() - cpu
        signal.setitimer(signal.ITIMER_REAL, 0)
    outcome["stdout"] = stdout.getvalue()
    outcome["stderr"] = stderr.getvalue()
    return outcome


def run_cases(cases, main, recorder):
    outcomes = {}
    for case in cases:
        call = main if recorder is None else recorder.wrap(f"cli.{case['argv'][0]}", main)
        outcomes[case["id"]] = run_case(call, case["argv"])
    return outcomes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import arrangements.cli

    if not Path(arrangements.__file__).resolve().is_relative_to(src):
        sys.exit(f"arrangements imported from {arrangements.__file__}, not {src}")
    cases = json.loads(Path(args.manifest).read_text())
    recorder = None
    if args.trace:
        from tracer import Recorder, summarize

        recorder = Recorder()
        recorder.install()
    ready_cpu = cpu_seconds()
    print("ready", flush=True)
    if args.setup_only:
        Path(args.result).write_text(json.dumps(
            {"cpu_seconds": ready_cpu, "samples": sampler.stop()}))
        return

    try:
        outcomes = run_cases(cases, arrangements.cli.main, recorder)
    finally:
        samples = sampler.stop()
    result = {
        "outcomes": outcomes,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        recorder.write_jsonl(args.trace)
        result["layers"] = summarize(recorder.spans)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
