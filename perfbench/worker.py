"""One benchmark process: set up a workload, run it, check every output.

Run by ``run.py`` as a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload analyze --seed 1 --seconds 3 --mode plain

Modes: ``plain`` measures untraced for ``--seconds``.  The other modes run a
fixed amount of work, ten passes of the command list or 20 000 codec
messages: ``once`` untraced, ``traced`` with spans installed, ``counting``
with call counters installed.  Input files go to a temporary directory in the
working directory, removed at exit.  The last line of stdout is one JSON
object.
"""

import os
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

MODES = ("plain", "once", "traced", "counting")


def rss_mb() -> float:
    """Resident set size of this process now (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(cli, job):
    """Run one CLI command in-process; returns (latency_s, exit code, JSON or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except SystemExit as exc:          # argparse rejects its arguments
        rc = exc.code
    except Exception as exc:           # a traceback is a failed operation
        rc = f"raised {exc!r}"
    latency = time.perf_counter() - start
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    return latency, rc, payload


class Run:
    """Counts and samples of one worker process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.passes = []
        self.job_s = {}           # job name -> its latency in every pass
        self.work = 0
        # codec: per-message latency histogram in whole microseconds; its size
        # does not grow with the run
        self.latency_us = Counter()
        self.min_pvalue = None
        self.first_pass_peak_mb = None
        self.events = {"cli.exit_nonzero": 0, "mosaics.decode_errors": 0,
                       "simkit.calibration_failures": 0}

    def end_pass(self, start):
        self.passes.append(time.perf_counter() - start)
        if len(self.passes) == 1:
            # set-up plus one pass is fixed work, whatever the host speed
            self.first_pass_peak_mb = peak_rss_mb()

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def cli_pass(cli, jobs, run, workloads):
    start = time.perf_counter()
    for job in jobs:
        latency, rc, out = run_job(cli, job)
        run.attempted += 1
        run.job_s.setdefault(job.name, []).append(latency)
        if rc != 0:
            run.events["cli.exit_nonzero"] += 1
        if out is None:
            run.fail(f"{job.name}: exit {rc}, no JSON output")
            continue
        if job.kind == "simulate":
            run.work += workloads.SIM_TRIALS
            run.events["mosaics.decode_errors"] += out.get("decode_errors", 0)
            if not out.get("passed"):
                run.events["simkit.calibration_failures"] += 1
            p = workloads.min_pvalue(out)
            run.min_pvalue = p if run.min_pvalue is None else min(run.min_pvalue, p)
        else:
            run.work += 1
        reason = workloads.check(job, rc, out)
        if reason:
            run.fail(f"{job.name}: {reason}")
    run.end_pass(start)


def codec_pass(mosaics, M, messages, encoder, decode, run, n):
    start = time.perf_counter()
    clock = time.perf_counter_ns
    sample_inverse = mosaics.sample_inverse
    hist = run.latency_us
    S, A = messages(n)
    for s, alpha in zip(S, A):
        t = clock()
        try:
            ok = decode(M, sample_inverse(M, s, alpha, encoder), s) == alpha
        except ValueError:             # sample_inverse found f(g(s, alpha)) != alpha
            ok = False
        hist[(clock() - t) // 1000] += 1
        if not ok:
            run.events["mosaics.decode_errors"] += 1
            run.fail(f"message (s={s}, alpha={alpha}) did not round-trip")
    run.attempted += n
    run.work += n
    run.end_pass(start)
    run.job_s.setdefault(f"{n} messages", []).append(run.passes[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("analyze", "simulate", "codec"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=MODES, required=True)
    args = ap.parse_args(argv)

    t = time.perf_counter()
    from designmosaics import cli, families, mosaics
    import_s = time.perf_counter() - t
    import_rss_mb = rss_mb()

    import probes
    import workloads

    tracer = counter = None
    if args.mode == "traced":
        tracer = probes.Tracer()
        tracer.install()
    elif args.mode == "counting":
        counter = probes.Counter()
        counter.install()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    try:
        run = Run()
        if args.workload == "codec":
            messages, encoder = workloads.codec_stream(args.seed)
            rung = workloads.CODEC_RUNG
            M = families.build_family(rung.family, **rung.params)
            for s in range(M.b):           # one g call per block fills the block cache
                M.g(s, 0, 0)
        else:
            jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if counter is not None:
            counter.reset()

        if args.workload == "codec":
            decode = mosaics.Mosaic.f
            if tracer is not None:
                def decode(M, x, s, f=mosaics.Mosaic.f, span=tracer.span):
                    with span("mosaics.decode_s"):
                        return f(M, x, s)
            if args.mode != "plain":
                codec_pass(mosaics, M, messages, encoder, decode, run,
                           workloads.CODEC_FIXED_MESSAGES)
            else:
                start = time.perf_counter()
                while time.perf_counter() - start < args.seconds:
                    codec_pass(mosaics, M, messages, encoder, decode, run,
                               workloads.CODEC_JOB)
        else:
            start = time.perf_counter()
            while True:
                cli_pass(cli, jobs, run, workloads)
                if args.mode != "plain":
                    done = len(run.passes) == workloads.FIXED_PASSES
                else:
                    # start another whole pass only if it should end within the budget
                    elapsed = time.perf_counter() - start
                    done = elapsed + elapsed / len(run.passes) > args.seconds
                if done:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "mode": args.mode, "setup_s": setup_s, "import_s": import_s,
        "import_rss_mb": import_rss_mb,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "passes": run.passes, "job_s": run.job_s, "work": run.work,
        "elapsed": sum(run.passes),
        "events": run.events, "min_pvalue": run.min_pvalue,
        "peak_rss_mb": peak_rss_mb(), "first_pass_peak_mb": run.first_pass_peak_mb,
    }
    if args.workload == "codec":
        result["latency_us"] = run.latency_us
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.import_s"] = import_s
        result["layers"] = layers
    if counter is not None:
        result["layers"] = {**counter.metrics(), **run.events}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
