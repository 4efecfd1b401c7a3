"""Benchmark of the designmosaics package: three workloads, traced and counted.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; ``--workload all`` runs the three workloads in turn.  Diagnostics go
to the lines before the last; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# the benchmark's own numpy stays on one BLAS thread, like its workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
PLAIN_WORKERS = 8             # fresh processes of a --trace 0 run
DEADLINE_S = 170              # a run must end within 180 s

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_rss_mb": "MB"}
WORK_UNIT = {"analyze": "commands", "simulate": "trials", "codec": "messages"}


class BenchError(Exception):
    pass


def calibration() -> dict:
    """Fixed pure-Python and numpy loops; a host-speed diagnostic, never a divisor."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    py_ms = (time.perf_counter() - t) * 1e3
    data = np.random.default_rng(0).random(1_000_000)
    t = time.perf_counter()
    for _ in range(5):
        np.sort(data)
    np_ms = (time.perf_counter() - t) * 1e3
    return {"python_ms": py_ms, "numpy_ms": np_ms}


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "designmosaics" / "__init__.py").is_file():
        raise BenchError(f"no package source under {root / 'src'}; run from a checkout root")
    return root


def worker(root, workload, seed, seconds, mode, deadline) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker exceeded the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(hist: dict, q: float) -> int:
    """The smallest latency with at least a share q of the samples at or below it."""
    need, seen = q * sum(hist.values()), 0
    for us in sorted(hist):
        seen += hist[us]
        if seen >= need:
            return us
    raise ValueError("empty histogram")


def end_to_end(root, workload, seed, seconds, deadline):
    # fresh workers one after another, each measuring a share of --seconds, so
    # that the set-up samples are spread through the run
    plains = [worker(root, workload, seed, seconds / PLAIN_WORKERS, "plain", deadline)
              for _ in range(PLAIN_WORKERS)]
    setup_samples = [w["setup_s"] for w in plains]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plains),
        "work_rss_mb": statistics.median(w["first_pass_peak_mb"] - w["import_rss_mb"]
                                         for w in plains),
    }
    report = {name: {"value": val, "unit": END_TO_END[name]} for name, val in metrics.items()}
    job_s = {}
    for w in plains:
        for name, times in w["job_s"].items():
            job_s.setdefault(name, []).extend(times)
    work = sum(w["work"] for w in plains)
    elapsed = sum(w["elapsed"] for w in plains)
    attempted = sum(w["attempted"] for w in plains)
    failed = sum(w["failed"] for w in plains)
    # every job of the list at its fastest in the run; README.md says why this
    # is reported and not gated
    report["wall_s"] = {"value": sum(min(times) for times in job_s.values()), "unit": "s",
                        "jobs_run": sum(len(times) for times in job_s.values())}
    report["work_per_s"] = {"value": work / elapsed, "unit": f"{WORK_UNIT[workload]}/s"}
    if workload == "codec":
        hist = Counter()
        for w in plains:
            hist.update({int(us): n for us, n in w["latency_us"].items()})
        samples = sum(hist.values())
        report["msg_p50_us"] = {"value": percentile(hist, 0.50), "unit": "us", "samples": samples}
        report["msg_p99_us"] = {"value": percentile(hist, 0.99), "unit": "us", "samples": samples}
    else:
        lat = [t for times in job_s.values() for t in times]
        report["cmd_p50_ms"] = {"value": statistics.median(lat) * 1e3, "unit": "ms",
                                "samples": len(lat)}
    report["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    pvalues = [w["min_pvalue"] for w in plains if w["min_pvalue"] is not None]
    diagnostics = {"setup_samples_s": setup_samples,
                   "import_s": [w["import_s"] for w in plains],
                   "passes": sum(len(w["passes"]) for w in plains),
                   "min_pvalue": min(pvalues) if pvalues else None,
                   "failures": [f for w in plains for f in w["failures"]][:5],
                   "job_ms_fastest_median": {name: [min(times) * 1e3,
                                                    statistics.median(times) * 1e3]
                                             for name, times in job_s.items()}}
    return plains, metrics, report, diagnostics


def per_layer(root, workload, seed, seconds, deadline):
    once = worker(root, workload, seed, seconds, "once", deadline)
    traced = worker(root, workload, seed, seconds, "traced", deadline)
    counting = worker(root, workload, seed, seconds, "counting", deadline)
    metrics = {**traced["layers"], **counting["layers"]}
    report = {name: {"value": val, "unit": unit_of(name)} for name, val in metrics.items()}
    diagnostics = {
        # the same fixed work untraced, traced and counted
        "tracing_overhead_s": traced["elapsed"] - once["elapsed"],
        "untraced_s": once["elapsed"],
        "traced_s": traced["elapsed"],
        "counting_s": counting["elapsed"],
        "failures": once["failures"] + traced["failures"] + counting["failures"],
    }
    return [once, traced, counting], metrics, report, diagnostics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(root, workload, seed, seconds, trace, deadline):
    measure = per_layer if trace else end_to_end
    procs, metrics, report, diagnostics = measure(root, workload, seed, seconds, deadline)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    return attempted, failed, metrics, report, diagnostics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S * (3 if args.workload == "all" else 1)
    try:
        root = checkout_root()
        calib_start = calibration()
        attempted = failed = 0
        metrics = {}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            att, fail, met, report, diag = run_workload(root, name, args.seed, args.seconds,
                                                        args.trace, deadline)
            attempted += att
            failed += fail
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in met.items()})
            print(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                              "report": report, "diagnostics": diag}))
        print(json.dumps({"calibration": {"start": calib_start, "end": calibration()}}))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit_of(name) if args.trace
                           else END_TO_END[name.rsplit(".", 1)[-1]]}
                    for name, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
