"""Workload definitions: mosaic rungs, seeded inputs, job lists, output gates.

Every input the program sees is generated here from the workload seed.  The
expected sizes and collision counts come from the families' closed forms, not
from the program's own output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze", "simulate", "codec")

SIM_TRIALS = 2_000
# A pass makes twelve chi-square tests (the passes of a run repeat them with
# the same seeds) and comparing two commits takes a few dozen seeds: 1e-6 keeps
# chance alarms far below 1e-3 per comparison.  At 2 000 trials a key value
# whose probability is off by 26-43% (a = 4-8) still fails with 90% power,
# against 20-33% at the CLI default 1e-3; decode errors and key disagreement
# fail the gate at any level.
SIM_SIGNIFICANCE = 1e-6
CODEC_JOB = 100             # messages in one timed codec job
# the fixed work of an untraced, traced or counting run
FIXED_PASSES = 10
CODEC_FIXED_MESSAGES = 20_000


@dataclass(frozen=True)
class Rung:
    family: str
    params: dict

    @property
    def label(self) -> str:
        return f"{self.family}({','.join(str(v) for v in self.params.values())})"

    @property
    def flags(self) -> list:
        out = ["--family", self.family]
        for key, val in self.params.items():
            out += [f"--{key}", str(val)]
        return out

    def closed_form(self):
        """(v, a, allowed collision counts) of the family at these parameters."""
        p = self.params
        if self.family == "m1":
            q, t = p["q"], p["t"]
            lam = (q ** (t - 1) - 1) // (q - 1)
            return q ** t, q, {q * lam}
        if self.family == "m4":
            return p["q"] * p["k"], p["q"], {0, p["q"]}
        a = (1 << p["t"]) + 1 - (1 << (p["t"] - p["l"]))
        v = a << p["l"]
        if self.family == "m2":
            return v, a, {a}
        return p["u"] * v, a, {a * ((1 << p["t"]) + 1), a}       # m3


# Every command takes 10-70 ms, so that a run repeats it dozens of times and
# keeps its fastest time (README.md).
RUNGS = [
    Rung("m1", {"t": 3, "q": 4}),
    Rung("m4", {"k": 9, "q": 8}),
    Rung("m2", {"t": 3, "l": 2}),
    Rung("m3", {"t": 3, "l": 2, "u": 2}),
]
CODEC_RUNG = Rung("m2", {"t": 7, "l": 3})


@dataclass(frozen=True)
class Job:
    """One CLI command and the gate its JSON output must pass."""
    name: str
    argv: list
    rung: Rung
    kind: str


def _write_csv(path: Path, matrix) -> str:
    # %.17g round-trips every float64, so Channel's 1e-12 row-sum check holds
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
    return str(path)


def make_jobs(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's input files and return its fixed job list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = []
    if workload == "analyze":
        for rung in RUNGS:
            v = rung.closed_form()[0]
            chan = _write_csv(workdir / f"{rung.label}_channel.csv",
                              rng.dirichlet(np.ones(v), size=v))
            src = _write_csv(workdir / f"{rung.label}_source.csv",
                             rng.dirichlet(np.ones(v * v)).reshape(v, v))
            jobs += [
                Job(f"verify {rung.label}", ["verify"] + rung.flags, rung, "verify"),
                Job(f"bounds wiretap {rung.label}",
                    ["bounds", "--scenario", "wiretap", "--channel", chan] + rung.flags,
                    rung, "bounds-wiretap"),
                Job(f"bounds pa {rung.label}",
                    ["bounds", "--scenario", "pa", "--source", src] + rung.flags,
                    rung, "bounds-pa"),
                Job(f"hashprops {rung.label}", ["hashprops"] + rung.flags, rung, "hashprops"),
            ]
    elif workload == "simulate":
        for rung in RUNGS:
            v = rung.closed_form()[0]
            W = np.full((v, v), 0.2 / (v - 1))
            np.fill_diagonal(W, 0.8)
            chan = _write_csv(workdir / f"{rung.label}_channel.csv", W)
            src = _write_csv(workdir / f"{rung.label}_source.csv",
                             rng.dirichlet(np.ones(v * v)).reshape(v, v))
            common = ["--trials", str(SIM_TRIALS), "--significance", str(SIM_SIGNIFICANCE)]
            seeds = rng.integers(0, 2 ** 31, size=2)
            jobs += [
                Job(f"simulate wiretap {rung.label}",
                    ["simulate", "--scenario", "wiretap", "--channel", chan,
                     "--seed", str(seeds[0])] + common + rung.flags, rung, "simulate"),
                Job(f"simulate pa {rung.label}",
                    ["simulate", "--scenario", "pa", "--source", src,
                     "--seed", str(seeds[1])] + common + rung.flags, rung, "simulate"),
            ]
    else:
        raise ValueError(f"{workload} has no CLI job list")
    return jobs


def codec_stream(seed: int):
    """The (s, alpha) message stream and the encoder's own generator."""
    r = (1 << CODEC_RUNG.params["t"]) + 1        # parallel classes; b = r a
    a = CODEC_RUNG.closed_form()[1]
    stream = np.random.default_rng([seed, WORKLOADS.index("codec")])
    encoder = np.random.default_rng([seed, WORKLOADS.index("codec"), 1])

    def block(n):
        return (stream.integers(0, r * a, size=n).tolist(),
                stream.integers(0, a, size=n).tolist())
    return block, encoder


def check(job: Job, rc: int, out: dict):
    """None when the command's output passes its gate, else the reason."""
    v, a, collisions = job.rung.closed_form()
    if rc != 0:
        return f"exit code {rc}"
    if job.kind == "verify":
        if not (out.get("ok") is True and out.get("v") == v and out.get("a") == a):
            return "verify did not report ok with the closed-form sizes"
    elif job.kind == "bounds-wiretap":
        ex = out["exact"]
        if not (out["dominates"] and ex["chain_ok"] and ex["tv_chain_ok"]):
            return "wiretap bound does not dominate or a chain check failed"
    elif job.kind == "bounds-pa":
        ex = out["exact"]
        if not (out["dominates"] and ex["strong_secrecy_ok"]
                and ex["key_uniformity_deviation"] <= 1e-9):
            return "pa bound does not dominate, or the key is not uniform"
    elif job.kind == "hashprops":
        seen = {out["spectrum_min"], out["spectrum_max"]}
        if not seen <= collisions:
            return f"collision counts {sorted(seen)} outside {sorted(collisions)}"
    elif job.kind == "simulate":
        if not (out["decode_errors"] == 0 and out["agreement"] == 1):
            return "decode errors or key disagreement"
    return None


def min_pvalue(out: dict) -> float:
    vals = [p for key, p in out.get("pvalues", {}).items() if key not in ("statistic", "df")]
    return min(vals) if vals else math.nan
