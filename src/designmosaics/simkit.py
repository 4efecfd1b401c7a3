"""End-to-end wiretap and privacy-amplification simulations.

Both scenarios have exact joint laws (computed in :mod:`.security`), so the
Monte Carlo pipelines here are calibration checks: decode correctness, key
agreement, and chi-square goodness of fit of the empirical histograms against
the exact distributions, pooling the cells whose expected count is below 5.

The statistics hold no (z, s, alpha) array: the joint chi-square asks the
joint law for P_{ZS|A=alpha} one color at a time, keeps only the cells whose
expected count reaches the pooling threshold and the mass of the rest, and
counts the observed cell codes with ``np.unique``; the empirical worst-key
total variation reads the observed cells only; channel draws search each
trial's cumulative row instead of comparing against it; batch mutual
information counts the observed cell codes instead of filling a dense
contingency table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import chi2 as chi2_dist

from .mosaics import Mosaic
from .security import (
    Channel,
    JointXZ,
    PAJoint,
    WiretapJoint,
    exact_pa_metrics,
    exact_wiretap_metrics,
)


# ---------------------------------------------------------------------------
# channel and source constructors
# ---------------------------------------------------------------------------

def identity_channel(v: int) -> Channel:
    return Channel(np.eye(v))


def symmetric_channel(v: int, crossover: float) -> Channel:
    if not 0 <= crossover <= 1:
        raise ValueError("crossover must lie in [0, 1]")
    W = np.full((v, v), crossover / (v - 1) if v > 1 else 0.0)
    np.fill_diagonal(W, 1.0 - crossover)
    return Channel(W)


def constant_column_channel(v: int, output_dist=None) -> Channel:
    """Zero-leakage channel: every input produces the same output law."""
    q = np.full(2, 0.5) if output_dist is None else np.asarray(output_dist, float)
    if (q < 0).any() or abs(q.sum() - 1) > 1e-9:
        raise ValueError("output distribution must be a probability vector")
    return Channel(np.tile(q, (v, 1)))


def channel_from_csv(path) -> Channel:
    W = np.atleast_2d(np.loadtxt(path, delimiter=","))
    return Channel(W)


def random_channel(v: int, nz: int, rng) -> Channel:
    return Channel(rng.dirichlet(np.ones(nz), size=v))


def random_source(v: int, nz: int, rng) -> JointXZ:
    return JointXZ(rng.dirichlet(np.ones(v * nz)).reshape(v, nz))


def independent_source(v: int, nz: int) -> JointXZ:
    """Uniform X independent of a uniform Z: the zero-leakage source."""
    return JointXZ(np.full((v, nz), 1.0 / (v * nz)))


def source_from_csv(path) -> JointXZ:
    P = np.atleast_2d(np.loadtxt(path, delimiter=","))
    return JointXZ(P)


# ---------------------------------------------------------------------------
# chi-square goodness of fit
# ---------------------------------------------------------------------------

def chi_square_gof(counts, probs):
    """Pearson chi-square against an exact law, pooling rare cells.

    Cells with expected count below 5 are merged into one pooled bin, the
    last one.  Observations in zero-probability cells are impossible
    under the claimed law, so they force p = 0.
    """
    counts = np.asarray(counts).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    n = float(counts.sum())
    if counts[probs <= 0].sum() > 0:
        return math.inf, 0, 0.0
    keep = probs > 0
    expected = probs[keep]
    expected *= n
    counts = counts[keep]
    big = expected >= 5.0
    m = int(big.sum())
    pooled = m < len(big)
    obs = np.empty(m + pooled)
    exp = np.empty(m + pooled)
    obs[:m] = counts[big]
    exp[:m] = expected[big]
    if pooled:
        rare = ~big
        obs[m] = counts[rare].sum()
        exp[m] = expected[rare].sum()
    pos = exp > 0
    obs, exp = obs[pos], exp[pos]
    obs -= exp
    np.square(obs, out=obs)
    obs /= exp
    stat = float(obs.sum())
    df = max(len(exp) - 1, 1)
    return stat, df, float(chi2_dist.sf(stat, df))


def _joint_chi_square(law, a: int, cells):
    """chi_square_gof of the trials' cell codes ``(z*b + s)*a + alpha`` against
    P_{ZSA}(z, s, alpha) = law(alpha)[z, s], with no (z, s, alpha) array.

    One pass over the colors collects the cells whose expected count reaches
    5, in code order, and the mass of the other positive
    cells, which form the pooled bin, the last one, when that mass is
    positive; the observed counts come from ``np.unique`` of the codes.  The
    statistic is the dense histogram's up to the order in which the pooled
    mass is summed.  An observation in a cell of probability zero gives
    (inf, 0, 0.0).
    """
    n = len(cells)
    seen, freq = np.unique(cells, return_counts=True)
    seen_zs, seen_al = np.divmod(seen, a)
    codes, probs = [], []
    rare_mass = 0.0
    for al in range(a):
        p = law(al).ravel()
        if (p[seen_zs[seen_al == al]] <= 0).any():
            return math.inf, 0, 0.0
        big = p * n >= 5.0
        codes.append(np.flatnonzero(big) * a + al)
        probs.append(p[big])
        rare_mass += float(p[(p > 0) & ~big].sum())
    codes = np.concatenate(codes)
    order = np.argsort(codes)
    codes, probs = codes[order], np.concatenate(probs)[order]
    at = np.minimum(np.searchsorted(seen, codes), len(seen) - 1)
    counts = np.where(seen[at] == codes, freq[at], 0)
    if rare_mass > 0:
        counts = np.append(counts, n - counts.sum())
        probs = np.append(probs, rare_mass)
    return chi_square_gof(counts, probs)


def _miller_madow_entropy(counts) -> float:
    """Plug-in Shannon entropy (bits) with the Miller-Madow bias correction."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    p = counts[counts > 0] / n
    h = float(-(p * np.log2(p)).sum())
    return h + (len(p) - 1) / (2.0 * n * math.log(2.0))


def _empirical_mi(cells, a: int) -> float:
    """Miller-Madow corrected plug-in estimate of I(A ^ rest) from the cell
    codes rest * a + alpha of the observations.  np.unique lists the nonzero
    cells of the (rest, a) contingency table, and of its row marginal, in
    row-major order, without the table."""
    return (_miller_madow_entropy(np.bincount(cells % a, minlength=a))
            + _miller_madow_entropy(np.unique(cells // a, return_counts=True)[1])
            - _miller_madow_entropy(np.unique(cells, return_counts=True)[1]))


# ---------------------------------------------------------------------------
# simulation pipelines
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    """A wiretap run reads ``channel`` and ``p_a``, a privacy-amplification
    run ``source``; each raises ``ValueError`` on a field that it does not read."""
    mosaic: Mosaic
    trials: int
    seed: int
    channel: Optional[Channel] = None
    source: Optional[JointXZ] = None
    p_a: Optional[np.ndarray] = None
    significance: float = 1e-3


@dataclass
class SimResult:
    scenario: str
    seed: int
    trials: int
    decode_errors: int
    agreement: float
    cells: np.ndarray           # per-trial (z, s, alpha) codes (z*b + s)*a + alpha
    pvalues: dict
    empirical: dict
    exact: dict
    passed: bool

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "trials": self.trials,
            "decode_errors": self.decode_errors,
            "agreement": self.agreement,
            "pvalues": self.pvalues,
            "empirical": self.empirical,
            "exact": self.exact,
            "passed": self.passed,
        }


def _draw_outputs(W, xs, rng):
    """One channel output per input: z = #{z' : cum[x, z'] < u} for a uniform
    u, by a binary search of each trial's cumulative row (nondecreasing, as W
    is nonnegative) in O(trials) memory.  A u beyond the row's total, possible
    when a row sums to 1 - tol, is clamped to the last z with w(z|x) > 0."""
    nz = W.shape[1]
    cum = np.cumsum(W, axis=1)
    last = nz - 1 - np.argmax(W[:, ::-1] > 0, axis=1)
    us = rng.random(len(xs))
    lo = np.zeros(len(xs), dtype=np.int64)
    hi = np.full(len(xs), nz, dtype=np.int64)
    for _ in range(nz.bit_length()):
        mid = (lo + hi) // 2
        below = cum[xs, np.minimum(mid, nz - 1)] < us
        below &= mid < hi
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return np.minimum(lo, last[xs])


def wiretap_roundtrip(cfg: SimConfig) -> SimResult:
    """Seed, message, randomized inverse, channel draw; Bob decodes via f,
    read from the color matrix the exact joint law materializes anyway.

    The trials' (z, s, alpha) cells are chi-square tested against the exact
    wiretap joint, read one color at a time; the mutual-information estimate
    comes with the standard error over min(10, trials) batches.
    """
    if cfg.channel is None:
        raise ValueError("wiretap simulation needs a channel")
    if cfg.source is not None:
        raise ValueError("wiretap simulation does not read SimConfig.source")
    M, n = cfg.mosaic, cfg.trials
    if n < 1:
        raise ValueError("trial count must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    p_a = np.full(M.a, 1.0 / M.a) if cfg.p_a is None else np.asarray(cfg.p_a, float)

    alphas = rng.choice(M.a, size=n, p=p_a)
    seeds = rng.integers(0, M.b, size=n)
    kappas = rng.integers(0, M.k, size=n)
    # one array call of g per distinct seed, over the trials that drew it
    order = np.argsort(seeds, kind="stable")
    xs = np.empty(n, dtype=np.int64)
    for run in np.split(order, np.flatnonzero(np.diff(seeds[order])) + 1):
        xs[run] = M._g(int(seeds[run[0]]), alphas[run], kappas[run])
    decode_errors = int((M.color_matrix()[xs, seeds] != alphas).sum())
    zs = _draw_outputs(cfg.channel.W, xs, rng)

    joint = WiretapJoint(M, cfg.channel, p_a)
    cells = (zs * M.b + seeds) * M.a + alphas
    stat, df, pval = _joint_chi_square(lambda al: joint.cond(al) * joint.p_a[al], M.a, cells)

    exact = exact_wiretap_metrics(joint)
    batches = min(10, n)
    per_batch = n // batches
    batch_mi = [_empirical_mi(cells[i * per_batch:(i + 1) * per_batch], M.a)
                for i in range(batches)]
    mi_mean = float(np.mean(batch_mi))
    mi_se = float(np.std(batch_mi, ddof=1) / math.sqrt(len(batch_mi))) if len(batch_mi) > 1 else 0.0

    passed = decode_errors == 0 and pval >= cfg.significance
    return SimResult(
        scenario="wiretap", seed=cfg.seed, trials=n,
        decode_errors=decode_errors, agreement=1.0 - decode_errors / n,
        cells=cells,
        pvalues={"joint_zsa": pval, "statistic": stat, "df": df},
        empirical={"mi_batch_mean": mi_mean, "mi_batch_se": mi_se},
        exact={"mutual_information": exact["mutual_information"], "tv": exact["tv"]},
        passed=bool(passed))


def pa_roundtrip(cfg: SimConfig) -> SimResult:
    """Shared-source draw, uniform seed, both parties hash; the key must be
    uniform and the trials' (z, s, key) cells must match the exact law, read
    one key at a time.

    Both parties hash the same x with the same seed, so ``agreement`` is 1 by
    construction; it is reported for the output format's sake.
    """
    if cfg.source is None:
        raise ValueError("privacy-amplification simulation needs a source")
    for name in ("channel", "p_a"):
        if getattr(cfg, name) is not None:
            raise ValueError(f"privacy-amplification simulation does not read SimConfig.{name}")
    M, n = cfg.mosaic, cfg.trials
    if n < 1:
        raise ValueError("trial count must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    src = cfg.source

    flat_idx = rng.choice(src.v * src.nz, size=n, p=src.P.ravel())
    xs, zs = np.divmod(flat_idx, src.nz)
    seeds = rng.integers(0, M.b, size=n)
    keys = M.color_matrix()[xs, seeds]

    joint = PAJoint(M, src)
    key_counts = np.bincount(keys, minlength=M.a)
    _, _, p_key = chi_square_gof(key_counts, np.full(M.a, 1.0 / M.a))
    cells = (zs * M.b + seeds) * M.a + keys
    stat, df, p_joint = _joint_chi_square(lambda al: joint.cond(al) / M.a,  # uniform key
                                          M.a, cells)

    # empirical worst-key TV against P_Z x U_S: sum |h - r| over the observed
    # (z, s) cells of each key, plus the reference mass r = P_Z(z)/b of the rest
    seen, freq = np.unique(cells, return_counts=True)
    zs_seen, key_seen = np.divmod(seen, M.a)
    r = joint.p_z[zs_seen // M.b] / M.b
    h = freq / key_counts[key_seen]
    key_tv = np.bincount(key_seen, np.abs(h - r), M.a) + 1.0 - np.bincount(key_seen, r, M.a)
    emp_tv = float(key_tv[key_counts > 0].max())

    exact = exact_pa_metrics(joint)
    passed = p_key >= cfg.significance and p_joint >= cfg.significance
    return SimResult(
        scenario="privacy-amplification", seed=cfg.seed, trials=n,
        decode_errors=0, agreement=1.0,
        cells=cells,
        pvalues={"key_uniformity": p_key, "joint_zsa": p_joint, "statistic": stat, "df": df},
        empirical={"max_tv": emp_tv},
        exact={"max_tv": exact["max_tv"], "max_kl": exact["max_kl"],
               "key_uniformity_deviation": exact["key_uniformity_deviation"]},
        passed=bool(passed))
