"""Collision spectra, universal-hash verdicts and orthogonal-array checks.

The functional form of a mosaic of tactical configurations is a candidate
universal hash function; its quality is read off the exact collision counts
|{s : f(x, s) = f(x', s)}| computed here by full enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .designs import GDDParams
from .mosaics import Mosaic


@dataclass(frozen=True)
class CollisionSpectrum:
    counts: np.ndarray      # v x v symmetric, diagonal zero
    v: int
    b: int
    a: int
    min_count: int
    max_count: int

    @property
    def min_normalized(self) -> Fraction:
        return Fraction(self.min_count, self.b)

    @property
    def max_normalized(self) -> Fraction:
        return Fraction(self.max_count, self.b)

    @property
    def constant(self) -> bool:
        return self.min_count == self.max_count


def collision_spectrum(M: Mosaic) -> CollisionSpectrum:
    """Exact pairwise collision counts by exhaustive enumeration, O(v^2 b)."""
    F = M.color_matrix()
    v = M.v
    counts = np.zeros((v, v), dtype=np.int64)
    for x in range(v - 1):
        eq = (F[x + 1:] == F[x]).sum(axis=1)
        counts[x, x + 1:] = eq
        counts[x + 1:, x] = eq
    off = counts[~np.eye(v, dtype=bool)]
    return CollisionSpectrum(counts=counts, v=v, b=M.b, a=M.a,
                             min_count=int(off.min()), max_count=int(off.max()))


def stinson_floor(v: int, a: int) -> Fraction:
    """The minimal achievable maximal collision probability (v-a)/(a(v-1))."""
    return Fraction(v - a, a * (v - 1))


def is_universal(M: Mosaic, spectrum: Optional[CollisionSpectrum] = None) -> bool:
    """max_pair |{s : f(x,s) = f(x',s)}| / b <= 1/a, decided in exact integers."""
    spec = spectrum or collision_spectrum(M)
    return spec.max_count * spec.a <= spec.b


def is_optimally_universal(M: Mosaic, spectrum: Optional[CollisionSpectrum] = None) -> bool:
    """Constant collision spectrum at the Stinson floor (v-a)/(a(v-1))."""
    spec = spectrum or collision_spectrum(M)
    if not spec.constant:
        return False
    return spec.min_count * spec.a * (spec.v - 1) == spec.b * (spec.v - spec.a)


@dataclass(frozen=True)
class UHFVerdict:
    universal: bool
    kr: int
    lambda1_v: int
    note: str = ""


def check_regular_gdd_uhf(params: GDDParams) -> UHFVerdict:
    """Universality of the functional form of a mosaic of regular GDDs: since
    kr > lambda2 v holds by regularity, only kr >= lambda1 v needs checking."""
    kr = params.k * params.r
    l1v = params.lambda1 * params.v
    universal = kr >= l1v
    note = "kr >= lambda1 v" if universal else "kr < lambda1 v"
    if params.lambda1 <= params.lambda2:
        note = "lambda1 <= lambda2 (always universal)"
    return UHFVerdict(universal=universal, kr=kr, lambda1_v=l1v, note=note)


def _pair_counts(F, x: int, a: int) -> np.ndarray:
    """Row i holds |{s : F[x, s] = alpha, F[x + 1 + i, s] = alpha'}| at column
    alpha' a + alpha: one bincount over the row-offset pair codes
    i a^2 + F[x', s] a + F[x, s], streamed per x to keep O(v b) memory."""
    n = F.shape[0] - x - 1
    codes = (np.arange(n)[:, None] * (a * a) + F[x + 1:] * a + F[x]).ravel()
    return np.bincount(codes, minlength=n * a * a).reshape(n, a * a)


def epsilon_asu(M: Mosaic) -> Fraction:
    """max over pairs x != x' and colors (alpha, alpha') of
    |{s : f(x,s)=alpha, f(x',s)=alpha'}| / b."""
    F = M.color_matrix().astype(np.int64)
    worst = max((int(_pair_counts(F, x, M.a).max()) for x in range(M.v - 1)), default=0)
    return Fraction(worst, M.b)


@dataclass(frozen=True)
class OAReport:
    is_oa: bool
    lam: Optional[int]
    column_counts_constant: bool
    column_count: Optional[int]
    epsilon: Optional[Fraction]
    reason: str = ""


def oa_check(array, a: Optional[int] = None) -> OAReport:
    """Orthogonal-array test for a v x b array over [a]: every ordered pair of
    symbols appears exactly lambda = b / a^2 times in every pair of rows.

    Also reports whether the per-column symbol counts |{x : f(x,s) = alpha}|
    are constant in (s, alpha); an OA with constant counts induces a mosaic of
    BIBDs, which forces a = 1.
    """
    F = np.asarray(array, dtype=np.int64)
    v, b = F.shape
    if a is None:
        a = int(F.max()) + 1
    if F.min() < 0 or F.max() >= a:
        raise ValueError(f"array entries must lie in [0, {a})")
    counts_flat = np.bincount((np.arange(b) * a + F).ravel(), minlength=b * a)
    const = bool((counts_flat == counts_flat[0]).all())
    col_count = int(counts_flat[0]) if const else None

    if b % (a * a):
        return OAReport(False, None, const, col_count, None,
                        reason=f"b = {b} is not divisible by a^2 = {a * a}")
    lam = b // (a * a)
    for x in range(v - 1):
        counts = _pair_counts(F, x, a)
        bad = np.flatnonzero((counts != lam).any(axis=1))
        if bad.size:
            # every row sums to b = lam a^2, so the first non-constant row has
            # a count above lam, the largest of all rows up to it
            return OAReport(False, None, const, col_count, Fraction(int(counts[bad[0]].max()), b),
                            reason="pair counts are not constant")
    return OAReport(True, lam, const, col_count, Fraction(lam * a, b))


def hashprops_report(M: Mosaic) -> dict:
    """JSON-ready summary used by the command-line front end."""
    spec = collision_spectrum(M)
    return {
        "spectrum_min": spec.min_count,
        "spectrum_max": spec.max_count,
        "spectrum_min_normalized": float(spec.min_normalized),
        "spectrum_max_normalized": float(spec.max_normalized),
        "stinson_floor": float(stinson_floor(spec.v, spec.a)),
        "universal": is_universal(M, spec),
        "optimally_universal": is_optimally_universal(M, spec),
        "epsilon": float(epsilon_asu(M)),
    }
