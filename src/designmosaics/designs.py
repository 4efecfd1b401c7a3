"""Dense 0/1 incidence structures and exact verification of design properties.

All verification runs in exact integer arithmetic.  Verification functions
return a parameter certificate on success and a falsy :class:`CheckFailure`
carrying the first witness of the violation otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class CheckFailure:
    reason: str
    witness: tuple = ()

    def __bool__(self):
        return False


@dataclass(frozen=True)
class TacticalParams:
    v: int
    b: int
    k: int
    r: int


@dataclass(frozen=True)
class BIBDParams:
    v: int
    k: int
    lam: int
    r: int
    b: int


@dataclass(frozen=True)
class GDDParams:
    u: int
    m: int
    k: int
    lambda1: int
    lambda2: int
    v: int
    r: int
    b: int
    partition: Optional[tuple] = None

    @classmethod
    def from_classes(cls, u, m, k, lambda1, lambda2, partition=None):
        if lambda2 < 1 or lambda1 < 0:
            raise ValueError("GDD requires lambda2 >= 1 and lambda1 >= 0")
        v = u * m
        num = lambda1 * (u - 1) + lambda2 * (m - 1) * u
        if k == 1 or num % (k - 1):
            raise ValueError("replication number is not an integer")
        r = num // (k - 1)
        if (v * r) % k:
            raise ValueError("block count is not an integer")
        return cls(u=u, m=m, k=k, lambda1=lambda1, lambda2=lambda2,
                   v=v, r=r, b=v * r // k, partition=partition)


@dataclass(frozen=True)
class Resolution:
    classes: tuple


@dataclass(frozen=True)
class AffineReport:
    affine: bool
    mu: Optional[int]
    reason: str = ""


class IncidenceStructure:
    """A v x b 0/1 incidence matrix; rows are points, columns block indices."""

    def __init__(self, matrix):
        N = np.asarray(matrix)
        if N.ndim != 2:
            raise ValueError("incidence matrix must be two-dimensional")
        if N.size and not np.isin(N, (0, 1)).all():
            raise ValueError("incidence matrix entries must be 0 or 1")
        self.N = N.astype(np.uint8)

    @property
    def v(self):
        return self.N.shape[0]

    @property
    def b(self):
        return self.N.shape[1]

    @classmethod
    def from_blocks(cls, v, blocks):
        N = np.zeros((v, len(blocks)), dtype=np.uint8)
        for s, blk in enumerate(blocks):
            N[list(blk), s] = 1
        return cls(N)

    def dual(self):
        return IncidenceStructure(self.N.T)

    def gram(self):
        """The exact integer matrix N N^T."""
        Nl = self.N.astype(np.int64)
        return Nl @ Nl.T

    def __eq__(self, other):
        return isinstance(other, IncidenceStructure) and np.array_equal(self.N, other.N)

    __hash__ = None

    def __repr__(self):
        return f"IncidenceStructure(v={self.v}, b={self.b})"


def verify_tactical(D: IncidenceStructure):
    """Constant replication r and block size k; bk = vr comes for free."""
    rows = D.N.sum(axis=1, dtype=np.int64)
    cols = D.N.sum(axis=0, dtype=np.int64)
    if rows.size == 0 or cols.size == 0:
        return CheckFailure("empty point or block set")
    r = int(rows[0])
    bad = np.flatnonzero(rows != r)
    if bad.size:
        x = int(bad[0])
        return CheckFailure("nonconstant replication", ("row", x, int(rows[x]), r))
    k = int(cols[0])
    bad = np.flatnonzero(cols != k)
    if bad.size:
        s = int(bad[0])
        return CheckFailure("nonconstant block size", ("column", s, int(cols[s]), k))
    assert D.b * k == D.v * r
    return TacticalParams(v=D.v, b=D.b, k=k, r=r)


def verify_bibd(D: IncidenceStructure, lam: int):
    """Tactical and N N^T = (r - lambda) I + lambda J, checked exactly."""
    if lam < 1:
        return CheckFailure("lambda must be at least 1", (lam,))
    tact = verify_tactical(D)
    if not tact:
        return tact
    expect = (tact.r - lam) * np.eye(D.v, dtype=np.int64) + lam * np.ones((D.v, D.v), dtype=np.int64)
    return _pair_counts(D, expect, BIBDParams(v=D.v, k=tact.k, lam=lam, r=tact.r, b=D.b))


def _pair_counts(D, expect, params):
    """``params`` when N N^T equals ``expect``, else the first row-major mismatch."""
    G = D.gram()
    for i, j in np.argwhere(G != expect)[:1]:
        return CheckFailure("pair count mismatch", (int(i), int(j), int(G[i, j]), int(expect[i, j])))
    return params


def _class_matrix(v, partition):
    classes = [tuple(int(x) for x in cls) for cls in partition or ()]
    flat = [x for cls in classes for x in cls]
    if sorted(flat) != list(range(v)):
        raise ValueError("partition does not cover the point set exactly once")
    sizes = {len(cls) for cls in classes}
    if len(sizes) != 1:
        raise ValueError("point classes must have equal sizes")
    C = np.zeros((v, v), dtype=np.int64)
    for cls in classes:
        idx = np.array(cls)
        C[np.ix_(idx, idx)] = 1
    return C, sizes.pop(), len(classes), tuple(classes)


def verify_gdd(D: IncidenceStructure, partition, lambda1: int, lambda2: int):
    """Tactical and N N^T = (r - l1) I + (l1 - l2) C + l2 J for the class matrix C."""
    if lambda2 < 1 or lambda1 < 0:
        return CheckFailure("GDD requires lambda2 >= 1 and lambda1 >= 0", (lambda1, lambda2))
    C, u, m, classes = _class_matrix(D.v, partition)
    tact = verify_tactical(D)
    if not tact:
        return tact
    expect = ((tact.r - lambda1) * np.eye(D.v, dtype=np.int64)
              + (lambda1 - lambda2) * C
              + lambda2 * np.ones((D.v, D.v), dtype=np.int64))
    return _pair_counts(D, expect, GDDParams(u=u, m=m, k=tact.k, lambda1=lambda1, lambda2=lambda2,
                                             v=D.v, r=tact.r, b=D.b, partition=classes))


def verify_resolution(D: IncidenceStructure, classes):
    """Each class must contain every point exactly once; r classes of size v/k."""
    tact = verify_tactical(D)
    if not tact:
        return tact
    if tact.k == 0 or D.v % tact.k:
        return CheckFailure("block size does not divide the point count", (tact.k, D.v))
    size = D.v // tact.k
    classes = [tuple(int(s) for s in cls) for cls in classes]
    flat = [s for cls in classes for s in cls]
    if sorted(flat) != list(range(D.b)):
        return CheckFailure("classes do not partition the block index set")
    if len(classes) != tact.r:
        return CheckFailure("class count differs from r", (len(classes), tact.r))
    for ci, cls in enumerate(classes):
        if len(cls) != size:
            return CheckFailure("class size differs from v/k", (ci, len(cls), size))
        cover = D.N[:, list(cls)].sum(axis=1)
        bad = np.flatnonzero(cover != 1)
        if bad.size:
            x = int(bad[0])
            return CheckFailure("point not covered exactly once", (ci, x, int(cover[x])))
    return Resolution(tuple(classes))


def classify_gdd(params: GDDParams) -> str:
    """Bose-Connor class: singular, semi-regular or regular."""
    r, l1, l2, v, k = params.r, params.lambda1, params.lambda2, params.v, params.k
    if r == l1:
        return "singular"
    if r > l1 and r * k == v * l2:
        return "semi-regular"
    if r > l1 and r * k > v * l2:
        return "regular"
    raise ValueError(f"parameters {params} fall in no Bose-Connor class; not a valid GDD")


def check_affine(D: IncidenceStructure, resolution: Resolution) -> AffineReport:
    """Affinity of a resolvable BIBD: Bose equality b = v + r - 1 plus constant mu,
    the size of every non-parallel block intersection, read from the block gram."""
    tact = verify_tactical(D)
    if not tact:
        return AffineReport(False, None, tact.reason)
    bose = D.v + tact.r - 1
    if D.b > bose:
        return AffineReport(False, None, f"b = {D.b} exceeds the Bose bound {bose}")
    if D.b < bose:
        return AffineReport(False, None, f"b = {D.b} below the Bose bound {bose}; not a resolvable BIBD")
    class_of = np.full(D.b, -1)
    for ci, cls in enumerate(resolution.classes):
        class_of[list(cls)] = ci
    s, t = np.nonzero(np.triu(class_of[:, None] != class_of[None, :], 1))
    inter = D.dual().gram()[s, t]     # the non-parallel pairs s < t, in (s, t) order
    for i in np.flatnonzero(inter != inter[:1])[:1]:
        return AffineReport(False, None, f"non-parallel blocks {s[i]},{t[i]} meet in "
                                         f"{inter[i]} points, expected {inter[0]}")
    return AffineReport(True, int(inter[0]) if inter.size else None)


# ---------------------------------------------------------------------------
# serialization: JSON parameter certificates
# ---------------------------------------------------------------------------

def params_to_json(params) -> dict:
    if isinstance(params, TacticalParams):
        return {"type": "tactical", "v": params.v, "b": params.b, "k": params.k, "r": params.r}
    if isinstance(params, BIBDParams):
        return {"type": "bibd", "v": params.v, "b": params.b, "k": params.k,
                "r": params.r, "lambda": params.lam}
    if isinstance(params, GDDParams):
        return {"type": "gdd", "v": params.v, "b": params.b, "k": params.k, "r": params.r,
                "lambda1": params.lambda1, "lambda2": params.lambda2,
                "u": params.u, "m": params.m,
                "partition": None if params.partition is None else [list(c) for c in params.partition]}
    raise TypeError(f"unsupported parameter certificate {type(params)!r}")


def params_from_json(obj: dict):
    """The certificate that :func:`params_to_json` wrote as ``obj``."""
    kind = obj.get("type")
    where = f"{kind} certificate"
    if kind == "tactical":
        return TacticalParams(*json_ints(obj, ("v", "b", "k", "r"), where))
    if kind == "bibd":
        return BIBDParams(*json_ints(obj, ("v", "k", "lambda", "r", "b"), where))
    if kind == "gdd":
        part = obj.get("partition")
        return GDDParams(*json_ints(obj, ("u", "m", "k", "lambda1", "lambda2", "v", "r", "b"), where),
                         partition=None if part is None else tuple(tuple(c) for c in part))
    raise ValueError(f"unknown certificate type {kind!r}")


def json_ints(obj: dict, keys, where) -> list:
    """``obj[key]`` for each key, each an integer, else a ValueError naming the key."""
    for key in keys:
        if type(obj.get(key)) is not int:
            raise ValueError(f"{where} {key} is {obj.get(key)!r}, not an integer")
    return [obj[key] for key in keys]
