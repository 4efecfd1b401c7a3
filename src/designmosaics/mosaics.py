"""Mosaics of incidence structures and their functional forms.

A mosaic is a family of incidence structures on a common point set [v] and
block index set [b] whose incidence matrices sum to the all-ones matrix.  Its
functional form f(x, s) reads off the unique member in which (x, s) is
incident; the preimage enumerator g(s, alpha, kappa) walks the k points of
f_s^{-1}(alpha) bijectively.  g takes integer arrays for alpha and kappa at
one scalar seed s and broadcasts them, so :func:`verify_functional_form`
checks each seed's (a, k) block of points in one call.  Mosaics are kept
lazily as (f, g) pairs; the one dense form a mosaic ever materializes is its
color matrix F[x, s] = f(x, s), from which members, preimages and joint laws
are derived on demand.

A mosaic built from a resolvable design and a quasigroup on the colors has
the resolvable form f(x, (i, beta)) = L(beta, gamma_i(x)), with the seed
s = i a + beta.  A :class:`Quasigroup` holds L[beta, gamma] and its right division.
Such a mosaic may carry a ``form``: a callable returning its (v, b/a) class
table G[x, i] = gamma_i(x) and its (a, a) color table L.  Its color matrix is
then one gather over (G, L): so for ``construct_from_resolvable``,
``point_multiple`` of such a mosaic, and the families M1, M2 and M3.
``from_members`` sets F from the member matrices and ``dual_mosaic`` to the
base's F transposed; g of both reads a stable sort of F's column.  The rest,
M4 included, broadcast f over arrays of points and seeds: one call fills F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .designs import (
    BIBDParams,
    CheckFailure,
    GDDParams,
    IncidenceStructure,
    Resolution,
    verify_bibd,
    verify_gdd,
    verify_resolution,
    verify_tactical,
)


# ---------------------------------------------------------------------------
# quasigroups
# ---------------------------------------------------------------------------

class Quasigroup:
    """Binary operation on [a] with unique left and right division, held as its
    Latin square ``table[beta, gamma]`` and its right division ``_right``."""

    def __init__(self, table):
        T = np.asarray(table, dtype=np.int64)
        if T.ndim != 2 or T.shape[0] != T.shape[1] or not T.size:
            raise ValueError("quasigroup table must be square and nonempty")
        want = np.arange(T.shape[0])
        if not ((np.sort(T, axis=1) == want).all() and (np.sort(T, axis=0) == want[:, None]).all()):
            raise ValueError("table is not a Latin square")
        self.order = T.shape[0]
        self.table = T
        self._right = np.argsort(T, axis=1)      # _right[beta, alpha] = gamma


class CyclicQuasigroup(Quasigroup):
    """Addition on Z_a."""

    def __init__(self, order):
        super().__init__(np.add.outer(np.arange(order), np.arange(order)) % order)


class FieldAdditiveQuasigroup(Quasigroup):
    """The additive group of a finite field, on packed element encodings."""

    def __init__(self, gf):
        elems = range(gf.order)
        super().__init__([[gf.add(beta, gamma) for gamma in elems] for beta in elems])


# ---------------------------------------------------------------------------
# the mosaic data model
# ---------------------------------------------------------------------------

# the member kind that each parameter type describes
MEMBER_KINDS = {BIBDParams: "bibd", GDDParams: "gdd"}


class Mosaic:
    """Color-indexed family (D_alpha) on [v] x [b], held as a functional form.

    ``f(x, s)`` broadcasts integer arrays of points and seeds (with a ``form``
    it may take scalars only); ``g(s, alpha, kappa)`` broadcasts arrays of
    alpha and kappa at one scalar seed.  :meth:`f` and :meth:`g` return ints.
    ``member_params`` (``BIBDParams`` or ``GDDParams``) describes the common
    parameters of all members when known; the member kind and the shared point
    classes of GDD members are read from it.  ``form``, when given, is a
    zero-argument callable returning the class table G and the color table L
    of the resolvable form f(x, i a + beta) = L[beta, G[x, i]]; it is called
    once, by the first :meth:`color_matrix`.
    """

    def __init__(self, v, b, a, f, g, k=None, member_params=None, meta=None, form=None):
        self.v = v
        self.b = b
        self.a = a
        self.k = v // a if k is None else k
        self._f = f
        self._g = g
        self.member_params = member_params
        self.meta = dict(meta or {})
        self._form = form
        self._colors = None
        self._cover_fault = None    # from_members: first (x, s, count) with count != 1

    @property
    def member_kind(self):
        """'bibd' or 'gdd' by the type of ``member_params``; None if unclassified."""
        return MEMBER_KINDS.get(type(self.member_params))

    @property
    def point_classes(self):
        """The point class partition shared by GDD members; None otherwise."""
        return getattr(self.member_params, "partition", None)

    def __repr__(self):
        fam = self.meta.get("family")
        tag = f", family={fam!r}" if fam else ""
        return f"Mosaic(v={self.v}, b={self.b}, a={self.a}, k={self.k}{tag})"

    # -- evaluation -----------------------------------------------------------

    def f(self, x, s):
        if not (0 <= x < self.v and 0 <= s < self.b):
            _out_of_range(("x", x, self.v), ("s", s, self.b))
        return int(self._f(x, s))

    def g(self, s, alpha, kappa):
        if not (0 <= s < self.b and 0 <= alpha < self.a and 0 <= kappa < self.k):
            _out_of_range(("s", s, self.b), ("alpha", alpha, self.a), ("kappa", kappa, self.k))
        return int(self._g(s, alpha, kappa))

    # -- materialization --------------------------------------------------------

    def color_matrix(self) -> np.ndarray:
        """The (v, b) int32 matrix F[x, s] = f(x, s), built on first use and
        cached.  With the resolvable form, column i a + beta of F is
        L[beta, G[:, i]], so F is one gather L.T[G]; without it, F is one
        call f(arange(v)[:, None], arange(b))."""
        if self._colors is None:
            if self._form is not None:
                G, L = self._form()
                F = np.ascontiguousarray(L.T, dtype=np.int32)[G].reshape(self.v, self.b)
            else:
                F = np.array(self._f(np.arange(self.v)[:, None], np.arange(self.b)), dtype=np.int32)
                if F.shape != (self.v, self.b):
                    raise ValueError(f"f over [v] x [b] has shape {F.shape}, not {(self.v, self.b)}")
            self._colors = F
        return self._colors

    def member(self, alpha) -> IncidenceStructure:
        return IncidenceStructure((self.color_matrix() == alpha).astype(np.uint8))

    def members(self):
        return [self.member(alpha) for alpha in range(self.a)]


def _out_of_range(*checks):
    for name, value, bound in checks:
        if not 0 <= value < bound:
            raise ValueError(f"{name} = {value} is out of range [0, {bound})")


def from_functional_form(f, g, v, b, a, k=None, **kwargs) -> Mosaic:
    """Mosaic of a scalar f and a scalar g, checked by
    :func:`verify_functional_form`; both are vectorized to the array contract."""
    M = Mosaic(v, b, a, *(np.vectorize(h, otypes=[np.int64]) for h in (f, g)), k=k, **kwargs)
    res = verify_functional_form(M)
    if not res:
        raise ValueError(f"inconsistent functional form: {res.reason} {res.witness}")
    return M


def _from_colors(F, a, k=None, member_params=None, meta=None) -> Mosaic:
    """Mosaic held by its color matrix F alone: f reads F, and g reads column
    s stably sorted by color, whose k points of color alpha start at alpha k."""
    def g(s, alpha, kappa):
        return np.argsort(F[:, s], kind="stable")[alpha * M.k + kappa]

    M = Mosaic(F.shape[0], F.shape[1], a, lambda x, s: F[x, s], g, k=k,
               member_params=member_params, meta=meta)
    M._colors = F
    return M


def from_members(structures, member_params=None, meta=None) -> Mosaic:
    """Mosaic from explicit member matrices.  F takes the first member on each
    pair; the first pair not covered exactly once is kept as (x, s, count), and
    :func:`verify_mosaic` reports it."""
    stack = np.stack([S.N for S in structures])
    total = stack.sum(axis=0, dtype=np.int64)
    M = _from_colors(np.argmax(stack, axis=0).astype(np.int32), len(stack),
                     member_params=member_params, meta=meta)
    for x, s in np.argwhere(total != 1)[:1]:
        M._cover_fault = (int(x), int(s), int(total[x, s]))
    return M


def verify_mosaic(M: Mosaic):
    """Partition property (every pair incident in exactly one member) plus
    nonemptiness of every member, which then shows as a color absent from F.
    True when both hold, else the first failure as a falsy CheckFailure."""
    if M._cover_fault is not None:
        return CheckFailure("pair covered by wrong number of members", M._cover_fault)
    F = M.color_matrix()
    if F.min() < 0 or F.max() >= M.a:
        x, s = map(int, np.argwhere((F < 0) | (F >= M.a))[0])
        return CheckFailure("color out of range", (x, s, int(F[x, s])))
    counts = np.bincount(F.ravel(), minlength=M.a)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        return CheckFailure("empty member", (int(empty[0]),))
    return True


def verify_functional_form(M: Mosaic):
    """Exhaustive consistency of (f, g): for every (s, alpha) the map
    kappa -> g(s, alpha, kappa) must hit f_s^{-1}(alpha) bijectively.  g is
    called once per seed, on the (a, k) grid of (alpha, kappa); the colors of
    its points are read from the color matrix.  True when it holds, else the
    first failure in (s, alpha, kappa) order as a falsy CheckFailure."""
    F = M.color_matrix()
    alpha, kappa = np.indices((M.a, M.k))
    for s in range(M.b):
        X = np.asarray(M._g(s, alpha, kappa), dtype=np.int64)
        column = F[:, s]
        # in range, the right colors and no point twice: the block passes
        if (0 <= X.min() and X.max() < M.v and (column[X] == alpha).all()
                and np.bincount(X.ravel(), minlength=M.v).max() == 1):
            continue
        out = (X < 0) | (X >= M.v)
        got = column[np.where(out, 0, X)]
        # repeat[alpha, kappa]: X[alpha, kappa'] = X[alpha, kappa] for a kappa' < kappa
        repeat = ((X[:, :, None] == X[:, None, :]) & np.tri(M.k, k=-1, dtype=bool)).any(axis=2)
        al, kp = divmod(int(np.flatnonzero(out | repeat | (got != alpha))[0]), M.k)
        x = int(X[al, kp])
        if out[al, kp]:
            return CheckFailure("preimage point out of range", (s, al, kp, x))
        if repeat[al, kp]:
            return CheckFailure("preimage enumerator repeats a point", (s, al, x))
        return CheckFailure("f(g(s,alpha,kappa), s) != alpha", (s, al, kp, x, int(got[al, kp])))
    return True


def certify(M: Mosaic):
    """The first failed check of M as (stage, member, failure), else None: stage
    'mosaic' is :func:`verify_mosaic`, 'members' checks each member by
    ``verify_bibd`` or ``verify_gdd`` against ``member_params``, and
    'functional-form' is :func:`verify_functional_form`."""
    res = verify_mosaic(M)
    if not res:
        return "mosaic", None, res
    kind, p = M.member_kind, M.member_params
    for alpha in range(M.a if kind else 0):
        res = (verify_bibd(M.member(alpha), p.lam) if kind == "bibd"
               else verify_gdd(M.member(alpha), M.point_classes, p.lambda1, p.lambda2))
        if not res:
            return "members", alpha, res
    res = verify_functional_form(M)
    if not res:
        return "functional-form", None, res
    return None


# ---------------------------------------------------------------------------
# the general construction from a resolvable design and a quasigroup
# ---------------------------------------------------------------------------

def construct_from_resolvable(D: IncidenceStructure, resolution: Resolution, L: Quasigroup,
                              member_params=None, meta=None) -> Mosaic:
    """Mosaic on (X, R x A): the point p and block (i, beta) are incident in
    member alpha exactly when p lies on the block of parallel class i labelled
    gamma, for the unique gamma with L(beta, gamma) = alpha.

    Every member is isomorphic to D via a block relabeling within each class.
    """
    res = verify_resolution(D, resolution.classes)
    if not res:
        raise ValueError(f"invalid resolution: {res.reason} {res.witness}")
    tact = verify_tactical(D)
    a = D.v // tact.k
    if L.order != a:
        raise ValueError(f"quasigroup order {L.order} must equal v/k = {a}")
    r = tact.r

    gamma_of = np.empty((D.v, r), dtype=np.int32)
    for i, cls in enumerate(res.classes):
        for label, s in enumerate(cls):
            gamma_of[np.flatnonzero(D.N[:, s]), i] = label
    # points[i, gamma]: the k points of block gamma of class i, ascending
    points = np.argsort(gamma_of, axis=0, kind="stable").T.reshape(r, a, tact.k)

    def f(x, s):
        i, beta = divmod(s, a)
        return L.table[beta, gamma_of[x, i]]

    def g(s, alpha, kappa):
        i, beta = divmod(s, a)
        return points[i, L._right[beta, alpha], kappa]

    return Mosaic(D.v, r * a, a, f, g, k=tact.k, member_params=member_params, meta=meta,
                  form=lambda: (gamma_of, L.table))


def dual_mosaic(M: Mosaic) -> Mosaic:
    """Transpose every member: f^T(s, x) = f(x, s).  The dual's color matrix
    is the base's, transposed."""
    if (M.b * M.k) % M.v:
        raise ValueError("dual of a non-tactical mosaic has no constant block size")
    return _from_colors(M.color_matrix().T, M.a, k=M.b * M.k // M.v,
                        meta={**M.meta, "dual": True})


def sum_structure(M: Mosaic):
    """The sum on (X, a x S): x is incident with copy (alpha, s) of s iff
    f(x, s) = alpha.  Returns the structure and its canonical resolution,
    whose classes are indexed by the original block indices."""
    F = M.color_matrix()
    N = np.zeros((M.v, M.a * M.b), dtype=np.uint8)
    cols = F.astype(np.int64) * M.b + np.arange(M.b)[None, :]
    np.put_along_axis(N, cols, 1, axis=1)
    classes = tuple(tuple(alpha * M.b + s for alpha in range(M.a)) for s in range(M.b))
    return IncidenceStructure(N), Resolution(classes)


def point_multiple(M: Mosaic, u: int) -> Mosaic:
    """Replace every point by a class of u copies; members of a mosaic of
    (v, k, lambda) BIBDs become singular GDDs with parameters
    (u, m=v, k=u k, lambda1=r, lambda2=lambda)."""
    if u < 1:
        raise ValueError("u must be a positive integer")
    if not isinstance(M.member_params, BIBDParams):
        raise ValueError("point multiples are defined for mosaics of BIBDs")
    bp = M.member_params
    classes = tuple(tuple(range(x * u, (x + 1) * u)) for x in range(M.v))
    gdd = GDDParams(u=u, m=M.v, k=u * bp.k, lambda1=bp.r, lambda2=bp.lam,
                    v=u * M.v, r=bp.r, b=M.b, partition=classes)

    def f(x, s):
        return M._f(x // u, s)

    def g(s, alpha, kappa):
        base, i = np.divmod(kappa, u)
        return M._g(s, alpha, base) * u + i

    form = None
    if M._form is not None:
        def form():
            # point x is a copy of M's point x // u, on the same blocks; M's F
            # is not built
            G, L = M._form()
            return np.repeat(G, u, axis=0), L

    return Mosaic(u * M.v, M.b, M.a, f, g, k=u * M.k, member_params=gdd,
                  meta={**M.meta, "point_multiple": u}, form=form)


def sample_inverse(M: Mosaic, s: int, alpha: int, rng) -> int:
    """Uniform draw from f_s^{-1}(alpha): kappa ~ U[k] mapped through g."""
    kappa = int(rng.integers(M.k))
    x = M.g(s, alpha, kappa)
    if M.f(x, s) != alpha:
        raise ValueError(f"preimage enumerator inconsistent at (s={s}, alpha={alpha})")
    return x


# ---------------------------------------------------------------------------
# rate analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    color_rate: float
    block_rate: float
    ratio: float          # log b / log a = block rate over color rate
    rho0: Optional[float]
    optimal: bool
    verdict: str
    reason: str
    td_rate_floor: Optional[float] = None


def rho0(v: int, k: int) -> float:
    """The color-rate threshold below which Fisher's bound b >= v dominates."""
    return 1.0 - (math.log2(v - 1) + math.log2(k) - math.log2(k - 1)) / (2.0 * math.log2(v))


def rates(M: Mosaic) -> RateReport:
    """Color/block rates and the block-rate optimality verdict.

    Mosaics of BIBDs are optimal iff lambda = 1 (color rate >= rho0) or b = v
    (color rate < rho0); mosaics of GDDs are optimal iff every member is an
    (a, k, 1) transversal design.
    """
    lv, la, lb = math.log2(M.v), math.log2(M.a), math.log2(M.b)
    color, block, ratio = la / lv, lb / lv, lb / la
    if M.member_kind == "bibd":
        p = M.member_params
        r0 = rho0(M.v, p.k)
        if color >= r0:
            opt = p.lam == 1
            reason = "lambda = 1" if opt else f"lambda = {p.lam} > 1; ratio log b/log a = {ratio:.6f}"
        else:
            opt = M.b == M.v
            reason = "b = v (square)" if opt else f"b = {M.b} > v = {M.v}; ratio log b/log a = {ratio:.6f}"
        return RateReport(color, block, ratio, r0, opt,
                          "optimal" if opt else "near-optimal", reason)
    if M.member_kind == "gdd":
        p = M.member_params
        is_td = p.lambda1 == 0 and p.lambda2 == 1 and p.m == p.k and p.u == M.a
        floor = math.log2(p.u) / (math.log2(p.u) + math.log2(p.u + 1))
        if is_td:
            reason = "every member is an (a, k, 1) transversal design"
        else:
            reason = f"members are not (a, k, 1) TDs; ratio log b/log a = {ratio:.6f}"
        return RateReport(color, block, ratio, None, is_td,
                          "optimal" if is_td else "near-optimal", reason,
                          td_rate_floor=floor)
    raise ValueError("rate analysis needs classified members (BIBD or GDD parameters)")


# ---------------------------------------------------------------------------
# serialization header
# ---------------------------------------------------------------------------

def mosaic_header(M: Mosaic) -> dict:
    from .designs import params_to_json
    implied = implied_member_keys(M.member_params)
    return {
        "format": "mosaic",
        "family": M.meta.get("family"),
        "params": {key: val for key, val in M.meta.items() if key != "family"},
        "v": M.v, "b": M.b, "a": M.a, "k": M.k,
        "member_kind": implied["member_kind"],
        "member_params": None if M.member_params is None else params_to_json(M.member_params),
        "point_classes": implied["point_classes"],
    }


def implied_member_keys(member_params) -> dict:
    """The header's ``member_kind`` and ``point_classes``, as ``member_params``
    implies them."""
    part = getattr(member_params, "partition", None)
    return {"member_kind": MEMBER_KINDS.get(type(member_params)),
            "point_classes": None if part is None else [list(c) for c in part]}
