"""Exact security metrics and bounds for mosaic-based security functions.

Covers the distance/divergence toolbox, the wiretap and privacy-amplification
joint distributions, the four semantic-security bounds (mutual-information and
total-variation flavors), the per-design exact identities behind them, the
spectral generalization, and the partition sandwich comparisons.  All
logarithms and exponentials are base 2.

The bounds and identities read one coefficient view for both member kinds: a
BIBD is the GDD case lambda1 = lambda2 = lambda, u = 1, whose class term
vanishes.  A conditional divergence is the divergence of a joint law from a
product, D(W || Q | P) = D(P W || P x Q), so the exact metrics are per-color
divergences of P_{ZS|A=alpha} from the products P_ZS and P_Z x U_S.

No (a, nz, b) array is held.  Each joint law keeps its mosaic's block table,
the k points of each color at each seed, from one stable sort of the color
matrix's columns; ``cond(alpha)`` sums the channel or source rows of those
points into P_{ZS|A=alpha}.  The exact metrics make two passes over the
colors: one sums the mixture P_ZS, the other takes every divergence.

The tolerances are constants: a channel's rows sum to 1 within 1e-12 and a
source to 1 within 1e-9.  Every verdict, the reports' and the generalized
bounds' domination and the sandwich sides, holds with the one slack
``SLACK`` = 1e-9; no caller sets it.  The wiretap and privacy-amplification
paths share their helpers: one matrix validation, one classification of GDD
members for both coefficient displays, one set of sandwich checks and one
report assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .designs import BIBDParams, GDDParams, IncidenceStructure, classify_gdd, verify_tactical
from .mosaics import Mosaic

INF = math.inf
SLACK = 1e-9        # a bound dominates, and a sandwich side holds, within SLACK


# ---------------------------------------------------------------------------
# distances, divergences, entropies
# ---------------------------------------------------------------------------

def _pair(P, Q):
    P = np.asarray(P, dtype=float).ravel()
    Q = np.asarray(Q, dtype=float).ravel()
    if P.shape != Q.shape:
        raise ValueError(f"dimension mismatch: {P.shape} vs {Q.shape}")
    return P, Q


def tv(P, Q) -> float:
    """Total variation in the unhalved convention: sum_z |P(z) - Q(z)|."""
    P, Q = _pair(P, Q)
    return float(np.abs(P - Q).sum())


def kl(P, Q) -> float:
    """Kullback-Leibler divergence in bits; +inf when supp(P) escapes supp(Q)."""
    P, Q = _pair(P, Q)
    m = P > 0
    if np.any(Q[m] <= 0):
        return INF
    return float((P[m] * (np.log2(P[m]) - np.log2(Q[m]))).sum())


def exp_d2(P, Q) -> float:
    """2^D2(P||Q) = sum P^2/Q, kept linear to avoid needless log/exp."""
    P, Q = _pair(P, Q)
    m = P > 0
    if np.any(Q[m] <= 0):
        return INF
    return float((np.square(P[m]) / Q[m]).sum())


def d2(P, Q) -> float:
    """Renyi 2-divergence log2 sum P^2/Q; +inf when supp(P) escapes supp(Q)."""
    val = exp_d2(P, Q)
    return INF if val == INF else float(np.log2(val))


def exp_d2_cond(W, Q, P) -> float:
    """2^D2(W || Q | P) = sum_x P(x) 2^(D2(W(.|x) || Q)) = 2^D2(P W || P x Q)."""
    P = np.asarray(P, dtype=float).ravel()
    return exp_d2(P[:, None] * np.asarray(W, dtype=float),
                  np.outer(P, np.asarray(Q, dtype=float).ravel()))


# ---------------------------------------------------------------------------
# channels and sources
# ---------------------------------------------------------------------------

def _law_matrix(M, name: str) -> np.ndarray:
    """M as a float array, checked two-dimensional, finite and nonnegative up
    to 1e-12; ``name`` opens each error message."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} matrix must be two-dimensional")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} entries must be finite")
    if (M < -1e-12).any():
        raise ValueError(f"{name} entries must be nonnegative")
    return M


class Channel:
    """A stochastic matrix W : X -> Z, each row summing to 1 within 1e-12."""

    def __init__(self, W):
        W = _law_matrix(W, "channel")
        sums = W.sum(axis=1)
        if np.abs(sums - 1).max() > 1e-12:
            x = int(np.abs(sums - 1).argmax())
            raise ValueError(f"row {x} sums to {sums[x]}, not 1")
        self.W = np.clip(W, 0.0, None)

    @property
    def v(self):
        return self.W.shape[0]

    def output_distribution(self) -> np.ndarray:
        """P_X W under the uniform input P_X."""
        return self.W.mean(axis=0)


class JointXZ:
    """A joint distribution P_XZ with every output letter reachable (P_Z > 0)."""

    def __init__(self, P):
        P = _law_matrix(P, "joint")
        if abs(P.sum() - 1) > 1e-9:
            raise ValueError(f"joint distribution sums to {P.sum()}, not 1")
        self.P = np.clip(P, 0.0, None)
        self.P_Z = self.P.sum(axis=0)
        if (self.P_Z <= 0).any():
            bad = np.flatnonzero(self.P_Z <= 0)
            raise ValueError(f"P_Z must be positive everywhere; zero at z = {bad.tolist()}")
        self.P_X = self.P.sum(axis=1)

    @property
    def v(self):
        return self.P.shape[0]

    @property
    def nz(self):
        return self.P.shape[1]

    def conditional_given_z(self) -> np.ndarray:
        """P_{X|Z} as a (v, nz) column-conditional matrix."""
        return self.P / self.P_Z[None, :]

    def h2_given_z(self) -> np.ndarray:
        """H2(X | Z = z) for every z."""
        cond = self.conditional_given_z()
        return -np.log2(np.square(cond).sum(axis=0))

    def h2_classes_given_z(self, partition) -> np.ndarray:
        """H2(X_Pi | Z = z) for the coarsened variable P(X_i | z)."""
        cond = self.conditional_given_z()
        mass = np.stack([cond[list(cls)].sum(axis=0) for cls in partition])
        return -np.log2(np.square(mass).sum(axis=0))


# ---------------------------------------------------------------------------
# joint distributions of mosaic-based schemes
# ---------------------------------------------------------------------------

def _replications(mosaic: Mosaic) -> np.ndarray:
    """R[alpha, x], the number of seeds s with f(x, s) = alpha: one bincount
    of the codes F[x, s] * v + x."""
    a, v = mosaic.a, mosaic.v
    codes = mosaic.color_matrix().astype(np.int64) * v + np.arange(v)[:, None]
    return np.bincount(codes.ravel(), minlength=a * v).reshape(a, v)


def _block_table(mosaic: Mosaic) -> np.ndarray:
    """The block table T[alpha, kappa, s]: the k points of color alpha at seed
    s, ascending in kappa, from one stable sort of each column of F.  Raises
    ValueError naming the first (s, alpha, count) whose count is not k."""
    F, a, b, k = mosaic.color_matrix(), mosaic.a, mosaic.b, mosaic.k
    counts = np.bincount((F + a * np.arange(b)).ravel(), minlength=a * b).reshape(b, a)
    for s, alpha in np.argwhere(counts != k)[:1]:
        raise ValueError(f"seed {s} holds {counts[s, alpha]} points of color {alpha}, not k = {k}")
    return np.argsort(F, axis=0, kind="stable").reshape(a, k, b)


def _gather(rows, table, alpha) -> np.ndarray:
    """The (nz, b) array whose entry (z, s) sums rows[x, z] over the points x
    of color alpha at seed s, in ascending order of x."""
    out = rows[table[alpha, 0]]
    for idx in table[alpha, 1:]:
        out += rows[idx]
    return np.ascontiguousarray(out.T)


class WiretapJoint:
    """P_{ZXSA}(z,x,s,alpha) = w(z|x) N_alpha(x,s) P_A(alpha) / (bk).

    Holds the block table; :meth:`cond` gives P_{ZS|A=alpha}, which is
    independent of P_A.  The output marginal of every color equals P_X W,
    checked at build time from the replication counts.
    """

    def __init__(self, mosaic: Mosaic, channel: Channel, p_a=None):
        if channel.v != mosaic.v:
            raise ValueError(f"channel input size {channel.v} != mosaic point count {mosaic.v}")
        if p_a is None:
            p_a = np.full(mosaic.a, 1.0 / mosaic.a)
        p_a = np.asarray(p_a, dtype=float).ravel()
        if (p_a.shape != (mosaic.a,) or not np.isfinite(p_a).all() or (p_a < 0).any()
                or abs(p_a.sum() - 1) > 1e-9):
            raise ValueError("P_A must be a finite distribution on the color set")
        self._table = _block_table(mosaic)
        self.p_z = channel.output_distribution()
        self.p_a = p_a
        self.mosaic = mosaic
        self.channel = channel
        bk = mosaic.b * mosaic.k
        err = max(np.abs((r[:, None] * channel.W).sum(axis=0) / bk - self.p_z).max()
                  for r in _replications(mosaic))
        if err > 1e-10:
            raise AssertionError(f"per-color Z-marginal deviates from P_X W by {err}")

    def cond(self, alpha) -> np.ndarray:
        """P_{ZS|A=alpha} as a new (nz, b) array."""
        out = _gather(self.channel.W, self._table, alpha)
        out /= self.mosaic.b * self.mosaic.k
        return out


class PAJoint:
    """P_{XZSA}(x,z,s,alpha) = P_XZ(x,z) N_alpha(x,s) / b.

    Holds the block table; :meth:`cond` gives P_{ZS|A=alpha} = (a/b) p_z^T
    N_alpha.  The key marginal is uniform and independent of Z,
    P_{Z|A=alpha} = P_Z, so the seed law given the observation is
    P_{S|Z=z,A=alpha} = P_{ZS|A=alpha}(z, .) / P_Z(z).  That every law
    normalizes is checked at build time from the replication counts.
    """

    def __init__(self, mosaic: Mosaic, joint: JointXZ):
        if joint.v != mosaic.v:
            raise ValueError(f"source size {joint.v} != mosaic point count {mosaic.v}")
        self._table = _block_table(mosaic)
        self.p_z = joint.P_Z
        self.p_a = np.full(mosaic.a, 1.0 / mosaic.a)
        self.mosaic = mosaic
        self.joint = joint
        totals = (_replications(mosaic) * joint.P_X).sum(axis=1) * (mosaic.a / mosaic.b)
        if np.abs(totals - 1).max() > 1e-10:
            raise AssertionError("conditional laws P_{ZS|A} do not normalize")

    def cond(self, alpha) -> np.ndarray:
        """P_{ZS|A=alpha} as a new (nz, b) array."""
        out = _gather(self.joint.P, self._table, alpha)            # p_z^T N_alpha
        out *= self.mosaic.a / self.mosaic.b
        return out


def key_marginal_exact(mosaic: Mosaic, P_XZ) -> list:
    """The key marginal P_A in exact rational arithmetic.

    Every float entry of P_XZ is taken as the exact binary rational it is, so
    uniformity of the result is an identity, not an approximation.
    """
    P = np.asarray(P_XZ, dtype=float)
    R = _replications(mosaic)
    p_x = [sum(Fraction(float(t)) for t in row) for row in P]
    out = []
    for alpha in range(mosaic.a):
        acc = Fraction(0)
        for x in range(mosaic.v):
            acc += p_x[x] * int(R[alpha, x])
        out.append(acc / mosaic.b)
    return out


# ---------------------------------------------------------------------------
# exact metrics
# ---------------------------------------------------------------------------

def _color_divergences(J, each=None) -> tuple:
    """Divergences of each P_{ZS|A=alpha} = J.cond(alpha) from two products,
    in two passes over the colors; ``each``, if given, sees every law in the second.

    Against the mixture P_ZS = sum_alpha P_A(alpha) cond(alpha) it returns
    I(A ^ Z,S) = D(P_ZSA || P_A x P_ZS) and the total variation of P_ZSA from
    P_A x P_ZS, both as P_A-weighted sums over the colors.  Against
    P_Z x U_S it returns the maxima over the colors of D, D2 and the total
    variation.  A uniform seed makes the conditional divergences given S
    equal to these: D(P_{Z|S,A=alpha} || P_Z | U_S) = D(cond(alpha) || P_Z x U_S).
    """
    b = J.mosaic.b
    p_zs = np.zeros((len(J.p_z), b))
    for alpha, w in enumerate(J.p_a):
        if w > 0:
            p_zs += w * J.cond(alpha)
    ref = (J.p_z / b)[:, None].repeat(b, axis=1)
    mi = tv_mix = 0.0
    max_kl = max_d2 = max_tv = -INF
    for alpha, w in enumerate(J.p_a):
        c = J.cond(alpha)
        if w > 0:
            mi += w * kl(c, p_zs)
            tv_mix += w * tv(c, p_zs)
        max_kl = max(max_kl, kl(c, ref))
        max_d2 = max(max_d2, d2(c, ref))
        max_tv = max(max_tv, tv(c, ref))
        if each is not None:
            each(c)
    return mi, tv_mix, max_kl, max_d2, max_tv


def exact_wiretap_metrics(J: WiretapJoint) -> dict:
    """I(A ^ Z,S), the per-color conditional divergences given S, and the
    total-variation metric with its doubling upper bound."""
    mi, tv_metric, max_kl, max_d2, max_tv = _color_divergences(J)
    tv_upper = 2.0 * max_tv
    return {
        "mutual_information": mi,
        "max_kl_cond": max_kl,
        "max_d2_cond": max_d2,
        "tv": tv_metric,
        "tv_upper": tv_upper,
        "chain_ok": bool(mi <= max_kl + 1e-12 and max_kl <= max_d2 + 1e-12),
        "tv_chain_ok": bool(tv_metric <= tv_upper + 1e-12),
    }


def exact_pa_metrics(J: PAJoint) -> dict:
    """max-over-key divergences from P_Z P_S, the strong-secrecy mutual
    information, and the key-uniformity deviation."""
    a, b = J.mosaic.a, J.mosaic.b
    seed_sq, totals = [], []

    def each(c):
        # D2(P_{S|Z=z,A=alpha} || U_S) = log2(b sum_s P(s|z,alpha)^2), maximized over z
        seed_sq.append(np.square(c / J.p_z[:, None]).sum(axis=1).max())
        totals.append(c.sum())

    mi, _, max_kl, _, max_tv = _color_divergences(J, each)
    return {
        "max_kl": max_kl,
        "max_tv": max_tv,
        "mutual_information": mi,
        "max_d2_seed": float(np.log2(b * max(seed_sq))),
        "key_uniformity_deviation": float(np.abs(np.array(totals) / a - 1.0 / a).max()),
        "strong_secrecy_ok": bool(mi <= max_kl + 1e-12),
    }


# ---------------------------------------------------------------------------
# theorem bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    value: float
    coefficients: dict
    specialization: Optional[dict] = None


def _exp_d2_uniform(W, partition=None) -> float:
    """2^D2(W || P_X W | P_X) for uniform P_X; given a partition, the
    class-averaged rows R_Pi W against the full mixture P_X W under uniform
    P_Pi, 2^D2(R_Pi W || P_X W | P_Pi)."""
    W = np.asarray(W, dtype=float)
    rows = W if partition is None else np.stack([W[list(cls)].mean(axis=0) for cls in partition])
    return exp_d2_cond(rows, W.mean(axis=0), np.full(rows.shape[0], 1.0 / rows.shape[0]))


def _coefficients(params, partition=None) -> tuple:
    """The coefficient view (const, c_pi, c_w, partition) of the bounds and
    identities, with c_w = (r - l1)/(kr), c_pi = (l1 - l2) u/(kr) and
    const = 1 - c_w - c_pi.

    A BIBD is the case l1 = l2 = lambda, u = 1: its class term vanishes for
    any partition, so the returned partition is None.  A GDD needs its point
    class partition, from the argument or else from its parameters.
    """
    if isinstance(params, BIBDParams):
        l1 = l2 = params.lam
        u, partition = 1, None
    elif isinstance(params, GDDParams):
        l1, l2, u = params.lambda1, params.lambda2, params.u
        partition = partition if partition is not None else params.partition
        if partition is None:
            raise ValueError("GDD bound needs the point class partition")
    else:
        raise ValueError("bounds need classified members (BIBD or GDD parameters)")
    kr = params.k * params.r
    c_w = (params.r - l1) / kr
    c_pi = (l1 - l2) * u / kr
    return 1.0 - c_w - c_pi, c_pi, c_w, partition


def _gdd_specializations(params: GDDParams, const, c_pi, c_w, n_classes) -> tuple:
    """The closed-form coefficient displays of singular and semi-regular
    members, (wiretap, privacy amplification), from one classification; each
    is cross-checked against the general formulas, the PA coefficients being
    v c_w, n_classes c_pi and const."""
    cls = classify_gdd(params)
    wt, pa = {"class": cls}, {"class": cls}
    a = params.v // params.k
    coeff_h2, coeff_pi = params.v * c_w, n_classes * c_pi
    if cls == "singular":
        k_star = params.k // params.u
        r_star, lam_star = params.r, params.lambda2
        frac = (r_star - lam_star) / (k_star * r_star)
        wt["coefficients"] = (1.0 - frac, frac)
        assert abs(const - (1.0 - frac)) < 1e-12 and abs(c_pi - frac) < 1e-12 and abs(c_w) < 1e-12
        pa["coefficients"] = (a * (r_star - lam_star) / r_star, -frac)
        assert abs(coeff_pi - pa["coefficients"][0]) < 1e-9
        assert abs((const - 1.0) - pa["coefficients"][1]) < 1e-9
    elif cls == "semi-regular":
        frac = (params.r - params.lambda1) / (params.k * params.r)
        wt["coefficients"] = (1.0, -frac, frac)
        assert abs(const - 1.0) < 1e-12 and abs(c_pi + frac) < 1e-12 and abs(c_w - frac) < 1e-12
        pa["coefficients"] = (a * (params.r - params.lambda1) / params.r,
                              -a * (params.r - params.lambda1) / (params.u * params.r),
                              0.0)
        assert abs(coeff_h2 - pa["coefficients"][0]) < 1e-9
        assert abs(coeff_pi - pa["coefficients"][1]) < 1e-9
        assert abs(const - 1.0) < 1e-9
        if params.lambda1 == 0:
            wt["td_coefficients"] = (1.0, -1.0 / params.k, 1.0 / params.k)
            pa["td_coefficients"] = (float(a), -1.0, 0.0)
    return wt, pa


def _wt_bounds(params, channel: Channel, partition) -> tuple:
    """The mutual-information and total-variation wiretap bounds, from one
    evaluation of each divergence term 2^D2 under uniform input; the class
    term exp_d2_pi and the specialization are for GDDs only."""
    const, c_pi, c_w, partition = _coefficients(params, partition)
    terms = {"exp_d2_w": (c_w, _exp_d2_uniform(channel.W))}
    spec = None
    if partition is not None:
        terms = {"exp_d2_pi": (c_pi, _exp_d2_uniform(channel.W, partition)), **terms}
        spec = _gdd_specializations(params, const, c_pi, c_w, len(partition))[0]
    coeffs = {n: c for n, (c, _) in terms.items()}
    inner = sum(c * (e - 1.0) for c, e in terms.values())
    kl_b = BoundReport(value=sum((c * e for c, e in terms.values()), const),
                       coefficients={"const": const, **coeffs}, specialization=spec)
    tv_b = BoundReport(value=2.0 * math.sqrt(max(inner, 0.0)),
                       coefficients={"const": -sum(coeffs.values()), **coeffs},
                       specialization=spec)
    return kl_b, tv_b


def bound_wt_bibd(params: BIBDParams, channel: Channel) -> BoundReport:
    """Mutual-information bound for mosaics of BIBDs:
    max_{P_A} 2^I(A ^ Z,S) <= (1 - (r-l)/(kr)) + (r-l)/(kr) 2^D2(W || P_X W | P_X),
    the lambda1 = lambda2 case of bound_wt_gdd."""
    return bound_wt_gdd(params, channel)


def bound_wt_gdd(params, channel: Channel, partition=None) -> BoundReport:
    """Mutual-information bound for mosaics of GDDs with a common point class
    partition, const + c_pi 2^D2(R_Pi W || P_X W | P_Pi) + c_w 2^D2(W || P_X W | P_X);
    the partition enters through the coarsened channel R_Pi W."""
    return _wt_bounds(params, channel, partition)[0]


def bound_wt_tv_bibd(params: BIBDParams, channel: Channel) -> BoundReport:
    """Total-variation bound 2 sqrt((r-l)/(kr)) sqrt(2^D2 - 1), the
    lambda1 = lambda2 case of bound_wt_tv_gdd."""
    return bound_wt_tv_gdd(params, channel)


def bound_wt_tv_gdd(params, channel: Channel, partition=None) -> BoundReport:
    """Total-variation bound 2 sqrt(c_pi (2^D2(R_Pi W..) - 1) + c_w (2^D2(W..) - 1))."""
    return _wt_bounds(params, channel, partition)[1]


def _pa_terms(params, joint: JointXZ, partition):
    """Per-z value of the Renyi identity right-hand side, shared by the
    privacy-amplification bounds and prop42_check:
    v c_w 2^-H2(X|Z=z) + (v/u) c_pi 2^-H2(X_Pi|Z=z) + const, where the
    partition has v/u classes; the class term and specialization for GDDs only."""
    const, c_pi, c_w, partition = _coefficients(params, partition)
    coeff_h2 = params.v * c_w
    vals = coeff_h2 * np.exp2(-joint.h2_given_z())
    if partition is None:
        return vals + const, {"coeff_h2": coeff_h2, "coeff_pi": 0.0, "const": const}, None
    coeff_pi = len(partition) * c_pi
    vals = vals + coeff_pi * np.exp2(-joint.h2_classes_given_z(partition)) + const
    spec = _gdd_specializations(params, const, c_pi, c_w, len(partition))[1]
    return vals, {"coeff_h2": coeff_h2, "coeff_pi": coeff_pi, "const": const}, spec


def _pa_bounds(params, joint: JointXZ, partition) -> tuple:
    """The key-leakage and total-variation key bounds, from one evaluation of
    the per-z Renyi terms."""
    vals, coeffs, spec = _pa_terms(params, joint, partition)
    return (BoundReport(value=float(vals.max()), coefficients=coeffs, specialization=spec),
            BoundReport(value=float(np.sqrt(np.clip(vals - 1.0, 0.0, None)).max()),
                        coefficients=coeffs, specialization=spec))


def bound_pa_kl(params, joint: JointXZ, partition=None) -> BoundReport:
    """Key-leakage bound: max_alpha 2^D(P_{ZS|A=a} || P_Z P_S) is at most the
    worst-z Renyi term (exact per design, see the identity checks)."""
    return _pa_bounds(params, joint, partition)[0]


def bound_pa_tv(params, joint: JointXZ, partition=None) -> BoundReport:
    """Total-variation key bound: sqrt of the worst-z Renyi term minus one."""
    return _pa_bounds(params, joint, partition)[1]


# ---------------------------------------------------------------------------
# exact per-design identities (the propositions behind the theorems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    discrepancy: float
    per_z: Optional[tuple] = None


def wiretap_seed_divergence(D: IncidenceStructure, channel: Channel, k: int) -> float:
    """2^D2(P_{Z|S} || P_Z | P_S) for the single-design joint w(z|x)N(x,s)/(bk)."""
    rows = (D.N.T.astype(float) @ channel.W) / k          # (b, nz): P_{Z|S=s}
    return exp_d2_cond(rows, channel.output_distribution(), np.full(D.b, 1.0 / D.b))


def prop41_check(D: IncidenceStructure, params, channel: Channel, partition=None) -> IdentityReport:
    """The wiretap identity: 2^D2(P_{Z|S} || P_Z | P_S) equals
    const + c_pi 2^D2(R_Pi W || P_X W | P_Pi) + c_w 2^D2(W || P_X W | P_X),
    the right-hand side of bound_wt_gdd."""
    lhs = wiretap_seed_divergence(D, channel, params.k)
    rhs = bound_wt_gdd(params, channel, partition).value
    return IdentityReport(lhs=lhs, rhs=rhs, discrepancy=abs(lhs - rhs))


def pa_seed_divergences(D: IncidenceStructure, joint: JointXZ, r: int) -> np.ndarray:
    """Per-z values 2^D2(P_{S|Z=z} || P_S) for the joint P_XZ(x,z)N(x,s)/r."""
    N = D.N.astype(float)
    rows = np.einsum("xz,xs->zs", joint.P, N) / (r * joint.P_Z[:, None])
    return D.b * np.square(rows).sum(axis=1)


def prop42_check(D: IncidenceStructure, params, joint: JointXZ, partition=None) -> IdentityReport:
    """The privacy-amplification identity, per z:
    2^D2(P_{S|Z=z} || P_S) = v(r-l1)/(kr) 2^-H2(X|Z=z)
                              + v(l1-l2)/(kr) 2^-H2(X_Pi|Z=z) + const,
    the per-z right-hand side of the privacy-amplification bounds.  The
    discrepancy is the largest over z; lhs and rhs are read at the z with the
    largest right-hand side, the worst-z term of bound_pa_kl."""
    lhs = pa_seed_divergences(D, joint, params.r)
    rhs = _pa_terms(params, joint, partition)[0]
    disc = float(np.abs(lhs - rhs).max())
    worst = int(rhs.argmax())
    return IdentityReport(lhs=float(lhs[worst]), rhs=float(rhs[worst]), discrepancy=disc,
                          per_z=tuple(zip(lhs.tolist(), rhs.tolist())))


# ---------------------------------------------------------------------------
# generalized quadratic-form bounds (spectral and lambda_max choices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedBoundReport:
    c: float
    d: float
    wiretap: Optional[dict]
    pa: Optional[dict]
    lambda_max: Optional[dict]


def generalized_bound(D: IncidenceStructure, channel: Optional[Channel] = None,
                      joint: Optional[JointXZ] = None,
                      gdd_params: Optional[GDDParams] = None) -> GeneralizedBoundReport:
    """Bounds from any c, d with w^T N N^T w <= c w^T w + d (w^T 1)^2.

    Uses the spectral choice c = mu2, d = (mu1 - mu2)/v from the eigenvalues of
    N N^T (1 is the top eigenvector of a tactical configuration), and, when GDD
    parameters are supplied, also the lambda_max choice c = r - lambda_max,
    d = lambda_max.  Domination is checked with ``SLACK``.
    """
    tact = verify_tactical(D)
    if not tact:
        raise ValueError(f"generalized bound needs a tactical configuration: {tact.reason}")
    eig = np.linalg.eigvalsh(D.gram().astype(float))
    mu1, mu2 = float(eig[-1]), float(eig[-2]) if D.v > 1 else 0.0
    c, dcoef = mu2, (mu1 - mu2) / D.v
    kr = tact.k * tact.r
    a = D.v / tact.k

    def evaluate(cc, dd):
        out = {}
        if channel is not None:
            exact = wiretap_seed_divergence(D, channel, tact.k)
            bound = dd * D.v / kr + cc / kr * _exp_d2_uniform(channel.W)
            out["wiretap"] = {"exact": exact, "bound": bound,
                              "dominates": bool(bound >= exact - SLACK)}
        if joint is not None:
            exact_z = pa_seed_divergences(D, joint, tact.r)
            bound_z = a * cc / tact.r * np.exp2(-joint.h2_given_z()) + a * dd / tact.r
            out["pa"] = {"exact_max": float(exact_z.max()), "bound_max": float(bound_z.max()),
                         "dominates": bool((bound_z >= exact_z - SLACK).all())}
        return out

    spectral = evaluate(c, dcoef)
    lam_report = None
    if gdd_params is not None:
        lam_max = max(gdd_params.lambda1, gdd_params.lambda2)
        lam_report = evaluate(tact.r - lam_max, lam_max)
        lam_report["c"] = tact.r - lam_max
        lam_report["d"] = lam_max
    return GeneralizedBoundReport(c=c, d=dcoef,
                                  wiretap=spectral.get("wiretap"),
                                  pa=spectral.get("pa"),
                                  lambda_max=lam_report)


# ---------------------------------------------------------------------------
# partition sandwich comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    full: float
    coarse: float
    log_u: float
    left_holds: bool
    right_holds: bool
    left_equality: bool
    right_equality: bool
    left_detector: bool
    right_detector: bool


def _log_class_size(partition) -> float:
    """log2 u for a partition into classes of one size u."""
    sizes = {len(cls) for cls in partition}
    if len(sizes) != 1:
        raise ValueError("partition classes must have equal sizes")
    return math.log2(sizes.pop())


def _sandwich_checks(full, coarse, log_u) -> dict:
    """Both sides of full - log u <= coarse <= full and their equalities, all
    within ``SLACK`` and for every entry when full and coarse are arrays."""
    return {"left_holds": bool(np.all(coarse >= full - log_u - SLACK)),
            "right_holds": bool(np.all(coarse <= full + SLACK)),
            "left_equality": bool(np.max(np.abs(coarse - (full - log_u))) <= SLACK),
            "right_equality": bool(np.max(np.abs(coarse - full)) <= SLACK)}


def divergence_comparison(channel: Channel, partition) -> SandwichReport:
    """D2(W||P_X W|P_X) - log u <= D2(R_Pi W||P_X W|P_Pi) <= D2(W||P_X W|P_X).

    Left equality holds iff every class supports at most one positive entry
    per output letter; right equality iff rows are constant on every class.
    """
    log_u = _log_class_size(partition)
    full = math.log2(_exp_d2_uniform(channel.W))
    coarse = math.log2(_exp_d2_uniform(channel.W, partition))
    left_det = all(((channel.W[list(cls)] > 0).sum(axis=0) <= 1).all() for cls in partition)
    right_det = all(np.ptp(channel.W[list(cls)], axis=0).max() == 0 for cls in partition)
    return SandwichReport(full=full, coarse=coarse, log_u=log_u,
                          **_sandwich_checks(full, coarse, log_u),
                          left_detector=left_det, right_detector=right_det)


def entropy_comparison(joint: JointXZ, partition) -> dict:
    """H2(X|Z=z) - log u <= H2(X_Pi|Z=z) <= H2(X|Z=z) for every z.

    Right equality holds iff at most one point per class is possible given z;
    left equality iff the conditional is constant on every class.
    """
    log_u = _log_class_size(partition)
    full = joint.h2_given_z()
    coarse = joint.h2_classes_given_z(partition)
    cond = joint.conditional_given_z()
    right_det = all(((cond[list(cls)] > 0).sum(axis=0) <= 1).all() for cls in partition)
    left_det = all(np.ptp(cond[list(cls)], axis=0).max() <= 1e-9 for cls in partition)
    return {"h2_full": full, "h2_classes": coarse, "log_u": log_u,
            **_sandwich_checks(full, coarse, log_u),
            "left_detector": left_det, "right_detector": right_det}


# ---------------------------------------------------------------------------
# assembled reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecurityReport:
    exact: dict
    bounds: dict
    dominates: bool
    coefficients: dict

    def to_json(self) -> dict:
        return {"exact": self.exact, "bounds": self.bounds,
                "dominates": self.dominates, "coefficients": self.coefficients}


def _security_report(exact, bounds, kl_exact, tv_exact, kl_name) -> SecurityReport:
    """Exact metrics beside the (kl, tv) bounds: the bound dominates when
    2^exact[m] <= kl bound + SLACK for every m in kl_exact and
    exact[tv_exact] <= tv bound + SLACK."""
    kl_b, tv_b = bounds
    dominates = (all(2.0 ** exact[m] <= kl_b.value + SLACK for m in kl_exact)
                 and exact[tv_exact] <= tv_b.value + SLACK)
    return SecurityReport(exact=exact,
                          bounds={kl_name: kl_b.value, "tv": tv_b.value},
                          dominates=bool(dominates),
                          coefficients={"kl": kl_b.coefficients, "tv": tv_b.coefficients,
                                        "specialization": kl_b.specialization})


def wiretap_report(M: Mosaic, channel: Channel, p_a=None) -> SecurityReport:
    """Exact wiretap metrics side by side with the theorem bounds."""
    exact = exact_wiretap_metrics(WiretapJoint(M, channel, p_a))
    return _security_report(exact, _wt_bounds(M.member_params, channel, M.point_classes),
                            ("mutual_information", "max_kl_cond"), "tv",
                            "exp_mutual_information")


def pa_report(M: Mosaic, joint: JointXZ) -> SecurityReport:
    """Exact privacy-amplification metrics side by side with the theorem bounds."""
    exact = exact_pa_metrics(PAJoint(M, joint))
    return _security_report(exact, _pa_bounds(M.member_params, joint, M.point_classes),
                            ("max_kl", "mutual_information"), "max_tv", "exp_max_kl")
