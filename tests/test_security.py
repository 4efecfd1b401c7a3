import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from designmosaics.designs import GDDParams, IncidenceStructure
from designmosaics.families import ag_design, build_m1, build_m2, build_m3, build_m4, clatworthy_r1
from designmosaics import security
from designmosaics.mosaics import (
    Quasigroup,
    _from_colors,
    construct_from_resolvable,
    dual_mosaic,
    from_members,
    point_multiple,
)
from designmosaics.security import (
    INF,
    _pa_terms,
    Channel,
    JointXZ,
    PAJoint,
    WiretapJoint,
    bound_pa_kl,
    bound_pa_tv,
    bound_wt_bibd,
    bound_wt_gdd,
    bound_wt_tv_bibd,
    bound_wt_tv_gdd,
    d2,
    divergence_comparison,
    entropy_comparison,
    exact_pa_metrics,
    exact_wiretap_metrics,
    exp_d2,
    exp_d2_cond,
    generalized_bound,
    key_marginal_exact,
    kl,
    pa_report,
    prop41_check,
    prop42_check,
    tv,
    wiretap_report,
)
from designmosaics.simkit import (
    constant_column_channel,
    identity_channel,
    independent_source,
    random_channel,
    random_source,
    symmetric_channel,
)
from designmosaics.serialize import load_mosaic, save_mosaic
from test_acceptance import (
    M1_GRID,
    M2_GRID,
    M3_GRID,
    M4_GRID,
    _grid_mosaics,
    cond_stack,
    member_matrices,
)


def wiretap_tensor(J):
    """The full P_{ZXSA} array of a WiretapJoint, axes (z, x, s, alpha)."""
    N = member_matrices(J.mosaic).astype(float)
    t = np.einsum("xz,axs,a->zxsa", J.channel.W, N, J.p_a)
    return t / (J.mosaic.b * J.mosaic.k)


def pa_tensor(J):
    """The full P_{XZSA} array of a PAJoint, axes (x, z, s, alpha)."""
    N = member_matrices(J.mosaic).astype(float)
    return np.einsum("xz,axs->xzsa", J.joint.P, N) / J.mosaic.b


# -- divergences ---------------------------------------------------------------

def chi2(P, Q) -> float:
    """sum over {Q > 0} of Q (P/Q - 1)^2."""
    P, Q = security._pair(P, Q)
    m = Q > 0
    return float((np.square(P[m] - Q[m]) / Q[m]).sum())


def _joint_and_product(W, Q, P):
    """The joint P(x) W(z|x) and the product P(x) Q(z), as (x, z) arrays."""
    P = np.asarray(P, dtype=float).ravel()
    return P[:, None] * np.asarray(W, dtype=float), np.outer(P, np.asarray(Q, dtype=float).ravel())


def kl_cond(W, Q, P) -> float:
    """D(W || Q | P) = sum_x P(x) D(W(.|x) || Q) = D(P W || P x Q)."""
    return kl(*_joint_and_product(W, Q, P))


def d2_cond(W, Q, P) -> float:
    return d2(*_joint_and_product(W, Q, P))


def mutual_information(P_XY) -> float:
    """I(X ^ Y) = D(P_XY || P_X x P_Y) from a joint matrix."""
    P = np.asarray(P_XY, dtype=float)
    return kl(P, np.outer(P.sum(axis=1), P.sum(axis=0)))


def test_divergences_at_equal_distributions():
    P = np.array([0.2, 0.3, 0.5])
    assert tv(P, P) == 0.0
    assert kl(P, P) == 0.0
    assert chi2(P, P) == 0.0
    assert d2(P, P) == 0.0


def test_divergence_hand_example():
    P = np.array([1.0, 0.0])
    Q = np.array([0.5, 0.5])
    assert abs(d2(P, Q) - 1.0) < 1e-15          # log 2 = 1 bit
    assert abs(chi2(P, Q) - 1.0) < 1e-15
    assert abs(tv(P, Q) - 1.0) < 1e-15


def test_d2_cond_identity_channel_uniform():
    v = 6
    unif = np.full(v, 1.0 / v)
    val = d2_cond(np.eye(v), unif, unif)
    assert abs(val - math.log2(v)) < 1e-12


def test_divergence_relations_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        P = rng.dirichlet(np.ones(n))
        Q = rng.dirichlet(np.ones(n))
        assert kl(P, Q) <= d2(P, Q) + 1e-12
        assert abs(chi2(P, Q) - (2.0 ** d2(P, Q) - 1.0)) < 1e-9
        assert tv(P, Q) <= math.sqrt(chi2(P, Q)) + P[Q == 0].sum() + 1e-12


def test_divergences_support_condition():
    P = np.array([0.5, 0.5, 0.0])
    Q = np.array([1.0, 0.0, 0.0])
    assert kl(P, Q) == math.inf
    assert d2(P, Q) == math.inf
    # chi2 only sums over the support of Q
    assert chi2(P, Q) == 0.25
    # tv dominated by sqrt(chi2) + P(Q = 0)
    assert tv(P, Q) <= math.sqrt(chi2(P, Q)) + 0.5 + 1e-12


def renyi2_entropy(P) -> float:
    """H2(X) = -log2 sum P(x)^2."""
    P = np.asarray(P, dtype=float).ravel()
    return float(-np.log2(np.square(P).sum()))


def test_renyi2_entropy_and_mutual_information():
    assert abs(renyi2_entropy(np.full(8, 1 / 8)) - 3.0) < 1e-12
    P_XY = np.array([[0.25, 0.25], [0.25, 0.25]])
    assert abs(mutual_information(P_XY)) < 1e-12
    P_XY = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert abs(mutual_information(P_XY) - 1.0) < 1e-12
    # I(X ^ Y) = sum_x P(x) D(P_{Y|X=x} || P_Y) = kl_cond
    rng = np.random.default_rng(1)
    P = rng.dirichlet(np.ones(6)).reshape(2, 3)
    rows = P / P.sum(axis=1, keepdims=True)
    assert abs(mutual_information(P) - kl_cond(rows, P.sum(axis=0), P.sum(axis=1))) < 1e-12


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        kl(np.ones(3) / 3, np.ones(4) / 4)


# -- channels and sources ---------------------------------------------------------

def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Channel(np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        Channel(np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_joint_validation():
    with pytest.raises(ValueError):
        JointXZ(np.array([[0.3, 0.3], [0.3, 0.3]]))
    with pytest.raises(ValueError):
        JointXZ(np.array([[0.5, 0.0], [0.5, 0.0]]))  # P_Z has a zero column
    with pytest.raises(ValueError, match="finite"):
        JointXZ(np.array([[np.nan, 0.5], [0.25, 0.25]]))
    j = JointXZ(np.array([[0.25, 0.25], [0.25, 0.25]]))
    assert np.allclose(j.P_Z, [0.5, 0.5])
    M = build_m1(2, 2)
    with pytest.raises(ValueError, match="finite"):
        WiretapJoint(M, identity_channel(M.v), [np.nan, np.nan])


# -- joint builders -----------------------------------------------------------------

def test_wiretap_joint_pz_two_ways():
    M = build_m1(2, 3)
    rng = np.random.default_rng(2)
    W = random_channel(M.v, 7, rng)
    for p_a in (None, rng.dirichlet(np.ones(M.a))):
        J = WiretapJoint(M, W, p_a)
        p_zsa = cond_stack(J) * J.p_a[:, None, None]
        assert np.abs(p_zsa.sum(axis=(0, 2)) - J.p_z).max() < 1e-12
        assert abs(p_zsa.sum() - 1.0) < 1e-12
        assert abs(wiretap_tensor(J).sum() - 1.0) < 1e-12


def test_wiretap_point_mass_marginal_is_member_conditional():
    M = build_m1(2, 2)
    rng = np.random.default_rng(3)
    W = random_channel(M.v, 5, rng)
    alpha0 = 1
    p_a = np.zeros(M.a)
    p_a[alpha0] = 1.0
    cond = cond_stack(WiretapJoint(M, W, p_a))
    marg = (cond * p_a[:, None, None]).sum(axis=0)
    assert np.abs(marg - cond[alpha0]).max() < 1e-15


def test_pa_joint_key_marginal_exactly_uniform():
    M = build_m4(2, 3)
    rng = np.random.default_rng(4)
    src = random_source(M.v, 5, rng)
    fractions = key_marginal_exact(M, src.P)
    assert len(set(fractions)) == 1
    # each P_A(alpha) = (r/b) * sum P_X = total/a, exactly
    total = sum(Fraction(float(t)) for row in src.P for t in row)
    assert fractions[0] * M.a == total
    # and in floating point the deviation is at the machine level
    J = PAJoint(M, src)
    assert exact_pa_metrics(J)["key_uniformity_deviation"] < 1e-14


def test_pa_joint_seed_conditional_formula():
    # P_{S|Z=z,A=alpha}(s) = (p_z^T N_alpha)(s) / (r p_z^T 1)
    M = build_m2(2, 1)
    rng = np.random.default_rng(5)
    src = random_source(M.v, 4, rng)
    J = PAJoint(M, src)
    seed_law = cond_stack(J) / J.p_z[None, :, None]        # P_{S|Z,A}
    N = member_matrices(M).astype(float)
    r = M.b * M.k // M.v
    for alpha in range(M.a):
        for z in range(src.nz):
            p_z = src.P[:, z]
            want = (p_z @ N[alpha]) / (r * p_z.sum())
            assert np.abs(seed_law[alpha, z] - want).max() < 1e-15
    # the same conditional from the full tensor
    T = pa_tensor(J)  # (x, z, s, alpha)
    cond = T.sum(axis=0)  # (z, s, alpha)
    for alpha in range(M.a):
        got = cond[:, :, alpha] / cond[:, :, alpha].sum(axis=1, keepdims=True)
        assert np.abs(got - seed_law[alpha]).max() < 1e-12


# -- exact metrics -----------------------------------------------------------------

def test_wiretap_metrics_constant_column_channel():
    M = build_m1(2, 3)
    W = constant_column_channel(M.v, [0.3, 0.7])
    res = exact_wiretap_metrics(WiretapJoint(M, W))
    assert abs(res["mutual_information"]) < 1e-12
    assert abs(res["max_d2_cond"]) < 1e-12
    assert res["tv"] < 1e-12


def test_wiretap_metrics_chain_and_pa_independence():
    M = build_m1(2, 3)
    rng = np.random.default_rng(6)
    W = random_channel(M.v, 6, rng)
    values = []
    for _ in range(10):
        p_a = rng.dirichlet(np.ones(M.a))
        res = exact_wiretap_metrics(WiretapJoint(M, W, p_a))
        assert res["chain_ok"] and res["tv_chain_ok"]
        values.append((res["max_kl_cond"], res["max_d2_cond"]))
    kls, d2s = zip(*values)
    assert max(kls) - min(kls) < 1e-12     # independent of P_A
    assert max(d2s) - min(d2s) < 1e-12


def test_pa_metrics_independent_source_vanish():
    M = build_m4(2, 3)
    src = independent_source(M.v, 4)
    res = exact_pa_metrics(PAJoint(M, src))
    assert res["max_kl"] < 1e-12
    assert res["max_tv"] < 1e-12
    assert res["mutual_information"] < 1e-12


def test_pa_metrics_strong_secrecy_chain():
    M = build_m4(2, 3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        src = random_source(M.v, int(rng.integers(2, 7)), rng)
        res = exact_pa_metrics(PAJoint(M, src))
        assert res["strong_secrecy_ok"]


# -- theorem bounds ------------------------------------------------------------------

def test_bound_wt_constant_column_is_one():
    M = build_m1(2, 3)
    W = constant_column_channel(M.v, [0.4, 0.6])
    assert abs(bound_wt_bibd(M.member_params, W).value - 1.0) < 1e-12
    assert bound_wt_tv_bibd(M.member_params, W).value < 1e-6
    G = build_m4(2, 3)
    WG = constant_column_channel(G.v, [0.4, 0.6])
    assert abs(bound_wt_gdd(G.member_params, WG, G.point_classes).value - 1.0) < 1e-12
    assert bound_wt_tv_gdd(G.member_params, WG, G.point_classes).value < 1e-6


def test_bound_wt_identity_channel_equals_a():
    for M in (build_m1(2, 2), build_m1(2, 3), build_m2(2, 1)):
        W = identity_channel(M.v)
        assert abs(bound_wt_bibd(M.member_params, W).value - M.a) < 1e-9
        # and the bound is attained by the exact conditional divergence
        res = exact_wiretap_metrics(WiretapJoint(M, W))
        assert abs(2 ** res["max_d2_cond"] - M.a) < 1e-9


def test_bound_wt_tv_identity_channel_closed_form():
    M = build_m1(2, 3)
    p = M.member_params
    W = identity_channel(M.v)
    want = 2.0 * math.sqrt((p.r - p.lam) * (M.v - 1) / (p.k * p.r))
    assert abs(bound_wt_tv_bibd(p, W).value - want) < 1e-12


def test_gdd_bound_with_equal_lambdas_reduces_to_bibd():
    M = build_m1(2, 3)
    p = M.member_params
    # view the BIBD as a GDD with singleton classes and lambda1 = lambda2
    gdd = GDDParams(u=1, m=M.v, k=p.k, lambda1=p.lam, lambda2=p.lam,
                    v=M.v, r=p.r, b=M.b,
                    partition=tuple((x,) for x in range(M.v)))
    rng = np.random.default_rng(8)
    W = random_channel(M.v, 5, rng)
    assert abs(bound_wt_gdd(gdd, W).value - bound_wt_bibd(p, W).value) < 1e-12
    assert abs(bound_wt_tv_gdd(gdd, W).value - bound_wt_tv_bibd(p, W).value) < 1e-12
    src = random_source(M.v, 5, rng)
    assert abs(bound_pa_kl(gdd, src).value - bound_pa_kl(p, src).value) < 1e-12
    assert abs(bound_pa_tv(gdd, src).value - bound_pa_tv(p, src).value) < 1e-12


def test_bound_pa_uniform_independent_source():
    # X uniform and independent of Z: H2 = log v, the bound collapses to 1
    M = build_m1(2, 3)
    src = independent_source(M.v, 3)
    rep = bound_pa_kl(M.member_params, src)
    assert abs(rep.value - 1.0) < 1e-12
    assert bound_pa_tv(M.member_params, src).value < 1e-6
    res = exact_pa_metrics(PAJoint(M, src))
    assert 2 ** res["max_kl"] <= rep.value + 1e-9


def test_bound_pa_full_leakage_regime():
    # Z = X: H2(X|Z=z) = 0, the bound is large but still dominates
    M = build_m1(2, 3)
    eye = np.eye(M.v) / M.v
    src = JointXZ(eye)
    rep = bound_pa_kl(M.member_params, src)
    res = exact_pa_metrics(PAJoint(M, src))
    assert rep.value >= M.a * (M.member_params.r - M.member_params.lam) / M.member_params.r
    assert 2 ** res["max_kl"] <= rep.value + 1e-9


def test_gdd_specialization_coefficients():
    rng = np.random.default_rng(9)
    # singular: only the partition divergence term survives
    M3 = build_m3(2, 1, 2)
    W = random_channel(M3.v, 5, rng)
    rep = bound_wt_gdd(M3.member_params, W, M3.point_classes)
    assert rep.specialization["class"] == "singular"
    assert abs(rep.coefficients["exp_d2_w"]) < 1e-15
    # semi-regular TD: coefficients (1, -1/k, 1/k)
    M4 = build_m4(3, 4)
    W4 = random_channel(M4.v, 5, rng)
    rep4 = bound_wt_gdd(M4.member_params, W4, M4.point_classes)
    assert rep4.specialization["class"] == "semi-regular"
    assert rep4.specialization["td_coefficients"] == (1.0, -1.0 / 3, 1.0 / 3)
    # PA side: TD coefficients (a, -1, 0)
    src = random_source(M4.v, 5, rng)
    rep_pa = bound_pa_kl(M4.member_params, src, M4.point_classes)
    assert rep_pa.specialization["td_coefficients"] == (float(M4.a), -1.0, 0.0)


def test_report_specialization_displays_are_pinned():
    """Both displays of the wiretap and PA reports on a singular rung and a
    semi-regular TD rung, as exact tuples; they depend on the parameters only."""
    rng = np.random.default_rng(24)
    third = 1.0 / 3
    want = {
        "m3": ({"class": "singular", "coefficients": (0.6, 0.4)},
               {"class": "singular", "coefficients": (2.4, -0.4)}),
        "m4": ({"class": "semi-regular", "coefficients": (1.0, -third, third),
                "td_coefficients": (1.0, -third, third)},
               {"class": "semi-regular", "coefficients": (4.0, -1.0, 0.0),
                "td_coefficients": (4.0, -1.0, 0.0)}),
    }
    for M in (build_m3(2, 1, 2), build_m4(3, 4)):
        wt = wiretap_report(M, random_channel(M.v, 3, rng)).coefficients["specialization"]
        pa = pa_report(M, random_source(M.v, 3, rng)).coefficients["specialization"]
        assert (wt, pa) == want[M.meta["family"]], M.meta


# -- exact identities -----------------------------------------------------------------

def test_prop41_constant_column_and_identity_channel():
    M = build_m1(2, 3)
    D = M.member(0)
    W = constant_column_channel(M.v, [0.25, 0.75])
    rep = prop41_check(D, M.member_params, W)
    assert abs(rep.lhs - 1.0) < 1e-12 and abs(rep.rhs - 1.0) < 1e-12
    rep = prop41_check(D, M.member_params, identity_channel(M.v))
    assert abs(rep.lhs - M.v / M.k) < 1e-12
    assert rep.discrepancy < 1e-12


def test_prop41_random_channels_ag23():
    M = build_m1(2, 3)
    D = M.member(0)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        W = random_channel(M.v, int(rng.integers(2, 12)), rng)
        worst = max(worst, prop41_check(D, M.member_params, W).discrepancy)
    assert worst < 1e-9


def test_prop42_uniform_independent_and_random():
    M = build_m4(2, 3)
    D = M.member(0)
    src = independent_source(M.v, 3)
    rep = prop42_check(D, M.member_params, src)
    for lhs, rhs in rep.per_z:
        assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        src = random_source(M.v, int(rng.integers(2, 9)), rng)
        worst = max(worst, prop42_check(D, M.member_params, src).discrepancy)
    assert worst < 1e-9


def test_prop_identities_on_regular_gdd():
    cat = clatworthy_r1()
    rng = np.random.default_rng(12)
    for _ in range(50):
        W = random_channel(4, int(rng.integers(2, 7)), rng)
        assert prop41_check(cat.structure, cat.params, W).discrepancy < 1e-9
        src = random_source(4, int(rng.integers(2, 7)), rng)
        assert prop42_check(cat.structure, cat.params, src).discrepancy < 1e-9


# -- generalized bounds ----------------------------------------------------------------

def test_spectral_bound_equals_bibd_identity():
    # for a BIBD, mu2 = r - lambda and (mu1 - mu2)/v = lambda, so the spectral
    # bound coincides with the exact identity value
    M = build_m1(2, 3)
    p = M.member_params
    D = M.member(0)
    rng = np.random.default_rng(13)
    W = random_channel(M.v, 6, rng)
    rep = generalized_bound(D, channel=W)
    assert abs(rep.c - (p.r - p.lam)) < 1e-9
    assert abs(rep.d - p.lam) < 1e-9
    ident = prop41_check(D, p, W)
    assert abs(rep.wiretap["bound"] - ident.rhs) < 1e-9
    assert rep.wiretap["dominates"]


def test_lambda_max_bound_dominates_gdd():
    M = build_m4(2, 3)
    D = M.member(0)
    rng = np.random.default_rng(14)
    for _ in range(30):
        W = random_channel(M.v, 5, rng)
        src = random_source(M.v, 5, rng)
        rep = generalized_bound(D, channel=W, joint=src, gdd_params=M.member_params)
        assert rep.wiretap["dominates"] and rep.pa["dominates"]
        assert rep.lambda_max["wiretap"]["dominates"]
        assert rep.lambda_max["pa"]["dominates"]


def test_generalized_bound_rank_one_gram():
    # v = k: a single block repeated; mu2 = 0 and the bound is exactly 1
    D = IncidenceStructure(np.ones((2, 3)))
    rng = np.random.default_rng(15)
    W = random_channel(2, 4, rng)
    rep = generalized_bound(D, channel=W)
    assert abs(rep.c) < 1e-9
    assert abs(rep.wiretap["bound"] - 1.0) < 1e-9
    assert abs(rep.wiretap["exact"] - 1.0) < 1e-9


# -- sandwich comparisons ----------------------------------------------------------------

def test_divergence_comparison_singleton_classes():
    rng = np.random.default_rng(16)
    W = random_channel(6, 4, rng)
    rep = divergence_comparison(W, [(x,) for x in range(6)])
    assert rep.left_holds and rep.right_holds
    assert rep.right_equality and rep.left_equality  # log u = 0 collapses both


def test_divergence_comparison_equality_detectors():
    part = [(0, 1), (2, 3)]
    # rows constant within classes: right equality
    row = np.array([0.2, 0.8])
    W = Channel(np.stack([row, row, [0.6, 0.4], [0.6, 0.4]]))
    rep = divergence_comparison(W, part)
    assert rep.right_detector and rep.right_equality
    # class-disjoint supports: left equality
    W2 = Channel(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]))
    rep2 = divergence_comparison(W2, part)
    assert rep2.left_detector and rep2.left_equality
    # detectors match numeric equality on random channels
    rng = np.random.default_rng(17)
    for _ in range(50):
        W3 = random_channel(4, int(rng.integers(2, 6)), rng)
        r = divergence_comparison(W3, part)
        assert r.left_holds and r.right_holds
        if r.right_detector:
            assert r.right_equality
        if r.left_detector:
            assert r.left_equality


def test_entropy_comparison_detectors():
    part = [(0, 1), (2, 3)]
    # conditional constant on classes: left equality
    P = np.full((4, 2), 1 / 8)
    rep = entropy_comparison(JointXZ(P), part)
    assert rep["left_detector"] and rep["left_equality"]
    # at most one positive point per class: right equality
    P2 = np.array([[0.3, 0.0], [0.0, 0.25], [0.2, 0.0], [0.0, 0.25]])
    rep2 = entropy_comparison(JointXZ(P2), part)
    assert rep2["right_detector"] and rep2["right_equality"]
    rng = np.random.default_rng(18)
    for _ in range(50):
        src = random_source(4, int(rng.integers(2, 6)), rng)
        r = entropy_comparison(src, part)
        assert r["left_holds"] and r["right_holds"]


# -- assembled reports -------------------------------------------------------------------

def test_wiretap_report_dominates_random():
    rng = np.random.default_rng(19)
    for M in (build_m1(2, 3), build_m2(2, 1), build_m3(2, 1, 2), build_m4(2, 3)):
        for _ in range(10):
            W = random_channel(M.v, int(rng.integers(2, 8)), rng)
            p_a = rng.dirichlet(np.ones(M.a))
            rep = wiretap_report(M, W, p_a)
            assert rep.dominates
            assert rep.to_json()["dominates"]


def test_pa_report_dominates_random():
    rng = np.random.default_rng(20)
    for M in (build_m1(2, 3), build_m2(2, 1), build_m3(2, 1, 2), build_m4(2, 3)):
        for _ in range(10):
            src = random_source(M.v, int(rng.integers(2, 8)), rng)
            rep = pa_report(M, src)
            assert rep.dominates


def test_reports_evaluate_each_bound_term_once(monkeypatch):
    """wiretap_report evaluates each uniform-input divergence once for both of
    its bounds, pa_report each per-z Renyi entropy once; the bounds keep the
    values of the public bound functions."""
    calls = {"exp_d2": 0, "h2": 0, "h2_classes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(security, "_exp_d2_uniform",
                        counted("exp_d2", security._exp_d2_uniform))
    monkeypatch.setattr(JointXZ, "h2_given_z", counted("h2", JointXZ.h2_given_z))
    monkeypatch.setattr(JointXZ, "h2_classes_given_z",
                        counted("h2_classes", JointXZ.h2_classes_given_z))
    rng = np.random.default_rng(23)
    for M, n_terms in ((build_m1(2, 3), 1), (build_m4(3, 4), 2), (build_m3(2, 1, 2), 2)):
        W = random_channel(M.v, 4, rng)
        calls.update(exp_d2=0)
        rep = wiretap_report(M, W)
        assert calls["exp_d2"] == n_terms, M
        params, part = M.member_params, M.point_classes
        assert rep.bounds == {"exp_mutual_information": bound_wt_gdd(params, W, part).value,
                              "tv": bound_wt_tv_gdd(params, W, part).value}
        assert rep.coefficients["tv"] == bound_wt_tv_gdd(params, W, part).coefficients
        src = random_source(M.v, 4, rng)
        calls.update(h2=0, h2_classes=0)
        rep = pa_report(M, src)
        assert (calls["h2"], calls["h2_classes"]) == (1, n_terms - 1), M
        assert rep.bounds == {"exp_max_kl": bound_pa_kl(params, src, part).value,
                              "tv": bound_pa_tv(params, src, part).value}


def test_prop42_headline_pair_is_the_worst_z_term():
    """lhs/rhs are read at the z of the largest right-hand side, the term
    bound_pa_kl reports, so a 1-ulp change of P_XZ leaves them in place."""
    rng = np.random.default_rng(42)
    for M in _grid_mosaics():
        D = M.member(0)
        src = random_source(M.v, 4, rng)
        rep = prop42_check(D, M.member_params, src, M.point_classes)
        assert rep.rhs == bound_pa_kl(M.member_params, src, M.point_classes).value, M
        assert rep.rhs == max(rhs for _, rhs in rep.per_z), M
        P = src.P.copy()
        P.flat[0] = np.nextafter(P.flat[0], 1.0)
        again = prop42_check(D, M.member_params, JointXZ(P), M.point_classes)
        assert abs(again.lhs - rep.lhs) <= 1e-12 and abs(again.rhs - rep.rhs) <= 1e-12, M


def test_pa_report_d2_attains_bound():
    # the worst-case seed Renyi divergence is EQUAL to the bound (Prop level)
    rng = np.random.default_rng(21)
    for M in (build_m1(2, 3), build_m4(2, 3)):
        src = random_source(M.v, 4, rng)
        rep = pa_report(M, src)
        assert abs(2 ** rep.exact["max_d2_seed"] - rep.bounds["exp_max_kl"]) < 1e-9


# -- oracles: the row loops and BIBD closed forms the joint-vs-product kernel
#    and the GDD coefficient view replaced -----------------------------------------

def kl_cond_rows(W, Q, P):
    W = np.asarray(W, dtype=float)
    P = np.asarray(P, dtype=float).ravel()
    total = 0.0
    for x in range(W.shape[0]):
        if P[x] > 0:
            term = kl(W[x], Q)
            if term == INF:
                return INF
            total += P[x] * term
    return total


def exp_d2_cond_rows(W, Q, P):
    W = np.asarray(W, dtype=float)
    Q = np.asarray(Q, dtype=float).ravel()
    P = np.asarray(P, dtype=float).ravel()
    total = 0.0
    for x in range(W.shape[0]):
        if P[x] > 0:
            term = exp_d2(W[x], Q)
            if term == INF:
                return INF
            total += P[x] * term
    return total


def d2_cond_rows(W, Q, P):
    val = exp_d2_cond_rows(W, Q, P)
    return INF if val == INF else float(np.log2(val))


def mutual_information_rows(P_XY):
    P = np.asarray(P_XY, dtype=float)
    P_X = P.sum(axis=1)
    P_Y = P.sum(axis=0)
    total = 0.0
    for x in range(P.shape[0]):
        if P_X[x] > 0:
            term = kl(P[x] / P_X[x], P_Y)
            if term == INF:
                return INF
            total += P_X[x] * term
    return total


def exact_wiretap_metrics_rows(J):
    cond = cond_stack(J)
    a, nz, b = cond.shape
    p_a = J.p_a
    p_zsa = cond * p_a[:, None, None]
    p_zs = p_zsa.sum(axis=0)
    mi = 0.0
    for al in range(a):
        if p_a[al] > 0:
            mi += p_a[al] * kl(cond[al], p_zs)
    unif_b = np.full(b, 1.0 / b)
    max_kl = -INF
    max_d2 = -INF
    for al in range(a):
        rows = (b * cond[al]).T
        max_kl = max(max_kl, kl_cond_rows(rows, J.p_z, unif_b))
        max_d2 = max(max_d2, d2_cond_rows(rows, J.p_z, unif_b))
    ref = J.p_z[:, None] / b
    tv_metric = float(np.abs(p_zsa - p_zs[None, :, :] * p_a[:, None, None]).sum())
    tv_upper = 2.0 * max(float(np.abs(cond[al] - ref).sum()) for al in range(a))
    return {
        "mutual_information": mi,
        "max_kl_cond": max_kl,
        "max_d2_cond": max_d2,
        "tv": tv_metric,
        "tv_upper": tv_upper,
        "chain_ok": bool(mi <= max_kl + 1e-12 and max_kl <= max_d2 + 1e-12),
        "tv_chain_ok": bool(tv_metric <= tv_upper + 1e-12),
    }


def exact_pa_metrics_rows(J):
    cond = cond_stack(J)
    a, nz, b = cond.shape
    seed_law = cond / J.p_z[None, :, None]                  # P_{S|Z,A}
    ref = np.broadcast_to(J.p_z[:, None] / b, (nz, b))
    max_kl = max(kl(cond[al], ref) for al in range(a))
    max_tv = max(tv(cond[al], ref) for al in range(a))
    p_zs = cond.mean(axis=0)
    mi = sum(kl(cond[al], p_zs) for al in range(a)) / a
    unif_b = np.full(b, 1.0 / b)
    max_d2_s = -INF
    for al in range(a):
        for z in range(nz):
            max_d2_s = max(max_d2_s, d2(seed_law[al, z], unif_b))
    key_dev = float(np.abs(cond.sum(axis=(1, 2)) / a - 1.0 / a).max())
    return {
        "max_kl": max_kl,
        "max_tv": max_tv,
        "mutual_information": mi,
        "max_d2_seed": max_d2_s,
        "key_uniformity_deviation": key_dev,
        "strong_secrecy_ok": bool(mi <= max_kl + 1e-12),
    }


def exp_d2_w_uniform_closed(W):
    W = np.asarray(W, dtype=float)
    pz = W.mean(axis=0)
    m = pz > 0
    return float((np.square(W[:, m]) / pz[m]).sum() / W.shape[0])


def bound_wt_bibd_closed(params, channel):
    c = (params.r - params.lam) / (params.k * params.r)
    ew = exp_d2_w_uniform_closed(channel.W)
    return (1.0 - c) + c * ew, {"const": 1.0 - c, "exp_d2_w": c}


def bound_wt_tv_bibd_closed(params, channel):
    c = (params.r - params.lam) / (params.k * params.r)
    ew = exp_d2_w_uniform_closed(channel.W)
    return 2.0 * math.sqrt(max(c * (ew - 1.0), 0.0)), c


def pa_terms_bibd_closed(params, joint):
    a = params.v // params.k
    coeff_h2 = a * (params.r - params.lam) / params.r
    const = 1.0 - (params.r - params.lam) / (params.k * params.r)
    vals = coeff_h2 * np.exp2(-joint.h2_given_z()) + const
    return vals, {"coeff_h2": coeff_h2, "coeff_pi": 0.0, "const": const}


def gdd_closed_forms(params, channel, joint, partition):
    """Wiretap value, total-variation value, per-z PA values and PA
    coefficients of a GDD from its own c_w, c_pi, as computed before the
    coefficient view was shared with BIBDs."""
    kr = params.k * params.r
    c_w = (params.r - params.lambda1) / kr
    c_pi = (params.lambda1 - params.lambda2) * params.u / kr
    const = 1.0 - c_w - c_pi
    W = channel.W
    ew = exp_d2_w_uniform_closed(W)
    rows = np.stack([W[list(cls)].mean(axis=0) for cls in partition])
    pz = W.mean(axis=0)
    m = pz > 0
    epi = float((np.square(rows[:, m]) / pz[m]).sum() / rows.shape[0])
    a = params.v // params.k
    coeff_h2 = a * (params.r - params.lambda1) / params.r
    coeff_pi = a * (params.lambda1 - params.lambda2) / params.r
    vals = (coeff_h2 * np.exp2(-joint.h2_given_z())
            + coeff_pi * np.exp2(-joint.h2_classes_given_z(partition)) + const)
    return (const + c_pi * epi + c_w * ew,
            2.0 * math.sqrt(max(c_w * ew + c_pi * epi - (c_w + c_pi), 0.0)),
            vals, {"coeff_h2": coeff_h2, "coeff_pi": coeff_pi, "const": const})


def _assert_same(got, want, tol=1e-12):
    """Same keys; identical booleans and infinities; floats within tol."""
    assert list(got) == list(want)
    for key, w in want.items():
        g = got[key]
        if isinstance(w, bool):
            assert g is w, key
        elif math.isinf(w) or math.isinf(g):
            assert g == w, key
        else:
            assert abs(g - w) <= tol, (key, g, w)


def test_joint_vs_product_kernel_matches_row_loop_oracles():
    """Over the acceptance grid, under uniform, Dirichlet and point-mass P_A:
    the conditional divergences, mutual information, exact metrics and BIBD
    bounds agree with the row loops and closed forms to 1e-12."""
    rng = np.random.default_rng(4104)
    for M in _grid_mosaics():
        nz = int(rng.integers(2, 7))
        W = random_channel(M.v, nz, rng)
        point = np.zeros(M.a)
        point[int(rng.integers(M.a))] = 1.0
        for p_a in (None, rng.dirichlet(np.ones(M.a)), point):
            J = WiretapJoint(M, W, p_a)
            _assert_same(exact_wiretap_metrics(J), exact_wiretap_metrics_rows(J))
        src = random_source(M.v, nz, rng)
        _assert_same(exact_pa_metrics(PAJoint(M, src)), exact_pa_metrics_rows(PAJoint(M, src)))

        P_X = rng.dirichlet(np.ones(M.v))
        Q = rng.dirichlet(np.ones(nz))
        for fn, oracle in ((kl_cond, kl_cond_rows), (exp_d2_cond, exp_d2_cond_rows),
                           (d2_cond, d2_cond_rows)):
            assert abs(fn(W.W, Q, P_X) - oracle(W.W, Q, P_X)) <= 1e-12, (M, fn)
            assert abs(fn(W.W, P_X @ W.W, P_X) - oracle(W.W, P_X @ W.W, P_X)) <= 1e-12, (M, fn)
        assert abs(mutual_information(src.P) - mutual_information_rows(src.P)) <= 1e-12, M

        params = M.member_params
        if M.member_kind == "gdd":
            value, tv_value, vals, coeffs = gdd_closed_forms(params, W, src, M.point_classes)
            assert abs(bound_wt_gdd(params, W, M.point_classes).value - value) <= 1e-12, M
            assert abs(bound_wt_tv_gdd(params, W, M.point_classes).value - tv_value) <= 1e-12, M
            got_vals, got_coeffs, _ = _pa_terms(params, src, M.point_classes)
            assert np.abs(got_vals - vals).max() <= 1e-12, M
            _assert_same(got_coeffs, coeffs)
            continue
        value, coeffs = bound_wt_bibd_closed(params, W)
        rep = bound_wt_bibd(params, W)
        assert abs(rep.value - value) <= 1e-12 and rep.specialization is None, M
        _assert_same(rep.coefficients, coeffs)
        value, c = bound_wt_tv_bibd_closed(params, W)
        rep = bound_wt_tv_bibd(params, W)
        assert abs(rep.value - value) <= 1e-12, M
        _assert_same(rep.coefficients, {"const": -c, "exp_d2_w": c})
        vals, coeffs = pa_terms_bibd_closed(params, src)
        got_vals, got_coeffs, spec = _pa_terms(params, src, M.point_classes)
        assert np.abs(got_vals - vals).max() <= 1e-12 and spec is None, M
        _assert_same(got_coeffs, coeffs)


def test_conditional_divergences_support_escape():
    # W(.|x) puts mass on a letter z with Q(z) = 0: infinite unless P(x) = 0
    W = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
    Q = np.array([0.5, 0.5, 0.0])
    for P in (np.full(3, 1 / 3), np.array([0.5, 0.0, 0.5])):
        assert kl_cond(W, Q, P) == kl_cond_rows(W, Q, P) == INF
        assert d2_cond(W, Q, P) == d2_cond_rows(W, Q, P) == INF
        assert exp_d2_cond(W, Q, P) == exp_d2_cond_rows(W, Q, P) == INF
    P = np.array([1.0, 0.0, 0.0])     # the escaping rows carry no input mass
    assert kl_cond(W, Q, P) == kl_cond_rows(W, Q, P) == 0.0
    assert abs(d2_cond(W, Q, P) - d2_cond_rows(W, Q, P)) <= 1e-12


# -- oracle: the scatter that filled the (a, nz, b) stack before the joint laws
#    gathered one color at a time from the block table -------------------------

def _scatter_by_color(mosaic, rows) -> np.ndarray:
    """The (a, nz, b) array whose entry (alpha, z, s) sums rows[x, z] over the
    points x with f(x, s) = alpha: one bincount per output letter z over the
    cell codes F[x, s] * b + s."""
    a, b = mosaic.a, mosaic.b
    codes = (mosaic.color_matrix().astype(np.int64) * b + np.arange(b)).ravel()
    out = np.empty((a, rows.shape[1], b))
    for z in range(rows.shape[1]):
        weights = np.repeat(rows[:, z], b)
        out[:, z, :] = np.bincount(codes, weights, minlength=a * b).reshape(a, b)
    return out


def _resolvable_over_table():
    D, R = ag_design(2, 3)
    return construct_from_resolvable(D, R, Quasigroup([[0, 2, 1], [1, 0, 2], [2, 1, 0]]))


LAW_CASES = (
    [(f"m1{p}", lambda p=p: build_m1(*p)) for p in M1_GRID]
    + [(f"m2{p}", lambda p=p: build_m2(*p)) for p in M2_GRID + [(5, 3)]]
    + [(f"m3{p}", lambda p=p: build_m3(*p)) for p in M3_GRID + [(3, 2, 2)]]
    + [(f"m4{p}", lambda p=p: build_m4(*p)) for p in M4_GRID + [(9, 8)]]
    + [("m1(3,4)", lambda: build_m1(3, 4)),
       ("from_members", lambda: from_members(build_m1(2, 3).members())),
       ("dual_mosaic", lambda: dual_mosaic(build_m1(2, 3))),
       ("point_multiple", lambda: point_multiple(build_m2(2, 1), 2)),
       ("resolvable_over_table", _resolvable_over_table)]
)


@pytest.mark.parametrize("case", range(len(LAW_CASES)), ids=[c[0] for c in LAW_CASES])
def test_per_color_laws_match_the_scatter_oracle(case):
    """Every color's P_{ZS|A=alpha} of both joint laws is bit-identical to the
    scattered stack, scaled as the stack was, with a few output letters and
    with nz = v."""
    M = LAW_CASES[case][1]()
    rng = np.random.default_rng(2100 + case)
    for nz in (2 + case % 6, M.v):
        W = random_channel(M.v, nz, rng)
        want = _scatter_by_color(M, W.W)
        want /= M.b * M.k
        J = WiretapJoint(M, W, rng.dirichlet(np.ones(M.a)))
        for al in range(M.a):
            assert np.array_equal(J.cond(al), want[al]), (M, nz, al)
        src = random_source(M.v, nz, rng)
        want = _scatter_by_color(M, src.P)
        want *= M.a / M.b
        J = PAJoint(M, src)
        for al in range(M.a):
            assert np.array_equal(J.cond(al), want[al]), (M, nz, al)


def _build_peak(build) -> int:
    """Peak bytes traced while build() runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_joint_laws_build_one_array():
    """Building either joint law of m4(9,8) with 72 output letters peaks below
    1.5 times the (a, nz, b) stack: the build holds the block table and
    replication counts, no law."""
    M = build_m4(9, 8)
    rng = np.random.default_rng(6)
    src = random_source(M.v, M.v, rng)
    W = random_channel(M.v, M.v, rng)
    M.color_matrix()                   # cached mosaic state, not the law's
    cells = M.a * M.v * M.b * 8
    assert _build_peak(lambda: PAJoint(M, src)) < 1.5 * cells
    assert _build_peak(lambda: WiretapJoint(M, W)) < 1.5 * cells


def test_exact_metrics_peak_below_half_the_stack():
    """On m2(5,3) with nz = v, building either joint law and computing its
    exact metrics peaks below half the (a, nz, b) stack: the laws are read one
    color at a time."""
    M = build_m2(5, 3)
    rng = np.random.default_rng(21)
    W = random_channel(M.v, M.v, rng)
    src = random_source(M.v, M.v, rng)
    M.color_matrix()
    stack = M.a * M.v * M.b * 8
    assert _build_peak(lambda: exact_wiretap_metrics(WiretapJoint(M, W))) < 0.5 * stack
    assert _build_peak(lambda: exact_pa_metrics(PAJoint(M, src))) < 0.5 * stack


def test_joint_laws_reject_a_seed_without_k_points_of_each_color():
    # k = 2, but seed 0 holds three points of color 0 and one of color 1
    F = np.array([[0, 0], [0, 1], [0, 0], [1, 1]], dtype=np.int32)
    M = _from_colors(F, 2)
    assert M.k == 2
    with pytest.raises(ValueError, match="seed 0 holds 3 points of color 0, not k = 2"):
        WiretapJoint(M, identity_channel(M.v))
    with pytest.raises(ValueError, match="seed 0 holds 3 points of color 0, not k = 2"):
        PAJoint(M, independent_source(M.v, 2))


def test_the_cached_block_table_is_the_only_sort(tmp_path, monkeypatch):
    """On a mosaic read from member files, once its block table is built, g at
    every seed and both joint laws sort nothing."""
    path = tmp_path / "m.json"
    save_mosaic(build_m1(2, 3), path, members=True)
    M = load_mosaic(path)
    rng = np.random.default_rng(26)
    W, src = random_channel(M.v, 3, rng), random_source(M.v, 3, rng)
    F = M.color_matrix()
    M.block_table()
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: calls.append(args) or argsort(*args, **kw))
    for s in range(M.b):
        alpha, kappa = s % M.a, s % M.k
        assert M.g(s, alpha, kappa) == np.flatnonzero(F[:, s] == alpha)[kappa]
    WiretapJoint(M, W)
    PAJoint(M, src)
    assert calls == []


def _symmetric_closed_form(v, b, k, p):
    """The exact wiretap metrics of the q-ary symmetric channel with crossover
    p under a uniform P_A: P_{ZS|A=alpha}(z, s) is hi on the k points of block
    (s, alpha) and lo elsewhere, and the mixture P_ZS is uniform, u."""
    hi = (k * p / (v - 1) + 1 - p - p / (v - 1)) / (b * k)
    lo = k * p / ((v - 1) * b * k)
    u = 1 / (v * b)

    def plogp(t):
        return t * math.log2(t / u) if t > 0 else 0.0

    kl_value = b * (k * plogp(hi) + (v - k) * plogp(lo))
    tv_value = b * (k * abs(hi - u) + (v - k) * abs(lo - u))
    return {"mutual_information": kl_value, "max_kl_cond": kl_value,
            "max_d2_cond": math.log2(b * (k * hi ** 2 + (v - k) * lo ** 2) / u),
            "tv": tv_value, "tv_upper": 2 * tv_value}


@pytest.mark.parametrize("p", [0.0, 0.2, 0.7])
def test_symmetric_channel_metrics_match_their_closed_form(p):
    for M in _grid_mosaics() + [build_m2(5, 3)]:
        got = exact_wiretap_metrics(WiretapJoint(M, symmetric_channel(M.v, p)))
        for key, want in _symmetric_closed_form(M.v, M.b, M.k, p).items():
            assert math.isclose(got[key], want, rel_tol=1e-12), (M, p, key, got[key], want)
