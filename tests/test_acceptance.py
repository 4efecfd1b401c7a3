"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Tolerances are pinned here: exact identities at 1e-9, bound domination slack
1e-9, rate formulas at 1e-12, chi-square significance 1e-3.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import designmosaics as dm
from designmosaics.families import DennistonGeometry


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")
        return run
    return wrap


M1_GRID = [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)]
M2_GRID = [(t, l) for t in (2, 3) for l in range(1, t + 1)]
M3_GRID = [(t, l, u) for (t, l) in M2_GRID for u in (1, 2, 3)]
M4_GRID = [(k, q) for q in (2, 3, 4, 5) for k in range(2, q + 2)]


def member_matrices(M):
    """The (a, v, b) stack of member incidence matrices, built from F."""
    F = M.color_matrix()
    return (F[None, :, :] == np.arange(M.a)[:, None, None]).astype(np.uint8)


def cond_stack(J):
    """The (a, nz, b) stack P_{ZS|A} of a joint law, one color at a time."""
    return np.stack([J.cond(al) for al in range(J.mosaic.a)])


def _grid_mosaics():
    out = []
    for t, q in M1_GRID:
        out.append(dm.build_m1(t, q))
    for t, l in M2_GRID:
        out.append(dm.build_m2(t, l))
    for t, l, u in M3_GRID:
        out.append(dm.build_m3(t, l, u))
    for k, q in M4_GRID:
        out.append(dm.build_m4(k, q))
    return out


@criterion(1, "family parameter conformance")
def test_criterion_1_family_conformance():
    start = time.monotonic()
    for t, q in M1_GRID:
        M = dm.build_m1(t, q)
        r = (q ** t - 1) // (q - 1)
        lam = (q ** (t - 1) - 1) // (q - 1)   # forced by r(k-1) = lam(v-1); see ledger
        p = M.member_params
        assert (M.v, M.b, p.r, p.k, p.lam, M.a) == (q ** t, q * r, r, q ** (t - 1), lam, q)
        if t == 2:
            assert p.lam == q ** (t - 2)      # the displayed form, valid at t = 2
        assert dm.verify_mosaic(M)
        for alpha in range(M.a):
            assert dm.verify_bibd(M.member(alpha), p.lam)
    for t, l in M2_GRID:
        M = dm.build_m2(t, l)
        a = 2 ** t + 1 - 2 ** (t - l)
        p = M.member_params
        assert (M.v, M.b, p.r, p.k, p.lam, M.a) == (
            2 ** l * a, (2 ** t + 1) * a, 2 ** t + 1, 2 ** l, 1, a)
        assert dm.verify_mosaic(M)
        for alpha in range(M.a):
            assert dm.verify_bibd(M.member(alpha), 1)
    for t, l, u in M3_GRID:
        M = dm.build_m3(t, l, u)
        a = 2 ** t + 1 - 2 ** (t - l)
        g = M.member_params
        assert (g.u, g.m, M.b, g.r, g.k, g.lambda1, g.lambda2, M.a) == (
            u, 2 ** l * a, (2 ** t + 1) * a, 2 ** t + 1, 2 ** l * u, 2 ** t + 1, 1, a)
        assert dm.verify_mosaic(M)
        for alpha in range(M.a):
            res = dm.verify_gdd(M.member(alpha), M.point_classes, g.lambda1, g.lambda2)
            assert res and dm.classify_gdd(res) == "singular"
    for k, q in M4_GRID:
        M = dm.build_m4(k, q)
        g = M.member_params
        assert (g.u, g.k, M.b, g.lambda2, M.a, M.v) == (q, k, q * q, 1, q, q * k)
        assert g.lambda1 == 0
        assert dm.verify_mosaic(M)
        for alpha in range(M.a):
            res = dm.verify_gdd(M.member(alpha), M.point_classes, 0, 1)
            assert res and dm.classify_gdd(res) == "semi-regular"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"conformance sweep took {elapsed:.1f}s"


@criterion(2, "Denniston cardinality and line sections")
def test_criterion_2_denniston():
    for t in (2, 3):
        for l in range(1, t + 1):
            geom = DennistonGeometry(t, l)
            pts = dm.denniston_point_set(geom)
            assert len(set(pts)) == len(pts) == 1 + (2 ** t + 1) * (2 ** l - 1)
            arc = set(pts)
            gf = geom.gf
            for c in range(geom.q + 1):
                for d in gf.elements():
                    if c == geom.q:
                        line = {(d, y) for y in gf.elements()}
                    else:
                        line = {(x, gf.add(gf.mul(c, x), d)) for x in gf.elements()}
                    assert len(line & arc) in (0, 2 ** l)


def _identity_members():
    m1a, m1b = dm.build_m1(2, 2), dm.build_m1(2, 3)
    m2 = dm.build_m2(2, 1)
    m3a, m3b = dm.build_m3(2, 1, 2), dm.build_m3(2, 2, 2)
    m4a, m4b = dm.build_m4(2, 3), dm.build_m4(3, 4)
    r1 = dm.clatworthy_r1()
    return [
        ("m1(2,2) bibd", m1a.member(0), m1a.member_params, None),
        ("m1(2,3) bibd", m1b.member(0), m1b.member_params, None),
        ("m2(2,1) bibd", m2.member(1), m2.member_params, None),
        ("m3(2,1,2) singular", m3a.member(0), m3a.member_params, m3a.point_classes),
        ("m3(2,2,2) singular", m3b.member(1), m3b.member_params, m3b.point_classes),
        ("m4(2,3) semi-regular", m4a.member(0), m4a.member_params, m4a.point_classes),
        ("m4(3,4) semi-regular", m4b.member(2), m4b.member_params, m4b.point_classes),
        ("clatworthy R1 regular", r1.structure, r1.params, r1.params.partition),
    ]


@criterion(3, "exact identities prop41/prop42 under 1e-9")
def test_criterion_3_exact_identities():
    members = _identity_members()
    assert len(members) >= 6
    kinds = set()
    rng = np.random.default_rng(2024)
    for name, D, params, part in members:
        if hasattr(params, "lambda1"):
            kinds.add(dm.classify_gdd(params))
        else:
            kinds.add("bibd")
        worst41 = worst42 = 0.0
        for _ in range(100):
            nz = int(rng.integers(2, D.v + 3))
            ch = dm.random_channel(D.v, nz, rng)
            worst41 = max(worst41, dm.prop41_check(D, params, ch, part).discrepancy)
            src = dm.random_source(D.v, nz, rng)
            worst42 = max(worst42, dm.prop42_check(D, params, src, part).discrepancy)
        assert worst41 < 1e-9, (name, worst41)
        assert worst42 < 1e-9, (name, worst42)
    assert {"bibd", "singular", "semi-regular"} <= kinds


def _wt_bounds(M, channel):
    if M.member_kind == "bibd":
        return (dm.bound_wt_bibd(M.member_params, channel).value,
                dm.bound_wt_tv_bibd(M.member_params, channel).value)
    return (dm.bound_wt_gdd(M.member_params, channel, M.point_classes).value,
            dm.bound_wt_tv_gdd(M.member_params, channel, M.point_classes).value)


@criterion(4, "theorem bound domination, 1000 instances each, zero violations")
def test_criterion_4_bound_domination():
    rng = np.random.default_rng(31337)
    mosaics = [dm.build_m1(2, 3), dm.build_m2(2, 1), dm.build_m3(2, 1, 2), dm.build_m4(2, 3)]
    tol = 1e-9
    wt_instances = 0
    for M in mosaics:
        for i in range(250):
            nz = int(rng.integers(2, 9))
            channel = dm.random_channel(M.v, nz, rng)
            if i % 3 == 0:
                p_a = None
            elif i % 3 == 1:
                p_a = rng.dirichlet(np.ones(M.a))
            else:
                p_a = np.zeros(M.a)
                p_a[int(rng.integers(M.a))] = 1.0
            J = dm.WiretapJoint(M, channel, p_a)
            res = dm.exact_wiretap_metrics(J)
            kl_bound, tv_bound = _wt_bounds(M, channel)
            assert 2.0 ** res["mutual_information"] <= kl_bound + tol      # Thm 3.1
            assert 2.0 ** res["max_kl_cond"] <= kl_bound + tol
            assert res["tv"] <= tv_bound + tol                             # Thm 3.2
            wt_instances += 1
    assert wt_instances >= 1000

    pa_instances = 0
    for M in mosaics:
        part = M.point_classes
        for _ in range(250):
            nz = int(rng.integers(2, 9))
            src = dm.random_source(M.v, nz, rng)
            res = dm.exact_pa_metrics(dm.PAJoint(M, src))
            tv_bound = dm.bound_pa_tv(M.member_params, src, part).value
            kl_bound = dm.bound_pa_kl(M.member_params, src, part).value
            assert res["max_tv"] <= tv_bound + tol                         # Thm 3.3
            assert 2.0 ** res["max_kl"] <= kl_bound + tol                  # Thm 3.4
            pa_instances += 1
    assert pa_instances >= 1000


@criterion(5, "privacy-amplification key exactly uniform (rational arithmetic)")
def test_criterion_5_key_uniformity():
    rng = np.random.default_rng(99)
    mosaics = [dm.build_m1(2, 2), dm.build_m1(2, 3), dm.build_m2(2, 1), dm.build_m2(2, 2),
               dm.build_m3(2, 1, 2), dm.build_m4(2, 3), dm.build_m4(3, 4)]
    for M in mosaics:
        for _ in range(2):
            src = dm.random_source(M.v, int(rng.integers(2, 7)), rng)
            fracs = dm.key_marginal_exact(M, src.P)
            assert len(set(fracs)) == 1, M
            assert isinstance(fracs[0], Fraction)


@criterion(6, "block-rate optimality verdicts and the M1 t=3 ratio")
def test_criterion_6_block_rate_optimality():
    for t, l in M2_GRID:
        assert dm.rates(dm.build_m2(t, l)).optimal, (t, l)
    for k, q in M4_GRID:
        assert dm.rates(dm.build_m4(k, q)).optimal, (k, q)
    for t, q in M1_GRID:
        rep = dm.rates(dm.build_m1(t, q))
        if t == 2:
            assert rep.optimal, (t, q)
    rep = dm.rates(dm.build_m1(3, 2))
    assert not rep.optimal
    # the reported block rate matches the closed form to 1e-12 and obeys the
    # family bound log b / log v <= 1 + (1/t)(1 - log(q-1)/log q)
    t, q = 3, 2
    want = math.log2(q * (q ** t - 1) / (q - 1)) / math.log2(q ** t)
    assert abs(rep.block_rate - want) < 1e-12
    bound = 1 + (1 / t) * (1 - (math.log2(q - 1) if q > 2 else 0.0) / math.log2(q))
    assert rep.block_rate <= bound + 1e-12


@criterion(7, "hash properties: spectra, singular failure, Clatworthy verdicts")
def test_criterion_7_hash_properties():
    for M in [dm.build_m1(2, 2), dm.build_m1(2, 3), dm.build_m2(2, 1), dm.build_m2(2, 2)]:
        spec = dm.collision_spectrum(M)
        p = M.member_params
        assert spec.constant
        assert spec.min_count == M.a * p.lam
        assert spec.min_count * M.a * (M.v - 1) == M.b * (M.v - M.a)
        assert dm.is_optimally_universal(M, spec)
    for t, l, u in [(2, 1, 2), (2, 2, 2)]:
        M = dm.build_m3(t, l, u)
        assert M.a >= 2 and not dm.is_universal(M)
    v1 = dm.check_regular_gdd_uhf(dm.clatworthy_r1().params)
    assert v1.universal and v1.kr == 8 == v1.lambda1_v
    v2 = dm.check_regular_gdd_uhf(dm.clatworthy_r2().params)
    assert not v2.universal and (v2.kr, v2.lambda1_v) == (10, 12)


@criterion(8, "explicitness round trip: f(g(s,a,kappa),s) = a, g injective")
def test_criterion_8_explicitness_round_trip():
    for M in _grid_mosaics():
        assert M.v <= 2 ** 12
        assert dm.verify_functional_form(M), M


def test_color_matrix_paths_match_member_stack_oracle():
    """Over the acceptance grid, the joint laws gathered from the color matrix
    match an einsum over the member stack to 1e-12, and a from_members mosaic's
    g walks the points of its input stack in ascending order."""
    rng = np.random.default_rng(2102)
    for M in _grid_mosaics():
        N = member_matrices(M).astype(float)
        channel = dm.random_channel(M.v, 3, rng)
        want = np.einsum("xz,axs->azs", channel.W, N) / (M.b * M.k)
        assert np.abs(cond_stack(dm.WiretapJoint(M, channel)) - want).max() <= 1e-12, M
        src = dm.random_source(M.v, 3, rng)
        cond = cond_stack(dm.PAJoint(M, src))
        pzN = np.einsum("xz,axs->azs", src.P, N)
        r = M.b * M.k // M.v
        assert np.abs(cond - pzN * (M.a / M.b)).max() <= 1e-12, M
        seed_law = cond / src.P_Z[None, :, None]            # P_{S|Z,A}
        assert np.abs(seed_law - pzN / (r * src.P_Z[None, :, None])).max() <= 1e-12, M

        stack = np.stack([D.N for D in M.members()])
        E = dm.from_members([dm.IncidenceStructure(m) for m in stack])
        for s in range(M.b):
            for alpha in range(M.a):
                want_pts = np.flatnonzero(stack[alpha, :, s]).tolist()
                assert [E.g(s, alpha, kappa) for kappa in range(E.k)] == want_pts, (M, s, alpha)


def _op_tables(gf):
    q = gf.order
    add = np.empty((q, q), dtype=np.int32)
    mul = np.empty((q, q), dtype=np.int32)
    for x in range(q):
        gadd, gmul = gf.add, gf.mul
        arow, mrow = add[x], mul[x]
        for y in range(q):
            arow[y] = gadd(x, y)
            mrow[y] = gmul(x, y)
    return add, mul


def _assert_table_axioms(gf):
    add, mul = _op_tables(gf)
    q = gf.order
    idx = np.arange(q)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    assert np.array_equal(mul[0], np.zeros(q, dtype=np.int32))
    # additive and multiplicative inverses exist
    assert ((add == 0).sum(axis=1) == 1).all()
    assert ((mul[1:, 1:] == 1).sum(axis=1) == 1).all()
    # associativity and distributivity, exhaustively over all triples
    for aa in range(q):
        arow, mrow = add[aa], mul[aa]
        assert np.array_equal(add[arow], arow[add])          # (a+b)+c = a+(b+c)
        assert np.array_equal(mul[mrow], mrow[mul])          # (a b) c = a (b c)
        assert np.array_equal(mrow[add], add[mrow[:, None], mrow[None, :]])  # a(b+c) = ab+ac
    if gf.p == 2:
        sq = mul[idx, idx]
        assert np.array_equal(sq[add], add[sq[:, None], sq[None, :]])  # Frobenius


@criterion(9, "field oracle equivalence and exhaustive axioms")
def test_criterion_9_field_oracles():
    # Artin-Schreier and square roots against exhaustive search, t <= 8
    for t in range(1, 9):
        gf = dm.make_field(2, t)
        brute = {}
        squares = {}
        for w in gf.elements():
            brute.setdefault(gf.add(gf.mul(w, w), w), []).append(w)
            squares[gf.mul(w, w)] = w
        for a in gf.elements():
            roots = gf.artin_schreier_roots(a)
            assert list(roots) == sorted(brute.get(a, []))
            assert (len(roots) > 0) == (gf.trace(a) == 0)
            assert gf.sqrt(a) == squares[a]
    # field axioms, exhaustive over all pairs and triples, for representative
    # fields of order up to 2^10
    for p, n in [(2, 10), (3, 6), (5, 4), (31, 2)]:
        gf = dm.make_field(p, n)
        assert gf.order <= 2 ** 10
        _assert_table_axioms(gf)


@criterion(10, "simulation calibration at significance 1e-3 over 1e5 trials")
def test_criterion_10_simulation_calibration():
    M = dm.build_m1(2, 3)
    cfg = dm.SimConfig(mosaic=M, trials=100000, seed=20240, channel=dm.identity_channel(M.v))
    res = dm.wiretap_roundtrip(cfg)
    assert res.decode_errors == 0
    assert res.pvalues["joint_zsa"] >= 1e-3
    diff = abs(res.empirical["mi_batch_mean"] - res.exact["mutual_information"])
    assert diff <= 3 * res.empirical["mi_batch_se"] + 1e-3

    M4 = dm.build_m4(2, 3)
    src = dm.random_source(M4.v, 4, np.random.default_rng(77))
    cfg = dm.SimConfig(mosaic=M4, trials=100000, seed=20241, source=src)
    res = dm.pa_roundtrip(cfg)
    assert res.agreement == 1.0
    assert res.pvalues["key_uniformity"] >= 1e-3
    assert res.pvalues["joint_zsa"] >= 1e-3
