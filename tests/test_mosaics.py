import math

import numpy as np
import pytest

from designmosaics.designs import CheckFailure, IncidenceStructure, Resolution, verify_bibd, verify_gdd, verify_resolution
from designmosaics.families import ag_design, build_m1, build_m2, build_m3, build_m4
from designmosaics.field import make_field
from designmosaics.mosaics import (
    CyclicQuasigroup,
    FieldAdditiveQuasigroup,
    Mosaic,
    Quasigroup,
    certify,
    construct_from_resolvable,
    dual_mosaic,
    from_functional_form,
    from_members,
    point_multiple,
    rates,
    sample_inverse,
    sum_structure,
    verify_functional_form,
    verify_mosaic,
)


# -- quasigroups -------------------------------------------------------------

def test_table_quasigroup_latin_check():
    a = 6
    table = (np.arange(a)[:, None] + np.arange(a)[None, :]) % a
    assert np.array_equal(Quasigroup(table).table, table)
    bad = table.copy()
    bad[0, 0] = bad[0, 1]
    with pytest.raises(ValueError):
        Quasigroup(bad)


def test_quasigroup_tables_equal_the_group_arithmetic():
    # Z_a addition and field addition, as the arithmetic gives them
    for a in range(1, 8):
        L = CyclicQuasigroup(a)
        assert L.order == a
        for beta in range(a):
            for gamma in range(a):
                assert L.table[beta, gamma] == (beta + gamma) % a
    for gf in (make_field(2, 3), make_field(3, 2), make_field(5, 1)):
        L = FieldAdditiveQuasigroup(gf)
        assert L.order == gf.order
        for beta in range(gf.order):
            for gamma in range(gf.order):
                assert L.table[beta, gamma] == gf.add(beta, gamma)


@pytest.mark.parametrize("table", [
    [], np.zeros((0, 0)), [0], [[0, 1]], [[0, 1], [1, 0], [0, 1]],   # empty, not square
    [[0, 1], [0, 1]], [[0, 0], [1, 1]], [[0, 2], [2, 0]],            # not Latin
])
def test_quasigroup_rejects_bad_tables(table):
    with pytest.raises(ValueError):
        Quasigroup(table)


# -- construction and verification --------------------------------------------

def test_construct_from_ag22_gives_pair_design_mosaic():
    D, R = ag_design(2, 2)
    M = construct_from_resolvable(D, R, FieldAdditiveQuasigroup(make_field(2, 1)))
    assert (M.v, M.b, M.a, M.k) == (4, 6, 2, 2)
    assert verify_mosaic(M)
    for alpha in range(2):
        assert verify_bibd(M.member(alpha), 1)


def test_construct_matches_corollary_formula():
    # the functional form of the general construction is L(beta, gamma(p, i));
    # for AG designs with the additive quasigroup this is h.x + beta
    for t, q in [(2, 2), (2, 3)]:
        D, R = ag_design(t, q)
        p, e = (q, 1) if q in (2, 3, 5) else (2, 2)
        gf = make_field(p, e)
        M = construct_from_resolvable(D, R, FieldAdditiveQuasigroup(gf))
        # ag_design and build_m1's gathered F share one hyperplane table, so
        # the reference is build_m1's scalar f, one call per cell
        direct = build_m1(t, q)
        scalar = np.array([[direct.f(x, s) for s in range(direct.b)] for x in range(direct.v)])
        assert np.array_equal(M.color_matrix(), scalar)


def test_construct_single_parallel_class():
    # r = 1: one parallel class; members are single classes
    D = IncidenceStructure.from_blocks(4, [(0, 1), (2, 3)])
    R = Resolution(((0, 1),))
    M = construct_from_resolvable(D, R, CyclicQuasigroup(2))
    assert (M.a, M.b) == (2, 2)
    assert verify_mosaic(M)


def test_construct_quasigroup_order_mismatch():
    D, R = ag_design(2, 2)
    with pytest.raises(ValueError):
        construct_from_resolvable(D, R, CyclicQuasigroup(3))


def test_members_isomorphic_by_block_relabeling():
    D, R = ag_design(2, 3)
    L = CyclicQuasigroup(3)
    M = construct_from_resolvable(D, R, L)
    for alpha in range(M.a):
        member = M.member(alpha).N
        for i, cls in enumerate(R.classes):
            for beta in range(M.a):
                gamma = int(np.flatnonzero(L.table[beta] == alpha)[0])
                assert np.array_equal(member[:, i * M.a + beta], D.N[:, cls[gamma]])


def test_verify_mosaic_double_cover_fails():
    D, _ = ag_design(2, 2)
    M = from_members([D, D])
    res = verify_mosaic(M)
    assert not res and res.reason.startswith("pair covered")


def test_verify_mosaic_witnesses_without_a_member_stack():
    D, _ = ag_design(2, 2)
    assert verify_mosaic(from_members([D, D])).witness == (0, 0, 2)
    N = [m.N.copy() for m in build_m1(2, 3).members()]
    N[1][4, 5] = 0
    M = from_members([IncidenceStructure(n) for n in N])
    res = verify_mosaic(M)
    assert res.reason.startswith("pair covered") and res.witness == (4, 5, 0)
    ones = IncidenceStructure(np.ones((3, 4)))
    zeros = IncidenceStructure(np.zeros((3, 4)))
    res = verify_mosaic(from_members([ones, zeros]))
    assert res.reason == "empty member" and res.witness == (1,)
    assert verify_mosaic(from_members([zeros, ones, zeros])).witness == (0,)
    # F is the only array the mosaic keeps
    assert [name for name, val in vars(M).items() if isinstance(val, np.ndarray)] == ["_colors"]


def test_verify_mosaic_single_complete_member():
    M = from_members([IncidenceStructure(np.ones((3, 4)))])
    assert verify_mosaic(M) and M.a == 1


def test_functional_form_round_trip():
    M = build_m1(2, 3)
    M2 = from_functional_form(M.f, M.g, M.v, M.b, M.a, k=M.k)
    assert np.array_equal(M.color_matrix(), M2.color_matrix())
    for a1, a2 in zip(M.members(), M2.members()):
        assert a1 == a2


@pytest.mark.parametrize("build", [lambda: build_m1(3, 4), lambda: build_m2(3, 2),
                                   lambda: build_m3(3, 2, 2), lambda: build_m4(9, 8)],
                         ids=["m1(3,4)", "m2(3,2)", "m3(3,2,2)", "m4(9,8)"])
def test_f_and_g_reject_out_of_range_arguments(build):
    M = build()
    for args in [(-1, 0), (M.v, 0), (0, -1), (0, M.b)]:
        name = "x" if args[1] == 0 else "s"
        with pytest.raises(ValueError, match=f"^{name} = "):
            M.f(*args)
    for args in [(-1, 0, 0), (M.b, 0, 0), (0, -1, 0), (0, M.a, 0), (0, 0, -1), (0, 0, M.k)]:
        name = "s" if args[0] != 0 else "alpha" if args[1] != 0 else "kappa"
        with pytest.raises(ValueError, match=f"^{name} = "):
            M.g(*args)
    # the corners of the ranges still evaluate
    x = M.g(M.b - 1, M.a - 1, M.k - 1)
    assert M.f(x, M.b - 1) == M.a - 1


def test_from_functional_form_rejects_duplicate_preimage():
    M = build_m1(2, 2)

    def bad_g(s, alpha, kappa):
        return M.g(s, alpha, 0)  # repeats one point

    with pytest.raises(ValueError):
        from_functional_form(M.f, bad_g, M.v, M.b, M.a, k=M.k)


def test_verify_functional_form_catches_wrong_color():
    M = build_m1(2, 2)

    def bad_f(x, s):
        return (M.f(x, s) + 1) % M.a

    bad = Mosaic(M.v, M.b, M.a, np.vectorize(bad_f), M._g, k=M.k)
    res = verify_functional_form(bad)
    assert not res
    assert res == per_cell_functional_form(bad)


def test_color_matrix_rejects_an_f_that_does_not_broadcast():
    # without a form, F is one call of f over [v] x [b]; a scalar-only f fails loudly
    M = Mosaic(2, 3, 1, lambda x, s: 0, lambda s, alpha, kappa: kappa, k=2)
    with pytest.raises(ValueError, match=r"shape \(\), not \(2, 3\)"):
        M.color_matrix()


def per_cell_functional_form(M):
    """Oracle of verify_functional_form: one scalar g call per (s, alpha,
    kappa) in that order, with the first failure as a CheckFailure."""
    F = M.color_matrix()
    for s in range(M.b):
        for alpha in range(M.a):
            seen = set()
            for kappa in range(M.k):
                x = M.g(s, alpha, kappa)
                if not 0 <= x < M.v:
                    return CheckFailure("preimage point out of range", (s, alpha, kappa, x))
                if x in seen:
                    return CheckFailure("preimage enumerator repeats a point", (s, alpha, x))
                seen.add(x)
                got = int(F[x, s])
                if got != alpha:
                    return CheckFailure("f(g(s,alpha,kappa), s) != alpha", (s, alpha, kappa, x, got))
    return True


def _m2_with_class_table(c, edit):
    """build_m2(3, 2) with class table c replaced by a copy changed by edit;
    g reads the copy, F is built from block_ranks as before."""
    M = build_m2(3, 2)
    table = M.geometry.class_table(c).copy()
    edit(table)
    M.geometry._class_tables[c] = table
    return M


def _repeat_in_row(table):
    table[5, 3] = table[5, 1]


def _move_to_other_row(table):
    table[[2, 6], [1, 3]] = table[[6, 2], [3, 1]]


def _g_hits_v(M):
    def g(s, alpha, kappa):
        return M.v if (s, alpha, kappa) == (9, 4, 2) else M.g(s, alpha, kappa)
    return Mosaic(M.v, M.b, M.a, np.vectorize(M.f), np.vectorize(g, otypes=[np.int64]), k=M.k)


def _one_cell_of_F(M):
    F = M.color_matrix()
    F[17, 11] = (F[17, 11] + 1) % M.a
    return M


def _repeating_g(M):
    return Mosaic(M.v, M.b, M.a, np.vectorize(M.f), lambda s, alpha, kappa: M._g(s, alpha, 0 * kappa),
                  k=M.k, member_params=M.member_params)


def _member_twice():
    # every pair is covered twice: a column holds all v points in color 0 and
    # none in color 1, so g reads points of color 0 for color 1
    return from_members([ag_design(2, 2)[0]] * 2)


@pytest.mark.parametrize("make, reason", [
    (lambda: _m2_with_class_table(2, _repeat_in_row), "preimage enumerator repeats a point"),
    (lambda: _m2_with_class_table(3, _move_to_other_row), "f(g(s,alpha,kappa), s) != alpha"),
    (lambda: _one_cell_of_F(build_m2(3, 2)), "f(g(s,alpha,kappa), s) != alpha"),
    (lambda: _g_hits_v(build_m2(3, 2)), "preimage point out of range"),
    (lambda: _repeating_g(build_m1(2, 3)), "preimage enumerator repeats a point"),
    (_member_twice, "f(g(s,alpha,kappa), s) != alpha"),
    (lambda: build_m2(3, 2), None),
], ids=["repeat-in-row", "entry-in-other-row", "cell-of-F", "g-hits-v", "repeating-g",
        "member-twice", "intact"])
def test_verify_functional_form_returns_the_per_cell_verdict(make, reason):
    res = verify_functional_form(make())
    assert res == per_cell_functional_form(make())
    assert (res is True) if reason is None else res.reason == reason


def test_certify_stops_at_the_first_failed_stage():
    M = build_m1(2, 2)
    assert certify(M) is None
    # without member parameters there is no member stage; g of a mosaic held
    # by F alone reads F, and the (f, g) stage passes on a valid F
    assert certify(from_members(M.members())) is None
    assert verify_functional_form(_member_twice()).witness == (0, 1, 0, 2, 0)

    D, _ = ag_design(2, 2)
    stage, member, res = certify(from_members([D, D], member_params=M.member_params))
    assert (stage, member) == ("mosaic", None)
    assert (res.reason, res.witness) == ("pair covered by wrong number of members", (0, 0, 2))

    F = M.color_matrix().copy()
    s0, s1 = np.flatnonzero(F[0] == 0)[0], np.flatnonzero(F[0] == 1)[0]
    F[0, [s0, s1]] = 1, 0                   # point 0 exchanges its colors on two blocks
    bad = from_members([IncidenceStructure(F == alpha) for alpha in range(M.a)],
                       member_params=M.member_params)
    assert verify_mosaic(bad)
    stage, member, res = certify(bad)
    assert (stage, member) == ("members", 0)
    assert res == verify_bibd(bad.member(0), M.member_params.lam)
    # without member parameters the (f, g) stage finds the column of point 0
    stage, member, res = certify(from_members(bad.members()))
    assert (stage, member, res.reason) == ("functional-form", None, "f(g(s,alpha,kappa), s) != alpha")

    stage, member, res = certify(_repeating_g(M))
    assert (stage, member) == ("functional-form", None)
    assert (res.reason, res.witness) == ("preimage enumerator repeats a point",
                                         (0, 0, M.g(0, 0, 0)))


# -- duals, sums, point multiples ---------------------------------------------

def test_dual_mosaic_involution_and_f_relation():
    M = build_m1(2, 2)
    D1 = dual_mosaic(M)
    assert (D1.v, D1.b, D1.a) == (M.b, M.v, M.a)
    for x in range(M.v):
        for s in range(M.b):
            assert D1.f(s, x) == M.f(x, s)
    D2 = dual_mosaic(D1)
    assert np.array_equal(D2.color_matrix(), M.color_matrix())
    assert verify_mosaic(D1)


def test_dual_takes_the_base_color_matrix_transposed():
    M = build_m2(5, 3)
    calls = []
    f = M._f
    M._f = lambda x, s: calls.append((x, s)) or f(x, s)
    D = dual_mosaic(M)
    assert np.array_equal(D.color_matrix(), M.color_matrix().T)
    assert calls == []
    assert D.f(7, 3) == M.f(3, 7) and len(calls) == 1


def test_member_description_is_derived_from_member_params():
    assert (build_m1(2, 3).member_kind, build_m1(2, 3).point_classes) == ("bibd", None)
    for M in (build_m4(3, 4), point_multiple(build_m2(2, 1), 2)):
        assert M.member_kind == "gdd"
        assert M.point_classes == M.member_params.partition is not None
    M = from_members(build_m1(2, 2).members())
    assert (M.member_kind, M.point_classes) == (None, None)
    with pytest.raises(AttributeError):
        M.member_kind = "bibd"


def test_dual_of_resolvable_mosaic_members_are_gdds_with_lambda1_zero():
    # members' duals have the parallel classes as point classes and lambda1 = 0
    M = build_m1(2, 2)
    Dm = dual_mosaic(M)
    classes = tuple(tuple(i * M.a + beta for beta in range(M.a)) for i in range(3))
    for alpha in range(Dm.a):
        res = verify_gdd(Dm.member(alpha), classes, 0, 1)
        assert res and res.lambda1 == 0


def test_sum_is_resolvable():
    M = build_m1(2, 2)
    S, R = sum_structure(M)
    assert S.b == M.a * M.b
    assert verify_resolution(S, R.classes)
    assert (S.N.sum(axis=0) == M.k).all()
    # a = 1 mosaic sums to itself
    single = from_members([IncidenceStructure(np.ones((3, 2)))])
    S1, _ = sum_structure(single)
    assert np.array_equal(S1.N, np.ones((3, 2), dtype=np.uint8))


def test_point_multiple_parameters_and_classification():
    from designmosaics.designs import classify_gdd
    M = build_m2(2, 2)
    P = point_multiple(M, 2)
    g = P.member_params
    assert (g.u, g.m, g.k, g.lambda1, g.lambda2) == (2, 16, 8, 5, 1)
    assert P.b == M.b  # b unchanged
    assert verify_mosaic(P) and verify_functional_form(P)
    for alpha in range(P.a):
        res = verify_gdd(P.member(alpha), P.point_classes, g.lambda1, g.lambda2)
        assert res and classify_gdd(res) == "singular"


def test_point_multiple_u1_and_errors():
    M = build_m1(2, 2)
    P = point_multiple(M, 1)
    assert np.array_equal(P.color_matrix(), M.color_matrix())
    assert P.member_params.u == 1
    with pytest.raises(ValueError):
        point_multiple(M, 0)
    with pytest.raises(ValueError):
        point_multiple(P, 2)  # members are GDDs, not BIBDs


def test_point_multiple_color_rate_transform():
    M = build_m2(2, 1)
    for u in (2, 3):
        P = point_multiple(M, u)
        got = rates(P).color_rate
        want = rates(M).color_rate * math.log2(M.v) / (math.log2(M.v) + math.log2(u))
        assert abs(got - want) < 1e-12


# -- randomized inverse -------------------------------------------------------

def test_sample_inverse_definitional():
    M = build_m1(2, 3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = int(rng.integers(M.b))
        alpha = int(rng.integers(M.a))
        x = sample_inverse(M, s, alpha, rng)
        assert M.f(x, s) == alpha


def test_sample_inverse_deterministic_when_k1():
    M = from_functional_form(lambda x, s: (x + s) % 3,
                             lambda s, alpha, kappa: (alpha - s) % 3,
                             v=3, b=3, a=3, k=1)
    rng = np.random.default_rng(1)
    for s in range(3):
        for alpha in range(3):
            assert sample_inverse(M, s, alpha, rng) == (alpha - s) % 3


def test_sample_inverse_uniformity_chi2():
    from scipy.stats import chi2 as chi2_dist
    M = build_m1(2, 3)
    rng = np.random.default_rng(42)
    s, alpha = 5, 1
    draws = np.array([sample_inverse(M, s, alpha, rng) for _ in range(10000)])
    preimage = sorted({M.g(s, alpha, kappa) for kappa in range(M.k)})
    counts = np.array([(draws == x).sum() for x in preimage])
    assert counts.sum() == 10000
    expected = 10000 / len(preimage)
    stat = float(((counts - expected) ** 2 / expected).sum())
    pval = float(chi2_dist.sf(stat, len(preimage) - 1))
    assert pval >= 1e-3


# -- rates --------------------------------------------------------------------

def test_color_rates_match_hand_formulas():
    assert abs(rates(build_m1(2, 3)).color_rate - 0.5) < 1e-12
    assert abs(rates(build_m1(3, 2)).color_rate - 1 / 3) < 1e-12
    m2 = build_m2(2, 1)
    want = math.log2(3) / (1 + math.log2(3))
    assert abs(rates(m2).color_rate - want) < 1e-12
    m4 = build_m4(3, 4)
    want = math.log2(4) / (math.log2(4) + math.log2(3))
    assert abs(rates(m4).color_rate - want) < 1e-12
    m3 = build_m3(2, 1, 4)
    want = math.log2(3) / (1 + math.log2(3) + 2)
    assert abs(rates(m3).color_rate - want) < 1e-12


def test_block_rate_optimality_verdicts():
    assert rates(build_m2(2, 2)).optimal
    assert rates(build_m4(2, 3)).optimal
    assert rates(build_m1(2, 2)).optimal      # lambda = 1
    rep = rates(build_m1(3, 2))
    assert not rep.optimal and rep.verdict == "near-optimal"
    rep3 = rates(build_m3(2, 1, 2))
    assert not rep3.optimal and rep3.td_rate_floor is not None


def test_m4_block_rate_equals_two_color_rates():
    # b = a^2 so log b / log a = 2 exactly
    for q, k in [(3, 2), (4, 3), (5, 6)]:
        rep = rates(build_m4(k, q))
        assert abs(rep.ratio - 2.0) < 1e-12


def test_td_color_rate_floor():
    # necessary condition for TD block-rate optimality, with equality only for
    # duals of affine planes (k = q + 1)
    for q in (2, 3, 4):
        full = rates(build_m4(q + 1, q))
        assert abs(full.color_rate - full.td_rate_floor) < 1e-12
        partial = rates(build_m4(2, q))
        assert partial.color_rate >= partial.td_rate_floor - 1e-12


def test_a_equals_v_over_k():
    for M in [build_m1(2, 3), build_m2(2, 1), build_m3(2, 1, 2), build_m4(3, 4)]:
        assert M.a * M.k == M.v


def test_gdd_construct_members_share_point_classes():
    # members of a mosaic constructed from a resolvable GDD verify against the
    # same point class partition as the base design
    from designmosaics.families import clatworthy_r1
    cat = clatworthy_r1()
    M = construct_from_resolvable(cat.structure, cat.resolution, CyclicQuasigroup(2))
    for alpha in range(M.a):
        assert verify_gdd(M.member(alpha), cat.params.partition, 2, 1)


def test_m4_member_dual_is_resolvable():
    # the dual of a TD member is the deleted-parallel-class affine plane, whose
    # slope pencils resolve it
    M = build_m4(3, 4)
    member = M.member(1)
    dual = member.dual()
    classes = [tuple(range(ci * 4, (ci + 1) * 4)) for ci in range(3)]
    assert verify_resolution(dual, classes)
