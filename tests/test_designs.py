import numpy as np
import pytest

from designmosaics.designs import (
    AffineReport,
    CheckFailure,
    GDDParams,
    IncidenceStructure,
    check_affine,
    classify_gdd,
    params_from_json,
    params_to_json,
    verify_bibd,
    verify_gdd,
    verify_resolution,
    verify_tactical,
)
from designmosaics.families import ag_design, build_m3, build_m4, clatworthy_r1, td_design


def test_tactical_ag22():
    D, _ = ag_design(2, 2)
    tact = verify_tactical(D)
    assert tact and (tact.v, tact.b, tact.k, tact.r) == (4, 6, 2, 3)


def test_tactical_all_ones():
    D = IncidenceStructure(np.ones((2, 2)))
    tact = verify_tactical(D)
    assert (tact.v, tact.b, tact.k, tact.r) == (2, 2, 2, 2)


def test_tactical_failure_witness():
    N = np.ones((3, 3), dtype=int)
    N[1, 2] = 0
    res = verify_tactical(IncidenceStructure(N))
    assert isinstance(res, CheckFailure) and not res
    assert res.witness[0] == "row" and res.witness[1] == 1


def test_bibd_ag23_and_ag2_32():
    D, _ = ag_design(2, 3)
    res = verify_bibd(D, 1)
    assert res and (res.v, res.k, res.lam, res.r, res.b) == (9, 3, 1, 4, 12)
    # AG_2(3, 2): the planes of AG(3, 2) form the 2-(8, 4, 3) design
    D2, _ = ag_design(3, 2)
    assert not verify_bibd(D2, 2)  # the pair count is forced by r(k-1) = lam(v-1)
    res2 = verify_bibd(D2, 3)
    assert res2 and (res2.v, res2.b, res2.k, res2.lam) == (8, 14, 4, 3)


def test_bibd_rejects_gdd():
    D, _ = td_design(2, 3)
    assert not verify_bibd(D, 1)
    assert not verify_bibd(D, 0)  # lambda >= 1 required


def test_bibd_matches_brute_force_pair_counts():
    # two independent code paths: matrix identity vs direct pair counting
    for D, lam in [(ag_design(2, 3)[0], 1), (ag_design(3, 2)[0], 3)]:
        res = verify_bibd(D, lam)
        assert res
        N = D.N
        for x in range(D.v):
            for y in range(x + 1, D.v):
                assert int((N[x] & N[y]).sum()) == lam


def test_gdd_clatworthy_r1():
    cat = clatworthy_r1()
    res = verify_gdd(cat.structure, cat.params.partition, 2, 1)
    assert res and (res.v, res.r, res.k, res.lambda1, res.lambda2) == (4, 4, 2, 2, 1)
    assert classify_gdd(res) == "regular"


def test_gdd_singleton_partition_is_bibd():
    D, _ = ag_design(2, 3)
    singles = [(x,) for x in range(9)]
    # with u = 1 the lambda1 coefficient is vacuous: any lambda1 verifies
    for l1 in (0, 1, 5):
        res = verify_gdd(D, singles, l1, 1)
        assert res and res.u == 1 and res.m == 9


def test_gdd_td_from_m4():
    D, _ = td_design(2, 3)
    part = [(0, 1, 2), (3, 4, 5)]
    res = verify_gdd(D, part, 0, 1)
    assert res and (res.u, res.m, res.k, res.b) == (3, 2, 2, 9)
    assert classify_gdd(res) == "semi-regular"


def first_pair_mismatch(D, want):
    """Oracle: the first (x, y) in row-major order whose pair count differs
    from want(x, y), as (x, y, count, want(x, y))."""
    N = D.N.astype(int)
    for x in range(D.v):
        for y in range(D.v):
            count = int((N[x] * N[y]).sum())
            if count != want(x, y):
                return (x, y, count, want(x, y))
    return None


def test_pair_count_failures_name_the_first_row_major_pair():
    part = [(0, 1, 2), (3, 4, 5)]
    same = {(x, y) for cls in part for x in cls for y in cls}
    cases = [
        (verify_bibd, ag_design(3, 2)[0], (2,), lambda x, y: 7 if x == y else 2),
        (verify_bibd, td_design(2, 3)[0], (1,), lambda x, y: 3 if x == y else 1),
        (verify_gdd, td_design(2, 3)[0], (part, 1, 1), lambda x, y: 3 if x == y else 1),
        (verify_gdd, td_design(2, 3)[0], (part, 0, 2),
         lambda x, y: 3 if x == y else 0 if (x, y) in same else 2),
    ]
    for verify, D, args, want in cases:
        res = verify(D, *args)
        assert isinstance(res, CheckFailure) and res.reason == "pair count mismatch"
        assert res.witness == first_pair_mismatch(D, want)


def test_gdd_malformed_partition():
    D, _ = td_design(2, 3)
    with pytest.raises(ValueError):
        verify_gdd(D, [(0, 1), (2, 3, 4, 5)], 0, 1)   # unequal sizes
    with pytest.raises(ValueError):
        verify_gdd(D, [(0, 1, 2), (2, 3, 4)], 0, 1)   # not a partition


def test_dual_involution_and_sum_swap():
    D, _ = ag_design(2, 2)
    assert D.dual().dual() == D
    tact = verify_tactical(D)
    dtact = verify_tactical(D.dual())
    assert (dtact.k, dtact.r) == (tact.r, tact.k)
    assert (dtact.v, dtact.b) == (tact.b, tact.v)


def test_resolution_ag23():
    D, R = ag_design(2, 3)
    assert verify_resolution(D, R.classes)


def test_resolution_shuffle_fails():
    D, R = ag_design(2, 3)
    classes = [list(c) for c in R.classes]
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
    assert not verify_resolution(D, classes)


def test_resolution_single_block_repeated():
    # v = k: one block repeated r times, one class each
    N = np.ones((3, 4), dtype=int)
    D = IncidenceStructure(N)
    res = verify_resolution(D, [(0,), (1,), (2,), (3,)])
    assert res


def test_classify_gdd_cases():
    m3 = build_m3(2, 1, 2)
    assert classify_gdd(m3.member_params) == "singular"
    m4 = build_m4(2, 3)
    assert classify_gdd(m4.member_params) == "semi-regular"
    assert classify_gdd(clatworthy_r1().params) == "regular"
    with pytest.raises(ValueError):
        classify_gdd(GDDParams(u=2, m=2, k=2, lambda1=5, lambda2=1, v=4, r=4, b=8))


def test_affine_ag23():
    D, R = ag_design(2, 3)
    rep = check_affine(D, R)
    assert rep.affine and rep.mu == 1


def test_affine_ag_2_3_2():
    D, R = ag_design(3, 2)
    rep = check_affine(D, R)
    assert rep.affine and rep.mu == 2


def test_not_affine_when_bose_strict():
    # the K6 pair design: resolvable (6, 2, 1) BIBD with b = 15 > v + r - 1 = 10
    from designmosaics.families import DennistonGeometry, denniston_design
    D, R = denniston_design(DennistonGeometry(2, 1))
    assert verify_bibd(D, 1)
    rep = check_affine(D, R)
    assert not rep.affine and "Bose" in rep.reason


def check_affine_loop(D, resolution):
    """The pair loop that ``check_affine`` replaced, kept as its oracle."""
    tact = verify_tactical(D)
    if not tact:
        return AffineReport(False, None, tact.reason)
    bose = D.v + tact.r - 1
    if D.b > bose:
        return AffineReport(False, None, f"b = {D.b} exceeds the Bose bound {bose}")
    if D.b < bose:
        return AffineReport(False, None, f"b = {D.b} below the Bose bound {bose}; not a resolvable BIBD")
    class_of = {}
    for ci, cls in enumerate(resolution.classes):
        for s in cls:
            class_of[s] = ci
    cols = D.N.astype(bool)
    mu = None
    for s in range(D.b):
        for t in range(s + 1, D.b):
            if class_of[s] == class_of[t]:
                continue
            inter = int((cols[:, s] & cols[:, t]).sum())
            if mu is None:
                mu = inter
            elif inter != mu:
                return AffineReport(False, None,
                                    f"non-parallel blocks {s},{t} meet in {inter} points, expected {mu}")
    return AffineReport(True, mu)


def _exchange_points(D, R, ci, rng):
    """D with one point of each of two blocks of class ci exchanged: still
    tactical and resolved by R, with b = v + r - 1, but no longer affine."""
    s, t = rng.choice(R.classes[ci], size=2, replace=False)
    N = D.N.copy()
    x, y = rng.choice(np.flatnonzero(N[:, s])), rng.choice(np.flatnonzero(N[:, t]))
    N[[x, y], s] = 0, 1
    N[[x, y], t] = 1, 0
    return IncidenceStructure(N)


def test_check_affine_matches_the_pair_loop():
    from designmosaics.families import DennistonGeometry, denniston_design
    rng = np.random.default_rng(11)
    cases = [ag_design(t, q) for t, q in [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (3, 3)]]
    cases.append(denniston_design(DennistonGeometry(2, 1)))      # K6: b exceeds Bose
    cases.append(denniston_design(DennistonGeometry(2, 2)))      # AG(2, 4)
    perturbed = []
    for t, q in [(2, 3), (3, 2), (2, 4), (3, 3)]:
        D, R = ag_design(t, q)
        for ci in (0, len(R.classes) - 1):
            P = _exchange_points(D, R, ci, rng)
            assert verify_resolution(P, R.classes)
            perturbed.append((P, R))
    for D, R in cases + perturbed:
        assert check_affine(D, R) == check_affine_loop(D, R)
    for D, R in perturbed:
        rep = check_affine(D, R)
        assert not rep.affine and rep.reason.startswith("non-parallel blocks")


def test_incidence_gram():
    D, _ = ag_design(2, 3)
    G = D.gram()
    expect = 3 * np.eye(9, dtype=np.int64) + np.ones((9, 9), dtype=np.int64)
    assert np.array_equal(G, expect)
    empty = IncidenceStructure(np.zeros((3, 4)))
    assert np.array_equal(empty.gram(), np.zeros((3, 3)))
    cat = clatworthy_r1()
    C = np.zeros((4, 4), dtype=np.int64)
    for cls in cat.params.partition:
        idx = np.array(cls)
        C[np.ix_(idx, idx)] = 1
    expect = (4 - 2) * np.eye(4, dtype=np.int64) + (2 - 1) * C + np.ones((4, 4), dtype=np.int64)
    assert np.array_equal(cat.structure.gram(), expect)


def test_fisher_bose_hanani_inequalities():
    # Fisher: b >= v for BIBDs with k < v
    for (t, q) in [(2, 2), (2, 3), (3, 2)]:
        D, R = ag_design(t, q)
        tact = verify_tactical(D)
        assert tact.b >= tact.v
        # Bose for resolvable BIBDs
        assert tact.b >= tact.v + tact.r - 1
    # Hanani: k <= (lambda u^2 - 1)/(u - 1) for (u, k, lambda) TDs
    for q in (2, 3, 4):
        for k in range(2, q + 2):
            m4 = build_m4(k, q)
            p = m4.member_params
            assert p.k <= (p.lambda2 * p.u ** 2 - 1) // (p.u - 1)


def test_params_json_round_trips():
    D, _ = ag_design(2, 2)
    bj = params_to_json(verify_bibd(D, 1))
    assert params_from_json(bj) == verify_bibd(D, 1)
    cat = clatworthy_r1()
    gj = params_to_json(cat.params)
    assert params_from_json(gj) == cat.params
    with pytest.raises(ValueError, match="bibd certificate lambda is None, not an integer"):
        params_from_json({key: val for key, val in bj.items() if key != "lambda"})
