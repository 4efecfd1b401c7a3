import numpy as np
import pytest

from designmosaics.designs import check_affine, classify_gdd, verify_bibd, verify_gdd, verify_resolution
from designmosaics.families import (
    DennistonGeometry,
    ag_design,
    build_family,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    clatworthy_r1,
    clatworthy_r2,
    denniston_design,
    denniston_point_set,
    td_design,
)
from designmosaics.mosaics import (
    CyclicQuasigroup,
    construct_from_resolvable,
    verify_functional_form,
    verify_mosaic,
)
from test_acceptance import member_matrices


# -- M1 ------------------------------------------------------------------------

def test_m1_22_parameters():
    M = build_m1(2, 2)
    s = M.member_params
    assert (s.v, s.b, s.r, s.k, s.lam, M.a) == (4, 6, 3, 2, 1, 2)
    assert (M.v, M.b, M.k) == (s.v, s.b, s.k)


@pytest.mark.parametrize("build", [build_m1, ag_design])
def test_m1_rejects_invalid_parameters(build):
    # t is checked before q
    for t, q, message in [(1, 6, "M1 requires t >= 2"), (2, 6, "6 is not a prime power"),
                          (2, 1, "1 is not a prime power")]:
        with pytest.raises(ValueError, match=message):
            build(t, q)


def test_m1_functional_form_example():
    # f((1,0); h=(1,1), beta=1) = 1*1 + 1*0 + 1 = 0 over GF(2)
    M = build_m1(2, 2)
    from designmosaics.families import _m1_slopes
    slopes = _m1_slopes(2, 2)
    i = slopes.index((1, 1))
    x = 1  # coordinates (1, 0)
    assert M.f(x, i * 2 + 1) == 0


@pytest.mark.parametrize("t,q", [(2, 3), (3, 2), (2, 4)])
def test_m1_members_verify(t, q):
    M = build_m1(t, q)
    assert verify_mosaic(M)
    lam = M.member_params.lam
    for alpha in range(M.a):
        assert verify_bibd(M.member(alpha), lam)


@pytest.mark.parametrize("t,q", [(2, 3), (2, 5), (3, 3), (2, 9)])
def test_ag_design_blocks_are_hyperplanes(t, q):
    from designmosaics.families import _m1_slopes
    from designmosaics.field import make_field, prime_power
    gf = make_field(*prime_power(q))
    D, R = ag_design(t, q)
    assert R.classes == tuple(tuple(range(i * q, (i + 1) * q)) for i in range(len(R.classes)))
    for i, h in enumerate(_m1_slopes(t, q)):
        for alpha in range(q):
            hyperplane = []
            for x in range(q ** t):
                coords = [x // q ** j % q for j in range(t)]
                dot = 0
                for hj, xj in zip(h, coords):
                    dot = gf.add(dot, gf.mul(hj, xj))
                if dot == alpha:
                    hyperplane.append(x)
            assert np.flatnonzero(D.N[:, i * q + alpha]).tolist() == hyperplane


def test_m1_corrected_lambda():
    # the pair count forced by r(k-1) = lambda(v-1); equals q^(t-2) iff t = 2
    assert build_m1(2, 5).member_params.lam == 1
    assert build_m1(3, 2).member_params.lam == 3
    assert build_m1(3, 3).member_params.lam == 4


# -- Denniston geometry ----------------------------------------------------------

# The scalar block enumeration of the Denniston arc: H_{c,d}, then the slopes
# R_{c,d} through the Artin-Schreier roots, then the points.  It is the oracle
# that the class tables, and so g, denniston_design and block_points, are
# checked against.

def hcd_list(geom, c, d):
    """The z in H with Tr(e_c z / (eta2^2 d^2)) = 1, a coset of a hyperplane
    of H, in a fixed enumeration order."""
    if d == 0:
        raise ValueError("H_{c,d} is defined for nonzero intercepts")
    gf = geom.gf
    beta = gf.div(geom.e_coeff(c),
                  gf.mul(gf.mul(geom.eta2, geom.eta2), gf.mul(d, d)))
    mask = gf.dual_coords(beta) & (geom.k - 1)
    if mask == 0:
        raise ValueError(f"intercept {d} is not in U_{c}")
    piv = mask.bit_length() - 1
    free = [i for i in range(geom.l) if i != piv]
    out = []
    for counter in range(1 << (geom.l - 1)):
        z = 0
        for idx, pos in enumerate(free):
            if (counter >> idx) & 1:
                z |= 1 << pos
        parity = bin(z & mask).count("1") & 1
        if parity == 0:
            z |= 1 << piv
        out.append(z)
    return out


def rcd_slopes(geom, c, d):
    """The slopes whose arc section meets L_{c,d}; exactly k of them,
    with multiplicity structure two per z in H_{c,d}."""
    if d == 0:
        raise ValueError("R_{c,d} is defined for nonzero intercepts")
    gf = geom.gf
    q = geom.q
    eta1, eta2, eta3 = geom.eta1, geom.eta2, geom.eta3
    d2 = gf.mul(d, d)
    e2sq = gf.mul(eta2, eta2)
    slopes = []
    for z in hcd_list(geom, c, d):
        if c != q and z == gf.mul(eta3, d2):
            # degenerate quadratic: the linear root plus the vertical slope
            slopes.append(gf.div(gf.add(eta1, gf.mul(eta3, gf.mul(c, c))), eta2))
            slopes.append(q)
            continue
        if c != q:
            denom = gf.add(z, gf.mul(eta3, d2))
            const = gf.div(
                gf.mul(gf.add(gf.mul(eta1, d2), gf.mul(gf.mul(c, c), z)), denom),
                gf.mul(e2sq, gf.mul(d2, d2)))
            for w in gf.artin_schreier_roots(const):
                slopes.append(gf.div(gf.mul(gf.mul(eta2, d2), w), denom))
        else:
            const = gf.div(gf.mul(eta3, gf.add(gf.mul(eta1, d2), z)), gf.mul(e2sq, d2))
            for w in gf.artin_schreier_roots(const):
                slopes.append(gf.div(gf.mul(eta2, w), eta3))
    return slopes


def quadratic_form(geom, x, y):
    """eta1 x^2 + eta2 x y + eta3 y^2, below k exactly on the Denniston arc."""
    gf = geom.gf
    return gf.add(gf.add(gf.mul(geom.eta1, gf.mul(x, x)),
                         gf.mul(geom.eta2, gf.mul(x, y))),
                  gf.mul(geom.eta3, gf.mul(y, y)))


def scalar_block_points(geom, c, d):
    """The k arc points on the line L_{c,d}, in the class tables' order."""
    gf = geom.gf
    q = geom.q
    pts = []
    if d == 0:
        pts.append((0, 0))
        e = geom.e_coeff(c)
        for h in range(1, geom.k):
            x = gf.sqrt(gf.div(h, e))
            pts.append((0, x) if c == q else (x, gf.mul(c, x)))
    else:
        for ct in rcd_slopes(geom, c, d):
            if c == q:
                pts.append((d, gf.mul(ct, d)))
            elif ct == q:
                pts.append((0, d))
            else:
                x = gf.div(d, gf.add(c, ct))
                pts.append((x, gf.mul(ct, x)))
    assert len(pts) == geom.k == len(set(pts)), (c, d, pts)
    return tuple(pts)


@pytest.mark.parametrize("t,l", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_denniston_cardinality_and_line_sections(t, l):
    geom = DennistonGeometry(t, l)
    pts = denniston_point_set(geom)
    assert len(pts) == len(set(pts)) == 1 + (2 ** t + 1) * (2 ** l - 1) == geom.v
    arc = set(pts)
    gf = geom.gf
    # every line of AG(2, q) meets the arc in 0 or 2^l points
    for c in range(geom.q + 1):
        for d in gf.elements():
            if c == geom.q:
                line = {(d, y) for y in gf.elements()}
            else:
                line = {(x, gf.add(gf.mul(c, x), d)) for x in gf.elements()}
            assert len(line & arc) in (0, geom.k)


@pytest.mark.parametrize("t,l", [(2, 1), (2, 2), (3, 2)])
def test_denniston_uc_and_blocks_brute_force(t, l):
    geom = DennistonGeometry(t, l)
    gf = geom.gf
    arc = set(denniston_point_set(geom))
    for c in range(geom.q + 1):
        uc = [geom.phi_uc(c, j) for j in range(geom.a)]
        assert len(uc) == geom.a and 0 in uc
        brute = {}
        for d in gf.elements():
            if c == geom.q:
                line = {(d, y) for y in gf.elements()}
            else:
                line = {(x, gf.add(gf.mul(c, x), d)) for x in gf.elements()}
            if line & arc:
                brute[d] = line & arc
        assert set(uc) == set(brute)
        for d in uc:
            pts = geom.block_points(c, d)
            assert len(pts) == geom.k and set(pts) == brute[d]


def test_denniston_rcd_slopes():
    geom = DennistonGeometry(3, 2)
    for c in range(geom.q + 1):
        for j in range(1, geom.a):
            d = geom.phi_uc(c, j)
            slopes = rcd_slopes(geom, c, d)
            # exactly k slopes, all distinct, two per z in H_{c,d}
            assert len(slopes) == geom.k == len(set(slopes))
            zs = hcd_list(geom, c, d)
            assert len(zs) == geom.k // 2
            # membership: every listed slope's section really meets the line
            for ct in slopes:
                assert ct != c


def test_denniston_hcd_trace_condition():
    geom = DennistonGeometry(3, 3)
    gf = geom.gf
    c, j = 2, 3
    d = geom.phi_uc(c, j)
    for z in hcd_list(geom, c, d):
        val = gf.div(gf.mul(geom.e_coeff(c), z),
                     gf.mul(gf.mul(geom.eta2, geom.eta2), gf.mul(d, d)))
        assert z < geom.k and gf.trace(val) == 1


def test_denniston_errors():
    geom = DennistonGeometry(2, 1)
    with pytest.raises(ValueError):
        rcd_slopes(geom, 0, 0)         # d = 0 block has no slope list
    bad_d = next(d for d in geom.gf.elements() if d not in [geom.phi_uc(0, j) for j in range(geom.a)])
    with pytest.raises(ValueError):
        hcd_list(geom, 0, bad_d)
    with pytest.raises(ValueError):
        geom.block_points(0, bad_d)    # the line misses the arc
    assert geom._blocks == {}
    with pytest.raises(ValueError):
        DennistonGeometry(2, 3)
    with pytest.raises(ValueError):
        DennistonGeometry(1, 1)


def test_denniston_irreducibility_invariant():
    for t in (*range(2, 13), 17):
        geom = DennistonGeometry(t, 1)
        gf = geom.gf
        val = gf.div(gf.mul(geom.eta1, geom.eta3), gf.mul(geom.eta2, geom.eta2))
        assert gf.trace(val) == 1
        # exhaustive: eta1 T^2 + eta2 T + eta3 has no root in F_q
        fa = gf.arrays()
        x = np.arange(geom.q)
        values = fa.mul(geom.eta1, fa.mul(x, x)) ^ fa.mul(geom.eta2, x) ^ geom.eta3
        assert (values != 0).all(), t
        # and eta2 is the smallest element with the trace condition
        assert all(gf.trace(gf.inv(gf.mul(e, e))) == 0 for e in range(1, geom.eta2)), t


# -- M2 ------------------------------------------------------------------------

def test_m2_parameters():
    M = build_m2(2, 2)
    p = M.member_params
    assert (M.v, M.b, p.r, p.k, M.a) == (16, 20, 5, 4, 4)
    M = build_m2(2, 1)
    assert (M.v, M.b, M.a, M.k) == (6, 15, 3, 2)


def test_m2_full_arc_is_affine_plane():
    # l = t: the arc is all of AG(2, q), so D = AG(2, q)
    geom = DennistonGeometry(2, 2)
    D, R = denniston_design(geom)
    assert verify_bibd(D, 1)
    assert verify_resolution(D, R.classes)
    rep = check_affine(D, R)
    assert rep.affine and rep.mu == 1


@pytest.mark.parametrize("t,l", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_m2_two_path_equivalence(t, l):
    M = build_m2(t, l)
    D, R = denniston_design(M.geometry)
    other = construct_from_resolvable(D, R, CyclicQuasigroup(M.a))
    assert np.array_equal(M.color_matrix(), other.color_matrix())


def test_m2_members_verify():
    for (t, l) in [(2, 1), (3, 2)]:
        M = build_m2(t, l)
        assert verify_mosaic(M) and verify_functional_form(M)
        for alpha in range(M.a):
            assert verify_bibd(M.member(alpha), 1)


def test_m2_block_point_sets_lie_on_arc_and_line():
    geom = DennistonGeometry(3, 2)
    gf = geom.gf
    for c in range(geom.q + 1):
        for j in range(geom.a):
            d = geom.phi_uc(c, j)
            pts = scalar_block_points(geom, c, d)
            assert geom.block_points(c, d) == pts
            for (px, py) in pts:
                assert quadratic_form(geom, px, py) < geom.k
                if c == geom.q:
                    assert px == d
                else:
                    assert py == gf.add(gf.mul(c, px), d)


def _scalar_block_row(geom, c, j):
    return [geom.phi_x_inv(p) for p in scalar_block_points(geom, c, geom.phi_uc(c, j))]


# the acceptance grid's M2 and M3 rungs, (t, l, u) with u = None for M2
BLOCK_TABLE_RUNGS = ([(t, l, None) for t in (2, 3) for l in range(1, t + 1)]
                     + [(t, l, u) for t in (2, 3) for l in range(1, t + 1) for u in (1, 2, 3)])


@pytest.mark.parametrize("t,l,u", BLOCK_TABLE_RUNGS)
def test_class_tables_match_scalar_block_enumeration(t, l, u):
    M = build_m2(t, l) if u is None else build_m3(t, l, u)
    geom = (M if u is None else M.base).geometry
    for c in range(geom.q + 1):
        table = geom.class_table(c)
        assert table.dtype == np.int32 and table.shape == (geom.a, geom.k)
        for j in range(geom.a):
            assert table[j].tolist() == _scalar_block_row(geom, c, j)
    # g reads the tables; the scalar path composes phi_uc, the block points, phi_x_inv
    uu = 1 if u is None else u
    for s in range(M.b):
        i, beta = divmod(s, geom.a)
        for alpha in range(M.a):
            row = _scalar_block_row(geom, i, (alpha - beta) % geom.a)
            for kappa in range(M.k):
                base, rep = divmod(kappa, uu)
                assert M.g(s, alpha, kappa) == row[base] * uu + rep
    assert verify_functional_form(M)


def test_class_tables_match_scalar_block_enumeration_t7():
    M = build_m2(7, 3)
    geom = M.geometry
    for c in range(geom.q + 1):
        table = geom.class_table(c)
        for j in range(geom.a):
            assert table[j].tolist() == _scalar_block_row(geom, c, j)
    rng = np.random.default_rng(73)
    for s, alpha, kappa in zip(rng.integers(0, M.b, 2000).tolist(),
                               rng.integers(0, M.a, 2000).tolist(),
                               rng.integers(0, M.k, 2000).tolist()):
        assert M.f(M.g(s, alpha, kappa), s) == alpha


def test_class_table_fields_above_log_table_threshold():
    # t = 17 builds the log tables its class tables need on first use
    geom = DennistonGeometry(17, 2)
    table = geom.class_table(5)
    for j in (0, 1, 1234, geom.a - 1):
        assert table[j].tolist() == _scalar_block_row(geom, 5, j)
    with pytest.raises(ValueError):
        geom.class_table(geom.q + 1)


# -- M3 ------------------------------------------------------------------------

def test_m3_parameters_and_classification():
    M = build_m3(2, 2, 2)
    g = M.member_params
    assert (g.u, g.m, M.b, g.r, g.k, g.lambda1, g.lambda2, M.a) == (2, 16, 20, 5, 8, 5, 1, 4)
    for alpha in range(M.a):
        res = verify_gdd(M.member(alpha), M.point_classes, g.lambda1, g.lambda2)
        assert res and classify_gdd(res) == "singular"


def test_m3_u1_members_are_m2_bibds_reviewed_as_gdds():
    M = build_m3(2, 1, 1)
    base = build_m2(2, 1)
    assert np.array_equal(M.color_matrix(), base.color_matrix())
    g = M.member_params
    assert (g.u, g.lambda1, g.lambda2) == (1, 5, 1)


def test_m3_functional_form_factors_through_base():
    M = build_m3(2, 1, 3)
    base = M.base
    for x in range(M.v):
        for s in range(0, M.b, 3):
            assert M.f(x, s) == base.f(x // 3, s)


# -- M4 ------------------------------------------------------------------------

def test_m4_parameters_and_default_slopes():
    M = build_m4(2, 3)
    s = M.member_params
    assert (s.u, s.k, s.b, s.lambda2, M.a, s.v) == (3, 2, 9, 1, 3, 6)
    assert (M.v, M.b) == (s.v, s.b)
    assert M.meta["slopes"] == [0, 1]
    assert build_m4(4, 3).meta["slopes"] == [0, 1, 2, 3]   # includes the vertical slope q=3
    for k, q, slopes, message in [
            (9, 6, None, "6 is not a prime power"),   # q is checked before k
            (5, 3, None, "M4 requires 2 <= k <= q \\+ 1"),
            (1, 3, None, "M4 requires 2 <= k <= q \\+ 1"),
            (2, 3, (0, 0), "exactly k = 2 distinct"),
            (2, 3, (0, 1, 1), "exactly k = 2 distinct"),   # k distinct values, k + 1 entries
            (2, 3, (0, 7), "slopes must lie in F_q"),
            (2, 3, (0, 7, 7), "exactly k = 2 distinct")]:
        with pytest.raises(ValueError, match=message):
            build_m4(k, q, slopes)


def test_m4_functional_form_follows_incidence_rule():
    # design decision: f = c s1 + d - s2 so that f(x, s) = alpha matches the
    # member incidence c s1 + d - alpha = s2
    M = build_m4(2, 3)
    x = 1 * 3 + 2            # slope 1, intercept 2
    s = 0 * 3 + 1            # point (0, 1)
    assert M.f(x, s) == (1 * 0 + 2 - 1) % 3 == 1
    for alpha in range(3):
        for kappa in range(2):
            xx = M.g(s, alpha, kappa)
            ci, d = divmod(xx, 3)
            c = M.meta["slopes"][ci]
            s1, s2 = divmod(s, 3)
            assert (c * s1 + d - alpha) % 3 == s2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_m4_members_verify_all_k(q):
    for k in range(2, q + 2):
        M = build_m4(k, q)
        assert verify_mosaic(M) and verify_functional_form(M)
        for alpha in range(M.a):
            res = verify_gdd(M.member(alpha), M.point_classes, 0, 1)
            assert res and classify_gdd(res) == "semi-regular"
        # members pairwise disjoint in incidence
        stack = member_matrices(M)
        assert (stack.sum(axis=0) == 1).all()
        # block rate optimal: b = a^2
        assert M.b == M.a ** 2


def test_m4_td_design_resolution():
    D, R = td_design(3, 4)
    assert R is not None and verify_resolution(D, R.classes)
    res = verify_gdd(D, [tuple(range(i * 4, (i + 1) * 4)) for i in range(3)], 0, 1)
    assert res
    # deleting no class (k = q + 1) keeps the vertical slope: no s1-resolution
    D_full, R_full = td_design(5, 4)
    assert R_full is None
    res = verify_gdd(D_full, [tuple(range(i * 4, (i + 1) * 4)) for i in range(5)], 0, 1)
    assert res


def _td_loop(k, q, slopes=None):
    """The TD incidence by one loop over lines and points: line (c, d) lies
    on the point (s1, c s1 + d), the vertical line x = d on (d, s2)."""
    from designmosaics.field import make_field, prime_power
    gf = make_field(*prime_power(q))
    R = tuple(range(k)) if slopes is None else slopes
    N = np.zeros((q * k, q * q), dtype=np.uint8)
    for ci, c in enumerate(R):
        for d in range(q):
            x = ci * q + d
            for s in range(q):
                N[x, d * q + s if c == q else s * q + gf.add(gf.mul(c, s), d)] = 1
    return N


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_td_design_matches_the_incidence_loop(q):
    cases = [(k, None) for k in range(2, q + 2)] + [(2, (0, q)), (3, (q, 1, 0))]
    for k, slopes in cases:
        D, R = td_design(k, q, slopes)
        assert D.N.dtype == np.uint8
        assert np.array_equal(D.N, _td_loop(k, q, slopes)), (k, slopes)
        vertical = q in (range(k) if slopes is None else slopes)
        assert (R is None) == vertical
        if not vertical:
            assert R.classes == tuple(tuple(range(e * q, (e + 1) * q)) for e in range(q))


def test_m4_two_path_equivalence_char2():
    # over characteristic 2 the construction from the resolvable TD with the
    # additive quasigroup reproduces the closed-form functional form
    from designmosaics.field import make_field
    from designmosaics.mosaics import FieldAdditiveQuasigroup
    q = 4
    M = build_m4(3, q)
    D, R = td_design(3, q)
    other = construct_from_resolvable(D, R, FieldAdditiveQuasigroup(make_field(2, 2)))
    assert np.array_equal(M.color_matrix(), other.color_matrix())


# -- catalogued GDDs and the registry -------------------------------------------

def test_clatworthy_structures_verify():
    for cat, cls in [(clatworthy_r1(), "regular"), (clatworthy_r2(), "regular")]:
        res = verify_gdd(cat.structure, cat.params.partition, cat.params.lambda1, cat.params.lambda2)
        assert res
        assert classify_gdd(res) == cls
        assert verify_resolution(cat.structure, cat.resolution.classes)


def test_build_family_registry():
    M = build_family("m2", t=2, l=1)
    assert (M.v, M.b, M.a) == (6, 15, 3)
    with pytest.raises(ValueError):
        build_family("m9")
    with pytest.raises(ValueError):
        build_family("m1", t=2)  # missing q
