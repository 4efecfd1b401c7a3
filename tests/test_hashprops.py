from fractions import Fraction

import numpy as np
import pytest

from designmosaics.designs import GDDParams, IncidenceStructure
from designmosaics.families import build_m1, build_m2, build_m3, build_m4, clatworthy_r1, clatworthy_r2
from designmosaics.hashprops import (
    check_regular_gdd_uhf,
    collision_spectrum,
    epsilon_asu,
    hashprops_report,
    is_optimally_universal,
    is_universal,
    oa_check,
    stinson_floor,
)
from designmosaics.mosaics import CyclicQuasigroup, construct_from_resolvable, from_members
from test_acceptance import _grid_mosaics


def test_m1_22_spectrum_is_a_lambda_and_stinson_floor():
    M = build_m1(2, 2)
    spec = collision_spectrum(M)
    assert spec.constant and spec.min_count == 2 == M.a * M.member_params.lam
    assert spec.min_normalized == Fraction(1, 3)
    assert stinson_floor(4, 2) == Fraction(1, 3)
    assert is_optimally_universal(M, spec)
    assert is_universal(M, spec)


def test_single_member_mosaic_collides_everywhere():
    M = from_members([IncidenceStructure(np.ones((4, 5)))])
    spec = collision_spectrum(M)
    assert spec.constant and spec.min_count == 5 == M.b


@pytest.mark.parametrize("M", [build_m1(2, 3), build_m2(2, 1), build_m2(2, 2)])
def test_bibd_mosaics_optimally_universal(M):
    spec = collision_spectrum(M)
    p = M.member_params
    # the two closed forms for the constant value agree
    assert spec.constant
    assert spec.min_count == M.a * p.lam
    assert spec.min_count * M.a * (M.v - 1) == M.b * (M.v - M.a)
    assert is_optimally_universal(M, spec)


def test_m3_singular_not_universal():
    for (t, l, u) in [(2, 1, 2), (2, 2, 2)]:
        M = build_m3(t, l, u)
        assert M.a >= 2
        assert not is_universal(M)


def test_m4_universal_but_not_optimally():
    M = build_m4(3, 4)
    spec = collision_spectrum(M)
    assert is_universal(M, spec)
    # lambda1 = 0 within classes, a*lambda2 across: spectrum not constant
    assert spec.min_count == 0 and spec.max_count == M.a
    assert not is_optimally_universal(M, spec)


def test_clatworthy_parameter_verdicts():
    r1, r2 = clatworthy_r1(), clatworthy_r2()
    v1 = check_regular_gdd_uhf(r1.params)
    assert v1.universal and v1.kr == 8 == v1.lambda1_v
    v2 = check_regular_gdd_uhf(r2.params)
    assert not v2.universal and (v2.kr, v2.lambda1_v) == (10, 12)


def test_clatworthy_verdicts_cross_checked_with_spectra():
    for cat, want in [(clatworthy_r1(), True), (clatworthy_r2(), False)]:
        M = construct_from_resolvable(cat.structure, cat.resolution,
                                      CyclicQuasigroup(2), member_params=cat.params)
        assert check_regular_gdd_uhf(cat.params).universal == want == is_universal(M)


def test_lambda1_le_lambda2_always_universal():
    params = GDDParams.from_classes(u=2, m=2, k=2, lambda1=1, lambda2=2)
    verdict = check_regular_gdd_uhf(params)
    assert verdict.universal and "always" in verdict.note


def test_oa_check_trivial_single_symbol():
    arr = np.zeros((3, 4), dtype=int)
    rep = oa_check(arr, a=1)
    assert rep.is_oa and rep.lam == 4 and rep.column_counts_constant


def test_oa_check_parity_array():
    # rows = the 3 nonzero parities of F_2^2, columns = the 4 vectors
    vecs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    hs = [(0, 1), (1, 0), (1, 1)]
    arr = np.array([[(h[0] * x[0] + h[1] * x[1]) % 2 for x in vecs] for h in hs])
    rep = oa_check(arr, a=2)
    assert rep.is_oa and rep.lam == 1
    assert not rep.column_counts_constant
    assert rep.epsilon == Fraction(1 * 2, 4)


def test_mosaic_of_bibds_never_oa_with_constant_counts():
    for M in [build_m1(2, 2), build_m1(2, 3), build_m2(2, 1)]:
        rep = oa_check(M.color_matrix(), a=M.a)
        assert not (rep.is_oa and rep.column_counts_constant) or M.a == 1
        # column counts ARE constant (= k) for these mosaics, so they fail OA
        assert rep.column_counts_constant and rep.column_count == M.k
        assert not rep.is_oa


def test_epsilon_asu_bounds_collision_probability():
    M = build_m4(2, 3)
    eps = epsilon_asu(M)
    spec = collision_spectrum(M)
    assert eps <= spec.max_normalized
    assert eps > 0


def test_hashprops_report_shape():
    rep = hashprops_report(build_m1(2, 2))
    assert rep["universal"] and rep["optimally_universal"]
    assert rep["spectrum_min"] == rep["spectrum_max"] == 2
    assert abs(rep["stinson_floor"] - 1 / 3) < 1e-12
    assert set(rep) >= {"spectrum_min", "spectrum_max", "universal",
                        "optimally_universal", "epsilon"}


# -- oracles: the per-row bincount loops that the pair-code bincounts replaced ------

def epsilon_asu_rows(M):
    F = M.color_matrix()
    worst = 0
    for x in range(M.v - 1):
        joint = F[x + 1:].astype(np.int64) * M.a + F[x]
        for row in joint:
            worst = max(worst, int(np.bincount(row, minlength=M.a * M.a).max()))
    return Fraction(worst, M.b)


def oa_check_rows(array, a):
    F = np.asarray(array, dtype=np.int64)
    v, b = F.shape
    col_counts = np.stack([np.bincount(F[:, s], minlength=a) for s in range(b)])
    counts_flat = col_counts.ravel()
    const = bool((counts_flat == counts_flat[0]).all())
    col_count = int(counts_flat[0]) if const else None
    if b % (a * a):
        return (False, None, const, col_count, None)
    lam = b // (a * a)
    worst = 0
    for x in range(v - 1):
        joint = F[x + 1:] * a + F[x]
        for row in joint:
            pair_counts = np.bincount(row, minlength=a * a)
            worst = max(worst, int(pair_counts.max()))
            if not (pair_counts == lam).all():
                return (False, None, const, col_count, Fraction(worst, b))
    return (True, lam, const, col_count, Fraction(lam * a, b))


def test_pair_code_bincounts_match_row_loop_oracles():
    def fields(rep):
        return (rep.is_oa, rep.lam, rep.column_counts_constant, rep.column_count, rep.epsilon)

    for M in _grid_mosaics():
        assert epsilon_asu(M) == epsilon_asu_rows(M), M
        assert fields(oa_check(M.color_matrix(), a=M.a)) == oa_check_rows(M.color_matrix(), M.a), M
    vecs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    parity = np.array([[(h0 * x0 + h1 * x1) % 2 for x0, x1 in vecs]
                       for h0, h1 in [(0, 1), (1, 0), (1, 1)]])
    # the parity OA with row 1 repeated fails first at the pair (1, 3)
    repeated = np.vstack([parity, parity[1]])
    rng = np.random.default_rng(23)
    arrays = [(np.zeros((3, 4), dtype=int), 1), (parity, 2), (repeated, 2),
              (rng.integers(0, 3, size=(6, 18)), 3)]
    for arr, a in arrays:
        assert fields(oa_check(arr, a=a)) == oa_check_rows(arr, a), arr
    assert not oa_check(repeated, a=2).is_oa
    for arr, a in ((parity, 1), (parity - 1, 2)):
        with pytest.raises(ValueError, match="entries"):
            oa_check(arr, a=a)
