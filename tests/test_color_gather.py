"""The color matrix as one gather over the class table G and the color table L.

A mosaic with the resolvable form f(x, i a + beta) = L[beta, G[x, i]] builds
F as ``L.T[G]``; ``from_members`` and ``dual_mosaic`` take F from the member
matrices and the base's F, and the rest, M4 included, fill F with one call of
the array-level f.  The oracle here is a per-cell fill through the scalar
``M.f``, compared as int32 integer equality.
"""

import numpy as np

from designmosaics.families import (
    ag_design,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    clatworthy_r1,
    clatworthy_r2,
    td_design,
)
from designmosaics.field import make_field
from designmosaics.mosaics import (
    CyclicQuasigroup,
    FieldAdditiveQuasigroup,
    Quasigroup,
    construct_from_resolvable,
    dual_mosaic,
    from_functional_form,
    from_members,
    point_multiple,
    sample_inverse,
)
from test_acceptance import M4_GRID, _grid_mosaics


def scalar_color_matrix(M, columns=None):
    """F[:, s] = f(x, s) for the seeds in ``columns`` (all by default), one f
    call per cell."""
    columns = range(M.b) if columns is None else columns
    F = np.empty((M.v, len(columns)), dtype=np.int32)
    for j, s in enumerate(columns):
        for x in range(M.v):
            F[x, j] = M.f(x, s)
    return F


def assert_gather_matches(M):
    assert M._form is not None, M
    F = M.color_matrix()
    assert F.dtype == np.int32 and F.shape == (M.v, M.b), M
    assert np.array_equal(F, scalar_color_matrix(M)), M


def test_gather_matches_scalar_fill_on_acceptance_grid():
    for M in _grid_mosaics():
        if M.meta["family"] != "m4":
            assert_gather_matches(M)


def test_gather_matches_scalar_fill_for_construct_from_resolvable():
    for cat in (clatworthy_r1(), clatworthy_r2()):
        assert_gather_matches(construct_from_resolvable(cat.structure, cat.resolution,
                                                        CyclicQuasigroup(2)))
    D, R = ag_design(2, 4)
    assert_gather_matches(construct_from_resolvable(D, R, FieldAdditiveQuasigroup(make_field(2, 2))))
    D, R = ag_design(2, 3)
    assert_gather_matches(construct_from_resolvable(D, R, Quasigroup([[0, 2, 1],
                                                                    [1, 0, 2],
                                                                    [2, 1, 0]])))
    D, R = td_design(4, 5)
    assert_gather_matches(construct_from_resolvable(D, R, CyclicQuasigroup(5)))


def test_gather_matches_scalar_fill_for_point_multiples():
    for M in (build_m1(2, 3), build_m1(3, 2), build_m2(3, 1)):
        for u in (2, 3):
            P = point_multiple(M, u)
            assert_gather_matches(P)
            assert M._colors is None    # the base's F is not built


def test_gather_matches_scalar_fill_on_larger_rungs():
    M3 = build_m3(3, 2, 2)
    assert_gather_matches(M3)
    assert M3.base._colors is None
    assert_gather_matches(build_m2(5, 3))


def test_gather_matches_scalar_fill_on_m2_6_3_columns():
    # the full scalar fill of m2(6,3) takes about 10 s; 200 random seed columns
    M = build_m2(6, 3)
    F = M.color_matrix()
    cols = np.random.default_rng(7).choice(M.b, size=200, replace=False)
    assert F.dtype == np.int32
    assert np.array_equal(F[:, cols], scalar_color_matrix(M, cols.tolist()))


def test_mosaics_without_the_form_fill_F_with_one_call_of_f():
    # every M4, the vertical slope first, in the middle, last or absent; a
    # hand-made functional form; a point multiple of a mosaic held by F alone
    m4 = [build_m4(k, q) for k, q in M4_GRID] + [build_m4(8, 16)]
    m4 += [build_m4(3, 4, slopes=R) for R in ((4, 0, 1), (0, 4, 2), (0, 2, 4))]
    base = build_m1(2, 3)
    others = [from_functional_form(base.f, base.g, base.v, base.b, base.a, k=base.k),
              point_multiple(from_members(base.members(), member_params=base.member_params), 2)]
    for M in m4 + others:
        assert M._form is None, M
        M._colors = None    # from_functional_form built F when it verified (f, g)
        calls = []
        f = M._f
        M._f = lambda x, s, f=f: calls.append(1) or f(x, s)
        F = M.color_matrix()
        assert len(calls) == 1, M
        assert F.dtype == np.int32 and np.array_equal(F, scalar_color_matrix(M)), M


def test_from_members_and_dual_mosaic_take_f_from_arrays():
    base = build_m1(2, 3)
    members = base.members()
    M = from_members(members)
    # F is set from the member matrices when the mosaic is made
    assert M._form is None and M._colors is not None
    assert np.array_equal(M.color_matrix(),
                          np.argmax(np.stack([D.N for D in members]), axis=0))
    assert np.array_equal(M.color_matrix(), scalar_color_matrix(base))
    for B in (build_m1(2, 3), build_m2(3, 2)):
        calls = []
        f = B._f
        B._f = lambda x, s, f=f: calls.append((x, s)) or f(x, s)
        D = dual_mosaic(B)
        assert D._form is None
        assert np.array_equal(D.color_matrix(), B.color_matrix().T)
        assert calls == []
        assert np.array_equal(D.color_matrix(), scalar_color_matrix(B).T)


def test_m2_class_table_is_not_read_from_the_tables_of_g():
    M = build_m2(4, 2)
    M.color_matrix()
    assert M.geometry._class_tables == {}


def test_codec_round_trips_build_neither_class_table_nor_color_matrix():
    M = build_m2(7, 3)

    def no_form():
        raise AssertionError("the class table was built")
    M._form = no_form
    rng = np.random.default_rng(11)
    for _ in range(100):
        s, alpha = int(rng.integers(M.b)), int(rng.integers(M.a))
        assert M.f(sample_inverse(M, s, alpha, rng), s) == alpha
    assert M._colors is None

