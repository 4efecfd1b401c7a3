"""Property tests over the family grid of the acceptance suite.

* save/load keeps the color matrix F exactly, with and without member files;
* f(g(s, alpha, kappa), s) = alpha for every drawn (s, alpha, kappa);
* the array g on the (a, k) grid of a drawn seed equals the scalar g cell by
  cell, over the grid, ``construct_from_resolvable`` and ``point_multiple``;
* the array f of every mosaic without a form, on a drawn block of points and
  seeds, equals the scalar f cell by cell;
* ``certify`` accepts every family mosaic, and rejects the ``from_members``
  mosaic made by exchanging two different colors F[x, s0], F[x, s1] of one
  row: the partition still holds, but two members lose their block sizes;
* that mosaic and a ``dual_mosaic`` keep F, k and the ``certify`` verdict
  through a member file.

Examples are drawn deterministically (``derandomize``) with a bounded count,
and nothing is written to a hypothesis database.
"""

import functools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from designmosaics.designs import IncidenceStructure
from designmosaics.families import ag_design, build_m1, build_m2, build_m4
from designmosaics.field import make_field
from designmosaics.mosaics import (
    CyclicQuasigroup,
    FieldAdditiveQuasigroup,
    certify,
    construct_from_resolvable,
    dual_mosaic,
    from_members,
    point_multiple,
)
from designmosaics.serialize import load_mosaic, save_mosaic
from test_acceptance import M4_GRID, _grid_mosaics

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@functools.cache
def grid():
    return tuple(_grid_mosaics())


def draw_mosaic(data):
    return data.draw(st.sampled_from(grid()), label="mosaic")


@PROPERTY
@given(st.data(), st.booleans())
def test_save_load_keeps_the_color_matrix(data, members):
    M = draw_mosaic(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mosaic.json"
        save_mosaic(M, path, members=members)
        loaded = load_mosaic(path)
    F = loaded.color_matrix()
    assert F.dtype == M.color_matrix().dtype and np.array_equal(F, M.color_matrix())
    assert loaded.member_params == M.member_params


@PROPERTY
@given(st.data())
def test_f_inverts_g(data):
    M = draw_mosaic(data)
    s = data.draw(st.integers(0, M.b - 1), label="s")
    alpha = data.draw(st.integers(0, M.a - 1), label="alpha")
    kappa = data.draw(st.integers(0, M.k - 1), label="kappa")
    assert M.f(M.g(s, alpha, kappa), s) == alpha


@functools.cache
def array_g_mosaics():
    return grid() + (
        construct_from_resolvable(*ag_design(2, 3), CyclicQuasigroup(3)),
        construct_from_resolvable(*ag_design(2, 4), FieldAdditiveQuasigroup(make_field(2, 2))),
        point_multiple(build_m1(2, 3), 2),
        point_multiple(build_m2(3, 2), 3),
    )


@settings(PROPERTY, max_examples=10)
@given(st.data())
def test_array_g_equals_scalar_g_on_a_seed(data):
    # every mosaic in each example, one drawn seed each
    for M in array_g_mosaics():
        s = data.draw(st.integers(0, M.b - 1), label=f"s of {M!r}")
        alpha, kappa = np.arange(M.a), np.arange(M.k)
        got = M._g(s, alpha[:, None], kappa[None, :])
        want = [[M.g(s, al, kp) for kp in range(M.k)] for al in range(M.a)]
        assert got.shape == (M.a, M.k) and np.array_equal(got, want), (M, s)


@functools.cache
def array_f_mosaics():
    # M4 with the vertical slope q first, in the middle, last or absent; the
    # mosaics held by F alone; a point multiple of one of them
    m4 = [build_m4(k, q) for k, q in M4_GRID]
    m4 += [build_m4(4, 5, slopes=R) for R in ((5, 0, 1, 2), (0, 1, 5, 3), (4, 2, 0, 5))]
    held = [make(M) for M in grid() for make in (lambda M: from_members(M.members()), dual_mosaic)]
    base = build_m1(2, 3)
    pm = point_multiple(from_members(base.members(), member_params=base.member_params), 3)
    return tuple(m4 + held + [pm])


@settings(PROPERTY, max_examples=10)
@given(st.data())
def test_array_f_equals_scalar_f_on_a_block(data):
    for M in array_f_mosaics():
        assert M._form is None, M
        x = np.array(data.draw(st.lists(st.integers(0, M.v - 1), min_size=1, max_size=6),
                               label=f"x of {M!r}"))
        s = np.array(data.draw(st.lists(st.integers(0, M.b - 1), min_size=1, max_size=6),
                               label=f"s of {M!r}"))
        got = M._f(x[:, None], s[None, :])
        want = [[M.f(int(xi), int(si)) for si in s] for xi in x]
        assert np.shape(got) == (len(x), len(s)) and np.array_equal(got, want), (M, x, s)


def test_certify_accepts_every_family_mosaic():
    for M in grid():
        assert certify(M) is None, M


def exchange_two_colors(data, M):
    """The ``from_members`` mosaic of F with two different colors of one
    drawn row exchanged, and the smaller of the two."""
    F = M.color_matrix().copy()
    x = data.draw(st.integers(0, M.v - 1), label="x")
    s0 = data.draw(st.integers(0, M.b - 1), label="s0")
    s1 = data.draw(st.sampled_from(np.flatnonzero(F[x] != F[x, s0]).tolist()), label="s1")
    F[x, [s0, s1]] = F[x, [s1, s0]]
    swapped = from_members([IncidenceStructure(F == alpha) for alpha in range(M.a)],
                           member_params=M.member_params)
    return swapped, min(F[x, s0], F[x, s1])


@PROPERTY
@given(st.data())
def test_certify_rejects_two_colors_exchanged_in_one_row(data):
    swapped, smaller = exchange_two_colors(data, draw_mosaic(data))
    stage, member, res = certify(swapped)
    assert (stage, member) == ("members", smaller)
    assert res.reason == "nonconstant block size"


@settings(PROPERTY, max_examples=10)
@given(st.data())
def test_a_non_design_mosaic_and_a_dual_survive_the_member_file(data):
    M = draw_mosaic(data)
    for held in (exchange_two_colors(data, M)[0], dual_mosaic(M)):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mosaic.json"
            save_mosaic(held, path, members=True)
            loaded = load_mosaic(path)
        assert np.array_equal(loaded.color_matrix(), held.color_matrix())
        assert loaded.k == held.k and certify(loaded) == certify(held)
