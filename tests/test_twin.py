"""The twin oracle: a mosaic and the same mosaic held by its color matrix alone.

``twin(M)`` has M's F, k and member parameters but neither M's form nor its
``f``/``g`` closures, so every analysis of it takes the general path.  Every
exact output must be the same on both.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from designmosaics.designs import verify_bibd
from designmosaics.families import ag_design, build_m1, build_m2, build_m3, build_m4
from designmosaics.hashprops import hashprops_report
from designmosaics.mosaics import (
    Quasigroup,
    _from_colors,
    certify,
    construct_from_resolvable,
    point_multiple,
)
from designmosaics.security import pa_report, prop41_check, prop42_check, wiretap_report
from designmosaics.simkit import random_channel, random_source

from test_acceptance import M1_GRID, M2_GRID, M3_GRID, M4_GRID

# an order-5 loop in which every element is its own inverse; it is not
# associative, so it is not a group isotope (a loop isotopic to a group is one)
SELF_INVERSE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 4, 2, 3], [2, 3, 0, 4, 1],
                     [3, 4, 1, 0, 2], [4, 2, 3, 1, 0]]

RUNGS = (
    [(f"m1{p}", build_m1, p) for p in M1_GRID]
    + [(f"m2{p}", build_m2, p) for p in M2_GRID]
    + [(f"m3{p}", build_m3, p) for p in M3_GRID]
    + [(f"m4{p}", build_m4, p) for p in M4_GRID]
    # the benchmark rungs; m2(3, 2) and m3(3, 2, 2) are on the grid
    + [("m1(3, 4)", build_m1, (3, 4)), ("m4(9, 8)", build_m4, (9, 8))]
    + [("m2(5, 3)", build_m2, (5, 3)),
       ("point_multiple(m1(2, 3), 2)", lambda: point_multiple(build_m1(2, 3), 2), ()),
       ("self-inverse loop", lambda: _loop_mosaic(SELF_INVERSE_LOOP), ())]
)


def _loop_mosaic(table):
    """The mosaic of AG(2, 5) and the quasigroup ``table``: members are AG(2, 5)."""
    D, R = ag_design(2, 5)
    return construct_from_resolvable(D, R, Quasigroup(table), member_params=verify_bibd(D, 1))


def twin(M):
    """M held by its color matrix alone."""
    return _from_colors(M.color_matrix(), M.a, k=M.k, member_params=M.member_params)


def assert_same(x, y, path="output"):
    """Equal outputs: floats to 1e-12, integers, Fractions, booleans and the
    rest exactly, containers entry by entry."""
    assert type(x) is type(y), path
    if isinstance(x, dict):
        assert x.keys() == y.keys(), path
        for key in x:
            assert_same(x[key], y[key], f"{path}[{key!r}]")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), path
        for i, (p, q) in enumerate(zip(x, y)):
            assert_same(p, q, f"{path}[{i}]")
    elif isinstance(x, float):
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12), (path, x, y)
    else:
        assert isinstance(x, (bool, int, Fraction, str, type(None))), (path, type(x))
        assert x == y, (path, x, y)


def _outputs(M):
    rng = np.random.default_rng(15)
    channel = random_channel(M.v, 3, rng)
    source = random_source(M.v, 3, rng)
    point = np.zeros(M.a)
    point[-1] = 1.0
    out = {"certify": certify(M), "hashprops": hashprops_report(M),
           "pa": pa_report(M, source).to_json()}
    for name, p_a in [("uniform", None), ("dirichlet", rng.dirichlet(np.ones(M.a))),
                      ("point", point)]:
        out[f"wiretap {name}"] = wiretap_report(M, channel, p_a).to_json()
    member, params, part = M.member(0), M.member_params, M.point_classes
    out["prop41"] = vars(prop41_check(member, params, channel, part))
    out["prop42"] = vars(prop42_check(member, params, source, part))
    return out


@pytest.mark.parametrize("build, params", [(b, p) for _, b, p in RUNGS],
                         ids=[name for name, _, _ in RUNGS])
def test_a_mosaic_and_its_twin_give_equal_outputs(build, params):
    M = build(*params)
    T = twin(M)
    assert T._form is None and np.array_equal(T.color_matrix(), M.color_matrix())
    assert_same(_outputs(M), _outputs(T))
