import json
import math

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from designmosaics.cli import main
from designmosaics.families import build_m1, build_m4
from designmosaics.mosaics import Mosaic
from designmosaics.serialize import load_mosaic, save_mosaic
from designmosaics.security import Channel, PAJoint, WiretapJoint, exact_wiretap_metrics, tv
from designmosaics.simkit import (
    SimConfig,
    _draw_outputs,
    _empirical_mi,
    _joint_chi_square,
    _miller_madow_entropy,
    channel_from_csv,
    chi_square_gof,
    constant_column_channel,
    identity_channel,
    independent_source,
    pa_roundtrip,
    random_channel,
    random_source,
    symmetric_channel,
    wiretap_roundtrip,
)
from test_acceptance import _grid_mosaics, cond_stack
from test_security import _build_peak


def test_channel_constructors():
    assert np.array_equal(identity_channel(4).W, np.eye(4))
    assert np.array_equal(symmetric_channel(4, 0.0).W, np.eye(4))
    W = symmetric_channel(3, 0.3).W
    assert np.allclose(W.sum(axis=1), 1.0)
    assert np.allclose(np.diag(W), 0.7)
    cc = constant_column_channel(5, [0.2, 0.8])
    assert np.allclose(cc.W, np.tile([0.2, 0.8], (5, 1)))
    # zero leakage: exact mutual information vanishes
    M = build_m1(2, 2)
    res = exact_wiretap_metrics(WiretapJoint(M, constant_column_channel(M.v, [0.2, 0.8])))
    assert abs(res["mutual_information"]) < 1e-12


def test_channel_from_csv_rejects_nonstochastic(tmp_path):
    path = tmp_path / "w.csv"
    np.savetxt(path, np.array([[0.5, 0.4], [0.5, 0.5]]), delimiter=",")
    with pytest.raises(ValueError):
        channel_from_csv(path)


def test_make_channel_dispatch():
    assert identity_channel(3).W.shape == (3, 3)
    assert symmetric_channel(3, 0.2).W.shape == (3, 3)
    assert constant_column_channel(3).W.shape == (3, 2)
    assert random_channel(3, 5, np.random.default_rng(0)).W.shape == (3, 5)


def test_chi_square_gof_calibration():
    rng = np.random.default_rng(0)
    probs = np.array([0.5, 0.3, 0.2])
    draws = rng.choice(3, size=20000, p=probs)
    counts = np.bincount(draws, minlength=3)
    _, _, p_good = chi_square_gof(counts, probs)
    assert p_good > 1e-3
    _, _, p_bad = chi_square_gof(counts, np.array([1 / 3] * 3))
    assert p_bad < 1e-6
    # observation in a zero-probability cell is fatal
    stat, df, p_zero = chi_square_gof(np.array([10, 10]), np.array([1.0, 0.0]))
    assert p_zero == 0.0


def test_wiretap_roundtrip_decodes_and_calibrates():
    M = build_m1(2, 3)
    cfg = SimConfig(mosaic=M, trials=20000, seed=123, channel=identity_channel(M.v))
    res = wiretap_roundtrip(cfg)
    assert res.decode_errors == 0
    assert res.pvalues["joint_zsa"] >= 1e-3
    assert res.passed
    # Miller-Madow corrected MI estimate within 3 sigma of the exact value
    diff = abs(res.empirical["mi_batch_mean"] - res.exact["mutual_information"])
    assert diff <= 3 * res.empirical["mi_batch_se"] + 1e-3


def test_wiretap_roundtrip_point_mass_message():
    M = build_m1(2, 2)
    p_a = np.array([0.0, 1.0])
    cfg = SimConfig(mosaic=M, trials=8000, seed=7, channel=identity_channel(M.v), p_a=p_a)
    res = wiretap_roundtrip(cfg)
    assert res.decode_errors == 0
    # empirical conditional matches the member law
    counts = np.bincount(res.cells, minlength=M.v * M.b * M.a).reshape(M.v, M.b, M.a)
    assert counts[:, :, 0].sum() == 0
    J = WiretapJoint(M, identity_channel(M.v), p_a)
    _, _, p = chi_square_gof(counts[:, :, 1].ravel(), J.cond(1).ravel())
    assert p >= 1e-3


def test_pa_roundtrip_agreement_and_uniformity():
    M = build_m4(2, 3)
    src = random_source(M.v, 4, np.random.default_rng(5))
    cfg = SimConfig(mosaic=M, trials=20000, seed=11, source=src)
    res = pa_roundtrip(cfg)
    assert res.agreement == 1.0
    assert res.pvalues["key_uniformity"] >= 1e-3
    assert res.pvalues["joint_zsa"] >= 1e-3
    assert res.passed


def test_pa_roundtrip_independent_source_low_tv():
    M = build_m4(2, 3)
    cfg = SimConfig(mosaic=M, trials=20000, seed=2, source=independent_source(M.v, 3))
    res = pa_roundtrip(cfg)
    assert res.exact["max_tv"] < 1e-12
    assert res.empirical["max_tv"] < 0.2      # sampling noise only


def empirical_max_tv_dense_oracle(M, p_z, cells):
    """The worst-key TV of the PA trials against P_Z x U_S from one dense
    (nz, b) histogram per key."""
    nz = len(p_z)
    zs_b, keys = np.divmod(cells, M.a)
    ref = np.broadcast_to(p_z[:, None] / M.b, (nz, M.b)).ravel()
    out = 0.0
    for al in range(M.a):
        sel = keys == al
        if sel.sum() == 0:
            continue
        hist = np.bincount(zs_b[sel], minlength=nz * M.b).astype(float)
        out = max(out, tv(hist / sel.sum(), ref))
    return out


def test_pa_empirical_tv_from_observed_cells_matches_dense_oracle():
    """On the acceptance grid, at few and many trials (some keys unseen, some
    cells seen often), the observed-cell TV agrees with the dense histograms."""
    rng = np.random.default_rng(83)
    for M in _grid_mosaics():
        src = random_source(M.v, int(rng.integers(2, 8)), rng)
        for trials in (3, 4000):
            res = pa_roundtrip(SimConfig(mosaic=M, trials=trials, source=src,
                                         seed=int(rng.integers(2 ** 31))))
            want = empirical_max_tv_dense_oracle(M, src.P_Z, res.cells)
            assert abs(res.empirical["max_tv"] - want) <= 1e-12, M


def test_reproducibility_bit_identical():
    M = build_m1(2, 3)
    cfg = SimConfig(mosaic=M, trials=5000, seed=99, channel=symmetric_channel(M.v, 0.2))
    r1 = wiretap_roundtrip(cfg)
    r2 = wiretap_roundtrip(cfg)
    assert np.array_equal(r1.cells, r2.cells)
    assert r1.to_json() == r2.to_json()


def test_standard_error_halves_when_trials_quadruple():
    M = build_m1(2, 3)
    ch = symmetric_channel(M.v, 0.3)
    se = []
    for trials in (8000, 32000):
        cfg = SimConfig(mosaic=M, trials=trials, seed=31, channel=ch)
        se.append(wiretap_roundtrip(cfg).empirical["mi_batch_se"])
    ratio = se[1] / se[0]
    assert 0.25 <= ratio <= 0.9


def test_trial_count_validation():
    M = build_m1(2, 2)
    with pytest.raises(ValueError):
        wiretap_roundtrip(SimConfig(mosaic=M, trials=0, seed=1, channel=identity_channel(4)))
    with pytest.raises(ValueError):
        pa_roundtrip(SimConfig(mosaic=M, trials=0, seed=1, source=independent_source(4, 2)))
    with pytest.raises(ValueError):
        wiretap_roundtrip(SimConfig(mosaic=M, trials=10, seed=1))


@pytest.mark.parametrize("roundtrip, field", [
    (wiretap_roundtrip, "source"),
    (pa_roundtrip, "channel"),
    (pa_roundtrip, "p_a"),
])
def test_a_field_the_roundtrip_does_not_read_is_rejected(roundtrip, field):
    M = build_m1(2, 2)
    given = {"channel": identity_channel(M.v), "source": independent_source(M.v, 2),
             "p_a": np.full(M.a, 1 / M.a)}
    reads = ("channel", "p_a") if roundtrip is wiretap_roundtrip else ("source",)
    cfg = SimConfig(mosaic=M, trials=10, seed=1, **{k: given[k] for k in (*reads, field)})
    with pytest.raises(ValueError, match=f"does not read SimConfig.{field}$"):
        roundtrip(cfg)


def test_wiretap_roundtrip_makes_min_ten_trials_batches():
    # five trials make five one-trial batches of the mutual-information estimate
    M = build_m1(2, 2)
    res = wiretap_roundtrip(SimConfig(mosaic=M, trials=5, seed=1, channel=identity_channel(4)))
    batch_mi = [_empirical_mi(res.cells[i:i + 1], M.a) for i in range(5)]
    assert res.empirical["mi_batch_mean"] == float(np.mean(batch_mi))
    assert res.empirical["mi_batch_se"] == float(np.std(batch_mi, ddof=1) / math.sqrt(5))


# -- oracles: the comparison draw, the list-based chi-square and the dense-table
#    batch mutual information that the copy-free statistics replaced ----------------

def draw_outputs_oracle(W, xs, rng):
    cum = np.cumsum(W, axis=1)
    us = rng.random(len(xs))
    return (us[:, None] > cum[xs]).sum(axis=1)


def chi_square_gof_oracle(counts, probs):
    counts = np.asarray(counts, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    n = counts.sum()
    if counts[probs <= 0].sum() > 0:
        return math.inf, 0, 0.0
    keep = probs > 0
    counts, probs = counts[keep], probs[keep]
    expected = probs * n
    big = expected >= 5.0
    obs = counts[big].tolist()
    exp = expected[big].tolist()
    if (~big).any():
        obs.append(counts[~big].sum())
        exp.append(expected[~big].sum())
    obs = np.asarray(obs)
    exp = np.asarray(exp)
    pos = exp > 0
    stat = float((np.square(obs[pos] - exp[pos]) / exp[pos]).sum())
    df = max(int(pos.sum()) - 1, 1)
    return stat, df, float(chi2_dist.sf(stat, df))


def empirical_mi_table_oracle(rows, alphas, n_rows, a):
    table = np.zeros((n_rows, a))
    np.add.at(table, (rows, alphas), 1.0)
    return (_miller_madow_entropy(table.sum(axis=0)) + _miller_madow_entropy(table.sum(axis=1))
            - _miller_madow_entropy(table))


def _random_channel_with_zero_columns(rng, v, nz):
    W = rng.dirichlet(np.ones(nz), size=v)
    W[:, rng.random(nz) < 0.3] = 0.0          # whole zero columns, the last one too
    W[rng.random((v, nz)) < 0.2] = 0.0        # and scattered zeros
    W[:, -1] = 0.0
    W[W.sum(axis=1) == 0, 0] = 1.0
    return Channel(W / W.sum(axis=1, keepdims=True)).W


def test_draw_outputs_matches_comparison_oracle():
    rng = np.random.default_rng(77)
    for nz in (1, 2, 3, 7, 8, 9, 64, 72):
        W = _random_channel_with_zero_columns(rng, 11, nz)
        xs = rng.integers(0, 11, size=3000)
        seed = int(rng.integers(2 ** 31))
        got = _draw_outputs(W, xs, np.random.default_rng(seed))
        assert np.array_equal(got, draw_outputs_oracle(W, xs, np.random.default_rng(seed))), nz
        assert (W[xs, got] > 0).all(), nz


class _FixedRng:
    """A generator stub whose uniforms are all u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def test_draw_outputs_clamps_beyond_the_row_total():
    # rows summing to 1 - 5e-13 pass the channel check; a uniform above the row
    # total must still land on a letter the row can emit
    W = Channel(np.array([[0.5, 0.5 - 5e-13]] * 3)).W
    assert _draw_outputs(W, np.arange(3), _FixedRng(1 - 1e-13)).tolist() == [1, 1, 1]
    W = Channel(np.array([[0.5, 0.5 - 5e-13, 0.0],
                          [0.25, 0.0, 0.75 - 5e-13],
                          [1.0 - 5e-13, 0.0, 0.0]])).W
    xs = np.array([0, 1, 2, 0])
    assert _draw_outputs(W, xs, _FixedRng(1 - 1e-13)).tolist() == [1, 2, 0, 1]
    for u in (0.0, 0.25, 0.5, 0.6, 1 - 6e-13):      # in range: unchanged
        assert np.array_equal(_draw_outputs(W, xs, _FixedRng(u)),
                              draw_outputs_oracle(W, xs, _FixedRng(u))), u


def test_chi_square_gof_matches_list_oracle():
    rng = np.random.default_rng(78)
    cases = [(np.array([10, 10]), np.array([1.0, 0.0])),
             (np.array([0, 10]), np.array([0.0, 1.0])),
             (np.array([3, 4, 5]), np.array([0.2, 0.3, 0.5])),      # every cell pooled
             (np.array([5.0, 2.5, 7.5]), np.array([0.25, 0.25, 0.5]))]
    for _ in range(200):
        size = int(rng.integers(1, 400))
        probs = rng.dirichlet(np.full(size, float(rng.choice([0.05, 0.5, 5.0]))))
        probs[rng.random(size) < 0.1] = 0.0
        if probs.sum() == 0:
            probs[0] = 1.0
        probs /= probs.sum()
        counts = rng.multinomial(int(rng.integers(0, 5000)), probs)
        if rng.random() < 0.1:                 # an observation the law rules out
            counts[int(rng.integers(size))] += 1
        cases.append((counts, probs))
    for counts, probs in cases:
        got, want = chi_square_gof(counts, probs), chi_square_gof_oracle(counts, probs)
        assert got == want, (got, want)


def test_batch_mi_matches_dense_table_oracle():
    rng = np.random.default_rng(79)
    for _ in range(100):
        n_rows, a = int(rng.integers(1, 300)), int(rng.integers(1, 9))
        n = int(rng.integers(1, 3000))
        rows = rng.integers(0, n_rows, size=n) // int(rng.integers(1, 4))
        alphas = rng.integers(0, a, size=n)
        got = _empirical_mi(rows * a + alphas, a)
        assert got == empirical_mi_table_oracle(rows, alphas, n_rows, a)


# -- oracle: the dense joint chi-square that the per-color pass replaced ----------

def joint_chi_square_dense_oracle(cond, scale, cells):
    """A (z, s, alpha) copy of the P_{ZS|A} stack scaled in place by ``scale``,
    the full bincount histogram of the cell codes, and chi_square_gof."""
    probs = np.moveaxis(cond, 0, -1).copy()
    scale(probs)
    counts = np.bincount(cells, minlength=probs.size)
    return chi_square_gof(counts, probs)


def _assert_matches_dense(got, want):
    if want[0] == math.inf:
        assert got == want == (math.inf, 0, 0.0), (got, want)
        return
    assert got[1] == want[1], (got, want)
    assert abs(got[0] - want[0]) <= 1e-9, (got, want)
    assert abs(got[2] - want[2]) <= 1e-12, (got, want)


def _wiretap_forms(cond, p_a, cells):
    """(per-color pass, dense oracle) with the law scaled by P_A, as the
    wiretap roundtrip scales it."""
    def scale(probs):
        probs *= p_a

    return (_joint_chi_square(lambda al: cond[al] * p_a[al], len(cond), cells),
            joint_chi_square_dense_oracle(cond, scale, cells))


def _pa_forms(cond, cells):
    """(per-color pass, dense oracle) with the law divided by a, as the PA
    roundtrip divides it."""
    a = len(cond)

    def scale(probs):
        probs /= a

    return (_joint_chi_square(lambda al: cond[al] / a, a, cells),
            joint_chi_square_dense_oracle(cond, scale, cells))


def _verdict(res):
    return res.pvalues["statistic"], res.pvalues["df"], res.pvalues["joint_zsa"]


def test_roundtrip_joint_chi_square_matches_dense_oracle():
    """On the acceptance grid the roundtrips' joint verdicts equal the dense
    path's on their own cells, under uniform, Dirichlet and point-mass P_A and
    channels with zero columns."""
    rng = np.random.default_rng(80)
    for M in _grid_mosaics():
        nz = int(rng.integers(2, 9))
        W = Channel(_random_channel_with_zero_columns(rng, M.v, nz))
        point = np.zeros(M.a)
        point[int(rng.integers(M.a))] = 1.0
        for p_a in (np.full(M.a, 1.0 / M.a), rng.dirichlet(np.ones(M.a)), point):
            for trials in (200, 5000):
                res = wiretap_roundtrip(SimConfig(mosaic=M, trials=trials, channel=W, p_a=p_a,
                                                  seed=int(rng.integers(2 ** 31))))
                cond = cond_stack(WiretapJoint(M, W, p_a))
                got, want = _wiretap_forms(cond, p_a, res.cells)
                _assert_matches_dense(got, want)
                assert got == _verdict(res), M
        src = random_source(M.v, nz, rng)
        res = pa_roundtrip(SimConfig(mosaic=M, trials=3000, source=src,
                                     seed=int(rng.integers(2 ** 31))))
        cond = cond_stack(PAJoint(M, src))
        got, want = _pa_forms(cond, res.cells)
        _assert_matches_dense(got, want)
        assert got == _verdict(res), M


def test_joint_chi_square_matches_dense_oracle_on_random_laws():
    """Random P_{ZS|A} stacks with zero rows and columns, cells drawn from the
    law (sometimes with one the law rules out), every cell pooled, none pooled
    and a mix."""
    rng = np.random.default_rng(81)
    seen = set()
    for case in range(300):
        a, nz, b = (int(x) for x in rng.integers(1, [7, 9, 12]))
        cond = rng.dirichlet(np.full(nz * b, float(rng.choice([0.05, 0.5, 5.0]))), size=a)
        cond = cond.reshape(a, nz, b)
        cond[:, rng.random(nz) < 0.3, :] = 0.0            # outputs no color produces
        cond[:, :, rng.random(b) < 0.2] = 0.0             # seeds no color reaches
        cond[rng.random(cond.shape) < 0.2] = 0.0
        for al in range(a):
            if cond[al].sum() == 0:
                cond[al, 0, 0] = 1.0
            cond[al] /= cond[al].sum()
        if case % 3 == 0:
            p_a = np.full(a, 1.0 / a)
        elif case % 3 == 1:
            p_a = rng.dirichlet(np.ones(a))
        else:
            p_a = np.zeros(a)
            p_a[int(rng.integers(a))] = 1.0
        law = (np.moveaxis(cond, 0, -1) * p_a).ravel()
        n = int(rng.choice([1, 20, 500, 20000, 200000]))
        cells = rng.choice(law.size, size=n, p=law / law.sum())
        if rng.random() < 0.1:
            cells[int(rng.integers(n))] = int(rng.integers(law.size))
        big = law[law > 0] * n >= 5.0
        seen.add("none pooled" if big.all() else "all pooled" if not big.any() else "mixed")
        _assert_matches_dense(*_wiretap_forms(cond, p_a, cells))
        _assert_matches_dense(*_pa_forms(cond, cells))
    assert seen == {"none pooled", "all pooled", "mixed"}


def test_joint_chi_square_pooling_extremes():
    rng = np.random.default_rng(82)
    # two positive cells: 20000 trials keep both, 4 trials pool both into one bin
    cond = np.array([[[0.25, 0.0], [0.0, 0.75]]])
    for n in (20000, 4):
        cells = rng.choice(4, size=n, p=cond.ravel())
        got, want = _wiretap_forms(cond, np.ones(1), cells)
        _assert_matches_dense(got, want)
        assert got[1] == 1
    # three kept cells and a pooled pair: four bins
    cond = np.array([[[0.3, 0.3, 0.3, 0.05, 0.05]]])
    cells = rng.choice(5, size=60, p=cond.ravel())
    got, want = _wiretap_forms(cond, np.ones(1), cells)
    _assert_matches_dense(got, want)
    assert got[1] == 3
    # an observation in a cell of probability zero
    cond = np.array([[[0.5, 0.5, 0.0]]])
    got, want = _wiretap_forms(cond, np.ones(1), np.array([0, 2]))
    assert got == want == (math.inf, 0, 0.0)


def test_roundtrips_hold_no_dense_cell_array():
    """On m4(9,8) with 72 output letters and 2000 trials, either roundtrip
    peaks at most 2.5 times the (a, nz, b) law: no (z, s, alpha) copy of the
    law and no dense histogram beside it."""
    M = build_m4(9, 8)
    rng = np.random.default_rng(6)
    src = random_source(M.v, M.v, rng)
    W = random_channel(M.v, M.v, rng)
    M.color_matrix()                   # cached mosaic state, not the roundtrip's
    law = M.a * M.v * M.b * 8
    assert _build_peak(lambda: wiretap_roundtrip(
        SimConfig(mosaic=M, trials=2000, seed=3, channel=W))) <= 2.5 * law
    assert _build_peak(lambda: pa_roundtrip(
        SimConfig(mosaic=M, trials=2000, seed=3, source=src))) <= 2.5 * law


# -- the encoder: one array call of g per distinct seed ------------------------

def encode_oracle(M, seeds, alphas, kappas):
    """One scalar g call per trial."""
    return np.array([M.g(int(s), int(al), int(kp)) for s, al, kp in zip(seeds, alphas, kappas)])


def _member_file_mosaic(tmp_path, M):
    path = tmp_path / "mosaic.json"
    save_mosaic(M, path, members=True)
    return load_mosaic(path), path


def test_wiretap_encoder_matches_the_per_trial_oracle(tmp_path):
    # through the identity channel z = x, so the cells carry the encoded points
    loaded, _ = _member_file_mosaic(tmp_path, build_m4(3, 4, slopes=(0, 4, 2)))
    for M in _grid_mosaics() + [loaded]:
        n, seed = 300, 5
        res = wiretap_roundtrip(SimConfig(mosaic=M, trials=n, seed=seed,
                                          channel=identity_channel(M.v)))
        rng = np.random.default_rng(seed)
        alphas = rng.choice(M.a, size=n, p=np.full(M.a, 1.0 / M.a))
        seeds = rng.integers(0, M.b, size=n)
        kappas = rng.integers(0, M.k, size=n)
        assert np.array_equal(res.cells // (M.b * M.a), encode_oracle(M, seeds, alphas, kappas)), M
        assert res.decode_errors == 0, M


def test_wiretap_encoder_calls_g_once_per_distinct_seed(monkeypatch):
    def scalar_g(*args):
        raise AssertionError("Mosaic.g called")
    monkeypatch.setattr(Mosaic, "g", scalar_g)
    for M, n in ((build_m1(2, 3), 40), (build_m1(2, 3), 3), (build_m4(4, 3), 500)):
        calls = []
        g = M._g
        M._g = lambda s, alpha, kappa, g=g: calls.append(s) or g(s, alpha, kappa)
        wiretap_roundtrip(SimConfig(mosaic=M, trials=n, seed=2, channel=identity_channel(M.v)))
        assert len(calls) == len(set(calls)) <= min(n, M.b), (M, n)


def test_simulate_passes_on_a_member_file(tmp_path, capsys):
    _, path = _member_file_mosaic(tmp_path, build_m1(2, 3))
    code = main(["simulate", "--mosaic", str(path), "--channel", "symmetric:0.2",
                 "--trials", "2000", "--seed", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"] and payload["decode_errors"] == 0
