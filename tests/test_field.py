import numpy as np
import pytest

from designmosaics.field import make_field, is_prime, prime_power


# -- loop definitions of the characteristic-2 primitives, kept as oracles -------

def trace_oracle(gf, x):
    """x + x^2 + ... + x^(2^(n-1)) by repeated squaring."""
    acc, y = x, x
    for _ in range(gf.n - 1):
        y = gf.mul(y, y)
        acc ^= y
    assert acc < 2
    return acc


def sqrt_oracle(gf, x):
    """x^(2^(n-1)) by n - 1 squarings."""
    for _ in range(gf.n - 1):
        x = gf.mul(x, x)
    return x


def dual_coords_oracle(gf, x):
    """bit i = Tr(x theta^i)."""
    return sum(trace_oracle(gf, gf.mul(x, 1 << i)) << i for i in range(gf.n))


def artin_schreier_oracle(gf, a):
    """Gaussian elimination of the n x n GF(2) system w^2 + w = a."""
    n = gf.n
    cols = [gf.mul(1 << j, 1 << j) ^ (1 << j) for j in range(n)]
    rows = []
    for i in range(n):
        r = sum(((cols[j] >> i) & 1) << j for j in range(n))
        rows.append(r | (((a >> i) & 1) << n))
    piv_cols, rank = [], 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(n):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        piv_cols.append(col)
        rank += 1
    if any(rows[i] >> n for i in range(rank, n)):
        return ()
    w = sum(((rows[idx] >> n) & 1) << col for idx, col in enumerate(piv_cols))
    return (min(w, w ^ 1), max(w, w ^ 1))


def _assert_primitives_match_oracles(gf, xs):
    for x in xs:
        assert gf.trace(x) == trace_oracle(gf, x), x
        assert gf.sqrt(x) == sqrt_oracle(gf, x), x
        assert gf.dual_coords(x) == dual_coords_oracle(gf, x), x
        assert gf.artin_schreier_roots(x) == artin_schreier_oracle(gf, x), x


@pytest.mark.parametrize("n", range(1, 11))
def test_char2_primitives_match_loop_oracles(n):
    gf = make_field(2, n)
    _assert_primitives_match_oracles(gf, gf.elements())


def test_char2_primitives_above_log_table_threshold():
    # GF(2^17) has no scalar log tables; sqrt falls back to x^(2^(n-1))
    gf = make_field(2, 17)
    rng = np.random.default_rng(2017)
    _assert_primitives_match_oracles(gf, rng.integers(0, gf.order, 200).tolist())
    assert gf._exp is None


@pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
def test_field_arrays_match_scalar_methods(n):
    gf = make_field(2, n)
    F = gf.arrays()
    xs = np.arange(gf.order)
    ys = np.random.default_rng(n).permutation(gf.order)
    nz = ys[ys != 0]
    scalar = lambda fn, *args: [fn(*map(int, row)) for row in zip(*args)]
    assert F.mul(xs, ys).tolist() == scalar(gf.mul, xs, ys)
    assert F.inv(nz).tolist() == scalar(gf.inv, nz)
    assert F.div(xs[:nz.size], nz).tolist() == scalar(gf.div, xs[:nz.size], nz)
    assert F.sqrt(xs).tolist() == scalar(gf.sqrt, xs)
    assert F.trace(xs).tolist() == scalar(gf.trace, xs)
    assert F.dual_coords(xs).tolist() == scalar(gf.dual_coords, xs)
    assert F.from_dual_coords(xs).tolist() == scalar(gf.from_dual_coords, xs)
    even = xs[F.trace(xs) == 0]
    assert F.artin_schreier_root(even).tolist() == [gf.artin_schreier_roots(int(a))[0] for a in even]
    with pytest.raises(ValueError):
        F.artin_schreier_root(xs)
    with pytest.raises(ZeroDivisionError):
        F.inv(xs)


def test_make_field_prime_field_modulus_is_x():
    gf = make_field(2, 1)
    assert gf.modulus == (0, 1)
    gf3 = make_field(3, 1)
    assert gf3.modulus == (0, 1)
    assert gf3.order == 3


def test_make_field_gf4_modulus():
    # the only irreducible monic quadratic over GF(2)
    gf = make_field(2, 2)
    assert gf.modulus == (1, 1, 1)


def test_make_field_standard_moduli():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)      # x^3 + x + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)   # x^4 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)         # x^2 + 1


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 25)  # exceeds the 2^20 bound


def test_gf4_arithmetic_examples():
    gf = make_field(2, 2)
    theta, theta1 = 2, 3
    assert gf.mul(theta, theta) == theta1
    assert gf.add(theta, 0) == theta
    assert gf.inv(theta) == theta1
    assert gf.mul(theta, theta1) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.div(1, 0)


def test_coeff_round_trip():
    gf = make_field(5, 3)
    for x in [0, 1, 7, 124]:
        assert gf.from_coeffs([x // 5 ** i % 5 for i in range(3)]) == x
    with pytest.raises(ValueError, match="coefficient out of range"):
        gf.from_coeffs([5])


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_field_axioms_random(p, n):
    gf = make_field(p, n)
    rng = np.random.default_rng(17)
    for _ in range(300):
        a, b, c = (int(t) for t in rng.integers(0, gf.order, size=3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
            assert gf.pow(a, gf.order - 1) == 1


def test_large_field_inverse_without_log_tables():
    # above the log-table threshold the scalar inverse is a^(q-2); the
    # inverse read off FieldArrays' tables, built afterwards, is the reference
    gf = make_field(2, 17)
    rng = np.random.default_rng(3)
    xs = [int(a) for a in rng.integers(1, gf.order, 50)]
    got = [gf.inv(a) for a in xs]
    assert gf._exp is None
    assert got == gf.arrays().inv(np.array(xs)).tolist()
    gfp = make_field(3, 11)  # 177147 > 2^16
    for _ in range(30):
        a = int(rng.integers(1, gfp.order))
        assert gfp.mul(a, gfp.inv(a)) == 1
    assert gfp._exp is None


def test_frobenius_additivity_char2():
    for t in range(1, 7):
        gf = make_field(2, t)
        for a in gf.elements():
            for b in gf.elements():
                assert gf.mul(gf.add(a, b), gf.add(a, b)) == gf.add(gf.mul(a, a), gf.mul(b, b))


def test_trace_values():
    gf2 = make_field(2, 1)
    assert [gf2.trace(x) for x in gf2.elements()] == [0, 1]  # identity on GF(2)
    gf4 = make_field(2, 2)
    assert gf4.trace(0) == 0
    assert gf4.trace(2) == 1   # theta + theta^2 = 1
    assert gf4.trace(1) == 0   # 1 + 1 = 0


def test_trace_linearity_and_square_identity():
    for t in (2, 3, 4, 5):
        gf = make_field(2, t)
        for x in gf.elements():
            # Tr(x) + Tr(x^2) = 0
            assert (gf.trace(x) + gf.trace(gf.mul(x, x))) % 2 == 0
        for _ in range(100):
            rng = np.random.default_rng(t)
            a, b = (int(u) for u in rng.integers(0, gf.order, 2))
            assert gf.trace(gf.add(a, b)) == (gf.trace(a) + gf.trace(b)) % 2


def test_dual_basis_conditions():
    gf2 = make_field(2, 1)
    assert gf2.dual_basis() == (1,)
    for t in (2, 3, 4, 6):
        gf = make_field(2, t)
        dual = gf.dual_basis()
        for i in range(t):
            for j in range(t):
                want = 1 if i == j else 0
                assert gf.trace(gf.mul(dual[i], 1 << j)) == want
            # zeta_i has the dual coordinates of the unit vector e_i
            assert gf.from_dual_coords(1 << i) == dual[i]
            assert gf.dual_coords(dual[i]) == 1 << i


def test_dual_coordinate_round_trip():
    gf = make_field(2, 5)
    for x in gf.elements():
        assert gf.from_dual_coords(gf.dual_coords(x)) == x


def test_sqrt_char2():
    gf = make_field(2, 2)
    assert gf.sqrt(0) == 0
    assert gf.sqrt(1) == 1
    assert gf.sqrt(3) == 2      # theta^2 = theta + 1
    for t in (1, 3, 5):
        gft = make_field(2, t)
        for x in gft.elements():
            s = gft.sqrt(x)
            assert gft.mul(s, s) == x
    with pytest.raises(ValueError):
        make_field(3, 2).sqrt(1)


def test_artin_schreier_examples():
    gf = make_field(2, 2)
    assert gf.artin_schreier_roots(0) == (0, 1)
    assert gf.artin_schreier_roots(2) == ()    # Tr(theta) = 1
    assert gf.artin_schreier_roots(3) == ()    # Tr(theta + 1) = 1
    assert gf.artin_schreier_roots(1) == (2, 3)


@pytest.mark.parametrize("t", range(1, 6))
def test_artin_schreier_matches_exhaustive(t):
    gf = make_field(2, t)
    brute = {}
    for w in gf.elements():
        brute.setdefault(gf.add(gf.mul(w, w), w), []).append(w)
    for a in gf.elements():
        roots = gf.artin_schreier_roots(a)
        assert list(roots) == sorted(brute.get(a, []))
        assert (len(roots) == 2) == (gf.trace(a) == 0)
        for w in roots:
            assert gf.add(gf.mul(w, w), w) == a


def test_is_prime_and_prime_power():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(5) == (5, 1)
    with pytest.raises(ValueError):
        prime_power(6)
    with pytest.raises(ValueError):
        prime_power(12)
