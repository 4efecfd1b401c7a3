"""The four explicit mosaic families over finite fields.

* ``build_m1``: mosaics of the affine-geometry BIBDs AG_{t-1}(t, q), color
  rate 1/t, functional form f(x; h, beta) = h.x + beta.
* ``build_m2``: mosaics of Denniston-arc BIBDs in AG(2, 2^t) with block size
  2^l and lambda = 1; the functional form runs through the rank/unrank maps
  of the arc geometry, its inverse reads per-class block tables.
* ``build_m3``: u-fold point multiples of M2 mosaics, singular GDDs.
* ``build_m4``: mosaics of (q, k, 1) transversal designs obtained from duals
  of affine planes with deleted parallel classes; f is one affine rule per
  slope class.

The base design of each family is the resolvable design of its class table
G, block i a + gamma = {x : G[x, i] = gamma}: ``ag_design`` reads M1's
hyperplane table, ``denniston_design`` the Denniston class tables that g
reads; ``td_design`` is member 0 of the M4 mosaic.

Slopes of AG(2, q) are encoded as ints in [0, q] with q standing for the
vertical (infinite) slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import (
    BIBDParams,
    GDDParams,
    IncidenceStructure,
    Resolution,
)
from .field import make_field, prime_power
from .mosaics import Mosaic, point_multiple


# ---------------------------------------------------------------------------
# M1: affine geometry designs AG_{t-1}(t, q)
# ---------------------------------------------------------------------------

def _m1_slopes(t: int, q: int):
    """Nonzero vectors in F_q^t with first nonzero coordinate 1, one per
    parallel class of hyperplanes; ordered by pivot position, then by the
    suffix read as little-endian base-q digits."""
    return [tuple([0] * p + [1] + [m // q ** j % q for j in range(t - p - 1)])
            for p in range(t) for m in range(q ** (t - p - 1))]


def _field_tables(gf):
    """The (q, q) addition and multiplication tables and the negation table of
    gf, from its scalar ops; they serve odd q too, where ``FieldArrays`` does not."""
    q = gf.order
    add = np.array([[gf.add(x, y) for y in range(q)] for x in range(q)])
    mul = np.array([[gf.mul(x, y) for y in range(q)] for x in range(q)])
    return add, mul, np.array([gf.neg(x) for x in range(q)])


def _on_first_call(build):
    """A function that calls ``build()`` on its own first call and returns
    that result on every call.  (``functools.cache`` does the same, but its
    first call inside perfbench's analyze pass raised that workload's
    ``work_rss_mb`` by 14%.)"""
    memo = []

    def get():
        if not memo:
            memo.append(build())
        return memo[0]
    return get


def _resolvable_design(G: np.ndarray, a: int):
    """The resolvable design of a (v, r) class table G with a blocks per
    class: block i a + gamma is {x : G[x, i] = gamma}, class i is blocks
    i a, ..., i a + a - 1."""
    v, r = G.shape
    N = np.zeros((v, r * a), dtype=np.uint8)
    np.put_along_axis(N, G + a * np.arange(r), 1, axis=1)
    classes = tuple(tuple(range(i * a, (i + 1) * a)) for i in range(r))
    return IncidenceStructure(N), Resolution(classes)


def build_m1(t: int, q: int) -> Mosaic:
    """Mosaic of hyperplane designs of AG(t, q): f(x; h, beta) = h.x + beta."""
    if t < 2:
        raise ValueError("M1 requires t >= 2")
    gf = make_field(*prime_power(q))
    r = (q ** t - 1) // (q - 1)     # one parallel class per slope
    # two points lie on (q^(t-1) - 1)/(q - 1) common hyperplanes, the value
    # forced by r(k-1) = lambda(v-1); q^(t-2) is the affine intersection
    # number mu of this design, not its lambda (they agree only at t = 2)
    params = BIBDParams(v=q ** t, k=q ** (t - 1), lam=(q ** (t - 1) - 1) // (q - 1),
                        r=r, b=q * r)
    powers = q ** np.arange(t)

    # built on the first call of f, g or the form: the rates and the header
    # read the parameters only
    @_on_first_call
    def tables():
        slopes = _m1_slopes(t, q)
        return (*_field_tables(gf), np.array(slopes), [h.index(1) for h in slopes])

    def field_dot(h, coords):
        # h . coords over GF(q), broadcast over the leading axes of both
        add, mul = tables()[:2]
        acc = 0
        for j in range(t):
            acc = add[acc, mul[h[..., j], coords[..., j]]]
        return acc

    def f(x, s):
        add, _, _, H, _ = tables()
        i, beta = divmod(s, q)
        return int(add[field_dot(H[i], x // powers % q), beta])

    def g(s, alpha, kappa):
        # the coordinates off the pivot are the base-q digits of kappa; the
        # pivot coordinate (h_pivot = 1) solves h . x = alpha - beta
        add, _, neg, H, pivots = tables()
        i, beta = divmod(s, q)
        alpha, kappa = np.broadcast_arrays(alpha, kappa)
        coords = np.zeros(kappa.shape + (t,), dtype=np.int64)
        coords[..., [j for j in range(t) if j != pivots[i]]] = kappa[..., None] // powers[:-1] % q
        coords[..., pivots[i]] = add[add[alpha, neg[beta]], neg[field_dot(H[i], coords)]]
        return (coords * powers).sum(-1)

    def form():
        # the hyperplane table G[x, i] = h_i . x and L[beta, gamma] = gamma + beta
        add, _, _, H, _ = tables()
        return field_dot(H[None], (np.arange(q ** t)[:, None] // powers % q)[:, None]), add

    return Mosaic(params.v, params.b, q, f, g, k=params.k, member_params=params,
                  meta={"family": "m1", "t": t, "q": q}, form=form)


def ag_design(t: int, q: int):
    """The resolvable BIBD AG_{t-1}(t, q) itself, with its hyperplane-pencil
    resolution; block (i, alpha) is the hyperplane h_i . x = alpha."""
    G, _ = build_m1(t, q)._form()
    return _resolvable_design(G, q)


# ---------------------------------------------------------------------------
# M2: Denniston arcs in AG(2, 2^t)
# ---------------------------------------------------------------------------

class DennistonGeometry:
    """Coordinates and rank/unrank maps for the Denniston arc.

    The arc is X = {(x, y) : Q(x, y) in H} for the irreducible quadratic form
    Q(x, y) = eta1 x^2 + eta2 xy + eta3 y^2 and the subgroup
    H = span{1, theta, ..., theta^(l-1)} of F_q, q = 2^t.  With the packed
    field encoding, H is exactly the set of integers below 2^l.

    Slopes c run over [0, q] with c = q the vertical slope.  The blocks of the
    induced design are the nontrivial line intersections (c, d) with d in U_c.
    """

    def __init__(self, t: int, l: int):
        if t < 2:
            raise ValueError("Denniston geometry requires t >= 2")
        if not 1 <= l <= t:
            raise ValueError("l must satisfy 1 <= l <= t")
        self.t = t
        self.l = l
        self.q = 1 << t
        self.gf = make_field(2, t)
        self.k = 1 << l
        self.a = self.q + 1 - (1 << (t - l))
        self.v = self.k * self.a
        self.r = self.q + 1
        self.b = self.r * self.a
        self.eta1 = 1
        self.eta3 = 1
        self.eta2 = self._pick_eta2()
        self.gf.dual_basis()  # warm the cache for the dual-coordinate maps
        self._blocks = {}
        self._class_tables = {}

    def _pick_eta2(self) -> int:
        # the smallest eta2 with Q irreducible: for eta1 = eta3 = 1, T^2 + eta2 T + 1
        # has no root in F_q iff Tr(1/eta2^2) = 1 (substitute T = eta2 U)
        gf = self.gf
        for e2 in range(1, self.q):
            if gf.trace(gf.inv(gf.mul(e2, e2))) == 1:
                return e2
        raise AssertionError("no irreducible quadratic form found")

    # -- basic geometry --------------------------------------------------------

    def e_coeff(self, c: int) -> int:
        """eta1 + eta2 c + eta3 c^2, with the vertical convention e_inf = eta3."""
        if c == self.q:
            return self.eta3
        gf = self.gf
        return gf.add(gf.add(self.eta1, gf.mul(self.eta2, c)),
                      gf.mul(self.eta3, gf.mul(c, c)))

    def intercept_of(self, point, c: int) -> int:
        """The d with point on L_{c,d} (x-coordinate for the vertical class)."""
        px, py = point
        if c == self.q:
            return px
        return self.gf.add(py, self.gf.mul(c, px))

    # -- Phi_X: [v] <-> arc points ----------------------------------------------

    def phi_x(self, m: int):
        if not 0 <= m < self.v:
            raise ValueError(f"point index {m} out of range")
        if m == 0:
            return (0, 0)
        c, hpos = divmod(m - 1, self.k - 1)
        h = hpos + 1
        gf = self.gf
        x = gf.sqrt(gf.div(h, self.e_coeff(c)))
        if c == self.q:
            return (0, x)
        return (x, gf.mul(c, x))

    def phi_x_inv(self, point) -> int:
        px, py = point
        if px == 0 and py == 0:
            return 0
        gf = self.gf
        if px == 0:
            c = self.q
            h = gf.mul(self.eta3, gf.mul(py, py))
        else:
            c = gf.div(py, px)
            h = gf.mul(self.e_coeff(c), gf.mul(px, px))
        if not 1 <= h < self.k:
            raise ValueError(f"point {point} is not on the arc")
        return 1 + c * (self.k - 1) + (h - 1)

    # -- Phi_{U_c}: [a] <-> valid intercepts -------------------------------------

    def phi_uc(self, c: int, j: int) -> int:
        """The j-th intercept of parallel class c; index 0 is the intercept 0.

        For j >= 1 the map unranks the j-th element w of F_q \\ H_perp in
        dual-basis coordinates (H_perp is spanned by the dual tail, so w is
        valid iff its low l dual bits are not all zero) and solves
        d^{-2} = (eta2^2 / e_c) w.
        """
        if not 0 <= j < self.a:
            raise ValueError(f"intercept index {j} out of range")
        if j == 0:
            return 0
        jp = j - 1
        wz = jp + 1 + jp // (self.k - 1)
        gf = self.gf
        w = gf.from_dual_coords(wz)
        val = gf.mul(gf.div(gf.mul(self.eta2, self.eta2), self.e_coeff(c)), w)
        return gf.inv(gf.sqrt(val))

    def phi_uc_inv(self, c: int, d: int) -> int:
        if d == 0:
            return 0
        gf = self.gf
        w = gf.mul(gf.div(self.e_coeff(c), gf.mul(self.eta2, self.eta2)),
                   gf.inv(gf.mul(d, d)))
        wz = gf.dual_coords(w)
        if wz % self.k == 0:
            raise ValueError(f"intercept {d} is not in U_{c}")
        return wz - wz // self.k

    def block_ranks(self) -> np.ndarray:
        """The (v, q + 1) int64 table G[m, c] = phi_uc_inv(c, intercept_of(
        phi_x(m), c)): the rank j of the block of class c through point m.

        The scalar chain element-wise over ``FieldArrays``.  It reads none of
        the class tables that g reads, so :func:`verify_functional_form` still
        checks f against g independently.
        """
        gf = self.gf
        F = gf.arrays()
        q, k, v = self.q, self.k, self.v
        e = np.array([self.e_coeff(c) for c in range(q + 1)])
        # phi_x: point m >= 1 has slope c and h = e_c x^2, m = 1 + c (k - 1) + h - 1
        c, h = np.divmod(np.arange(v - 1), k - 1)
        x = F.sqrt(F.div(h + 1, e[c]))
        vertical = c == q
        px = np.zeros(v, dtype=np.int64)
        py = np.zeros(v, dtype=np.int64)
        px[1:] = np.where(vertical, 0, x)
        py[1:] = np.where(vertical, x, F.mul(np.where(vertical, 0, c), x))
        # intercept_of: d = y + c x on the line of slope c, d = x for the vertical
        d = np.empty((v, q + 1), dtype=np.int64)
        d[:, :q] = py[:, None] ^ F.mul(np.arange(q)[None, :], px[:, None])
        d[:, q] = px
        # phi_uc_inv: the intercept 0 has rank 0; else w = (e_c / eta2^2) / d^2
        nonzero = d != 0
        d = np.where(nonzero, d, 1)
        w = F.mul(F.div(e, gf.mul(self.eta2, self.eta2))[None, :], F.inv(F.mul(d, d)))
        wz = F.dual_coords(w)
        if (wz[nonzero] % k == 0).any():
            raise AssertionError("a point lies on a line whose intercept is outside U_c")
        return np.where(nonzero, wz - wz // k, 0)

    def block_points(self, c: int, d: int):
        """The k arc points on the line L_{c,d}: row phi_uc_inv(c, d) of the
        class table of c, mapped through phi_x."""
        key = (c, d)
        pts = self._blocks.get(key)
        if pts is None:
            row = self.class_table(c)[self.phi_uc_inv(c, d)]
            pts = self._blocks[key] = tuple(self.phi_x(int(m)) for m in row)
        return pts

    # -- per-class block tables: the preimage machinery of g -----------------------

    def class_table(self, c: int) -> np.ndarray:
        """The (a, k) int32 point table of parallel class c: row j holds
        phi_x_inv of the k arc points on the line (c, phi_uc(c, j)).  Row 0
        is the origin, then the points of slope c by h = 1, ..., k - 1; a row
        j >= 1 lists its points two per element of H_{c,d}.  Built on first
        use of the class, in one array pass."""
        table = self._class_tables.get(c)
        if table is None:
            if not 0 <= c <= self.q:
                raise ValueError(f"slope {c} out of range")
            table = self._build_class_table(c)
            self._class_tables[c] = table
        return table

    def _build_class_table(self, c: int) -> np.ndarray:
        # phi_uc, then the points of each line, element-wise over the a - 1
        # nonzero intercepts of the class; tests/test_families.py holds the
        # scalar enumeration of H_{c,d}, R_{c,d} and the points as its oracle
        gf = self.gf
        F = gf.arrays()
        q, k, a, l = self.q, self.k, self.a, self.l
        eta1, eta2, eta3 = self.eta1, self.eta2, self.eta3
        e2sq = gf.mul(eta2, eta2)
        ec = self.e_coeff(c)
        table = np.empty((a, k), dtype=np.int32)
        # intercept 0: the origin, then the points of slope c with h = 1..k-1
        table[0, 0] = 0
        table[0, 1:] = 1 + c * (k - 1) + np.arange(k - 1)

        jp = np.arange(a - 1)
        w = F.from_dual_coords(jp + 1 + jp // (k - 1))
        d = F.inv(F.sqrt(F.mul(gf.div(e2sq, ec), w)))[:, None]
        d2 = F.mul(d, d)

        # H_{c,d}: the free bits of a counter around the pivot, pivot bit set
        # where it makes Tr(e_c z / (eta2^2 d^2)) = 1
        mask = F.dual_coords(F.div(ec, F.mul(e2sq, d2))) & (k - 1)
        if not mask.all():
            raise AssertionError(f"class {c} has an intercept outside U_{c}")
        piv = np.zeros_like(mask)
        for i in range(1, l):
            piv = np.where(mask >> i, i, piv)
        counter = np.arange(k // 2)[None, :]
        z = (counter & ((1 << piv) - 1)) | ((counter >> piv) << (piv + 1))
        parity = 0
        for i in range(l):
            parity ^= ((z & mask) >> i) & 1
        z |= (1 - parity) << piv

        # R_{c,d}: two slopes per z, from the roots w and w + 1 of w^2 + w = const
        if c == q:
            const = F.div(F.mul(eta3, F.mul(eta1, d2) ^ z), F.mul(e2sq, d2))
            w0 = F.artin_schreier_root(const)[..., None] ^ np.array([0, 1])
            slopes = F.div(F.mul(eta2, w0), eta3)
        else:
            denom = z ^ F.mul(eta3, d2)
            linear = denom == 0       # degenerate quadratic: slope ct_linear and the vertical
            denom = np.where(linear, 1, denom)
            const = F.div(F.mul(F.mul(eta1, d2) ^ F.mul(gf.mul(c, c), z), denom),
                          F.mul(e2sq, F.mul(d2, d2)))
            const = np.where(linear, 0, const)
            w0 = F.artin_schreier_root(const)[..., None] ^ np.array([0, 1])
            slopes = F.div(F.mul(F.mul(eta2, d2)[..., None], w0), denom[..., None])
            ct_linear = gf.div(eta1 ^ gf.mul(eta3, gf.mul(c, c)), eta2)
            slopes = np.where(linear[..., None], np.array([ct_linear, q]), slopes)
        slopes = slopes.reshape(a - 1, k)

        # the points: x = d on the vertical line or for the vertical slope,
        # else x = d / (c + ct); phi_x_inv reads h = e_ct x^2
        vertical = slopes == q
        ct = np.where(vertical, 0, slopes)
        x = d if c == q else np.where(vertical, d, F.div(d, np.where(vertical, 1, c ^ ct)))
        e_ct = np.where(vertical, eta3, eta1 ^ F.mul(eta2, ct) ^ F.mul(eta3, F.mul(ct, ct)))
        h = F.mul(e_ct, F.mul(x, x))
        table[1:] = slopes * (k - 1) + h
        # the blocks of a parallel class partition the v points of the arc
        if not (np.bincount(table.ravel(), minlength=self.v) == 1).all():
            raise AssertionError(f"the blocks of class {c} do not partition the arc")
        return table


def denniston_point_set(geom: DennistonGeometry):
    return [geom.phi_x(m) for m in range(geom.v)]


def denniston_design(geom: DennistonGeometry):
    """The resolvable (v, 2^l, 1) BIBD of line sections of the arc, blocks
    indexed (c, j) -> c*a + j with intercepts ordered by Phi_{U_c}; built
    from the class tables of g."""
    G = np.empty((geom.v, geom.r), dtype=np.int64)
    for c in range(geom.r):
        G[geom.class_table(c), c] = np.arange(geom.a)[:, None]
    return _resolvable_design(G, geom.a)


def build_m2(t: int, l: int) -> Mosaic:
    """Mosaic of Denniston (v, 2^l, 1) BIBDs, colors the cyclic group Z_a."""
    geom = DennistonGeometry(t, l)
    a, q, gf = geom.a, geom.q, geom.gf

    def f(x, s):
        i, beta = divmod(s, a)
        pt = geom.phi_x(x)
        d = geom.intercept_of(pt, i)
        return (beta + geom.phi_uc_inv(i, d)) % a

    def g(s, alpha, kappa):
        i, beta = divmod(s, a)
        return geom.class_table(i)[(alpha - beta) % a, kappa]

    def form():
        return geom.block_ranks(), np.add.outer(np.arange(a), np.arange(a)) % a

    mosaic = Mosaic(geom.v, geom.b, a, f, g, k=geom.k,
                    member_params=BIBDParams(v=geom.v, k=geom.k, lam=1,
                                             r=geom.r, b=geom.b),
                    meta={"family": "m2", "t": t, "l": l}, form=form)
    mosaic.geometry = geom
    return mosaic


def build_m3(t: int, l: int, u: int) -> Mosaic:
    """The u-fold point multiple of the (t, l) Denniston mosaic: singular GDDs
    with lambda1 = r = 2^t + 1 and lambda2 = 1."""
    base = build_m2(t, l)
    out = point_multiple(base, u)
    out.meta = {"family": "m3", "t": t, "l": l, "u": u}
    out.base = base
    return out


# ---------------------------------------------------------------------------
# M4: transversal designs from duals of affine planes
# ---------------------------------------------------------------------------

def build_m4(k: int, q: int, slopes=None) -> Mosaic:
    """Mosaic of (q, k, 1) transversal designs on the lines with slopes in R.

    The point (c, d) is the line y = c x + d (x = d for the vertical slope);
    the block (s1, s2) is a point of AG(2, q).  Member alpha declares them
    incident when c s1 + d - s2 = alpha, and a vertical line when
    s1 - d = alpha.  Each slope class thus has one affine rule
    f = A s1 + B d + C s2, with (A, B, C) = (c, 1, -1) for a slope c and
    (1, -1, 0) for the vertical slope; g solves it for d, B = +-1 being its
    own inverse.  Both read the coefficients of each point's class, so they
    broadcast over any slope set.
    """
    p, e = prime_power(q)
    if not 2 <= k <= q + 1:
        raise ValueError("M4 requires 2 <= k <= q + 1")
    # by default a plain subset of F_q when k <= q; all q + 1 classes
    # (vertical included) only in the full dual-of-AG(2, q) case
    R = tuple(range(k)) if slopes is None else tuple(int(c) for c in slopes)
    if len(R) != k or len(set(R)) != k:
        raise ValueError(f"slope set must have exactly k = {k} distinct elements")
    if any(not 0 <= c <= q for c in R):
        raise ValueError("slopes must lie in F_q plus the vertical slope q")
    gf = make_field(p, e)
    minus_one = gf.neg(1)
    A, B, C = np.array([(1, minus_one, 0) if c == q else (c, 1, minus_one) for c in R]).T
    # built on the first call of f or g: the rates and the header read the
    # parameters only
    tables = _on_first_call(lambda: _field_tables(gf))

    def f(x, s):
        add, mul, _ = tables()
        ci, d = x // q, x % q
        s1, s2 = s // q, s % q
        return add[add[mul[A[ci], s1], mul[B[ci], d]], mul[C[ci], s2]]

    def g(s, alpha, kappa):
        add, mul, neg = tables()
        s1, s2 = divmod(s, q)
        rest = add[mul[A[kappa], s1], mul[C[kappa], s2]]
        return kappa * q + mul[B[kappa], add[alpha, neg[rest]]]

    partition = tuple(tuple(range(ci * q, (ci + 1) * q)) for ci in range(k))
    gdd = GDDParams(u=q, m=k, k=k, lambda1=0, lambda2=1,
                    v=q * k, r=q, b=q * q, partition=partition)
    return Mosaic(gdd.v, gdd.b, q, f, g, k=k, member_params=gdd,
                  meta={"family": "m4", "k": k, "q": q, "slopes": list(R)})


def td_design(k: int, q: int, slopes=None):
    """The underlying (q, k, 1) TD, member 0 of the M4 mosaic, and, when no
    vertical slope is kept, its resolution into the point pencils {(e, *)}."""
    M = build_m4(k, q, slopes)
    resolution = None
    if q not in M.meta["slopes"]:
        classes = tuple(tuple(e1 * q + s2 for s2 in range(q)) for e1 in range(q))
        resolution = Resolution(classes)
    return M.member(0), resolution


# ---------------------------------------------------------------------------
# small catalogued GDDs used as universal-hash test cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CataloguedGDD:
    name: str
    structure: IncidenceStructure
    resolution: Resolution
    params: GDDParams


def clatworthy_r1() -> CataloguedGDD:
    """The regular GDD with v=4, r=4, k=2, lambda1=2, lambda2=1 (kr = lambda1 v)."""
    blocks = [(0, 1), (2, 3), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    D = IncidenceStructure.from_blocks(4, blocks)
    partition = ((0, 1), (2, 3))
    params = GDDParams.from_classes(u=2, m=2, k=2, lambda1=2, lambda2=1, partition=partition)
    res = Resolution(((0, 1), (2, 3), (4, 5), (6, 7)))
    return CataloguedGDD("R1", D, res, params)


def clatworthy_r2() -> CataloguedGDD:
    """The regular GDD with v=4, r=5, k=2, lambda1=3, lambda2=1 (kr < lambda1 v)."""
    blocks = [(0, 1), (2, 3), (0, 1), (2, 3), (0, 1), (2, 3),
              (0, 2), (1, 3), (0, 3), (1, 2)]
    D = IncidenceStructure.from_blocks(4, blocks)
    partition = ((0, 1), (2, 3))
    params = GDDParams.from_classes(u=2, m=2, k=2, lambda1=3, lambda2=1, partition=partition)
    res = Resolution(((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)))
    return CataloguedGDD("R2", D, res, params)


# family -> (builder, required parameters, optional parameters)
FAMILY_BUILDERS = {
    "m1": (build_m1, ("t", "q"), ()),
    "m2": (build_m2, ("t", "l"), ()),
    "m3": (build_m3, ("t", "l", "u"), ()),
    "m4": (build_m4, ("k", "q"), ("slopes",)),
}


def build_family(family: str, **params) -> Mosaic:
    try:
        builder, names, optional = FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILY_BUILDERS)}")
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ValueError(f"family {family!r} needs parameters {names}, missing {missing}")
    given = [n for n in optional if params.get(n) is not None]
    return builder(**{n: params[n] for n in names + tuple(given)})
