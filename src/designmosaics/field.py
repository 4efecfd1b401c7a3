"""Exact arithmetic in GF(p^n) over a polynomial basis.

Field elements are encoded as integers in [0, p^n): the element
c0 + c1*theta + ... + c_{n-1}*theta^(n-1) corresponds to the integer
c0 + c1*p + ... + c_{n-1}*p^(n-1).  For p = 2 this is plain bit packing,
so addition is XOR and the basis vector theta^i is ``1 << i``.

Besides the four arithmetic operations, the module provides the
characteristic-2 machinery needed by the Denniston constructions: absolute
trace, dual basis, square roots and Artin-Schreier solving.  These are table
lookups, derived once per field: the trace is F_2-linear (Lidl & Niederreiter,
*Finite Fields*, Thm 2.23), so Tr(x) is the parity of ``x & tmask``; dual
coordinates and Artin-Schreier roots are GF(2)-linear maps applied as an XOR
of n precomputed columns; a square root halves the discrete log.
:class:`FieldArrays` applies the same operations element-wise to int arrays.
"""

from __future__ import annotations

import numpy as np

MAX_FIELD_ORDER = 1 << 20

# below this order, multiplication in a proper extension field is backed by
# discrete-log tables built once from the shift-and-add implementation
_LOG_TABLE_MAX = 1 << 16


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomials over GF(p): little-endian coefficient lists, no trailing 0
# ---------------------------------------------------------------------------

def _digits(m: int, p: int, n: int) -> list:
    out = []
    for _ in range(n):
        m, r = divmod(m, p)
        out.append(r)
    return out


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list, b: list, p: int) -> list:
    a = _trim(list(a))
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while a and len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % p
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bi) % p
        _trim(a)
    return a


def _is_irreducible(f: list, p: int) -> bool:
    """Brute-force irreducibility test: scan all monic divisors up to degree n/2."""
    n = len(f) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for m in range(p ** d):
            g = _digits(m, p, d) + [1]
            if not _poly_mod(f, g, p):
                return False
    return True


def _least_irreducible(p: int, n: int) -> tuple:
    # candidates ordered by the integer packing of the non-leading coefficients,
    # i.e. lexicographically by (c_{n-1}, ..., c_0); the search is reproducible
    for m in range(p ** n):
        f = _digits(m, p, n) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("irreducible polynomial must exist for every degree")


def _gf2_inverse(rows: list, n: int) -> list:
    """Invert an n x n GF(2) matrix given as a list of row bitmasks."""
    aug = [rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if (aug[i] >> col) & 1), None)
        if piv is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and (aug[i] >> col) & 1:
                aug[i] ^= aug[col]
    return [aug[i] >> n for i in range(n)]


def _transpose(rows: list, n: int) -> list:
    """Rows of the transpose of an n x n GF(2) matrix given as row bitmasks."""
    return [sum(((r >> i) & 1) << j for j, r in enumerate(rows)) for i in range(n)]


def _apply_cols(cols, x):
    """The GF(2)-linear map with column j equal to ``cols[j]``, applied to x
    (an int, or an int array element-wise)."""
    out = 0
    for j, col in enumerate(cols):
        out ^= ((x >> j) & 1) * col
    return out


class GF:
    """The finite field GF(p^n) in the polynomial basis {1, theta, ..., theta^(n-1)}.

    The modulus is the monic irreducible polynomial of degree n over GF(p)
    that is least in the candidate ordering.
    Instances are immutable apart from internal caches and safe to share.
    """

    def __init__(self, p, n):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be at least 1")
        order = p ** n
        if order > MAX_FIELD_ORDER:
            raise ValueError(f"field order {order} exceeds the bound {MAX_FIELD_ORDER}")
        self.p = p
        self.n = n
        self.order = order
        self.modulus = _least_irreducible(p, n)
        self._modlist = list(self.modulus)
        self._mod_bits = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else None
        self._exp = None
        self._log = None
        self._arrays = None
        self._dual = None
        # Tr(theta^i) is the trace of multiplication by theta^i as an
        # F_p-linear map; Tr is F_p-linear, so these n values determine it
        basis = [p ** i for i in range(n)]
        self._trace_basis = tuple(
            sum(_digits(self._mul_raw(basis[i], basis[j]), p, n)[j] for j in range(n)) % p
            for i in range(n))
        if p == 2:
            self._init_char2()

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"

    # -- encoding -----------------------------------------------------------

    def from_coeffs(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) > self.n:
            raise ValueError("too many coefficients")
        x = 0
        for i, c in enumerate(coeffs):
            if not 0 <= c < self.p:
                raise ValueError("coefficient out of range")
            x += c * self.p ** i
        return x

    def elements(self):
        return range(self.order)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        p = self.p
        out, mult = 0, 1
        while a or b:
            da, a = a % p, a // p
            db, b = b % p, b // p
            out += ((da + db) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.n == 1:
            return (-a) % self.p
        p = self.p
        out, mult = 0, 1
        while a:
            da, a = a % p, a // p
            out += ((-da) % p) * mult
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.n == 1:
            return (a * b) % self.p
        if self._exp is None and self.order <= _LOG_TABLE_MAX:
            self._build_log_tables()
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        if self.p == 2:
            mod, top, r = self._mod_bits, 1 << self.n, 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        prod = _poly_mul(_digits(a, self.p, self.n), _digits(b, self.p, self.n), self.p)
        return self.from_coeffs(_poly_mod(prod, self._modlist, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        if self.n == 1:
            return pow(a, -1, self.p)
        if self._exp is None and self.order <= _LOG_TABLE_MAX:
            self._build_log_tables()
        if self._exp is not None:
            q1 = self.order - 1
            return self._exp[(q1 - self._log[a]) % q1]
        # a^(q-1) = 1 for every nonzero a, so a^(q-2) is its inverse
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def _build_log_tables(self):
        g = self._find_generator()
        q1 = self.order - 1
        exp = [1] * (2 * q1 - 1)
        log = [0] * self.order
        x = 1
        for i in range(q1):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, g)
        for i in range(q1, 2 * q1 - 1):
            exp[i] = exp[i - q1]
        self._exp, self._log = exp, log

    def _find_generator(self) -> int:
        q1 = self.order - 1
        factors, m, f = [], q1, 2
        while f * f <= m:
            if m % f == 0:
                factors.append(f)
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            factors.append(m)

        def pow_raw(a, e):
            r = 1
            while e:
                if e & 1:
                    r = self._mul_raw(r, a)
                a = self._mul_raw(a, a)
                e >>= 1
            return r

        for g in range(1, self.order):
            if all(pow_raw(g, q1 // f) != 1 for f in factors):
                return g
        raise AssertionError("multiplicative group must be cyclic")

    def arrays(self) -> "FieldArrays":
        """Element-wise arithmetic on int arrays (characteristic 2), over numpy
        copies of the log tables; builds the tables at any order, while the
        scalar methods build them only up to _LOG_TABLE_MAX."""
        if self._arrays is None:
            self._arrays = FieldArrays(self)
        return self._arrays

    # -- characteristic-2 machinery ------------------------------------------

    def _init_char2(self):
        n = self.n
        self._tmask = sum(t << i for i, t in enumerate(self._trace_basis))
        # gram[i] bit j = Tr(theta^i theta^j); the matrix is symmetric, so row
        # j is also the dual-coordinate vector of theta^j
        self._gram = tuple(
            sum(self.trace(self._mul_raw(1 << i, 1 << j)) << j for j in range(n))
            for i in range(n))
        # w -> w^2 + w + w_0 u with Tr(u) = 1 is invertible; when Tr(a) = 0 its
        # inverse image w of a has w_0 = 0 and solves w^2 + w = a
        u = 1 << self._trace_basis.index(1)
        cols = [self._mul_raw(1 << j, 1 << j) ^ (1 << j) for j in range(n)]
        cols[0] ^= u
        self._as_cols = tuple(_transpose(_gf2_inverse(_transpose(cols, n), n), n))

    def trace(self, x: int) -> int:
        """Absolute trace x + x^p + ... + x^(p^(n-1)), as an int in [0, p)."""
        if self.p == 2:
            return (x & self._tmask).bit_count() & 1
        return sum(c * t for c, t in zip(_digits(x, self.p, self.n), self._trace_basis)) % self.p

    def sqrt(self, x: int) -> int:
        """The unique square root in characteristic 2: x^(2^(n-1)), read off the
        log tables as half the discrete log (the group order 2^n - 1 is odd)."""
        self._require_char2()
        if x == 0 or self.n == 1:
            return x
        if self._exp is None and self.order <= _LOG_TABLE_MAX:
            self._build_log_tables()
        if self._exp is None:
            return self.pow(x, self.order >> 1)
        e = self._log[x]
        return self._exp[(e + (e & 1) * (self.order - 1)) >> 1]

    def dual_basis(self) -> tuple:
        """The basis zeta_0..zeta_{n-1} dual to the polynomial basis under the
        trace form, Tr(zeta_i theta^j) = delta_ij, as the tuple of the packed
        elements zeta_i."""
        self._require_char2()
        if self._dual is None:
            # row i of gram^-1 gives zeta_i in the polynomial basis; for p = 2
            # the row bitmask is already the packed element
            self._dual = tuple(_gf2_inverse(list(self._gram), self.n))
        return self._dual

    def dual_coords(self, x: int) -> int:
        """Coordinates of x in the dual basis, packed as bits: bit i = Tr(x*theta^i)."""
        self._require_char2()
        return _apply_cols(self._gram, x)

    def from_dual_coords(self, bits: int) -> int:
        return _apply_cols(self.dual_basis(), bits)

    def artin_schreier_roots(self, a: int) -> tuple:
        """All w with w^2 + w = a, sorted; empty unless Tr(a) = 0, else exactly {w, w+1}."""
        self._require_char2()
        if self.trace(a):
            return ()
        # the kernel of w -> w^2 + w is the prime subfield {0, 1}
        w = _apply_cols(self._as_cols, a)
        return (w, w ^ 1)

    def _require_char2(self):
        if self.p != 2:
            raise ValueError("operation implemented for characteristic 2 only")


class FieldArrays:
    """Element-wise GF(2^n) arithmetic on int arrays, obtained from
    :meth:`GF.arrays`; each method mirrors the scalar one of ``GF``.  It copies
    what it reads from the field and keeps no reference back, so no cycle."""

    def __init__(self, gf: GF):
        gf._require_char2()
        if gf._exp is None:
            gf._build_log_tables()
        self.name = repr(gf)
        self.exp = np.asarray(gf._exp, dtype=np.int64)
        self.log = np.asarray(gf._log, dtype=np.int64)
        self.q1 = gf.order - 1
        self._trace_basis, self._gram, self._as_cols = gf._trace_basis, gf._gram, gf._as_cols
        self._dual = gf.dual_basis()

    def mul(self, a, b):
        return np.where((a == 0) | (b == 0), 0, self.exp[self.log[a] + self.log[b]])

    def inv(self, a):
        if np.any(a == 0):
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return self.exp[(self.q1 - self.log[a]) % self.q1]

    def div(self, a, b):
        if np.any(b == 0):
            raise ZeroDivisionError(f"division by 0 in {self.name}")
        return np.where(a == 0, 0, self.exp[(self.log[a] - self.log[b]) % self.q1])

    def sqrt(self, a):
        e = self.log[a]
        return np.where(a == 0, 0, self.exp[(e + (e & 1) * self.q1) >> 1])

    def trace(self, a):
        return _apply_cols(self._trace_basis, a)

    def dual_coords(self, a):
        return _apply_cols(self._gram, a)

    def from_dual_coords(self, bits):
        return _apply_cols(self._dual, bits)

    def artin_schreier_root(self, a):
        """The smaller root w of w^2 + w = a (the other is w + 1), element-wise;
        every element of a must have trace 0."""
        if np.any(self.trace(a)):
            raise ValueError("w^2 + w = a has no root where Tr(a) = 1")
        return _apply_cols(self._as_cols, a)


def make_field(p: int, n: int) -> GF:
    """GF(p^n) with the deterministically chosen least irreducible modulus."""
    return GF(p, n)


def prime_power(q: int) -> tuple:
    """Decompose q = p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for f in range(2, q + 1):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    e = 0
    m = q
    while m % p == 0 and m > 1:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e
