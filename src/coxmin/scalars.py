"""Exact arithmetic in the real cyclotomic field Q(c), c = 2cos(pi/L).

Every geometric quantity in the package (root coordinates, inner products,
eigenvector entries) lives in such a field for a suitable level L.  A scalar
is a polynomial in c with rational coefficients, reduced modulo the minimal
polynomial of c, stored as a fixed-length coefficient tuple.  Equality with
zero is therefore a syntactic check, and the sign of a nonzero scalar is
determined by evaluating its polynomial on a shrinking rational interval
that isolates c among the roots of the minimal polynomial (Sturm isolation
once per field, plain sign-change bisection afterwards).  Sign queries are
total: they never return "unknown".

Fields of different levels nest: L | L' gives Q(c_L) into Q(c_L') via
c_L = D_{L'/L}(c_L'), where D_k is the degree-k Dickson polynomial with
D_k(2cos t) = 2cos(kt).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FieldTooSmall

Coeffs = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, index = degree).


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        coef = num[k + len(den) - 1]
        assert coef % den[-1] == 0
        coef //= den[-1]
        q[k] = coef
        if coef:
            for j, dj in enumerate(den):
                num[k + j] -= coef * dj
    assert all(x == 0 for x in num)
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    assert n >= 1
    p = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            p = _poly_divmod_exact(p, cyclotomic(d))
    return tuple(p)


def _dickson(k: int) -> list[int]:
    """D_k with D_k(2cos t) = 2cos(kt); integer coefficients."""
    a, b = [2], [0, 1]  # D_0, D_1
    if k == 0:
        return a
    for _ in range(k - 1):
        nb = [0] + b  # y * D_j - D_{j-1}
        for i, ai in enumerate(a):
            nb[i] -= ai
        a, b = b, _poly_trim(nb)
    return b


@lru_cache(maxsize=None)
def minpoly_two_cos_pi_over(L: int) -> Coeffs:
    """Monic minimal polynomial of 2cos(pi/L) over Q.

    2cos(pi/L) = zeta + 1/zeta for zeta a primitive 2L-th root of unity, so
    the minimal polynomial is obtained by folding the (palindromic)
    cyclotomic polynomial of index 2L through y = x + 1/x.
    """
    assert L >= 1
    if L == 1:
        return (Fraction(2), _ONE)  # y + 2, root -2
    phi = cyclotomic(2 * L)
    d = len(phi) - 1
    assert d % 2 == 0 and phi[0] == phi[d]
    half = d // 2
    out = [0] * (half + 1)
    out[0] = phi[half]
    for k in range(1, half + 1):
        dk = _dickson(k)
        for i, coef in enumerate(dk):
            out[i] += phi[half + k] * coef
    assert out[-1] == 1
    return tuple(Fraction(x) for x in out)


# ---------------------------------------------------------------------------
# Fraction-polynomial helpers for Sturm sequences.


def _fpoly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sturm_chain(p: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [list(p)]
    dp = [i * c for i, c in enumerate(p)][1:]
    chain.append(dp)
    while len(chain[-1]) > 1:
        r = _fpoly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sturm_variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _fpoly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _interval_eval(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation of p on [lo, hi]."""
    rl = rh = p[-1] if p else _ZERO
    for c in reversed(p[:-1]):
        cands = (rl * lo, rl * hi, rh * lo, rh * hi)
        rl, rh = min(cands) + c, max(cands) + c
    return rl, rh


# ---------------------------------------------------------------------------


class ScalarField:
    """The field Q(c) with c = 2cos(pi/L), plus certified sign machinery."""

    def __init__(self, L: int):
        self.L = L
        self.minpoly = minpoly_two_cos_pi_over(L)
        self.degree = len(self.minpoly) - 1
        # Reduction table: x^k mod minpoly for k = degree .. 2*degree - 2.
        m = self.degree
        red: list[Coeffs] = []
        cur = [-c for c in self.minpoly[:-1]]  # x^m
        red.append(tuple(cur))
        for _ in range(m - 2):
            cur = [_ZERO] + cur
            top = cur.pop()
            if top:
                cur = [a + top * b for a, b in zip(cur, red[0])]
            red.append(tuple(cur))
        self._red = red
        self.zero = AlgebraicScalar(self, (_ZERO,) * m)
        self.one = AlgebraicScalar(self, ((_ONE,) + (_ZERO,) * (m - 1))[:m])
        if m == 1:
            self.gen = self.from_rational(-self.minpoly[0])
            self._lo = self._hi = -self.minpoly[0]
        else:
            self.gen = AlgebraicScalar(self, (_ZERO, _ONE) + (_ZERO,) * (m - 2))
            self._isolate_generator()
        self._two_cos_cache: dict[Fraction, AlgebraicScalar] = {}

    def __repr__(self) -> str:
        return f"ScalarField(L={self.L})"

    def _isolate_generator(self) -> None:
        # c = 2cos(pi/L) is the largest real root of the minimal polynomial.
        chain = _sturm_chain(self.minpoly)
        lo, hi = Fraction(-3), Fraction(2)

        def count(a: Fraction, b: Fraction) -> int:
            return _sturm_variations(chain, a) - _sturm_variations(chain, b)

        while count(lo, hi) > 1:
            mid = (lo + hi) / 2
            if count(mid, hi) >= 1:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi = lo, hi

    def refine(self) -> None:
        """Halve the isolating interval of the generator."""
        if self.degree == 1:
            return
        lo, hi = self._lo, self._hi
        mid = (lo + hi) / 2
        fm = _fpoly_eval(self.minpoly, mid)
        fl = _fpoly_eval(self.minpoly, lo)
        # The minimal polynomial is irreducible of degree >= 2, so it has no
        # rational roots and fm != 0; fl may be 0 only at the initial -3.
        if fl == 0 or (fl > 0) != (fm > 0):
            self._hi = mid
        else:
            self._lo = mid
        assert self._hi - self._lo == (hi - lo) / 2

    # -- constructors -------------------------------------------------------

    def scalar(self, coeffs: Iterable[Fraction | int]) -> AlgebraicScalar:
        cs = [Fraction(c) for c in coeffs]
        assert len(cs) <= self.degree
        cs += [_ZERO] * (self.degree - len(cs))
        return AlgebraicScalar(self, tuple(cs))

    def from_rational(self, q) -> AlgebraicScalar:
        return self.scalar([Fraction(q)])

    def two_cos(self, q: Fraction) -> AlgebraicScalar:
        """The scalar 2cos(q*pi); requires q*L to be an integer."""
        q = Fraction(q) % 2
        if q > 1:
            q = 2 - q
        cached = self._two_cos_cache.get(q)
        if cached is not None:
            return cached
        j = q * self.L
        if j.denominator != 1:
            raise FieldTooSmall(f"2cos({q}*pi) not expressible at level L={self.L}")
        dick = _dickson(int(j))
        acc = self.zero
        for coef in reversed(dick):
            acc = acc * self.gen + self.from_rational(coef)
        self._two_cos_cache[q] = acc
        return acc

    def embed_from(self, s: "AlgebraicScalar") -> AlgebraicScalar:
        """Re-express a scalar from a field of level dividing self.L."""
        src = s.field
        if src is self or src.L == self.L:
            return self.scalar(s.coeffs)
        assert self.L % src.L == 0
        image = self.two_cos(Fraction(1, src.L))
        acc = self.zero
        for coef in reversed(s.coeffs):
            acc = acc * image + self.from_rational(coef)
        return acc

    # -- internal arithmetic -------------------------------------------------

    def _reduce(self, prod: list[Fraction]) -> Coeffs:
        m = self.degree
        out = prod[:m] + [_ZERO] * (m - len(prod))
        for k in range(m, len(prod)):
            coef = prod[k]
            if coef:
                rk = self._red[k - m]
                for i in range(m):
                    out[i] += coef * rk[i]
        return tuple(out)

    def sign_of(self, coeffs: Coeffs) -> int:
        if all(c == 0 for c in coeffs):
            return 0
        if self.degree == 1:
            return 1 if coeffs[0] > 0 else -1
        while True:
            lo, hi = _interval_eval(coeffs, self._lo, self._hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine()

    def interval_of(self, coeffs: Coeffs, eps: Fraction) -> tuple[Fraction, Fraction]:
        if self.degree == 1:
            v = coeffs[0]
            return v, v
        while True:
            lo, hi = _interval_eval(coeffs, self._lo, self._hi)
            if hi - lo < eps:
                return lo, hi
            self.refine()


@lru_cache(maxsize=None)
def get_field(L: int) -> ScalarField:
    return ScalarField(L)


class AlgebraicScalar:
    """An element of Q(2cos(pi/L)), as a reduced coefficient tuple."""

    __slots__ = ("field", "coeffs", "_hash", "_sign", "_float")

    def __init__(self, field: ScalarField, coeffs: Coeffs):
        self.field = field
        self.coeffs = coeffs
        self._hash = None
        self._sign = None
        self._float = None

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "AlgebraicScalar":
        if isinstance(other, AlgebraicScalar):
            assert other.field.L == self.field.L, "mixed field levels"
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return AlgebraicScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return AlgebraicScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return AlgebraicScalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self.coeffs, o.coeffs
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return AlgebraicScalar(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        assert not self.is_zero()
        # Work in Q[x]: find u with u*self + v*minpoly = 1.
        r0 = list(self.field.minpoly)
        r1 = _poly_trim(list(self.coeffs))
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            q, rem = _fpoly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _fpoly_sub(s0, _poly_trim(_poly_mul(q, s1)))
        c = r1[0]
        return self.field.scalar([x / c for x in s1])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        assert k >= 0
        acc = self.field.one
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- predicates and order -----------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        if self._sign is None:
            self._sign = self.field.sign_of(self.coeffs)
        return self._sign

    def __eq__(self, other):
        if isinstance(other, AlgebraicScalar):
            return self.field.L == other.field.L and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == self.field.from_rational(other).coeffs
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __bool__(self):
        return not self.is_zero()

    # -- numeric views --------------------------------------------------------

    def interval(self, eps: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
        return self.field.interval_of(self.coeffs, eps)

    def __float__(self):
        if self._float is None:
            lo, hi = self.interval(Fraction(1, 10**17))
            self._float = float((lo + hi) / 2)
        return self._float

    def as_fraction(self) -> Fraction:
        assert all(c == 0 for c in self.coeffs[1:]), "scalar is irrational"
        return self.coeffs[0]

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"{c}*c^{i}" if i > 1 else f"{c}*c"))
        return "(" + (" + ".join(terms) if terms else "0") + f" | L={self.field.L})"


def _fpoly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coef
        for j, bj in enumerate(b):
            a[shift + j] -= coef * bj
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _fpoly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    for i, bi in enumerate(b):
        a[i] -= bi
    return _poly_trim(a)
