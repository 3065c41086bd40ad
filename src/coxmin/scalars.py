"""Exact arithmetic in the real cyclotomic field Q(c), c = 2cos(pi/L).

Every geometric quantity in the package (root coordinates, inner products,
eigenvector entries) lives in such a field for a suitable level L.  A scalar
is a polynomial in c with rational coefficients, reduced modulo the minimal
polynomial of c, stored as integer coefficients over one denominator:
num = (n_0, ..., n_{m-1}) and den > 0 stand for (n_0 + n_1 c + ... +
n_{m-1} c^{m-1}) / den, with gcd(n_0, ..., n_{m-1}, den) = 1 and zero as
0/1.  c is an algebraic integer (its minimal polynomial is monic with
integer coefficients), so the table that reduces c^k for k >= m is integral
and a sum or product costs integer operations plus one gcd (Cohen, A Course
in Computational Algebraic Number Theory, GTM 138).  An inverse is an
integer cofactor: u with num * u = N a nonzero integer, the conjugate over
the norm in degree 2 and otherwise a column of a fraction-free (Bareiss)
elimination on the integer matrix of multiplication by num; then
(num/den)^-1 = den u / N.  The normal form is unique, so equality, and
equality with zero, is a syntactic check.

The sign of a nonzero scalar is determined by evaluating num in integer
interval arithmetic on a shrinking interval [lo, hi] / 2^k, lo and hi
integers, that isolates c among the roots of the minimal polynomial; den > 0
does not change it.  The interval comes from a bisection of [-3, 2] by a
Sturm chain of integer pseudo-remainders evaluated at dyadic points, once
per field, and then halves by the signs of the minimal polynomial at its
lower end and midpoint.  Sign queries are total: they never return "unknown".

Levels.  For q in [0, 1] in lowest terms, 2cos(q*pi) is rational (2, 1, 0,
-1 or -2) when the denominator of q is at most 3, and otherwise lies in
Q(2cos(pi/L)) when that denominator divides L.  So a Coxeter group needs
the lcm of its bond labels m >= 4, and the eigenvalues 2cos(2*pi*k/d) of an
element of order d need the denominator of 2/d: they lie in the real
subfield of the d-th cyclotomic field, of degree phi(d)/2 (Washington,
Introduction to Cyclotomic Fields), which is Q(2cos(pi/(d/2))) for even d.

Fields of different levels nest: L | L' gives Q(c_L) into Q(c_L') via
c_L = D_{L'/L}(c_L'), where D_k is the degree-k Dickson polynomial with
D_k(2cos t) = 2cos(kt).  The target field keeps, per source level, the
integer numerators of the images of c_L^i, so an embedding is an integer
combination of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FieldMismatch, FieldTooSmall, ScalarDomainError

Coeffs = tuple[Fraction, ...]

_FLOAT_EPS = Fraction(1, 10**17)

# 2cos(q*pi) for the q in [0, 1] where it is rational.
_RATIONAL_TWO_COS = {Fraction(0): 2, Fraction(1, 3): 1, Fraction(1, 2): 0,
                     Fraction(2, 3): -1, Fraction(1): -2}


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, index = degree).


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        coef, rem = divmod(num[k + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("inexact integer polynomial division")
        q[k] = coef
        if coef:
            for j, dj in enumerate(den):
                num[k + j] -= coef * dj
    if any(num):
        raise ArithmeticError("inexact integer polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, not {n}")
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
    if L < 1:
        raise ScalarDomainError(f"field level must be >= 1, not {L}")
    if L == 1:
        return (Fraction(2), Fraction(1))  # y + 2, root -2
    phi = cyclotomic(2 * L)
    d = len(phi) - 1
    if d % 2 or phi[0] != phi[d]:
        raise ArithmeticError(f"cyclotomic polynomial {2 * L} is not palindromic of even degree")
    half = d // 2
    out = [0] * (half + 1)
    out[0] = phi[half]
    for k in range(1, half + 1):
        dk = _dickson(k)
        for i, coef in enumerate(dk):
            out[i] += phi[half + k] * coef
    if out[-1] != 1:
        raise ArithmeticError(f"folded cyclotomic polynomial of 2cos(pi/{L}) is not monic")
    return tuple(Fraction(x) for x in out)


# ---------------------------------------------------------------------------
# Integer Sturm chains, evaluated at dyadic points n / 2^k.


def _dyadic_sign(p: Sequence[int], n: int, k: int) -> int:
    """Sign of p(n / 2^k): integer Horner on 2^(k deg p) p(n / 2^k)."""
    acc, scale = p[-1], 1
    for c in p[-2::-1]:
        scale <<= k
        acc = acc * n + c * scale
    return (acc > 0) - (acc < 0)


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content (a zero p is kept as it is)."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """The Sturm chain of p, each member a positive multiple of the chain in
    rationals: a pseudo-remainder scaled by |lead| at each step keeps the
    sign, and dividing out the content keeps the integers small."""
    chain = [list(p), _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        lead = b[-1]
        scale, sgn = abs(lead), 1 if lead > 0 else -1
        while len(r) >= len(b):
            top, shift = r[-1] * sgn, len(r) - len(b)
            r = [scale * x for x in r]
            for j, bj in enumerate(b):
                r[shift + j] -= top * bj
            _poly_trim(r)
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _sturm_variations(chain: list[list[int]], n: int, k: int) -> int:
    signs = [s for s in (_dyadic_sign(p, n, k) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


# ---------------------------------------------------------------------------


class ScalarField:
    """The field Q(c) with c = 2cos(pi/L), plus certified sign machinery."""

    def __init__(self, L: int):
        self.L = L
        self.minpoly = minpoly_two_cos_pi_over(L)
        self._mp = mp = tuple(int(c) for c in self.minpoly)  # monic, integral
        m = self.degree = len(mp) - 1
        # Reduction table: c^k mod minpoly for k = m .. 2m - 2, integral
        # because the minimal polynomial is monic; kept as the nonzero
        # (index, coefficient) pairs of each row.
        rows = [[-c for c in mp[:-1]]]
        for _ in range(m - 2):
            cur = [0] + rows[-1]
            top = cur.pop()
            rows.append([a + top * b for a, b in zip(cur, rows[0])])
        self._red = [tuple((i, c) for i, c in enumerate(row) if c) for row in rows]
        self._tail = (0,) * (m - 1)
        self.zero = AlgebraicScalar(self, (0,) * m)
        self.one = AlgebraicScalar(self, (1,) + self._tail)
        if m == 1:
            self.gen = self.from_rational(-mp[0])
        else:
            self.gen = AlgebraicScalar(self, (0, 1) + (0,) * (m - 2))
            self._isolate_generator()
        self._two_cos_cache: dict[Fraction, AlgebraicScalar] = {}
        # Per source level L' | L: the numerators of c_L'^i here, i < deg
        # (embed_powers).
        self._embed_powers: dict[int, list[tuple[int, ...]]] = {}

    def __repr__(self) -> str:
        return f"ScalarField(L={self.L})"

    # The isolating interval of the generator is [_ilo, _ihi] / 2^_k with
    # the least _k >= 0.  It starts at [-3, 2] and only ever halves, so its
    # ends stay dyadic; its midpoint is (_ilo + _ihi) / 2^(_k + 1).

    def _halve(self, upper: bool) -> None:
        """Keep the upper or the lower half of the isolating interval."""
        lo, hi, k = self._ilo << 1, self._ihi << 1, self._k + 1
        mid = self._ilo + self._ihi
        lo, hi = (mid, hi) if upper else (lo, mid)
        while k and not (lo | hi) & 1:
            lo, hi, k = lo >> 1, hi >> 1, k - 1
        self._ilo, self._ihi, self._k = lo, hi, k

    def _isolate_generator(self) -> None:
        # c = 2cos(pi/L) is the largest real root of the minimal polynomial:
        # bisect [-3, 2] by Sturm counts of the roots in (lo, hi] until it
        # holds one root.
        chain = _sturm_chain(self._mp)
        self._ilo, self._ihi, self._k = -3, 2, 0
        while True:
            lo, hi, k = self._ilo, self._ihi, self._k
            v_hi = _sturm_variations(chain, hi, k)
            if _sturm_variations(chain, lo, k) - v_hi <= 1:
                return
            self._halve(_sturm_variations(chain, lo + hi, k + 1) - v_hi >= 1)

    def refine(self) -> None:
        """Halve the isolating interval of the generator."""
        if self.degree == 1:
            return
        lo, hi, k = self._ilo, self._ihi, self._k
        # The minimal polynomial is irreducible of degree >= 2, so it has no
        # rational roots: neither sign is 0, and c lies in the upper half
        # exactly when p(lo) and p(mid) agree.
        self._halve(_dyadic_sign(self._mp, lo, k) == _dyadic_sign(self._mp, lo + hi, k + 1))
        if (self._ihi - self._ilo) << (k + 1 - self._k) != hi - lo:
            raise ArithmeticError("isolating interval did not halve")

    # -- constructors -------------------------------------------------------

    def scalar(self, coeffs: Iterable[Fraction | int]) -> AlgebraicScalar:
        """The scalar sum coeffs[i] c^i; at most `degree` coefficients."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ScalarDomainError(
                f"{len(cs)} coefficients for a field of degree {self.degree}")
        # Over the lcm of the reduced denominators the numerators are
        # already coprime to it: the normal form needs no gcd.
        den = math.lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        num += [0] * (self.degree - len(cs))
        return AlgebraicScalar(self, tuple(num), den)

    def from_rational(self, q) -> AlgebraicScalar:
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return AlgebraicScalar(self, (q.numerator,) + self._tail, q.denominator)

    def two_cos(self, q: Fraction) -> AlgebraicScalar:
        """The scalar 2cos(q*pi).

        Rational at any level when q (reduced to [0, 1]) has denominator at
        most 3; otherwise that denominator must divide L.
        """
        q = Fraction(q) % 2
        if q > 1:
            q = 2 - q
        cached = self._two_cos_cache.get(q)
        if cached is not None:
            return cached
        if q in _RATIONAL_TWO_COS:
            acc = self.from_rational(_RATIONAL_TWO_COS[q])
        else:
            j = q * self.L
            if j.denominator != 1:
                raise FieldTooSmall(f"2cos({q}*pi) not expressible at level L={self.L}")
            acc = self.zero
            for coef in reversed(_dickson(int(j))):
                acc = acc * self.gen + coef
        self._two_cos_cache[q] = acc
        return acc

    def embed_from(self, s: "AlgebraicScalar") -> AlgebraicScalar:
        """Re-express a scalar from a field of level dividing self.L."""
        src = s.field
        if src.L == self.L:
            return AlgebraicScalar(self, s.num, s.den)
        if self.L % src.L:
            raise FieldMismatch(
                f"cannot embed level {src.L} into level {self.L}: {src.L} does not divide {self.L}")
        # c_src is an algebraic integer of this field, so the images of its
        # powers are integral: the image of num is an integer combination
        # of them, and the denominator carries over.
        acc = [0] * self.degree
        for coef, power in zip(s.num, self.embed_powers(src)):
            if coef:
                for i, x in enumerate(power):
                    acc[i] += coef * x
        return _normal(self, tuple(acc), s.den)

    def embed_powers(self, src: "ScalarField") -> list[tuple[int, ...]]:
        """The numerators here of the images of c_src^i, i < src.degree,
        for a field src of level dividing self.L; the first is always one.
        Over src = self they are the powers of c itself."""
        powers = self._embed_powers.get(src.L)
        if powers is None:
            image = self.two_cos(Fraction(1, src.L))
            p = self.one
            powers = self._embed_powers[src.L] = [p.num]
            for _ in range(src.degree - 1):
                p = p * image
                powers.append(p.num)
        return powers

    def mul_num(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Numerators of (sum a[i] c^i)(sum b[j] c^j), degree >= 2: an integer
        convolution, then c^k -> row k - m of the reduction table."""
        m = self.degree
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:m]
        for k, row in enumerate(self._red, m):
            ck = prod[k]
            if ck:
                for i, r in row:
                    out[i] += ck * r
        return tuple(out)

    def times_gen(self, num: Sequence[int]) -> tuple[int, ...]:
        """Numerators of c * (sum num[i] c^i): a shift up, with c^m =
        -(mp[0] + ... + mp[m-1] c^(m-1)) by the monic minimal polynomial."""
        mp, top = self._mp, num[-1]
        return tuple([-top * mp[0]] + [a - top * b for a, b in zip(num, mp[1:-1])])

    def cofactor(self, num: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(u, N) with (sum num[i] c^i)(sum u[j] c^j) = N, a nonzero integer;
        num is not zero.

        In degree 2 the conjugate over the norm.  Otherwise u solves M u =
        N e_0 for M the integer matrix of multiplication by num (column j
        holds num c^j): a fraction-free Gauss-Jordan elimination on
        [M | e_0], each update divided exactly by the previous pivot
        (Bareiss), leaves N on the diagonal and u in the last column.
        """
        mp, m = self._mp, self.degree
        if m == 2:
            # With c^2 + p1 c + p0 = 0 and c' the conjugate root (c + c' =
            # -p1, c c' = p0): (a0 + a1 c)(a0 + a1 c') = a0^2 - a0 a1 p1 +
            # a1^2 p0.  Most inverses are over H3, B3, F4 and G2.
            a0, a1 = num
            return (a0 - a1 * mp[1], -a1), a0 * a0 - a0 * a1 * mp[1] + a1 * a1 * mp[0]
        cols = [num]
        for _ in range(m - 1):
            cols.append(self.times_gen(cols[-1]))
        # Row i holds columns k .. m of [M | e_0] at step k: the columns
        # before k are cleared and not read again.
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(m)]
        prev = 1
        for k in range(m):
            pr = next(i for i in range(k, m) if rows[i][0])
            rows[k], rows[pr] = rows[pr], rows[k]
            pivot = rows[k][1:]
            p = rows[k][0]
            rows = [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], pivot)]
                    if i != k else pivot for i, row in enumerate(rows)]
            prev = p
        return tuple([u for u, in rows]), prev

    # -- certified signs and intervals -----------------------------------------

    def _horner(self, num: Sequence[int]) -> tuple[int, int, int]:
        """(l, h, K) with [l, h] / 2^K the interval Horner value of num.

        The same interval as Horner's rule in rationals on [lo, hi] (degree
        >= 2 only): every intermediate is scaled by a power of 2^_k, which
        keeps the order of the candidates and makes them integers.
        """
        a, b, k = self._ilo, self._ihi, self._k
        rl = rh = num[-1]
        shift = 0
        for c in num[-2::-1]:
            shift += k
            cands = (rl * a, rl * b, rh * a, rh * b)
            c <<= shift
            rl, rh = min(cands) + c, max(cands) + c
        return rl, rh, shift

    def sign_of(self, num: Sequence[int]) -> int:
        """Sign of sum num[i] c^i (any positive denominator keeps it)."""
        if not any(num):
            return 0
        if self.degree == 1:
            return 1 if num[0] > 0 else -1
        while True:
            lo, hi, _ = self._horner(num)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine()

    def interval_of(self, num: Sequence[int], eps: Fraction,
                    den: int) -> tuple[Fraction, Fraction]:
        """An interval of width < eps around (sum num[i] c^i) / den, den > 0."""
        if self.degree == 1:
            v = Fraction(num[0], den)
            return v, v
        lo, hi, shift = self._narrow(num, eps, den)
        return Fraction(lo, den << shift), Fraction(hi, den << shift)

    def _narrow(self, num: Sequence[int], eps: Fraction,
                den: int) -> tuple[int, int, int]:
        """_horner(num) once the interval, over den, is narrower than eps."""
        while True:
            lo, hi, shift = self._horner(num)
            # (hi - lo) / (den 2^shift) < eps, cleared of denominators.
            if (hi - lo) * eps.denominator < (eps.numerator * den) << shift:
                return lo, hi, shift
            self.refine()

    def float_of(self, num: Sequence[int], den: int) -> float:
        """The midpoint of interval_of(num, 1e-17, den) as a float.

        One int true division, which Python rounds correctly, as it does
        float() of the Fraction midpoint: the same float, no Fractions.
        """
        if self.degree == 1:
            return num[0] / den
        lo, hi, shift = self._narrow(num, _FLOAT_EPS, den)
        return (lo + hi) / ((2 * den) << shift)


@lru_cache(maxsize=None)
def get_field(L: int) -> ScalarField:
    return ScalarField(L)


def _normal(field: ScalarField, num: tuple[int, ...], den: int) -> "AlgebraicScalar":
    """The scalar num/den (den != 0) in normal form."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([n // g for n in num])
        den //= g
    return AlgebraicScalar(field, num, den)


class AlgebraicScalar:
    """An element of Q(2cos(pi/L)): integer coefficients over one denominator.

    `num` and `den` are in normal form (den > 0, gcd of all of them 1, zero
    as 0/1); ScalarField.scalar and from_rational build scalars from
    rational coefficients.
    """

    __slots__ = ("field", "num", "den", "_hash", "_sign", "_float")

    def __init__(self, field: ScalarField, num: tuple[int, ...], den: int = 1):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None
        self._sign = None
        self._float = None

    @property
    def coeffs(self) -> Coeffs:
        """The rational coefficients num[i] / den, lowest terms."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "AlgebraicScalar":
        if isinstance(other, AlgebraicScalar):
            if other.field is not self.field and other.field.L != self.field.L:
                raise FieldMismatch(
                    f"scalars of levels {self.field.L} and {other.field.L} combined")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            num = tuple([x + y for x, y in zip(a, b)])
            if da == 1:
                return AlgebraicScalar(self.field, num)
            return _normal(self.field, num, da)
        return _normal(self.field, tuple([x * db + y * da for x, y in zip(a, b)]), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return AlgebraicScalar(self.field, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        field = self.field
        o = self._coerce(other)
        a, b = self.num, o.num
        num = (a[0] * b[0],) if field.degree == 1 else field.mul_num(a, b)
        den = self.den * o.den
        if den == 1:
            return AlgebraicScalar(field, num)
        return _normal(field, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicScalar":
        """Multiplicative inverse: (num/den)^-1 = den u / N for (u, N) the
        field's integer cofactor of num."""
        if self.is_zero():
            raise ScalarDomainError("inverse of zero")
        u, norm = self.field.cofactor(self.num)
        den = self.den
        return _normal(self.field, tuple([den * x for x in u]), norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    # -- predicates and order -----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def _is_rational(self) -> bool:
        return not any(self.num[1:])

    def sign(self) -> int:
        if self._sign is None:
            self._sign = self.field.sign_of(self.num)
        return self._sign

    def __eq__(self, other):
        if isinstance(other, AlgebraicScalar):
            return (self.field.L == other.field.L and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return (self._is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # A rational scalar hashes as its Fraction, as it compares equal to it.
        if self._hash is None:
            if self._is_rational():
                self._hash = hash(Fraction(self.num[0], self.den))
            else:
                self._hash = hash((self.num, self.den))
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
        return self.field.interval_of(self.num, eps, self.den)

    def __float__(self):
        if self._float is None:
            self._float = self.field.float_of(self.num, self.den)
        return self._float

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"{c}*c^{i}" if i > 1 else f"{c}*c"))
        return "(" + (" + ".join(terms) if terms else "0") + f" | L={self.field.L})"

