import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from coxmin.scalars import (ScalarField, _normal, cyclotomic, get_field,
                            minpoly_two_cos_pi_over)
from coxmin.errors import FieldMismatch, FieldTooSmall, ScalarDomainError
from oracles import (embed_by_horner, euclid_inverse, fraction_sturm_intervals,
                     times_gen_by_product)


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(10) == (1, -1, 1, -1, 1)


def test_minpoly_known_values():
    # 2cos(pi/2) = 0, 2cos(pi/3) = 1, 2cos(pi/5) = golden ratio.
    assert minpoly_two_cos_pi_over(2) == (Fraction(0), Fraction(1))
    assert minpoly_two_cos_pi_over(3) == (Fraction(-1), Fraction(1))
    assert minpoly_two_cos_pi_over(5) == (Fraction(-1), Fraction(-1), Fraction(1))
    # Degree is phi(2L)/2.
    assert len(minpoly_two_cos_pi_over(15)) - 1 == 4
    assert len(minpoly_two_cos_pi_over(30)) - 1 == 8


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7, 12, 15, 30])
def test_generator_value(L):
    f = get_field(L)
    assert abs(float(f.gen) - 2 * math.cos(math.pi / L)) < 1e-12


@pytest.mark.parametrize("L,q", [(4, Fraction(1, 2)), (12, Fraction(5, 6)),
                                 (15, Fraction(2, 5)), (30, Fraction(7, 15))])
def test_two_cos(L, q):
    f = get_field(L)
    s = f.two_cos(q)
    assert abs(float(s) - 2 * math.cos(float(q) * math.pi)) < 1e-12


@pytest.mark.parametrize("L", [1, 4, 5])
@pytest.mark.parametrize("q,value", [(Fraction(0), 2), (Fraction(1, 3), 1),
                                     (Fraction(1, 2), 0), (Fraction(2, 3), -1),
                                     (Fraction(1), -2)])
def test_two_cos_rational_at_any_level(L, q, value):
    f = get_field(L)
    s = f.two_cos(q)
    assert s == f.from_rational(value)
    assert s == value
    # The same value for the angle folded into [0, 1].
    assert f.two_cos(q + 2) == s and f.two_cos(2 - q) == s


def test_two_cos_needs_field_level():
    f = get_field(3)
    with pytest.raises(FieldTooSmall):
        f.two_cos(Fraction(1, 4))


def test_sign_is_total_and_exact():
    f = get_field(15)
    c = f.gen
    # c is a root of its minimal polynomial: exact zero.
    mp = f.minpoly
    acc = f.zero
    for coef in reversed(mp):
        acc = acc * c + f.from_rational(coef)
    assert acc.is_zero() and acc.sign() == 0
    # Tiny but nonzero differences get a definite sign.
    lo, hi = c.interval(Fraction(1, 10 ** 30))
    assert (c - f.from_rational(lo)).sign() == 1
    assert (c - f.from_rational(hi)).sign() == -1


def test_embedding_compatible_with_arithmetic():
    f3, f15 = get_field(3), get_field(15)
    a = f3.gen + f3.from_rational(Fraction(2, 7))
    img = f15.embed_from(a * a)
    img2 = f15.embed_from(a) * f15.embed_from(a)
    assert img == img2


def test_times_gen_and_embedding_match_field_products():
    # At every level up to 30: multiplying by c on integers equals the field
    # product with the generator, and the embedding of scalars of every
    # dividing level, read off the table of powers, equals Horner's rule in
    # field products (twice, so the table is served from memory too).
    rng = random.Random(24)
    for L in range(1, 31):
        f = get_field(L)
        for _ in range(8):
            num = tuple(rng.randint(-50, 50) for _ in range(f.degree))
            assert f.times_gen(num) == times_gen_by_product(f, num), L
        for level in [k for k in range(1, L + 1) if L % k == 0]:
            src = get_field(level)
            scalars = [src.zero, src.one, src.gen] + [
                src.scalar([Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                            for _ in range(src.degree)]) for _ in range(4)]
            for _ in range(2):
                for s in scalars:
                    assert f.embed_from(s) == embed_by_horner(f, s), (level, L)


def _counting_refines(field):
    """Count field.refine calls from here on, in a one-element list."""
    calls, refine = [0], field.refine

    def counted():
        calls[0] += 1
        refine()
    field.refine = counted
    return calls


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 8, 15, 30]),
       st.lists(st.tuples(st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8),
                          st.integers(1, 10**6), st.integers(1, 10**4)),
                min_size=1, max_size=6))
def test_float_of_does_not_depend_on_scale(L, values):
    # Two fresh fields read the same values in step: float_of on (g num,
    # g den) gives the same float, after the same refinements, as float()
    # of the normalized scalar num / den.
    scaled, normal = ScalarField(L), ScalarField(L)
    calls_scaled, calls_normal = _counting_refines(scaled), _counting_refines(normal)
    for num, den, g in values:
        num = tuple(num[:scaled.degree])
        a = scaled.float_of(tuple(g * x for x in num), g * den)
        b = float(_normal(normal, num, den))
        assert a == b
        assert calls_scaled == calls_normal
        assert (scaled._ilo, scaled._ihi, scaled._k) == \
            (normal._ilo, normal._ihi, normal._k)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4))
def test_ring_axioms_L15(xs, ys):
    f = get_field(15)
    a, b = f.scalar(xs), f.scalar(ys)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + f.one) == a * b + a
    assert (a - b) + b == a


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2))
def test_inverse_roundtrip_L5(xs):
    f = get_field(5)
    a = f.scalar(xs)
    if not a.is_zero():
        assert (a * a.inverse() - f.one).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2))
def test_order_consistent_with_float(xs, ys):
    f = get_field(5)
    a, b = f.scalar(xs), f.scalar(ys)
    if a == b:
        return
    assert (a < b) == (float(a) < float(b))


def test_interval_brackets_value():
    f = get_field(7)
    s = f.gen * f.gen - f.from_rational(Fraction(1, 3))
    lo, hi = s.interval(Fraction(1, 10 ** 9))
    assert lo <= Fraction(float(s)).limit_denominator(10 ** 12) <= hi or \
        float(hi - lo) < 1e-8
    assert hi - lo < Fraction(1, 10 ** 9)


# ---------------------------------------------------------------------------
# Differential test: the integer-vector scalars against plain Fraction
# polynomials reduced modulo the minimal polynomial.


def _ref_reduce(p, mp):
    p = list(p)
    m = len(mp) - 1
    for k in range(len(p) - 1, m - 1, -1):
        top = p[k]
        if top:
            for i in range(m + 1):
                p[k - m + i] -= top * mp[i]
    return tuple(p[:m]) + (Fraction(0),) * (m - len(p))


def _ref_mul(a, b, mp):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, mp)


def _ref_inverse(a, mp):
    """Solve a * x = 1 by Gaussian elimination on the multiplication matrix."""
    m = len(a)
    cols = []
    basis_img = list(a)
    for _ in range(m):  # column j holds a * c^j
        cols.append(basis_img)
        basis_img = _ref_reduce([Fraction(0)] + list(basis_img), mp)
    rows = [[cols[j][i] for j in range(m)] + [Fraction(int(i == 0))]
            for i in range(m)]
    for c in range(m):
        piv = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[m] for row in rows)


def _ref_interval(coeffs, lo, hi):
    """Interval Horner in rationals on [lo, hi]."""
    rl = rh = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        cands = (rl * lo, rl * hi, rh * lo, rh * hi)
        rl, rh = min(cands) + c, max(cands) + c
    return rl, rh


def _isolating_interval(f):
    """The generator's isolating interval as Fractions."""
    return Fraction(f._ilo, 1 << f._k), Fraction(f._ihi, 1 << f._k)


def _mpf(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _ref_value(coeffs, L):
    c = 2 * mpmath.cos(mpmath.pi / L)
    return sum(_mpf(x) * c ** i for i, x in enumerate(coeffs))


def _assert_normal(s):
    assert s.den > 0
    assert math.gcd(s.den, *s.num) == 1
    assert len(s.num) == s.field.degree
    assert all(type(n) is int for n in s.num)
    # Another construction of the same value: equal, with an equal hash.
    again = s.field.scalar(s.coeffs)
    assert again == s and hash(again) == hash(s)
    if not any(s.num[1:]):
        q = Fraction(s.num[0], s.den)
        assert s == q and hash(s) == hash(q)


LEVELS = [1, 4, 5, 10, 12, 30, 60]
small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_differential_against_fraction_polynomials(data):
    L = data.draw(st.sampled_from(LEVELS))
    f = get_field(L)
    m, mp = f.degree, f.minpoly
    xs = tuple(data.draw(st.lists(small, min_size=m, max_size=m)))
    ys = tuple(data.draw(st.lists(small, min_size=m, max_size=m)))
    r = data.draw(small)
    a, b = f.scalar(xs), f.scalar(ys)
    assert a.coeffs == xs and b.coeffs == ys
    cases = {
        "add": (a + b, tuple(x + y for x, y in zip(xs, ys))),
        "sub": (a - b, tuple(x - y for x, y in zip(xs, ys))),
        "mul": (a * b, _ref_mul(xs, ys, mp)),
        "rational mul": (r * a, tuple(r * x for x in xs)),
        "rational sub": (r - a, (r - xs[0],) + tuple(-x for x in xs[1:])),
    }
    if any(ys):
        cases["inverse"] = (b.inverse(), _ref_inverse(ys, mp))
        cases["div"] = (a / b, _ref_mul(xs, _ref_inverse(ys, mp), mp))
    for name, (got, want) in cases.items():
        assert got.coeffs == want, name
        assert got == f.scalar(want), name
        _assert_normal(got)
    for s, coeffs in [(a, xs), (a * b, cases["mul"][1])]:
        eps = Fraction(1, 10 ** data.draw(st.integers(3, 30)))
        lo, hi = s.interval(eps)
        assert lo <= hi and hi - lo < eps
        # The same interval as the rational Horner on the current isolating
        # interval, and it brackets the value.
        if m > 1:
            assert (lo, hi) == _ref_interval(coeffs, *_isolating_interval(f))
        with mpmath.workdps(80):
            value = _ref_value(coeffs, L)
            tol = mpmath.mpf(10) ** -70
            assert _mpf(lo) - tol <= value <= _mpf(hi) + tol
            want_sign = 0 if not any(coeffs) else (1 if value > 0 else -1)
        assert s.sign() == want_sign


@pytest.mark.parametrize("L", LEVELS)
def test_normal_form_and_hash(L):
    f = get_field(L)
    assert f.zero.num == (0,) * f.degree and f.zero.den == 1
    half = f.from_rational(Fraction(1, 2))
    assert (half + half) == f.one and (half + half).den == 1
    assert hash(f.one) == hash(1) and f.one == 1 and f.one == Fraction(1)
    assert hash(half) == hash(Fraction(1, 2))
    x = f.gen * Fraction(2, 6) + Fraction(1, 3)
    assert x.den in (1, 3) and math.gcd(x.den, *x.num) == 1
    assert (x - x).num == (0,) * f.degree and (x - x).den == 1
    assert -(x - x) == f.zero


# ---------------------------------------------------------------------------
# Typed errors on malformed scalar operations (no assert: they hold under -O).


def test_mixed_levels_raise_typed_error():
    a, b = get_field(4).gen, get_field(5).gen
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
               lambda: a < b):
        with pytest.raises(FieldMismatch):
            op()
    assert a != b


def test_scalar_domain_errors():
    f = get_field(5)
    with pytest.raises(ScalarDomainError):
        f.zero.inverse()
    with pytest.raises(ScalarDomainError):
        f.one / f.zero
    with pytest.raises(ScalarDomainError):
        f.scalar([1, 2, 3])
    with pytest.raises(ScalarDomainError):
        get_field(0)
    with pytest.raises(FieldMismatch):
        get_field(10).embed_from(get_field(4).gen)
    assert get_field(10).embed_from(f.gen) == get_field(10).two_cos(Fraction(1, 5))


def test_scalar_errors_survive_optimize():
    # The same typed errors under python -O, where an assert would vanish.
    script = (
        "from coxmin.errors import FieldMismatch, ScalarDomainError\n"
        "from coxmin.scalars import get_field\n"
        "cases = [(FieldMismatch, lambda: get_field(4).gen + get_field(5).gen),\n"
        "         (FieldMismatch, lambda: get_field(10).embed_from(get_field(4).gen)),\n"
        "         (ScalarDomainError, lambda: get_field(5).zero.inverse()),\n"
        "         (ScalarDomainError, lambda: get_field(5).scalar([1, 2, 3]))]\n"
        "for err, call in cases:\n"
        "    try:\n"
        "        call()\n"
        "    except err:\n"
        "        print(err.__name__)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["FieldMismatch"] * 2 + ["ScalarDomainError"] * 2


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 7, 12, 30])
def test_float_is_the_rounded_interval_midpoint(L):
    # float() by one int true division against the Fraction midpoint of
    # interval(1e-17), at degree 1 and above, on fresh scalars.
    f = get_field(L)
    rng = random.Random(L)
    scalars = [f.scalar([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
                         for _ in range(f.degree)]) for _ in range(60)]
    # Values within 1e-12 of zero, where the interval's width shows in the
    # float's last digits.
    scalars += [s - s.interval(Fraction(1, 10 ** 12))[0] for s in scalars[:20]]
    for s in scalars:
        twin = f.scalar(s.coeffs)
        got = float(s)
        lo, hi = twin.interval(Fraction(1, 10 ** 17))
        assert got == float((lo + hi) / 2)
        if f.degree == 1:
            assert got == float(Fraction(s.num[0], s.den))


# ---------------------------------------------------------------------------
# The integer field layer against its Fraction references.


@pytest.mark.parametrize("L", [5, 7, 9, 12, 15, 20, 30, 60])
def test_cofactor_and_inverse_match_euclid(L):
    f = get_field(L)
    m = f.degree
    rng = random.Random(L)
    nums = [tuple(rng.randint(-30, 30) for _ in range(m)) for _ in range(40)]
    # Negative and non-primitive numerators, and a rational one.
    nums += [tuple(-x for x in nums[0]), tuple(6 * x for x in nums[1]),
             (-4,) + (0,) * (m - 1), (0,) * (m - 1) + (3,)]
    for num in nums:
        if not any(num):
            continue
        u, norm = f.cofactor(num)
        assert norm != 0 and all(type(x) is int for x in u)
        assert f.mul_num(num, u) == (norm,) + (0,) * (m - 1)
        for den in (1, 7):
            s = f.scalar([Fraction(n, den) for n in num])
            inv = s.inverse()
            assert inv.coeffs == euclid_inverse(s)
            _assert_normal(inv)


@pytest.mark.parametrize("L", [4, 5, 7, 12, 15, 20, 30, 60, 84])
def test_isolating_interval_matches_fraction_sturm(L):
    # A fresh field: the interval of its isolation, then after each of 60
    # halvings, with the least power of 2 over its ends.
    f = ScalarField(L)
    for want, _ in zip(fraction_sturm_intervals(f.minpoly), range(61)):
        assert _isolating_interval(f) == want
        assert f._k == max(x.denominator for x in want).bit_length() - 1
        f.refine()
