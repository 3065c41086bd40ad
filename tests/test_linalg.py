import itertools
import random
from fractions import Fraction

import pytest

from coxmin import linalg
from coxmin.errors import FieldMismatch, TheoremViolation
from coxmin.linalg import (cone_from_constraints, in_span, kernel_basis, rank,
                           rational_tuples, rref, subspace_equal, vec_add,
                           vec_dot, vec_scale)
from coxmin.scalars import get_field
from oracles import (cone_point_avoiding, fractions_by_height_boxes,
                     intersect_subspaces, relative_interior_point,
                     rref_by_inverses, solve_in_span, subspace_contains)

LEVELS = (1, 4, 5, 6, 12, 30)


def _vec(f, *vals):
    return tuple(f.from_rational(Fraction(v)) for v in vals)


def test_rref_rank_kernel():
    f = get_field(3)
    rows = [_vec(f, 1, 2, 3), _vec(f, 2, 4, 6), _vec(f, 0, 1, 1)]
    red, pivots = rref(rows)
    assert len(red) == 2 and pivots == [0, 1]
    assert rank(rows) == 2
    ker = kernel_basis(rows, 3, f)
    assert len(ker) == 1
    for row in rows:
        assert vec_dot(row, ker[0]).is_zero()


def test_solve_in_span():
    f = get_field(3)
    basis = [_vec(f, 1, 0, 1), _vec(f, 0, 1, 1)]
    v = _vec(f, 2, 3, 5)
    coords = solve_in_span(basis, v, f)
    assert coords is not None
    assert [float(c) for c in coords] == [2.0, 3.0]
    assert not subspace_contains(basis, _vec(f, 0, 0, 1))


def _random_scalar(f, rng):
    # Zero now and then; otherwise coefficients over mixed denominators.
    if rng.random() < 0.3:
        return f.zero
    return f.scalar([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 6)))
                     for _ in range(f.degree)])


def _combination(f, rng, rows, ncols):
    # Small rational coefficients keep the degree-8 entries small.
    v = (f.zero,) * ncols
    for row in rows:
        v = vec_add(v, vec_scale(f.from_rational(rng.randint(-3, 3)), row))
    return v


def _random_rows(f, rng):
    """1-6 rows of 1-6 columns (wide and tall), often with a zero row, a
    duplicate row or a combination of two rows added, in shuffled order."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [tuple(_random_scalar(f, rng) for _ in range(ncols)) for _ in range(nrows)]
    extra = rng.random()
    if extra < 0.25:
        rows.append((f.zero,) * ncols)
    elif extra < 0.5:
        rows.append(rng.choice(rows))
    elif extra < 0.75:
        rows.append(_combination(f, rng, rng.sample(rows, min(2, nrows)), ncols))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("L", LEVELS)
def test_rref_matches_elimination_by_inverses(L):
    f = get_field(L)
    rng = random.Random(L)
    deficient = 0
    for _ in range(60):
        rows = _random_rows(f, rng)
        red, pivots = rref(rows)
        assert (red, pivots) == rref_by_inverses(rows)
        deficient += len(red) < len(rows)
    assert deficient > 20


@pytest.mark.parametrize("L", LEVELS)
def test_span_tests_match_solve_in_span(L):
    # in_span, subspace_contains and subspace_equal against the coordinates
    # solved for on the augmented system, for vectors in and out of the span
    # and for spanning sets that are equal, smaller and larger.
    f = get_field(L)
    rng = random.Random(100 + L)
    verdicts = {True: 0, False: 0}
    # The oracle inverts dense pivots of degree 4 and 8 by Euclid over
    # fractions, which dominates the run time.
    trials = 40 if f.degree <= 2 else 15
    for _ in range(trials):
        basis = _random_rows(f, rng)
        ncols = len(basis[0])
        red, pivots = rref(basis)
        vectors = [rng.choice(basis), _combination(f, rng, basis, ncols),
                   tuple(_random_scalar(f, rng) for _ in range(ncols)),
                   (f.zero,) * ncols]
        for v in vectors:
            inside = solve_in_span(basis, v, f) is not None
            assert in_span(red, pivots, v) == inside
            assert subspace_contains(basis, v) == inside
            verdicts[inside] += 1
        others = [[_combination(f, rng, basis, ncols) for _ in basis] + list(red),
                  basis[:-1],
                  basis + [tuple(_random_scalar(f, rng) for _ in range(ncols))]]
        for other in others:
            equal = all(solve_in_span(basis, v, f) is not None for v in other) and \
                all(solve_in_span(other, v, f) is not None for v in basis)
            assert subspace_equal(basis, other) == equal
            assert subspace_equal(other, basis) == equal
            verdicts[equal] += 1
    assert min(verdicts.values()) > 10


def test_rref_rejects_rows_of_two_levels():
    f4, f5 = get_field(4), get_field(5)
    with pytest.raises(FieldMismatch):
        rref([(f4.gen, f4.one), (f5.one, f5.gen)])
    # Also when no elimination step would combine the two rows.
    with pytest.raises(FieldMismatch):
        rref([(f4.one, f4.zero), (f5.zero, f5.one)])


def test_intersection():
    f = get_field(3)
    b1 = [_vec(f, 1, 0, 0), _vec(f, 0, 1, 0)]
    b2 = [_vec(f, 0, 1, 0), _vec(f, 0, 0, 1)]
    inter = intersect_subspaces(b1, b2, f)
    assert len(inter) == 1
    assert subspace_contains([_vec(f, 0, 1, 0)], inter[0])


def test_rational_tuples_deterministic_and_dense():
    a = list(itertools.islice(rational_tuples(2), 40))
    b = list(itertools.islice(rational_tuples(2), 40))
    assert a == b
    assert a[0] == (Fraction(0), Fraction(0))
    assert len(set(a)) == 40
    # start_index shifts the same stream.
    c = list(itertools.islice(rational_tuples(2, 5), 10))
    assert c == a[5:15]
    # Both coordinates eventually vary.
    assert any(t[0] != 0 for t in a) and any(t[1] != 0 for t in a)


def _rational_tuples_filtered(m, start_index=0):
    """The generator before rings were built directly: it walks the whole
    box range(R + 1)^m of each ring R and drops the tuples with max < R."""
    fracs = []
    gen = linalg._fractions_by_height()

    def frac(i):
        while len(fracs) <= i:
            fracs.append(next(gen))
        return fracs[i]

    idx = 0
    for total in itertools.count(0):
        for split in itertools.product(range(total + 1), repeat=m):
            if max(split) != total:
                continue  # yielded in an earlier ring
            if idx >= start_index:
                yield tuple(frac(i) for i in split)
            idx += 1


def test_fractions_by_height_match_the_box_scan():
    # The rim of each height's box against the scan of the whole box.
    assert (list(itertools.islice(linalg._fractions_by_height(), 20000))
            == list(itertools.islice(fractions_by_height_boxes(), 20000)))


@pytest.mark.parametrize("m", range(1, 7))
def test_rational_tuples_rings_match_filtered_boxes(m):
    old = list(itertools.islice(_rational_tuples_filtered(m), 5021))
    assert list(itertools.islice(rational_tuples(m), 5000)) == old[:5000]
    assert list(itertools.islice(rational_tuples(m, 21), 5000)) == old[21:]


def test_cone_quadrant():
    f = get_field(3)
    # x >= 0, y >= 0 in the plane.
    cone = cone_from_constraints(f, 2, [_vec(f, 1, 0), _vec(f, 0, 1)])
    assert not cone.lines and len(cone.rays) == 2
    p = relative_interior_point(cone)
    assert float(p[0]) > 0 and float(p[1]) > 0


def test_cone_halfplane_has_line():
    f = get_field(3)
    cone = cone_from_constraints(f, 2, [_vec(f, 1, 0)])
    assert len(cone.lines) == 1 and len(cone.rays) == 1


def test_cone_point_avoiding_exact_negative():
    f = get_field(3)
    # Cone = the x-axis ray; avoiding the hyperplane y = 0 is impossible.
    cone = cone_from_constraints(f, 2, [_vec(f, 1, 0), _vec(f, 0, 1),
                                        _vec(f, 0, -1)])
    res = cone_point_avoiding(cone, [_vec(f, 0, 1)],
                              [_vec(f, 1, 0), _vec(f, 0, 1), _vec(f, 0, -1)])
    assert res is None
    # Avoiding x = y is possible.
    res = cone_point_avoiding(cone, [_vec(f, 1, -1)],
                              [_vec(f, 1, 0), _vec(f, 0, 1), _vec(f, 0, -1)])
    assert res is not None
    assert not vec_dot(_vec(f, 1, -1), res).is_zero()


def test_cone_simplex_3d():
    f = get_field(3)
    cons = [_vec(f, 1, 0, 0), _vec(f, 0, 1, 0), _vec(f, 0, 0, 1),
            _vec(f, 1, 1, -1)]
    cone = cone_from_constraints(f, 3, cons)
    p = relative_interior_point(cone)
    for c in cons:
        assert vec_dot(c, p).sign() >= 0
    span = cone.span()
    assert len(span) == 3


def test_cone_point_avoiding_steps_past_t1():
    # The quadrant's rays are e1, e2, so p(1) = (1, 1) lies on x = y and
    # p(2) = e1 + 2 e2 is the answer.
    f = get_field(1)
    cons = [_vec(f, 1, 0), _vec(f, 0, 1)]
    cone = cone_from_constraints(f, 2, cons)
    assert cone.rays == [_vec(f, 1, 0), _vec(f, 0, 1)]
    assert cone_point_avoiding(cone, [_vec(f, 1, -1)], cons) == _vec(f, 1, 2)


def test_cone_point_avoiding_with_a_line():
    # x >= 0 has the line e2 and the ray e1, so p(t) = (t, 1).  Avoiding
    # y = 0, x = y and x = 2y takes t = 3, within the bound (2-1)*3 + 1.
    f = get_field(1)
    cons = [_vec(f, 1, 0)]
    cone = cone_from_constraints(f, 2, cons)
    assert cone.lines == [_vec(f, 0, 1)] and cone.rays == [_vec(f, 1, 0)]
    avoid = [_vec(f, 0, 1), _vec(f, 1, -1), _vec(f, 1, -2)]
    assert cone_point_avoiding(cone, avoid, cons) == _vec(f, 3, 1)
    # The line's direction does not lie in the cone's boundary hyperplane.
    assert cone_point_avoiding(cone, [_vec(f, 1, 0)], cons) == _vec(f, 1, 1)


def test_cone_point_avoiding_random_property():
    # Over Q with small integer data: None exactly when the cone's span lies
    # in an avoided hyperplane, else a cone point on none of them.
    f = get_field(1)
    rng = random.Random(11)
    found = infeasible = 0
    for _ in range(300):
        dim = rng.choice((2, 3))
        cons = [_vec(f, *(rng.randint(-2, 2) for _ in range(dim)))
                for _ in range(rng.randint(1, 4))]
        avoid = [_vec(f, *(rng.randint(-2, 2) for _ in range(dim)))
                 for _ in range(rng.randint(0, 4))]
        cone = cone_from_constraints(f, dim, cons)
        span = cone.span()
        impossible = not span or any(
            all(vec_dot(h, b).is_zero() for b in span) for h in avoid)
        p = cone_point_avoiding(cone, avoid, cons)
        if impossible:
            assert p is None
            infeasible += 1
            continue
        assert p is not None
        assert all(vec_dot(a, p).sign() >= 0 for a in cons)
        assert all(not vec_dot(h, p).is_zero() for h in avoid)
        found += 1
    assert found > 50 and infeasible > 20


def test_cone_point_avoiding_catches_a_corrupt_cone():
    # A ray moved outside the constraints: the exact check of the chosen
    # point raises instead of returning a point outside the cone.
    f = get_field(1)
    cons = [_vec(f, 1, 0), _vec(f, 0, 1)]
    cone = cone_from_constraints(f, 2, cons)
    cone.rays[0] = _vec(f, -1, 0)
    with pytest.raises(TheoremViolation):
        cone_point_avoiding(cone, [], cons)
