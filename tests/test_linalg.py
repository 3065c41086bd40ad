import itertools
import random
from fractions import Fraction

import pytest

from coxmin import linalg
from coxmin.errors import TheoremViolation
from coxmin.linalg import (cone_from_constraints, cone_point_avoiding,
                           kernel_basis, rank, rational_tuples, rref,
                           solve_in_span, subspace_contains, vec_dot)
from coxmin.scalars import get_field
from oracles import intersect_subspaces, relative_interior_point


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
    assert not subspace_contains(basis, _vec(f, 0, 0, 1), f)


def test_intersection():
    f = get_field(3)
    b1 = [_vec(f, 1, 0, 0), _vec(f, 0, 1, 0)]
    b2 = [_vec(f, 0, 1, 0), _vec(f, 0, 0, 1)]
    inter = intersect_subspaces(b1, b2, f)
    assert len(inter) == 1
    assert subspace_contains([_vec(f, 0, 1, 0)], inter[0], f)


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
