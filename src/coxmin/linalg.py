"""Exact linear algebra over a scalar field, plus polyhedral cone support.

Vectors are tuples of AlgebraicScalar, matrices are lists of row vectors.
Dimensions here are tiny (the rank of the Coxeter system).

rref eliminates on integers.  Scaling a row does not change its span, so
each row is lowered to the numerators of its scalars over their common
denominator: plain ints at level 1, and integer polynomials in c of degree
below m otherwise (c is an algebraic integer, so their products reduce by
the field's integral table and stay integral).  A pivot p that is not a
rational integer is made one by scaling its row by the field's integer
cofactor u of p (p u is a nonzero integer; no scalar is built or inverted);
then each other row with f in the pivot column becomes d*row - f*pivot_row,
d the pivot's integer, and every row is divided by the gcd of all its
integer coefficients.  At the end each pivot row is divided by its pivot
integer.  The RREF of a row space is unique and the scalars' normal form
canonical, so the result is the one an elimination over the scalars
themselves gives.

A span test needs no new elimination: with (R, p) the RREF of a basis, v
lies in the span iff v - sum_k v[p_k] R_k is zero (in_span).

The double description machinery converts a cone {v : a_i . v >= 0} into a
generator form (lineality basis + extreme rays).  eigen uses it to decide
exactly whether a closed chamber contains a regular point of a subspace.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from .errors import FieldMismatch
from .scalars import AlgebraicScalar, ScalarField, _normal, _primitive

Vector = tuple[AlgebraicScalar, ...]
Matrix = list[Vector]


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_dot(u: Vector, v: Vector) -> AlgebraicScalar:
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def vec_is_zero(v: Vector) -> bool:
    return all(a.is_zero() for a in v)


def zero_vector(field: ScalarField, n: int) -> Vector:
    return (field.zero,) * n


def rref(rows: Iterable[Vector]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Fraction-free (see the module docstring).  Rows of different field
    levels raise FieldMismatch.
    """
    rows = [r for r in rows if r]
    if not rows:
        return [], []
    field = rows[0][0].field
    levels = {s.field.L for r in rows for s in r}
    if len(levels) > 1:
        raise FieldMismatch(f"rref of rows at levels {sorted(levels)}")
    ops = _IntegerRows(field) if field.degree == 1 else _PolynomialRows(field)
    nonzero = ops.nonzero
    work = [row for row in map(ops.lower, rows) if any(map(nonzero, row))]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(work)) if nonzero(work[i][c])), None)
        if pr is None:
            continue
        d, prow = ops.pivot(work[pr], c)
        work[pr] = work[r]
        work[r] = prow
        for i, row in enumerate(work):
            if i != r and nonzero(row[c]):
                work[i] = ops.combine(d, row, row[c], prow)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [ops.finish(row, c) for row, c in zip(work, pivots)], pivots


class _IntegerRows:
    """Level 1: a row is a list of ints, its scalars over one common
    denominator."""

    nonzero = staticmethod(bool)

    def __init__(self, field: ScalarField):
        self.field = field

    def lower(self, row: Vector) -> list[int]:
        den = math.lcm(*[s.den for s in row])
        return _primitive([s.num[0] * (den // s.den) for s in row])

    @staticmethod
    def pivot(row: list[int], c: int) -> tuple[int, list[int]]:
        return row[c], row

    def combine(self, d: int, x: list[int], f: int, y: list[int]) -> list[int]:
        return _primitive([d * a - f * b for a, b in zip(x, y)])

    def finish(self, row: list[int], c: int) -> Vector:
        field, d = self.field, row[c]
        return tuple([_normal(field, (a,), d) for a in row])


class _PolynomialRows:
    """Degree m >= 2: a row is a list of integer m-tuples, its scalars'
    numerators over one common denominator.  Products reduce by the
    field's integral table."""

    nonzero = staticmethod(any)

    def __init__(self, field: ScalarField):
        self.field = field
        self.mul = field.mul_num

    def lower(self, row: Vector) -> list[tuple[int, ...]]:
        den = math.lcm(*[s.den for s in row])
        return self.primitive([tuple([n * (den // s.den) for n in s.num]) for s in row])

    def pivot(self, row, c: int) -> tuple[int, list[tuple[int, ...]]]:
        """(d, row') with row' a multiple of row whose entry c is d, an integer."""
        p = row[c]
        if any(p[1:]):
            u = self.field.cofactor(p)[0]
            row = self.primitive([self.mul(u, a) for a in row])
        return row[c][0], row

    def combine(self, d: int, x, f, y) -> list[tuple[int, ...]]:
        mul = self.mul
        return self.primitive([tuple([d * u - v for u, v in zip(a, mul(f, b))])
                               if any(b) else tuple([d * u for u in a])
                               for a, b in zip(x, y)])

    def finish(self, row, c: int) -> Vector:
        field, d = self.field, row[c][0]
        return tuple([_normal(field, a, d) for a in row])

    @staticmethod
    def primitive(row: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The row divided by the content of all its coefficients."""
        g = math.gcd(*itertools.chain.from_iterable(row))
        return [tuple([n // g for n in a]) for a in row] if g > 1 else row


def rank(rows: Iterable[Vector]) -> int:
    return len(rref(rows)[0])


def mat_inverse(rows: Matrix, field: ScalarField) -> Matrix | None:
    """Rows of the inverse of the n x n matrix `rows`; None if singular."""
    n = len(rows)
    red, pivots = rref([tuple(row) + tuple(field.one if i == j else field.zero
                                           for j in range(n))
                        for i, row in enumerate(rows)])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def kernel_basis(rows: Matrix, ncols: int, field: ScalarField) -> Matrix:
    """Basis of {v : M v = 0} for M given by rows of length ncols."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def in_span(red: Matrix, pivots: Sequence[int], v: Vector) -> bool:
    """Whether v lies in the row space of the RREF (red, pivots).

    v - sum_k v[p_k] R_k is zero exactly then: row R_k is 1 at its pivot
    p_k and 0 at the others, so the difference vanishes at every pivot
    column and equals v's offset from the row space elsewhere.
    """
    for row, p in zip(red, pivots):
        if not v[p].is_zero():
            v = vec_sub(v, vec_scale(v[p], row))
    return vec_is_zero(v)


# ---------------------------------------------------------------------------
# Double description: cone {v : a . v >= 0 for all constraints}.


class Cone:
    """Generator form of a polyhedral cone: lineality basis plus rays."""

    def __init__(self, field: ScalarField, dim: int, lines: Matrix, rays: Matrix):
        self.field = field
        self.dim = dim
        self.lines = lines
        self.rays = rays


def cone_from_constraints(field: ScalarField, dim: int, constraints: Sequence[Vector]) -> Cone:
    """Double description method, rank-based adjacency test."""
    lines: Matrix = [tuple(field.one if i == j else field.zero for j in range(dim))
                     for i in range(dim)]
    rays: Matrix = []
    tight: list[set[int]] = []

    for idx, a in enumerate(constraints):
        vals_lines = [vec_dot(a, l) for l in lines]
        pivot = next((i for i, v in enumerate(vals_lines) if not v.is_zero()), None)
        if pivot is not None:
            l0 = lines[pivot]
            v0 = vals_lines[pivot]
            if v0.sign() < 0:
                l0 = vec_scale(field.from_rational(-1), l0)
                v0 = -v0
            new_lines = []
            for i, l in enumerate(lines):
                if i == pivot:
                    continue
                vl = vals_lines[i]
                new_lines.append(vec_sub(l, vec_scale(vl / v0, l0)) if not vl.is_zero() else l)
            new_rays = []
            for r, t in zip(rays, tight):
                vr = vec_dot(a, r)
                new_rays.append(vec_sub(r, vec_scale(vr / v0, l0)) if not vr.is_zero() else r)
                t.add(idx)
            lines = new_lines
            rays = new_rays
            rays.append(l0)
            tight.append(set(range(idx)))
            continue

        vals = [vec_dot(a, r) for r in rays]
        signs = [v.sign() for v in vals]
        if all(s == 0 for s in signs):
            for t in tight:
                t.add(idx)
            continue
        keep = [i for i, s in enumerate(signs) if s >= 0]
        plus = [i for i, s in enumerate(signs) if s > 0]
        minus = [i for i, s in enumerate(signs) if s < 0]
        new_rays = [rays[i] for i in keep]
        new_tight = [tight[i] | ({idx} if signs[i] == 0 else set()) for i in keep]
        lrank = len(lines)
        for ip, im in itertools.product(plus, minus):
            z12 = tight[ip] & tight[im]
            face = [rays[k] for k in range(len(rays))
                    if k not in (ip, im) and z12 <= tight[k]]
            if rank(list(lines) + face + [rays[ip], rays[im]]) != lrank + 2:
                continue  # not adjacent
            comb = vec_add(vec_scale(vals[ip], rays[im]), vec_scale(-vals[im], rays[ip]))
            if not vec_is_zero(comb):
                new_rays.append(comb)
                new_tight.append(z12 | {idx})
        rays, tight = new_rays, new_tight

    return Cone(field, dim, lines, rays)
