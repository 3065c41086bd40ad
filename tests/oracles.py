"""Brute-force oracles that only the tests use.

Each one recomputes, from root permutations or by exhaustive search, what
the package computes over its tables; the tests compare the two.
"""

import itertools
import math
import weakref
from fractions import Fraction

from coxmin.braid import TwistedBraid
from coxmin.coxeter import Chamber, GroupElement, compose, invert_perm
from coxmin.eigen import order, regular_point
from coxmin.errors import FieldTooSmall, TheoremViolation
from coxmin.linalg import (cone_from_constraints, in_span, kernel_basis, rref,
                           vec_add, vec_dot, vec_is_zero, vec_scale,
                           zero_vector)
from coxmin.scalars import AlgebraicScalar, _normal, get_field


def reference_table(system):
    """The group table built by a BFS keyed on full root permutations.

    Returns (perms, index, right, left, length): indices in breadth-first
    order by right multiplication, left multiplication looked up by
    permutation.
    """
    n = system.rank
    gens = system.reflections
    ident = system._identity_perm
    perms = [ident]
    index = {ident: 0}
    length = [0]
    right = [[0] for _ in range(n)]
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(n):
                py = compose(perms[x], gens[i])
                y = index.get(py)
                if y is None:
                    y = len(perms)
                    perms.append(py)
                    index[py] = y
                    length.append(length[x] + 1)
                    for tbl in right:
                        tbl.append(-1)
                    nxt.append(y)
                right[i][x] = y
        frontier = nxt
    left = [[index[compose(gens[i], p)] for p in perms] for i in range(n)]
    return perms, index, right, left, length


def _find(parent, x: int) -> int:
    """Root of x in a union-find forest (a list or a dict), compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a: int, b: int) -> bool:
    """Join the sets of a and b under the smaller root; False if already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


def _blocks(parent, items):
    """The sets of the forest, each listed in the order of `items`."""
    buckets = {}
    for x in items:
        buckets.setdefault(_find(parent, x), []).append(x)
    return list(buckets.values())


def classes_by_union_find(coset):
    """The class partition of the coset by one union-find over all of W,
    ordered as TwistedCoset.classes orders it."""
    size, length = coset.table.size, coset.table.length
    parent = list(range(size))
    for rrow, lrow in coset.steps:
        for x in range(size):
            _union(parent, x, lrow[rrow[x]])
    return sorted(_blocks(parent, range(size)),
                  key=lambda els: (min(length[x] for x in els), len(els), els[0]))


def approx_blocks_by_union_find(record):
    """Blocks of O_min under equal-length simple conjugation: every edge
    inside O_min joined in one union-find, blocks sorted."""
    members = set(record.o_min)
    parent = {x: x for x in record.o_min}
    for x in record.o_min:
        for rrow, lrow in record.coset.steps:
            y = lrow[rrow[x]]
            if y in members:
                _union(parent, x, y)
    return sorted(_blocks(parent, record.o_min))


def arrow_depths_by_frontier(record):
    """Class element -> the fewest non-increasing steps from it into O_min,
    by a frontier search upward from O_min."""
    coset = record.coset
    depth = dict.fromkeys(record.o_min, 0)
    frontier = list(record.o_min)
    while frontier:
        nxt = []
        for y in frontier:
            ly = coset.length(y)
            for rrow, lrow in coset.steps:
                x = lrow[rrow[y]]
                if x not in depth and coset.length(x) >= ly:
                    depth[x] = depth[y] + 1
                    nxt.append(x)
        frontier = nxt
    return depth


def reverse_arrow_reach_by_frontier(record):
    """The class elements that reach O_min by non-increasing steps."""
    return set(arrow_depths_by_frontier(record))


def arrow_reach_by_frontier(coset, start: int):
    """Bodies reachable from `start` by non-increasing steps, by a frontier
    search."""
    reach = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            lx = coset.length(x)
            for rrow, lrow in coset.steps:
                y = lrow[rrow[x]]
                if y not in reach and coset.length(y) <= lx:
                    reach.add(y)
                    nxt.append(y)
        frontier = nxt
    return reach


def _simple_reflection(matrix, field, i: int, v):
    """s_i(v) = v - 2B(alpha_i, v) alpha_i with B_ij = -cos(pi/m_ij)."""
    c = field.zero
    for j, vj in enumerate(v):
        c = c + (vj if i == j else -(field.two_cos(Fraction(1, matrix[i, j])) / 2) * vj)
    img = list(v)
    img[i] = img[i] - (c + c)
    return tuple(img)


def reflections_from_roots(matrix, field, roots):
    """The simple reflections as permutations of the roots (the negative of
    root r at index r + N), each image reflected by the bilinear form and
    looked up."""
    signed = list(roots) + [tuple(-x for x in v) for v in roots]
    index = {v: r for r, v in enumerate(signed)}
    return [tuple(index[_simple_reflection(matrix, field, i, v)] for v in signed)
            for i in range(matrix.rank)]


def orbit_closure_roots(matrix, L):
    """The positive roots over the field of level lcm(L, matrix level).

    Orbit closure of the simple roots under s_i(v) = v - 2B(alpha_i, v)
    alpha_i with B_ij = -cos(pi/m_ij), breadth first (the frontier in order,
    then i), each image replaced by its positive counterpart.  Returns
    (field, roots).
    """
    field = get_field(math.lcm(matrix.field_level(), L))
    n = matrix.rank
    simple = [tuple(field.one if i == j else field.zero for j in range(n))
              for i in range(n)]
    roots, seen, frontier = list(simple), set(simple), list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                img = _simple_reflection(matrix, field, i, v)
                if any(x.sign() < 0 for x in img):
                    img = [-x for x in img]
                img = tuple(img)
                if img not in seen:
                    seen.add(img)
                    roots.append(img)
                    nxt.append(img)
        frontier = nxt
    return field, roots


def descent_stripping_certificate(w, class_bodies, table) -> bool:
    """The parabolic criterion by stripping left descents inside each J.

    x lies in W_J iff removing left descents in J reaches the identity; the
    class must miss every maximal proper d-stable W_J.
    """
    n = w.system.rank
    stable = [frozenset(J) for size in range(n)
              for J in itertools.combinations(range(n), size)
              if all(w.twist.perm[j] in J for j in J)]
    maximal = [J for J in stable if not any(J < K for K in stable)]
    for x in class_bodies:
        for J in maximal:
            y = x
            while True:
                msk = table.ldesc[y]
                i = next((i for i in J if msk >> i & 1), None)
                if i is None:
                    break
                y = table.left[i][y]
            if y == 0:
                return False
    return True


def twist_body(coset, perm):
    """Permutation of d^-k g d^k."""
    return coset.system.twist_conj(perm, coset.twist, -coset.k)


_TWISTED_INVERSES = weakref.WeakKeyDictionary()


def conjugate_by_index(coset, x: int, g: int) -> int:
    """Body index of (g^-1) (d^k x) g for an arbitrary g.

    d^-k g^-1 d^k depends on g alone, so it is kept per coset and g (for
    as long as the coset lives) for sweeps that conjugate every x by one g.
    """
    t = coset.table
    pg = t.perms[g]
    memo = _TWISTED_INVERSES.setdefault(coset, {})
    twisted_inv = memo.get(g)
    if twisted_inv is None:
        twisted_inv = memo[g] = twist_body(coset, invert_perm(pg))
    return t.index[compose(twisted_inv, compose(t.perms[x], pg))]


def conj(coset, x: int, i: int) -> int:
    """Body index of s_i (d^k x) s_i."""
    rrow, lrow = coset.steps[i]
    return lrow[rrow[x]]


def brute_strong_targets(coset, x: int):
    """Bodies elementarily strongly conjugate to d^k x, by a scan of all W.

    The oracle of conjugacy.elementary_strong_targets: each target once, in
    the order of the conjugators g that witness it.
    """
    t = coset.table
    length = t.length
    lw = length[x]
    targets = set()
    px = t.perms[x]
    for g in range(t.size):
        pg = t.perms[g]
        gb = twist_body(coset, pg)
        left_len = length[t.index[compose(gb, px)]]
        right_len = length[t.index[compose(px, invert_perm(pg))]]
        if left_len == length[g] + lw or right_len == length[g] + lw:
            # y = g (d^k x) g^-1, body d^{-k}(g) x g^-1.
            y = t.index[compose(gb, compose(px, invert_perm(pg)))]
            if length[y] == lw and y not in targets:
                targets.add(y)
                yield y


# ---------------------------------------------------------------------------
# Reference constructions the package no longer carries.


def reflect_vector(system, root_idx: int, v):
    """s_alpha(v) = v - 2 <alpha, v> alpha, by the bilinear form."""
    alpha = system.root_vector(root_idx)
    c = system.inner(alpha, v)
    two_c = c + c
    return tuple(x - two_c * a for x, a in zip(v, alpha))


def reflection_element(system, root_idx: int):
    """The reflection s_H for the hyperplane of the given root."""
    if root_idx >= system.npos:
        root_idx -= system.npos
    perm = tuple(system.root_index(reflect_vector(system, root_idx, system.root_vector(r)))
                 for r in range(system.nroots))
    return GroupElement(system, perm)


def all_roots_chamber_cone(system, basis, chamber):
    """The closed chamber's cone in K = span(basis) from every root missing K.

    Each positive root whose hyperplane misses K gives the half-space of
    its sign on the chamber.  Returns basis coordinates of a point of the
    cone on none of those hyperplanes, or None when there is none.
    """
    field = system.field
    rows = list(zip(*[system.root_pairings(b) for b in basis]))
    avoid = {r: tuple(_normal(field, num, den) for num, den in rows[r])
             for r in range(system.npos) if any(any(num) for num, _ in rows[r])}
    constraints = [row if chamber.sign(r) > 0 else tuple(-x for x in row)
                   for r, row in avoid.items()]
    cone = cone_from_constraints(field, len(basis), constraints)
    return cone_point_avoiding(cone, list(avoid.values()), constraints)


def cone_point_avoiding(cone, avoid, constraints):
    """A point of the cone on none of the `avoid` hyperplanes.

    None exactly when the cone's span lies in one of them; otherwise p(t) for
    the least t = 1, 2, ... that avoids them all.  With g_0, ..., g_{G-1}
    the cone's lines and then its rays, p(t) = sum_j t^j g_j lies in the
    cone for t > 0, and <h, p(t)> is a polynomial in t of degree below G.
    It is zero exactly when h contains span(cone), and otherwise vanishes at
    no more than G - 1 values of t.  So some t <= (G - 1) * #avoid + 1
    avoids every hyperplane that misses span(cone).
    p(1) is tried first with one dot product per hyperplane; the table of
    <h, g_j> is built only when p(1) lies on one of them.
    A run past the bound, or a point failing the exact check against the
    cone's `constraints`, means a wrong double description: TheoremViolation.
    """
    field = cone.field
    gens = list(cone.lines) + list(cone.rays)
    if not gens:
        return None

    def point(t):
        p = zero_vector(field, cone.dim)
        for j, g in enumerate(gens):
            p = vec_add(p, vec_scale(field.from_rational(t ** j), g))
        return p

    p = point(1)
    if any(vec_dot(h, p).is_zero() for h in avoid):
        # t = 1 fails; polys[i][j] = <avoid_i, g_j> are the coefficients of
        # <avoid_i, p(t)>.
        polys = [[vec_dot(h, g) for g in gens] for h in avoid]
        if any(all(c.is_zero() for c in poly) for poly in polys):
            return None
        bound = (len(gens) - 1) * len(avoid) + 1
        t = next((t for t in range(2, bound + 1) if not any(
            sum((c * t ** j for j, c in enumerate(poly)), field.zero).is_zero()
            for poly in polys)), None)
        if t is None:
            raise TheoremViolation(f"no t <= {bound} avoids every hyperplane")
        p = point(t)
    if any(vec_dot(a, p).sign() < 0 for a in constraints):
        raise TheoremViolation("a positive combination of the generators "
                               "leaves the cone")
    return p


def intersect_subspaces(b1, b2, field):
    """Basis of span(b1) & span(b2)."""
    if not b1 or not b2:
        return []
    n = len(b1[0])
    # Kernel of the matrix whose columns are the b1 and b2 vectors: a kernel
    # element (x, y) has sum x_i b1_i = -sum y_j b2_j in the intersection.
    rows = [tuple(col) for col in zip(*(list(b1) + list(b2)))]
    ker = kernel_basis(rows, len(b1) + len(b2), field)
    out = []
    for k in ker:
        v = zero_vector(field, n)
        for x, b in zip(k[: len(b1)], b1):
            v = vec_add(v, vec_scale(x, b))
        if not vec_is_zero(v):
            out.append(v)
    return rref(out)[0]


def subspace_contains(basis, v) -> bool:
    """Whether v lies in span(basis), by a fresh RREF of the basis."""
    return in_span(*rref(basis), v)


def rref_by_inverses(rows):
    """Reduced row echelon form over the scalars themselves: each pivot row
    is scaled by the pivot's inverse before it clears its column."""
    work = [list(r) for r in rows if not vec_is_zero(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if not work[i][c].is_zero()), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = work[r][c].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def solve_in_span(basis, v, field):
    """Coordinates of v in span(basis), or None if v is outside, from an
    elimination on the augmented system basis^T x = v."""
    if not basis:
        return [] if vec_is_zero(v) else None
    m = len(basis)
    aug = [tuple(b[i] for b in basis) + (v[i],) for i in range(len(v))]
    red, pivots = rref_by_inverses(aug)
    if m in pivots:
        return None  # inconsistent
    coords = [field.zero] * m
    for row, p in zip(red, pivots):
        coords[p] = row[m]
    return coords


def relative_interior_point(cone):
    """The sum of the cone's rays."""
    v = zero_vector(cone.field, cone.dim)
    for r in cone.rays:
        v = vec_add(v, r)
    return v


def lex_chamber_by_reflection(filtration, start_index=0):
    """The good-position chamber's lexicographic walk on exact points.

    The chamber of p = x_1 + eps x_2 + ... (regular points of the growth
    levels F_i, then of V, eps symbolic): while some simple root pairs
    negatively with p, reflect every x_i by the least such s_i, and pair
    them all again.  Returns the chamber g^-1(C) for the product g of the
    reflections.
    """
    system = filtration.system
    field, n = system.field, system.rank
    points = [regular_point(system, basis, start_index=start_index)
              for prev, basis in zip(filtration.f_bases, filtration.f_bases[1:])
              if len(basis) > len(prev)]
    ident = [tuple(field.one if i == j else field.zero for j in range(n))
             for i in range(n)]
    points.append(regular_point(system, ident, start_index=start_index))

    def lex_sign(i):
        for p in points:
            s = field.sign_of(system.pairing(i, p)[0])
            if s:
                return s
        return 0

    g = system.identity
    while True:
        i = next((i for i in range(n) if lex_sign(i) < 0), None)
        if i is None:
            return Chamber(system, g.inverse())
        points = [reflect_vector(system, i, p) for p in points]
        g = system.generator(i) * g


def normal_form_is_valid(nf) -> bool:
    """No identity factor, and every adjacent pair left-weighted."""
    t = nf.context.table
    if any(f == 0 for f in nf.factors):
        return False
    return all(not (t.ldesc[b] & ~t.rdesc[a])
               for a, b in zip(nf.factors, nf.factors[1:]))


def expand_normal_form(nf):
    """A positive braid word spelling the normal form."""
    letters = []
    for f in nf.factors:
        letters.extend(nf.context.table.element(f).to_word())
    return TwistedBraid(nf.context, nf.k, tuple(letters))


def to_word_by_descents(element):
    """Lexicographically smallest reduced word, one group product per letter:
    strip the least left descent of the current element until none is left."""
    system = element.system
    word = []
    cur = element
    while True:
        ld = cur.left_descents()
        if not ld:
            return word
        i = min(ld)
        word.append(i)
        cur = system.generator(i) * cur


# ---------------------------------------------------------------------------
# The field layer in Fraction arithmetic, as it was before it ran on integers.


def _fpoly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _fpoly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        coef = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = coef
        for j, bj in enumerate(b):
            a[shift + j] -= coef * bj
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _fpoly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def euclid_inverse(s):
    """(num/den)^-1 = den * u for u with u*num + v*minpoly = 1 in Q[x], by
    the extended Euclidean algorithm on Fraction polynomials; the rational
    coefficients of the inverse."""
    field = s.field
    r0 = list(field.minpoly)
    r1 = _fpoly_trim([Fraction(n) for n in s.num])
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, rem = _fpoly_divmod(r0, r1)
        r0, r1 = r1, rem
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                prod[i + j] += qi * sj
        diff = list(s0) + [Fraction(0)] * max(len(prod) - len(s0), 0)
        for i, pi in enumerate(prod):
            diff[i] -= pi
        s0, s1 = s1, _fpoly_trim(diff)
    scale = Fraction(s.den) / r1[0]
    coeffs = [x * scale for x in s1]
    return tuple(coeffs) + (Fraction(0),) * (field.degree - len(coeffs))


def fraction_sturm_intervals(minpoly):
    """The isolating intervals (lo, hi) of the largest real root of a
    minimal polynomial of degree >= 2: the one a Sturm bisection of
    [-3, 2] gives, then the one after each halving, forever."""
    chain = [list(minpoly), [i * c for i, c in enumerate(minpoly)][1:]]
    while len(chain[-1]) > 1:
        r = _fpoly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x):
        signs = [v > 0 for v in (_fpoly_eval(p, x) for p in chain) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    lo, hi = Fraction(-3), Fraction(2)
    while variations(lo) - variations(hi) > 1:
        mid = (lo + hi) / 2
        if variations(mid) - variations(hi) >= 1:
            lo = mid
        else:
            hi = mid
    while True:
        yield lo, hi
        mid = (lo + hi) / 2
        fm, fl = _fpoly_eval(minpoly, mid), _fpoly_eval(minpoly, lo)
        if fl == 0 or (fl > 0) != (fm > 0):
            hi = mid
        else:
            lo = mid


def fractions_by_height_boxes():
    """Q ordered by height max(|a|, b), ties by value: each box
    [-h, h] x [1, h] scanned whole, the fractions seen before dropped."""
    yield Fraction(0)
    seen = {Fraction(0)}
    for h in itertools.count(1):
        batch = []
        for b in range(1, h + 1):
            for a in range(-h, h + 1):
                f = Fraction(a, b)
                if f not in seen:
                    seen.add(f)
                    batch.append(f)
        yield from sorted(batch)


def mat_mul(a, b):
    """The matrix product a b over the scalars."""
    bt = list(zip(*b))
    return [tuple(vec_dot(row, col) for col in bt) for row in a]


def traces_by_matrix_powers(w, d):
    """tr(M^j) for j = 0..d-1 from d products of n x n matrices."""
    field, n = w.system.field, w.system.rank
    m = w.matrix()
    acc = [tuple(field.one if i == j else field.zero for j in range(n))
           for i in range(n)]
    traces = []
    for _ in range(d):
        tr = acc[0][0]
        for i in range(1, n):
            tr = tr + acc[i][i]
        traces.append(tr)
        acc = mat_mul(acc, m)
    return traces


def decompose_by_full_scan(w):
    """(owner, entries) of w's eigen-angle decomposition from a kernel solve
    at every angle 2k/d, ascending, in the field view that holds them."""
    d = order(w)
    system = w.system
    try:
        system.field.two_cos(Fraction(2, d))
    except FieldTooSmall:
        system = system.with_field_level(Fraction(2, d).denominator)
        w = w.over(system)
    field, n = system.field, system.rank
    s = [tuple(a + b for a, b in zip(ra, rb))
         for ra, rb in zip(w.matrix(), w.inverse().matrix())]
    entries = []
    for k in range(d // 2 + 1):
        q = Fraction(2 * k, d)
        c2 = field.two_cos(q)
        rows = [tuple(s[i][j] - (c2 if i == j else field.zero) for j in range(n))
                for i in range(n)]
        basis = kernel_basis(rows, n, field)
        if basis:
            entries.append((q, len(basis), basis))
    return w, entries


def embed_by_horner(field, s):
    """s re-expressed at the level of `field` by Horner's rule in field
    products at c_src = 2cos(pi/L_src)."""
    image = field.two_cos(Fraction(1, s.field.L))
    acc = field.zero
    for coef in reversed(s.num):
        acc = acc * image + coef
    return _normal(field, acc.num, s.den)


def times_gen_by_product(field, num):
    """The numerators of c * num by a field product with the generator."""
    return (AlgebraicScalar(field, tuple(num)) * field.gen).num
