import itertools
import random
from fractions import Fraction

import pytest

from coxmin.coxeter import (Chamber, CoxeterMatrix, CoxeterSystem,
                            TwistedElement, build_system, compose,
                            conjugate_by_chamber, coset_decompose,
                            enumerate_twists, invert_perm,
                            is_minimal_double_coset_rep, named_matrix,
                            parabolic_max, untwisted)
from coxmin.eigen import eigen_decomposition, order
from coxmin.errors import NotFinite
from oracles import orbit_closure_roots, reflect_vector, reflections_from_roots


def bfs_word_lengths(system):
    """Breadth-first word search: the independent length oracle."""
    depth = {system.identity.perm: 0}
    frontier = [system.identity]
    d = 0
    while frontier:
        nxt = []
        d += 1
        for x in frontier:
            for i in range(system.rank):
                y = x * system.generator(i)
                if y.perm not in depth:
                    depth[y.perm] = d
                    nxt.append(y)
        frontier = nxt
    return depth


# Root counts: orbit-closure oracle values, cross-checked against the number
# of reflections of each type.
@pytest.mark.parametrize("name,npos", [
    ("A2", 3), ("A3", 6), ("A4", 10), ("B2", 4), ("B3", 9), ("B4", 16),
    ("D4", 12), ("F4", 24), ("G2", 6), ("H3", 15), ("H4", 60), ("I2(7)", 7),
    ("I2(12)", 12),
])
def test_root_counts(name, npos):
    system = build_system(named_matrix(name))
    assert system.npos == npos
    assert system.nroots == 2 * npos


def test_a1xa1_roots():
    system = build_system(CoxeterMatrix([[1, 2], [2, 1]]))
    assert system.npos == 2


def test_not_finite_rejected():
    with pytest.raises(NotFinite):
        build_system(CoxeterMatrix([[1, 6], [6, 1]]).__class__([[1, 7, 2],
                                                                [7, 1, 7],
                                                                [2, 7, 1]]))


def test_group_orders():
    for name, order in [("A3", 24), ("B3", 48), ("H3", 120), ("F4", 1152),
                        ("H4", 14400), ("D4", 192), ("I2(9)", 18)]:
        assert named_matrix(name).group_order() == order


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "I2(5)"])
def test_length_equals_bfs_word_search(name):
    system = build_system(named_matrix(name))
    oracle = bfs_word_lengths(system)
    assert len(oracle) == system.matrix.group_order()
    seen = set()
    for perm, depth in oracle.items():
        g = system.identity.__class__(system, perm)
        assert g.length() == depth
        seen.add(perm)
    assert len(seen) == len(oracle)  # the permutation action is faithful


def test_multiplication_examples():
    a2 = build_system(named_matrix("A2"))
    e = untwisted(a2.identity)
    assert (e * e).is_identity()
    # s1 * s2 has length 2 by the inversion-count oracle.
    s1s2 = a2.generator(0) * a2.generator(1)
    flips = 0
    for r in range(a2.npos):
        v = a2.root_vector(r)
        img = reflect_vector(a2, 0, reflect_vector(a2, 1, v))
        signs = {c.sign() for c in img if not c.is_zero()}
        if signs == {-1}:
            flips += 1
    assert s1s2.length() == flips == 2
    # Longest elements.
    assert parabolic_max(a2, [0, 1]).length() == 3
    f4 = build_system(named_matrix("F4"))
    assert parabolic_max(f4, range(4)).length() == 24


def test_bilinear_form_preserved():
    h3 = build_system(named_matrix("H3"))
    rng = random.Random(5)
    elems = [h3.generator(i) for i in range(3)]
    for _ in range(6):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 9))]
        elems.append(h3.element_from_word(word))
    probes = [h3.pos_roots[i] for i in (0, 4, 9)]
    for g in elems:
        for u, v in itertools.combinations(probes, 2):
            assert h3.inner(u, v) == h3.inner(g.apply(u), g.apply(v))


def test_separating_sets():
    a2 = build_system(named_matrix("A2"))
    C = Chamber.fundamental(a2)
    assert C.separating_set(C) == set()
    s1C = Chamber(a2, a2.generator(0))
    assert C.separating_set(s1C) == {0}
    w0C = Chamber(a2, a2.element_from_word([0, 1, 0]))
    assert C.separating_set(w0C) == {0, 1, 2}


@pytest.mark.parametrize("name", ["B2", "A3"])
def test_separating_count_is_length(name):
    system = build_system(named_matrix(name))
    tbl = system.table()
    chambers = [Chamber(system, tbl.element(i)) for i in range(tbl.size)]
    for a, b in itertools.islice(itertools.combinations(chambers, 2), 400):
        d = (a.x.inverse() * b.x).length()
        assert len(a.separating_set(b)) == d


def test_conjugate_by_chamber():
    b2 = build_system(named_matrix("B2"))
    tbl = b2.table()
    w = untwisted(b2.element_from_word([0, 1, 0]))
    for i in range(tbl.size):
        A = Chamber(b2, tbl.element(i))
        wa = conjugate_by_chamber(w, A)
        assert wa.length() == len(A.separating_set(A.image_under(w)))
    # A = C fixes the element; adjacent chambers conjugate by a simple.
    C = Chamber.fundamental(b2)
    assert conjugate_by_chamber(w, C) == w
    for i in range(2):
        A = C.cross(i)
        assert conjugate_by_chamber(w, A) == w.conjugate_by_simple(i)


def test_adjacent_chamber_conjugation_rule():
    a3 = build_system(named_matrix("A3"))
    tbl = a3.table()
    rng = random.Random(11)
    w = untwisted(tbl.element(17))
    for _ in range(40):
        A = Chamber(a3, tbl.element(rng.randrange(tbl.size)))
        i = rng.randrange(3)
        A2 = A.cross(i)
        lhs = conjugate_by_chamber(w, A2)
        rhs = conjugate_by_chamber(w, A).conjugate_by_simple(i)
        assert lhs == rhs


def test_coset_decompose():
    a3 = build_system(named_matrix("A3"))
    w0 = parabolic_max(a3, [0, 1, 2])
    wt = untwisted(w0)
    # J = S: the minimal rep is the twist-only part.
    u1, wp, u2 = coset_decompose(wt, [0, 1, 2])
    assert wp.length() == 0 and (u1 * u2).length() <= 6
    # J empty: nothing moves.
    u1, wp, u2 = coset_decompose(wt, [])
    assert u1.is_identity() and u2.is_identity() and wp.body == w0
    # Adjacent-pair parabolic: exhaustive-scan oracle gives minimum length 1.
    u1, wp, u2 = coset_decompose(wt, [0, 1])
    assert wp.length() == 1
    assert u1.length() + wp.length() + u2.length() == 6
    assert u1 * wp.body * u2 == w0
    assert is_minimal_double_coset_rep(wp, [0, 1])
    # The {s1, s3} parabolic: oracle minimum is 4.
    u1, wp, u2 = coset_decompose(wt, [0, 2])
    assert wp.length() == 4
    assert u1 * wp.body * u2 == w0


def test_parabolic_max_examples():
    h3 = build_system(named_matrix("H3"))
    assert parabolic_max(h3, []).is_identity()
    assert parabolic_max(h3, [1]) == h3.generator(1)
    w_j = parabolic_max(h3, [0, 1, 2])
    assert w_j.length() == 15
    # w_J maps the J-positive roots to negatives.
    for i in range(3):
        assert w_j.perm[i] >= h3.npos


@pytest.mark.parametrize("name,count", [
    ("A2", 2), ("B2", 2), ("H3", 1), ("A3", 2), ("D4", 6), ("F4", 2),
    ("A1", 1), ("I2(7)", 2),
])
def test_enumerate_twists(name, count):
    matrix = named_matrix(name)
    twists = enumerate_twists(matrix)
    assert len(twists) == count
    assert twists[0].is_identity()
    # Closed under composition.
    perms = {t.perm for t in twists}
    for a, b in itertools.product(twists, twists):
        comp = tuple(a.perm[x] for x in b.perm)
        assert comp in perms


def test_twist_defining_relation():
    a2 = build_system(named_matrix("A2"))
    delta = enumerate_twists(a2.matrix)[1]
    d = TwistedElement(a2, delta, 1, a2.identity)
    w = TwistedElement(a2, delta, 0, a2.generator(0))
    conj = d * w * d.inverse()
    assert conj.k == 0 and conj.body == a2.generator(1)
    # Twisted length convention.
    x = TwistedElement(a2, delta, 1, a2.element_from_word([0, 1]))
    assert x.length() == 2


def test_twisted_element_order_and_power():
    a2 = build_system(named_matrix("A2"))
    delta = enumerate_twists(a2.matrix)[1]
    d = TwistedElement(a2, delta, 1, a2.identity)
    sq = d * d
    assert sq.is_identity()


def test_with_field_level_preserves_combinatorics():
    b2 = build_system(named_matrix("B2"))
    big = b2.with_field_level(8)
    assert big.field.L == 8
    assert big.reflections == b2.reflections
    assert big.npos == b2.npos
    # One lift per level, memoized on the base; a lift of a lift resolves
    # through the base, and lifting to the current level is the identity.
    assert b2.with_field_level(8) is big
    assert big.with_field_level(8) is big
    assert big.with_field_level(4) is big
    assert big.with_field_level(3) is b2.with_field_level(24)
    assert b2.with_field_level(2) is b2
    # The combinatorial core is the base's own object.
    assert big.reflections is b2.reflections
    assert big.table() is b2.table()
    assert big.table().system is b2
    # Two elements that need the same larger field share one view of A4.
    a4 = build_system(named_matrix("A4"))
    tbl = a4.table()
    order5 = [w for w in map(untwisted, map(tbl.element, range(tbl.size)))
              if order(w) == 5][:2]
    assert len(order5) == 2 and order5[0] != order5[1]
    first, second = (eigen_decomposition(w, dft_check=False) for w in order5)
    assert first.system is second.system is a4.with_field_level(5)
    assert first.system.field.L == 5


# 2cos(pi/m) is rational for m = 2, 3, so only bond labels m >= 4 count.
@pytest.mark.parametrize("name,L", [
    ("A1", 1), ("A3", 1), ("A4", 1), ("D4", 1), ("E6", 1), ("E7", 1), ("E8", 1),
    ("B2", 4), ("B3", 4), ("B4", 4), ("F4", 4), ("H3", 5), ("H4", 5),
    ("G2", 6), ("I2(5)", 5), ("I2(7)", 7), ("I2(8)", 8), ("I2(12)", 12),
])
def test_field_level_by_type(name, L):
    assert named_matrix(name).field_level() == L


@pytest.mark.parametrize("name,L", [("B2", 8), ("A3", 12), ("H3", 30), ("F4", 24)])
def test_lift_roots_match_orbit_closure(name, L):
    """Embedded roots equal the roots built by orbit closure at that level."""
    base = build_system(named_matrix(name))
    lift = base.with_field_level(L)
    field, roots = orbit_closure_roots(base.matrix, L)
    ref = CoxeterSystem(base.matrix, field, roots,
                        reflections_from_roots(base.matrix, field, roots))
    assert lift.field is ref.field
    assert lift.pos_roots == ref.pos_roots
    assert ref.reflections == base.reflections
    for twist in enumerate_twists(base.matrix):
        assert lift.twist_root_perm(twist) == ref.twist_root_perm(twist)


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "F4"])
def test_twist_root_perm_powers(name):
    """Memoized powers against repeated composition of the root permutation."""
    system = build_system(named_matrix(name))
    p = system.reflections[0]
    for twist in enumerate_twists(system.matrix):
        rp = system.twist_root_perm(twist)
        power = system.identity.perm
        for m in range(2 * twist.order + 1):
            assert system.twist_root_perm(twist, m) == power
            assert system.twist_root_perm(twist, -m) == invert_perm(power)
            assert system.twist_conj(p, twist, m) == \
                compose(power, compose(p, invert_perm(power)))
            power = compose(rp, power)


def _random_scalar(field, rng):
    # Mixed denominators and a zero now and then.
    if rng.random() < 0.2:
        return field.zero
    return field.scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                         for _ in range(field.degree)])


@pytest.mark.parametrize("name,lift,L", [
    ("A3", None, 1), ("B3", None, 4), ("H3", None, 5), ("G2", None, 6),
    ("B3", 3, 12), ("H3", 6, 30), ("A3", 4, 4), ("G2", 4, 12),
    ("H4", 10, 10), ("H4", 15, 15), ("H4", 30, 30), ("A3", 3, 3)])
def test_pairing_kernel_matches_scalar_sum(name, lift, L):
    # num / den from the integer kernel against sum_j a_j v_j in field
    # arithmetic, a = B alpha_r, on random vectors, roots and zero vectors.
    # A lift pairs through its base system's kernel: the H4 views are the
    # walk's, and A3 at level 3 is a lift of degree 1 over a base of
    # degree 1.
    system = build_system(named_matrix(name))
    if lift is not None:
        system = system.with_field_level(lift)
    field = system.field
    assert field.L == L
    n = system.rank
    rng = random.Random(L * 100 + n)
    vectors = [tuple(_random_scalar(field, rng) for _ in range(n)) for _ in range(25)]
    vectors += [system.root_vector(r) for r in range(system.nroots)]
    vectors.append((field.zero,) * n)
    for v in vectors:
        pairs = system.root_pairings(v)
        assert len(pairs) == system.npos
        for r, (num, den) in enumerate(pairs):
            alpha = system.pos_roots[r]
            row = [sum((alpha[i] * system.bilinear[i][j] for i in range(n)), field.zero)
                   for j in range(n)]
            ref = sum((a * x for a, x in zip(row, v)), field.zero)
            assert den > 0
            assert field.scalar([Fraction(x, den) for x in num]) == ref
            assert system.pairing(r, v) == (num, den)
            assert system.pair_root(r, v) == ref
            assert system.inner(alpha, v) == ref
            assert field.sign_of(num) == ref.sign()
