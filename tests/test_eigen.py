import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxmin.braid import good_min_element
from coxmin.conjugacy import enumerate_classes
from coxmin.coxeter import (Chamber, CoxeterMatrix, build_system,
                            enumerate_twists, named_matrix, untwisted,
                            TwistedElement)
from coxmin.eigen import (_combination, _eigenbasis_tables,
                          _pairing_tables, admissible_filtration,
                          closure_holds_regular_point, eigen_decomposition,
                          elliptic_parabolic_certificate, fixed_space,
                          good_position_chamber, hyperplanes_containing,
                          is_elliptic, is_quasi_elliptic, order,
                          _decompose, _traces)
from coxmin.errors import (MultiplicityMismatch, NotAdmissible,
                           TheoremViolation)
from coxmin.linalg import (cone_from_constraints, vec_add, vec_is_zero,
                           vec_scale, zero_vector)
from coxmin.scalars import get_field
from oracles import (_cleared, _integer_forms, _meets_a_hyperplane,
                     all_roots_chamber_cone, cone_point_avoiding,
                     decompose_by_full_scan, lex_chamber_by_reflection,
                     quasi_elliptic_by_complement, rational_tuples,
                     regular_point, solve_in_span, traces_by_matrix_powers)
from test_acceptance import PRODUCTS, RANK_LE_4
from test_conjugacy import _block_diagonal


def identity_basis(system):
    f = system.field
    return [tuple(f.one if i == j else f.zero for j in range(system.rank))
            for i in range(system.rank)]


def test_order_examples():
    a2 = build_system(named_matrix("A2"))
    assert order(untwisted(a2.identity)) == 1
    assert order(untwisted(a2.generator(0))) == 2
    assert order(untwisted(a2.element_from_word([0, 1]))) == 3


def test_eigen_examples():
    a2 = build_system(named_matrix("A2"))
    ident = eigen_decomposition(untwisted(a2.identity))
    assert ident.angles == [Fraction(0)] and ident.entries[0][1] == 2

    # w0 of A2 is the reflection in the highest root: angles {0, pi}, dims 1/1.
    w0 = eigen_decomposition(untwisted(a2.element_from_word([0, 1, 0])))
    assert w0.angles == [Fraction(0), Fraction(1)]
    assert [d for _, d, _ in w0.entries] == [1, 1]

    # B2 Coxeter element rotates by pi/2 on the whole plane.
    b2 = build_system(named_matrix("B2"))
    cox = eigen_decomposition(untwisted(b2.element_from_word([0, 1])))
    assert cox.angles == [Fraction(1, 2)] and cox.entries[0][1] == 2


def test_eigen_exactness_and_orthogonality():
    h3 = build_system(named_matrix("H3"))
    w = untwisted(h3.element_from_word([0, 1, 2]))
    eig = eigen_decomposition(w)
    system = eig.system
    wr = eig.owner
    wi = wr.inverse()
    for q, _, basis in eig.entries:
        c2 = system.field.two_cos(q)
        for v in basis:
            lhs = tuple(a + b for a, b in zip(wr.apply(v), wi.apply(v)))
            rhs = tuple(c2 * x for x in v)
            assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
    # Distinct angles give B-orthogonal spaces.
    for i in range(len(eig.entries)):
        for j in range(i + 1, len(eig.entries)):
            for u in eig.entries[i][2]:
                for v in eig.entries[j][2]:
                    assert system.inner(u, v).is_zero()


def _first_of_order(system, d):
    tbl = system.table()
    return next(w for w in map(untwisted, map(tbl.element, range(tbl.size)))
                if order(w) == d)


def test_field_raise_on_demand():
    # D4 is built over Q (L = 1: every bond has 2cos(pi/3) = 1).  An
    # order-4 element has angles 2*pi*k/4 with 2cos in {2, 0, -2}, so it
    # stays on the base system.
    d4 = build_system(named_matrix("D4"))
    assert d4.field.L == 1
    w = _first_of_order(d4, 4)
    eig = eigen_decomposition(w)
    assert eig.system is d4
    assert eig.system.field.L == 1
    assert eig.owner.body.perm == w.body.perm
    # A4 is built over Q too; an order-5 element needs 2cos(2*pi/5), so it
    # is viewed at level 5.
    a4 = build_system(named_matrix("A4"))
    assert a4.field.L == 1
    w = _first_of_order(a4, 5)
    eig = eigen_decomposition(w)
    assert eig.system is a4.with_field_level(5)
    assert eig.system.field.L == 5
    # Elements carry over verbatim to the raised system.
    assert eig.owner.body.perm == w.body.perm


def test_h4_eigen_levels():
    # 2cos(2*pi*k/d) lies in Q(2cos(pi/e)), e the denominator of 2/d; H4 is
    # built at level 5, so the views are at lcm(5, e).
    h4 = build_system(named_matrix("H4"))
    assert h4.field.L == 5
    for d, L in [(4, 5), (12, 30), (20, 10), (30, 15)]:
        eig = eigen_decomposition(_first_of_order(h4, d), dft_check=False)
        assert eig.system.field.L == L
        assert eig.system is h4.with_field_level(L)


def test_exact_dft_h4_coxeter_element():
    # The Coxeter element of H4 has order h = 30 and exponents 1, 11, 19,
    # 29: angles 2/30 and 22/30 (times pi), each with a 2-dimensional
    # kernel, checked by the exact DFT in the level-15 view.
    h4 = build_system(named_matrix("H4"))
    w = untwisted(h4.element_from_word([0, 1, 2, 3]))
    assert order(w) == 30
    eig = eigen_decomposition(w, dft_check=True)
    assert eig.system.field.L == 15
    assert eig.angles == [Fraction(1, 15), Fraction(11, 15)]
    assert [d for _, d, _ in eig.entries] == [2, 2]


def test_dft_crosscheck_detects_wrong_dimension():
    from coxmin.eigen import _dft_crosscheck
    h4 = build_system(named_matrix("H4"))
    b3 = build_system(named_matrix("B3"))
    # The H4 Coxeter element has only inner angles; a B3 reflection has
    # angles 0 and 1, where the kernel counts a single eigenvalue.
    for w in (untwisted(h4.element_from_word([0, 1, 2, 3])),
              untwisted(b3.generator(0))):
        eig = eigen_decomposition(w, dft_check=False)
        d = order(w)
        _dft_crosscheck(eig.owner, eig.system, d, eig.entries)
        for i, (q, dim, basis) in enumerate(eig.entries):
            entries = list(eig.entries)
            entries[i] = (q, dim + 2, basis)
            with pytest.raises(MultiplicityMismatch):
                _dft_crosscheck(eig.owner, eig.system, d, entries)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_dimension_additivity_and_evenness(name):
    system = build_system(named_matrix(name))
    tbl = system.table()
    rng = random.Random(31)
    for _ in range(25):
        w = untwisted(tbl.element(rng.randrange(tbl.size)))
        eig = eigen_decomposition(w)
        assert sum(d for _, d, _ in eig.entries) == system.rank
        for q, d, _ in eig.entries:
            if q not in (0, 1):
                assert d % 2 == 0


def test_regular_point_examples_and_determinism():
    a2 = build_system(named_matrix("A2"))
    V = identity_basis(a2)
    v1 = regular_point(a2, V)
    v2 = regular_point(a2, V)
    assert v1 == v2  # deterministic
    for r in range(a2.npos):
        assert not a2.pair_root(r, v1).is_zero()
    # A point on one hyperplane avoiding the others.
    K = fixed_space(untwisted(a2.generator(0)))
    vk = regular_point(a2, K)
    assert a2.pair_root(0, vk).is_zero()
    assert not a2.pair_root(1, vk).is_zero()
    assert not a2.pair_root(2, vk).is_zero()
    # The zero subspace has no regular point.
    with pytest.raises(ValueError):
        regular_point(a2, [])


def test_regular_point_inside_chamber():
    a2 = build_system(named_matrix("A2"))
    C = Chamber.fundamental(a2)
    assert closure_holds_regular_point(a2, identity_basis(a2), C)
    # The fixed line of s1 has a regular point in four closed chambers, the
    # two beside each of its half-lines; the other two meet it only at 0.
    K = fixed_space(untwisted(a2.generator(0)))
    hits, misses = 0, 0
    tbl = a2.table()
    for i in range(tbl.size):
        ch = Chamber(a2, tbl.element(i))
        if closure_holds_regular_point(a2, K, ch):
            assert ch.contains_in_closure(
                _combination(a2.field, all_roots_chamber_cone(a2, K, ch), K))
            hits += 1
        else:
            misses += 1
    assert hits == 4 and misses == 2
    # The zero subspace has no regular point.
    assert not closure_holds_regular_point(a2, [], C)


def test_closure_predicate_catches_a_corrupt_cone(monkeypatch):
    # A ray moved outside the closed chamber: the exact check of the sum of
    # the generators raises instead of answering.
    import coxmin.eigen as eigen_mod
    a2 = build_system(named_matrix("A2"))
    real = eigen_mod._chamber_cone

    def corrupt(*args):
        cone = real(*args)
        cone.rays[0] = tuple(-x for x in cone.rays[0])
        return cone

    monkeypatch.setattr(eigen_mod, "_chamber_cone", corrupt)
    with pytest.raises(TheoremViolation):
        closure_holds_regular_point(a2, identity_basis(a2), Chamber.fundamental(a2))


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_chamber_cone_from_walls_matches_all_roots(name):
    # The closed chamber is cut out by its n walls, so the predicate on the
    # cone of K from the walls that miss K agrees with the all-roots cone's
    # feasibility.  The oracle's point p lies on exactly the hyperplanes
    # through K, so I(K, A), read off the walls, is the set of i with
    # <alpha_i, x_A^-1 p> = 0.
    system = build_system(named_matrix(name))
    table = system.table()
    feasible = 0
    for twist in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, twist):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            view = eig.system
            for _, _, basis in eig.entries:
                h_k = hyperplanes_containing(view, basis)
                for x in range(table.size):
                    ch = Chamber(system, table.element(x)).over(view)
                    coords = all_roots_chamber_cone(view, basis, ch)
                    assert closure_holds_regular_point(view, basis, ch) == \
                        (coords is not None)
                    if coords is None:
                        continue
                    feasible += 1
                    p = _combination(view.field, coords, basis)
                    assert ch.contains_in_closure(p)
                    assert hyperplanes_containing(view, [p]) == h_k
                    back = ch.x.inverse().apply(p)
                    assert [i for i, r in enumerate(ch.walls()) if r in h_k] == \
                        [i for i in range(view.rank) if view.pair_root(i, back).is_zero()]
    assert feasible == {"A3": 192, "B3": 320, "H3": 536}[name]


def test_hyperplanes_containing():
    a2 = build_system(named_matrix("A2"))
    V = identity_basis(a2)
    assert hyperplanes_containing(a2, V) == frozenset()
    zero = []
    assert hyperplanes_containing(a2, zero) == frozenset(range(a2.npos))
    cox = eigen_decomposition(untwisted(a2.element_from_word([0, 1])))
    assert hyperplanes_containing(a2, cox.v_wt) == frozenset()  # elliptic rotation plane


def test_elliptic_examples():
    a2 = build_system(named_matrix("A2"))
    assert is_elliptic(untwisted(a2.element_from_word([0, 1])))
    assert not is_elliptic(untwisted(a2.generator(0)))
    assert not is_elliptic(untwisted(a2.element_from_word([0, 1, 0])))


def test_quasi_elliptic_examples():
    a2 = build_system(named_matrix("A2"))
    assert is_quasi_elliptic(untwisted(a2.element_from_word([0, 1])))
    assert not is_quasi_elliptic(untwisted(a2.identity))
    a1a1 = build_system(CoxeterMatrix([[1, 2], [2, 1]]))
    assert not is_quasi_elliptic(untwisted(a1a1.generator(0)))


def test_quasi_ellipticity_reads_fixed_roots():
    # w is quasi-elliptic iff it fixes no root: against the regular-point
    # test on the complement of the fixed space, on every element of each
    # rank <= 4 type under every twist (H4 by its class representatives),
    # and on the class representatives of the criterion 10 and 11 sweeps.
    elements = []
    for name in RANK_LE_4:
        system = build_system(named_matrix(name))
        table = system.table()
        for twist in enumerate_twists(system.matrix):
            if name == "H4":
                elements += [rec.representative
                             for rec in enumerate_classes(system, twist)]
            else:
                elements += [TwistedElement(system, twist, 1, table.element(x))
                             for x in range(table.size)]
    for label in SWEEP_LABELS:
        names = label.split("x")
        matrix = _block_diagonal(*names) if len(names) > 1 else named_matrix(label)
        system = build_system(matrix)
        for twist in enumerate_twists(matrix):
            elements += [rec.representative
                         for rec in enumerate_classes(system, twist)]
    verdicts = {True: 0, False: 0}
    for w in elements:
        quasi = is_quasi_elliptic(w)
        assert quasi == quasi_elliptic_by_complement(w), (w.system, w.twist, w.body)
        verdicts[quasi] += 1
    assert min(verdicts.values()) > 1000


def test_parabolic_criterion_certificate():
    b3 = build_system(named_matrix("B3"))
    tbl = b3.table()
    from coxmin.conjugacy import enumerate_classes
    for rec in enumerate_classes(b3):
        crit = elliptic_parabolic_certificate(rec.representative, rec.elements, tbl)
        assert crit == rec.elliptic


def test_admissible_filtration():
    a2 = build_system(named_matrix("A2"))
    cox = untwisted(a2.element_from_word([0, 1]))
    eig = eigen_decomposition(cox)
    filt = admissible_filtration(cox, eig.angles)
    assert filt.admissible
    assert filt.irredundant == (Fraction(2, 3),)
    # angles = {0} for a Coxeter element: F_1 = 0, not admissible.
    filt0 = admissible_filtration(cox, [Fraction(0)])
    assert not filt0.admissible
    with pytest.raises(NotAdmissible):
        good_position_chamber(filt0)
    # Nonzero angles of a quasi-elliptic element are admissible.
    b2 = build_system(named_matrix("B2"))
    w0 = untwisted(b2.element_from_word([0, 1, 0, 1]))
    filtpi = admissible_filtration(w0, [Fraction(1)])
    assert filtpi.admissible


def level_bases(filt):
    """Bases of F_1, F_2, ...: the angles' eigenbases, concatenated."""
    out, cur = [], []
    for basis in filt.bases:
        cur = cur + list(basis)
        out.append(cur)
    return out


def good_position_predicate(chamber, filt):
    """Independent from-scratch check of the good-position property."""
    system = filt.system
    for i, basis in enumerate(level_bases(filt)):
        if not basis:
            return False
        m = len(basis)
        constraints = []
        for r in filt.hyperplane_sets[i]:
            row = tuple(system.pair_root(r, b) for b in basis)
            if all(x.is_zero() for x in row):
                continue
            sgn = chamber.sign(r)
            constraints.append(tuple(x if sgn > 0 else -x for x in row))
        cone = cone_from_constraints(system.field, m, constraints)
        h_next = hyperplanes_containing(system, basis)
        avoid = [tuple(system.pair_root(r, b) for b in basis)
                 for r in range(system.npos) if r not in h_next]
        if cone_point_avoiding(cone, avoid, constraints) is None:
            return False
    return True


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3"])
def test_good_position_chamber_predicate(name):
    system = build_system(named_matrix(name))
    tbl = system.table()
    rng = random.Random(17)
    for _ in range(6):
        w = untwisted(tbl.element(rng.randrange(tbl.size)))
        eig = eigen_decomposition(w, dft_check=False)
        filt = admissible_filtration(eig.owner, eig.angles, eig=eig)
        ch = good_position_chamber(filt)
        assert good_position_predicate(ch, filt)


def test_good_position_failure_is_a_violation(monkeypatch):
    # The lexicographic chamber is built once; a failed witness check
    # contradicts the construction and raises instead of retrying.
    import coxmin.eigen as eigen_mod
    a3 = build_system(named_matrix("A3"))
    w = untwisted(a3.element_from_word([0, 1, 2]))
    eig = eigen_decomposition(w, dft_check=False)
    filt = admissible_filtration(w, eig.angles, eig)
    monkeypatch.setattr(eigen_mod, "_good_position_holds", lambda *a: False)
    with pytest.raises(TheoremViolation):
        good_position_chamber(filt)


@pytest.mark.parametrize("name", ["B3", "H3", "D4"])
def test_good_position_chamber_reads_one_point_per_growth_level(monkeypatch, name):
    # A root's sign at p is read at the first level whose F_i its
    # hyperplane misses, so the levels read are the irredundant ones, each
    # a growth level; the last of them already lies on no hyperplane, so
    # no point of V beyond the filtration is read.
    import coxmin.eigen as eigen_mod
    levels = set()
    real = eigen_mod._level_signs

    def counted(filtration, start_index):
        sign = real(filtration, start_index)

        def read(r, i):
            levels.add(i)
            return sign(r, i)
        return read

    monkeypatch.setattr(eigen_mod, "_level_signs", counted)
    system = build_system(named_matrix(name))
    for twist in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, twist):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            sequences = [tuple(eig.angles)]
            if rec.quasi_elliptic and eig.angles[0] == 0:
                sequences.append(tuple(eig.angles[1:]))
            for angles in sequences:
                filt = admissible_filtration(eig.owner, angles, eig=eig)
                growth = {i + 1 for i, b in enumerate(filt.bases) if b}
                levels.clear()
                good_position_chamber(filt)
                assert levels == set(filt.irredundant_indices)
                assert levels <= growth


def test_zero_lexicographic_sign_is_a_violation():
    # A level basis that lies on a hyperplane its level's H_{F_i} misses
    # leaves that root with no sign: the walk raises instead of reading
    # the sign as 0.
    a2 = build_system(named_matrix("A2"))
    w = untwisted(a2.element_from_word([0, 1]))
    eig = eigen_decomposition(w, dft_check=False)
    filt = admissible_filtration(w, eig.angles, eig)
    on_wall = fixed_space(untwisted(a2.generator(0)))
    corrupted = dataclasses.replace(filt, bases=(on_wall,))
    with pytest.raises(TheoremViolation):
        good_position_chamber(corrupted)
    # A carried filtration has no bases to read.
    carried = filt.conjugate_by(a2.generator(0))
    assert carried.bases is None
    with pytest.raises(ValueError):
        good_position_chamber(carried)


def test_good_elements_do_no_elimination_and_pair_each_eigenvector_once():
    # In a fresh interpreter, over every class of H4 and F4 (the good
    # element and, for a quasi-elliptic class, the corollary's nonzero
    # angles): once the decompositions exist, good_min_element runs no rref
    # and maps no vector, and pairs only eigenbasis vectors, each at most
    # once per view.
    script = (
        "import sys\n"
        "from collections import Counter\n"
        "from coxmin import braid, conjugacy, coxeter, eigen, linalg\n"
        "counts, paired, eigvecs, records = Counter(), Counter(), set(), []\n"
        "real_rref = linalg.rref\n"
        "real_apply = coxeter.GroupElement.apply\n"
        "real_pairings = coxeter.CoxeterSystem.root_pairings\n"
        "def counted_rref(*args):\n"
        "    counts['rref'] += 1\n"
        "    return real_rref(*args)\n"
        "def counted_apply(self, v):\n"
        "    counts['apply'] += 1\n"
        "    return real_apply(self, v)\n"
        "def counted_pairings(self, v):\n"
        "    paired[(id(self), v)] += 1\n"
        "    return real_pairings(self, v)\n"
        "for name in ('H4', 'F4'):\n"
        "    system = coxeter.build_system(coxeter.named_matrix(name))\n"
        "    for twist in coxeter.enumerate_twists(system.matrix):\n"
        "        records += conjugacy.enumerate_classes(system, twist)\n"
        "for rec in records:\n"
        "    eig = eigen.eigen_decomposition(rec.representative, dft_check=False)\n"
        "    eigvecs.update((id(eig.system), v) for _, _, b in eig.entries for v in b)\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('coxmin') and getattr(module, 'rref', None) is real_rref:\n"
        "        module.rref = counted_rref\n"
        "coxeter.GroupElement.apply = counted_apply\n"
        "coxeter.CoxeterSystem.root_pairings = counted_pairings\n"
        "for rec in records:\n"
        "    braid.good_min_element(rec)\n"
        "    if rec.quasi_elliptic:\n"
        "        braid.verify_quasi_elliptic_divisibility(rec)\n"
        "print(len(records), counts['rref'], counts['apply'])\n"
        "print(max(paired.values()), set(paired) <= eigvecs, len(paired))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    classes, rrefs, applies = map(int, proc.stdout.split()[:3])
    most, only_eigenvectors, vectors = proc.stdout.split()[3:]
    assert (classes, rrefs, applies) == (70, 0, 0)
    assert (most, only_eigenvectors) == ("1", "True") and int(vectors) > classes


# The criterion 10 and 11 sweeps: rank five and six, and the products.
SWEEP_LABELS = ["A5", "D5", "A6", "B5", "D6", "E6"] + \
    ["x".join(names) for names, _ in PRODUCTS]


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_sign_walk_and_carried_filtration_match_references(label):
    # Every class and twist, for the full angle sequence (and the nonzero
    # angles of a quasi-elliptic class with fixed points), at two start
    # indices: the walk on root signs ends in the chamber of the walk that
    # reflects and pairs the symbolic points' coefficient vectors again,
    # the filtration carried to w_A equals the one built from w_A's own
    # eigenspaces, field by field, and each H_{F_i}, a meet of the
    # eigenspaces' hyperplane sets, is the set of F_i's basis itself.
    names = label.split("x")
    matrix = _block_diagonal(*names) if len(names) > 1 else named_matrix(label)
    system = build_system(matrix)
    for twist in enumerate_twists(matrix):
        for rec in enumerate_classes(system, twist):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            w = eig.owner
            sequences = [tuple(eig.angles)]
            if rec.quasi_elliptic and eig.angles[0] == 0:
                sequences.append(tuple(eig.angles[1:]))
            for angles in sequences:
                filt = admissible_filtration(w, angles, eig=eig)
                assert filt.hyperplane_sets[1:] == [
                    hyperplanes_containing(eig.system, b) if b else
                    frozenset(range(system.npos)) for b in level_bases(filt)]
                for start in (0, 1):
                    chamber = good_position_chamber(filt, start)
                    assert chamber == lex_chamber_by_reflection(filt, start), \
                        (label, twist.perm, rec.class_id, angles, start)
                    carried = filt.conjugate_by(chamber.x)
                    own = admissible_filtration(w.conjugate_by(chamber.x), angles)
                    assert carried.owner == own.owner
                    assert carried.system is own.system
                    assert carried.angles == own.angles
                    assert carried.hyperplane_sets == own.hyperplane_sets
                    assert carried.irredundant_indices == own.irredundant_indices
                    assert carried.admissible == own.admissible


def _abs_bounds(field, num, den):
    """Rationals 0 < lo <= |num / den| <= hi for a nonzero value."""
    eps = Fraction(1)
    while True:
        lo, hi = field.interval_of(num, eps, den)
        if lo > 0 or hi < 0:
            return min(abs(lo), abs(hi)), max(abs(lo), abs(hi))
        eps /= 16


def real_level_points(filt, start):
    """Exact points x_i(s + delta) = sum_j (s + delta)^j b_j of the growth
    levels (None for a level that does not grow), for one rational delta.

    <alpha_r, x_i(s + delta)> = sum_k delta^k a_k with a_k the pairing of
    y_k = sum_j C(j, k) s^(j-k) b_j.  With a_k0 its lowest nonzero
    coefficient, every nonzero root of the polynomial has |delta| >=
    |a_k0| / (|a_k0| + max_k |a_k|) (Cauchy's bound on the reversed
    polynomial), so below that bound, for every root and level, the sign at
    delta is the sign of a_k0.  delta is the largest power of 1/2 strictly
    below it.
    """
    system, field = filt.system, filt.system.field
    levels, cur = [], []
    for basis in filt.bases:
        cur = cur + list(basis)
        levels.append(list(cur) if basis else None)
    bound = Fraction(1)
    for cur in filter(None, levels):
        ys = [_combination(field, [field.from_rational(math.comb(j, k) * start ** (j - k))
                                   if j >= k else field.zero for j in range(len(cur))], cur)
              for k in range(len(cur))]
        pairs = [system.root_pairings(y) for y in ys]
        for r in range(system.npos):
            coeffs = [p[r] for p in pairs if any(p[r][0])]
            if coeffs:
                lead, _ = _abs_bounds(field, *coeffs[0])
                top = max((_abs_bounds(field, *c)[1] for c in coeffs[1:]), default=0)
                bound = min(bound, lead / (lead + top))
    delta = Fraction(1)
    while delta >= bound:
        delta /= 2
    t = start + delta
    return [cur and _combination(field, [field.from_rational(t ** j)
                                         for j in range(len(cur))], cur)
            for cur in levels]


@pytest.mark.parametrize("label", SWEEP_LABELS)
def test_symbolic_chamber_is_in_good_position_at_real_points(label):
    # Every class and twist of the criterion 10 and 11 sweeps, at start
    # indices 0 and 1: at the real points x_i(s + delta) of one rational
    # delta below every root's Cauchy bound, x_i lies on exactly the
    # hyperplanes of H_{F_i}, and x_{i+1} lies in the closure of the
    # chamber's H_{F_i}-component: its sign is the chamber's at every root
    # of H_{F_i} that misses F_{i+1}.
    names = label.split("x")
    matrix = _block_diagonal(*names) if len(names) > 1 else named_matrix(label)
    system = build_system(matrix)
    checked = 0
    for twist in enumerate_twists(matrix):
        for rec in enumerate_classes(system, twist):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            view = eig.system
            sequences = [tuple(eig.angles)]
            if rec.quasi_elliptic and eig.angles[0] == 0:
                sequences.append(tuple(eig.angles[1:]))
            for angles in sequences:
                filt = admissible_filtration(eig.owner, angles, eig=eig)
                hsets = filt.hyperplane_sets
                for start in (0, 1):
                    chamber = good_position_chamber(filt, start)
                    points = real_level_points(filt, start)
                    for i, x in enumerate(points):
                        if x is None:
                            continue
                        pairs = view.root_pairings(x)
                        for r in range(view.npos):
                            sign = view.field.sign_of(pairs[r][0])
                            assert (sign == 0) == (r in hsets[i + 1])
                            if r in hsets[i] and sign:
                                assert sign == chamber.sign(r), \
                                    (label, twist.perm, rec.class_id, angles, start, i, r)
                                checked += 1
    assert checked >= view.npos


@pytest.mark.parametrize("label", SWEEP_LABELS + ["H4"])
def test_decompose_matches_the_full_angle_scan(label, monkeypatch):
    # Every class and twist: the decomposition that solves the guided
    # angles first and stops at n dimensions equals the kernel solve at
    # every angle, and so does it with no guide or a wrong one; the guide
    # names exactly the eigen-angles; the traces read off root permutations
    # equal those of matrix powers.
    import coxmin.eigen as eigen_mod
    names = label.split("x")
    matrix = _block_diagonal(*names) if len(names) > 1 else named_matrix(label)
    system = build_system(matrix)
    real_guide = eigen_mod._angle_guide

    def wrong_guide(traces, d):
        # The angles with no kernel, and one that is no angle 2k/d.
        named = real_guide(traces, d)
        return [Fraction(2 * k, d) for k in range(d // 2 + 1)
                if Fraction(2 * k, d) not in named] + [Fraction(1, 2 * d + 1)]
    guides = {"none": lambda traces, d: [], "wrong": wrong_guide}
    for twist in enumerate_twists(matrix):
        for rec in enumerate_classes(system, twist):
            w = rec.representative
            owner, entries = decompose_by_full_scan(w)
            d = order(w)
            traces = _traces(owner, d)
            assert traces == traces_by_matrix_powers(owner, d)
            assert set(real_guide(traces, d)) == {q for q, _, _ in entries}
            for name, guide in [("real", real_guide), *guides.items()]:
                monkeypatch.setattr(eigen_mod, "_angle_guide", guide)
                eig = _decompose(w)
                assert eig.owner == owner and eig.system is owner.system
                assert eig.entries == entries, (label, twist.perm, rec.class_id, name)
                assert eig.theta0 == entries[0][0] and eig.v_wt == entries[0][2]
            monkeypatch.setattr(eigen_mod, "_angle_guide", real_guide)


def test_good_position_w0_a2():
    # Chamber closure must contain the +1 eigendirection of the reflection w0.
    a2 = build_system(named_matrix("A2"))
    w0 = untwisted(a2.element_from_word([0, 1, 0]))
    filt = admissible_filtration(w0, [Fraction(0), Fraction(1)])
    ch = good_position_chamber(filt)
    fix = fixed_space(w0)
    v = regular_point(a2, fix)
    contains = ch.contains_in_closure(v) or \
        ch.contains_in_closure(tuple(-c for c in v))
    assert contains


def test_twisted_eigen():
    a2 = build_system(named_matrix("A2"))
    delta = enumerate_twists(a2.matrix)[1]
    de = TwistedElement(a2, delta, 1, a2.identity)
    eig = eigen_decomposition(de)
    assert eig.angles == [Fraction(0), Fraction(1)]
    assert [d for _, d, _ in eig.entries] == [1, 1]


# ---------------------------------------------------------------------------
# Memoized geometry.


def test_memoized_results_are_shared():
    h3 = build_system(named_matrix("H3"))
    w = untwisted(h3.element_from_word([0, 1, 2]))
    eig = eigen_decomposition(w, dft_check=False)
    assert eigen_decomposition(w) is eig
    assert eigen_decomposition(untwisted(h3.element_from_word([0, 1, 2]))) is eig
    basis = eig.entries[0][2]
    tables = _eigenbasis_tables(h3, basis)
    assert all(a is b for a, b in zip(_eigenbasis_tables(h3, list(basis)), tables))
    assert all(a is b for a, b in zip(_pairing_tables(h3, tuple(basis)), tables))


def test_memoized_decomposition_still_runs_requested_dft_check():
    # A hit on an entry computed without the DFT check must still run it:
    # corrupting a cached dimension is then caught.
    for name, word in [("H4", [0, 1, 2, 3]), ("B3", [0])]:
        system = build_system(named_matrix(name))
        w = untwisted(system.element_from_word(word))
        eig = eigen_decomposition(w, dft_check=False)
        q, dim, basis = eig.entries[0]
        eig.entries[0] = (q, dim + 2, basis)
        with pytest.raises(MultiplicityMismatch):
            eigen_decomposition(w, dft_check=True)
        with pytest.raises(MultiplicityMismatch):
            eigen_decomposition(w, dft_check=True)  # a failed check stays unset
        eig.entries[0] = (q, dim, basis)
        assert eigen_decomposition(w, dft_check=True) is eig


def test_memo_entries_are_per_view_and_start_index():
    # The base system and its lift answer over their own fields.
    b3 = build_system(named_matrix("B3"))
    lift = b3.with_field_level(12)
    w = untwisted(b3.element_from_word([0, 1, 2]))
    on_base = eigen_decomposition(w, dft_check=False)
    on_lift = eigen_decomposition(w.over(lift), dft_check=False)
    assert on_base.system is b3 and on_lift.system is lift
    assert on_base is not on_lift
    assert on_base.angles == on_lift.angles
    # Each view keeps the tables of its own filtrations' eigenbases.
    f_base = admissible_filtration(on_base.owner, on_base.angles, on_base)
    f_lift = admissible_filtration(on_lift.owner, on_lift.angles, on_lift)
    assert set(b3._pairing_tables) == {v for b in f_base.bases for v in b}
    assert set(lift._pairing_tables) == {v for b in f_lift.bases for v in b}
    assert all(a is not b for a in b3._pairing_tables.values()
               for b in lift._pairing_tables.values())
    # Every start index reads the same tables: nothing is kept per index.
    kept = dict(b3._pairing_tables)
    for start in (0, 1, 21):
        good_position_chamber(f_base, start)
    assert b3._pairing_tables == kept
    assert all(b3._pairing_tables[k] is v for k, v in kept.items())
    # The same body under two powers of one twist: two elements.
    a2 = build_system(named_matrix("A2"))
    delta = enumerate_twists(a2.matrix)[1]
    assert eigen_decomposition(TwistedElement(a2, delta, 0, a2.identity)).angles \
        == [Fraction(0)]
    assert eigen_decomposition(TwistedElement(a2, delta, 1, a2.identity)).angles \
        == [Fraction(0), Fraction(1)]


def test_hyperplane_memo_is_per_view():
    # A hit returns the identical frozenset; a lift answers from its own
    # dict, with the same root indices over its own field.
    b3 = build_system(named_matrix("B3"))
    lift = b3.with_field_level(12)
    w = untwisted(b3.element_from_word([0, 1]))
    basis = eigen_decomposition(w, dft_check=False).v_wt
    lift_basis = eigen_decomposition(w.over(lift), dft_check=False).v_wt
    h_base = hyperplanes_containing(b3, basis)
    assert hyperplanes_containing(b3, basis) is h_base
    assert h_base == frozenset(r for r in range(b3.npos) if all(
        b3.pair_root(r, b).is_zero() for b in basis))
    h_lift = hyperplanes_containing(lift, lift_basis)
    assert h_lift == h_base and h_lift is not h_base
    assert hyperplanes_containing(lift, lift_basis) is h_lift
    assert all(a is not b for a in b3._hyperplanes.values()
               for b in lift._hyperplanes.values())
    assert {c.field.L for key in b3._hyperplanes for row in key for c in row} == {4}
    assert {c.field.L for key in lift._hyperplanes for row in key for c in row} == {12}


def _forget_geometry(system):
    """Empty the memo dicts of a system and all its lifts."""
    for view in (system, *system._lifts.values()):
        view._eigen.clear()
        view._pairing_tables.clear()
        view._closure_verdicts.clear()
        view._hyperplanes.clear()


@pytest.mark.parametrize("name", ["B3", "H3", "F4"])
def test_memoized_geometry_matches_fresh_system(name):
    # Differential check: answers served from a system whose memos have
    # filled over every class equal answers computed from scratch on an
    # independently built system.
    matrix = named_matrix(name)
    memo = build_system(matrix)
    fresh = build_system(matrix)
    for twist in enumerate_twists(matrix):
        memo_recs = enumerate_classes(memo, twist)
        fresh_recs = enumerate_classes(fresh, twist)
        for rec, frec in zip(memo_recs, fresh_recs):
            good_min_element(rec)  # fills both memos along the way
            _forget_geometry(fresh)
            eig = eigen_decomposition(rec.representative, dft_check=False)
            feig = eigen_decomposition(frec.representative, dft_check=False)
            assert eig.system.field.L == feig.system.field.L
            assert eig.owner == feig.owner
            assert eig.entries == feig.entries and eig.v_wt == feig.v_wt
            bases = [b for _, _, b in eig.entries] + [identity_basis(eig.system)]
            chamber_bodies = (0, (rec.class_id * 7919) % rec.coset.table.size)
            filt = admissible_filtration(eig.owner, eig.angles, eig)
            for start in (0, 21):
                _forget_geometry(fresh)
                feig = eigen_decomposition(frec.representative, dft_check=False)
                ffilt = admissible_filtration(feig.owner, feig.angles, feig)
                assert good_position_chamber(filt, start).x.perm == \
                    good_position_chamber(ffilt, start).x.perm
            for basis in bases:
                _forget_geometry(fresh)
                assert _pairing_tables(eig.system, basis) == \
                    _pairing_tables(feig.system, basis)
                # The closed-chamber verdict, once from the memo and once fresh.
                for body in chamber_bodies:
                    inside = Chamber(eig.system, rec.coset.table.element(body))
                    finside = Chamber(feig.system, frec.coset.table.element(body))
                    first = closure_holds_regular_point(eig.system, basis, inside)
                    key = (tuple(basis), inside.x.perm)
                    assert eig.system._closure_verdicts[key] is first
                    assert closure_holds_regular_point(eig.system, basis, inside) is first
                    _forget_geometry(fresh)
                    assert closure_holds_regular_point(feig.system, basis, finside) is first
            w_a, cert = good_min_element(rec)
            _forget_geometry(fresh)
            fw_a, fcert = good_min_element(frec)
            assert w_a == fw_a
            assert cert.to_json() == fcert.to_json()


def test_verification_errors_are_typed():
    a2 = build_system(named_matrix("A2"))
    w0 = untwisted(a2.element_from_word([0, 1, 0]))
    eig = eigen_decomposition(w0)
    with pytest.raises(ValueError):
        admissible_filtration(w0, [Fraction(1), Fraction(0)])
    partial = dataclasses.replace(eig, entries=eig.entries[:1])
    with pytest.raises(TheoremViolation):
        partial.project(identity_basis(a2)[0])


def test_verification_errors_survive_optimize():
    # Argument and verification checks must not live in asserts, which
    # python -O strips.
    script = (
        "import dataclasses\n"
        "from coxmin import braid, conjugacy, coxeter, eigen\n"
        "from coxmin.errors import TheoremViolation\n"
        "a2 = coxeter.build_system(coxeter.named_matrix('A2'))\n"
        "w0 = coxeter.untwisted(a2.element_from_word([0, 1, 0]))\n"
        "eig = eigen.eigen_decomposition(w0)\n"
        "ident = next(r for r in conjugacy.enumerate_classes(a2)\n"
        "             if not r.quasi_elliptic)\n"
        "calls = [lambda: eigen.admissible_filtration(w0, [1, 0]),\n"
        "         lambda: dataclasses.replace(eig, entries=eig.entries[:1])\n"
        "             .project(eig.entries[1][2][0]),\n"
        "         lambda: braid.verify_quasi_elliptic_divisibility(ident)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "        print('passed')\n"
        "    except (ValueError, TheoremViolation) as exc:\n"
        "        print(type(exc).__name__)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError", "TheoremViolation", "ValueError"]


# ---------------------------------------------------------------------------
# Regular points with proven bounds.


def _first_regular_tuple(system, basis, start_index):
    """Uncapped reference: the first tuple of the stream giving a regular point.

    Pairs by the bilinear form (`inner`), not through the integer kernel
    that regular_point reads.
    """
    h_k = {r for r in range(system.npos)
           if all(system.inner(system.pos_roots[r], b).is_zero() for b in basis)}
    f = system.field
    for coeffs in rational_tuples(len(basis), start_index):
        v = tuple(sum((f.from_rational(c) * b[i] for c, b in zip(coeffs, basis)),
                      f.zero) for i in range(system.rank))
        if vec_is_zero(v):
            continue
        if all(not system.inner(system.pos_roots[r], v).is_zero()
               for r in range(system.npos) if r not in h_k):
            return v


@pytest.mark.parametrize("name", ["B3", "H3", "F4"])
def test_regular_point_equals_uncapped_search(name):
    # Every eigenspace and every filtration step of every class, at two
    # start indices: the bounded search returns the uncapped first success.
    system = build_system(named_matrix(name))
    bases = set()
    for twist in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, twist):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            filt = admissible_filtration(eig.owner, eig.angles, eig=eig)
            for basis in ([b for _, _, b in eig.entries] + level_bases(filt)
                          + [identity_basis(eig.system)]):
                bases.add((eig.system, tuple(basis)))
    assert len(bases) > 10
    for view, basis in sorted(bases, key=repr):
        for start in (0, 21):
            assert regular_point(view, list(basis), start_index=start) == \
                _first_regular_tuple(view, list(basis), start)


def test_regular_point_past_its_bound_is_a_violation(monkeypatch):
    # A stream that never yields a usable tuple must stop at the proven
    # count and raise, not loop or return a point.
    import oracles
    drawn = []

    def zeros(m, start_index=0):
        for _ in itertools.count():
            drawn.append(1)
            yield (Fraction(0),) * m

    a2 = build_system(named_matrix("A2"))
    monkeypatch.setattr(oracles, "rational_tuples", zeros)
    with pytest.raises(TheoremViolation):
        regular_point(a2, identity_basis(a2), start_index=2)
    # Three hyperplanes to avoid, start index 2: (3 + 2 + 1)^2 - 2 tuples.
    assert len(drawn) == 34


# ---------------------------------------------------------------------------
# The integer fast paths against field arithmetic.


def _random_scalar(field, rng):
    if rng.random() < 0.25:
        return field.zero
    return field.scalar([Fraction(rng.randint(-6, 6), rng.randint(1, 10))
                         for _ in range(field.degree)])


@pytest.mark.parametrize("L", [1, 4, 5, 6, 12, 30])
def test_integer_tuple_test_matches_field_sum(L):
    # regular_point's zero test (integer forms of a row of pairings, the
    # tuple cleared of denominators) against sum c_i p_i in the field, on
    # random rows given as unreduced (num, den) pairs.  Half the rows are
    # built to vanish at the tuple.
    field = get_field(L)
    rng = random.Random(L)
    zeros = 0
    for trial in range(400):
        m = rng.randint(1, 4)
        coeffs = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(m))
        row = [_random_scalar(field, rng) for _ in range(m)]
        lead = next((i for i, c in enumerate(coeffs) if c), None)
        if trial % 2 and lead is not None:
            rest = sum((field.from_rational(c) * p for i, (c, p) in
                        enumerate(zip(coeffs, row)) if i != lead), field.zero)
            row[lead] = -rest / field.from_rational(coeffs[lead])
        value = sum((field.from_rational(c) * p for c, p in zip(coeffs, row)), field.zero)
        scale = [rng.randint(1, 5) for _ in row]
        pairs = [(tuple(x * k for x in p.num), p.den * k) for p, k in zip(row, scale)]
        forms = _integer_forms(pairs)
        assert all(any(f) for f in forms)
        assert _meets_a_hyperplane(_cleared(coeffs), [forms]) == value.is_zero()
        zeros += value.is_zero()
    assert 150 < zeros < 400


@pytest.mark.parametrize("name", ["B3", "H3", "F4", "D4"])
def test_cached_projector_matches_solve_in_span(name):
    # project() through the cached inverse against the eigencomponents
    # solved for afresh by elimination, on random vectors.
    system = build_system(named_matrix(name))
    rng = random.Random(7)
    for twist in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, twist):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            field = eig.system.field
            basis = eig.full_basis()
            for _ in range(3):
                v = tuple(_random_scalar(field, rng) for _ in range(eig.system.rank))
                coords = solve_in_span(basis, v, field)
                expected, pos = {}, 0
                for q, dim, _ in eig.entries:
                    comp = zero_vector(field, eig.system.rank)
                    for j in range(pos, pos + dim):
                        comp = vec_add(comp, vec_scale(coords[j], basis[j]))
                    expected[q] = comp
                    pos += dim
                assert eig.project(v) == expected
            assert eig._inverse is not None
            cached = eig._inverse
            eig.project(basis[0])
            assert eig._inverse is cached
