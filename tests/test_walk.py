import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxmin.conjugacy import enumerate_classes
from coxmin.coxeter import (Chamber, CoxeterMatrix, DiagramTwist, build_system,
                            conjugate_by_chamber, enumerate_twists,
                            named_matrix, untwisted)
from coxmin.eigen import (_combination, eigen_decomposition, fixed_space,
                          hyperplanes_containing, regular_point)
from coxmin.errors import HypothesisFailed
from coxmin.linalg import rref
from coxmin.walk import (_angle_of_invariant_subspace, _start_point,
                         component_length, decay_rate,
                         decompose_at_regular, derivative_test, descent_walk,
                         special_length_formula, strongly_connected_step)
from oracles import all_roots_chamber_cone, reflection_element


def test_flow_curve_components():
    a2 = build_system(named_matrix("A2"))
    cox = untwisted(a2.element_from_word([0, 1]))
    C = Chamber.fundamental(a2)
    y = C.interior_point()
    components = eigen_decomposition(cox).project(y)
    # Components recombine to the start vector.
    total = [a2.field.zero] * 2
    for comp in components.values():
        total = [a + b for a, b in zip(total, comp)]
    assert all((a - b).is_zero() for a, b in zip(total, y))
    # Decay rates are nonnegative (1 - cos theta >= 0).
    for q in components:
        assert decay_rate(q) >= 0
        assert 0 <= q <= 1


def test_derivative_identity_is_flat():
    a2 = build_system(named_matrix("A2"))
    ident = untwisted(a2.identity)
    K = fixed_space(untwisted(a2.generator(0)))
    h = regular_point(a2, K)
    assert derivative_test(ident, 0, h, a2.pos_roots[0]) == 0


def test_derivative_exact_sign_a2():
    a2 = build_system(named_matrix("A2"))
    s1 = untwisted(a2.generator(0))
    K = fixed_space(untwisted(a2.generator(1)))
    h = regular_point(a2, K)
    v = a2.pos_roots[1]
    assert derivative_test(s1, 1, h, v) in (-1, 1)


@pytest.mark.parametrize("name", ["B2", "A3"])
def test_derivative_lemma_property(name):
    """Crossing a wall that raises the length by 2 has positive derivative."""
    system = build_system(named_matrix(name))
    tbl = system.table()
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        A = Chamber(system, tbl.element(rng.randrange(tbl.size)))
        i = rng.randrange(system.rank)
        A2 = A.cross(i)
        w = untwisted(tbl.element(rng.randrange(tbl.size)))
        la = conjugate_by_chamber(w, A).length()
        la2 = conjugate_by_chamber(w, A2).length()
        if la2 != la + 2:
            continue
        wall = A.walls()[i]
        # h: a regular point of the wall hyperplane inside the closed chamber.
        basis = fixed_space(untwisted(reflection_element(system, wall)))
        coords = all_roots_chamber_cone(system, basis, A)
        if coords is None:
            continue
        h = _combination(system.field, coords, basis)
        v = system.root_vector(wall)
        if system.inner(v, A.interior_point()).sign() > 0:
            v = tuple(-c for c in v)  # point out of A
        assert derivative_test(w, wall, h, v) > 0
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "F4", "I2(5)"])
def test_interior_point_is_rho(name):
    # t = 1 is x_A(rho), rho the exact solution of B p = 1.
    system = build_system(named_matrix(name))
    n, field = system.rank, system.field
    red, pivots = rref([tuple(system.bilinear[i]) + (field.one,) for i in range(n)])
    assert pivots == list(range(n))
    rho = tuple(row[n] for row in red)
    assert Chamber.fundamental(system).interior_point() == rho
    x = system.element_from_word([0, 1, 0])
    assert Chamber(system, x).interior_point() == x.apply(rho)


@pytest.mark.parametrize("name", ["B3", "H3"])
def test_interior_points_lie_in_the_open_chamber(name):
    # <alpha_i, sum_j t^j omega_j> = t^i > 0, so every y(t), t > 0, is an
    # exact interior point of its chamber.
    system = build_system(named_matrix(name))
    table = system.table()
    fund = Chamber.fundamental(system)
    for t in range(1, 5):
        p = fund.interior_point(t)
        assert [system.pair_root(i, p) for i in range(system.rank)] == \
            [t ** i for i in range(system.rank)]
    for idx in range(table.size):
        A = Chamber(system, table.element(idx))
        for t in range(1, 5):
            p = A.interior_point(t)
            assert all(system.pair_root(r, p).sign() == A.sign(r)
                       for r in range(system.npos))


def test_start_point_past_an_unusable_rho():
    # For the reflection s_1 of A2, V_w is the line fixed by s_1, and the
    # V_w-component of rho in the chamber s_2 lies on another root's
    # hyperplane; the start point moves on to t = 2, within the bound
    # (n - 1) #avoid + 1.
    a2 = build_system(named_matrix("A2"))
    w = untwisted(a2.generator(0))
    eig = eigen_decomposition(w, dft_check=False)
    h_vwt = hyperplanes_containing(a2, eig.v_wt)
    bound = (a2.rank - 1) * (a2.npos - len(h_vwt)) + 1
    A = Chamber(a2, a2.element_from_word([1]))

    def limit(t):
        return eig.project(A.interior_point(t))[eig.theta0]

    def regular(x):
        return all(r in h_vwt or not a2.pair_root(r, x).is_zero()
                   for r in range(a2.npos))

    assert not regular(limit(1))
    _, x, signs = _start_point(eig, A, 0)
    assert x == limit(2) and regular(x) and 2 <= bound
    assert signs == [a2.pair_root(r, x).sign() for r in range(a2.npos)]
    # start_index offsets t: the least t above it.
    assert _start_point(eig, A, 1)[1] == limit(2)
    assert _start_point(eig, A, 2)[1] == limit(3)
    res = descent_walk(w, A)
    assert res.regular_point == x
    assert res.end_chamber.contains_in_closure(x)


# A3 x A3 as one block-diagonal matrix; both twists swap the factors and
# reverse one of them (order 4).
A3XA3 = [[1, 3, 2, 2, 2, 2], [3, 1, 3, 2, 2, 2], [2, 3, 1, 2, 2, 2],
         [2, 2, 2, 1, 3, 2], [2, 2, 2, 3, 1, 3], [2, 2, 2, 2, 3, 1]]


@pytest.mark.parametrize("twist", [(3, 4, 5, 2, 1, 0), (5, 4, 3, 0, 1, 2)])
def test_a3xa3_walks_end_from_every_chamber(twist):
    # Every class of an order-4 twist of A3 x A3 from all 576 chambers: the
    # steps never raise the length, the chain replays, and the end chamber's
    # closure holds the regular point of V_w.
    system = build_system(CoxeterMatrix(A3XA3))
    table = system.table()
    records = enumerate_classes(system, DiagramTwist(system.matrix, twist))
    assert len(records) == 5
    for rec in records:
        w = rec.representative
        eig = eigen_decomposition(w, dft_check=False)
        view = eig.system
        h_vwt = hyperplanes_containing(view, eig.v_wt)
        for idx in range(table.size):
            A = Chamber(system, table.element(idx))
            res = descent_walk(w, A)
            assert all(s.length_after <= s.length_before for s in res.steps)
            assert res.chain.apply(conjugate_by_chamber(w, A)) == res.end_element
            assert res.end_chamber.contains_in_closure(res.regular_point)
            assert all(r in h_vwt or not view.pair_root(r, res.regular_point).is_zero()
                       for r in range(view.npos))


def test_walk_trivial_cases():
    a2 = build_system(named_matrix("A2"))
    C = Chamber.fundamental(a2)
    res = descent_walk(untwisted(a2.identity), C)
    assert res.steps == [] and res.end_chamber == C
    # Elliptic rotation: V_w = V, every chamber already qualifies.
    cox = untwisted(a2.element_from_word([0, 1]))
    for word in ([], [0], [1, 0]):
        res = descent_walk(cox, Chamber(a2, a2.element_from_word(word)))
        assert res.steps == []


def test_walk_soundness_and_chain():
    a3 = build_system(named_matrix("A3"))
    tbl = a3.table()
    rng = random.Random(12)
    for _ in range(20):
        w = untwisted(tbl.element(rng.randrange(tbl.size)))
        A = Chamber(a3, tbl.element(rng.randrange(tbl.size)))
        res = descent_walk(w, A)
        for s in res.steps:
            assert s.length_after <= s.length_before
        wa = conjugate_by_chamber(w, A)
        assert res.chain.apply(wa) == res.end_element
        assert res.end_chamber.contains_in_closure(res.regular_point)
        # The regular point is regular in V_w: recheck from scratch.
        eig = eigen_decomposition(w, dft_check=False)
        system = eig.system
        from coxmin.eigen import hyperplanes_containing
        h_vwt = hyperplanes_containing(system, eig.v_wt)
        for r in range(system.npos):
            if system.pair_root(r, res.regular_point).is_zero():
                assert r in h_vwt


def test_walk_deterministic():
    b3 = build_system(named_matrix("B3"))
    tbl = b3.table()
    w = untwisted(tbl.element(30))
    A = Chamber(b3, tbl.element(41))
    r1 = descent_walk(w, A)
    r2 = descent_walk(w, A)
    assert [s.wall_root for s in r1.steps] == [s.wall_root for s in r2.steps]
    assert r1.regular_point == r2.regular_point


def test_walk_reaches_class_minimum_with_recursion():
    """Walk plus parabolic recursion equals the brute-force class minimum."""
    from coxmin.walk import geometric_min_length
    rng = random.Random(5)
    for name, samples in [("A3", 24), ("B3", 12), ("D4", 8), ("F4", 6)]:
        system = build_system(named_matrix(name))
        recs = enumerate_classes(system)
        tbl = system.table()
        index_to_rec = {}
        for rec in recs:
            for x in rec.elements:
                index_to_rec[x] = rec
        for _ in range(samples):
            idx = rng.randrange(tbl.size)
            w = untwisted(tbl.element(idx))
            assert geometric_min_length(w) == index_to_rec[idx].min_length


def test_walk_reflection_class_ends_minimal():
    """For reflection-class elements the walk alone reaches minimal length."""
    a3 = build_system(named_matrix("A3"))
    tbl = a3.table()
    w = untwisted(a3.element_from_word([0, 1, 0]))  # a reflection, length 3
    for ci in range(tbl.size):
        A = Chamber(a3, tbl.element(ci))
        res = descent_walk(w, A)
        assert res.end_element.length() == 1


def test_special_length_formula_examples():
    b2 = build_system(named_matrix("B2"))
    C = Chamber.fundamental(b2)
    cox = untwisted(b2.element_from_word([0, 1]))
    eig = eigen_decomposition(cox, dft_check=False)
    assert special_length_formula(cox, eig.basis_of(Fraction(1, 2)), C) == 2
    # theta = 0: length 0.
    a2 = build_system(named_matrix("A2"))
    ident = untwisted(a2.identity)
    eig0 = eigen_decomposition(ident, dft_check=False)
    assert special_length_formula(ident, eig0.basis_of(Fraction(0)),
                                  Chamber.fundamental(a2)) == 0
    # theta = pi: length #(H - H_K).
    w0 = untwisted(b2.element_from_word([0, 1, 0, 1]))
    eigpi = eigen_decomposition(w0, dft_check=False)
    assert special_length_formula(w0, eigpi.basis_of(Fraction(1)), C) == 4


def test_special_length_formula_rejects():
    a2 = build_system(named_matrix("A2"))
    s1 = untwisted(a2.generator(0))
    eig = eigen_decomposition(s1, dft_check=False)
    # K = fixed line of s1; a chamber with w(A) in another H_K-component.
    bad = Chamber(a2, a2.generator(0))
    with pytest.raises(HypothesisFailed):
        special_length_formula(s1, eig.basis_of(Fraction(0)), bad)


def test_special_length_formula_rejects_a_moved_line():
    # K = the line of alpha_2, and s_1(alpha_2) = alpha_1 + alpha_2 leaves it.
    a2 = build_system(named_matrix("A2"))
    s1 = untwisted(a2.generator(0))
    eig = eigen_decomposition(s1, dft_check=False)
    assert eig.system is a2
    with pytest.raises(HypothesisFailed, match="not w-stable"):
        special_length_formula(s1, [a2.root_vector(1)], Chamber.fundamental(a2))


def test_special_length_formula_rejects_two_eigenspaces():
    # K = V^0 + V^pi of s_1 is w-stable (it is all of V) but lies in
    # neither eigenspace.
    a2 = build_system(named_matrix("A2"))
    s1 = untwisted(a2.generator(0))
    eig = eigen_decomposition(s1, dft_check=False)
    assert eig.angles == [Fraction(0), Fraction(1)]
    with pytest.raises(HypothesisFailed, match="no single eigenspace"):
        special_length_formula(s1, eig.full_basis(), Chamber.fundamental(a2))


def test_decompose_at_regular():
    a2 = build_system(named_matrix("A2"))
    C = Chamber.fundamental(a2)
    # Elliptic rotation plane: J empty, u trivial.
    cox = untwisted(a2.element_from_word([0, 1]))
    eig = eigen_decomposition(cox, dft_check=False)
    w_k, u, J = decompose_at_regular(cox, C, eig.basis_of(Fraction(2, 3)))
    assert J == () and u.is_identity() and w_k == cox
    # K = fixed line of s1: J = {0}, u in <s1>.
    s1 = untwisted(a2.generator(0))
    eig1 = eigen_decomposition(s1, dft_check=False)
    w_k, u, J = decompose_at_regular(s1, C, eig1.basis_of(Fraction(0)))
    assert J == (0,) and u == a2.generator(0) and w_k.length() == 0


def test_decompose_length_bookkeeping_random():
    b3 = build_system(named_matrix("B3"))
    tbl = b3.table()
    rng = random.Random(23)
    accepted = 0
    for _ in range(40):
        w = untwisted(tbl.element(rng.randrange(tbl.size)))
        A = Chamber(b3, tbl.element(rng.randrange(tbl.size)))
        eig = eigen_decomposition(w, dft_check=False)
        for q, _, basis in eig.entries:
            try:
                w_k, u, J = decompose_at_regular(w, A, basis)
            except HypothesisFailed:
                continue
            wa = conjugate_by_chamber(eig.owner, A.over(eig.system))
            assert wa.length() == u.length() + w_k.length()
            accepted += 1
    assert accepted > 10


def test_component_length():
    a2 = build_system(named_matrix("A2"))
    C = Chamber.fundamental(a2)
    ident = untwisted(a2.identity)
    eig = eigen_decomposition(ident, dft_check=False)
    assert component_length(ident, eig.basis_of(Fraction(0)), C) == 0
    s1 = untwisted(a2.generator(0))
    eig1 = eigen_decomposition(s1, dft_check=False)
    K = eig1.basis_of(Fraction(0))
    # s1 flips the component across its own wall: exactly one separation.
    assert component_length(s1, K, C) == 1


def test_component_formula_consistency():
    """l(w_A) = l(U) + (theta/pi)#(H - H_K) for qualifying A."""
    b2 = build_system(named_matrix("B2"))
    tbl = b2.table()
    for wi in range(tbl.size):
        w = untwisted(tbl.element(wi))
        eig = eigen_decomposition(w, dft_check=False)
        q = eig.theta0
        basis = eig.v_wt
        h_k_size = len(__import__("coxmin.eigen", fromlist=["hyperplanes_containing"])
                       .hyperplanes_containing(eig.system, basis))
        for ci in range(tbl.size):
            A = Chamber(b2, tbl.element(ci))
            try:
                w_k, u, J = decompose_at_regular(w, A, basis)
            except HypothesisFailed:
                continue
            lu = component_length(w, basis, A)
            wa = conjugate_by_chamber(w, A)
            predicted = lu + q * (b2.npos - h_k_size)
            assert predicted.denominator == 1
            assert wa.length() == int(predicted)


def test_strongly_connected_step_search():
    """Exhaustive qualifying pairs in B2 have verified equal lengths."""
    b2 = build_system(named_matrix("B2"))
    tbl = b2.table()
    qualifying = 0
    for wi in range(tbl.size):
        w = untwisted(tbl.element(wi))
        for ci in range(tbl.size):
            A = Chamber(b2, tbl.element(ci))
            for i in range(2):
                A2 = A.cross(i)
                try:
                    strongly_connected_step(w, A, A2)
                    qualifying += 1
                except HypothesisFailed:
                    pass
    assert qualifying > 0


def test_strongly_connected_hypothesis_gate():
    # w fixes H_0 & V_w: must raise HypothesisFailed (precondition gate).
    a2 = build_system(named_matrix("A2"))
    ident = untwisted(a2.identity)
    C = Chamber.fundamental(a2)
    with pytest.raises(HypothesisFailed):
        strongly_connected_step(ident, C, C.cross(0))


def test_mixed_levels_typed_error_survives_optimize():
    # An order-5 element of A5 with a fixed line: the base system is over Q
    # (L = 1) and its eigen view at L = 5.  A basis over the base field
    # handed to component_length meets the view's scalars; the level check
    # must raise its typed error with and without python -O (an assert
    # would vanish under -O, and zip would truncate the coefficients).
    script = (
        "from coxmin.coxeter import Chamber, build_system, named_matrix, untwisted\n"
        "from coxmin.eigen import fixed_space, order\n"
        "from coxmin.errors import FieldMismatch\n"
        "from coxmin.walk import component_length\n"
        "system = build_system(named_matrix('A5'))\n"
        "tbl = system.table()\n"
        "w = next(w for w in map(untwisted, map(tbl.element, range(tbl.size)))\n"
        "         if order(w) == 5 and fixed_space(w))\n"
        "if system.field.L != 1:\n"
        "    raise SystemExit('A5 is not built over Q')\n"
        "try:\n"
        "    component_length(w, fixed_space(w), Chamber.fundamental(system))\n"
        "except FieldMismatch as exc:\n"
        "    print('FieldMismatch', exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("FieldMismatch"), (flags, proc.stdout)


def test_engine_imports_no_mpmath():
    # Every check is exact over Q(2cos(pi/L)): importing coxmin, the DFT
    # cross-check and a descent walk leave mpmath unimported.
    script = (
        "import sys\n"
        "import coxmin\n"
        "from coxmin.coxeter import Chamber, build_system, named_matrix, untwisted\n"
        "from coxmin.eigen import eigen_decomposition\n"
        "from coxmin.walk import descent_walk\n"
        "h3 = build_system(named_matrix('H3'))\n"
        "w = untwisted(h3.element_from_word([0, 1, 2]))\n"
        "eigen_decomposition(w, dft_check=True)\n"
        "res = descent_walk(w, Chamber(h3, h3.element_from_word([2, 1, 0, 1])))\n"
        "print(len(res.steps), 'mpmath' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps, imported = proc.stdout.split()
    assert int(steps) > 0
    assert imported == "False"


def test_walls_near_matches_two_comprehensions():
    # The one-pass guidance classifier against the two list comprehensions
    # it replaced, on random values and on the boundaries +-tol, 0 and NaN.
    from coxmin.walk import _walls_near
    rng = random.Random(5)
    tol = 1e-11
    edge = [tol, -tol, 0.0, -0.0, 2 * tol, -2 * tol, tol / 2, float("nan"),
            float("inf"), -float("inf"), math.nextafter(tol, 1), math.nextafter(-tol, -1)]
    for trial in range(300):
        n = rng.randint(1, 40)
        vals = [rng.choice(edge) if rng.random() < 0.4 else rng.uniform(-3e-11, 3e-11)
                for _ in range(n)]
        signs = [rng.choice((1, -1)) for _ in range(n)]
        flips = [r for r in range(n)
                 if abs(vals[r]) > tol and (vals[r] > 0) != (signs[r] > 0)]
        tiny = [r for r in range(n) if abs(vals[r]) <= tol]
        assert _walls_near(vals, signs, tol) == (flips, tiny)


@pytest.mark.parametrize("name", ["B3", "H3"])
def test_memoized_invariant_angles_match_a_fresh_system(name):
    # Each eigenspace of each class representative: the angle served from
    # the system's memo equals the one computed on a freshly built system,
    # and the eigenspace's own angle.
    matrix = named_matrix(name)
    memo, fresh = build_system(matrix), build_system(matrix)
    for twist in enumerate_twists(matrix):
        for rec, frec in zip(enumerate_classes(memo, twist),
                             enumerate_classes(fresh, twist)):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            feig = eigen_decomposition(frec.representative, dft_check=False)
            for (q, _, basis), (_, _, fbasis) in zip(eig.entries, feig.entries):
                assert _angle_of_invariant_subspace(eig.owner, eig, basis) == q
                key = (eig.owner.twist.perm, eig.owner.k, eig.owner.body.perm,
                       tuple(basis))
                assert eig.system._invariant_angles[key] == q
                assert _angle_of_invariant_subspace(eig.owner, eig, basis) == q
                feig.system._invariant_angles.clear()
                assert _angle_of_invariant_subspace(feig.owner, feig, fbasis) == q


# sha256 over the walk-v1 JSON (sorted keys, one line each) of the three
# walks per H4 class from the chambers of `coxmin verify --checks walk` at
# --seed-index 0, captured before the guidance floats were read off the
# pairing kernel's numerators: every float the walk reads, so every path,
# must stay the same.
H4_WALKS_DIGEST = "324b401e90187ad20fd66a13392bd7437ece139f8e1f5a5a222efc2574476e98"


def test_h4_cli_walks_pinned():
    # A fresh interpreter, as the CLI has: the guidance floats depend on
    # how far earlier work refined each field's isolating interval.
    script = (
        "import hashlib, json\n"
        "from coxmin.conjugacy import enumerate_classes\n"
        "from coxmin.coxeter import Chamber, build_system, enumerate_twists, named_matrix\n"
        "from coxmin.walk import descent_walk\n"
        "system = build_system(named_matrix('H4'))\n"
        "table = system.table()\n"
        "(twist,) = enumerate_twists(system.matrix)\n"
        "h = hashlib.sha256()\n"
        "for rec in enumerate_classes(system, twist):\n"
        "    for j in range(3):\n"
        "        idx = (rec.class_id * 7919 + j * 104729) % table.size\n"
        "        res = descent_walk(rec.representative, Chamber(system, table.element(idx)))\n"
        "        h.update(json.dumps(res.to_json(), sort_keys=True).encode() + b'\\n')\n"
        "print(h.hexdigest())\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == H4_WALKS_DIGEST


def test_h4_lifts_build_no_pairing_kernel():
    # The 102 H4 CLI walks in a fresh interpreter raise the field to levels
    # 10, 15 and 30; those views pair through the base system's kernel and
    # float rows and build none of their own.
    script = (
        "from coxmin.conjugacy import enumerate_classes\n"
        "from coxmin.coxeter import Chamber, build_system, enumerate_twists, named_matrix\n"
        "from coxmin.walk import descent_walk\n"
        "system = build_system(named_matrix('H4'))\n"
        "table = system.table()\n"
        "(twist,) = enumerate_twists(system.matrix)\n"
        "for rec in enumerate_classes(system, twist):\n"
        "    for j in range(3):\n"
        "        idx = (rec.class_id * 7919 + j * 104729) % table.size\n"
        "        descent_walk(rec.representative, Chamber(system, table.element(idx)))\n"
        "print(system._kernel is not None, system._float_rows is not None)\n"
        "print(sorted(system._lifts))\n"
        "print([v._kernel is None and v._float_rows is None\n"
        "       for v in system._lifts.values()])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True", "[10, 15, 30]",
                                        "[True, True, True]"]


def test_eigenspace_angle_needs_no_span_check(monkeypatch):
    # A basis that is one of the decomposition's own is w-stable and lies
    # in its eigenspace: its angle is read off with no reduction.  Any
    # other basis still goes through the checks.
    import coxmin.walk as walk_mod
    h3 = build_system(named_matrix("H3"))
    w = untwisted(h3.element_from_word([0, 1, 2]))
    eig = eigen_decomposition(w, dft_check=False)

    class Reduced(Exception):
        pass

    def no_reduction(*args):
        raise Reduced
    monkeypatch.setattr(walk_mod, "reduced_basis", no_reduction)
    for q, _, basis in eig.entries:
        assert _angle_of_invariant_subspace(eig.owner, eig, list(basis)) == q
    with pytest.raises(Reduced):
        _angle_of_invariant_subspace(eig.owner, eig, eig.v_wt[:1])
