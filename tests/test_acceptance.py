"""Acceptance criteria, one test per criterion, exact (zero-tolerance) checks.

Scope: every irreducible type of rank <= 4 and every diagram twist.  The
I2(m) list skips m = 3, 4, 6 because those coincide with A2, B2, G2.
Criterion 10 adds the rank-5/6 types A5, D5, A6, B5, D6, E6 and criterion
11 reducible groups whose twists permute isomorphic factors, both under
every twist.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import itertools
import json
import math
import random

import pytest

from coxmin.braid import (BraidContext, TwistedBraid, good_min_element,
                          verify_quasi_elliptic_divisibility)
from coxmin.conjugacy import (TwistedCoset, _reach, approx_partition,
                              arrow_reachable_set,
                              arrow_reduce, elementary_strong_targets,
                              enumerate_classes, path_graph, strong_partition,
                              verify_arrow_reduction, verify_elliptic_approx,
                              verify_tau_surjective)
from coxmin.coxeter import (Chamber, build_system, conjugate_by_chamber,
                            enumerate_twists, named_matrix, untwisted,
                            TwistedElement)
from coxmin.cli import main
from coxmin.eigen import eigen_decomposition, hyperplanes_containing
from coxmin.errors import HypothesisFailed
from coxmin.walk import (decompose_at_regular, descent_walk,
                         special_length_formula, strongly_connected_step)
from oracles import (approx_blocks_by_union_find, arrow_depths_by_frontier,
                     arrow_reach_by_frontier, brute_strong_targets,
                     closure_by_perms, conjugate_by_index, path_graph_by_bfs,
                     reverse_arrow_reach_by_frontier)
from test_conjugacy import _block_diagonal, _table

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "G2",
             "H3", "H4", "I2(5)", "I2(7)", "I2(8)", "I2(9)", "I2(10)",
             "I2(11)", "I2(12)"]
RANK_LE_3 = ["A1", "A2", "A3", "B2", "B3", "G2", "H3", "I2(5)", "I2(7)",
             "I2(8)", "I2(9)", "I2(10)", "I2(11)", "I2(12)"]


@pytest.fixture(scope="module")
def sweep():
    """Class records for every (type, twist) in the acceptance scope."""
    data = {}
    for name in RANK_LE_4:
        system = build_system(named_matrix(name))
        for twist in enumerate_twists(system.matrix):
            records = enumerate_classes(system, twist)
            data[(name, twist.perm)] = records
    return data


def _report(num, label, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS {detail}")


def test_criterion_1_arrow_reduce_reaches_min(sweep):
    """Every element of every twisted class reduces into O_min."""
    elements = 0
    for (name, perm), records in sweep.items():
        for rec in records:
            verify_arrow_reduction(rec)  # reverse-reachability, whole class
            o_min = set(rec.o_min)
            depth = arrow_depths_by_frontier(rec)
            for x in rec.elements:
                end, chain = arrow_reduce(rec.coset.element(x), record=rec)
                assert end.length() == rec.min_length
                assert rec.coset.index(end) in o_min
                assert all(delta in (0, -2) for _, delta in chain.steps)
                assert len(chain) == depth[x]   # a shortest chain
                elements += 1
    _report(1, "Theorem 3.2(1) arrow reduction", f"{elements} elements")


def test_criterion_2_strong_single_block(sweep):
    classes = 0
    for (name, perm), records in sweep.items():
        for rec in records:
            blocks = strong_partition(rec)
            assert len(blocks) == 1, (name, perm, rec.class_id)
            classes += 1
    _report(2, "Theorem 3.2(2) strong conjugacy", f"{classes} classes")


def test_criterion_3_elliptic_classes(sweep):
    checked = 0
    for (name, perm), records in sweep.items():
        for rec in records:
            if not rec.elliptic:
                continue
            verify_elliptic_approx(rec)
            graph = verify_tau_surjective(rec.representative, rec.coset)
            assert graph.centralizer_covered
            assert graph.closed_order == rec.coset.table.size // rec.size
            checked += 1
    _report(3, "Corollary 4.3 + Theorem 4.2 + Corollary 4.5",
            f"{checked} elliptic classes")


def test_criterion_4_good_min_elements(sweep):
    certs = 0
    very_good_checked = 0
    for (name, perm), records in sweep.items():
        for rec in records:
            w_a, cert = good_min_element(rec)
            assert w_a.length() == rec.min_length, (name, perm, rec.class_id)
            assert all(e > 0 and e % 2 == 0 for e in cert.exponents)
            assert all(set(b) < set(a) for a, b in
                       zip(cert.subsets, cert.subsets[1:]))
            if cert.d % 2 == 0:
                assert cert.very_good, (name, perm, rec.class_id)
                very_good_checked += 1
            certs += 1
    _report(4, "Theorem 5.3 / Prop 5.5 good elements",
            f"{certs} certificates, {very_good_checked} very-good")


def test_criterion_5_quasi_elliptic_divisibility(sweep):
    checked = 0
    for (name, perm), records in sweep.items():
        for rec in records:
            if rec.quasi_elliptic:
                assert verify_quasi_elliptic_divisibility(rec)
                checked += 1
    _report(5, "Corollary 5.7 Delta^2 divisibility",
            f"{checked} quasi-elliptic classes")


def _criterion_6_inputs(per_type=100):
    """(w, start chamber) of criterion 6's walks, seeded per type."""
    for name in RANK_LE_4:
        system = build_system(named_matrix(name))
        twists = enumerate_twists(system.matrix)
        table = system.table()
        rng = random.Random(0xC0C5E7 + RANK_LE_4.index(name))
        for j in range(per_type):
            twist = twists[j % len(twists)]
            k = 1 if not twist.is_identity() else 0
            w = TwistedElement(system, twist, k,
                               table.element(rng.randrange(table.size)))
            yield w, Chamber(system, table.element(rng.randrange(table.size)))


def test_criterion_6_walks(sweep):
    total = 0
    for w, chamber in _criterion_6_inputs():
        result = descent_walk(w, chamber)
        # Every step certified exactly; end point certified regular.
        for s in result.steps:
            assert s.length_after <= s.length_before
            assert s.length_before - s.length_after in (0, 2)
        wa = conjugate_by_chamber(w, chamber)
        assert result.chain.apply(wa) == result.end_element
        assert result.end_chamber.contains_in_closure(result.regular_point)
        # The end point is a regular point of V_w for the walked element.
        eig = eigen_decomposition(w, dft_check=False)
        h_vwt = hyperplanes_containing(eig.system, eig.v_wt)
        sys2 = eig.system
        for r in range(sys2.npos):
            if sys2.pair_root(r, result.regular_point).is_zero():
                assert r in h_vwt
        total += 1
    _report(6, "Prop 1.7 descent walks", f"{total} walks")


def _h4_cli_walk_inputs():
    """(w, start chamber) of the three walks per H4 class that
    `coxmin verify --checks walk` takes at --seed-index 0."""
    system = build_system(named_matrix("H4"))
    table = system.table()
    (twist,) = enumerate_twists(system.matrix)
    for rec in enumerate_classes(system, twist):
        for j in range(3):
            idx = (rec.class_id * 7919 + j * 104729) % table.size
            yield rec.representative, Chamber(system, table.element(idx))


def test_live_root_filter_is_sound(monkeypatch):
    """At every probe of criterion 6's walks and the 102 H4 CLI walks, the
    live roots alone give the flips and tiny walls that all roots give.

    The walks run over all roots here, so each probe sees every value; the
    filter's own list is checked against it, and must drop some roots.
    Synthetic flows with values near the tolerance, where the filter's
    margin decides, are checked the same way."""
    import coxmin.walk as walk_mod
    live_roots, walls_near = walk_mod._live_roots, walk_mod._walls_near
    seen = {"live": None, "probes": 0, "dropped": 0}

    def agree(vals, signs, live, tol):
        flips, tiny = walls_near(vals, signs, tol)
        f, t = walls_near([vals[r] for r in live], [signs[r] for r in live], tol)
        assert ([live[p] for p in f], [live[p] for p in t]) == (flips, tiny)
        return flips, tiny

    def every_root(x_col, rest, tol):
        seen["live"] = live_roots(x_col, rest, tol)
        return list(range(len(x_col)))

    def both_ways(vals, signs, tol):
        seen["probes"] += 1
        seen["dropped"] += len(vals) - len(seen["live"])
        return agree(vals, signs, seen["live"], tol)

    monkeypatch.setattr(walk_mod, "_live_roots", every_root)
    monkeypatch.setattr(walk_mod, "_walls_near", both_ways)
    walks = 0
    for w, chamber in itertools.chain(_criterion_6_inputs(), _h4_cli_walk_inputs()):
        descent_walk(w, chamber)
        walks += 1
    assert walks == 19 * 100 + 102
    assert seen["probes"] > 0 and seen["dropped"] > 0

    # A root with x-value tol / 2 is tiny as s grows; the random flows mix
    # values within a few tol of 0 with values of order 1.
    tol = 1e-11
    rng = random.Random(7)

    def draw(npos):
        return [rng.choice((rng.uniform(-5 * tol, 5 * tol), rng.uniform(-1, 1)))
                for _ in range(npos)]

    flows = [([tol / 2], [[10.0]], [1.0])]
    for _ in range(200):
        npos, m = rng.randint(1, 8), rng.randint(1, 3)
        flows.append((draw(npos), [draw(npos) for _ in range(m)],
                      sorted(rng.uniform(0.1, 8.0) for _ in range(m))))
    for x_col, rest, rates in flows:
        live = live_roots(x_col, rest, tol)
        signs = [1 if sum(col) >= 0 else -1 for col in zip(x_col, *rest)]
        for s in [0.0] + [2.0 ** e for e in range(-6, 12)]:
            vals = x_col
            for rt, col in zip(rates, rest):
                d = math.exp(-rt * s)
                vals = [v + c * d for v, c in zip(vals, col)]
            agree(vals, signs, live, tol)


def test_guidance_floats_within_budget(monkeypatch):
    """At the start points of criterion 6's walks and the 102 H4 CLI walks,
    each float guidance column lies within 1e-13 scale_ref of float_of of
    the exact pairings of its component, the nonzero angles are the exact
    projection's, and the start index t is the least one whose exact
    theta_0-component is regular in V_w."""
    import coxmin.walk as walk_mod
    interior_point = Chamber.interior_point
    used = []

    def recording(chamber, t):
        used.append(t)
        return interior_point(chamber, t)

    monkeypatch.setattr(Chamber, "interior_point", recording)
    walks = 0
    worst = 0.0
    for w, chamber in itertools.chain(_criterion_6_inputs(), _h4_cli_walk_inputs()):
        eig = eigen_decomposition(w, dft_check=False)
        system = eig.system
        chamber = chamber.over(system)
        used.clear()
        cols, x_dir, sgn_x = walk_mod._start_point(eig, chamber, 0)
        h_vwt = hyperplanes_containing(system, eig.v_wt)
        for t in itertools.count(1):
            comps = {q: c for q, c in eig.project(interior_point(chamber, t)).items()
                     if any(c)}
            x = comps.get(eig.theta0)
            if x is None:
                continue
            x_pairs = system.root_pairings(x)
            if all(any(num) or r in h_vwt for r, (num, _) in enumerate(x_pairs)):
                break
        assert used[-1] == t
        assert x_dir == x
        assert sgn_x == [system.field.sign_of(num) for num, _ in x_pairs]
        assert list(cols) == sorted(comps)
        float_of = system.field.float_of
        exact = {q: [float_of(num, den) for num, den in system.root_pairings(c)]
                 for q, c in comps.items()}
        scale_ref = max(abs(f) for col in exact.values() for f in col)
        for q, col in cols.items():
            err = max(abs(a - b) for a, b in zip(col, exact[q])) / scale_ref
            assert err <= 1e-13, (w, chamber, q, err)
            worst = max(worst, err)
        walks += 1
    assert walks == 19 * 100 + 102
    _report(6, "guidance floats against exact pairings",
            f"{walks} start points, worst error {worst:.1e} scale")


def test_criterion_7_length_formulas(sweep):
    accepted = 0
    # (a) special_length_formula over eigenspaces of class representatives.
    for name in RANK_LE_3:
        system = build_system(named_matrix(name))
        for twist in enumerate_twists(system.matrix):
            for rec in sweep[(name, twist.perm)]:
                rep = rec.representative
                eig = eigen_decomposition(rep, dft_check=False)
                fund = Chamber.fundamental(eig.system)
                for q, _, basis in eig.entries:
                    try:
                        special_length_formula(eig.owner, basis, fund)
                        accepted += 1
                    except HypothesisFailed:
                        pass
                    try:
                        decompose_at_regular(eig.owner, fund, basis)
                        accepted += 1
                    except HypothesisFailed:
                        pass
    # (b) decomposition at every walk endpoint (always accepted there).
    for name in ["A3", "B3", "B4"]:
        system = build_system(named_matrix(name))
        table = system.table()
        rng = random.Random(1234)
        for _ in range(10):
            w = untwisted(table.element(rng.randrange(table.size)))
            chamber = Chamber(system, table.element(rng.randrange(table.size)))
            result = descent_walk(w, chamber)
            eig = eigen_decomposition(w, dft_check=False)
            decompose_at_regular(eig.owner, result.end_chamber, eig.v_wt)
            accepted += 1
    # (c) exhaustive strongly-connected pairs in B2 and A3.
    for name in ["B2", "A3"]:
        system = build_system(named_matrix(name))
        table = system.table()
        step = max(1, table.size // 12)
        for wi in range(0, table.size, step):
            w = untwisted(table.element(wi))
            for ci in range(table.size):
                a = Chamber(system, table.element(ci))
                for i in range(system.rank):
                    try:
                        strongly_connected_step(w, a, a.cross(i))
                        accepted += 1
                    except HypothesisFailed:
                        pass
    assert accepted > 100
    _report(7, "Length formulas", f"{accepted} accepted instances")


def _rewrite_closure(word, matrix):
    rels = []
    n = matrix.rank
    for i in range(n):
        for j in range(n):
            if i != j:
                m = matrix[i, j]
                lhs = tuple((i, j)[k % 2] for k in range(m))
                rhs = tuple((j, i)[k % 2] for k in range(m))
                rels.append((lhs, rhs))
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        nxt = []
        for w in frontier:
            for lhs, rhs in rels:
                L = len(lhs)
                for p in range(len(w) - L + 1):
                    if w[p:p + L] == lhs:
                        w2 = w[:p] + rhs + w[p + L:]
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
        frontier = nxt
    return seen


def test_criterion_8_oracle_equivalences(sweep):
    # (a) Garside NF equality == rewriting-closure equality, words <= 10.
    words_checked = 0
    for name in ["A2", "B2", "G2", "I2(7)"]:
        system = build_system(named_matrix(name))
        ctx = BraidContext(system)
        closure_id = {}
        nf_to_id = {}
        next_id = 0
        for length in range(0, 11):
            for word in itertools.product(range(2), repeat=length):
                if word in closure_id:
                    continue
                closure = _rewrite_closure(word, system.matrix)
                nf = TwistedBraid(ctx, 0, word).normal_form()
                for w2 in closure:
                    closure_id[w2] = next_id
                    assert TwistedBraid(ctx, 0, w2).normal_form() == nf
                assert nf not in nf_to_id
                nf_to_id[nf] = next_id
                next_id += 1
                words_checked += len(closure)
    # (b) arrow_reduce end length == brute-force class minimum, rank <= 3.
    ends_checked = 0
    for name in RANK_LE_3:
        system = build_system(named_matrix(name))
        for twist in enumerate_twists(system.matrix):
            for rec in sweep[(name, twist.perm)]:
                brute_min = min(rec.coset.length(x) for x in rec.elements)
                for x in rec.elements:
                    w = rec.coset.element(x)
                    end, chain = arrow_reduce(w, record=rec)
                    assert end.length() == brute_min
                    # The record-free call searches w's class itself and
                    # finds the same chain.
                    assert arrow_reduce(w) == (end, chain)
                    assert chain.apply(w) == end
                    ends_checked += 1
    # (c) pruned witness search == unpruned exhaustive search, rank <= 3.
    witnesses_checked = 0
    for name in ["A3", "B3", "H3"]:
        system = build_system(named_matrix(name))
        for twist in enumerate_twists(system.matrix):
            for rec in sweep[(name, twist.perm)]:
                for x in rec.o_min:
                    pruned = set(elementary_strong_targets(rec.coset, x))
                    brute = set(brute_strong_targets(rec.coset, x))
                    assert pruned == brute
                    witnesses_checked += 1
    _report(8, "Oracle equivalences",
            f"{words_checked} words, {ends_checked} reductions, "
            f"{witnesses_checked} witness sets")


def test_criterion_9_eigenstructure(sweep):
    per_type = 200
    checked = 0
    for name in RANK_LE_4:
        system = build_system(named_matrix(name))
        twists = enumerate_twists(system.matrix)
        table = system.table()
        rng = random.Random(0xE16E + RANK_LE_4.index(name))
        for j in range(per_type):
            twist = twists[j % len(twists)]
            k = 1 if not twist.is_identity() else 0
            w = TwistedElement(system, twist, k,
                               table.element(rng.randrange(table.size)))
            # dft_check=True: the exact trace-DFT multiplicities must equal
            # the kernel ranks (MultiplicityMismatch otherwise).
            eig = eigen_decomposition(w, dft_check=True)
            dims = [d for _, d, _ in eig.entries]
            assert sum(dims) == system.rank
            for q, d, _ in eig.entries:
                if q not in (0, 1):
                    assert d % 2 == 0
            checked += 1
    _report(9, "Eigenstructure DFT cross-check", f"{checked} elements")


# ---------------------------------------------------------------------------
# Past rank 4, and reducible groups.


def _verify_auto(capsys, *argv):
    """Exit code and result rows of an in-process `verify --twist auto`."""
    code = main(["verify", "--twist", "auto", *argv])
    return code, json.loads(capsys.readouterr().out)["results"]


def _least_inversion_count(rec):
    """min over the class of #{r > 0 : x(alpha_r) < 0}, read off the
    permutations alone (no table lengths)."""
    npos = rec.coset.system.npos
    perms = rec.coset.table.perms
    return min(sum(r >= npos for r in perms[x][:npos]) for x in rec.elements)


def _searches_match_oracles(rec):
    """The class layer's searches against the union-find and frontier
    oracles: the approx blocks, gp1's reach from O_min, and the arrow reach
    of the class's longest element (its last body)."""
    coset, npos = rec.coset, rec.coset.system.npos
    assert approx_partition(rec) == approx_blocks_by_union_find(rec)
    assert set(_reach(coset, rec.o_min, 0, npos)) == \
        reverse_arrow_reach_by_frontier(rec) == set(rec.elements)
    assert verify_arrow_reduction(rec)
    x = rec.elements[-1]
    assert arrow_reachable_set(coset.element(x), coset) == \
        arrow_reach_by_frontier(coset, x)


RANK_5_AND_6 = ["A5", "D5", "A6", "B5", "D6", "E6"]


def test_criterion_10_rank_five_and_six(capsys):
    classes = 0
    for name in RANK_5_AND_6:
        code, results = _verify_auto(capsys, "--type", name)
        assert code == 0, name
        assert {r["status"] for r in results} <= {"pass", "skip"}, name
        system = build_system(named_matrix(name))
        for twist in enumerate_twists(system.matrix):
            label = ",".join(str(i + 1) for i in twist.perm)
            records = enumerate_classes(system, twist)
            assert {r["class_id"] for r in results if r["twist"] == label} == \
                set(range(len(records)))
            for rec in records:
                assert _least_inversion_count(rec) == rec.min_length
                _searches_match_oracles(rec)
                classes += 1
    _report(10, "Theorems past rank 4", f"{classes} classes")


PRODUCTS = [(("A1", "A1", "A1"), 6), (("A2", "A2"), 8), (("B2", "B2"), 8),
            (("A3", "A1"), 2), (("H3", "A1"), 1), (("G2", "G2"), 8),
            (("I2(5)", "I2(5)"), 8), (("D4", "A1"), 6), (("A3", "A3"), 8)]


def _orbit_oracle(names, perm):
    """Sorted (minimal length, size) of the classes of W = W_1 x ... x W_r
    in the coset W d, from the factors alone.

    d permutes the factors.  Take one d-orbit of l factors, W_{j+1} =
    d W_j d^-1, each identified with W_1 through d, and delta = d^l on
    W_1.  Write d(x_1, ..., x_l) d^-1 = (delta(x_l), x_1, ..., x_{l-1}) and
    pi(x) = x_1 delta(x_l ... x_2).  Conjugating x d by a = (a_1, ..., a_l)
    gives a x d(a)^-1 d, whose pi is a_1 pi(x) delta(a_1)^-1: conjugation
    moves the cyclic product by delta-twisted conjugation.  Conversely, if
    pi(y) = b pi(x) delta(b)^-1, take a_1 = b and a_j = y_j a_{j-1} x_j^-1
    for j = 2..l; then a x d a^-1 = y d.  So the classes over the orbit are
    the preimages of the delta-twisted classes of W_1, each |W_1|^(l-1)
    times larger (x_2, ..., x_l are free).  delta keeps lengths, so
    l(x_1) + ... + l(x_l) >= l(pi(x)), with equality at (pi(x), 1, ..., 1),
    which has the same pi: the minimal lengths agree.  Across orbits the
    coset is a product, so lengths add and sizes multiply.
    """
    blocks, at = [], 0
    for name in names:
        rank = named_matrix(name).rank
        blocks.append(list(range(at, at + rank)))
        at += rank
    block_of = {i: b for b, block in enumerate(blocks) for i in block}
    table, done = [(0, 1)], set()
    for b, block in enumerate(blocks):
        if b in done:
            continue
        orbit, i = [b], perm[block[0]]
        while block_of[i] != b:
            orbit.append(block_of[i])
            i = perm[i]
        done.update(orbit)
        delta = []
        for i in block:
            for _ in orbit:
                i = perm[i]
            delta.append(block.index(i))
        factor = build_system(named_matrix(names[b]))
        scale = factor.table().size ** (len(orbit) - 1)
        table = [(l1 + l2, s1 * s2 * scale) for l1, s1 in table
                 for l2, s2 in _table(factor, delta)]
    return sorted(table)


def test_criterion_11_products_under_every_twist(capsys, tmp_path):
    assert _orbit_oracle(("G2", "G2"), (2, 3, 1, 0)) == \
        [(0, 72), (1, 24), (3, 24), (5, 24)]  # 12 x the table of 2G2
    assert _orbit_oracle(("A1", "A1", "A1"), (1, 2, 0)) == [(0, 4), (1, 4)]
    cosets = 0
    for names, num_twists in PRODUCTS:
        matrix = _block_diagonal(*names)
        path = tmp_path / ("x".join(names) + ".json")
        path.write_text(json.dumps({"matrix": [list(row) for row in matrix.entries]}))
        code, results = _verify_auto(capsys, "--matrix", str(path))
        assert code == 0, names
        assert {r["status"] for r in results} <= {"pass", "skip"}, names
        system = build_system(matrix)
        twists = enumerate_twists(matrix)
        assert len(twists) == num_twists, names
        for twist in twists:
            records = enumerate_classes(system, twist)
            assert sorted((r.min_length, r.size) for r in records) == \
                _orbit_oracle(names, twist.perm), (names, twist.perm)
            for rec in records:
                assert _least_inversion_count(rec) == rec.min_length
                _searches_match_oracles(rec)
            cosets += 1
    _report(11, "Reducible groups against the orbit oracle",
            f"{len(PRODUCTS)} products, {cosets} twisted cosets")


# The groups of criteria 10 and 11, one factor name each (E6 among them).
CRITERIA_10_AND_11 = ([(name,) for name in RANK_5_AND_6] +
                      [names for names, _ in PRODUCTS])


def _product_system(names):
    matrix = named_matrix(names[0]) if len(names) == 1 else _block_diagonal(*names)
    return build_system(matrix)


@pytest.mark.parametrize("names", CRITERIA_10_AND_11, ids="x".join)
def test_step_rows_match_the_permutation_oracle(names):
    """Every entry of every step row, over the cosets of criteria 10 and 11
    (E6 under both twists among them), against conjugate_by_index: the body
    of s_i (d^k x) s_i from root permutations alone, with no table row."""
    system = _product_system(names)
    table = system.table()
    for twist in enumerate_twists(system.matrix):
        coset = TwistedCoset(system, twist)
        assert len(coset.step_rows) == system.rank
        for i, row in enumerate(coset.step_rows):
            s_i = table.index[system.reflections[i]]
            assert list(row) == [conjugate_by_index(coset, x, s_i)
                                 for x in range(table.size)], (twist.perm, i)


def _class_graphs(names):
    """(record, path_graph of its representative) over every class of every
    twisted coset of the group."""
    system = _product_system(names)
    for twist in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, twist):
            yield rec, path_graph(rec.representative, rec.coset)


@pytest.mark.parametrize("names", CRITERIA_10_AND_11, ids="x".join)
def test_path_graph_matches_the_bfs_oracle(names):
    """The covering count of every class of the criterion 10 and 11 cosets
    against the BFS over the reached part of W_w."""
    for rec, graph in _class_graphs(names):
        vertices, reached, centralizer, z_order = path_graph_by_bfs(
            rec.representative, rec.coset)
        assert (graph.num_vertices, graph.num_reached, graph.closed_order,
                graph.centralizer_order) == (
            vertices, len(reached), len(centralizer), z_order), rec.class_id
        assert graph.surjective == (len(reached) == vertices)
        assert graph.centralizer_covered == (len(centralizer) == z_order)


@pytest.mark.parametrize("names", CRITERIA_10_AND_11, ids="x".join)
def test_path_graph_keeps_at_most_log2_generators(names):
    """Each kept generator lies outside the group the ones before it
    generate (closed over root permutations), so it at least doubles the
    group, and at most log2 |Z_R| are kept."""
    for rec, graph in _class_graphs(names):
        table = rec.coset.table
        assert 2 ** len(graph.generators) <= graph.closed_order, rec.class_id
        for k, g in enumerate(graph.generators):
            assert g not in closure_by_perms(table, graph.generators[:k])
