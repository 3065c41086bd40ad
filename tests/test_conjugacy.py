import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from coxmin import conjugacy
from coxmin.conjugacy import (ReductionChain, TwistedCoset, _strong_related,
                              approx_partition,
                              arrow_reduce, arrow_reachable_set,
                              elementary_strong_targets,
                              enumerate_classes, partial_conjugation_transfer,
                              path_graph, strong_partition,
                              verify_arrow_reduction, verify_elliptic_approx,
                              verify_tau_surjective)
from coxmin.coxeter import (CoxeterMatrix, DiagramTwist, build_system,
                            enumerate_twists, named_matrix,
                            untwisted, is_minimal_double_coset_rep,
                            normalizes_parabolic, parabolic_max)
from coxmin.errors import TheoremViolation, TooLarge
from oracles import (brute_strong_targets, classes_by_union_find, conj,
                     conjugate_by_index)


def test_class_counts():
    a2 = build_system(named_matrix("A2"))
    recs = enumerate_classes(a2)
    assert sorted(r.size for r in recs) == [1, 2, 3]
    a1 = build_system(named_matrix("A1"))
    assert len(enumerate_classes(a1)) == 2
    a3 = build_system(named_matrix("A3"))
    assert len(enumerate_classes(a3)) == 5  # partitions of 4


def test_twisted_classes_match_brute_force():
    a2 = build_system(named_matrix("A2"))
    delta = enumerate_twists(a2.matrix)[1]
    recs = enumerate_classes(a2, delta)
    coset = recs[0].coset
    t = coset.table
    seen = set()
    orbits = 0
    for x in range(t.size):
        if x in seen:
            continue
        orbits += 1
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for z in frontier:
                for g in range(t.size):
                    y = conjugate_by_index(coset, z, g)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
    assert orbits == len(recs)
    assert sum(r.size for r in recs) == t.size


def test_too_large_bound():
    a3 = build_system(named_matrix("A3"))
    with pytest.raises(TooLarge):
        enumerate_classes(a3, max_order=10)


def test_arrow_reduce_examples():
    a2 = build_system(named_matrix("A2"))
    recs = enumerate_classes(a2)
    refl_class = next(r for r in recs if r.min_length == 1)
    # Already-minimal element: empty chain.
    end, chain = arrow_reduce(untwisted(a2.generator(0)), record=refl_class)
    assert len(chain) == 0 and end.length() == 1
    # s1 s2 s1 reduces to length 1.
    end, chain = arrow_reduce(untwisted(a2.element_from_word([0, 1, 0])),
                              record=refl_class)
    assert end.length() == 1
    assert chain.apply(untwisted(a2.element_from_word([0, 1, 0]))) == end
    # w0 of B2 is central: a singleton class, empty chain.
    b2 = build_system(named_matrix("B2"))
    recsb = enumerate_classes(b2)
    w0 = untwisted(b2.element_from_word([0, 1, 0, 1]))
    w0_class = next(r for r in recsb if r.min_length == 4)
    assert w0_class.size == 1
    end, chain = arrow_reduce(w0, record=w0_class)
    assert len(chain) == 0 and end == w0


def test_arrow_reduce_standalone():
    a3 = build_system(named_matrix("A3"))
    w = untwisted(a3.element_from_word([0, 1, 0, 2]))
    end, chain = arrow_reduce(w)
    assert end.length() <= w.length()
    assert chain.apply(w) == end


def test_arrow_reduce_rejects_an_element_of_another_class():
    b3 = build_system(named_matrix("B3"))
    recs = enumerate_classes(b3)
    # B3's two reflection classes share the minimal length 1.
    rec, other = [r for r in recs if r.min_length == 1]
    with pytest.raises(ValueError):
        arrow_reduce(rec.coset.element(other.o_min[0]), record=rec)
    # An element of a class with another minimal length.
    assert recs[-1].min_length != 1
    with pytest.raises(ValueError):
        arrow_reduce(rec.coset.element(recs[-1].elements[-1]), record=rec)


def _chains(records, order):
    """(class id, body) -> (end body, chain steps), reducing each class's
    bodies in `order`."""
    chains = {}
    for rec in records:
        for x in order(rec.elements):
            end, chain = arrow_reduce(rec.coset.element(x), record=rec)
            chains[rec.class_id, x] = (rec.coset.index(end), chain.steps)
    return chains


def test_arrow_chains_do_not_depend_on_call_order():
    # Ascending on one set of records, descending on fresh ones.
    compared = 0
    for name in ["A3", "B3", "H3", "A4", "D4", "F4"]:
        system = build_system(named_matrix(name))
        for tw in enumerate_twists(system.matrix):
            up = _chains(enumerate_classes(system, tw), list)
            down = _chains(enumerate_classes(system, tw), reversed)
            assert up == down, (name, tw.perm)
            compared += len(up)
    assert compared == 3912


def test_arrow_monotone_and_reachability():
    b3 = build_system(named_matrix("B3"))
    w = untwisted(b3.element_from_word([0, 1, 2, 0, 1]))
    coset = TwistedCoset(b3, enumerate_twists(b3.matrix)[0], 0)
    reach = arrow_reachable_set(w, coset)
    lw = w.length()
    assert all(coset.length(x) <= lw for x in reach)


def test_approx_partition_examples():
    a2 = build_system(named_matrix("A2"))
    recs = enumerate_classes(a2)
    cox = next(r for r in recs if r.min_length == 2)
    assert len(approx_partition(cox)) == 1  # {s1s2, s2s1} joined by s1
    a3 = build_system(named_matrix("A3"))
    refl = next(r for r in enumerate_classes(a3) if r.min_length == 1)
    blocks = approx_partition(refl)
    assert len(blocks) > 1  # equal-length simple conjugation is restrictive
    assert len(strong_partition(refl)) == 1


def test_partition_refinement_invariants():
    b3 = build_system(named_matrix("B3"))
    for rec in enumerate_classes(b3):
        approx = approx_partition(rec)
        strong = strong_partition(rec)
        assert sum(len(b) for b in approx) == len(rec.o_min)
        # approx refines strong.
        strong_of = {}
        for bi, block in enumerate(strong):
            for x in block:
                strong_of[x] = bi
        for block in approx:
            assert len({strong_of[x] for x in block}) == 1
        # lengths constant on O_min.
        assert {rec.coset.length(x) for x in rec.o_min} == {rec.min_length}


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "F4"])
def test_pruned_matches_unpruned(name):
    system = build_system(named_matrix(name))
    for tw in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, tw):
            for x in rec.o_min:
                pruned = set(elementary_strong_targets(rec.coset, x))
                brute = set(brute_strong_targets(rec.coset, x))
                assert pruned == brute


def _full_closure_blocks(rec):
    """Oracle: O_min seeded with its approx blocks, then every x joined to
    its complete target set, with no early exit."""
    parent = {x: x for x in rec.o_min}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def join(a, b):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)

    for block in approx_partition(rec):
        for other in block[1:]:
            join(block[0], other)
    for x in rec.o_min:
        for y in set(elementary_strong_targets(rec.coset, x)):
            if y in parent:
                join(x, y)
    blocks = {}
    for x in rec.o_min:
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "F4"])
def test_strong_partition_matches_full_closure(name):
    system = build_system(named_matrix(name))
    for tw in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, tw):
            assert strong_partition(rec) == _full_closure_blocks(rec)
            # Each target is yielded once.
            for x in rec.o_min:
                drawn = list(elementary_strong_targets(rec.coset, x))
                assert len(drawn) == len(set(drawn))


@pytest.mark.parametrize("name, draws_fewer", [("D4", True), ("F4", False)])
def test_strong_search_stops_at_one_block(monkeypatch, name, draws_fewer):
    # strong_partition closes a search once O_min is one block.  On F4 each
    # target set is O_min itself and the last merge comes with the last
    # target, so only the rest of the search is skipped; on D4 class 5
    # (identity twist) fewer targets are drawn than the set holds.
    real = conjugacy.elementary_strong_targets
    searched = []
    counts = {"drawn": 0, "closed": 0}

    def counting(coset, x):
        searched.append((coset, x))
        finished = False
        try:
            for y in real(coset, x):
                counts["drawn"] += 1
                yield y
            finished = True
        finally:
            counts["closed"] += not finished

    monkeypatch.setattr(conjugacy, "elementary_strong_targets", counting)
    system = build_system(named_matrix(name))
    closed = fewer = 0
    for tw in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, tw):
            searched.clear()
            counts.update(drawn=0, closed=0)
            assert len(strong_partition(rec)) == 1
            full = sum(len(set(real(c, x))) for c, x in searched)
            assert counts["drawn"] <= full
            closed += counts["closed"]
            fewer += counts["drawn"] < full
    assert closed > 0
    assert (fewer > 0) == draws_fewer


# (calls, targets drawn) of the elementary strong search over
# strong_partition of every class under every twist.
STRONG_WORK = {"A3": (2, 6), "A4": (5, 20), "B3": (1, 2), "H3": (1, 3),
               "F4": (3, 7), "G2": (0, 0), "I2(5)": (1, 2), "I2(8)": (0, 0),
               "D4": (5, 14), "H4": (3, 10), "E6": (16, 190), "A5": (8, 54),
               "D5": (10, 49)}


@pytest.mark.parametrize("name", list(STRONG_WORK))
def test_strong_partition_search_work(monkeypatch, name):
    # A block is searched from its least element, through approx blocks
    # first, and the search ends once every element of O_min is placed.
    real = conjugacy.elementary_strong_targets
    counts = [0, 0]

    def counting(coset, x):
        counts[0] += 1
        for y in real(coset, x):
            counts[1] += 1
            yield y

    monkeypatch.setattr(conjugacy, "elementary_strong_targets", counting)
    system = build_system(named_matrix(name))
    for tw in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, tw):
            assert len(strong_partition(rec)) == 1
    assert tuple(counts) == STRONG_WORK[name]


@pytest.mark.parametrize("name,twist", [("B3", None), ("D4", None), ("F4", None),
                                        ("A2xA2", "3,4,1,2")],
                         ids=["B3", "D4", "F4", "A2xA2"])
def test_strong_related_matches_closure(name, twist):
    # The transfer oracle's verdicts equal the components of the full
    # closure, and it says False for an element of the same length in
    # another class, or of another length.  The twist is 1-based, as on the
    # command line; None: every twist.
    matrix = _block_diagonal(*name.split("x")) if "x" in name else named_matrix(name)
    system = build_system(matrix)
    if twist is None:
        twists = enumerate_twists(matrix)
    else:
        twists = [DiagramTwist(matrix, [int(x) - 1 for x in twist.split(",")])]
    for tw in twists:
        records = enumerate_classes(system, tw)
        coset = records[0].coset
        unrelated = 0
        for rec in records:
            block_of = {x: i for i, block in enumerate(_full_closure_blocks(rec))
                        for x in block}
            for a in rec.o_min:
                for b in rec.o_min:
                    assert _strong_related(coset, a, b) == (
                        block_of[a] == block_of[b])
            a = rec.o_min[0]
            for other in records:
                if other is not rec:
                    same = [y for y in other.elements
                            if coset.length(y) == rec.min_length]
                    if same:
                        assert not _strong_related(coset, a, same[0])
                        unrelated += 1
            longest = max(rec.elements, key=coset.length)
            if coset.length(longest) != rec.min_length:
                assert not _strong_related(coset, a, longest)
        assert unrelated > 0


def test_theorems_on_small_types():
    for name in ["A2", "B2", "A3", "G2"]:
        system = build_system(named_matrix(name))
        for tw in enumerate_twists(system.matrix):
            for rec in enumerate_classes(system, tw):
                verify_arrow_reduction(rec)
                assert len(strong_partition(rec)) == 1
                if rec.elliptic:
                    verify_elliptic_approx(rec)
                    verify_tau_surjective(rec.representative, rec.coset)


def test_path_graph_a2_coxeter():
    a2 = build_system(named_matrix("A2"))
    recs = enumerate_classes(a2)
    cox = next(r for r in recs if r.min_length == 2)
    graph = path_graph(cox.representative, cox.coset)
    assert graph.num_vertices == 6  # all of W preserves the length
    assert graph.surjective
    assert graph.centralizer_covered
    assert len(graph.centralizer) == cox.coset.table.size // cox.size


def test_path_graph_identity():
    a2 = build_system(named_matrix("A2"))
    ident_class = next(r for r in enumerate_classes(a2) if r.min_length == 0)
    graph = path_graph(ident_class.representative, ident_class.coset)
    assert graph.num_vertices == 6 and graph.surjective


def _full_sweep_path_graph(w, coset):
    """Oracle: W_w, the reached set and Z_W(w) from a sweep over all of W."""
    t = coset.table
    n = coset.system.rank
    wbody = coset.index(w)
    lw = t.length[wbody]
    # cm[x] = body of x^-1 (d^k w) x, for every x in W.
    cm = {0: wbody}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(n):
                y = t.right[i][x]
                if y not in cm:
                    cm[y] = conj(coset, cm[x], i)
                    nxt.append(y)
        frontier = nxt
    assert len(cm) == t.size
    vertices = {x for x in range(t.size) if t.length[cm[x]] == lw}
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(n):
                y = t.right[i][x]
                if y in vertices and y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    centralizer = {x for x in range(t.size) if cm[x] == wbody}
    return vertices, reached, centralizer


def _check_against_sweep(w, coset):
    graph = path_graph(w, coset)
    vertices, reached, centralizer = _full_sweep_path_graph(w, coset)
    assert graph.num_vertices == len(vertices)
    assert graph.reached == sorted(reached)
    assert graph.surjective == (reached == vertices)
    assert graph.centralizer_order == len(centralizer)
    assert graph.centralizer == sorted(centralizer & reached)
    assert graph.centralizer_covered == (centralizer <= reached)
    return graph


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "F4", "D4", "A5"])
def test_path_graph_matches_full_sweep(name):
    # Differential check of the class-sized counts against a sweep over W,
    # from the representative and from a longest element of every class.
    system = build_system(named_matrix(name))
    for tw in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, tw):
            t = rec.coset.table
            longest = max(rec.elements, key=lambda x: t.length[x])
            for x in (rec.o_min[0], longest):
                _check_against_sweep(rec.coset.element(x), rec.coset)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_path_graph_on_bare_coset(name):
    # With no enumerate_classes before it, path_graph builds the coset's
    # class partition on first use, once, and still matches the sweep.
    system = build_system(named_matrix(name))
    for tw in enumerate_twists(system.matrix):
        coset = TwistedCoset(system, tw)
        assert coset._classes is None
        for x in range(coset.table.size):
            _check_against_sweep(coset.element(x), coset)
        partition = coset.classes()
        assert coset.classes() is partition
        assert partition == [rec.elements for rec in enumerate_classes(system, tw)]
        w = coset.element(coset.table.size - 1)
        alone, shared = path_graph(w), path_graph(w, coset)
        assert (alone.num_vertices, alone.reached, alone.centralizer,
                alone.centralizer_order) == (
            shared.num_vertices, shared.reached, shared.centralizer,
            shared.centralizer_order)


def test_path_graph_uncovered_centralizer():
    # A3, identity twist, class 2 is not elliptic: tau misses part of W_w
    # and part of Z_W(w), and the counts say so.
    a3 = build_system(named_matrix("A3"))
    rec = enumerate_classes(a3)[2]
    assert not rec.elliptic
    graph = _check_against_sweep(rec.representative, rec.coset)
    assert not graph.surjective and not graph.centralizer_covered
    assert graph.centralizer_order == rec.coset.table.size // rec.size
    assert len(graph.centralizer) < graph.centralizer_order


def test_path_graph_rejects_class_not_dividing_w():
    # A table whose order the class size does not divide must stop the
    # walk, also under python -O (the check is no assert).
    script = (
        "from coxmin import conjugacy, coxeter\n"
        "from coxmin.errors import TheoremViolation\n"
        "system = coxeter.build_system(coxeter.named_matrix('A2'))\n"
        "rec = next(r for r in conjugacy.enumerate_classes(system)\n"
        "           if r.min_length == 1)\n"
        "rec.coset.table.size = 7\n"
        "try:\n"
        "    conjugacy.path_graph(rec.representative, rec.coset)\n"
        "except TheoremViolation as exc:\n"
        "    print('TheoremViolation', exc)\n")
    _expect_violation_under_optimize(script)


def test_partial_conjugation_transfer():
    a3 = build_system(named_matrix("A3"))
    rng = random.Random(3)
    tested = 0
    for J in ([0, 1], [1, 2], [0, 2], [0], [2], []):
        # Scan double-coset representatives normalizing W_J.
        tbl = a3.table()
        reps = []
        for idx in range(tbl.size):
            wt = untwisted(tbl.element(idx))
            if is_minimal_double_coset_rep(wt, J) and normalizes_parabolic(wt, J):
                reps.append(wt)
        for wt in reps[:3]:
            wj = parabolic_max(a3, J)
            xs = [a3.identity, wj]
            for _ in range(2):
                word = [rng.choice(J) for _ in range(rng.randrange(0, 4))] if J else []
                xs.append(a3.element_from_word(word))
            for x in xs[:3]:
                for y in xs[:3]:
                    assert partial_conjugation_transfer(J, wt, x, y)
                    tested += 1
    assert tested > 10


def test_class_record_flags_match_eigen():
    from coxmin.eigen import is_elliptic, is_quasi_elliptic
    h3 = build_system(named_matrix("H3"))
    for rec in enumerate_classes(h3):
        assert rec.elliptic == is_elliptic(rec.representative)
        assert rec.quasi_elliptic == is_quasi_elliptic(rec.representative)
        if rec.elliptic:
            assert rec.quasi_elliptic


def test_reduction_chain_checks_length_deltas():
    a2 = build_system(named_matrix("A2"))
    w = untwisted(a2.element_from_word([0, 1]))
    # Conjugating the Coxeter element s_1 s_2 by s_1 keeps its length.
    assert ReductionChain([(0, 0)]).apply(w).length() == 2
    with pytest.raises(TheoremViolation):
        ReductionChain([(0, -2)]).apply(w)


def test_elliptic_cross_check_survives_optimize():
    # A parabolic certificate that contradicts the fixed-space test must
    # stop enumerate_classes under python -O too (an assert would vanish).
    script = (
        "from coxmin import conjugacy, coxeter, eigen\n"
        "from coxmin.errors import TheoremViolation\n"
        "conjugacy.elliptic_parabolic_certificate = (\n"
        "    lambda w, bodies, table: not eigen.is_elliptic(w))\n"
        "system = coxeter.build_system(coxeter.named_matrix('A2'))\n"
        "try:\n"
        "    conjugacy.enumerate_classes(system)\n"
        "except TheoremViolation as exc:\n"
        "    print('TheoremViolation', exc)\n")
    _expect_violation_under_optimize(script)


def _expect_violation_under_optimize(script):
    """Run `script` under python -O; it must print a caught TheoremViolation."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("TheoremViolation"), proc.stdout


# ---------------------------------------------------------------------------
# Reducible W: the classes of a product against those of its factors.


def _block_diagonal(*names):
    """The Coxeter matrix of the product of the named types, one block each."""
    blocks = [named_matrix(name).entries for name in names]
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b:
            rows.append((2,) * at + tuple(row) + (2,) * (n - at - len(row)))
        at += len(b)
    return CoxeterMatrix(rows)


def _table(system, perm):
    """Sorted (minimal length, size) of the classes in the coset W d."""
    twist = DiagramTwist(system.matrix, perm)
    return sorted((r.min_length, r.size) for r in enumerate_classes(system, twist))


@pytest.mark.parametrize("name,twist,lengths,sizes", [
    ("A2", "3,4,1,2", [0, 1, 2], [6, 18, 12]),
    ("A3", "4,5,6,1,2,3", [0, 1, 2, 2, 3], [24, 144, 72, 192, 144]),
    ("A3", "4,5,6,3,2,1", [0, 1, 1, 2, 6], [72, 144, 144, 192, 24]),
    ("A3", "6,5,4,1,2,3", [0, 1, 1, 2, 6], [72, 144, 144, 192, 24]),
])
def test_twist_swapping_factors_matches_the_factor(name, twist, lengths, sizes):
    # d swaps the two copies of W, so (a, b) conjugation moves the product
    # of the two components by delta-twisted conjugation, delta the
    # automorphism d^2 induces on the first factor: the classes of W x W
    # under d are those of W under delta, each |W| times larger, with the
    # same minimal lengths.
    factor = build_system(named_matrix(name))
    n = factor.rank
    perm = [int(x) - 1 for x in twist.split(",")]
    delta = [perm[perm[i]] for i in range(n)]
    order = factor.table().size
    want = [(length, order * size) for length, size in _table(factor, delta)]
    got = _table(build_system(_block_diagonal(name, name)), perm)
    assert got == want
    assert [length for length, _ in got] == lengths
    assert [size for _, size in got] == sizes


def test_twist_keeping_factors_multiplies_classes():
    # A2 x A1 under the flip of A2: a class is a product of classes of the
    # factors, so minimal lengths add and sizes multiply.
    a2, a1 = build_system(named_matrix("A2")), build_system(named_matrix("A1"))
    want = sorted((l2 + l1, s2 * s1) for l2, s2 in _table(a2, [1, 0])
                  for l1, s1 in _table(a1, [0]))
    assert _table(build_system(_block_diagonal("A2", "A1")), [1, 0, 2]) == want
    assert want == [(0, 3), (1, 2), (1, 3), (2, 2), (3, 1), (4, 1)]


@pytest.mark.parametrize("name,counts", [
    ("A5", [11, 11]), ("A6", [15, 15]), ("B5", [36]), ("D5", [18, 18]),
    ("D6", [37, 31]), ("E6", [25, 25]),
])
def test_rank_five_and_six_class_counts(name, counts):
    # Carter, Conjugacy classes in the Weyl group (Compositio Math. 25, 1972):
    # one count per twist, the identity first.
    system = build_system(named_matrix(name))
    assert [len(enumerate_classes(system, t))
            for t in enumerate_twists(system.matrix)] == counts


@pytest.mark.parametrize("matrix,twists", [
    *[(named_matrix(name), None)
      for name in ("A1", "A3", "B3", "H3", "F4", "H4", "E6")],
    (named_matrix("D4"), ["1,2,3,4", "3,2,4,1"]),
    (_block_diagonal("A2", "A2"), ["3,4,1,2"]),
    (_block_diagonal("A3", "A3"), ["4,5,6,3,2,1", "6,5,4,1,2,3"]),
], ids=["A1", "A3", "B3", "H3", "F4", "H4", "E6", "D4", "A2xA2", "A3xA3"])
def test_orbit_scan_matches_union_find(matrix, twists):
    # The same lists in the same order, hence the same class ids, on every
    # power of each twist (1-based, as on the command line; None: all).
    system = build_system(matrix)
    if twists is None:
        twists = enumerate_twists(matrix)
    else:
        twists = [DiagramTwist(matrix, [int(x) - 1 for x in p.split(",")])
                  for p in twists]
    for d in twists:
        for k in range(d.order):
            coset = TwistedCoset(system, d, k)
            assert coset.classes() == classes_by_union_find(coset)
