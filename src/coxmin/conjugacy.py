"""Twisted conjugacy classes and the arrow / approx / strong relations.

A twisted class is a W-conjugacy orbit inside the coset W d^k of the
extended group.  All class-scale work runs over the GroupTable index space:
conjugation of d^k w by a simple reflection s_i sends the body w to
s_j w s_i with j = d^{-k}(i).  TwistedCoset.steps holds the two table rows
of each generator (x -> x s_i and u -> s_j u), and TwistedCoset.step_rows
their composite, one typed row per generator built once per coset.  Every
class-scale loop below reads one step_rows entry per simple conjugation;
path_graph also reads the right rows, and the witness search the growth
rows.

s_i (s_i x s_i) s_i = x, so the step graph is undirected, and each relation
on a class is a connected component of it.  One search, _reach, walks the
steps whose length change lies in a given window:

* TwistedCoset.classes: the class partition of the coset, one orbit scan
  over generator conjugations (all steps, on a byte array), computed once
  on first use.  enumerate_classes reads it, and path_graph reads the class
  of w from it through TwistedCoset.class_of.
* verify_arrow_reduction / arrow_reachable_set: the search from O_min by
  non-decreasing steps (gp1's search) must cover the class; the arrow reach
  of w is the search from w by non-increasing steps.
* arrow_reduce: the chain is read off gp1's search, kept on the record as
  body -> BFS position.  Each step goes to the neighbour of no greater
  length with the least position, which is the BFS parent, so a chain is a
  shortest non-increasing path into O_min and depends on w alone.  A class
  costs one search, whichever of its elements are reduced and in which
  order.
* approx_partition / strong_partition: the blocks of O_min under
  equal-length simple conjugation (a level search from each block's least
  element), respectively under elementary strong conjugation.  Elementary
  strong conjugation is symmetric, so a strong block is a search from its
  least element that grows by approx blocks and by the targets of the
  witness search.  The witness search grows length-additive conjugators
  letter by letter, once on the left and once on the right; each of the two
  families admits a conjugator only the first time it meets it, so one
  search admits at most 2(|W| - 1) and needs no cap.  The search yields
  targets as it meets them, and strong_partition stops drawing the moment
  every element of O_min is placed (the theorem says one block holds them).
* path_graph: the part of W_w = {x : l(x^-1 w x) = l(w)} that tau reaches
  by paths of equal-length simple conjugations, with the centralizer
  coverage report, counted by covering.  The x -> x s_i graph on it covers
  the step graph on the approx block B(w) of w, with fibre Z_R, the group
  of tau-images of closed paths at w.  A level search over B(w) lifts each
  element to W, its non-tree edges give generators of Z_R (Schreier's
  lemma), and one subgroup closure with a Lagrange stop counts Z_R.
  Orbit-stabilizer counts the targets from the class C of w alone:
  |Z_W(w)| = |W| / |C| and |W_w| = |Z_W(w)| * #{u in C : l(u) = l(w)}, with
  C read from the coset's class partition.  So a class costs one scan of C,
  |B(w)| * n steps and one closure inside Z_W(w), not a walk over W_w.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from operator import itemgetter
from typing import Iterator, Sequence

from .coxeter import (CoxeterMatrix, CoxeterSystem, DiagramTwist, GroupElement,
                      GroupTable, TwistedElement, build_system,
                      is_minimal_double_coset_rep, normalizes_parabolic,
                      parabolic_index_map)
from .eigen import (elliptic_parabolic_certificate, is_elliptic,
                    is_quasi_elliptic)
from .errors import TheoremViolation


class TwistedCoset:
    """The coset W d^k with table-backed conjugation by simple reflections."""

    def __init__(self, system: CoxeterSystem, twist: DiagramTwist, k: int = 1,
                 max_order: int = 10 ** 6):
        if twist.matrix != system.matrix:
            raise ValueError(f"{twist!r} is a twist of another Coxeter matrix")
        self.system = system
        self.twist = twist
        self.k = k % twist.order
        self.table = t = system.table(max_order)
        # steps[i] = (row of x -> x s_i, row of u -> d^-k(s_i) u), so that
        # s_i (d^k x) s_i has body lrow[rrow[x]].
        self.steps = [(t.right[i], t.left[twist.apply_index(i, -self.k)])
                      for i in range(system.rank)]
        # step_rows[i][x] = lrow[rrow[x]], composed once: one read per step.
        # Entries are 16-bit up to 2^16 elements and 32-bit above, as the
        # table widens its packed rows.
        code = "H" if t.size <= 1 << 16 else "I"
        self.step_rows = [array(code, itemgetter(*rrow)(lrow))
                          for rrow, lrow in self.steps]
        self._classes: list[list[int]] | None = None
        self._class_id = array("i")

    def length(self, x: int) -> int:
        return self.table.length[x]

    def classes(self) -> list[list[int]]:
        """The W-classes of the coset, found once by one orbit scan over
        `step_rows`.

        Each class is its ascending list of bodies.  The classes are ordered
        by (minimal length, size, least body); the position is the class id.
        Indices run in order of length, so a class's minimal length is that
        of its least body.
        """
        if self._classes is None:
            length = self.table.length
            seen = bytearray(self.table.size)
            rows = list(zip(self.step_rows, self.steps))
            classes = []
            x = seen.find(0)
            while x >= 0:
                seen[x] = 1
                els = [x]
                for y in els:       # els grows as the scan runs: a BFS queue
                    for row, (rrow, lrow) in rows:
                        if not seen[row[y]]:
                            # Keep the table's own int, not the new one an
                            # array read makes.
                            z = lrow[rrow[y]]
                            seen[z] = 1
                            els.append(z)
                els.sort()
                classes.append(els)
                x = seen.find(0, x + 1)
            self._classes = sorted(classes, key=lambda els: (length[els[0]],
                                                             len(els), els[0]))
        return self._classes

    def class_of(self, x: int) -> list[int]:
        """The class of body x, as its ascending list of bodies.

        The body -> class id map is built on the first call, so a caller
        that never asks keeps no per-body array.
        """
        if not self._class_id:
            class_id = array("i", [0]) * self.table.size
            for cid, els in enumerate(self.classes()):
                for y in els:
                    class_id[y] = cid
            self._class_id = class_id
        return self._classes[self._class_id[x]]

    def element(self, x: int) -> TwistedElement:
        return TwistedElement(self.system, self.twist, self.k, self.table.element(x))

    def index(self, w: TwistedElement) -> int:
        if w.k != self.k or w.twist != self.twist:
            raise ValueError("element lies outside this twisted coset")
        return self.table.index_of(w.body)


def _reach(coset: TwistedCoset, starts: Sequence[int], lo: int, hi: int) -> list[int]:
    """Bodies reached from `starts` by steps x -> y = step_rows[i][x], one
    row read each, with lo <= l(y) - l(x) <= hi, in BFS order, `starts`
    first.

    s_i (s_i x s_i) s_i = x, so every step can be taken back: with lo = -hi
    the search is a connected component.
    """
    length = coset.table.length
    reached = list(starts)
    seen = set(reached)
    for x in reached:       # reached grows as the search runs: a BFS queue
        lx = length[x]
        for row in coset.step_rows:
            y = row[x]
            if y not in seen and lo <= length[y] - lx <= hi:
                seen.add(y)
                reached.append(y)
    return reached


def _least_length_prefix(els: list[int], length) -> list[int]:
    """O_min of an ascending class list: indices run in order of length, so
    it is the prefix of els at the length of its first element."""
    return els[:bisect_right(els, length[els[0]], key=length.__getitem__)]


@dataclass
class ConjugacyClassRecord:
    coset: TwistedCoset
    class_id: int
    elements: list[int]          # body indices, ascending
    o_min: list[int]             # body indices of minimal length, ascending
    min_length: int
    elliptic: bool
    quasi_elliptic: bool
    # arrow_reduce's body -> position in gp1's search, built on first use
    _positions: dict | None = dc_field(default=None, repr=False)
    # braid.good_min_element's (w_A, certificate) per (angles, start_index)
    _good: dict = dc_field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def representative(self) -> TwistedElement:
        return self.coset.element(self.o_min[0])


def enumerate_classes(system: CoxeterSystem, twist: DiagramTwist | None = None,
                      max_order: int = 10 ** 6) -> list[ConjugacyClassRecord]:
    """All W-conjugacy classes in the coset W d (a power of d is a twist of
    its own), as records.

    Each class's ellipticity is certified twice: by the fixed-space test and
    by the parabolic criterion (TheoremViolation if they disagree).
    """
    if twist is None:
        twist = DiagramTwist(system.matrix, tuple(range(system.rank)))
    coset = TwistedCoset(system, twist, max_order=max_order)
    t = coset.table
    records = []
    for cid, els in enumerate(coset.classes()):
        o_min = _least_length_prefix(els, t.length)
        mlen = t.length[els[0]]
        rep = coset.element(o_min[0])
        ell = is_elliptic(rep)
        if elliptic_parabolic_certificate(rep, els, t) != ell:
            raise TheoremViolation(
                "parabolic criterion disagrees with the fixed-space test")
        records.append(ConjugacyClassRecord(
            coset=coset, class_id=cid, elements=els, o_min=o_min,
            min_length=mlen, elliptic=ell,
            quasi_elliptic=is_quasi_elliptic(rep)))
    return records


# ---------------------------------------------------------------------------
# Arrow reduction.


@dataclass
class ReductionChain:
    """Conjugation steps (simple index, length delta in {0, -2})."""
    steps: list[tuple[int, int]]

    def __len__(self):
        return len(self.steps)

    def apply(self, w: TwistedElement) -> TwistedElement:
        cur = w
        for i, delta in self.steps:
            nxt = cur.conjugate_by_simple(i)
            if nxt.length() - cur.length() != delta:
                raise TheoremViolation(
                    f"conjugating by s_{i} changes the length by "
                    f"{nxt.length() - cur.length()}, the chain records {delta}")
            cur = nxt
        return cur


def _positions(coset: TwistedCoset, o_min: list[int],
               size: int) -> dict[int, int]:
    """Body -> position in gp1's search, O_min's reach by non-decreasing
    steps (O_min first), for a class of `size` bodies; TheoremViolation if
    the search does not cover the class."""
    reached = _reach(coset, o_min, 0, coset.system.npos)
    if len(reached) != size:
        raise TheoremViolation(
            f"{size - len(reached)} class elements cannot reach O_min")
    return {x: p for p, x in enumerate(reached)}


def arrow_reduce(w: TwistedElement, record: ConjugacyClassRecord | None = None
                 ) -> tuple[TwistedElement, ReductionChain]:
    """A shortest chain of non-increasing simple conjugations from w into
    O_min, read off gp1's search (the search of verify_arrow_reduction).

    Each step goes to the neighbour of no greater length with the least
    position in the search.  That is the BFS parent, so the chain depends
    on w alone, not on which elements were reduced before.  With a record
    the search runs once per class and is kept on the record; ValueError if
    w lies outside the record's class.  Without one, w's class is searched
    first and its least-length bodies taken as O_min.  TheoremViolation if
    the search from O_min does not cover the class (the theorem says it
    does).
    """
    if record is not None:
        coset = record.coset
        x = coset.index(w)
        els = record.elements
        i = bisect_left(els, x)
        if i == len(els) or els[i] != x:
            raise ValueError("element lies outside this class")
        if record._positions is None:
            record._positions = _positions(coset, record.o_min, record.size)
        position, n_min = record._positions, len(record.o_min)
    else:
        coset = TwistedCoset(w.system, w.twist, w.k)
        x = coset.index(w)
        npos = coset.system.npos
        els = sorted(_reach(coset, [x], -npos, npos))
        o_min = _least_length_prefix(els, coset.table.length)
        position, n_min = _positions(coset, o_min, len(els)), len(o_min)
    length = coset.table.length
    rows = list(enumerate(coset.step_rows))
    steps = []
    px = position[x]
    while px >= n_min:      # O_min holds the first n_min positions
        # The parent was met before x, so its position is below px.
        lx, parent = length[x], px
        for i, row in rows:
            y = row[x]
            py = position[y]
            if py < parent and length[y] <= lx:
                parent, step, nxt = py, i, y
        steps.append((step, length[nxt] - lx))
        x, px = nxt, parent
    return coset.element(x), ReductionChain(steps)


def verify_arrow_reduction(record: ConjugacyClassRecord) -> bool:
    """Every class element reaches O_min: O_min's reach by non-decreasing
    steps (non-increasing ones, taken back) covers the class."""
    reached = _reach(record.coset, record.o_min, 0, record.coset.system.npos)
    if len(reached) != record.size:
        raise TheoremViolation(
            f"class {record.class_id}: {record.size - len(reached)} elements "
            "cannot reach O_min")
    return True


# ---------------------------------------------------------------------------
# Partitions of O_min.


def approx_partition(record: ConjugacyClassRecord) -> list[list[int]]:
    """Blocks of O_min (body indices) under equal-length simple conjugation.

    An equal-length step from O_min stays in O_min, so a block is the
    level search from its least element.
    """
    placed: set[int] = set()
    blocks = []
    for x in record.o_min:
        if x not in placed:
            block = _reach(record.coset, [x], 0, 0)
            placed.update(block)
            blocks.append(sorted(block))
    return blocks


def elementary_strong_targets(coset: TwistedCoset, x: int) -> Iterator[int]:
    """Bodies elementarily strongly conjugate to d^k x, each yielded once.

    A generator: each target is yielded as the search first meets it, so a
    caller that has its answer can stop drawing and skip the rest.

    The search grows conjugators in BFS order with the length-additivity
    condition maintained letter by letter (the condition is prefix-closed on
    the additive side, so no witness is missed): g on the left with
    l(g w) = l(g) + l(w), and h = g^-1 on the right with l(w h) = l(w) + l(h).
    Each of the two families admits a conjugator only the first time it
    meets it, so the search ends after at most 2(|W| - 1) admissions.
    """
    t = coset.table
    length = t.length
    lw = length[x]
    targets: set[int] = set()

    # State (g, b, c): b is the body of the additive product (g d^k x on the
    # left, d^k x h on the right) and c that of the conjugate.  The letter i
    # moves g and b by the rows grow[i] and c by coset.step_rows[i]; on the
    # left b grows by d^-k(s_i), on the right both grow by s_i.
    left_growth = [(t.left[i], lrow) for i, (_, lrow) in enumerate(coset.steps)]
    right_growth = [(rrow, rrow) for rrow, _ in coset.steps]
    step_rows = coset.step_rows
    for grow in (left_growth, right_growth):
        seen = {0}
        frontier = [(0, x, x)]
        while frontier:
            nxt = []
            for g, b, c in frontier:
                if length[c] == lw and c not in targets:
                    targets.add(c)
                    yield c
                for (grow_g, grow_b), row in zip(grow, step_rows):
                    g2 = grow_g[g]
                    if length[g2] != length[g] + 1 or g2 in seen:
                        continue
                    b2 = grow_b[b]
                    if length[b2] != length[b] + 1:
                        continue
                    seen.add(g2)
                    nxt.append((g2, b2, row[c]))
            frontier = nxt


def _strong_block(coset: TwistedCoset, x: int, members: set[int],
                  placed: set[int]) -> list[int]:
    """The strong block of x among `members`, ascending; adds it to `placed`.

    Elementary strong conjugation is symmetric (a left-additive conjugator,
    inverted, is right-additive for the target), so the block is a search
    from x.  It grows by approx blocks (equal-length simple conjugations
    satisfy the elementary witness condition unless the step is trivial)
    and by the targets of the elementary search.  Once `placed` holds every
    member, the rest of `members` is in this block and the search stops,
    even partway through drawing targets; every element added is backed by
    a witnessed conjugator.
    """
    block = _reach(coset, [x], 0, 0)
    placed.update(block)
    for z in block:         # block grows as the search runs
        if len(placed) == len(members):
            break
        for y in elementary_strong_targets(coset, z):
            if y in members and y not in placed:
                level = _reach(coset, [y], 0, 0)
                placed.update(level)
                block.extend(level)
                if len(placed) == len(members):
                    break
    return sorted(block)


def strong_partition(record: ConjugacyClassRecord) -> list[list[int]]:
    """Blocks of O_min under strong conjugation, each searched from its
    least element.  The theorem says O_min is one block, so one search
    places every element and the rest of it is skipped."""
    members = set(record.o_min)
    placed: set[int] = set()
    return [_strong_block(record.coset, x, members, placed)
            for x in record.o_min if x not in placed]


def verify_elliptic_approx(record: ConjugacyClassRecord) -> bool:
    """Elliptic classes have a single approx block on O_min."""
    if not record.elliptic:
        raise ValueError("verify_elliptic_approx needs an elliptic class")
    blocks = approx_partition(record)
    if len(blocks) != 1:
        raise TheoremViolation(
            f"elliptic class {record.class_id}: O_min splits into "
            f"{len(blocks)} approx blocks")
    return True


# ---------------------------------------------------------------------------
# The path graph on W_w and the tau map.


@dataclass
class PathGraph:
    """The part of W_w that tau reaches, counted through the approx block of w.

    c(x) = x^-1 (d^k w) x, W_w = {x : l(c(x)) = l(w)}, and tau sends a path
    of equal-length simple conjugations from w to the product of its
    letters.  `num_vertices` is |W_w| and `centralizer_order` is |Z_W(w)|,
    both exact counts from orbit-stabilizer.  `lifts` maps each element u of
    the approx block B(w) to x_u, the tau-image of its path in the search
    tree, so c(x_u) = u and x_w = 1.  `generators` are tau-images of closed
    paths at w, each outside the group the ones before it generate; they
    generate Z_R = tau(closed paths at w), of order `closed_order`.

    c(zx) = c(x) for z in Z_W(w), so the fibres of c are cosets Z_W(w) x,
    and the x -> x s_i graph on the reached part R of W_w covers the step
    graph on B(w) with fibre Z_R: R is the disjoint union of the cosets
    Z_R x_u over u in B(w), and |R| = |B(w)| * |Z_R| (`num_reached`).
    R lies inside W_w and Z_R inside Z_W(w), so equal counts prove
    surjectivity and coverage.
    """
    coset: TwistedCoset
    num_vertices: int
    centralizer_order: int
    lifts: dict[int, int]
    generators: list[int]
    closed_order: int

    @property
    def num_reached(self) -> int:
        return len(self.lifts) * self.closed_order

    @property
    def surjective(self) -> bool:
        return self.num_reached == self.num_vertices

    @property
    def centralizer_covered(self) -> bool:
        return self.closed_order == self.centralizer_order


def _tree_word(t: GroupTable, x: int) -> list[int]:
    """The letters of x's path in the table's search tree, a reduced word."""
    word = []
    while x:
        word.append(t.letter[x])
        x = t.parent[x]
    return word[::-1]


def _adjoin(t: GroupTable, group: list[int], mask: bytearray,
            generators: list[int], z_order: int) -> bool:
    """Grow the group H listed in `group` and marked in `mask` to the group
    `generators` generate, H's generators and one more, g, by Dimino's
    algorithm.

    <H, g> is the union of the right cosets H r it meets, and H r s is
    (H r) s, so each new coset is a listed one times a generator's tree
    word, by right rows; `group` holds the cosets in order, one block of
    |H| per representative.  Lagrange stop: <H, g> <= Z_W(w), so |<H, g>|
    divides z_order, and once more than z_order / 2 elements are listed it
    is z_order.  The closure stops there and returns True: <H, g> = Z_W(w),
    with `group` only partly listed.
    """
    right = t.right
    words = [_tree_word(t, g) for g in generators]
    size = len(group)
    reps = [0]
    for j, r in enumerate(reps):    # reps grows as the closure runs: a queue
        for wd in words:
            y = r
            for i in wd:
                y = right[i][y]
            if not mask[y]:
                block = group[j * size:(j + 1) * size]
                for i in wd:
                    block = list(map(right[i].__getitem__, block))
                for x in block:
                    mask[x] = 1
                group += block
                reps.append(y)
                if 2 * len(group) > z_order:
                    return True
    return False


def path_graph(w: TwistedElement, coset: TwistedCoset) -> PathGraph:
    """The tau-reachable part of W_w, counted as |B(w)| * |Z_R|.

    A level search from w over step_rows finds the approx block B(w), and
    lifts each element along the search tree: x_v = x_u s_i on a tree edge
    u -> v, one right-row read.  By Schreier's lemma (Seress, Permutation
    Group Algorithms, Lemma 4.2.1), the closed paths at w are generated by
    the tree's fundamental cycles, so Z_R is generated by the images
    z = x_u s_i x_v^-1 of the non-tree edges u -> v, read by right rows up
    x_v's tree chain in the table.  A generator is kept only when it lies
    outside the group H the kept ones generate (a byte mask over W), and H
    is closed at once (_adjoin); each kept one at least doubles |H|, so at
    most log2 |Z_R| are kept.  Once H = Z_W(w), by the Lagrange stop, the
    remaining edges need no image.  A class costs |B(w)| * n steps plus one
    subgroup closure, not a walk over W_w.

    The targets are counted from the class C of w instead of swept over W:
    x -> x^-1 w x maps W onto C and the fibre over each u is a coset Z_W(w) x.
    So |Z_W(w)| = |W| / |C| and |W_w| = |Z_W(w)| * #{u in C : l(u) = l(w)}.
    C is read from the coset's class partition (computed on first use).  A
    class whose size does not divide |W| raises TheoremViolation.
    """
    t = coset.table
    length, right = t.length, t.right
    wbody = coset.index(w)
    lw = length[wbody]

    # The class C of w, and how many of its elements have length l(w).
    cls = coset.class_of(wbody)
    level = sum(1 for u in cls if length[u] == lw)
    if t.size % len(cls):
        raise TheoremViolation(
            f"class of size {len(cls)} does not divide |W| = {t.size}")
    z_order = t.size // len(cls)

    steps = list(zip(coset.step_rows, right))
    lifts = {wbody: 0}
    block = [wbody]
    group, mask, generators = [0], bytearray(t.size), []
    mask[0] = 1
    full = z_order == 1
    for u in block:         # block grows as the search runs: a BFS queue
        xu = lifts[u]
        for row, rrow in steps:
            v = row[u]
            if length[v] != lw:
                continue
            z = rrow[xu]
            xv = lifts.get(v)
            if xv is None:
                lifts[v] = z
                block.append(v)
            elif z != xv and not full:
                for i in reversed(_tree_word(t, xv)):   # z = x_u s_i x_v^-1
                    z = right[i][z]
                if not mask[z]:
                    generators.append(z)
                    full = _adjoin(t, group, mask, generators, z_order)
    return PathGraph(coset=coset, num_vertices=z_order * level,
                     centralizer_order=z_order, lifts=lifts, generators=generators,
                     closed_order=z_order if full else len(group))


def verify_tau_surjective(w: TwistedElement, coset: TwistedCoset) -> PathGraph:
    graph = path_graph(w, coset)
    if not graph.surjective:
        raise TheoremViolation(
            f"tau not surjective: {graph.num_reached} of {graph.num_vertices} reached")
    if not graph.centralizer_covered:
        raise TheoremViolation("some centralizer element has no closed path")
    return graph


# ---------------------------------------------------------------------------
# Arrow reachability and the partial conjugation transfer oracle.


def arrow_reachable_set(w: TwistedElement, coset: TwistedCoset) -> set[int]:
    """Bodies reachable from w by non-increasing simple conjugations."""
    return set(_reach(coset, [coset.index(w)], -coset.system.npos, 0))


def _strong_related(coset: TwistedCoset, a: int, b: int) -> bool:
    """Whether d^k a ~ d^k b (transitive closure of elementary strong):
    b in the strong block of a among the elements of a's class at a's
    length."""
    length, npos = coset.table.length, coset.system.npos
    members = {u for u in _reach(coset, [a], -npos, npos) if length[u] == length[a]}
    return b in _strong_block(coset, a, members, set())


def parabolic_subsystem(w_prime: TwistedElement, J: Sequence[int]):
    """The twisted group <d'> x| W_J induced by conjugation by w_prime.

    Returns (subsystem, twist, to_sub) where to_sub maps elements of W_J to
    the subsystem; requires w_prime(J) = J.
    """
    J = sorted(J)
    sys_full = w_prime.system
    if not normalizes_parabolic(w_prime, J):
        raise ValueError("w' must normalize W_J")
    sub = build_system(CoxeterMatrix([[sys_full.matrix[a, b] for b in J]
                                      for a in J]))
    imap = parabolic_index_map(w_prime, J)
    pos = {j: p for p, j in enumerate(J)}
    sub_twist = DiagramTwist(sub.matrix, tuple(pos[imap[j]] for j in J))

    def to_sub(g: GroupElement) -> GroupElement:
        word = g.to_word()
        if not all(i in J for i in word):
            raise ValueError("element is not in W_J")
        return sub.element_from_word([pos[i] for i in word])

    return sub, sub_twist, to_sub


def partial_conjugation_transfer(J: Sequence[int], w_prime: TwistedElement,
                                 x: GroupElement, y: GroupElement) -> bool:
    """Check the transfer law between W~ and <d'> x| W_J for w' normalizing W_J.

    Tests that w'x -> w'y iff d'x -> d'y in the subsystem (and the same for
    the approx and strong relations).  Returns True when all three agree;
    raises TheoremViolation otherwise.
    """
    J = sorted(J)
    sys_full = w_prime.system
    if not (is_minimal_double_coset_rep(w_prime, J) and normalizes_parabolic(w_prime, J)):
        raise ValueError("w' must be the minimal double coset rep normalizing W_J")
    if not J:
        # W_J is trivial: both sides compare w' with itself.
        if not (x.is_identity() and y.is_identity()):
            raise ValueError("x and y must lie in the trivial W_J")
        return True

    sub, sub_twist, to_sub = parabolic_subsystem(w_prime, J)
    full_coset = TwistedCoset(sys_full, w_prime.twist, w_prime.k)
    sub_coset = TwistedCoset(sub, sub_twist, 1)

    wx = w_prime * TwistedElement(sys_full, w_prime.twist, 0, x)
    wy = w_prime * TwistedElement(sys_full, w_prime.twist, 0, y)
    dx = TwistedElement(sub, sub_twist, 1, to_sub(x))
    dy = TwistedElement(sub, sub_twist, 1, to_sub(y))

    arrow_full = full_coset.index(wy) in arrow_reachable_set(wx, full_coset)
    arrow_sub = sub_coset.index(dy) in arrow_reachable_set(dx, sub_coset)
    if arrow_full != arrow_sub:
        raise TheoremViolation("partial conjugation: arrow relation does not transfer")

    # x -> y and y -> x means one length throughout: y in x's level search.
    approx_full = full_coset.index(wy) in _reach(full_coset, [full_coset.index(wx)], 0, 0)
    approx_sub = sub_coset.index(dy) in _reach(sub_coset, [sub_coset.index(dx)], 0, 0)
    if approx_full != approx_sub:
        raise TheoremViolation("partial conjugation: approx relation does not transfer")

    strong_full = _strong_related(full_coset, full_coset.index(wx), full_coset.index(wy))
    strong_sub = _strong_related(sub_coset, sub_coset.index(dx), sub_coset.index(dy))
    if strong_full != strong_sub:
        raise TheoremViolation("partial conjugation: strong relation does not transfer")
    return True
