"""The benchmark's workloads: set-up, timed operations and their checks.

A workload is built in two phases. `setup` builds the root system, the
group table and the class enumeration of every (type, twist) it covers,
which every `coxmin` invocation pays before its first row. `build_ops` then
returns the operations in a fixed order. Each operation has a timed part,
which calls coxmin's public functions only, and an untimed check of what
they returned.

coxmin is reached through its modules (`conjugacy.strong_partition`, not a
name imported from them), so that the traced run sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from coxmin import braid, conjugacy, coxeter, eigen, linalg, walk
from coxmin.errors import HypothesisFailed

import checks

RANK4_TYPES = ("A3", "A4", "B3", "H3", "F4", "G2", "I2(5)", "I2(8)")
WALKS_PER_CLASS = 3


@dataclass
class Op:
    """One timed operation: `run` calls coxmin, `check` judges its output."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    types: tuple[str, ...]
    make_ops: Callable[[dict, random.Random], list[Op]]


def setup(workload: Workload) -> dict:
    """Systems, tables and class records of every (type, twist), in order."""
    state = {}
    for name in workload.types:
        matrix = coxeter.named_matrix(name)
        system = coxeter.build_system(matrix)
        system.table()
        for twist in coxeter.enumerate_twists(matrix):
            records = conjugacy.enumerate_classes(system, twist)
            state[(name, twist.perm)] = records
    return state


def check_tables(state: dict) -> None:
    """Published class counts and |W| for every type of the workload."""
    by_type: dict[str, dict] = {}
    for (name, perm), records in state.items():
        by_type.setdefault(name, {})[perm] = [rec.size for rec in records]
    for name, tables in by_type.items():
        checks.check_class_table(name, tables)


def build_ops(workload: Workload, state: dict, seed: int) -> list[Op]:
    return workload.make_ops(state, random.Random(seed))


# ---------------------------------------------------------------------------
# Shared pieces.


class _VwCache:
    """V_w of each class representative, for the walk end-point check.

    Computed once per class, outside the timed part, over the field the
    walk returned its point in (which already holds 2cos(2pi/d), so no
    system is rebuilt for the check), and apart from eigen_decomposition.
    """

    def __init__(self):
        self._bases: dict = {}

    def basis(self, rec, walk_system) -> list:
        key = (id(rec), walk_system.field.L)
        if key not in self._bases:
            rep = rec.representative
            w = coxeter.TwistedElement(
                walk_system, rep.twist, rep.k,
                coxeter.GroupElement(walk_system, rep.body.perm))
            self._bases[key] = _least_angle_eigenspace(w)
        return self._bases[key]


def _least_angle_eigenspace(w) -> list:
    """A basis of the eigenspace of w for its least eigen-angle.

    w + w^-1 acts on the theta-eigenspace as 2cos(theta), and the angles are
    2k*pi/d for the order d of w; the first nonzero kernel in increasing
    angle is the one wanted.
    """
    system = w.system
    field, n = system.field, system.rank
    s = [tuple(a + b for a, b in zip(ra, rb))
         for ra, rb in zip(w.matrix(), w.inverse().matrix())]
    d = eigen.order(w)
    for k in range(d // 2 + 1):
        c2 = field.two_cos(Fraction(2 * k, d))
        rows = [tuple(s[i][j] - (c2 if i == j else field.zero) for j in range(n))
                for i in range(n)]
        basis = linalg.kernel_basis(rows, n, field)
        if basis:
            return basis
    raise checks.CheckFailed(f"w + w^-1 has no eigenvalue 2cos(2k pi/{d})")


def _random_chambers(rec, rng: random.Random, count: int) -> list:
    table = rec.coset.table
    system = rec.coset.system
    return [coxeter.Chamber(system, table.element(rng.randrange(table.size)))
            for _ in range(count)]


def _cli_chambers(rec, count: int) -> list:
    """The start chambers of `coxmin verify --checks walk` at --seed-index 0."""
    table = rec.coset.table
    system = rec.coset.system
    return [coxeter.Chamber(system, table.element((rec.class_id * 7919 + j * 104729)
                                                  % table.size))
            for j in range(count)]


def _walk_op(rec, chamber, vw: _VwCache) -> tuple[Callable, Callable]:
    rep = rec.representative

    def run():
        return walk.descent_walk(rep, chamber)

    def check(result):
        checks.check_walk(rep, chamber, result,
                          vw.basis(rec, result.end_chamber.system))
    return run, check


# ---------------------------------------------------------------------------
# verify-rank4: the eight `coxmin verify` checks, one class per operation.


def _verify_class(rec, chambers: list, vw: _VwCache) -> Op:
    rep = rec.representative

    def run():
        out = {"gp1": conjugacy.verify_arrow_reduction(rec),
               "gp2": conjugacy.strong_partition(rec)}
        if rec.elliptic:
            out["elliptic"] = conjugacy.approx_partition(rec)
            out["tau"] = conjugacy.verify_tau_surjective(rep, rec.coset)
        out["good"] = braid.good_min_element(rec, start_index=0)
        if rec.quasi_elliptic:
            out["quasi"] = braid.verify_quasi_elliptic_divisibility(rec)
        out["walk"] = [walk.descent_walk(rep, ch, start_index=0) for ch in chambers]
        out["formulas"] = _formula_sweep(rep)
        return out

    def check(out):
        checks.check_record(rec)
        checks.ensure(out["gp1"] is True, "gp1 did not certify the class")
        checks.check_partition(rec, out["gp2"], "strong")
        if rec.elliptic:
            checks.check_partition(rec, out["elliptic"], "approx")
            checks.ensure(out["tau"].surjective, "tau is not surjective")
        checks.check_good(rec, *out["good"])
        if rec.quasi_elliptic:
            checks.ensure(out["quasi"] is True, "quasi-elliptic divisibility failed")
        for chamber, result in zip(chambers, out["walk"]):
            checks.check_walk(rep, chamber, result,
                              vw.basis(rec, result.end_chamber.system))
        formulas = out["formulas"]
        for w, value in formulas["special"]:
            checks.check_special_length(w, value)
        for w_a, parts in formulas["decompositions"]:
            checks.check_decomposition(w_a, *parts)
        checks.ensure(formulas["decompositions"],
                      "the walk end point did not accept the decomposition")

    return Op(f"class {rec.class_id}", run, check)


def _formula_sweep(rep) -> dict:
    """The `formulas` check of `coxmin verify`, keeping what it returns."""
    eig = eigen.eigen_decomposition(rep, dft_check=False)
    w = eig.owner
    fund = coxeter.Chamber.fundamental(eig.system)
    special, decompositions = [], []
    for _, _, basis in eig.entries:
        try:
            special.append((w, walk.special_length_formula(w, basis, fund)))
        except HypothesisFailed:
            pass
        try:
            decompositions.append((w, walk.decompose_at_regular(w, fund, basis)))
        except HypothesisFailed:
            pass
    # The walk end point always accepts the decomposition at K = V_w.
    result = walk.descent_walk(w, fund, start_index=0)
    w_end = w.conjugate_by(result.end_chamber.x)
    decompositions.append(
        (w_end, walk.decompose_at_regular(w, result.end_chamber, eig.v_wt)))
    return {"special": special, "decompositions": decompositions}


def _rank4_ops(state: dict, rng: random.Random) -> list[Op]:
    vw = _VwCache()
    ops = []
    for (name, perm), records in state.items():
        for rec in records:
            chambers = _random_chambers(rec, rng, WALKS_PER_CLASS)
            op = _verify_class(rec, chambers, vw)
            op.label = f"{name} twist {perm} {op.label}"
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# walk-h4: the walk check of `coxmin verify --type H4`, one walk per operation,
# plus one walk that takes the slow path.
#
# The start chambers do not depend on the seed. From random chambers a few
# walks take a slow path: about 10 s where the other walks of their class
# take 1.5 s. Drawn per seed, they made the round total vary from 28 s to
# 52 s between seeds. One such walk (class 8 from chamber 6506, 62 steps)
# is a fixed operation instead, so the slow path is measured in every run.
H4_SLOW_WALK = (8, 6506)


def _h4_walk_ops(state: dict, rng: random.Random) -> list[Op]:
    vw = _VwCache()
    ops = []
    for (name, perm), records in state.items():
        for rec in records:
            for j, chamber in enumerate(_cli_chambers(rec, WALKS_PER_CLASS)):
                run, check = _walk_op(rec, chamber, vw)
                ops.append(Op(f"{name} class {rec.class_id} walk {j}", run, check))
            if rec.class_id == H4_SLOW_WALK[0]:
                slow = coxeter.Chamber(rec.coset.system,
                                       rec.coset.table.element(H4_SLOW_WALK[1]))
                run, check = _walk_op(rec, slow, vw)
                ops.append(Op(f"{name} class {rec.class_id} slow-path walk", run, check))
    return ops


# ---------------------------------------------------------------------------
# classes-e6: one `coxmin classes` row plus gp1 per class.


def _class_row(rec) -> Op:
    def run():
        graph = conjugacy.path_graph(rec.representative, rec.coset)
        return {"approx": conjugacy.approx_partition(rec),
                "strong": conjugacy.strong_partition(rec),
                "graph": graph,
                "gp1": conjugacy.verify_arrow_reduction(rec)}

    def check(out):
        checks.check_record(rec)
        checks.check_partition(rec, out["strong"], "strong")
        if rec.elliptic:
            checks.check_partition(rec, out["approx"], "approx")
            checks.ensure(out["graph"].surjective, "tau is not surjective")
        checks.ensure(out["gp1"] is True, "gp1 did not certify the class")

    return Op(f"class {rec.class_id}", run, check)


def _e6_ops(state: dict, rng: random.Random) -> list[Op]:
    ops = []
    for (name, perm), records in state.items():
        for rec in records:
            op = _class_row(rec)
            op.label = f"{name} twist {perm} {op.label}"
            ops.append(op)
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-rank4", RANK4_TYPES, _rank4_ops),
        Workload("walk-h4", ("H4",), _h4_walk_ops),
        Workload("classes-e6", ("E6",), _e6_ops),
    )
}
